import copy

import numpy as np
import pytest

from hydramerge.adapters import LowRankAdapter, SharedLoraSlot, SharedVeraSlot, VeraAdapter
from hydramerge import hydra
from hydramerge.adapters import AdapterCollection, MergedBundle, SlotKey
from hydramerge.errors import (
    DegenerateInputError,
    NumericalError,
    ParameterError,
    ShapeError,
    ValidationError,
)
from hydramerge.gradcheck import run_suite
from hydramerge.hydra import (
    HydraConfig,
    HydraGrads,
    HydraState,
    InitScheme,
    adamw_step,
    assign_tasks,
    gradients,
    init_state,
    init_vera_state,
    loss,
    loss_eq1,
    loss_eq2,
    merge_collection_hydra,
    train,
    train_vera,
    vera_loss,
)
from hydramerge.linalg import DistanceKind, Rng, gaussian_sample


def make_targets(num_tasks=3, d=6, r=2, k=5, seed=0):
    rng = Rng(seed)
    return [
        LowRankAdapter(
            b=gaussian_sample(rng, d, r, 0.0, 1.0),
            a=gaussian_sample(rng, r, k, 0.0, 1.0),
        )
        for _ in range(num_tasks)
    ]


def zero_moment_state(a_shared, b_clusters, logits=None):
    state = HydraState(a_shared=np.asarray(a_shared, dtype=float),
                       b_clusters=[np.asarray(b, dtype=float) for b in b_clusters],
                       logits=None if logits is None else np.asarray(logits, dtype=float))
    from hydramerge.hydra import _zero_moments

    _zero_moments(state)
    return state


class TestInitState:
    def test_identity_mode_has_no_logits(self):
        targets = make_targets(num_tasks=3)
        cfg = HydraConfig(num_clusters=3)
        state = init_state(targets, cfg, Rng(0))
        assert state.logits is None
        assert len(state.b_clusters) == 3

    def test_mean_init_on_identical_inputs_is_exact(self):
        base = make_targets(num_tasks=1)[0]
        targets = [LowRankAdapter(b=base.b.copy(), a=base.a.copy()) for _ in range(4)]
        cfg = HydraConfig(num_clusters=4, init_scheme=InitScheme.MEAN_A_COPY_B)
        state = init_state(targets, cfg, Rng(0))
        assert np.array_equal(state.a_shared, base.a)
        assert np.array_equal(state.b_clusters[2], base.b)

    def test_copy_does_not_alias_targets(self):
        targets = make_targets(num_tasks=2)
        cfg = HydraConfig(num_clusters=2, init_scheme=InitScheme.MEAN_A_COPY_B)
        state = init_state(targets, cfg, Rng(0))
        state.b_clusters[0][0, 0] += 1.0
        assert state.b_clusters[0][0, 0] != targets[0].b[0, 0]

    def test_deterministic_given_seed(self):
        targets = make_targets(num_tasks=4)
        cfg = HydraConfig(num_clusters=2, init_scheme=InitScheme.RANDOM)
        one = init_state(targets, cfg, Rng(5))
        two = init_state(targets, cfg, Rng(5))
        assert np.array_equal(one.a_shared, two.a_shared)
        assert np.array_equal(one.logits, two.logits)

    def test_too_many_clusters_rejected(self):
        with pytest.raises(ParameterError):
            init_state(make_targets(num_tasks=2), HydraConfig(num_clusters=3), Rng(0))


class TestLosses:
    def test_scalar_hand_oracle_routed(self):
        # one task, one cluster, 1x1: target 2*3 = 6, prediction 1*1 = 1
        targets = [LowRankAdapter(b=[[2.0]], a=[[3.0]])]
        state = zero_moment_state([[1.0]], [[[1.0]]], logits=[[0.0]])
        cfg = HydraConfig(num_clusters=1, distance=DistanceKind.MAE)
        value, per_task = loss_eq1(state, targets, cfg)
        assert value == 5.0
        assert per_task == [5.0]

    def test_identity_routed_fixed_point_is_exact_zero(self):
        shared_a = gaussian_sample(Rng(1), 2, 5, 0.0, 1.0)
        b_list = [gaussian_sample(Rng(i + 10), 6, 2, 0.0, 1.0) for i in range(3)]
        targets = [LowRankAdapter(b=b, a=shared_a) for b in b_list]
        state = zero_moment_state(shared_a.copy(), [b.copy() for b in b_list])
        cfg = HydraConfig(num_clusters=3)
        value, per_task = loss_eq2(state, targets, cfg)
        assert value == 0.0
        assert per_task == [0.0, 0.0, 0.0]

    def test_nonnegative_for_metric_distances(self):
        targets = make_targets()
        cfg = HydraConfig(num_clusters=3)
        state = init_state(targets, cfg, Rng(3))
        for kind in (DistanceKind.MAE, DistanceKind.MSE, DistanceKind.FRO):
            value, _ = loss(state, targets, HydraConfig(num_clusters=3, distance=kind))
            assert value >= 0.0

    def test_task_permutation_permutes_per_task(self):
        targets = make_targets(num_tasks=3)
        cfg = HydraConfig(num_clusters=3)
        state = init_state(targets, cfg, Rng(0))
        _, fwd = loss_eq2(state, targets, cfg)
        state_perm = zero_moment_state(
            state.a_shared, [state.b_clusters[i] for i in (2, 0, 1)]
        )
        _, perm = loss_eq2(state_perm, [targets[i] for i in (2, 0, 1)], cfg)
        assert perm == [fwd[i] for i in (2, 0, 1)]

    def test_mode_errors(self):
        targets = make_targets(num_tasks=3)
        routed = init_state(targets, HydraConfig(num_clusters=2), Rng(0))
        tied = init_state(targets, HydraConfig(num_clusters=3), Rng(0))
        with pytest.raises(ParameterError):
            loss_eq2(routed, targets, HydraConfig(num_clusters=2))
        with pytest.raises(ParameterError):
            loss_eq1(tied, targets, HydraConfig(num_clusters=3))

    def test_routed_equals_identity_at_frozen_one_hot(self):
        targets = make_targets(num_tasks=3, seed=7)
        cfg = HydraConfig(num_clusters=3)
        tied = init_state(targets, cfg, Rng(2))
        one_hot_logits = np.full((3, 3), 0.0)
        np.fill_diagonal(one_hot_logits, 1e6)
        routed = zero_moment_state(tied.a_shared, tied.b_clusters, logits=one_hot_logits)
        tied_value, _ = loss_eq2(tied, targets, cfg)
        routed_value, _ = loss_eq1(routed, targets, cfg)
        assert routed_value == pytest.approx(tied_value, rel=1e-9)


class TestGradients:
    def test_scalar_hand_oracle(self):
        targets = [LowRankAdapter(b=[[2.0]], a=[[3.0]])]
        state = zero_moment_state([[1.0]], [[[1.0]]], logits=[[0.0]])
        cfg = HydraConfig(num_clusters=1, distance=DistanceKind.MAE)
        grads = gradients(state, targets, cfg)
        assert grads.tensors["a_shared"] == np.array([[-1.0]])
        assert grads.tensors["b.0"] == np.array([[-1.0]])
        assert grads.tensors["logits"] == np.array([[0.0]])

    def test_zero_residual_gives_exact_zero_gradients(self):
        shared_a = gaussian_sample(Rng(1), 2, 4, 0.0, 1.0)
        b_list = [gaussian_sample(Rng(i + 20), 5, 2, 0.0, 1.0) for i in range(2)]
        targets = [LowRankAdapter(b=b, a=shared_a) for b in b_list]
        state = zero_moment_state(shared_a.copy(), [b.copy() for b in b_list])
        cfg = HydraConfig(num_clusters=2, distance=DistanceKind.MAE)
        grads = gradients(state, targets, cfg)
        for tensor in grads.tensors.values():
            assert np.array_equal(tensor, np.zeros_like(tensor))

    def test_full_suite_matches_finite_differences(self):
        report = run_suite(seed=0, instances=4)
        assert report.passed, report.to_dict()


class TestAdamW:
    def _single_param_state(self, value):
        return zero_moment_state(np.array([[value]]), [np.array([[0.0]])], logits=None)

    def test_zero_gradient_fixed_point(self):
        targets = make_targets(num_tasks=2)
        cfg = HydraConfig(num_clusters=2)
        state = init_state(targets, cfg, Rng(0))
        before = copy.deepcopy(state)
        zero = HydraGrads(
            tensors={name: np.zeros_like(t) for name, t in state.named_tensors()}
        )
        adamw_step(state, zero, cfg)
        for (_, after_t), (_, before_t) in zip(state.named_tensors(), before.named_tensors()):
            assert np.array_equal(after_t, before_t)

    def test_first_step_closed_form(self):
        cfg = HydraConfig(num_clusters=1, learning_rate=1e-3)
        state = self._single_param_state(2.0)
        g = 0.25
        grads = HydraGrads(
            tensors={
                "a_shared": np.array([[g]]),
                "b.0": np.array([[0.0]]),
            }
        )
        adamw_step(state, grads, cfg)
        # from zero moments: m_hat = g, v_hat = g^2, step = lr * g / (|g| + eps)
        expected = 2.0 - cfg.learning_rate * g / (abs(g) + cfg.adam_eps)
        assert state.a_shared[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_deterministic(self):
        targets = make_targets(num_tasks=2)
        cfg = HydraConfig(num_clusters=2)
        one = init_state(targets, cfg, Rng(1))
        two = init_state(targets, cfg, Rng(1))
        g1 = gradients(one, targets, cfg)
        g2 = gradients(two, targets, cfg)
        adamw_step(one, g1, cfg)
        adamw_step(two, g2, cfg)
        assert np.array_equal(one.a_shared, two.a_shared)
        assert one.step == two.step == 1


class TestTrain:
    def test_zero_epochs_returns_init(self):
        targets = make_targets(num_tasks=2)
        cfg = HydraConfig(num_clusters=2, epochs=0)
        state, trace = train(targets, cfg, Rng(0))
        reference = init_state(targets, cfg, Rng(0))
        assert trace.losses == []
        assert np.array_equal(state.a_shared, reference.a_shared)

    def test_zero_loss_start_stays_bit_frozen(self):
        shared_a = gaussian_sample(Rng(4), 2, 6, 0.0, 1.0)
        b_list = [gaussian_sample(Rng(i + 30), 5, 2, 0.0, 1.0) for i in range(3)]
        targets = [LowRankAdapter(b=b, a=shared_a.copy()) for b in b_list]
        cfg = HydraConfig(
            num_clusters=3, epochs=100, init_scheme=InitScheme.MEAN_A_COPY_B
        )
        state, trace = train(targets, cfg, Rng(0))
        assert trace.losses[0] == 0.0
        assert trace.final_loss == 0.0
        assert np.array_equal(state.a_shared, shared_a)
        for got, want in zip(state.b_clusters, b_list):
            assert np.array_equal(got, want)

    def test_training_reduces_loss(self):
        targets = make_targets(num_tasks=4, d=8, r=2, k=8, seed=9)
        cfg = HydraConfig(num_clusters=2, epochs=300, learning_rate=1e-2)
        _, trace = train(targets, cfg, Rng(0))
        assert trace.final_loss < trace.losses[0]

    def test_bit_for_bit_reproducible(self):
        targets = make_targets(num_tasks=3)
        cfg = HydraConfig(num_clusters=2, epochs=25)
        one, trace_one = train(targets, cfg, Rng(11))
        two, trace_two = train(targets, cfg, Rng(11))
        assert trace_one.losses == trace_two.losses
        assert np.array_equal(one.logits, two.logits)
        assert np.array_equal(one.a_shared, two.a_shared)


class TestAssignTasks:
    def test_identity_mode(self):
        targets = make_targets(num_tasks=3)
        cfg = HydraConfig(num_clusters=3)
        state = init_state(targets, cfg, Rng(0))
        assert assign_tasks(state, cfg) == [0, 1, 2]

    def test_argmax_row(self):
        state = zero_moment_state(
            np.ones((1, 1)), [np.ones((1, 1)), np.ones((1, 1))], logits=[[0.1, 2.0]]
        )
        assert assign_tasks(state, HydraConfig(num_clusters=2)) == [1]

    def test_row_shift_does_not_change_assignment(self):
        logits = gaussian_sample(Rng(8), 4, 3, 0.0, 1.0)
        state = zero_moment_state(np.ones((1, 1)), [np.ones((1, 1))] * 3, logits=logits)
        base = assign_tasks(state, HydraConfig(num_clusters=3))
        shifted = logits.copy()
        shifted[2] += 7.0
        state_shift = zero_moment_state(np.ones((1, 1)), [np.ones((1, 1))] * 3, logits=shifted)
        assert assign_tasks(state_shift, HydraConfig(num_clusters=3)) == base

    def test_tie_breaks_to_lowest_index(self):
        state = zero_moment_state(
            np.ones((1, 1)), [np.ones((1, 1))] * 2, logits=[[3.0, 3.0]]
        )
        assert assign_tasks(state, HydraConfig(num_clusters=2)) == [0]

    def test_joint_temperature_and_logit_rescaling(self):
        logits = gaussian_sample(Rng(21), 4, 3, 0.0, 1.0)
        base = zero_moment_state(np.ones((1, 1)), [np.ones((1, 1))] * 3, logits=logits)
        scaled = zero_moment_state(
            np.ones((1, 1)), [np.ones((1, 1))] * 3, logits=5.0 * logits
        )
        cfg = HydraConfig(num_clusters=3, temperature=0.1)
        cfg_scaled = HydraConfig(num_clusters=3, temperature=0.5)
        assert assign_tasks(base, cfg) == assign_tasks(scaled, cfg_scaled)


class TestVera:
    def make_vera_targets(self, num_tasks=3, d=6, r=2, k=5, seed=0, tie_lambda_d=False):
        rng = Rng(seed)
        shared_b = gaussian_sample(rng, d, r, 0.0, 1.0)
        shared_a = gaussian_sample(rng, r, k, 0.0, 1.0)
        base_ld = gaussian_sample(rng, r, 1, 0.0, 1.0).ravel()
        targets = []
        for _ in range(num_tasks):
            ld = base_ld.copy() if tie_lambda_d else gaussian_sample(rng, r, 1, 0.0, 1.0).ravel()
            targets.append(
                VeraAdapter(
                    lambda_b=gaussian_sample(rng, d, 1, 0.0, 1.0).ravel(),
                    lambda_d=ld,
                    shared_b=shared_b,
                    shared_a=shared_a,
                )
            )
        return targets

    def test_exact_representation_has_zero_loss(self):
        targets = self.make_vera_targets(tie_lambda_d=True)
        cfg = HydraConfig(num_clusters=3, init_scheme=InitScheme.MEAN_A_COPY_B)
        state = init_vera_state(targets, cfg, Rng(0))
        value, per_task = vera_loss(state, targets, cfg)
        assert value == 0.0
        assert per_task == [0.0, 0.0, 0.0]

    def test_scalar_case_matches_lora_arithmetic(self):
        # d = r = k = 1: update is lb * b * ld * a, all scalars
        target = VeraAdapter(
            lambda_b=[2.0], lambda_d=[3.0], shared_b=[[1.5]], shared_a=[[2.0]]
        )
        cfg = HydraConfig(num_clusters=1, distance=DistanceKind.MAE)
        state = init_vera_state([target], cfg, Rng(0))
        state.lambda_b_clusters[0][0] = 1.0
        state.lambda_d[0] = 1.0
        value, _ = vera_loss(state, [target], cfg)
        # target update 2*1.5*3*2 = 18, prediction 1*1.5*1*2 = 3
        assert value == pytest.approx(15.0)

    def test_mismatched_frozen_factors_rejected(self):
        targets = self.make_vera_targets()
        rogue = VeraAdapter(
            lambda_b=targets[0].lambda_b,
            lambda_d=targets[0].lambda_d,
            shared_b=targets[0].shared_b + 1.0,
            shared_a=targets[0].shared_a,
        )
        with pytest.raises(ValidationError):
            init_vera_state([targets[0], rogue], HydraConfig(num_clusters=1), Rng(0))

    def test_training_reduces_loss(self):
        targets = self.make_vera_targets(num_tasks=4, seed=3)
        cfg = HydraConfig(num_clusters=2, epochs=200, learning_rate=1e-2)
        _, trace = train_vera(targets, cfg, Rng(0))
        assert trace.final_loss < trace.losses[0]


class TestExportShape:
    def test_shared_slot_parameter_count(self):
        d, r, k, m, num_tasks = 7, 2, 5, 3, 5
        entry = SharedLoraSlot(
            a_shared=np.zeros((r, k)),
            b_clusters=[np.zeros((d, r)) for _ in range(m)],
            assignment=[0, 1, 2, 0, 1],
        )
        assert entry.param_count == m * r * d + r * k

    def test_export_slot_from_trained_state(self):
        from hydramerge.hydra import export_slot

        d, r, k = 6, 2, 5
        targets = make_targets(num_tasks=4, d=d, r=r, k=k)
        cfg = HydraConfig(num_clusters=2, epochs=3)
        state, _ = train(targets, cfg, Rng(0))
        entry = export_slot(state, assign_tasks(state, cfg))
        assert entry.param_count == 2 * r * d + r * k
        assert len(entry.assignment) == 4

    def test_storage_ratio_examples(self):
        # equal-size factors: M=1 of 5 -> 20%, M=5 of 5 -> 60%, K -> inf: 50%
        def ratio(K, M, r, d, k):
            return 100.0 * (M * r * d + r * k) / (K * r * (d + k))

        assert ratio(5, 1, 4, 16, 16) == 20.0
        assert ratio(5, 5, 4, 16, 16) == 60.0
        assert abs(ratio(100, 100, 4, 16, 16) - 50.0) <= 0.5


SMOOTH = (DistanceKind.MSE, DistanceKind.FRO, DistanceKind.COS)


def random_state(rng, num_tasks, num_clusters, d, r, k):
    return zero_moment_state(
        gaussian_sample(rng, r, k, 0.0, 1.0),
        [gaussian_sample(rng, d, r, 0.0, 1.0) for _ in range(num_clusters)],
        logits=(
            gaussian_sample(rng, num_tasks, num_clusters, 0.0, 1.0)
            if num_clusters < num_tasks
            else None
        ),
    )


def dense_kernel(targets, cfg):
    mats = hydra._target_matrices(targets)
    return lambda state: hydra._loss_and_grads_lora(state, mats, cfg)


def exact_fit(num_clusters, kind):
    """Targets that the state reproduces exactly: b_i is the cluster factor
    the (one-hot) routing picks for task i, and every a_i is the shared A."""
    rng = Rng(41)
    d, r, k = 9, 3, 7
    assignment = [0, 1, 1, 0] if num_clusters == 2 else [0, 1, 2, 3]
    a_shared = gaussian_sample(rng, r, k, 0.0, 1.0)
    b_clusters = [gaussian_sample(rng, d, r, 0.0, 1.0) for _ in range(num_clusters)]
    logits = None
    if num_clusters < len(assignment):
        # softmax of a +-50 gap at T = 0.1 is exactly one-hot in float64
        logits = np.full((len(assignment), num_clusters), -50.0)
        logits[range(len(assignment)), assignment] = 50.0
    targets = [LowRankAdapter(b=b_clusters[j].copy(), a=a_shared.copy()) for j in assignment]
    state = zero_moment_state(a_shared, b_clusters, logits=logits)
    return targets, state, HydraConfig(num_clusters=num_clusters, distance=kind)


class TestFactoredKernel:
    @pytest.mark.parametrize("kind", SMOOTH)
    @pytest.mark.parametrize("num_clusters", [2, 4])
    def test_matches_dense_kernel(self, kind, num_clusters):
        rng = Rng(17)
        for seed in range(10):
            targets = make_targets(num_tasks=4, d=7, r=3, k=9, seed=seed)
            state = random_state(rng, 4, num_clusters, d=7, r=3, k=9)
            cfg = HydraConfig(num_clusters=num_clusters, distance=kind, temperature=0.7)
            value, per_task, grads = hydra._lora_kernel(targets, cfg)(state)
            ref_value, ref_per_task, ref_grads = dense_kernel(targets, cfg)(state)
            assert value == pytest.approx(ref_value, rel=1e-12, abs=0.0)
            assert per_task == pytest.approx(ref_per_task, rel=1e-12, abs=0.0)
            assert sorted(grads.tensors) == sorted(ref_grads.tensors)
            for name, ref in ref_grads.tensors.items():
                got = grads.tensors[name]
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref)), name

    def test_train_dispatches_smooth_distances_only(self, monkeypatch):
        calls = []
        original = hydra._loss_and_grads_factored
        monkeypatch.setattr(
            hydra, "_loss_and_grads_factored", lambda *a: calls.append(1) or original(*a)
        )
        targets = make_targets(num_tasks=3)
        train(targets, HydraConfig(num_clusters=2, epochs=2, distance=DistanceKind.MAE), Rng(0))
        assert calls == []
        for kind in SMOOTH:
            train(targets, HydraConfig(num_clusters=2, epochs=2, distance=kind), Rng(0))
        assert len(calls) == 3 * 3
        # the gradient oracle checks the kernel training runs
        run_suite(seed=0, instances=1, include_vera=False)
        assert len(calls) > 9

    @pytest.mark.parametrize("kind", SMOOTH)
    @pytest.mark.parametrize("num_clusters", [2, 4])
    def test_short_training_matches_dense(self, kind, num_clusters):
        targets = make_targets(num_tasks=4, d=12, r=3, k=10, seed=5)
        cfg = HydraConfig(num_clusters=num_clusters, distance=kind, epochs=40, temperature=0.5)
        state, trace = train(targets, cfg, Rng(3))
        ref_state = init_state(targets, cfg, Rng(3))
        ref_trace = hydra._fit(ref_state, dense_kernel(targets, cfg), cfg)
        assert assign_tasks(state, cfg) == assign_tasks(ref_state, cfg)
        assert trace.final_loss == pytest.approx(ref_trace.final_loss, rel=1e-9, abs=0.0)
        assert trace.final_loss < trace.initial_loss

    @pytest.mark.parametrize("kind", SMOOTH)
    @pytest.mark.parametrize("num_clusters", [2, 4])
    def test_exact_fit_is_exact_zero(self, kind, num_clusters):
        targets, state, cfg = exact_fit(num_clusters, kind)
        value, per_task, grads = hydra._lora_kernel(targets, cfg)(state)
        assert value == 0.0
        assert per_task == [0.0] * len(targets)
        for tensor in grads.tensors.values():
            assert np.array_equal(tensor, np.zeros_like(tensor))

    @pytest.mark.parametrize("kind", SMOOTH)
    def test_warm_start_on_exact_fit_never_moves(self, kind):
        # the factored counterpart of acceptance criterion 3
        targets, state, _ = exact_fit(4, kind)
        cfg = HydraConfig(
            num_clusters=4, distance=kind, epochs=20, init_scheme=InitScheme.MEAN_A_COPY_B
        )
        trained, trace = train(targets, cfg, Rng(0))
        assert trace.losses == [0.0] * 20 and trace.final_loss == 0.0
        assert np.array_equal(trained.a_shared, state.a_shared)
        for got, want in zip(trained.b_clusters, state.b_clusters):
            assert np.array_equal(got, want)

    def test_cos_zero_update_is_degenerate(self):
        targets = make_targets(num_tasks=2)
        cfg = HydraConfig(num_clusters=2, distance=DistanceKind.COS)
        zero_pred = zero_moment_state(targets[0].a, [np.zeros_like(t.b) for t in targets])
        with pytest.raises(DegenerateInputError):
            gradients(zero_pred, targets, cfg)
        zero_target = [LowRankAdapter(b=np.zeros_like(targets[0].b), a=targets[0].a), targets[1]]
        state = random_state(Rng(0), 2, 2, d=6, r=2, k=5)
        with pytest.raises(DegenerateInputError):
            gradients(state, zero_target, cfg)

    def test_overflowing_gram_trace_is_typed(self):
        targets = make_targets(num_tasks=2)
        huge = [LowRankAdapter(b=t.b * 1e160, a=t.a * 1e160) for t in targets]
        cfg = HydraConfig(num_clusters=2, distance=DistanceKind.MSE)
        state = random_state(Rng(0), 2, 2, d=6, r=2, k=5)
        with pytest.raises(NumericalError, match="Gram trace"):
            gradients(state, huge, cfg)

    def test_gradients_accepts_dense_matrices(self):
        targets = make_targets(num_tasks=3)
        cfg = HydraConfig(num_clusters=2, distance=DistanceKind.MSE)
        state = random_state(Rng(2), 3, 2, d=6, r=2, k=5)
        mats = hydra._target_matrices(targets)
        dense = gradients(state, mats, cfg)
        factored = gradients(state, targets, cfg)
        for name, tensor in dense.tensors.items():
            np.testing.assert_allclose(factored.tensors[name], tensor, rtol=1e-10, atol=1e-14)


class TestDivergenceGuard:
    @pytest.mark.parametrize("kind", [DistanceKind.MAE, DistanceKind.MSE])
    def test_runaway_loss_names_step(self, kind):
        targets = make_targets(num_tasks=3)
        cfg = HydraConfig(num_clusters=2, epochs=50, learning_rate=1e6, distance=kind)
        with pytest.raises(NumericalError, match=r"step \d+: loss .* exceeds 1000 x"):
            train(targets, cfg, Rng(0))

    def test_vera_runaway_loss_names_step(self):
        targets = TestVera().make_vera_targets(num_tasks=3)
        cfg = HydraConfig(num_clusters=2, epochs=50, learning_rate=1e6)
        with pytest.raises(NumericalError, match=r"step \d+: loss"):
            train_vera(targets, cfg, Rng(0))

    @pytest.mark.parametrize("kind", [DistanceKind.MAE, DistanceKind.MSE])
    def test_overflow_names_step(self, kind):
        targets = make_targets(num_tasks=3)
        cfg = HydraConfig(num_clusters=2, epochs=5, learning_rate=1e300, distance=kind)
        with pytest.raises(NumericalError, match=r"step 1: .*(overflow|non-finite)"):
            train(targets, cfg, Rng(0))

    def test_collection_merge_names_slot(self):
        slot = SlotKey(3, "v")
        tasks = ["t0", "t1", "t2"]
        table = {(t, slot): a for t, a in zip(tasks, make_targets(num_tasks=3))}
        collection = AdapterCollection.build(tasks, table)
        cfg = HydraConfig(num_clusters=2, epochs=50, learning_rate=1e6)
        with pytest.raises(NumericalError, match=r"slot layer\.3\.v: step \d+"):
            merge_collection_hydra(collection, cfg)

    def test_ordinary_training_is_untouched(self):
        cfg = HydraConfig(num_clusters=2, epochs=200, distance=DistanceKind.MSE)
        _, trace = train(make_targets(num_tasks=4), cfg, Rng(0))
        assert trace.final_loss < trace.initial_loss


def per_task_vera_kernel(state, mats, cfg):
    """The former VeRA loss-and-gradient kernel, kept as the oracle for the
    shared dense kernel: it takes dlambda_d task by task from the mixed
    outer vector, where the shared kernel takes one product over clusters."""
    from hydramerge.linalg import distance, distance_grad, softmax_rows

    num_tasks = len(mats)
    inner = (state.shared_b * state.lambda_d[None, :]) @ state.shared_a
    products = [lb[:, None] * inner for lb in state.lambda_b_clusters]
    weights = None if state.logits is None else softmax_rows(state.logits, cfg.temperature)
    preds = products
    if weights is not None:
        stacked = np.stack(products)
        preds = [np.tensordot(weights[i], stacked, axes=(0, 0)) for i in range(num_tasks)]
    per_task = [distance(mats[i], preds[i], cfg.distance) for i in range(num_tasks)]
    residual_grads = [distance_grad(mats[i], preds[i], cfg.distance) for i in range(num_tasks)]
    lb_stack = np.stack(state.lambda_b_clusters)
    grads = {"lambda_d": np.zeros_like(state.lambda_d)}
    for i in range(num_tasks):
        outer = lb_stack[i] if weights is None else np.tensordot(weights[i], lb_stack, axes=(0, 0))
        scaled = outer[:, None] * residual_grads[i]
        grads["lambda_d"] += np.einsum("dt,dk,tk->t", state.shared_b, scaled, state.shared_a)
    if weights is None:
        for i in range(num_tasks):
            grads[f"lambda_b.{i}"] = (residual_grads[i] * inner).sum(axis=1)
        return float(sum(per_task)), per_task, grads
    g_stack = np.stack(residual_grads)
    for j in range(len(products)):
        summed = np.tensordot(weights[:, j], g_stack, axes=(0, 0))
        grads[f"lambda_b.{j}"] = (summed * inner).sum(axis=1)
    g = np.array([[float(np.vdot(gi, p)) for p in products] for gi in residual_grads])
    grads["logits"] = (weights / cfg.temperature) * (g - (weights * g).sum(axis=1, keepdims=True))
    return float(sum(per_task)), per_task, grads


class TestSharedDenseKernel:
    @pytest.mark.parametrize("kind", list(DistanceKind))
    @pytest.mark.parametrize("num_clusters", [2, 4])
    def test_vera_matches_per_task_formula(self, kind, num_clusters):
        rng = Rng(23)
        for seed in range(5):
            targets = TestVera().make_vera_targets(num_tasks=4, d=7, r=3, k=6, seed=seed)
            state = hydra._new_state(targets, num_clusters, rng, stdev=1.0)
            cfg = HydraConfig(num_clusters=num_clusters, distance=kind, temperature=0.7)
            mats = hydra._target_matrices(targets)
            value, per_task, grads = hydra._loss_and_grads_dense(state, mats, cfg)
            ref_value, ref_per_task, ref_grads = per_task_vera_kernel(state, mats, cfg)
            assert value == pytest.approx(ref_value, rel=1e-12, abs=0.0)
            assert per_task == pytest.approx(ref_per_task, rel=1e-12, abs=0.0)
            assert sorted(grads.tensors) == sorted(ref_grads)
            for name, ref in ref_grads.items():
                got = grads.tensors[name]
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name

    def test_gradients_of_vera_state_on_dense_matrices(self):
        targets = TestVera().make_vera_targets(num_tasks=3)
        cfg = HydraConfig(num_clusters=2)
        state = init_vera_state(targets, cfg, Rng(0))
        grads = gradients(state, hydra._target_matrices(targets), cfg)
        assert sorted(grads.tensors) == ["lambda_b.0", "lambda_b.1", "lambda_d", "logits"]
        assert grads.tensors["lambda_d"].shape == state.lambda_d.shape
        adamw_step(state, grads, cfg)
        assert state.step == 1


def _oracle_products(state):
    if isinstance(state, hydra.VeraHydraState):
        core = (state.shared_b * state.lambda_d[None, :]) @ state.shared_a
        return [lb[:, None] * core for lb in state.lambda_b_clusters]
    return [b @ state.a_shared for b in state.b_clusters]


def _oracle_backprop(state, summed):
    """Parameter gradients from ``S_j = sum_i w[i, j] G_i``, per kind."""
    if isinstance(state, hydra.VeraHydraState):
        core = (state.shared_b * state.lambda_d[None, :]) @ state.shared_a
        mixed = sum(lb[:, None] * s for lb, s in zip(state.lambda_b_clusters, summed))
        grads = {"lambda_d": ((state.shared_b.T @ mixed) * state.shared_a).sum(axis=1)}
        for j, s in enumerate(summed):
            grads[f"lambda_b.{j}"] = (s * core).sum(axis=1)
        return grads
    grad_a = np.zeros_like(state.a_shared)
    for b, s in zip(state.b_clusters, summed):
        grad_a += b.T @ s
    grads = {"a_shared": grad_a}
    for j, s in enumerate(summed):
        grads[f"b.{j}"] = s @ state.a_shared.T
    return grads


def summed_dense_kernel(state, mats, cfg):
    """The dense kernel that mixed dense cluster products, kept as the
    oracle for the residual-once kernel: it stacks the M products, mixes K
    predictions with tensordot and pulls the cluster-summed residual
    gradients back per kind."""
    from hydramerge.linalg import distance, distance_grad, softmax_rows

    products = _oracle_products(state)
    weights = None if state.logits is None else softmax_rows(state.logits, cfg.temperature)
    preds = products
    if weights is not None:
        stacked = np.stack(products)
        preds = [np.tensordot(weights[i], stacked, axes=(0, 0)) for i in range(len(mats))]
    per_task = [distance(t, p, cfg.distance) for t, p in zip(mats, preds)]
    residual_grads = [distance_grad(t, p, cfg.distance) for t, p in zip(mats, preds)]
    if weights is None:
        return float(sum(per_task)), per_task, _oracle_backprop(state, residual_grads)
    g_stack = np.stack(residual_grads)
    summed = [np.tensordot(weights[:, j], g_stack, axes=(0, 0)) for j in range(len(products))]
    grads = _oracle_backprop(state, summed)
    g = np.array([[float(np.vdot(gi, p)) for p in products] for gi in residual_grads])
    grads["logits"] = (weights / cfg.temperature) * (g - (weights * g).sum(axis=1, keepdims=True))
    return float(sum(per_task)), per_task, grads


def kind_targets(kind, num_tasks, d, r, k, seed):
    if kind == "vera":
        return TestVera().make_vera_targets(num_tasks=num_tasks, d=d, r=r, k=k, seed=seed)
    return make_targets(num_tasks=num_tasks, d=d, r=r, k=k, seed=seed)


class TestResidualOnceKernel:
    @pytest.mark.parametrize("adapter", ["lora", "vera"])
    @pytest.mark.parametrize("kind", list(DistanceKind))
    @pytest.mark.parametrize("num_clusters", [2, 4])
    def test_matches_summed_dense_kernel(self, adapter, kind, num_clusters):
        rng = Rng(29)
        for seed in range(5):
            targets = kind_targets(adapter, 4, d=7, r=3, k=6, seed=seed)
            state = hydra._new_state(targets, num_clusters, rng, stdev=1.0)
            cfg = HydraConfig(num_clusters=num_clusters, distance=kind, temperature=0.7)
            mats = hydra._target_matrices(targets)
            value, per_task, grads = hydra._loss_and_grads_dense(state, mats, cfg)
            ref_value, ref_per_task, ref_grads = summed_dense_kernel(state, mats, cfg)
            assert value == pytest.approx(ref_value, rel=1e-12, abs=0.0)
            assert per_task == pytest.approx(ref_per_task, rel=1e-12, abs=0.0)
            assert sorted(grads.tensors) == sorted(ref_grads)
            for name, ref in ref_grads.items():
                got = grads.tensors[name]
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name

    @pytest.mark.parametrize("adapter", ["lora", "vera"])
    @pytest.mark.parametrize("kind", [DistanceKind.MAE, DistanceKind.MSE, DistanceKind.FRO])
    def test_identity_routed_exact_fit_is_exact_zero(self, adapter, kind):
        targets = kind_targets(adapter, 3, d=7, r=3, k=6, seed=4)
        if adapter == "vera":
            targets = [
                VeraAdapter(
                    lambda_b=t.lambda_b, lambda_d=targets[0].lambda_d,
                    shared_b=t.shared_b, shared_a=t.shared_a,
                )
                for t in targets
            ]
        else:
            targets = [LowRankAdapter(b=t.b, a=targets[0].a) for t in targets]
        cfg = HydraConfig(num_clusters=3, distance=kind, init_scheme=InitScheme.MEAN_A_COPY_B)
        state = init_state(targets, cfg, Rng(0))
        value, per_task, grads = hydra._loss_and_grads_dense(
            state, hydra._target_matrices(targets), cfg
        )
        assert value == 0.0 and per_task == [0.0] * 3
        for tensor in grads.tensors.values():
            assert np.array_equal(tensor, np.zeros_like(tensor))

    @pytest.mark.parametrize("adapter", ["lora", "vera"])
    @pytest.mark.parametrize("kind", list(DistanceKind))
    def test_non_finite_prediction_names_step(self, adapter, kind):
        targets = kind_targets(adapter, 3, d=6, r=2, k=5, seed=1)
        cfg = HydraConfig(num_clusters=2, distance=kind, epochs=3)
        state = init_state(targets, cfg, Rng(0))
        state.params[1][1][0] = np.inf
        kernel = lambda s: hydra._loss_and_grads_dense(s, hydra._target_matrices(targets), cfg)
        with pytest.raises(NumericalError, match=r"^step 0: .*task \d+ overflowed"):
            hydra._fit(state, kernel, cfg)

    @pytest.mark.parametrize("adapter", ["lora", "vera"])
    @pytest.mark.parametrize("kind", list(DistanceKind))
    @pytest.mark.parametrize("num_clusters", [2, 3])
    @pytest.mark.parametrize("shape", [(1, 5), (6, 1), (5, 6)])
    def test_wrongly_shaped_dense_target_raises(self, adapter, kind, num_clusters, shape):
        """A (1, k) or (d, 1) target would broadcast against the d x k
        prediction; it is refused like any other wrong shape."""
        targets = kind_targets(adapter, 3, d=6, r=2, k=5, seed=2)
        cfg = HydraConfig(num_clusters=num_clusters, distance=kind)
        state = init_state(targets, cfg, Rng(0))
        mats = hydra._target_matrices(targets)
        mats[1] = np.ones(shape)
        with pytest.raises(ShapeError, match=r"target 1 has shape"):
            gradients(state, mats, cfg)

    def test_logit_rows_must_match_tasks(self):
        targets = kind_targets("lora", 4, d=6, r=2, k=5, seed=2)
        cfg = HydraConfig(num_clusters=2)
        state = init_state(targets, cfg, Rng(0))
        with pytest.raises(ParameterError, match="4 logit rows cannot route 3 tasks"):
            gradients(state, targets[:3], cfg)

    @pytest.mark.parametrize("adapter", ["lora", "vera"])
    def test_peak_memory_does_not_grow_with_tasks(self, adapter):
        """Peak allocation of one call stays a few d x k matrices at any K.
        Only the K mixed cluster parameters and their gradients grow with
        K, 2 K d r doubles for LoRA: at r = 8 << k that is half a d x k
        matrix from K = 8 to K = 16."""
        import tracemalloc

        d = k = 256
        cfg = HydraConfig(num_clusters=3, distance=DistanceKind.MAE)
        peaks = []
        for num_tasks in (8, 16):
            targets = kind_targets(adapter, num_tasks, d=d, r=8, k=k, seed=num_tasks)
            state = init_state(targets, cfg, Rng(0))
            mats = hydra._target_matrices(targets)
            tracemalloc.start()
            try:
                hydra._loss_and_grads_dense(state, mats, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        dense = d * k * 8
        assert max(peaks) < 8 * dense, [p / dense for p in peaks]
        assert abs(peaks[1] - peaks[0]) < dense, [p / dense for p in peaks]


SLOT_CLASSES = {"lora": SharedLoraSlot, "vera": SharedVeraSlot}


class TestStateIsSlot:
    """A training state is the bundle slot it exports, and ``loss`` runs
    the kernel that ``train`` runs."""

    @pytest.mark.parametrize("adapter", ["lora", "vera"])
    @pytest.mark.parametrize("kind", list(DistanceKind))
    @pytest.mark.parametrize("num_clusters", [2, 4])
    def test_loss_of_untrained_state_is_final_loss(self, adapter, kind, num_clusters):
        targets = kind_targets(adapter, 4, d=12, r=3, k=9, seed=5)
        cfg = HydraConfig(num_clusters=num_clusters, distance=kind, epochs=0)
        state, trace = train(targets, cfg, Rng(3))
        assert loss(state, targets, cfg)[0] == trace.final_loss

    @pytest.mark.parametrize("adapter", ["lora", "vera"])
    @pytest.mark.parametrize("num_clusters", [2, 3])
    def test_init_state_is_a_slot_of_its_kind(self, adapter, num_clusters):
        targets = kind_targets(adapter, 3, d=6, r=2, k=5, seed=1)
        state = init_state(targets, HydraConfig(num_clusters=num_clusters), Rng(0))
        assert isinstance(state, SLOT_CLASSES[adapter])
        assert state.assignment == []

    @pytest.mark.parametrize("adapter", ["lora", "vera"])
    def test_export_slot_is_the_plain_slot(self, adapter):
        from hydramerge.hydra import export_slot

        targets = kind_targets(adapter, 4, d=6, r=2, k=5, seed=2)
        cfg = HydraConfig(num_clusters=2, epochs=3)
        state, _ = train(targets, cfg, Rng(0))
        assignment = assign_tasks(state, cfg)
        entry = export_slot(state, assignment)
        assert type(entry) is SLOT_CLASSES[adapter]
        assert entry.assignment == assignment
        assert np.array_equal(entry.shared, state.shared)
        assert len(entry.clusters) == len(state.clusters) == 2
        for got, want in zip(entry.clusters, state.clusters):
            assert np.array_equal(got, want)
        for got, want in zip(entry.frozen, state.frozen):
            assert np.array_equal(got, want)


class TestConfigEnums:
    """``HydraConfig`` stores its enum fields as members, whatever their
    spelling, because the kernels and the init test them by identity."""

    def test_init_scheme_string_runs_that_init(self):
        targets = make_targets(num_tasks=3)
        cfg = HydraConfig(num_clusters=2, init_scheme="random")
        assert cfg.init_scheme is InitScheme.RANDOM
        got = init_state(targets, cfg, Rng(0))
        want = init_state(targets, HydraConfig(num_clusters=2), Rng(0))
        assert np.array_equal(got.a_shared, want.a_shared)
        for g, w in zip(got.b_clusters, want.b_clusters):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize(
        "field, value", [("distance", "l1"), ("distance", None), ("init_scheme", "xavier")]
    )
    def test_unknown_value_names_the_field(self, field, value):
        with pytest.raises(ParameterError, match=rf"^{field} must be one of .*, got {value!r}"):
            HydraConfig(num_clusters=2, **{field: value})

    def test_cos_string_zero_target_names_the_task(self):
        targets = make_targets(num_tasks=2)
        zero_target = [targets[0], LowRankAdapter(b=np.zeros_like(targets[1].b), a=targets[1].a)]
        state = random_state(Rng(0), 2, 2, d=6, r=2, k=5)
        cfg = HydraConfig(num_clusters=2, distance="cos")
        assert cfg.distance is DistanceKind.COS
        with pytest.raises(DegenerateInputError) as info:
            gradients(state, zero_target, cfg)
        assert info.value.task == 1

    def test_mae_string_runs_the_vera_kernel(self, monkeypatch):
        calls = []
        original = hydra._loss_and_grads_vera_mae
        monkeypatch.setattr(
            hydra, "_loss_and_grads_vera_mae", lambda *a: calls.append(1) or original(*a)
        )
        targets = TestVera().make_vera_targets(num_tasks=3)
        train(targets, HydraConfig(num_clusters=2, epochs=2, distance="mae"), Rng(0))
        assert len(calls) == 3


class TestVeraMaeKernel:
    """VeRA ``mae`` runs on the rank-r residual factors, one row block at a
    time; the dense kernel is its oracle."""

    # (d, k, block budget): a ragged last block (3 + 3 + 1 rows), d below
    # one block, and one row per block
    SHAPES = [(7, 6, 18), (7, 6, None), (5, 6, 1)]

    @pytest.mark.parametrize("num_clusters", [2, 4])
    @pytest.mark.parametrize("d, k, budget", SHAPES)
    def test_matches_dense_kernel(self, monkeypatch, num_clusters, d, k, budget):
        if budget is not None:
            monkeypatch.setattr(hydra, "_BLOCK_ENTRIES", budget)
        rng = Rng(31)
        cfg = HydraConfig(num_clusters=num_clusters, temperature=0.7)
        for seed in range(5):
            targets = TestVera().make_vera_targets(num_tasks=4, d=d, r=3, k=k, seed=seed)
            state = hydra._new_state(targets, num_clusters, rng, stdev=1.0)
            value, per_task, grads = hydra._kernel(targets, cfg)(state)
            ref_value, ref_per_task, ref_grads = dense_kernel(targets, cfg)(state)
            assert value == pytest.approx(ref_value, rel=1e-12, abs=0.0)
            assert per_task == pytest.approx(ref_per_task, rel=1e-12, abs=0.0)
            assert sorted(grads.tensors) == sorted(ref_grads.tensors)
            for name, ref in ref_grads.tensors.items():
                got = grads.tensors[name]
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref)), name

    @pytest.mark.parametrize("num_clusters", [2, 4])
    def test_short_training_matches_dense(self, monkeypatch, num_clusters):
        monkeypatch.setattr(hydra, "_BLOCK_ENTRIES", 25)  # 2 rows of k = 10 per block
        targets = TestVera().make_vera_targets(num_tasks=4, d=12, r=3, k=10, seed=5)
        cfg = HydraConfig(num_clusters=num_clusters, epochs=40, temperature=0.5)
        state, trace = train(targets, cfg, Rng(3))
        ref_state = init_state(targets, cfg, Rng(3))
        ref_trace = hydra._fit(ref_state, dense_kernel(targets, cfg), cfg)
        assert assign_tasks(state, cfg) == assign_tasks(ref_state, cfg)
        assert trace.final_loss == pytest.approx(ref_trace.final_loss, rel=1e-9, abs=0.0)
        assert trace.final_loss < trace.initial_loss

    def test_identity_routed_exact_fit_never_moves(self):
        # the VeRA mae counterpart of acceptance criterion 3
        targets = TestVera().make_vera_targets(num_tasks=3, d=7, r=3, k=6, tie_lambda_d=True)
        cfg = HydraConfig(num_clusters=3, epochs=20, init_scheme=InitScheme.MEAN_A_COPY_B)
        start = init_state(targets, cfg, Rng(0))
        value, per_task, grads = hydra._kernel(targets, cfg)(start)
        assert value == 0.0 and per_task == [0.0] * 3
        for tensor in grads.tensors.values():
            assert np.array_equal(tensor, np.zeros_like(tensor))
        trained, trace = train(targets, cfg, Rng(0))
        assert trace.losses == [0.0] * 20 and trace.final_loss == 0.0
        assert np.array_equal(trained.lambda_d, start.lambda_d)
        for got, want in zip(trained.lambda_b_clusters, start.lambda_b_clusters):
            assert np.array_equal(got, want)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("adapter", ["lora", "vera"])
    @pytest.mark.parametrize("distance", list(DistanceKind))
    @pytest.mark.parametrize("path", ["adapters", "dense"])
    @pytest.mark.parametrize("num_clusters, task", [(2, 0), (3, 1)])
    def test_inf_cluster_entry_names_step_and_task(
        self, adapter, distance, path, num_clusters, task
    ):
        """Every kernel (Gram, blocked and, on dense targets, dense) names the
        first task whose prediction overflows, and no numpy warning escapes."""
        targets = kind_targets(adapter, 3, d=6, r=2, k=5, seed=1)
        cfg = HydraConfig(num_clusters=num_clusters, distance=distance, epochs=3)
        state = init_state(targets, cfg, Rng(0))
        state.params[1][1][0] = np.inf
        if path == "dense":
            targets = hydra._target_matrices(targets)
        with pytest.raises(NumericalError, match=rf"^step 0: .*task {task} overflowed") as info:
            hydra._fit(state, hydra._kernel(targets, cfg), cfg)
        assert info.value.task is None

    def test_mismatched_frozen_pairs_raise(self):
        targets = TestVera().make_vera_targets(num_tasks=2)
        cfg = HydraConfig(num_clusters=2)
        state = init_state(targets, cfg, Rng(0))
        first = targets[0]
        rogue = VeraAdapter(
            lambda_b=first.lambda_b, lambda_d=first.lambda_d,
            shared_b=first.shared_b + 1.0, shared_a=first.shared_a,
        )
        with pytest.raises(ValidationError, match="different frozen pairs"):
            gradients(state, [first, rogue], cfg)
        state.shared_a = state.shared_a + 1.0
        with pytest.raises(ValidationError, match="different frozen pairs"):
            loss(state, targets, cfg)
        lora_state = init_state(make_targets(num_tasks=2), cfg, Rng(0))
        with pytest.raises(ValidationError, match="different frozen pairs"):
            loss(lora_state, targets, cfg)

    @pytest.mark.parametrize("num_clusters", [2, 4])
    def test_loss_of_trained_state_is_final_loss(self, num_clusters):
        targets = TestVera().make_vera_targets(num_tasks=4, d=12, r=3, k=9, seed=5)
        cfg = HydraConfig(num_clusters=num_clusters, epochs=5)
        state, trace = train(targets, cfg, Rng(3))
        assert loss(state, targets, cfg)[0] == trace.final_loss

    @pytest.mark.parametrize("num_tasks", [8, 16])
    def test_peak_memory_is_two_row_blocks(self, monkeypatch, num_tasks):
        """One call forms no d x k array but its two row-block buffers.  At
        d = k = 256 the default budget makes one block the whole matrix, so
        the budget is cut to an eighth of it: a call that densified any
        target or residual would peak above one d x k matrix."""
        import tracemalloc

        d = k = 256
        monkeypatch.setattr(hydra, "_BLOCK_ENTRIES", d * k // 8)
        cfg = HydraConfig(num_clusters=3)
        targets = TestVera().make_vera_targets(num_tasks=num_tasks, d=d, r=8, k=k, seed=num_tasks)
        state = init_state(targets, cfg, Rng(0))
        tracemalloc.start()
        try:
            gradients(state, targets, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d * k * 8, peak / (d * k * 8)

    def test_dispatch(self, monkeypatch):
        calls = {"vera": 0, "dense": 0}

        def counting(name, key):
            original = getattr(hydra, name)

            def wrapped(*args):
                calls[key] += 1
                return original(*args)

            monkeypatch.setattr(hydra, name, wrapped)

        counting("_loss_and_grads_vera_mae", "vera")
        counting("_loss_and_grads_dense", "dense")
        vera = TestVera().make_vera_targets(num_tasks=3)
        lora = make_targets(num_tasks=3)
        train(vera, HydraConfig(num_clusters=2, epochs=2), Rng(0))
        assert calls == {"vera": 3, "dense": 0}
        train(lora, HydraConfig(num_clusters=2, epochs=2), Rng(0))
        for kind in SMOOTH:
            train(vera, HydraConfig(num_clusters=2, epochs=2, distance=kind), Rng(0))
        assert calls == {"vera": 6, "dense": 0}
        # the gradient oracle checks the kernel training runs
        run_suite(seed=0, instances=1)
        assert calls["vera"] > 3


class TestStateOfAnotherKind:
    """Every kernel checks the state against the first adapter target with
    ``check_slot`` before it runs."""

    @pytest.mark.parametrize("distance", ["mae", "mse", "fro", "cos"])
    @pytest.mark.parametrize("state_kind", ["lora", "vera"])
    def test_is_a_validation_error(self, state_kind, distance):
        # both target lists have (d, r, k) = (6, 2, 5): only the kind differs
        lora, vera = make_targets(num_tasks=2), TestVera().make_vera_targets(num_tasks=2)
        own, other = (lora, vera) if state_kind == "lora" else (vera, lora)
        cfg = HydraConfig(num_clusters=2, distance=distance)
        state = init_state(own, cfg, Rng(0))
        named = rf"^the state and its targets: the state is {state_kind}"
        for evaluate in (loss, gradients):
            with pytest.raises(ValidationError, match=named):
                evaluate(state, other, cfg)

    def test_another_shape_names_both(self):
        cfg = HydraConfig(num_clusters=2, distance="mse")
        state = init_state(make_targets(num_tasks=2, d=7), cfg, Rng(0))
        named = (
            r"the state is lora with \(d, r, k\) = \(7, 2, 5\), "
            r"target 0 is lora with \(6, 2, 5\)$"
        )
        with pytest.raises(ValidationError, match=named):
            loss(state, make_targets(num_tasks=2), cfg)


# the paths that left the dense kernel: LoRA mae and VeRA's smooth distances
MOVED = [("lora", "mae"), ("vera", "mse"), ("vera", "fro"), ("vera", "cos")]


class TestOneKernelPerDistance:
    """Adapter targets of either kind take the Gram kernel under a smooth
    distance and the blocked kernel under MAE; the dense kernel is the
    oracle of both."""

    @pytest.mark.parametrize("adapter, distance", MOVED)
    @pytest.mark.parametrize("num_clusters", [2, 4])
    @pytest.mark.parametrize("d, k, budget", TestVeraMaeKernel.SHAPES)
    def test_matches_dense_kernel(self, monkeypatch, adapter, distance, num_clusters, d, k, budget):
        if budget is not None:
            monkeypatch.setattr(hydra, "_BLOCK_ENTRIES", budget)
        rng = Rng(37)
        cfg = HydraConfig(num_clusters=num_clusters, distance=distance, temperature=0.7)
        for seed in range(5):
            targets = kind_targets(adapter, 4, d=d, r=3, k=k, seed=seed)
            state = hydra._new_state(targets, num_clusters, rng, stdev=1.0)
            value, per_task, grads = hydra._kernel(targets, cfg)(state)
            ref_value, ref_per_task, ref_grads = dense_kernel(targets, cfg)(state)
            assert value == pytest.approx(ref_value, rel=1e-12, abs=0.0)
            assert per_task == pytest.approx(ref_per_task, rel=1e-12, abs=0.0)
            assert sorted(grads.tensors) == sorted(ref_grads.tensors)
            for name, ref in ref_grads.tensors.items():
                got = grads.tensors[name]
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref)), name

    @pytest.mark.parametrize("adapter", ["lora", "vera"])
    @pytest.mark.parametrize("distance", list(DistanceKind))
    @pytest.mark.parametrize("num_clusters", [2, 4])
    def test_exact_fit_is_exact_zero(self, monkeypatch, adapter, distance, num_clusters):
        """Each task's target is the member its one-hot (or identity)
        routing picks, so every residual is exactly 0."""
        monkeypatch.setattr(hydra, "_BLOCK_ENTRIES", 18)  # 3 rows of k = 6 per block
        targets = kind_targets(adapter, 4, d=7, r=3, k=6, seed=8)
        state = hydra._new_state(targets, num_clusters, Rng(1), stdev=1.0)
        assignment = [0, 1, 1, 0] if num_clusters == 2 else [0, 1, 2, 3]
        if state.logits is not None:
            # softmax of a +-50 gap at T = 0.1 is exactly one-hot in float64
            state.logits = np.full((4, num_clusters), -50.0)
            state.logits[range(4), assignment] = 50.0
        exact = [state.member(j) for j in assignment]
        cfg = HydraConfig(num_clusters=num_clusters, distance=distance)
        value, per_task, grads = hydra._kernel(exact, cfg)(state)
        assert value == 0.0 and per_task == [0.0] * 4
        for name, tensor in grads.tensors.items():
            assert np.array_equal(tensor, np.zeros_like(tensor)), name

    @pytest.mark.parametrize("adapter, distance", MOVED)
    @pytest.mark.parametrize("num_clusters", [2, 4])
    def test_short_training_matches_dense(self, monkeypatch, adapter, distance, num_clusters):
        monkeypatch.setattr(hydra, "_BLOCK_ENTRIES", 25)  # 2 rows of k = 10 per block
        targets = kind_targets(adapter, 4, d=12, r=3, k=10, seed=5)
        cfg = HydraConfig(
            num_clusters=num_clusters, distance=distance, epochs=40, temperature=0.5
        )
        state, trace = train(targets, cfg, Rng(3))
        ref_state = init_state(targets, cfg, Rng(3))
        ref_trace = hydra._fit(ref_state, dense_kernel(targets, cfg), cfg)
        assert assign_tasks(state, cfg) == assign_tasks(ref_state, cfg)
        assert trace.final_loss == pytest.approx(ref_trace.final_loss, rel=1e-9, abs=0.0)
        assert trace.final_loss < trace.initial_loss

    @pytest.mark.parametrize("adapter, distance", MOVED)
    def test_peak_memory_is_below_one_update(self, monkeypatch, adapter, distance):
        """One call forms no d x k array.  The budget is cut to an eighth of
        d x k, so that a call that densified any target or residual would
        peak above one d x k matrix.  What a call keeps per task is rank-r
        (LoRA holds each task's mixed factor and pull-back, d x r each), so
        r = 2 keeps K = 8 of them well below one d x k matrix."""
        import tracemalloc

        d = k = 256
        monkeypatch.setattr(hydra, "_BLOCK_ENTRIES", d * k // 8)
        cfg = HydraConfig(num_clusters=3, distance=distance)
        targets = kind_targets(adapter, 8, d=d, r=2, k=k, seed=8)
        state = init_state(targets, cfg, Rng(0))
        tracemalloc.start()
        try:
            gradients(state, targets, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d * k * 8, peak / (d * k * 8)

    @pytest.mark.parametrize("adapter, rank", [("lora", 16), ("vera", 32)])
    def test_gram_kernel_peak_grows_by_under_three_task_stacks(self, adapter, rank):
        """Peak of building the Gram kernel plus one call, at d = k = 512
        and M = 3.  Per task a call keeps the mixed left factor ``L_p,i``
        and, for LoRA, its pull-back, d x r each; each target's factors are
        built in turn, not stacked.  From K = 4 to K = 16 the peak may grow
        by three such K-stacks, 12 x 3 d r doubles."""
        import tracemalloc

        d = k = 512
        cfg = HydraConfig(num_clusters=3, distance=DistanceKind.MSE)
        peaks = []
        for num_tasks in (4, 16):
            targets = kind_targets(adapter, num_tasks, d=d, r=rank, k=k, seed=num_tasks)
            state = init_state(targets, cfg, Rng(0))
            tracemalloc.start()
            try:
                hydra._kernel(targets, cfg)(state)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        stacks = (peaks[1] - peaks[0]) / (12 * d * rank * 8)
        assert stacks <= 3.0, stacks

    @pytest.mark.parametrize("adapter, rank", [("lora", 16), ("vera", 64)])
    def test_gram_kernel_holds_no_target_factors(self, adapter, rank):
        """Between steps the Gram kernel holds ``<T_i, T_i>`` per task and
        nothing of the size of one target's d x r factor."""
        import tracemalloc

        d = k = 1024
        targets = kind_targets(adapter, 8, d=d, r=rank, k=k, seed=3)
        tracemalloc.start()
        try:
            kernel = hydra._kernel(targets, HydraConfig(num_clusters=3, distance="mse"))
            held = tracemalloc.get_traced_memory()[0]  # while ``kernel`` is alive
        finally:
            tracemalloc.stop()
        assert held < d * rank * 8, held
        del kernel

    def test_grad_check_reaches_every_kernel(self, monkeypatch):
        calls = {name: 0 for name in (
            "_loss_and_grads_factored", "_loss_and_grads_vera_mae", "_loss_and_grads_dense"
        )}  # fmt: skip
        for name in calls:
            original = getattr(hydra, name)

            def wrapped(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(hydra, name, wrapped)
        assert run_suite(seed=0, instances=1).passed
        assert all(calls.values()), calls


class TestOverflowingTarget:
    """A target whose ``<T, T>`` overflows is a typed error before step 0,
    naming its task; the training loop then names the slot too."""

    def huge_vera(self):
        # entries of 1e38: the updates are finite, their squared norms are not
        d = k = 128
        big = float(np.float32(1e38))
        shared_b, shared_a = np.full((d, 2), big), np.full((2, k), big)
        return [VeraAdapter(np.full(d, big), [big, big], shared_b, shared_a) for _ in range(2)]

    @pytest.mark.parametrize("distance", ["mse", "fro", "cos"])
    def test_adapter_targets(self, distance):
        targets = self.huge_vera()
        cfg = HydraConfig(num_clusters=2, distance=distance)
        state = init_state(targets, cfg, Rng(0))
        with pytest.raises(NumericalError, match=r"^the Gram trace <T, T> of target 0") as info:
            gradients(state, targets, cfg)
        assert info.value.task == 0

    def test_dense_targets_under_cos(self):
        targets = self.huge_vera()
        cfg = HydraConfig(num_clusters=2, distance="cos")
        state = init_state(targets, cfg, Rng(0))
        mats = hydra._target_matrices(targets)
        with pytest.raises(NumericalError, match=r"^the Gram trace <T, T> of target 0") as info:
            gradients(state, mats, cfg)
        assert info.value.task == 0

    def test_merge_names_slot_and_task(self):
        slot = SlotKey(0, "q")
        collection = AdapterCollection.build(
            ["t0", "t1"], {(t, slot): a for t, a in zip(["t0", "t1"], self.huge_vera())}
        )
        cfg = HydraConfig(num_clusters=1, distance="mse")
        with pytest.raises(NumericalError, match=r"^slot layer\.0\.q: task t0: the Gram trace"):
            merge_collection_hydra(collection, cfg)


# (cluster count, the part of the state set to inf, the task the error names): every
# task mixes every cluster under routing, and cluster j serves task j under identity
NON_FINITE_PARTS = [
    (2, "shared", 0), (2, "cluster 0", 0), (2, "cluster 1", 0), (2, "logits", 1),
    (3, "shared", 0), (3, "cluster 0", 0), (3, "cluster 1", 1),
]  # fmt: skip


class TestNonFiniteState:
    """A state that turns non-finite anywhere stops training with a
    :class:`NumericalError` naming the step and a task."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("adapter", ["lora", "vera"])
    @pytest.mark.parametrize("distance", list(DistanceKind))
    @pytest.mark.parametrize("path", ["adapters", "dense"])
    @pytest.mark.parametrize("num_clusters, part, task", NON_FINITE_PARTS)
    def test_names_step_and_task(self, adapter, distance, path, num_clusters, part, task):
        targets = kind_targets(adapter, 3, d=6, r=2, k=5, seed=1)
        cfg = HydraConfig(num_clusters=num_clusters, distance=distance, epochs=3)
        state = init_state(targets, cfg, Rng(0))
        if part == "logits":
            state.logits[task, 0] = np.inf
        elif part == "shared":
            state.params[0].flat[0] = np.inf
        else:
            state.params[1][int(part[-1])].flat[0] = np.inf
        if path == "dense":
            targets = hydra._target_matrices(targets)
        with pytest.raises(NumericalError, match=rf"^step 0: .*task {task}\b") as info:
            hydra._fit(state, hydra._kernel(targets, cfg), cfg)
        assert info.value.task is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("evaluate", [loss, gradients])
    @pytest.mark.parametrize("adapter", ["lora", "vera"])
    @pytest.mark.parametrize("distance", list(DistanceKind))
    @pytest.mark.parametrize("path", ["adapters", "dense"])
    @pytest.mark.parametrize("num_clusters, part, task", NON_FINITE_PARTS)
    def test_loss_and_gradients_name_the_task(
        self, evaluate, adapter, distance, path, num_clusters, part, task
    ):
        """Each call checks the state against its targets without building
        an adapter of it, so the kernel meets the non-finite entry and names
        the task, as in training."""
        targets = kind_targets(adapter, 3, d=6, r=2, k=5, seed=1)
        cfg = HydraConfig(num_clusters=num_clusters, distance=distance)
        state = init_state(targets, cfg, Rng(0))
        if part == "logits":
            state.logits[task, 0] = np.inf
        elif part == "shared":
            state.params[0].flat[0] = np.inf
        else:
            state.params[1][int(part[-1])].flat[0] = np.inf
        if path == "dense":
            targets = hydra._target_matrices(targets)
        with pytest.raises(NumericalError, match=rf"^the .*task {task}\b"):
            evaluate(state, targets, cfg)


class TestCheckedOnce:
    """Each input is checked once, where it enters: :func:`init_state`
    checks the targets, and each call of :func:`loss` or :func:`gradients`
    its targets and then the state against target 0."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        """The adapters of every ``check_slot`` call of the hydra module."""
        calls, original = [], hydra.check_slot

        def counting(adapters, where):
            calls.append(list(adapters.values()))
            return original(adapters, where)

        monkeypatch.setattr(hydra, "check_slot", counting)
        return calls

    @staticmethod
    def same(adapters, targets) -> bool:
        return len(adapters) == len(targets) and all(a is t for a, t in zip(adapters, targets))

    @pytest.mark.parametrize("adapter", ["lora", "vera"])
    @pytest.mark.parametrize("distance", ["mae", "mse"])
    def test_train_checks_as_often_at_any_epoch_count(self, calls, adapter, distance):
        targets = kind_targets(adapter, 3, d=6, r=2, k=5, seed=4)
        counts = []
        for epochs in (1, 50):
            calls.clear()
            train(targets, HydraConfig(num_clusters=2, epochs=epochs, distance=distance), Rng(0))
            counts.append(len(calls))
            assert sum(self.same(adapters, targets) for adapters in calls) == 1
        assert counts[0] == counts[1], counts

    @pytest.mark.parametrize("adapter", ["lora", "vera"])
    @pytest.mark.parametrize("distance", ["mae", "mse"])
    def test_each_evaluation_checks_targets_then_state(self, calls, adapter, distance):
        targets = kind_targets(adapter, 3, d=6, r=2, k=5, seed=4)
        cfg = HydraConfig(num_clusters=2, distance=distance)
        state = init_state(targets, cfg, Rng(0))
        for evaluate in (loss, gradients):
            calls.clear()
            evaluate(state, targets, cfg)
            assert len(calls) == 2
            assert self.same(calls[0], targets)
            first, member = calls[1]
            assert first is targets[0]
            assert all(map(np.array_equal, member.sides(), state.member(0).sides()))

    def test_dense_targets_check_no_slot(self, calls):
        targets = make_targets(num_tasks=3)
        cfg = HydraConfig(num_clusters=2)
        state = init_state(targets, cfg, Rng(0))
        calls.clear()
        gradients(state, hydra._target_matrices(targets), cfg)
        assert calls == []


def test_globalize_refuses_differing_cluster_counts():
    slots = [SlotKey(0, "q"), SlotKey(0, "v")]
    entries = {
        slot: SharedLoraSlot(
            a_shared=np.ones((2, 5)), b_clusters=[np.ones((6, 2))] * m, assignment=[0, m - 1]
        )
        for slot, m in zip(slots, (1, 2))
    }
    bundle = MergedBundle("hydraopt", "lora", ["t0", "t1"], slots, entries)
    with pytest.raises(ValidationError, match="^cannot globalize: .* differing cluster counts$"):
        hydra.globalize_assignment(bundle)
