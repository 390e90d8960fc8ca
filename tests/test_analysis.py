import numpy as np
import pytest

from hydramerge.adapters import (
    AdapterCollection,
    delta_weight,
    LowRankAdapter,
    MergedAdapterSlot,
    MergedBundle,
    SharedLoraSlot,
    SlotKey,
    VeraAdapter,
)
from hydramerge.analysis import (
    SimilarityReport,
    pairwise_similarity,
    reconstruction_report,
    storage_ratio,
)
from hydramerge.baselines import BaselineConfig, MergeMethod, merge_collection
from hydramerge import analysis, hydra, linalg
from hydramerge.errors import NumericalError, ParameterError, ValidationError
from hydramerge.hydra import HydraConfig, export_slot, merge_collection_hydra, train
from hydramerge.linalg import DistanceKind, Rng, distance, gaussian_sample
from hydramerge.synthetic import SynthSpec, generate


def collection_of_identical(tasks=3):
    slot = SlotKey(0, "q")
    adapter = LowRankAdapter(
        b=gaussian_sample(Rng(0), 4, 2, 0.0, 1.0), a=gaussian_sample(Rng(1), 2, 6, 0.0, 1.0)
    )
    ids = [f"t{i}" for i in range(tasks)]
    table = {
        (t, slot): LowRankAdapter(b=adapter.b.copy(), a=adapter.a.copy()) for t in ids
    }
    return AdapterCollection.build(ids, table)


class TestPairwiseSimilarity:
    def test_grand_mean_of_an_unknown_factor_is_refused(self):
        with pytest.raises(ParameterError, match="^factor must be 'A' or 'B', got 'C'$"):
            SimilarityReport(tasks=["t0"]).grand_mean("C")

    def test_identical_adapters_give_zero(self):
        report = pairwise_similarity(collection_of_identical())
        for mat in list(report.a_matrices.values()) + list(report.b_matrices.values()):
            assert np.array_equal(mat, np.zeros_like(mat))

    def test_constant_offset_oracle(self):
        slot = SlotKey(0, "q")
        base = LowRankAdapter(
            b=gaussian_sample(Rng(2), 4, 2, 0.0, 1.0),
            a=gaussian_sample(Rng(3), 2, 6, 0.0, 1.0),
        )
        shifted = LowRankAdapter(b=base.b.copy(), a=base.a + 1.0)
        coll = AdapterCollection.build(
            ["t0", "t1"], {("t0", slot): base, ("t1", slot): shifted}
        )
        report = pairwise_similarity(coll)
        assert report.a_matrices[slot][0, 1] == pytest.approx(1.0)
        assert report.a_matrices[slot][1, 0] == pytest.approx(1.0)

    def test_symmetric_zero_diagonal(self):
        coll = generate(SynthSpec(tasks=4, layers=1, seed=3))
        report = pairwise_similarity(coll)
        for mat in report.a_matrices.values():
            assert np.array_equal(mat, mat.T)
            assert np.array_equal(np.diag(mat), np.zeros(4))

    def test_synthetic_asymmetry(self):
        coll = generate(SynthSpec(a_noise=0.01, b_scale=1.0, seed=0))
        report = pairwise_similarity(coll)
        assert report.grand_mean("A") < report.grand_mean("B")

    def test_permutation_equivariance(self):
        coll = generate(SynthSpec(tasks=3, layers=1, seed=5))
        report = pairwise_similarity(coll)
        perm = [2, 0, 1]
        permuted_ids = [coll.task_ids[i] for i in perm]
        permuted = AdapterCollection.build(
            permuted_ids, {(t, s): coll.table[(t, s)] for (t, s) in coll.table}
        )
        permuted_report = pairwise_similarity(permuted)
        slot = coll.slots[0]
        expected = report.a_matrices[slot][np.ix_(perm, perm)]
        assert np.allclose(permuted_report.a_matrices[slot], expected, atol=0)


    def test_vera_compares_the_scaling_vectors(self):
        # "A" is the shared side (lambda_d), "B" the cluster side (lambda_b)
        rng = Rng(8)
        slot = SlotKey(0, "q")
        shared_b, shared_a = np.ones((5, 3)), np.ones((3, 4))
        vectors = {
            t: (gaussian_sample(rng, 3, 1, 0.0, 1.0), gaussian_sample(rng, 5, 1, 0.0, 1.0))
            for t in ("t0", "t1", "t2")
        }
        table = {
            (t, slot): VeraAdapter(lambda_b=lb.ravel(), lambda_d=ld.ravel(),
                                   shared_b=shared_b, shared_a=shared_a)
            for t, (ld, lb) in vectors.items()
        }  # fmt: skip
        report = pairwise_similarity(AdapterCollection.build(list(vectors), table))
        for i, ti in enumerate(vectors):
            for j, tj in enumerate(vectors):
                (ld_i, lb_i), (ld_j, lb_j) = vectors[ti], vectors[tj]
                assert report.a_matrices[slot][i, j] == pytest.approx(np.mean(np.abs(ld_i - ld_j)))
                assert report.b_matrices[slot][i, j] == pytest.approx(np.mean(np.abs(lb_i - lb_j)))


class TestStorageRatio:
    @pytest.mark.parametrize("r", [4, 16, 64])
    @pytest.mark.parametrize("d", [4, 16, 64])
    def test_square_cases(self, r, d):
        assert storage_ratio(5, 1, r, d, d) == 20.0
        assert storage_ratio(5, 5, r, d, d) == 60.0

    def test_m2_square_case(self):
        assert storage_ratio(5, 2, 4, 16, 16) == 30.0

    def test_asymptote(self):
        assert abs(storage_ratio(100, 100, 8, 32, 32) - 50.0) <= 0.5

    def test_wide_input_side_can_drop_below_half(self):
        # when the input factor dominates, sharing it saves more than half
        assert storage_ratio(10, 10, 2, 4, 400) < 50.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            storage_ratio(0, 1, 1, 1, 1)


def clustered_bundle(coll, assignment):
    """A shared LoRA bundle over ``coll``: slot by slot, task 0's A and one
    B per cluster, cluster j's from the first task assigned to it."""
    entries = {}
    for slot in coll.slots:
        adapters = coll.adapters_at(slot)
        b_clusters = [adapters[assignment.index(j)].b.copy() for j in range(max(assignment) + 1)]
        entries[slot] = SharedLoraSlot(
            a_shared=adapters[0].a.copy(), b_clusters=b_clusters, assignment=list(assignment)
        )
    return MergedBundle(
        method="hydraopt", kind="lora", tasks=list(coll.task_ids), slots=list(coll.slots),
        entries=entries,
    )


class TestReconstruction:
    def test_exact_single_task_bundle_is_zero(self):
        coll = collection_of_identical(tasks=1)
        slot = coll.slots[0]
        bundle = MergedBundle(
            method="ta",
            kind="lora",
            tasks=["t0"],
            slots=[slot],
            entries={slot: MergedAdapterSlot(coll.adapter("t0", slot))},
        )
        report = reconstruction_report(coll, bundle)
        assert report.grand_mean("mae") == 0.0
        assert report.grand_mean("fro") == 0.0

    def test_exact_shared_representation_is_zero(self):
        shared_a = gaussian_sample(Rng(5), 2, 6, 0.0, 1.0)
        b_list = [gaussian_sample(Rng(i + 40), 4, 2, 0.0, 1.0) for i in range(3)]
        slot = SlotKey(0, "q")
        ids = ["t0", "t1", "t2"]
        table = {
            (t, slot): LowRankAdapter(b=b_list[i].copy(), a=shared_a.copy())
            for i, t in enumerate(ids)
        }
        coll = AdapterCollection.build(ids, table)
        entry = SharedLoraSlot(
            a_shared=shared_a.copy(), b_clusters=[b.copy() for b in b_list], assignment=[0, 1, 2]
        )
        bundle = MergedBundle(
            method="hydraopt", kind="lora", tasks=ids, slots=[slot], entries={slot: entry}
        )
        report = reconstruction_report(coll, bundle)
        assert report.grand_mean("mae") == 0.0

    @pytest.mark.parametrize("method", ["hydraopt", "ta", "interleaved"])
    def test_matches_per_task_reference_loop(self, method):
        coll = generate(SynthSpec(tasks=4, layers=1, d=8, k=6, rank=2, seed=3))
        if method == "hydraopt":
            bundle, _ = merge_collection_hydra(coll, HydraConfig(num_clusters=2, epochs=5))
        elif method == "ta":
            bundle = merge_collection(coll, BaselineConfig(method=MergeMethod.TA))
        else:
            # clusters scored out of task order must still report in task order
            bundle = clustered_bundle(coll, [0, 1, 0, 2])
        report = reconstruction_report(coll, bundle)
        mae, fro = {}, {}
        for slot in coll.slots:
            for task in coll.task_ids:
                target = delta_weight(coll.adapter(task, slot))
                prediction = bundle.prediction(task, slot)
                mae[(task, slot)] = distance(target, prediction, DistanceKind.MAE)
                fro[(task, slot)] = distance(target, prediction, DistanceKind.FRO)
        assert report.mae == mae
        assert report.fro == fro
        assert report.grand_mean("mae") == float(np.mean(list(mae.values())))
        assert report.grand_mean("fro") == float(np.mean(list(fro.values())))

    def test_peak_memory_does_not_grow_with_clusters(self):
        """One merged product and one residual (plus one temporary of its
        size) at a time, whatever the cluster count."""
        import tracemalloc

        d = k = 64
        coll = generate(SynthSpec(tasks=6, layers=1, slot_names=("q",), d=d, k=k, rank=4, seed=1))
        peaks = []
        for m in (1, 3, 6):
            bundle = clustered_bundle(coll, [i % m for i in range(coll.num_tasks)])
            tracemalloc.start()
            try:
                reconstruction_report(coll, bundle)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        dense = d * k * 8
        assert max(peaks) < 4 * dense, [p / dense for p in peaks]
        assert max(peaks) - min(peaks) < dense / 2, [p / dense for p in peaks]

    def test_clusters_of_two_shapes_name_the_slot(self):
        coll = collection_of_identical(tasks=2)
        slot = coll.slots[0]
        entry = SharedLoraSlot(
            a_shared=coll.adapter("t0", slot).a,
            b_clusters=[np.ones((4, 2)), np.ones((5, 2))],
            assignment=[0, 1],
        )
        bundle = MergedBundle(
            method="hydraopt", kind="lora", tasks=["t0", "t1"], slots=[slot], entries={slot: entry}
        )
        with pytest.raises(ValidationError, match=r"slot layer\.0\.q: cluster 1"):
            reconstruction_report(coll, bundle)

    def test_slot_mismatch_rejected(self):
        coll = collection_of_identical()
        bundle = MergedBundle(
            method="ta", kind="lora", tasks=list(coll.task_ids), slots=[], entries={}
        )
        with pytest.raises(ValidationError):
            reconstruction_report(coll, bundle)

    def test_report_dict_has_fixed_fields(self):
        coll = collection_of_identical()
        slot = coll.slots[0]
        bundle = MergedBundle(
            method="ta",
            kind="lora",
            tasks=list(coll.task_ids),
            slots=[slot],
            entries={slot: MergedAdapterSlot(coll.adapter("t0", slot))},
        )
        doc = reconstruction_report(coll, bundle).to_dict()
        assert "grand_mean_mae" in doc["recon"]
        assert set(doc["recon"]["per_task"]) == set(coll.task_ids)


def vera_collection(tasks=4, d=7, k=6, rank=3, seed=0, tie_lambda_d=False):
    """Two slots, each with its own frozen pair and per-task vectors."""
    rng, ids, table = Rng(seed), [f"t{i}" for i in range(tasks)], {}
    for slot in (SlotKey(0, "q"), SlotKey(0, "v")):
        shared_b = gaussian_sample(rng, d, rank, 0.0, 1.0)
        shared_a = gaussian_sample(rng, rank, k, 0.0, 1.0)
        lambda_d = gaussian_sample(rng, rank, 1, 0.0, 1.0).ravel()
        for task in ids:
            if not tie_lambda_d:
                lambda_d = gaussian_sample(rng, rank, 1, 0.0, 1.0).ravel()
            lambda_b = gaussian_sample(rng, d, 1, 0.0, 1.0).ravel()
            table[(task, slot)] = VeraAdapter(lambda_b, lambda_d, shared_b, shared_a)
    return AdapterCollection.build(ids, table)


def lora_collection(tasks=4, d=7, k=6, rank=3, seed=0):
    return generate(SynthSpec(tasks=tasks, layers=1, d=d, k=k, rank=rank, seed=seed))


def shared_bundle(coll, assignment, shared_from=-1):
    """A shared bundle of ``coll``'s kind: per slot, the shared side of task
    ``shared_from`` and one cluster side per cluster, cluster j's from the
    first task assigned to it."""
    bundle = MergedBundle.of(coll, "hydraopt")
    for slot in coll.slots:
        adapters = coll.adapters_at(slot)
        clusters = [adapters[assignment.index(j)].sides()[1] for j in range(max(assignment) + 1)]
        shared, frozen = adapters[shared_from].sides()[0], adapters[0].frozen
        bundle.entries[slot] = type(adapters[0]).shared_slot(shared, clusters, frozen, assignment)
    return bundle


class TestBlockedReport:
    """The report builds every update from its rank-r factors one row block
    at a time; ``distance(delta_weight(t), prediction)`` is its oracle."""

    # (d, k, block budget): a ragged last block (3 + 3 + 1 rows), d below
    # one block, and one row per block
    SHAPES = [(7, 6, 18), (7, 6, None), (5, 6, 1)]

    @pytest.mark.parametrize("layout", ["per-matrix", "shared", "interleaved"])
    @pytest.mark.parametrize("kind", ["lora", "vera"])
    @pytest.mark.parametrize("d, k, budget", SHAPES)
    def test_matches_dense_reference(self, monkeypatch, kind, layout, d, k, budget):
        if budget is not None:
            monkeypatch.setattr(analysis, "_BLOCK_ENTRIES", budget)
        make = lora_collection if kind == "lora" else vera_collection
        for seed in range(3):
            coll = make(tasks=4, d=d, k=k, rank=3, seed=seed)
            if layout == "per-matrix":
                bundle = merge_collection(coll, BaselineConfig(method=MergeMethod.TIES))
            else:
                assignment = [0, 1, 2, 3] if layout == "shared" else [0, 1, 0, 2]
                bundle = shared_bundle(coll, assignment)
            report = reconstruction_report(coll, bundle)
            for slot in coll.slots:
                for task in coll.task_ids:
                    target = delta_weight(coll.adapter(task, slot))
                    prediction = bundle.prediction(task, slot)
                    for table, which in ((report.mae, "mae"), (report.fro, "fro")):
                        want = distance(target, prediction, DistanceKind(which))
                        assert table[(task, slot)] == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("budget", [18, None, 1])
    def test_vera_exact_fit_is_zero(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(analysis, "_BLOCK_ENTRIES", budget)
        coll = vera_collection(tasks=3, tie_lambda_d=True, seed=2)
        report = reconstruction_report(coll, shared_bundle(coll, [0, 1, 2]))
        assert set(report.mae.values()) == {0.0} and set(report.fro.values()) == {0.0}

    @pytest.mark.parametrize("kind", ["lora", "vera"])
    def test_peak_memory_is_below_one_update(self, monkeypatch, kind):
        """At d = k = 256 the default budget makes one block the whole
        matrix, so the budget is cut to an eighth of it: a report that formed
        any whole update or residual would peak above one d x k matrix."""
        import tracemalloc

        d = k = 256
        monkeypatch.setattr(analysis, "_BLOCK_ENTRIES", d * k // 8)
        make = lora_collection if kind == "lora" else vera_collection
        coll = make(tasks=8, d=d, k=k, rank=8, seed=1)
        bundle = shared_bundle(coll, [i % 3 for i in range(8)])
        tracemalloc.start()
        try:
            reconstruction_report(coll, bundle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d * k * 8, peak / (d * k * 8)

    @pytest.mark.parametrize("layout", ["per-matrix", "interleaved"])
    @pytest.mark.parametrize("kind", ["lora", "vera"])
    def test_each_task_is_dropped_before_the_next_is_read(self, kind, layout):
        """Scores come task by task: the adapter of task i is gone when
        task i + 1 is read, and the scores are those of the whole list."""
        import weakref
        from collections.abc import Sequence

        coll = (lora_collection if kind == "lora" else vera_collection)(tasks=4, seed=5)
        if layout == "per-matrix":
            bundle = merge_collection(coll, BaselineConfig(method=MergeMethod.TIES))
        else:
            bundle = shared_bundle(coll, [0, 1, 0, 2])
        slot, read = coll.slots[0], []

        class Reading(Sequence):
            def __len__(self):
                return coll.num_tasks

            def __getitem__(self, i):
                assert [ref() for ref in read] == [None] * len(read), f"reading task {i}"
                held = coll.adapters_at(slot)[i]
                adapter = type(held).from_sides(*(s.copy() for s in held.sides()), held.frozen)
                read.append(weakref.ref(adapter))
                return adapter

        scores = analysis._scores(Reading(), bundle.entry(slot))
        assert len(read) == coll.num_tasks
        assert scores == analysis._scores(coll.adapters_at(slot), bundle.entry(slot))

    @pytest.mark.parametrize("scale_b, scale_d", [(1e160, 1.0), (1e300, 1e10)])
    def test_non_finite_residual_names_slot_and_task(self, scale_b, scale_d):
        # 1e160: the update is finite, the sum of its squared entries is not;
        # 1e300 and 1e10: the update itself overflows
        coll = vera_collection(tasks=3, seed=3)
        bundle = merge_collection(coll, BaselineConfig(method=MergeMethod.TA))
        slot = coll.slots[1]
        a = coll.adapter("t1", slot)
        coll.table[("t1", slot)] = VeraAdapter(
            a.lambda_b * scale_b, a.lambda_d * scale_d, a.shared_b, a.shared_a
        )
        with pytest.raises(NumericalError, match=r"^slot layer\.0\.v: task 't1': "):
            reconstruction_report(coll, bundle)


class TestOneResidualBuilder:
    """The report and hydraopt's MAE kernel take every residual block from
    ``linalg.residual_blocks``, so the report scores a bundle as training
    measured it.  Blocks of 18 entries (3 rows of k = 6) leave the last
    one ragged."""

    K = 4

    @pytest.fixture(autouse=True)
    def ragged_blocks(self, monkeypatch):
        monkeypatch.setattr(analysis, "_BLOCK_ENTRIES", 18)
        monkeypatch.setattr(hydra, "_BLOCK_ENTRIES", 18)

    def slots(self, kind):
        """Per slot, the targets and a state trained under MAE with M == K."""
        make = lora_collection if kind == "lora" else vera_collection
        coll = make(tasks=self.K, d=7, k=6, rank=3, seed=3)
        cfg = HydraConfig(num_clusters=self.K, distance="mae", epochs=5)
        for slot in coll.slots:
            targets = list(coll.adapters_at(slot))
            yield targets, train(targets, cfg, Rng(1))[0], cfg

    @pytest.mark.parametrize("kind", ["lora", "vera"])
    def test_report_mae_is_the_training_distance(self, kind):
        for targets, state, cfg in self.slots(kind):
            per_task = hydra._kernel(targets, cfg)(state)[1]
            scores = analysis._scores(targets, export_slot(state, list(range(self.K))))
            assert [mae for mae, _ in scores] == pytest.approx(per_task, rel=1e-15, abs=0.0)
            assert min(per_task) > 0.0

    @pytest.mark.parametrize("kind", ["lora", "vera"])
    def test_both_callers_build_each_residual_there(self, monkeypatch, kind):
        calls = []

        def counting(module):
            def wrapped(*args):
                calls.append(module.__name__)
                return linalg.residual_blocks(*args)

            monkeypatch.setattr(module, "residual_blocks", wrapped)

        counting(analysis)
        counting(hydra)
        targets, state, cfg = next(self.slots(kind))
        calls.clear()  # training's own steps
        hydra._kernel(targets, cfg)(state)
        analysis._scores(targets, export_slot(state, list(range(self.K))))
        assert calls == [hydra.__name__] * self.K + [analysis.__name__] * self.K


class TestSynthetic:
    def test_zero_a_noise_makes_input_factors_identical(self):
        coll = generate(SynthSpec(tasks=4, a_noise=0.0, seed=7))
        for slot in coll.slots:
            adapters = coll.adapters_at(slot)
            for other in adapters[1:]:
                assert np.array_equal(other.a, adapters[0].a)

    def test_zero_b_scale_makes_updates_zero(self):
        from hydramerge.adapters import delta_weight

        coll = generate(SynthSpec(tasks=2, b_scale=0.0, seed=1))
        for (task, slot), adapter in coll.table.items():
            assert np.array_equal(delta_weight(adapter), np.zeros((adapter.d, adapter.k)))

    def test_same_spec_same_bytes(self, tmp_path):
        from hydramerge.archive import write_archive

        one, two = tmp_path / "one.lrta", tmp_path / "two.lrta"
        write_archive(generate(SynthSpec(seed=3)), one)
        write_archive(generate(SynthSpec(seed=3)), two)
        assert one.read_bytes() == two.read_bytes()

    def test_noise_scaling_roughly_linear(self):
        ratios = []
        for seed in range(5):
            small = pairwise_similarity(
                generate(SynthSpec(a_noise=0.02, seed=seed))
            ).grand_mean("A")
            large = pairwise_similarity(
                generate(SynthSpec(a_noise=0.04, seed=seed))
            ).grand_mean("A")
            ratios.append(large / small)
        mean_ratio = float(np.mean(ratios))
        assert 1.5 <= mean_ratio <= 2.5

    def test_table_holds_each_task_at_each_slot(self):
        spec = SynthSpec(tasks=3, layers=2)
        table = generate(spec).table
        assert len(table) == 3 * len(spec.slot_keys()) == len(list(table))
        with pytest.raises(KeyError):
            table[("t3", spec.slot_keys()[0])]

    def test_rank_bound_validated(self):
        with pytest.raises(ParameterError):
            generate(SynthSpec(d=2, k=2, rank=4))


class TestReconReportMeasures:
    def report(self):
        slot = SlotKey(0, "q")
        return analysis.ReconReport(
            tasks=["t0"], slots=[slot], mae={("t0", slot): 1.0}, fro={("t0", slot): 2.0}
        )

    def test_each_measure_reads_its_own_table(self):
        report = self.report()
        assert report.grand_mean("mae") == report.task_mean("t0", "mae") == 1.0
        assert report.grand_mean("fro") == report.task_mean("t0", "fro") == 2.0

    @pytest.mark.parametrize("which", ["MAE", "mse", ""])
    def test_unknown_measure_is_named(self, which):
        report = self.report()
        named = rf"^measure must be 'mae' or 'fro', got {which!r}$"
        with pytest.raises(ParameterError, match=named):
            report.grand_mean(which)
        with pytest.raises(ParameterError, match=named):
            report.task_mean("t0", which)
