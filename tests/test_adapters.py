import numpy as np
import pytest

from hydramerge.adapters import (
    AdapterCollection,
    LowRankAdapter,
    MergedAdapterSlot,
    MergedBundle,
    SharedLoraSlot,
    SharedVeraSlot,
    SlotKey,
    VeraAdapter,
    check_slot,
    delta_weight,
)
from hydramerge.errors import ShapeError, ValidationError
from hydramerge.linalg import Rng, gaussian_sample


def lora(d, r, k, seed=0):
    rng = Rng(seed)
    return LowRankAdapter(
        b=gaussian_sample(rng, d, r, 0.0, 1.0),
        a=gaussian_sample(rng, r, k, 0.0, 1.0),
    )


class TestSlotKey:
    def test_label_round_trip(self):
        key = SlotKey(3, "q")
        assert key.label() == "layer.3.q"
        assert SlotKey.from_label("layer.3.q") == key

    def test_ordering(self):
        assert sorted([SlotKey(1, "q"), SlotKey(0, "v"), SlotKey(0, "q")]) == [
            SlotKey(0, "q"),
            SlotKey(0, "v"),
            SlotKey(1, "q"),
        ]

    def test_bad_label(self):
        with pytest.raises(ValidationError):
            SlotKey.from_label("nonsense")

    def test_negative_layer_is_named(self):
        with pytest.raises(ValidationError, match=r"^layer index must be >= 0, got -1$"):
            SlotKey(-1, "q")

    @pytest.mark.parametrize("name", ["q-proj", "", "q.v"])
    def test_bad_slot_name_is_named(self, name):
        with pytest.raises(ValidationError, match=rf"^slot name {name!r} must be alphanumeric"):
            SlotKey(0, name)


class TestDeltaWeight:
    def test_outer_product_oracle(self):
        adapter = LowRankAdapter(b=[[1.0], [2.0]], a=[[3.0, 4.0]])
        assert np.array_equal(delta_weight(adapter), np.array([[3.0, 4.0], [6.0, 8.0]]))

    def test_zero_b_gives_zero_update(self):
        adapter = LowRankAdapter(b=np.zeros((3, 2)), a=np.ones((2, 4)))
        assert np.array_equal(delta_weight(adapter), np.zeros((3, 4)))

    def test_vera_unit_scaling_reduces_to_product(self):
        rng = Rng(4)
        shared_b = gaussian_sample(rng, 3, 2, 0.0, 1.0)
        shared_a = gaussian_sample(rng, 2, 5, 0.0, 1.0)
        adapter = VeraAdapter(
            lambda_b=np.ones(3), lambda_d=np.ones(2), shared_b=shared_b, shared_a=shared_a
        )
        assert np.array_equal(delta_weight(adapter), shared_b @ shared_a)

    def test_vera_scaling_oracle(self):
        # 1x1 everything: dw = lb * b * ld * a
        adapter = VeraAdapter(
            lambda_b=[2.0], lambda_d=[3.0], shared_b=[[5.0]], shared_a=[[7.0]]
        )
        assert delta_weight(adapter) == np.array([[210.0]])

    @pytest.mark.parametrize("kind", ["lora", "vera"])
    def test_overflowing_update_raises(self, kind):
        if kind == "lora":
            adapter = LowRankAdapter(b=np.full((3, 2), 1e200), a=np.full((2, 4), 1e200))
        else:
            adapter = VeraAdapter(
                lambda_b=np.full(3, 1e200),
                lambda_d=np.full(2, 1e200),
                shared_b=np.ones((3, 2)),
                shared_a=np.ones((2, 4)),
            )
        with pytest.raises(ShapeError, match="matrix product overflowed"):
            delta_weight(adapter)


class TestUpdateMap:
    """Each kind's ``pull_back`` and ``shared_grad`` are the adjoints of
    ``predict`` in the cluster side and of ``basis`` in the shared side."""

    @staticmethod
    def adapter(kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "lora":
            return LowRankAdapter(b=rng.standard_normal((5, 2)), a=rng.standard_normal((2, 4)))
        return VeraAdapter(
            lambda_b=rng.standard_normal(5),
            lambda_d=rng.standard_normal(2),
            shared_b=rng.standard_normal((5, 2)),
            shared_a=rng.standard_normal((2, 4)),
        )

    @pytest.mark.parametrize("kind", ["lora", "vera"])
    def test_adjoints(self, kind):
        adapter = self.adapter(kind, 0)
        shared, cluster = adapter.sides()
        frozen = adapter.frozen
        rng = np.random.default_rng(1)
        g = rng.standard_normal((5, 4))
        d_shared = rng.standard_normal(shared.shape)
        d_cluster = rng.standard_normal(cluster.shape)
        basis = adapter.basis(shared, frozen)
        pulled, term = adapter.pull_back(g, cluster, basis)
        # <G, L(dc)> = <L^T(G), dc>
        lhs = np.vdot(g, adapter.predict(d_cluster, basis))
        assert lhs == pytest.approx(np.vdot(pulled, d_cluster), rel=1e-12)
        # the update is linear in the shared side: <G, dL> = <dshared, shared_grad>
        moved = adapter.predict(cluster, adapter.basis(shared + d_shared, frozen))
        lhs = np.vdot(g, moved - adapter.predict(cluster, basis))
        grad = adapter.shared_grad(term, frozen)
        assert lhs == pytest.approx(np.vdot(np.ravel(grad), d_shared), rel=1e-9)

    @pytest.mark.parametrize("kind", ["lora", "vera"])
    def test_factors_multiply_to_the_update(self, kind):
        adapter = self.adapter(kind, 2)
        left, right = adapter.factors(*adapter.sides(), adapter.frozen)
        assert left.shape == (adapter.d, adapter.rank)
        assert right.shape == (adapter.rank, adapter.k)
        dense = delta_weight(adapter)
        assert np.max(np.abs(left @ right - dense)) <= 1e-14 * np.max(np.abs(dense))

    def test_lora_factors_are_its_own(self):
        adapter = self.adapter("lora", 3)
        left, right = adapter.factors(*adapter.sides(), adapter.frozen)
        assert left is adapter.b and right is adapter.a
        assert np.array_equal(left @ right, delta_weight(adapter))


class TestCheckSlot:
    def test_names_every_difference(self):
        vera = TestUpdateMap.adapter("vera", 0)
        with pytest.raises(ValidationError) as info:
            check_slot({"one": lora(5, 2, 4), "two": vera}, "here")
        assert str(info.value) == (
            "here: two is vera with (d, r, k) = (5, 2, 4), one is lora with (5, 2, 4); "
            "two and one carry different frozen pairs"
        )

    def test_a_frozen_pair_alone(self):
        one = TestUpdateMap.adapter("vera", 0)
        two = VeraAdapter(one.lambda_b, one.lambda_d, one.shared_b, one.shared_a + 1.0)
        with pytest.raises(ValidationError) as info:
            check_slot({"one": one, "two": two}, "here")
        assert str(info.value) == "here: two and one carry different frozen pairs"

    def test_same_slot_passes(self):
        one = TestUpdateMap.adapter("vera", 0)
        check_slot({"one": one, "two": TestUpdateMap.adapter("vera", 0)}, "here")


class TestAdapterInvariants:
    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            LowRankAdapter(b=np.ones((4, 2)), a=np.ones((3, 4)))

    def test_rank_exceeding_bound_rejected(self):
        with pytest.raises(ValidationError):
            LowRankAdapter(b=np.ones((2, 3)), a=np.ones((3, 2)))

    def test_vera_vector_lengths_checked(self):
        with pytest.raises(ValidationError):
            VeraAdapter(
                lambda_b=np.ones(2),
                lambda_d=np.ones(2),
                shared_b=np.ones((3, 2)),
                shared_a=np.ones((2, 4)),
            )

    @pytest.mark.parametrize(
        "name, value",
        [
            ("lambda_b", [1.0, np.inf, 1.0]),
            ("lambda_b", [np.nan] * 3),
            ("lambda_d", [1.0, -np.inf]),
            ("lambda_d", []),
        ],
    )
    def test_vera_vectors_must_be_finite_and_non_empty(self, name, value):
        parts = {
            "lambda_b": np.ones(3),
            "lambda_d": np.ones(2),
            "shared_b": np.ones((3, 2)),
            "shared_a": np.ones((2, 4)),
        }
        parts[name] = np.asarray(value, dtype=np.float64)
        with pytest.raises(ShapeError, match=name):
            VeraAdapter(**parts)


class TestAdapterCollection:
    def test_build_and_lookup(self):
        slot = SlotKey(0, "q")
        table = {("t0", slot): lora(4, 2, 6, 0), ("t1", slot): lora(4, 2, 6, 1)}
        coll = AdapterCollection.build(["t0", "t1"], table)
        assert coll.kind == "lora"
        assert coll.num_tasks == 2
        assert coll.adapter("t1", slot) is table[("t1", slot)]

    def test_missing_pair_rejected(self):
        slot_q, slot_v = SlotKey(0, "q"), SlotKey(0, "v")
        table = {
            ("t0", slot_q): lora(4, 2, 6, 0),
            ("t1", slot_q): lora(4, 2, 6, 1),
            ("t0", slot_v): lora(4, 2, 6, 2),
        }
        with pytest.raises(ValidationError, match="t1"):
            AdapterCollection.build(["t0", "t1"], table)

    def test_shape_mismatch_names_slot(self):
        slot = SlotKey(0, "q")
        table = {("t0", slot): lora(4, 2, 6, 0), ("t1", slot): lora(4, 3, 6, 1)}
        with pytest.raises(ValidationError, match="layer.0.q"):
            AdapterCollection.build(["t0", "t1"], table)

    def test_mixed_kinds_rejected(self):
        slot = SlotKey(0, "q")
        vera = VeraAdapter(
            lambda_b=np.ones(4),
            lambda_d=np.ones(2),
            shared_b=np.ones((4, 2)),
            shared_a=np.ones((2, 6)),
        )
        table = {("t0", slot): lora(4, 2, 6, 0), ("t1", slot): vera}
        with pytest.raises(ValidationError, match="mixes"):
            AdapterCollection.build(["t0", "t1"], table)

    def test_param_count_matches_closed_form(self):
        d, r, k = 8, 2, 6
        slots = [SlotKey(0, "q"), SlotKey(1, "v")]
        table = {
            (t, s): lora(d, r, k, seed=i)
            for i, (t, s) in enumerate((t, s) for t in ["t0", "t1", "t2"] for s in slots)
        }
        coll = AdapterCollection.build(["t0", "t1", "t2"], table)
        assert coll.param_count() == len(slots) * 3 * r * (d + k)

    def test_vera_param_counts_match_closed_forms(self):
        # the frozen pair is stored once per slot in every layout
        d, r, k, num_tasks, m = 7, 2, 5, 3, 2
        shared_b, shared_a = np.ones((d, r)), np.ones((r, k))
        slot = SlotKey(0, "q")
        ids = [f"t{i}" for i in range(num_tasks)]
        table = {
            (task, slot): VeraAdapter(np.ones(d), np.ones(r), shared_b, shared_a) for task in ids
        }
        coll = AdapterCollection.build(ids, table)
        assert coll.param_count() == num_tasks * (d + r) + d * r + r * k
        assert MergedAdapterSlot(table[("t0", slot)]).param_count == d + r + d * r + r * k
        entry = SharedVeraSlot(
            lambda_d=np.ones(r),
            lambda_b_clusters=[np.ones(d) for _ in range(m)],
            shared_b=shared_b,
            shared_a=shared_a,
            assignment=[0, 1, 0],
        )
        assert entry.param_count == m * d + r + d * r + r * k


class TestMergedBundle:
    def test_assignment_bounds_checked(self):
        with pytest.raises(ValidationError):
            SharedLoraSlot(
                a_shared=np.ones((2, 3)), b_clusters=[np.ones((4, 2))], assignment=[0, 1]
            )

    def test_shared_slot_needs_a_cluster(self):
        # the archive would hold no cluster tensor to read such a slot back from
        with pytest.raises(ValidationError, match="clusters is empty"):
            SharedLoraSlot(a_shared=np.ones((2, 3)), b_clusters=[], assignment=[])

    @pytest.mark.parametrize("index", [2, -1])
    def test_vera_assignment_bounds_checked(self, index):
        with pytest.raises(ValidationError, match=rf"index {index} out of range \[0, 2\)"):
            SharedVeraSlot(
                lambda_d=np.ones(2),
                lambda_b_clusters=[np.ones(3), np.ones(3)],
                shared_b=np.ones((3, 2)),
                shared_a=np.ones((2, 4)),
                assignment=[0, index],
            )

    def test_param_count_shared_layout(self):
        d, r, k, m = 6, 2, 5, 3
        entry = SharedLoraSlot(
            a_shared=np.ones((r, k)),
            b_clusters=[np.ones((d, r)) for _ in range(m)],
            assignment=[0, 1, 2, 0, 1],
        )
        assert entry.param_count == m * r * d + r * k

    def test_predictions_follow_assignment(self):
        slot = SlotKey(0, "q")
        b0, b1 = np.ones((2, 1)), 2.0 * np.ones((2, 1))
        entry = SharedLoraSlot(a_shared=np.ones((1, 2)), b_clusters=[b0, b1], assignment=[1, 0])
        bundle = MergedBundle(
            method="test", kind="lora", tasks=["t0", "t1"], slots=[slot], entries={slot: entry}
        )
        assert np.array_equal(bundle.prediction("t0", slot), b1 @ np.ones((1, 2)))
        assert np.array_equal(bundle.prediction("t1", slot), b0 @ np.ones((1, 2)))

    def test_single_adapter_slot_prediction_is_task_independent(self):
        slot = SlotKey(0, "q")
        entry = MergedAdapterSlot(lora(3, 1, 3, seed=5))
        bundle = MergedBundle(
            method="ta", kind="lora", tasks=["t0", "t1"], slots=[slot], entries={slot: entry}
        )
        assert np.array_equal(bundle.prediction("t0", slot), bundle.prediction("t1", slot))


class TestBundleValidate:
    def bundle(self, **changes):
        """A valid two-task hydraopt bundle over one slot, with ``changes``."""
        slot = SlotKey(0, "q")
        entry = SharedLoraSlot(
            a_shared=np.ones((2, 5)), b_clusters=[np.ones((4, 2))], assignment=[0, 0]
        )
        fields = dict(method="hydraopt", kind="lora", tasks=["t0", "t1"], slots=[slot])
        return MergedBundle(**{**fields, "entries": {slot: entry}, **changes})

    def test_valid_bundle(self):
        self.bundle().validate()

    def test_unknown_kind_is_named(self):
        with pytest.raises(ValidationError, match=r"^unknown bundle kind 'dora'$"):
            self.bundle(kind="dora").validate()

    def test_slots_and_entries_must_agree(self):
        bundle = self.bundle(slots=[SlotKey(0, "q"), SlotKey(0, "v")])
        with pytest.raises(ValidationError, match=r"^bundle slots and entries disagree$"):
            bundle.validate()

    def test_assignment_of_another_length_names_the_slot(self):
        bundle = self.bundle(tasks=["t0", "t1", "t2"])
        named = r"^slot layer\.0\.q assigns 2 tasks, expected 3$"
        with pytest.raises(ValidationError, match=named):
            bundle.validate()
