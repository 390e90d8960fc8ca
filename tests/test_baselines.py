import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydramerge.adapters import AdapterCollection, LowRankAdapter, MergedAdapterSlot, SharedLoraSlot, SlotKey
from hydramerge.baselines import (
    BaselineConfig,
    MergeMethod,
    MergeTarget,
    dare_transform,
    merge_collection,
    merge_dare,
    merge_dare_ties,
    merge_ta,
    ties_merge,
    ties_trim,
)
from hydramerge import baselines
from hydramerge.errors import NumericalError, ParameterError, ShapeError
from hydramerge.linalg import Rng, gaussian_sample


def row(values):
    return np.asarray([values], dtype=np.float64)


def lora_collection(tasks=5, d=8, r=2, k=8, seed=0, slots=None):
    slots = slots or [SlotKey(0, "q"), SlotKey(0, "v")]
    rng = Rng(seed)
    ids = [f"t{i}" for i in range(tasks)]
    table = {}
    for slot in slots:
        for task in ids:
            table[(task, slot)] = LowRankAdapter(
                b=gaussian_sample(rng, d, r, 0.0, 1.0),
                a=gaussian_sample(rng, r, k, 0.0, 1.0),
            )
    return AdapterCollection.build(ids, table)


class TestMergeTa:
    def test_single_input_unchanged(self):
        x = row([1.0, 2.0, 3.0])
        assert np.array_equal(merge_ta([x]), x)

    def test_hand_mean(self):
        assert np.array_equal(merge_ta([row([1.0, 3.0]), row([3.0, 5.0])]), row([2.0, 4.0]))

    @given(seed=st.integers(0, 2**32), copies=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_idempotent_on_copies(self, seed, copies):
        x = gaussian_sample(Rng(seed), 3, 4, 0.1, 2.0)
        assert np.array_equal(merge_ta([x.copy() for _ in range(copies)]), x)

    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariant(self, seed):
        rng = Rng(seed)
        mats = [gaussian_sample(rng, 2, 2, 0.0, 1.0) for _ in range(4)]
        assert np.array_equal(merge_ta(mats), merge_ta(mats[::-1]))

    def test_scale_knob(self):
        out = merge_ta([row([2.0, 4.0])], scale=0.5)
        assert np.array_equal(out, row([1.0, 2.0]))

    def test_overflowing_scale_is_a_numerical_error_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="scale 1e\\+308 overflows"):
                merge_ta([row([2.0, 4.0]), row([4.0, 6.0])], scale=1e308)


class TestTiesTrim:
    def test_density_one_keeps_all(self):
        x = row([1.0, -2.0, 0.1])
        assert np.array_equal(ties_trim(x, 1.0), x)

    def test_hand_trim(self):
        assert np.array_equal(ties_trim(row([1.0, -2.0, 0.1]), 2.0 / 3.0), row([1.0, -2.0, 0.0]))

    def test_zeros_fixed_point(self):
        assert np.array_equal(ties_trim(np.zeros((2, 3)), 0.5), np.zeros((2, 3)))

    def test_tie_break_keeps_lower_flat_index(self):
        out = ties_trim(row([1.0, 1.0, 1.0]), 1.0 / 3.0)
        assert np.array_equal(out, row([1.0, 0.0, 0.0]))

    def test_density_out_of_range(self):
        with pytest.raises(ParameterError):
            ties_trim(row([1.0]), 0.0)

    @given(seed=st.integers(0, 2**32), density=st.floats(0.05, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_never_increases_magnitude_and_support_size(self, seed, density):
        x = gaussian_sample(Rng(seed), 3, 5, 0.0, 1.0)
        out = ties_trim(x, density)
        assert np.all(np.abs(out) <= np.abs(x))
        expected_support = int(np.ceil(density * x.size))
        assert np.count_nonzero(out) == expected_support


class TestTiesMerge:
    def test_spec_hand_example(self):
        out = ties_merge([row([1.0, -2.0, 0.1]), row([0.5, 2.0, 0.2])], density=2.0 / 3.0)
        assert np.array_equal(out, row([0.75, 0.0, 0.0]))

    def test_single_task_full_density_identity(self):
        x = row([1.0, -2.0, 0.5])
        assert np.array_equal(ties_merge([x], density=1.0), x)

    def test_perfect_conflict_cancels(self):
        x = gaussian_sample(Rng(3), 2, 4, 0.0, 1.0)
        assert np.array_equal(ties_merge([x, -x], density=1.0), np.zeros_like(x))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ties_merge([np.ones((1, 2)), np.ones((2, 1))], density=1.0)

    @given(seed=st.integers(0, 2**32), density=st.floats(0.1, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_output_within_aligned_bounds(self, seed, density):
        rng = Rng(seed)
        mats = [gaussian_sample(rng, 2, 4, 0.0, 1.0) for _ in range(4)]
        out = ties_merge(mats, density)
        trimmed = np.stack([ties_trim(m, density) for m in mats])
        elected = np.sign(trimmed.sum(axis=0))
        aligned = (np.sign(trimmed) == elected) & (elected != 0)
        for idx in np.ndindex(out.shape):
            vals = trimmed[(slice(None),) + idx][aligned[(slice(None),) + idx]]
            if vals.size == 0:
                assert out[idx] == 0.0
            else:
                assert vals.min() - 1e-12 <= out[idx] <= vals.max() + 1e-12


def unblocked_ties(trimmed: np.ndarray) -> np.ndarray:
    """The TIES reduction over a whole ``(K, ...)`` stack at once."""
    elected = np.sign(trimmed.sum(axis=0))
    aligned = (np.sign(trimmed) == elected) & (elected != 0)
    counts = aligned.sum(axis=0)
    total = (trimmed * aligned).sum(axis=0)
    return np.divide(total, counts, out=np.zeros_like(trimmed[0]), where=counts > 0)


def spread_mats(seed: int, tasks: int, shape=(3, 7)):
    """Normals scaled over 2^-30..2^30, so the order of a sum shows in its
    rounding, and with signs that conflict across tasks."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape) * 2.0 ** rng.integers(-30, 31, shape) for _ in range(tasks)]


class TestTiesBlocks:
    """The TIES reduction runs one column block at a time; with
    ``_BLOCK_ENTRIES`` patched small, a few entries span many blocks, down
    to one column each, where numpy's own axis-0 sum would change order."""

    @given(
        seed=st.integers(0, 2**32 - 1), tasks=st.sampled_from([1, 2, 3, 8, 9, 17]),
        columns=st.integers(1, 8), density=st.sampled_from([0.3, 0.7, 1.0]),
    )  # fmt: skip
    @settings(max_examples=80, deadline=None)
    def test_ties_merge_is_the_unblocked_formula_bit_for_bit(self, seed, tasks, columns, density):
        mats = spread_mats(seed, tasks)
        want = unblocked_ties(np.stack([ties_trim(m, density) for m in mats]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(baselines, "_BLOCK_ENTRIES", 3 * tasks * columns)
            got = ties_merge(mats, density)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @given(
        seed=st.integers(0, 2**32 - 1), tasks=st.sampled_from([2, 3, 9]),
        columns=st.integers(1, 8), p=st.sampled_from([0.0, 0.5, 0.9]),
    )  # fmt: skip
    @settings(max_examples=60, deadline=None)
    def test_merge_dare_ties_is_the_unblocked_formula_bit_for_bit(self, seed, tasks, columns, p):
        mats = spread_mats(seed, tasks)
        rng = Rng(seed)
        transformed = [dare_transform(m, p, rng) for m in mats]
        want = unblocked_ties(np.stack([ties_trim(m, 0.5) for m in transformed]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(baselines, "_BLOCK_ENTRIES", 3 * tasks * columns)
            got = merge_dare_ties(mats, p, 0.5, Rng(seed))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_blocks_are_the_row_blocks_of_the_stack(self, monkeypatch):
        # 3 stacks of K = 4 rows at 2 columns per block: 21 entries in 11 blocks
        monkeypatch.setattr(baselines, "_BLOCK_ENTRIES", 3 * 4 * 2)
        widths = []
        sum_rows = baselines._sum_rows

        def counting(rows):
            widths.append(rows.shape[1])
            return sum_rows(rows)

        monkeypatch.setattr(baselines, "_sum_rows", counting)
        ties_merge(spread_mats(0, 4), 1.0)
        assert widths[::2] == [2] * 10 + [1]

    def test_empty_sequence(self):
        with pytest.raises(ParameterError):
            ties_merge([], 0.5)


class TestDare:
    def test_p_zero_identity_bitwise(self):
        x = gaussian_sample(Rng(11), 3, 3, 0.0, 2.0)
        out = dare_transform(x, 0.0, Rng(0))
        assert np.array_equal(out, x)

    def test_hand_mask_keep_drop(self):
        # find a seed whose first two uniforms give the (keep, drop) pattern
        seed = next(
            s for s in range(1000) if (lambda u: u[0] >= 0.5 and u[1] < 0.5)(Rng(s).uniforms(2))
        )
        out = dare_transform(row([2.0, 4.0]), 0.5, Rng(seed))
        assert np.array_equal(out, row([4.0, 0.0]))

    def test_deterministic_given_seed(self):
        x = gaussian_sample(Rng(1), 4, 4, 0.0, 1.0)
        a = dare_transform(x, 0.9, Rng(7))
        b = dare_transform(x, 0.9, Rng(7))
        assert np.array_equal(a, b)

    def test_unbiased_over_seeds(self):
        x = row([1.0, 2.0, 3.0, 4.0])
        acc = np.zeros_like(x)
        for s in range(10_000):
            acc += dare_transform(x, 0.2, Rng(s))
        mean = acc / 10_000
        assert np.all(np.abs(mean - x) <= 0.02 * np.abs(x))

    def test_p_out_of_range(self):
        with pytest.raises(ParameterError):
            dare_transform(row([1.0]), 1.0, Rng(0))


class TestCompositions:
    def test_dare_p_zero_equals_ta_bitwise(self):
        rng = Rng(5)
        mats = [gaussian_sample(rng, 3, 4, 0.0, 1.0) for _ in range(5)]
        assert np.array_equal(merge_dare(mats, 0.0, Rng(9)), merge_ta(mats))

    def test_dare_ties_degenerate_passthrough(self):
        # p=0, density=1, all signs agree entrywise: equals plain averaging
        base = np.abs(gaussian_sample(Rng(2), 2, 3, 0.0, 1.0)) + 0.1
        mats = [base * (i + 1) for i in range(3)]
        out = merge_dare_ties(mats, 0.0, 1.0, Rng(0))
        assert np.allclose(out, merge_ta(mats), atol=0)

    def test_fixed_seed_reproducible(self):
        rng1, rng2 = Rng(123), Rng(123)
        mats = [gaussian_sample(Rng(i), 2, 2, 0.0, 1.0) for i in range(4)]
        a = merge_dare_ties(mats, 0.9, 0.5, rng1)
        b = merge_dare_ties(mats, 0.9, 0.5, rng2)
        assert np.array_equal(a, b)


class TestMergeCollection:
    def test_per_matrix_storage_is_one_adapter_per_slot(self):
        coll = lora_collection(tasks=5, d=8, r=2, k=8)
        cfg = BaselineConfig(method=MergeMethod.TA)
        bundle = merge_collection(coll, cfg)
        assert bundle.param_count * 5 == coll.param_count()
        assert all(isinstance(e, MergedAdapterSlot) for e in bundle.entries.values())

    def test_single_task_identity_modulo_method(self):
        coll = lora_collection(tasks=1)
        for method in MergeMethod:
            cfg = BaselineConfig(method=method, ties_density=1.0, dare_drop_p=0.0)
            bundle = merge_collection(coll, cfg)
            for slot in coll.slots:
                original = coll.adapter("t0", slot)
                merged = bundle.entries[slot].adapter
                assert np.array_equal(merged.a, original.a)
                assert np.array_equal(merged.b, original.b)

    def test_a_only_keeps_every_output_factor(self):
        k_tasks, d = 5, 8
        coll = lora_collection(tasks=k_tasks, d=d, r=2, k=d)
        cfg = BaselineConfig(method=MergeMethod.TA, merge_target=MergeTarget.A_ONLY)
        bundle = merge_collection(coll, cfg)
        entry = bundle.entries[coll.slots[0]]
        assert isinstance(entry, SharedLoraSlot)
        assert len(entry.b_clusters) == k_tasks
        assert entry.assignment == list(range(k_tasks))
        # storage ratio (K*d + k) / (K*(d+k)) with d == k: 60% at K=5
        assert bundle.param_count / coll.param_count() == pytest.approx(0.6)

    def test_deterministic_across_calls(self):
        coll = lora_collection(tasks=4)
        cfg = BaselineConfig(method=MergeMethod.DARE_TIES, seed=3)
        one = merge_collection(coll, cfg)
        two = merge_collection(coll, cfg)
        for slot in coll.slots:
            assert np.array_equal(
                one.entries[slot].adapter.a, two.entries[slot].adapter.a
            )

    @pytest.mark.parametrize("method", [MergeMethod.TA, MergeMethod.DARE])
    @pytest.mark.parametrize("side", ["shared", "cluster"])
    def test_overflowing_scale_names_the_slot_and_side(self, method, side):
        # entries of 4 on one side, 1e-3 on the other: only the 4s overflow
        big, small = np.full((2, 8), 4.0), np.full((2, 8), 1e-3)
        a, b = (big, small.T) if side == "shared" else (small, big.T)
        slot = SlotKey(0, "q")
        coll = AdapterCollection.build(
            ["t0", "t1"], {(t, slot): LowRankAdapter(b=b, a=a) for t in ("t0", "t1")}
        )
        cfg = BaselineConfig(method=method, dare_drop_p=0.5, scale=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as info:
                merge_collection(coll, cfg)
        assert str(info.value).startswith(f"slot layer.0.q: {side} side: scale 1e+308 overflows")

    def test_task_order_is_respected_for_streams(self):
        coll = lora_collection(tasks=3, seed=1)
        cfg = BaselineConfig(method=MergeMethod.DARE, seed=5)
        bundle = merge_collection(coll, cfg)
        slot = coll.slots[0]
        rng = Rng(cfg.seed ^ __import__("hydramerge.linalg", fromlist=["stable_hash64"]).stable_hash64(slot.label()))
        expected_a = merge_dare([coll.adapter(t, slot).a for t in coll.task_ids], 0.9, rng)
        assert np.array_equal(bundle.entries[slot].adapter.a, expected_a)


class TestConfigEnums:
    """Both enum fields take a member or its value, and store the member:
    the merge compares members by identity."""

    @pytest.mark.parametrize("member", list(MergeMethod))
    def test_strings_merge_like_the_members(self, tmp_path, member):
        from hydramerge.archive import write_archive

        coll = lora_collection(tasks=3)
        bundles = []
        for method, target in [(member, MergeTarget.PER_MATRIX), (member.value, "per-matrix")]:
            cfg = BaselineConfig(method=method, merge_target=target, seed=2)
            assert cfg.method is member
            assert cfg.merge_target is MergeTarget.PER_MATRIX
            bundle = merge_collection(coll, cfg)
            assert all(isinstance(e, MergedAdapterSlot) for e in bundle.entries.values())
            path = tmp_path / f"{len(bundles)}.lrta"
            write_archive(bundle, path)
            bundles.append(path.read_bytes())
        assert bundles[0] == bundles[1]

    def test_a_only_string_keeps_every_output_factor(self):
        cfg = BaselineConfig(method="ta", merge_target="a-only")
        assert cfg.merge_target is MergeTarget.A_ONLY
        bundle = merge_collection(lora_collection(tasks=3), cfg)
        assert all(isinstance(e, SharedLoraSlot) for e in bundle.entries.values())

    @pytest.mark.parametrize(
        "field, enum", [("method", MergeMethod), ("merge_target", MergeTarget)]
    )
    def test_unknown_value_names_the_field_and_choices(self, field, enum):
        choices = ", ".join(member.value for member in enum)
        kwargs = {"method": MergeMethod.TA, field: "bogus"}
        message = rf"^{field} must be one of {choices}, got 'bogus'$"
        with pytest.raises(ParameterError, match=message):
            BaselineConfig(**kwargs)
