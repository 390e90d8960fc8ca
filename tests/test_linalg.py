import hashlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hydramerge import linalg
from hydramerge.errors import DegenerateInputError, NumericalError, ParameterError, ShapeError
from hydramerge.linalg import (
    SMOOTH_DISTANCES,
    DistanceKind,
    Rng,
    distance,
    distance_and_grad,
    distance_grad,
    exact_mean,
    finite_diff,
    gaussian_sample,
    mae_and_fro,
    mae_and_fro_of_sums,
    matmul,
    residual_blocks,
    residual_sums,
    row_blocks,
    smooth_terms,
    softmax_rows,
    stable_hash64,
)

KINDS = list(DistanceKind)


def _fraction_mean(tensors):
    # The per-entry rational reference: one Fraction sum per entry, a single
    # rounding at the end.
    stack = [np.asarray(t, dtype=np.float64) for t in tensors]
    first = stack[0]
    if len(stack) == 1 or all(np.array_equal(t, first) for t in stack[1:]):
        return first.copy()
    k = len(stack)
    flats = [t.ravel() for t in stack]
    out = np.empty(first.size, dtype=np.float64)
    for i in range(first.size):
        out[i] = float(sum(Fraction(f[i].item()) for f in flats) / k)
    return out.reshape(first.shape)


def _assert_bitwise_mean(rows):
    # The int64 view tells -0.0 from 0.0, which np.array_equal does not.
    rows = [np.asarray(r, dtype=np.float64) for r in rows]
    got = exact_mean(rows)
    want = _fraction_mean(rows)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _from_bits(bits):
    return np.asarray(bits, dtype=np.int64).view(np.float64)


def _splitmix64_reference(state: int) -> int:
    # Independent pure-int reimplementation of the pinned stream element.
    z = state & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


class TestMatmul:
    def test_identity(self):
        x = [[1.0, 2.0], [3.0, 4.0]]
        assert np.array_equal(matmul(np.eye(2), x), np.array(x))

    def test_scalar(self):
        assert matmul([[2.0]], [[3.0]]) == np.array([[6.0]])

    def test_rectangular_hand_product(self):
        left = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        right = [[1.0, 2.0], [3.0, 4.0]]
        expected = [[1.0, 2.0], [3.0, 4.0], [4.0, 6.0]]
        assert np.array_equal(matmul(left, right), np.array(expected))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            matmul(np.ones((2, 3)), np.ones((2, 2)))
        assert "(2, 3)" in str(err.value) and "(2, 2)" in str(err.value)

    def test_overflowing_product_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="^matrix product overflowed to non-finite values$"):
            matmul([[1e200]], [[1e200]])

    def test_one_dimensional_operand_names_its_shape(self):
        with pytest.raises(ShapeError, match=r"^matrix must be 2-D, got shape \(2,\)$"):
            linalg.as_matrix([1.0, 2.0])

    def test_repeat_calls_bit_identical(self):
        rng = Rng(7)
        x = gaussian_sample(rng, 5, 4, 0.0, 1.0)
        y = gaussian_sample(rng, 4, 6, 0.0, 1.0)
        assert np.array_equal(matmul(x, y), matmul(x, y))


class TestSoftmaxRows:
    def test_symmetric_pair(self):
        out = softmax_rows([[0.0, 0.0]], temperature=1.0)
        assert np.array_equal(out, np.array([[0.5, 0.5]]))

    def test_equal_logits_independent_of_temperature(self):
        out = softmax_rows([[1.0, 1.0, 1.0]], temperature=0.01)
        assert np.allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_scalar_oracle(self):
        # exp(10)/(exp(10)+1) computed independently of the implementation
        expected = math.exp(10.0) / (math.exp(10.0) + 1.0)
        out = softmax_rows([[1.0, 0.0]], temperature=0.1)
        assert out[0, 0] == pytest.approx(expected, rel=1e-12)
        assert out[0, 1] == pytest.approx(1.0 - expected, rel=1e-9)

    def test_near_one_hot_at_small_temperature(self):
        out = softmax_rows([[3.0, 2.0, 1.0]], temperature=1e-3)
        assert out[0, 0] > 1.0 - 1e-9

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ParameterError):
            softmax_rows([[1.0, 2.0]], temperature=0.0)
        with pytest.raises(ParameterError):
            softmax_rows([[1.0, 2.0]], temperature=-1.0)

    @given(
        rows=st.integers(1, 4),
        cols=st.integers(1, 5),
        temp=st.floats(1e-4, 1e4),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, rows, cols, temp, seed):
        logits = gaussian_sample(Rng(seed), rows, cols, 0.0, 100.0)
        out = softmax_rows(logits, temperature=temp)
        assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-12)

    def test_extreme_magnitudes_still_sum_to_one(self):
        logits = np.array([[1e308, -1e308, 0.0], [-1e300, -1e300, -1e300]])
        for temp in (1e-4, 1.0, 1e4):
            out = softmax_rows(logits, temperature=temp)
            assert np.all(np.isfinite(out))
            assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-12)

    @given(
        shift=st.floats(-50.0, 50.0),
        temp=st.floats(0.5, 10.0),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_shift_invariance(self, shift, temp, seed):
        logits = gaussian_sample(Rng(seed), 3, 4, 0.0, 5.0)
        shifted = logits.copy()
        shifted[1] += shift
        base = softmax_rows(logits, temperature=temp)
        moved = softmax_rows(shifted, temperature=temp)
        assert np.all(np.abs(base - moved) <= 1e-12)


class TestDistance:
    def test_identity_is_zero(self):
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        for kind in (DistanceKind.MAE, DistanceKind.MSE, DistanceKind.FRO):
            assert distance(x, x, kind) == 0.0

    def test_mae_hand_oracle(self):
        assert distance([[1.0, 2.0], [3.0, 4.0]], np.zeros((2, 2)), DistanceKind.MAE) == 2.5

    def test_fro_scalar(self):
        assert distance([[3.0]], [[0.0]], DistanceKind.FRO) == 3.0

    def test_mse_hand_oracle(self):
        assert distance([[1.0, 3.0]], [[0.0, 1.0]], DistanceKind.MSE) == 2.5

    def test_cos_orthogonal(self):
        assert distance([[1.0, 0.0]], [[0.0, 1.0]], DistanceKind.COS) == pytest.approx(1.0)

    def test_cos_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            distance([[1.0]], [[0.0]], DistanceKind.COS)
        with pytest.raises(DegenerateInputError):
            distance([[0.0]], [[1.0]], DistanceKind.COS)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            distance(np.ones((2, 2)), np.ones((2, 3)), DistanceKind.MAE)

    @given(seed=st.integers(0, 2**32), kind=st.sampled_from(KINDS))
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, seed, kind):
        rng = Rng(seed)
        x = gaussian_sample(rng, 3, 4, 0.0, 1.0) + 0.1
        y = gaussian_sample(rng, 3, 4, 0.5, 1.0) + 0.1
        assert distance(x, y, kind) == distance(y, x, kind)


class TestDistanceGrad:
    def test_mae_fixed_point_is_exact_zero(self):
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        grad = distance_grad(x, x, DistanceKind.MAE)
        assert np.array_equal(grad, np.zeros((2, 2)))

    def test_mae_scalar_sign(self):
        assert distance_grad([[6.0]], [[1.0]], DistanceKind.MAE) == np.array([[-1.0]])

    def test_fro_at_identity_is_zero(self):
        x = np.array([[1.0, 2.0]])
        assert np.array_equal(distance_grad(x, x, DistanceKind.FRO), np.zeros((1, 2)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_finite_difference(self, kind):
        rng = Rng(hash(kind.value) & 0xFFFF)
        for trial in range(5):
            x = gaussian_sample(rng, 3, 4, 0.0, 1.0)
            y = gaussian_sample(rng, 3, 4, 0.0, 1.0)
            # keep away from the MAE kink / FRO root
            y = np.where(np.abs(x - y) > 1e-3, y, y + 0.5)
            analytic = distance_grad(x, y, kind)
            numeric = finite_diff(lambda t: distance(x, t, kind), y, h=1e-5)
            scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)))
            assert np.max(np.abs(analytic - numeric)) <= 1e-6 * scale


    @pytest.mark.parametrize("kind", KINDS)
    def test_distance_and_grad_value_is_distance(self, kind):
        rng = Rng(11)
        x = gaussian_sample(rng, 3, 4, 0.0, 1.0)
        y = gaussian_sample(rng, 3, 4, 0.0, 1.0)
        value, grad = distance_and_grad(x, y, kind.value)
        assert value == distance(x, y, kind)
        assert np.array_equal(grad, distance_grad(x, y, kind))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError, match="distance_grad"):
            distance_grad(np.ones((1, 4)), np.ones((3, 4)), DistanceKind.MAE)


class TestSmoothTerms:
    @pytest.mark.parametrize("kind", sorted(SMOOTH_DISTANCES))
    def test_matches_dense_distance_and_gradient(self, kind):
        rng = Rng(7)
        for _ in range(20):
            x = gaussian_sample(rng, 3, 4, 0.0, 1.0)
            y = gaussian_sample(rng, 3, 4, 0.0, 1.0)
            value, alpha, beta = smooth_terms(
                [np.vdot(x, x)], [np.vdot(x, y)], [np.vdot(y, y)], x.size, kind
            )
            assert value[0] == pytest.approx(distance(x, y, kind), rel=1e-12, abs=0.0)
            np.testing.assert_allclose(
                alpha[0] * x + beta[0] * y, distance_grad(x, y, kind), rtol=1e-11, atol=1e-15
            )

    @pytest.mark.parametrize("kind", sorted(SMOOTH_DISTANCES))
    def test_equal_traces_are_an_exact_fit(self, kind):
        value, alpha, beta = smooth_terms([2.7], [2.7], [2.7], 12, kind)
        assert value[0] == 0.0
        assert alpha[0] == -beta[0]

    def test_negative_rounded_residual_clamps_to_zero(self):
        # tt - 2 tp + pp rounds below zero here; the squared norm is clamped
        tt, tp, pp = 1.0, 1.0 + 2.0**-52, 1.0
        for kind in (DistanceKind.MSE, DistanceKind.FRO):
            value, alpha, beta = smooth_terms([tt], [tp], [pp], 4, kind)
            assert value[0] == 0.0
        assert alpha[0] == 0.0 and beta[0] == 0.0

    def test_cos_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            smooth_terms([0.0], [0.0], [1.0], 4, DistanceKind.COS)
        with pytest.raises(DegenerateInputError):
            smooth_terms([1.0], [0.0], [0.0], 4, DistanceKind.COS)

    def test_non_finite_trace_rejected(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(NumericalError):
                smooth_terms([1.0], [bad], [1.0], 4, DistanceKind.MSE)

    def test_mae_has_no_smooth_terms(self):
        with pytest.raises(ParameterError):
            smooth_terms([1.0], [0.5], [1.0], 4, DistanceKind.MAE)


class TestMaeAndFro:
    def test_bit_identical_to_distance(self):
        rng = Rng(3)
        for _ in range(10):
            x = gaussian_sample(rng, 5, 7, 0.0, 1.0)
            y = gaussian_sample(rng, 5, 7, 0.0, 1.0)
            assert mae_and_fro(x, y) == (
                distance(x, y, DistanceKind.MAE),
                distance(x, y, DistanceKind.FRO),
            )


class TestResidualSums:
    def test_block_sums_in_order_match_the_whole(self):
        rng = Rng(4)
        x, y = gaussian_sample(rng, 7, 6, 0.0, 1.0), gaussian_sample(rng, 7, 6, 0.0, 1.0)
        _, blocks = row_blocks(7, 6, 18)
        residual = x - y
        sums = [residual_sums(residual[block].copy()) for block in blocks]
        got = mae_and_fro_of_sums(sum(s for s, _ in sums), sum(q for _, q in sums), x.size)
        assert got == pytest.approx(mae_and_fro(x, y), rel=1e-14, abs=0.0)

    def test_overflow_gives_inf_not_an_error(self):
        with np.errstate(over="ignore"):
            sums = residual_sums(np.full((2, 2), 1e300))
        assert sums[0] == 4e300 and sums[1] == math.inf
        assert mae_and_fro_of_sums(*sums, 4) == (1e300, math.inf)


class TestRowBlocks:
    @pytest.mark.parametrize(
        "d, k, budget, rows",
        [(7, 6, 18, 3), (7, 6, 2**17, 7), (5, 6, 1, 1), (1024, 1024, 2**17, 128), (3, 10, 29, 2)],
    )
    def test_blocks_tile_the_rows(self, d, k, budget, rows):
        got_rows, blocks = row_blocks(d, k, budget)
        assert got_rows == rows
        assert [b.start for b in blocks] == list(range(0, d, rows))
        assert [b.stop for b in blocks] == [min(s + rows, d) for s in range(0, d, rows)]

    def test_default_budget(self):
        assert linalg.ROW_BLOCK_ENTRIES == 2**17


class TestResidualBlocks:
    """``residual_blocks`` builds ``L_t R_t - L_p R_p`` block by block, with
    one product per block when the right factors are one."""

    @staticmethod
    def factors(one_right, seed=6, d=7, r=3, k=6):
        rng = Rng(seed)
        left_t, left_p = (gaussian_sample(rng, d, r, 0.0, 1.0) for _ in range(2))
        right_p = gaussian_sample(rng, r, k, 0.0, 1.0)
        right_t = right_p.copy() if one_right else gaussian_sample(rng, r, k, 0.0, 1.0)
        return (left_t, right_t), (left_p, right_p)

    @staticmethod
    def blocks_of(target, prediction, one_right, budget=18):
        d, k = len(target[0]), target[1].shape[1]
        rows, blocks = row_blocks(d, k, budget)
        buffers = np.empty((rows, k)), np.empty((rows, k))
        out = residual_blocks(target, prediction, one_right, blocks, buffers)
        return blocks, buffers, [(span, block.copy(), block) for span, block in out]

    @pytest.mark.parametrize("budget", [18, 2**17, 1])
    @pytest.mark.parametrize("one_right", [False, True])
    def test_blocks_concatenate_to_the_residual(self, one_right, budget):
        target, prediction = self.factors(one_right)
        blocks, buffers, got = self.blocks_of(target, prediction, one_right, budget)
        assert [span for span, _, _ in got] == blocks
        assert all(np.shares_memory(view, buffers[0]) for _, _, view in got)
        whole = np.concatenate([block for _, block, _ in got])
        want = target[0] @ target[1] - prediction[0] @ prediction[1]
        np.testing.assert_allclose(whole, want, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("one_right", [False, True])
    def test_equal_factors_give_exact_zeros(self, one_right):
        (left, right), _ = self.factors(one_right, seed=9, d=11, r=4, k=5)
        # the prediction's factors in the other memory order: the same values
        prediction = np.asfortranarray(left), np.asfortranarray(right)
        _, _, got = self.blocks_of((left, right), prediction, one_right, budget=10)
        assert sum(len(block) for _, block, _ in got) == 11
        assert all(not block.any() for _, block, _ in got)


class TestGaussianSample:
    def test_zero_stdev_constant(self):
        out = gaussian_sample(Rng(0), 2, 2, 3.0, 0.0)
        assert np.array_equal(out, np.full((2, 2), 3.0))

    def test_same_seed_bit_identical(self):
        a = gaussian_sample(Rng(123), 7, 3, 0.0, 1.0)
        b = gaussian_sample(Rng(123), 7, 3, 0.0, 1.0)
        assert np.array_equal(a, b)

    def test_sample_statistics(self):
        out = gaussian_sample(Rng(42), 1000, 100, 0.0, 1.0)
        assert abs(out.mean()) < 0.02
        assert abs(out.std() - 1.0) < 0.02

    def test_negative_stdev_rejected(self):
        with pytest.raises(ParameterError):
            gaussian_sample(Rng(0), 2, 2, 0.0, -1.0)

    def test_no_rows_rejected(self):
        with pytest.raises(ShapeError, match="^matrix dimensions must be positive, got 0x3$"):
            gaussian_sample(Rng(0), 0, 3, 0.0, 1.0)


class TestFiniteDiff:
    def test_linear_function_gives_ones(self):
        grad = finite_diff(lambda t: float(np.sum(t)), np.zeros((2, 3)), h=0.1)
        assert np.allclose(grad, 1.0, atol=1e-10)

    def test_quadratic_norm(self):
        theta = np.array([[1.0, -2.0], [0.5, 3.0]])
        grad = finite_diff(lambda t: 0.5 * float(np.sum(t**2)), theta, h=1e-5)
        assert np.allclose(grad, theta, atol=1e-9)

    def test_agrees_with_mse_gradient(self):
        rng = Rng(9)
        x = gaussian_sample(rng, 2, 3, 0.0, 1.0)
        y = gaussian_sample(rng, 2, 3, 2.0, 1.0)
        numeric = finite_diff(lambda t: distance(x, t, DistanceKind.MSE), y, h=1e-5)
        analytic = distance_grad(x, y, DistanceKind.MSE)
        assert np.max(np.abs(numeric - analytic)) <= 1e-6 * np.max(np.abs(analytic))

    def test_zero_step_rejected(self):
        with pytest.raises(ParameterError, match="^step h must be > 0, got 0$"):
            finite_diff(lambda t: float(np.sum(t)), np.zeros((1, 1)), h=0)


class TestRng:
    def test_no_normals_draw_nothing(self):
        rng = Rng(0)
        out = rng.normals(0)
        assert out.shape == (0,)
        assert rng.counter == 0

    def test_raw_stream_matches_published_vector(self):
        # splitmix64 seeded at 0: first outputs are fixed by the algorithm
        assert list(Rng(0)._raw(3)) == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_raw_stream_matches_independent_reference(self):
        seed = 0xDEADBEEF
        got = [int(v) for v in Rng(seed)._raw(8)]
        conditioned = _splitmix64_reference(seed)
        expected = [
            _splitmix64_reference(
                (conditioned + (i + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            )
            for i in range(8)
        ]
        assert got == expected

    def test_counter_advances_consistently(self):
        rng = Rng(5)
        first = rng.uniforms(4)
        fresh = Rng(5)
        fresh.uniforms(2)
        tail = fresh.uniforms(2)
        assert np.array_equal(first[2:], tail)

    def test_uniform_range(self):
        u = Rng(1).uniforms(10000)
        assert np.all((u >= 0.0) & (u < 1.0))

    def test_spawn_streams_differ_and_are_stable(self):
        rng = Rng(3)
        a = rng.spawn("layer.0.q")
        b = rng.spawn("layer.0.v")
        assert a.seed != b.seed
        assert a.seed == Rng(3).spawn("layer.0.q").seed

    def test_stable_hash_is_fixed(self):
        assert stable_hash64("layer.0.q") == stable_hash64("layer.0.q")
        assert stable_hash64("a") != stable_hash64("b")

    # slot labels, the generator's labels and one label outside ASCII
    HASHED_LABELS = [
        "layer.0.q", "layer.11.v_proj", "synthetic.layer.0.q", "synthetic.layer.3.o",
        "couche.0.clé",
    ]  # fmt: skip

    @staticmethod
    def blake2b_reference(label: str) -> int:
        return int.from_bytes(hashlib.blake2b(label.encode(), digest_size=8).digest(), "little")

    @pytest.mark.parametrize("label", HASHED_LABELS)
    def test_stable_hash_is_the_blake2b_digest(self, label):
        assert stable_hash64(label) == self.blake2b_reference(label)

    @pytest.mark.parametrize("label", HASHED_LABELS)
    def test_stable_hash_without_the_blake2_module(self, monkeypatch, label):
        monkeypatch.setitem(sys.modules, "_blake2", None)  # its import now raises
        with pytest.raises(ImportError):
            import _blake2  # noqa: F401
        assert stable_hash64(label) == self.blake2b_reference(label)


class TestExactMean:
    def test_hand_mean(self):
        out = exact_mean([np.array([[1.0, 3.0]]), np.array([[3.0, 5.0]])])
        assert np.array_equal(out, np.array([[2.0, 4.0]]))

    def test_empty_sequence_rejected(self):
        with pytest.raises(ParameterError, match="^mean of an empty sequence$"):
            exact_mean([])

    @given(seed=st.integers(0, 2**32), copies=st.integers(1, 7))
    @settings(max_examples=50, deadline=None)
    def test_mean_of_copies_is_exact(self, seed, copies):
        x = gaussian_sample(Rng(seed), 3, 3, 0.3, 1.7)
        assert np.array_equal(exact_mean([x.copy() for _ in range(copies)]), x)

    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = Rng(seed)
        mats = [gaussian_sample(rng, 2, 3, 0.0, 1.0) for _ in range(5)]
        fwd = exact_mean(mats)
        rev = exact_mean(mats[::-1])
        assert np.array_equal(fwd, rev)

    @given(
        rows=st.integers(1, 9).flatmap(
            lambda k: hnp.arrays(
                np.float64, (k, 7), elements=st.floats(allow_nan=False, allow_infinity=False)
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_oracle_on_any_finite_input(self, rows):
        _assert_bitwise_mean(list(rows))

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 9), scale=st.integers(-60, 60))
    @settings(max_examples=60, deadline=None)
    def test_matches_fraction_oracle_on_normals(self, seed, k, scale):
        rng = np.random.default_rng(seed)
        _assert_bitwise_mean([rng.standard_normal((4, 8)) * 2.0**scale for _ in range(k)])

    @given(
        base=st.integers(1, 0x7FE0000000000000),
        offsets=st.lists(st.integers(0, 2**20), min_size=6, max_size=6),
        negative=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_midpoints_round_half_to_even(self, base, offsets, negative):
        # K = 2 over two doubles an odd number of ulps apart: within one
        # binade, their mean is an exact midpoint between two doubles.
        left = base + np.array(offsets[:3], dtype=np.int64)
        right = left + 2 * np.array(offsets[3:], dtype=np.int64) + 1
        sign = -1.0 if negative else 1.0
        rows = [sign * _from_bits(left), sign * _from_bits(right)]
        assert np.all(rows[0] != rows[1])
        _assert_bitwise_mean(rows)

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 9))
    @settings(max_examples=60, deadline=None)
    def test_exponent_spread_beyond_2_pow_100(self, seed, k):
        rng = np.random.default_rng(seed)
        rows = [
            rng.standard_normal(16) * 2.0 ** rng.integers(-160, 160, size=16) for _ in range(k)
        ]
        spread = np.log2(np.abs(np.stack(rows)).max(axis=0) / np.abs(np.stack(rows)).min(axis=0))
        assert spread.max() > 100
        _assert_bitwise_mean(rows)

    @given(seed=st.integers(0, 2**32 - 1), pairs=st.integers(1, 4), zeros=st.integers(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_cancellation_to_exactly_zero(self, seed, pairs, zeros):
        rng = np.random.default_rng(seed)
        halves = [
            rng.standard_normal(12) * 2.0 ** rng.integers(-40, 40, size=12) for _ in range(pairs)
        ]
        rows = halves + [-h for h in halves] + [np.full(12, -0.0)] * zeros
        rows = [rows[i] for i in rng.permutation(len(rows))]
        _assert_bitwise_mean(rows)
        assert np.all(exact_mean(rows).view(np.int64) == 0)

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_subnormal_means(self, seed, k):
        rng = np.random.default_rng(seed)
        rows = [rng.integers(-(2**20), 2**20, size=10) * 2.0**-1074 for _ in range(k)]
        # a normal-sized pair that cancels exactly leaves a subnormal mean
        big = rng.standard_normal(10) * 2.0**-1000
        rows += [big, -big]
        _assert_bitwise_mean(rows)
        mean = exact_mean(rows)
        assert np.any((mean != 0.0) & (np.abs(mean) < np.finfo(np.float64).tiny))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_sum_beyond_float_max_with_finite_mean(self, seed):
        rng = np.random.default_rng(seed)
        rows = [1.7e308 * (1.0 - 1e-3 * rng.random(5)) for _ in range(8)]
        with np.errstate(over="ignore"):
            assert np.all(np.isinf(np.sum(rows, axis=0)))
        _assert_bitwise_mean(rows)
        assert np.all(np.isfinite(exact_mean(rows)))

    def _count_fallback_calls(self, monkeypatch):
        """The entries recomputed as a ``Fraction`` sum, one list of K
        values per entry."""
        calls = []
        fallback = linalg._rational_mean

        def counting(values):
            calls.append(values)
            return fallback(values)

        monkeypatch.setattr(linalg, "_rational_mean", counting)
        return calls

    def test_uncertified_entries_take_the_fallback(self, monkeypatch):
        rng = np.random.default_rng(5)
        rows = [rng.standard_normal(6) for _ in range(3)]
        rows[0][1] = 1.7e308  # the sum overflows
        rows[2][3] = 2.0**970  # no overflow, but beyond the certified range
        rows[1][4] = 2.0**-1074  # a subnormal mean
        rows[2][4] = rows[0][4] = rows[1][4]
        calls = self._count_fallback_calls(monkeypatch)
        got = exact_mean(rows)
        assert [len(values) for values in calls] == [len(rows)] * 3
        monkeypatch.undo()
        assert np.array_equal(got.view(np.int64), _fraction_mean(rows).view(np.int64))

    def test_float32_data_takes_no_fallback(self, monkeypatch):
        rng = np.random.default_rng(11)
        rows = [
            rng.standard_normal((16, 256)).astype(np.float32).astype(np.float64) for _ in range(8)
        ]
        calls = self._count_fallback_calls(monkeypatch)
        got = exact_mean(rows)
        assert calls == []
        monkeypatch.undo()
        assert np.array_equal(got.view(np.int64), _fraction_mean(rows).view(np.int64))

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 9),
        midpoints=st.booleans(),
        negative=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_certificate_accepts_only_the_rounded_mean(self, seed, k, midpoints, negative):
        rng = np.random.default_rng(seed)
        if midpoints:
            # two doubles an odd number of ulps apart: the odd neighbour of
            # the rounded mean is exactly as close as the mean itself
            left = rng.integers(0x0400000000000000, 0x7C00000000000000, size=8)
            rows = [_from_bits(left), _from_bits(left + 2 * rng.integers(0, 2**20, size=8) + 1)]
            k = 2
        else:
            rows = [rng.standard_normal(8) * 2.0 ** rng.integers(-300, 300) for _ in range(k)]
        rows = [-r if negative else r for r in rows]
        total = [rows[0]]
        for row in rows[1:]:
            total = linalg._grow(total, row)
        want = _fraction_mean(rows).view(np.int64)
        for step in (-2, -1, 0, 1, 2):
            accepted = linalg._is_rounded_mean(total, _from_bits(want + step), k)
            assert np.all(accepted == (step == 0))


class TestExactMeanBlocks:
    """``exact_mean`` works one column block of entries at a time; with
    ``ROW_BLOCK_ENTRIES`` patched small, a few entries span many blocks."""

    @staticmethod
    def _columns_per_block(monkeypatch, k, columns):
        # exact_mean sizes a block at 7 stacks of K rows
        monkeypatch.setattr(linalg, "ROW_BLOCK_ENTRIES", 7 * k * columns)

    def test_uncertified_entries_in_later_and_ragged_blocks(self, monkeypatch):
        rng = np.random.default_rng(8)
        rows = [rng.standard_normal((3, 6)) for _ in range(3)]
        rows[1][1, 3] = 2.0**970  # block 2 of 4 columns: beyond the certified range
        rows[0][2, 1] = rows[2][2, 1] = 1.7e308  # block 3: the sum overflows
        for r, sign in zip(rows, (1.0, -1.0, 1.0)):  # the ragged block 4: a mean below 2^-960
            r[2, 5] = sign * 2.0**-1000
        unblocked = exact_mean(rows)
        self._columns_per_block(monkeypatch, 3, 4)
        widths, fallback = [], []
        certified_mean, rational_mean = linalg._certified_mean, linalg._rational_mean

        def certified(columns):
            widths.append(columns.shape[1])
            return certified_mean(columns)

        def rational(values):
            fallback.append(values)
            return rational_mean(values)

        monkeypatch.setattr(linalg, "_certified_mean", certified)
        monkeypatch.setattr(linalg, "_rational_mean", rational)
        got = exact_mean(rows)
        assert widths == [4, 4, 4, 4, 2]
        flats = [r.ravel() for r in rows]
        assert fallback == [[f[i] for f in flats] for i in (9, 13, 17)]
        monkeypatch.undo()
        assert np.array_equal(got.view(np.int64), _fraction_mean(rows).view(np.int64))
        assert np.array_equal(got.view(np.int64), unblocked.view(np.int64))

    @given(
        seed=st.integers(0, 2**32 - 1), k=st.integers(2, 9), columns=st.integers(1, 8),
        spread=st.integers(0, 1100),
    )  # fmt: skip
    @settings(max_examples=60, deadline=None)
    def test_matches_fraction_oracle_across_blocks(self, seed, k, columns, spread):
        rng = np.random.default_rng(seed)
        low = max(-spread, -1070)
        rows = [
            rng.standard_normal((3, 7)) * 2.0 ** rng.integers(low, min(spread, 1000) + 1, (3, 7))
            for _ in range(k)
        ]
        with pytest.MonkeyPatch.context() as patch:
            self._columns_per_block(patch, k, columns)
            got = exact_mean(rows)
        assert np.array_equal(got.view(np.int64), _fraction_mean(rows).view(np.int64))

    @given(seed=st.integers(0, 2**32 - 1), columns=st.integers(1, 7))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance_across_blocks(self, seed, columns):
        rng = np.random.default_rng(seed)
        mats = [rng.standard_normal((2, 15)) * 2.0 ** rng.integers(-60, 60) for _ in range(6)]
        with pytest.MonkeyPatch.context() as patch:
            self._columns_per_block(patch, len(mats), columns)
            want = exact_mean(mats).view(np.int64)
            for _ in range(4):
                shuffled = [mats[i] for i in rng.permutation(len(mats))]
                assert np.array_equal(exact_mean(shuffled).view(np.int64), want)

    @pytest.mark.parametrize("entries, bound_mb", [(16384, 1.5), (65536, 2.0)])
    def test_traced_peak_is_one_block_not_a_stack(self, entries, bound_mb):
        """K = 8 tensors of d x r = 1024 x 16 (and 4096 x 16) entries: about
        1 MiB of blocks plus the output, where one (K, n) stack alone is 1
        MiB (4 MiB) and the whole-stack expansion held 6.9 times that."""
        import tracemalloc

        rng = np.random.default_rng(3)
        rows = [
            rng.standard_normal((entries // 16, 16)).astype(np.float32).astype(np.float64)
            for _ in range(8)
        ]
        tracemalloc.start()
        try:
            exact_mean(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 1e6, peak


class TestCosineAtLargeNorms:
    def test_cube_of_a_large_norm_raises_no_overflow_error(self):
        """``|y|^3`` in the cosine gradient overflows past |y| ~ 1e103; the
        distance stays scale-invariant and the gradient finite, with no
        warning."""
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        unit = np.array([[1.0, 2.0], [3.0, 5.0]])
        with np.errstate(all="raise"):
            value, grad = distance_and_grad(x, 1e120 * unit, DistanceKind.COS)
        assert value == distance(x, 1e120 * unit, DistanceKind.COS)
        assert value == pytest.approx(distance(x, unit, DistanceKind.COS), rel=1e-12)
        assert np.all(np.isfinite(grad))
        assert np.array_equal(distance_grad(x, 1e120 * unit, DistanceKind.COS), grad)
