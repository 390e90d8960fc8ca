"""Dense float64 kernels shared by every other module.

All public operations work on 2-D ``numpy.ndarray`` values ("matrices"),
validate their inputs, and guarantee finite outputs.  Everything here is a
pure function of its arguments except :class:`Rng`, which is an explicit
stateful stream.

Distance conventions (``x`` is the target, ``y`` the prediction, gradients
are taken with respect to ``y``, ``n = rows * cols``):

====  =============================  ==========================================
kind  value                          gradient wrt y
====  =============================  ==========================================
mae   mean(|x - y|)                  -sign(x - y) / n, with sign(0) = 0
mse   mean((x - y)^2)                -2 (x - y) / n
fro   sqrt(sum((x - y)^2))           -(x - y) / fro(x, y); zeros when x == y
cos   1 - <x, y> / (|x|_F |y|_F)     -x/(|x||y|) + <x,y> y / (|x| |y|^3)
====  =============================  ==========================================

For the three smooth kinds the gradient is ``alpha * x + beta * y`` with
scalars that depend on ``x`` and ``y`` only through the traces
``<x, x>``, ``<x, y>`` and ``<y, y>``; :func:`smooth_terms` maps those
traces to the value and ``(alpha, beta)`` without touching a matrix.

:func:`exact_mean` is the correctly rounded elementwise mean behind the
TA and DARE baselines and hydraopt's mean init.  One column block of
entries at a time (:func:`row_blocks`), it sums the K tasks exactly, as a
Shewchuk (1997) floating-point expansion built from vectorized TwoSum,
divides, and certifies each rounded quotient with an exact residual
test: ``|S - q K|`` against half the gap from ``q`` to its neighbour,
times ``K``.  Only entries the test cannot certify (inputs beyond 2^960,
means below 2^-960, non-finite values, or a candidate off by more than
half a gap) are recomputed as a per-entry ``Fraction`` sum.

Randomness is a counter-based stream so that identical seeds reproduce
identical values on every platform and numpy version.  The algorithm is
pinned here and covered by regression tests:

* seed conditioning:  ``S = mix64(seed)`` where ``mix64`` is the
  public-domain splitmix64 finalizer (xorshift 30 / multiply
  0xBF58476D1CE4E5B9 / xorshift 27 / multiply 0x94D049BB133111EB /
  xorshift 31), all mod 2^64 -- so nearby user seeds yield unrelated
  streams;
* raw stream:  ``out[i] = mix64(S + (i + 1) * 0x9E3779B97F4A7C15)``;
* uniforms on [0, 1):  ``(out[i] >> 11) * 2^-53``;
* normals: Box-Muller over consecutive uniform blocks, see
  :meth:`Rng.normals` for the exact layout.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateInputError, NumericalError, ParameterError, ShapeError

Matrix = np.ndarray

_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53


class DistanceKind(str, Enum):
    """Closed enumeration of the supported distance functions."""

    MAE = "mae"
    MSE = "mse"
    FRO = "fro"
    COS = "cos"


# Distances whose value and gradient follow from Gram traces (smooth_terms).
SMOOTH_DISTANCES = frozenset({DistanceKind.MSE, DistanceKind.FRO, DistanceKind.COS})


def as_matrix(x, name: str = "matrix") -> Matrix:
    """Coerce ``x`` to a 2-D float64 array and check it is finite."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ShapeError(f"{name} contains non-finite entries")
    return arr


def _require_same_shape(x: Matrix, y: Matrix, op: str) -> None:
    if x.shape != y.shape:
        raise ShapeError(f"{op} requires equal shapes, got {x.shape} and {y.shape}")


def _distance_operands(x, y, op: str) -> tuple[Matrix, Matrix]:
    """``x`` and ``y`` as finite, equally shaped float64 matrices."""
    a, b = as_matrix(x, "x"), as_matrix(y, "y")
    _require_same_shape(a, b, op)
    return a, b


def matmul(x, y) -> Matrix:
    """Matrix product with shape checking.

    Raises :class:`ShapeError` naming both shapes when the inner dimensions
    disagree.  Repeated calls on identical inputs are bit-identical.
    """
    a = as_matrix(x, "left operand")
    b = as_matrix(y, "right operand")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply shapes {a.shape} and {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite product is typed below
        out = a @ b
    if not np.all(np.isfinite(out)):
        raise ShapeError("matrix product overflowed to non-finite values")
    return out


def softmax_rows(c, temperature: float) -> Matrix:
    """Row-wise temperature softmax with max-subtraction for overflow safety.

    Each output row sums to 1 within 1e-12.  As ``temperature`` shrinks the
    rows approach one-hot indicators of the row maximum.
    """
    if not (temperature > 0):
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    logits = as_matrix(c, "logits")
    with np.errstate(over="ignore"):
        shifted = (logits - logits.max(axis=1, keepdims=True)) / temperature
    weights = np.exp(shifted)
    return weights / weights.sum(axis=1, keepdims=True)


def distance(x, y, kind: DistanceKind) -> float:
    """Scalar distance between two equally shaped matrices."""
    return distance_and_grad(*_distance_operands(x, y, "distance"), kind)[0]


def mae_and_fro(x, y) -> tuple[float, float]:
    """``distance(x, y, MAE)`` and ``distance(x, y, FRO)``, bit for bit,
    from one residual."""
    a, b = _distance_operands(x, y, "distance")
    return mae_and_fro_of_sums(*residual_sums(a - b), a.size)


def residual_sums(residual: Matrix) -> tuple[float, float]:
    """``(sum |R|, sum R^2)`` of a float64 residual ``R``, unchecked and
    with no temporary: ``R`` is overwritten.  Sums of the row blocks of a
    residual, added in order, give :func:`mae_and_fro_of_sums` the whole
    residual's."""
    abs_sum = float(np.sum(np.abs(residual, out=residual)))
    return abs_sum, float(np.sum(np.square(residual, out=residual)))


def mae_and_fro_of_sums(abs_sum: float, sq_sum: float, size: int) -> tuple[float, float]:
    """``(mean |R|, ||R||_F)`` of a ``size``-entry residual from its
    :func:`residual_sums`: the MAE and FRO values of :func:`distance`, bit
    for bit when the sums are of the whole residual at once."""
    return abs_sum / size, math.sqrt(sq_sum)


# Entries of one row block when a d x k product is built a block of rows at
# a time: 128 rows at k = 1024.
ROW_BLOCK_ENTRIES = 2**17


def row_blocks(d: int, k: int, budget: int) -> tuple[int, list[slice]]:
    """The rows of a ``d x k`` matrix in blocks of about ``budget`` entries:
    ``rows = max(1, min(d, budget // k))`` rows each, the last block ragged.
    Returns ``rows``, which sizes a reused block buffer, and the blocks'
    row slices in order."""
    rows = max(1, min(d, budget // k))
    return rows, [slice(start, min(start + rows, d)) for start in range(0, d, rows)]


def distance_grad(x, y, kind: DistanceKind) -> Matrix:
    """Gradient of :func:`distance` with respect to its second argument."""
    return distance_and_grad(*_distance_operands(x, y, "distance_grad"), kind)[1]


def distance_and_grad(x: Matrix, y: Matrix, kind: DistanceKind) -> tuple[float, Matrix]:
    """``(distance(x, y, kind), distance_grad(x, y, kind))`` from one
    residual and without the checks: ``x`` and ``y`` must be equally shaped
    float64 matrices, ``x`` finite.  A non-finite ``y`` gives a non-finite
    distance instead of an error."""
    kind = DistanceKind(kind)
    if kind is DistanceKind.COS:
        nx = float(np.linalg.norm(x))
        ny = np.linalg.norm(y)  # a numpy scalar: ny**3 overflows to inf, not OverflowError
        if nx == 0.0 or ny == 0.0:
            raise DegenerateInputError("cosine distance is undefined for a zero matrix")
        dot = float(np.vdot(x, y))
        with np.errstate(over="ignore", invalid="ignore"):
            return float(1.0 - dot / (nx * ny)), -x / (nx * ny) + dot * y / (nx * ny**3)
    diff = x - y
    if kind is DistanceKind.MAE:
        return float(np.mean(np.abs(diff))), -np.sign(diff) / diff.size
    if kind is DistanceKind.MSE:
        return float(np.mean(diff**2)), -2.0 * diff / diff.size
    norm = float(np.sqrt(np.sum(diff**2)))
    return norm, (np.zeros_like(y) if norm == 0.0 else -diff / norm)


def smooth_terms(tt, tp, pp, n: int, kind: DistanceKind):
    """Value and gradient coefficients of a smooth distance from Gram traces.

    ``tt = <x, x>``, ``tp = <x, y>`` and ``pp = <y, y>`` are equally shaped
    arrays with one entry per (x, y) pair of ``n``-entry matrices.  Returns
    ``(value, alpha, beta)`` with ``distance(x, y, kind) == value`` and
    ``distance_grad(x, y, kind) == alpha * x + beta * y`` up to rounding:

    ====  ===========================  ===============  =====================
    kind  value                        alpha            beta
    ====  ===========================  ===============  =====================
    mse   s / n                        -2 / n           2 / n
    fro   sqrt(s)                      -1 / sqrt(s)     1 / sqrt(s); 0 at s=0
    cos   1 - tp / (|x| |y|)           -1 / (|x| |y|)   tp / (|x| |y|^3)
    ====  ===========================  ===============  =====================

    where ``s = max(tt - 2 tp + pp, 0)`` is the squared residual norm.
    Equal traces ``tt == tp == pp`` give value 0 and ``alpha == -beta``
    exactly, so an exact fit has zero loss and exactly cancelling gradient
    terms.
    """
    tt, tp, pp = (np.asarray(v, dtype=np.float64) for v in (tt, tp, pp))
    if not all(np.all(np.isfinite(v)) for v in (tt, tp, pp)):
        raise NumericalError("a Gram trace overflowed to a non-finite value")
    kind = DistanceKind(kind)
    if kind is DistanceKind.MSE or kind is DistanceKind.FRO:
        squared = np.maximum(tt - 2.0 * tp + pp, 0.0)
        if kind is DistanceKind.MSE:
            return squared / n, np.full_like(tt, -2.0 / n), np.full_like(tt, 2.0 / n)
        norm = np.sqrt(squared)
        beta = np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0.0)
        return norm, -beta, beta
    if kind is not DistanceKind.COS:
        raise ParameterError(f"{kind.value} is not a smooth distance")
    if np.any(tt == 0.0) or np.any(pp == 0.0):
        raise DegenerateInputError("cosine distance is undefined for a zero matrix")
    norm_x = np.sqrt(tt)
    norm_y = np.sqrt(pp)
    # tp / pp and norm_y / norm_x are exactly 1 at x == y.
    ratio = tp / pp
    scale = 1.0 / (norm_x * norm_y)
    return 1.0 - ratio * (norm_y / norm_x), -scale, ratio * scale


def finite_diff(loss_fn: Callable[[Matrix], float], at, h: float) -> Matrix:
    """Central-difference gradient oracle: (f(t + h e) - f(t - h e)) / 2h."""
    if not (h > 0):
        raise ParameterError(f"step h must be > 0, got {h}")
    theta = as_matrix(at, "at")
    grad = np.zeros_like(theta)
    probe = theta.copy()
    for idx in np.ndindex(theta.shape):
        base = probe[idx]
        probe[idx] = base + h
        hi = loss_fn(probe)
        probe[idx] = base - h
        lo = loss_fn(probe)
        probe[idx] = base
        grad[idx] = (hi - lo) / (2.0 * h)
    return grad


# The certified fast path of exact_mean holds only inside these bounds:
# inputs up to _MEAN_MAX in magnitude cannot overflow a sum of K < _MEAN_MAX_K
# terms, and a candidate mean of at least _MEAN_MIN keeps every split half,
# every product with K and every half gap a normal float, hence exact.
_MEAN_MAX = 2.0**960
_MEAN_MIN = 2.0**-960
_MEAN_MAX_K = 2**27
_SPLITTER = 2.0**27 + 1.0  # Veltkamp: a double splits into two 26-bit halves


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knuth's TwoSum: ``s = fl(a + b)`` and the error ``e`` with ``s + e == a + b``."""
    s = a + b
    b_virtual = s - a
    a_virtual = s - b_virtual
    return s, (a - a_virtual) + (b - b_virtual)


def _grow(expansion: list[np.ndarray], b: np.ndarray) -> list[np.ndarray]:
    """Shewchuk's GROW-EXPANSION: an expansion of ``sum(expansion) + b``.

    An expansion is a list of arrays whose elementwise sum is the exact
    value.  Nonoverlapping components in increasing magnitude (zeros
    anywhere) stay so, with one more component.
    """
    out = []
    for component in expansion:
        b, low = _two_sum(b, component)
        out.append(low)
    out.append(b)
    return out


def _approx(expansion: list[np.ndarray]) -> np.ndarray:
    """Floating-point sum of an expansion, smallest component first."""
    return sum(expansion[1:], expansion[0])


def _sign(expansion: list[np.ndarray]) -> np.ndarray:
    """Exact sign of an expansion: that of its largest nonzero component."""
    sign = np.zeros_like(expansion[0])
    for component in expansion:
        sign = np.where(component != 0.0, np.sign(component), sign)
    return sign


def _minus_multiple(expansion: list[np.ndarray], q: np.ndarray, k: int) -> list[np.ndarray]:
    """An expansion of ``sum(expansion) - k * q``.

    ``q`` is split into two 26-bit halves, so each half times ``k`` is
    exact; exact overall inside the ``_MEAN_*`` bounds.
    """
    scaled = _SPLITTER * q
    high = scaled - (scaled - q)
    return _grow(_grow(expansion, -k * high), -k * (q - high))


def _is_rounded_mean(total: list[np.ndarray], q: np.ndarray, k: int) -> np.ndarray:
    """Whether ``q`` is ``sum(total) / k`` rounded to nearest, ties to even.

    Exact, with no tolerance, inside the ``_MEAN_*`` bounds: the residual
    ``r = sum(total) - k q`` is compared with ``k gap / 2``, where ``gap``
    is the spacing from ``q`` to its neighbour on the side of ``r``.
    """
    residual = _minus_multiple(total, q, k)
    sign = _sign(residual)
    gap = np.abs(np.nextafter(q, np.where(sign < 0.0, -np.inf, np.inf)) - q)
    excess = _sign(_grow([sign * c for c in residual], (-0.5 * k) * gap))
    even = (q.view(np.int64) & 1) == 0
    return (excess < 0.0) | ((excess == 0.0) & even)


def _certified_mean(flats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means of a ``(K, n)`` stack and the mask of those certified.

    A certified entry is the correctly rounded mean; any other entry is
    only an approximation.  A zero mean comes out as ``+0.0``: the low
    component of a TwoSum of finite values is never ``-0.0``.
    """
    k = flats.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        total = [flats[0]]
        for row in flats[1:]:
            total = _grow(total, row)
        q = _approx(total) / k
        q = q + _approx(_minus_multiple(total, q, k)) / k
        certified = _is_rounded_mean(total, q, k)
        certified &= np.abs(flats).max(axis=0) <= _MEAN_MAX
        certified &= (np.abs(q) >= _MEAN_MIN) | (_sign(total) == 0.0)
    return q, certified & (k < _MEAN_MAX_K)


# _certified_mean holds about this many (K, n) stacks at once: the input,
# the K-component sum, the residual expansions and their temporaries.
_MEAN_STACKS = 7


def _rational_mean(values: list[float]) -> float:
    """``fl(sum(values) / len(values))`` from the exact ``Fraction`` sum."""
    from fractions import Fraction  # loaded only when an entry is uncertified

    return float(sum(Fraction(v) for v in values) / len(values))


def exact_mean(tensors: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise mean, correctly rounded (round half to even).

    The result is ``fl(sum(x_i) / K)`` of the exact rational sum, so it is
    bit-identical under input permutation and the mean of K identical
    arrays is exactly that array.  Each entry is handled on its own, so the
    flattened entries go one column block at a time: a ``(K, c)`` stack of
    ``c = ROW_BLOCK_ENTRIES // (7 K)`` columns (:func:`row_blocks`), which
    keeps the working set of the steps below near ``ROW_BLOCK_ENTRIES``
    doubles (1 MiB) at any size.  Per block:

    1. The K inputs are summed exactly into a nonoverlapping expansion of
       K arrays (Shewchuk's GROW-EXPANSION over vectorized TwoSum).
    2. A candidate ``q = fl(approx(S) / K)`` is refined once by the
       approximate quotient of the exact residual ``S - q K``.  The
       residual is exact because ``q`` is Dekker-split into two halves
       whose products with a small integer ``K`` are exact.
    3. ``q`` is the correctly rounded mean exactly when the residual of the
       refined candidate satisfies ``|S - q K| < K gap / 2``, with ``gap``
       the spacing from ``q`` to its neighbour on the residual's side; on
       equality (a tie) when ``q`` is even.  Both sides are exact, so the
       comparison, read off the sign of one more expansion, needs no
       tolerance.

    Entries the check cannot certify -- a residual beyond half a gap,
    inputs beyond 2^960 in magnitude (the sum could overflow), a mean
    below 2^-960 other than an exact zero (products could go subnormal),
    or non-finite inputs -- are recomputed one by one as a ``Fraction``
    sum with a single rounding at the end.
    """
    if not tensors:
        raise ParameterError("mean of an empty sequence")
    stack = [np.asarray(t, dtype=np.float64) for t in tensors]
    first = stack[0]
    for t in stack[1:]:
        _require_same_shape(first, t, "mean")
    if len(stack) == 1 or all(np.array_equal(t, first) for t in stack[1:]):
        return first.copy()
    flats = [t.ravel() for t in stack]
    out = np.empty(first.size)
    _, blocks = row_blocks(first.size, _MEAN_STACKS * len(flats), ROW_BLOCK_ENTRIES)
    for block in blocks:
        columns = np.stack([f[block] for f in flats])
        q, certified = _certified_mean(columns)
        for i in np.flatnonzero(~certified):
            q[i] = _rational_mean(columns[:, i].tolist())
        out[block] = q
    return out.reshape(first.shape)


def stable_hash64(label: str) -> int:
    """Platform-stable 64-bit hash used to derive per-slot seeds: the
    8-byte BLAKE2b digest of the UTF-8 label, read little-endian."""
    try:  # hashlib.blake2b is this one, but importing hashlib loads OpenSSL too
        from _blake2 import blake2b
    except ImportError:
        from hashlib import blake2b

    digest = blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _mix64(value: int) -> int:
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Deterministic counter-based random stream (see module docstring).

    The stream depends only on ``(seed, counter)``; consuming ``n`` values
    advances the counter by ``n``, so callers can reason about consumption
    in flat index order.
    """

    def __init__(self, seed: int):
        self.seed = _mix64(int(seed) & _MASK64)
        self.counter = 0

    def spawn(self, label: str) -> "Rng":
        """Independent child stream keyed by a stable label."""
        return Rng(self.seed ^ stable_hash64(label))

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            z = _U64(self.seed) + idx * _U64(_GOLDEN)
            z = (z ^ (z >> _U64(30))) * _U64(_MIX1)
            z = (z ^ (z >> _U64(27))) * _U64(_MIX2)
            z = z ^ (z >> _U64(31))
        return z

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on [0, 1)."""
        return (self._raw(n) >> _U64(11)).astype(np.float64) * _INV_2_53

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normals via Box-Muller.

        Layout: draw ``p = ceil(n/2)`` uniforms mapped to (0, 1] for the
        radius, then ``p`` uniforms on [0, 1) for the angle; outputs are the
        interleaved (cos, sin) pair stream truncated to ``n``.
        """
        if n == 0:
            return np.empty(0)
        pairs = (n + 1) // 2
        u1 = ((self._raw(pairs) >> _U64(11)).astype(np.float64) + 1.0) * _INV_2_53
        u2 = self.uniforms(pairs)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * math.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:n]


def gaussian_sample(rng: Rng, rows: int, cols: int, mean: float, stdev: float) -> Matrix:
    """``rows x cols`` matrix of i.i.d. normals drawn in row-major order."""
    if rows <= 0 or cols <= 0:
        raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if stdev < 0:
        raise ParameterError(f"stdev must be >= 0, got {stdev}")
    z = rng.normals(rows * cols)
    with np.errstate(over="ignore"):  # callers type a non-finite draw
        return (mean + stdev * z).reshape(rows, cols)
