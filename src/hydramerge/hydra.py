"""Optimization-based merging with cluster routing.

Given K per-task weight updates ``T_i``, this module learns one shared
parameter, ``M <= K`` cluster parameters and, when ``M < K``, routing
logits ``C`` (K x M).  Cluster j has a dense product ``U_j``.  With
routing weights ``w = softmax_rows(C, temperature)`` the prediction for
task i is ``P_i = sum_j w[i, j] U_j``, and the objective is
``sum_i f(T_i, P_i)`` for a configurable distance ``f``.  When ``M == K``
the logits are dropped and task i is tied to cluster i: ``P_i = U_i``.

Both adapter kinds share one optimizer.  A cluster parameter enters its
product linearly, ``U_j = L(c_j)``, so predictions mix in cluster space:
``P_i = L(c_mix_i)`` with ``c_mix = w @ c``.  The parameters start from
the targets' ``sides()`` and carry their ``frozen`` pair.  A training
state is the bundle slot it exports (:class:`HydraState` is a
:class:`~hydramerge.adapters.SharedLoraSlot`, :class:`VeraHydraState` a
:class:`~hydramerge.adapters.SharedVeraSlot`) plus routing logits, Adam
moments and the step count.  ``L`` and its adjoint are static methods of
the slot's ``adapter_type`` (see :mod:`hydramerge.adapters`), which
:func:`~hydramerge.adapters.delta_weight` uses too.  The dense
kernel builds ``P_i = predict(c_mix_i, basis)`` per task; ``pull_back``
turns the distance gradient ``G_i`` at ``P_i`` into ``E_i = L^T(G_i)``
and the task's term of the shared gradient, which ``shared_grad``
finishes.  LoRA learns a shared input-side factor ``A`` (r x k) and
cluster factors ``B_j`` (d x r); VeRA keeps its frozen pair and learns a
shared inner vector ``lambda_d`` (r) and cluster outer vectors
``lambda_b_j`` (d).

Every kernel ends in one chain rule in cluster space: ``dc_j = sum_i
w[i, j] E_i``, and the routing logits get

    g[i, j] = <G_i, U_j> = <E_i, c_j>            (flattened inner products)
    dC[i,m] = (w[i, m] / temperature) * (g[i, m] - sum_j w[i, j] g[i, j])

The dense kernel streams one ``d x k`` residual per task.  It serves dense
target matrices, MAE on LoRA targets and the smooth distances on VeRA
targets.

For MAE on VeRA targets, which all carry the slot's frozen pair ``(B, A)``,
each residual has rank r: ``R_i = T_i - P_i = W_i A`` with the ``d x r``
factor ``W_i = (lambda_b_i lambda_d_i^T - lambda_bmix_i lambda_d^T) * B``
(``VeraAdapter.left_factor``).  That kernel builds ``R_i`` one block of
rows at a time, about ``_BLOCK_ENTRIES`` entries, into one reused buffer and
its sign into a second.  The blocks are those of
:func:`~hydramerge.linalg.row_blocks`, which the reconstruction report
walks too.  The kernel keeps the sum of ``|R_i|`` and ``M_i = G_i A^T =
-sign(R_i) A^T / (d k)``, from which ``VeraAdapter.pull_back_left`` gives
``E_i`` and the task's finished ``lambda_d`` term at ``O(d r)``.  No other
``d x k`` array is formed, not even a target.  Equal vectors give ``W_i =
0`` exactly, so an exact fit has a loss of exactly 0 and zero gradients.

For the smooth distances (mse, fro, cos) on LoRA targets ``T_i = b_i
a_i`` the dense ``d x k`` matrices are never formed.  With ``Bmix_i =
sum_j w[i, j] B_j`` (``B_i`` under identity routing) every quantity is a
trace of ``r x r`` Gram products:

    tt_i = <T_i, T_i> = <b_i^T b_i,       a_i a_i^T>     (fixed per run)
    tp_i = <T_i, P_i> = <Bmix_i^T b_i,    A a_i^T>
    pp_i = <P_i, P_i> = <Bmix_i^T Bmix_i, A A^T>

:func:`~hydramerge.linalg.smooth_terms` maps them to the loss and to
``(alpha_i, beta_i)`` with ``G_i = alpha_i T_i + beta_i P_i``, so

    dA      = sum_i alpha_i (Bmix_i^T b_i) a_i + beta_i (Bmix_i^T Bmix_i) A
    E_i^T   = (G_i A^T)^T = alpha_i (A a_i^T) b_i^T + beta_i (A A^T) Bmix_i^T

for the shared chain rule, at ``O(K r^2 (d + k) + K M r d)`` per step.
Target-side and prediction-side products run through the same operations,
so ``b_i == Bmix_i`` and ``a_i == A`` give bit-equal traces, a loss of
exactly 0 and gradient terms that cancel exactly.  The dense kernel is
the reference both factored kernels are tested against.  :func:`loss`,
:func:`gradients` and :func:`train` run the same kernel for the same
targets.  With adapter targets every kernel first checks, with
:func:`~hydramerge.adapters.check_slot`, that the state could share their
slot: one kind, ``(d, r, k)`` and frozen pair.

Training stops with :class:`~hydramerge.errors.NumericalError`, naming the
slot and step, when a prediction, the loss or a gradient turns non-finite
or the loss exceeds ``DIVERGENCE_FACTOR`` times a positive initial loss.

Updates use Adam with bias correction and no weight decay.  After
training each task is assigned ``argmax_j C[i, j]`` and the logits are
discarded; storage per LoRA slot is then ``M * r * d + r * k`` against
``K * r * (d + k)`` for the originals.  Training never looks at task
data: the target adapters themselves are the regression labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar, Sequence

import numpy as np

from .adapters import (
    Adapter,
    AdapterCollection,
    LowRankAdapter,
    MergedBundle,
    SharedLoraSlot,
    SharedSlot,
    SharedVeraSlot,
    SlotKey,
    VeraAdapter,
    check_slot,
    delta_weight,
)
from .errors import (
    DegenerateInputError,
    HydraMergeError,
    NumericalError,
    ParameterError,
    ShapeError,
    ValidationError,
)
from .linalg import (
    ROW_BLOCK_ENTRIES,
    SMOOTH_DISTANCES,
    DistanceKind,
    Matrix,
    Rng,
    as_matrix,
    distance_and_grad,
    exact_mean,
    gaussian_sample,
    row_blocks,
    smooth_terms,
    softmax_rows,
    stable_hash64,
)

_RANDOM_INIT_STDEV = 0.02
# A loss above this multiple of a positive initial loss counts as divergence.
DIVERGENCE_FACTOR = 1e3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class InitScheme(str, Enum):
    MEAN_A_COPY_B = "mean"
    RANDOM = "random"


@dataclass(frozen=True)
class HydraConfig:
    """Training configuration.

    The learning rate and init defaults are sized for desk-scale factor
    matrices with O(1) entries: random init plus lr 1e-2 converges to the
    representational floor within the default epoch budget.  The mean
    warm start (:attr:`InitScheme.MEAN_A_COPY_B`) remains available and
    is the better choice when the input-side factors are near-identical.
    """

    num_clusters: int
    temperature: float = 0.1
    epochs: int = 1000
    learning_rate: float = 1e-2
    distance: DistanceKind = DistanceKind.MAE
    seed: int = 0
    init_scheme: InitScheme = InitScheme.RANDOM
    adam_eps: ClassVar[float] = ADAM_EPS

    def __post_init__(self):
        # the kernels compare members by identity, so a value is stored as its member
        for name, enum in (("distance", DistanceKind), ("init_scheme", InitScheme)):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, enum(value))
            except ValueError:
                choices = ", ".join(member.value for member in enum)
                raise ParameterError(f"{name} must be one of {choices}, got {value!r}") from None

    def validate(self, num_tasks: int) -> None:
        if self.num_clusters < 1:
            raise ParameterError(f"num_clusters must be >= 1, got {self.num_clusters}")
        if self.num_clusters > num_tasks:
            raise ParameterError(
                f"num_clusters = {self.num_clusters} exceeds the {num_tasks} tasks"
            )
        if not 0 < self.temperature < math.inf:
            raise ParameterError(f"temperature must be finite and > 0, got {self.temperature}")
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        if not 0 < self.learning_rate < math.inf:
            raise ParameterError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


@dataclass(kw_only=True)
class _RoutedState:
    """A slot being trained: the bundle slot's fields (its ``shared``,
    ``clusters`` and ``frozen`` parts, which ``NAMES`` names) plus routing
    logits (absent when M == K), Adam's ``(m, v)`` moments and the step
    count.  The slot's ``assignment`` stays empty while training;
    :func:`export_slot` builds the bundle slot with the argmax assignment."""

    NAMES: ClassVar[tuple[str, str]]
    logits: Matrix | None
    moments: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    step: int = 0
    assignment: list[int] = field(default_factory=list)

    @property
    def params(self):
        return self.shared, self.clusters

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        shared_name, cluster_name = self.NAMES
        out = [(shared_name, self.shared)]
        out += [(f"{cluster_name}.{j}", c) for j, c in enumerate(self.clusters)]
        if self.logits is not None:
            out.append(("logits", self.logits))
        return out

    def basis(self) -> Matrix:
        return self.adapter_type.basis(self.shared, self.frozen)


@dataclass
class HydraState(_RoutedState, SharedLoraSlot):
    """LoRA: shared input-side factor ``A``, cluster factors ``B_j``."""

    NAMES: ClassVar[tuple[str, str]] = ("a_shared", "b")


@dataclass
class VeraHydraState(_RoutedState, SharedVeraSlot):
    """VeRA: inner vector ``lambda_d``, cluster outer vectors ``lambda_b_j``."""

    NAMES: ClassVar[tuple[str, str]] = ("lambda_d", "lambda_b")


_STATES = {cls.adapter_type: cls for cls in (HydraState, VeraHydraState)}


@dataclass
class HydraGrads:
    tensors: dict[str, np.ndarray]


@dataclass
class TrainTrace:
    losses: list[float]
    final_loss: float

    @property
    def initial_loss(self) -> float:
        return self.losses[0] if self.losses else self.final_loss


def _zero_moments(state) -> None:
    state.moments = {n: (np.zeros_like(t), np.zeros_like(t)) for n, t in state.named_tensors()}


def _target_matrices(targets) -> list[Matrix]:
    adapters = (LowRankAdapter, VeraAdapter)
    return [delta_weight(t) if isinstance(t, adapters) else as_matrix(t, "target") for t in targets]


def _new_state(targets, num_clusters: int, rng: Rng, stdev: float | None):
    """A state of the targets' kind as :func:`init_state` draws it, with
    N(0, stdev) parameters or, for ``stdev=None``, the mean init."""
    check_slot({f"target {i}": t for i, t in enumerate(targets)}, "the targets")
    first = targets[0]
    own = [t.sides() for t in targets]
    if stdev is None:
        shared = exact_mean([s for s, _ in own])
        clusters = [c.copy() for _, c in own[:num_clusters]]
    else:
        shared = gaussian_sample(rng, *own[0][0].shape, 0.0, stdev)
        clusters = [gaussian_sample(rng, *own[0][1].shape, 0.0, stdev) for _ in range(num_clusters)]
    logits = (
        gaussian_sample(rng, len(targets), num_clusters, 0.0, 1.0)
        if num_clusters < len(targets)
        else None
    )
    slot = type(first).shared_slot(shared, clusters, first.frozen, [])
    state = _STATES[type(first)](**vars(slot), logits=logits)
    _zero_moments(state)
    return state


def init_state(targets: Sequence, cfg: HydraConfig, rng: Rng):
    """Fresh trainable state for same-kind, same-shaped target adapters;
    VeRA targets must share one frozen pair.

    Mean init sets the shared parameter to the exact mean of the targets'
    and copies the first M cluster parameters; random init draws both
    from N(0, 0.02).  Routing logits, present only when M < K, are always
    drawn from N(0, 1).  Draw order: shared, clusters, then logits.
    """
    if not targets:
        raise ParameterError("need at least one target adapter")
    cfg.validate(len(targets))
    random = cfg.init_scheme is InitScheme.RANDOM
    return _new_state(targets, cfg.num_clusters, rng, _RANDOM_INIT_STDEV if random else None)


def _routing(state, cfg: HydraConfig, num_tasks: int) -> np.ndarray | None:
    """Routing weights, or None under identity routing (which needs M == K)."""
    if state.logits is not None:
        if len(state.logits) != num_tasks:
            raise ParameterError(f"{len(state.logits)} logit rows cannot route {num_tasks} tasks")
        return softmax_rows(state.logits, cfg.temperature)
    if state.num_clusters != num_tasks:
        raise ParameterError(
            f"{state.num_clusters} clusters cannot be identity-routed to {num_tasks} tasks"
        )
    return None


def loss(state, targets, cfg: HydraConfig) -> tuple[float, list[float]]:
    """Objective and per-task distances, routed if the state has logits."""
    return _kernel(targets, cfg)(state)[:2]


def loss_eq1(state, targets, cfg: HydraConfig) -> tuple[float, list[float]]:
    """Routed objective; requires routing logits to be present."""
    if state.logits is None:
        raise ParameterError("routed loss needs logits; this state was built with M == K")
    return loss(state, targets, cfg)


def loss_eq2(state, targets, cfg: HydraConfig) -> tuple[float, list[float]]:
    """Identity-routed objective for M == K (one cluster per task)."""
    if state.logits is not None:
        raise ParameterError("identity-routed loss does not use logits")
    return loss(state, targets, cfg)


def _logit_grad(weights: np.ndarray, inner: np.ndarray, temperature: float) -> np.ndarray:
    """dC from ``inner[i, j] = <G_i, U_j>`` through the softmax."""
    row_mix = (weights * inner).sum(axis=1, keepdims=True)
    return (weights / temperature) * (inner - row_mix)


def _mix(weights: np.ndarray | None, clusters: np.ndarray) -> np.ndarray:
    """``w @ c`` per task, from the stacked clusters ``c``."""
    return clusters if weights is None else np.tensordot(weights, clusters, axes=(1, 0))


@np.errstate(over="ignore", invalid="ignore")  # the guards type non-finite results
def _loss_and_grads_dense(state, mats: list[Matrix], cfg: HydraConfig):
    """Loss and gradients from one streamed d x k residual per task, with
    mixing and the chain rule in cluster space; no cluster product is
    formed.  A target shaped unlike its prediction raises
    :class:`ShapeError`, a non-finite prediction :class:`NumericalError`."""
    weights = _routing(state, cfg, len(mats))
    basis = state.basis()
    clusters = np.stack(state.clusters)
    mixed = _mix(weights, clusters)
    pulled = np.empty_like(mixed)  # E_i, the gradient with respect to c_mix_i
    per_task, shared = [], None
    for i, (target, c) in enumerate(zip(mats, mixed)):
        pred = state.adapter_type.predict(c, basis)
        if target.shape != pred.shape:
            raise ShapeError(f"target {i} has shape {target.shape}, its prediction {pred.shape}")
        value, g = distance_and_grad(target, pred, cfg.distance)
        if not np.isfinite(value):
            raise NumericalError(f"the prediction for task {i} overflowed to non-finite values")
        per_task.append(value)
        pulled[i], term = state.adapter_type.pull_back(g, c, basis)
        shared = term if shared is None else np.add(shared, term, out=shared)
    shared = state.adapter_type.shared_grad(shared, state.frozen)
    return _chain_rule(state, weights, clusters, per_task, pulled, shared, cfg)


def _chain_rule(state, weights, clusters, per_task, pulled, shared, cfg: HydraConfig):
    """``(loss, per_task, grads)`` from ``pulled[i] = E_i``, the gradient
    with respect to ``c_mix_i``, and the ``shared`` parameter's gradient:
    ``dc_j = sum_i w[i, j] E_i`` and the logits' ``g[i, j] = <E_i, c_j>``."""
    shared_name, cluster_name = state.NAMES
    grads = {shared_name: shared}
    if weights is not None:
        inner = pulled.reshape(len(pulled), -1) @ clusters.reshape(len(clusters), -1).T
        grads["logits"] = _logit_grad(weights, inner, cfg.temperature)
        pulled = np.tensordot(weights, pulled, axes=(0, 0))
    for j, grad in enumerate(pulled):
        grads[f"{cluster_name}.{j}"] = grad
    return float(sum(per_task)), per_task, HydraGrads(grads)


def _cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y^T`` over the last two axes, always as the same general product.

    Both operands reach BLAS C-contiguous, the right one as a fresh copy:
    the rounding of a product depends on the operand layout, and numpy
    turns ``x @ x.T`` on one buffer into a symmetric rank-k update.  The
    exact-fit guarantee rests on every Gram factor taking one path.
    """
    return np.matmul(np.ascontiguousarray(x), np.ascontiguousarray(np.swapaxes(y, -1, -2)))


def _trace(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``<x, y>`` over the last two axes, broadcasting the leading ones."""
    return np.sum(x * y, axis=(-2, -1))


@dataclass(frozen=True)
class _LowRankTargets:
    """Target factors in the layout of the factored kernel."""

    b_t: np.ndarray  # (K, r, d): b_i^T
    a: np.ndarray  # (K, r, k)
    tt: np.ndarray  # (K,): <T_i, T_i>
    size: int  # d * k

    @classmethod
    @np.errstate(over="ignore", invalid="ignore")  # a non-finite tt is a typed error later
    def of(cls, targets: Sequence[LowRankAdapter]) -> "_LowRankTargets":
        b_t = np.ascontiguousarray(np.stack([as_matrix(t.b, "target B").T for t in targets]))
        a = np.stack([as_matrix(t.a, "target A") for t in targets])
        d, _, k = targets[0].shape_signature()
        return cls(b_t=b_t, a=a, tt=_trace(_cross(b_t, b_t), _cross(a, a)), size=d * k)


@np.errstate(over="ignore", invalid="ignore")  # the guards type non-finite results
def _loss_and_grads_factored(state: HydraState, tgt: _LowRankTargets, cfg: HydraConfig):
    """Loss and gradients of a smooth distance from r x r Gram products."""
    a_shared = state.a_shared
    clusters_t = np.ascontiguousarray(np.swapaxes(np.stack(state.b_clusters), 1, 2))  # B_j^T
    weights = _routing(state, cfg, len(tgt.tt))
    mix_t = _mix(weights, clusters_t)  # Bmix_i^T
    cross_b = _cross(mix_t, tgt.b_t)  # Bmix_i^T b_i
    gram_b = _cross(mix_t, mix_t)  # Bmix_i^T Bmix_i
    cross_a = _cross(a_shared, tgt.a)  # A a_i^T
    gram_a = _cross(a_shared, a_shared)  # A A^T
    values, alpha, beta = smooth_terms(
        tgt.tt, _trace(cross_b, cross_a), _trace(gram_b, gram_a), tgt.size, cfg.distance
    )
    alpha3 = alpha[:, None, None]
    beta3 = beta[:, None, None]
    shared = (np.matmul(alpha3 * cross_b, tgt.a) + np.matmul(beta3 * gram_b, a_shared)).sum(axis=0)
    # (G_i A^T)^T, one r x d block per task: E_i and B_j as transposed views.
    g_at_t = np.matmul(alpha3 * cross_a, tgt.b_t) + np.matmul(beta3 * gram_a, mix_t)
    pulled, clusters = np.swapaxes(g_at_t, 1, 2), np.swapaxes(clusters_t, 1, 2)
    return _chain_rule(state, weights, clusters, values.tolist(), pulled, shared, cfg)


# Entries of one row block of a VeRA residual.
_BLOCK_ENTRIES = ROW_BLOCK_ENTRIES


@dataclass(frozen=True)
class _VeraTargets:
    """VeRA targets as their vectors over their one frozen pair."""

    lambda_b: np.ndarray  # (K, d)
    lambda_d: np.ndarray  # (K, r)
    frozen: tuple[Matrix, Matrix]

    @classmethod
    def of(cls, targets: Sequence[VeraAdapter]) -> "_VeraTargets":
        check_slot({f"target {i}": t for i, t in enumerate(targets)}, "the targets")
        lambda_b = np.stack([t.lambda_b for t in targets])
        lambda_d = np.stack([t.lambda_d for t in targets])
        return cls(lambda_b, lambda_d, targets[0].frozen)


@np.errstate(over="ignore", invalid="ignore")  # the guards type non-finite results
def _loss_and_grads_vera_mae(state: VeraHydraState, tgt: _VeraTargets, cfg: HydraConfig):
    """MAE loss and gradients from each task's rank-r residual ``R_i = W_i
    shared_a``, ``W_i = left_factor(target) - left_factor(c_mix_i)``, built
    one row block at a time: no d x k array but the two block buffers.

    With ``G_i = -sign(R_i) / (d k)`` only ``M_i = G_i shared_a^T`` (d x r)
    reaches the chain rule, through ``VeraAdapter.pull_back_left``."""
    shared_a, shared_b = state.frozen
    weights = _routing(state, cfg, len(tgt.lambda_b))
    clusters = np.stack(state.clusters)
    mixed = _mix(weights, clusters)
    d, k = len(shared_b), shared_a.shape[1]
    size, (rows, row_slices) = d * k, row_blocks(d, k, _BLOCK_ENTRIES)
    blocks, signs = np.empty((rows, k)), np.empty((rows, k))
    pulled, shared = np.empty_like(mixed), np.zeros_like(state.shared)
    per_task = []
    for i, (lb, ld, c) in enumerate(zip(tgt.lambda_b, tgt.lambda_d, mixed)):
        left = VeraAdapter.left_factor(ld, lb, shared_b)
        left -= VeraAdapter.left_factor(state.shared, c, shared_b)
        m, total = np.empty_like(left), 0.0
        for span in row_slices:
            n = span.stop - span.start
            block, sign = blocks[:n], signs[:n]
            np.matmul(left[span], shared_a, out=block)
            np.sign(block, out=sign)
            total += float(np.vdot(sign, block))  # sum |R| over the block
            np.matmul(sign, shared_a.T, out=m[span])
        value = total / size
        if not np.isfinite(value):
            raise NumericalError(f"the prediction for task {i} overflowed to non-finite values")
        per_task.append(value)
        m *= -1.0 / size
        pulled[i], term = VeraAdapter.pull_back_left(m, c, state.shared, shared_b)
        shared += term
    return _chain_rule(state, weights, clusters, per_task, pulled, shared, cfg)


def _kernel(targets, cfg: HydraConfig):
    """``state -> (loss, per_task, grads)`` for fixed targets: factored for a
    smooth distance on LoRA targets and for MAE on VeRA targets, dense
    otherwise.  Under ``cos`` a zero target raises
    :class:`DegenerateInputError` carrying the task index.  For adapter
    targets, a state that could not share a slot with them (another kind,
    ``(d, r, k)`` or frozen pair; see :func:`check_slot`) raises
    :class:`ValidationError`."""
    kernel = _unchecked_kernel(targets, cfg)
    adapters = [(f"target {i}", t) for i, t in enumerate(targets) if isinstance(t, Adapter)]
    if not adapters:  # dense target matrices carry no kind
        return kernel
    first = dict(adapters[:1])

    def checked(state):
        check_slot({**first, "the state": state.member(0)}, "the state and its targets")
        return kernel(state)

    return checked


def _unchecked_kernel(targets, cfg: HydraConfig):
    """The kernel :func:`_kernel` chooses, before its state check."""
    kinds = {type(t) for t in targets}
    if kinds == {VeraAdapter} and cfg.distance is DistanceKind.MAE:
        vera = _VeraTargets.of(targets)
        return lambda state: _loss_and_grads_vera_mae(state, vera, cfg)
    if kinds == {LowRankAdapter} and cfg.distance in SMOOTH_DISTANCES:
        factored = _LowRankTargets.of(targets)
        norms = factored.tt
        kernel = lambda state: _loss_and_grads_factored(state, factored, cfg)
    else:
        mats = _target_matrices(targets)
        norms = map(np.linalg.norm, mats)  # lazy: only cos reads them
        kernel = lambda state: _loss_and_grads_dense(state, mats, cfg)
    if cfg.distance is DistanceKind.COS:
        for i, norm in enumerate(norms):
            if norm == 0.0:
                msg = f"cosine distance is undefined for a zero matrix (target {i} is zero)"
                raise DegenerateInputError(msg, task=i)
    return kernel


def gradients(state, targets, cfg: HydraConfig) -> HydraGrads:
    """Analytic gradients of the objective for every trainable tensor.

    ``targets`` are adapters or their dense update matrices; the kernel is
    the one :func:`train` runs for the same targets."""
    return _kernel(targets, cfg)(state)[2]


def adamw_step(state, grads: HydraGrads, cfg: HydraConfig):
    """One Adam update with bias correction over all trainable tensors.

    theta <- theta - lr * m_hat / (sqrt(v_hat) + ADAM_EPS)
    """
    state.step += 1
    correction1 = 1.0 - ADAM_BETA1**state.step
    correction2 = 1.0 - ADAM_BETA2**state.step
    for name, theta in state.named_tensors():
        grad = grads.tensors[name]
        m, v = state.moments[name]
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        state.moments[name] = (m, v)
        theta -= cfg.learning_rate * ((m / correction1) / (np.sqrt(v / correction2) + ADAM_EPS))
    return state


def train(targets: Sequence, cfg: HydraConfig, rng: Rng):
    """Full-batch training loop for either kind: gradients + AdamW for
    ``cfg.epochs`` steps.  The trace records the loss at the start of every iteration; its
    ``final_loss`` is evaluated after the last update.
    """
    state = init_state(targets, cfg, rng)
    return state, _fit(state, _kernel(targets, cfg), cfg)


def _fit(state, loss_and_grads, cfg: HydraConfig) -> TrainTrace:
    """``cfg.epochs`` AdamW steps on ``loss_and_grads(state)``, guarded.

    Raises :class:`NumericalError` naming the step when the loss or a
    gradient is non-finite, the kernel overflows, or the loss exceeds
    ``DIVERGENCE_FACTOR`` times a positive initial loss.
    """
    losses: list[float] = []
    for step in range(cfg.epochs + 1):
        try:
            value, _, grads = loss_and_grads(state)
        except NumericalError as exc:
            raise NumericalError(f"step {step}: {exc}") from exc
        _check_progress(step, value, grads, losses[0] if losses else value)
        if step < cfg.epochs:
            losses.append(value)
            adamw_step(state, grads, cfg)
    return TrainTrace(losses=losses, final_loss=value)


def _check_progress(step: int, value: float, grads: HydraGrads, initial: float) -> None:
    if not np.isfinite(value):
        raise NumericalError(f"step {step}: loss became non-finite ({value})")
    for name, grad in grads.tensors.items():
        if not np.all(np.isfinite(grad)):
            raise NumericalError(f"step {step}: gradient of {name} became non-finite")
    if initial > 0.0 and value > DIVERGENCE_FACTOR * initial:
        raise NumericalError(
            f"step {step}: loss {value:.6g} exceeds {DIVERGENCE_FACTOR:g} x the "
            f"initial loss {initial:.6g}; training diverged (lower the learning rate)"
        )


def assign_tasks(state, cfg: HydraConfig) -> list[int]:
    """Cluster index per task: the argmax of each logit row (ties resolve
    to the lowest index), or the identity when logits were never created.
    The logits play no further role after this."""
    if state.logits is None:
        return list(range(state.num_clusters))
    return [int(np.argmax(row)) for row in state.logits]


# -- collection-level driver -------------------------------------------------


def export_slot(state, assignment: list[int]):
    """Package a trained state as one bundle slot; the routing logits are
    not part of it."""
    return state.adapter_type.shared_slot(state.shared, state.clusters, state.frozen, assignment)


def _train_slot(collection: AdapterCollection, slot: SlotKey, cfg: HydraConfig):
    """Train one slot; an error keeps its type and gains the slot label
    (and the task name when one task is to blame)."""
    rng = Rng(cfg.seed ^ stable_hash64(slot.label()))
    try:
        state, trace = train(collection.adapters_at(slot), cfg, rng)
    except HydraMergeError as exc:
        task = getattr(exc, "task", None)
        where = "" if task is None else f"task {collection.task_ids[task]}: "
        raise type(exc)(f"slot {slot.label()}: {where}{exc}") from exc
    return export_slot(state, assign_tasks(state, cfg)), trace


def merge_collection_hydra(
    collection: AdapterCollection, cfg: HydraConfig
) -> tuple[MergedBundle, dict]:
    """Train one independent state per slot and assemble the bundle.

    Each slot draws from its own stream, ``seed xor hash(slot label)``, so
    no slot's result depends on another's.
    """
    cfg.validate(collection.num_tasks)
    bundle = MergedBundle.of(collection, "hydraopt")
    per_slot = {}
    for slot in collection.slots:
        bundle.entries[slot], trace = _train_slot(collection, slot, cfg)
        per_slot[slot.label()] = {
            "initial_loss": trace.initial_loss,
            "final_loss": trace.final_loss,
        }
    report = {"per_slot": per_slot}
    for key in ("initial_loss", "final_loss"):
        report[key] = sum(entry[key] for entry in per_slot.values())
    bundle.validate()
    return bundle, report


def globalize_assignment(bundle: MergedBundle) -> MergedBundle:
    """Rewrite per-slot assignments to each task's majority cluster.

    Off by default; only meaningful when every slot carries the same
    number of clusters.  Ties resolve to the lowest cluster index.
    """
    shared = [e for e in bundle.entries.values() if isinstance(e, SharedSlot)]
    if not shared:
        return bundle
    counts = {len(e.clusters) for e in shared}
    if len(counts) != 1:
        raise ValidationError("cannot globalize: slots have differing cluster counts")
    num_clusters = counts.pop()
    majority = []
    for i in range(len(bundle.tasks)):
        votes = np.zeros(num_clusters, dtype=int)
        for e in shared:
            votes[e.assignment[i]] += 1
        majority.append(int(np.argmax(votes)))
    for e in shared:
        e.assignment = majority.copy()
    return bundle


# Names from when each kind had its own functions.
vera_loss = loss
_loss_and_grads_lora = _loss_and_grads_dense
_lora_kernel = _kernel


def init_vera_state(targets: Sequence[VeraAdapter], cfg: HydraConfig, rng: Rng):
    """:func:`init_state` for VeRA targets."""
    return init_state(targets, cfg, rng)


def train_vera(targets: Sequence[VeraAdapter], cfg: HydraConfig, rng: Rng):
    """:func:`train` for VeRA targets."""
    return train(targets, cfg, rng)
