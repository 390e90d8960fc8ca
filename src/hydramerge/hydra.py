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
moments and the step count, except that it holds its clusters as one
C-contiguous ``(M, *cluster shape)`` array ``c``, stacked once when it is
built; cluster j's tensor is a view of row j, so Adam updates the stack
in place, and :func:`export_slot` lists its rows.  ``L``, its adjoint
and its rank-r factors are static methods of the slot's
``adapter_type`` (see :mod:`hydramerge.adapters`).  LoRA learns a shared
input-side factor ``A`` (r x k) and cluster factors ``B_j`` (d x r);
VeRA keeps its frozen pair and learns a shared inner vector
``lambda_d`` (r) and cluster outer vectors ``lambda_b_j`` (d).

Every kernel is a generator run by one evaluation step, :func:`_step`.
The step reads the state's stack ``c`` as it is and mixes it once into a
new K-row buffer, ``c_mix = w @ c`` (under identity routing a copy of
``c``), and the kernel reads task i's ``c_mix_i`` from row i.  It
yields, task by task, ``(distance_i, E_i, term_i)``: the distance,
``E_i`` the gradient with respect to ``c_mix_i``, which the step writes
over row i, and the task's term of the shared gradient.  The step does
the rest once for all kernels: it routes, holds numpy's error state,
raises :class:`NumericalError` naming the first task whose distance is
not finite, sums the shared terms and applies the one chain rule in
cluster space: ``dc_j = sum_i w[i, j] E_i``, and the routing logits get

    g[i, j] = <G_i, U_j> = <E_i, c_j>            (flattened inner products)
    dC[i,m] = (w[i, m] / temperature) * (g[i, m] - sum_j w[i, j] g[i, j])

The kernel is chosen by the distance alone.  Every update a kernel fits
is a rank-r product of the kind's ``factors``: ``T_i = L_t,i R_t,i`` for
target i and ``P_i = L_p,i R_p`` for its prediction, with ``L_p,i`` the
left factor of ``c_mix_i``.  For LoRA these are ``(b_i, a_i)`` and
``(Bmix_i, A)``; for VeRA ``(W_i, shared_a)`` and ``(W(c_mix_i),
shared_a)``, so VeRA's right factor is frozen and equal on both sides.
A kernel reaches the chain rule through ``M_i = G_i R_p^T`` (d x r) and,
for a trained right factor, ``N_i = L_p,i^T G_i`` (r x k), which the
kind's ``pull_back_factors`` turns into ``E_i`` and the task's finished
shared term.  Each input is checked once, where it enters, with
:func:`~hydramerge.adapters.check_slot`: :func:`init_state` checks that
adapter targets could share one slot (one kind, ``(d, r, k)`` and frozen
pair), and each call of :func:`loss` or :func:`gradients` checks its
targets and then the state against target 0, through the state's own
``sides`` and ``shape_signature``: no adapter is built of it, so a
non-finite state reaches the kernel, which names the task.
:func:`train` builds its state from the targets it checked, so its steps
check nothing; the kernels rely on the one frozen pair this guarantees.

Under MAE the blocked kernel takes each residual ``R_i`` one block of
rows at a time, about ``_BLOCK_ENTRIES`` entries, from
:func:`~hydramerge.linalg.residual_blocks`, the one builder the
reconstruction report uses too, into one reused buffer, and writes its
sign into a second.  A frozen right factor makes a block one product,
``(L_t,i - L_p,i)[rows] R_p``; a trained one makes it ``L_t,i[rows]
R_t,i`` minus ``L_p,i[rows] R_p``, two products of one C-ordered layout.
The kernel keeps the sum of ``|R_i|``, ``M_i`` and ``N_i`` with ``G_i =
-sign(R_i) / (d k)``, and pulls each task back before the next.  No
other ``d x k`` array is formed, not even a target.

Under a smooth distance (mse, fro, cos) the Gram kernel never forms a
``d x k`` array either: every quantity is a trace of ``r x r`` Gram
products, taken one task at a time,

    tt_i = <T_i, T_i> = <L_t,i^T L_t,i, R_t,i R_t,i^T>     (fixed per run)
    tp_i = <T_i, P_i> = <L_p,i^T L_t,i, R_p R_t,i^T>
    pp_i = <P_i, P_i> = <L_p,i^T L_p,i, R_p R_p^T>

:func:`~hydramerge.linalg.smooth_terms` maps them to the loss and to
``(alpha_i, beta_i)`` with ``G_i = alpha_i T_i + beta_i P_i``, so

    M_i = alpha_i L_t,i (R_t,i R_p^T) + beta_i L_p,i (R_p R_p^T)
    N_i = alpha_i (L_p,i^T L_t,i) R_t,i + beta_i (L_p,i^T L_p,i) R_p

at ``O(K r^2 (d + k) + K M r d)`` per step.  Like the blocked kernel it
builds each target's factors from its adapter in turn and keeps only
``tt`` between steps; a step holds one K-row buffer of cluster-shaped
rows, ``c_mix_i`` and then ``E_i``, plus one task's factors and
products, never a K-stack of the targets' or the predictions' factors.
Target-side and prediction-side products run through the same
operations, so in either kernel equal factors give a loss of exactly 0
and gradient terms that cancel exactly.  A target whose ``tt_i``
overflows raises :class:`~hydramerge.errors.NumericalError` naming the
task before the first step.

The dense kernel builds ``P_i = predict(c_mix_i, basis)`` and streams one
``d x k`` residual per task; ``pull_back`` turns the distance gradient
``G_i`` at ``P_i`` into ``E_i = L^T(G_i)`` and the task's term of the
shared gradient; the step finishes their sum once with ``shared_grad``.
It serves dense target matrices and is the reference both factored
kernels are tested against.
:func:`loss`, :func:`gradients` and :func:`train` run the same kernel for
the same targets.

Training stops with :class:`~hydramerge.errors.NumericalError`, naming the
slot, the step and, where one is to blame, the task, when a row of
routing logits, a prediction, the loss or a gradient turns non-finite or
the loss exceeds ``DIVERGENCE_FACTOR`` times a positive initial loss.

Updates use Adam with bias correction and no weight decay.  After
training each task is assigned ``argmax_j C[i, j]`` and the logits are
discarded; storage per LoRA slot is then ``M * r * d + r * k`` against
``K * r * (d + k)`` for the originals.  Training never looks at task
data: the target adapters themselves are the regression labels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar, Sequence

import numpy as np

from .adapters import (
    Adapter,
    AdapterCollection,
    MergedBundle,
    SharedLoraSlot,
    SharedSlot,
    SharedVeraSlot,
    SlotKey,
    check_cluster_shapes,
    check_slot,
    delta_factors,
    delta_weight,
    stand_in,
)
from .errors import (
    DegenerateInputError,
    NumericalError,
    ParameterError,
    ShapeError,
    ValidationError,
    coerce_enums,
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
    residual_blocks,
    row_blocks,
    smooth_terms,
    softmax_rows,
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

    An unknown enum value or a field out of range raises
    :class:`ParameterError` when the config is built; :meth:`validate`
    checks the one rule that needs the targets, ``num_clusters <= K``.
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
        coerce_enums(self, distance=DistanceKind, init_scheme=InitScheme)
        if self.num_clusters < 1:
            raise ParameterError(f"num_clusters must be >= 1, got {self.num_clusters}")
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        for name in ("temperature", "learning_rate"):
            if not 0 < getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be finite and > 0, got {getattr(self, name)}")

    def validate(self, num_tasks: int) -> None:
        if self.num_clusters > num_tasks:
            msg = f"num_clusters = {self.num_clusters} exceeds the {num_tasks} tasks"
            raise ParameterError(msg)


@dataclass(kw_only=True)
class _RoutedState:
    """A slot being trained: the bundle slot's fields (its ``shared``,
    ``clusters`` and ``frozen`` parts, which ``NAMES`` names) plus routing
    logits (absent when M == K), Adam's ``(m, v)`` moments and the step
    count.  The slot's ``assignment`` stays empty while training;
    :func:`export_slot` builds the bundle slot with the argmax assignment.

    However it is built, the state holds its clusters as one C-contiguous
    ``(M, *cluster shape)`` array, stacked once here from the list it is
    given, in the field ``CLUSTERS`` names; cluster j is row j.  An empty
    list, or clusters that differ in shape, raise :class:`ValidationError`."""

    NAMES: ClassVar[tuple[str, str]]
    CLUSTERS: ClassVar[str]
    logits: Matrix | None
    moments: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    step: int = 0
    assignment: list[int] = field(default_factory=list)

    def __post_init__(self):
        super().__post_init__()  # an empty cluster list raises here
        check_cluster_shapes(self.clusters)
        setattr(self, self.CLUSTERS, np.ascontiguousarray(np.stack(self.clusters)))

    @property
    def params(self):
        return self.shared, self.clusters

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        """Each trainable tensor by name; cluster j is a view of row j, so
        an update in place (:func:`adamw_step`) updates the stack."""
        shared_name, cluster_name = self.NAMES
        out = [(shared_name, self.shared)]
        out += [(f"{cluster_name}.{j}", c) for j, c in enumerate(self.clusters)]
        if self.logits is not None:
            out.append(("logits", self.logits))
        return out

    def basis(self) -> Matrix:
        return self.adapter_type.basis(self.shared, self.frozen)

    # the state stands for cluster 0's adapter where its slot is checked (_evaluate)
    def sides(self) -> tuple[Matrix, Matrix]:
        """Cluster 0's adapter's ``sides()``: vectors become columns."""
        return tuple(np.reshape(p, (len(p), -1)) for p in (self.shared, self.clusters[0]))

    def shape_signature(self) -> tuple:
        """``(d, r, k)`` of cluster 0's adapter, from the parts' shapes alone."""
        parts = (stand_in(np.shape(p)) for p in (self.shared, self.clusters[0]))
        return self.adapter_type.from_sides(*parts, self.frozen).shape_signature()


@dataclass
class HydraState(_RoutedState, SharedLoraSlot):
    """LoRA: shared input-side factor ``A``, cluster factors ``B_j``."""

    NAMES: ClassVar[tuple[str, str]] = ("a_shared", "b")
    CLUSTERS: ClassVar[str] = "b_clusters"


@dataclass
class VeraHydraState(_RoutedState, SharedVeraSlot):
    """VeRA: inner vector ``lambda_d``, cluster outer vectors ``lambda_b_j``."""

    NAMES: ClassVar[tuple[str, str]] = ("lambda_d", "lambda_b")
    CLUSTERS: ClassVar[str] = "lambda_b_clusters"


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
    return [delta_weight(t) if isinstance(t, Adapter) else as_matrix(t, "target") for t in targets]


def _all_adapters(targets) -> bool:
    return bool(targets) and all(isinstance(t, Adapter) for t in targets)


def _check_targets(targets: Sequence[Adapter]) -> None:
    """Raise :class:`ValidationError` unless the adapter targets could share
    one slot: one kind, ``(d, r, k)`` and frozen pair."""
    check_slot({f"target {i}": t for i, t in enumerate(targets)}, "the targets")


def _new_state(targets, num_clusters: int, rng: Rng, stdev: float | None):
    """A state of the checked targets' kind as :func:`init_state` draws it,
    with N(0, stdev) parameters or, for ``stdev=None``, the mean init."""
    first = targets[0]
    own = [t.sides() for t in targets]
    if stdev is None:
        shared = exact_mean([s for s, _ in own])
        clusters = [c for _, c in own[:num_clusters]]  # the state stacks a copy
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
    VeRA targets must share one frozen pair.  The targets are checked
    here, once, with :func:`check_slot`.

    Mean init sets the shared parameter to the exact mean of the targets'
    and copies the first M cluster parameters; random init draws both
    from N(0, 0.02).  Routing logits, present only when M < K, are always
    drawn from N(0, 1).  Draw order: shared, clusters, then logits.
    """
    if not targets:
        raise ParameterError("need at least one target adapter")
    cfg.validate(len(targets))
    _check_targets(targets)
    random = cfg.init_scheme is InitScheme.RANDOM
    return _new_state(targets, cfg.num_clusters, rng, _RANDOM_INIT_STDEV if random else None)


def _routing(state, cfg: HydraConfig, num_tasks: int) -> np.ndarray | None:
    """Routing weights, or None under identity routing (which needs M == K).
    A logit row that is not finite raises :class:`NumericalError` naming
    its task."""
    if state.logits is not None:
        if len(state.logits) != num_tasks:
            raise ParameterError(f"{len(state.logits)} logit rows cannot route {num_tasks} tasks")
        if not np.all(np.isfinite(state.logits)):
            task = int(np.argmin(np.isfinite(state.logits).all(axis=1)))  # the first such row
            raise NumericalError(f"the routing logits of task {task} became non-finite")
        return softmax_rows(state.logits, cfg.temperature)
    if state.num_clusters != num_tasks:
        raise ParameterError(
            f"{state.num_clusters} clusters cannot be identity-routed to {num_tasks} tasks"
        )
    return None


def _evaluate(state, targets, cfg: HydraConfig):
    """``(loss, per_task, grads)`` at ``state``.  Adapter targets are first
    checked to share a slot, then the state itself to share it with target
    0 (by kind, ``(d, r, k)`` and frozen pair, with no adapter built, so a
    non-finite state reaches the kernel, which names the task), each once,
    else :class:`ValidationError`."""
    if _all_adapters(targets):
        _check_targets(targets)
        check_slot({"target 0": targets[0], "the state": state}, "the state and its targets")
    return _kernel(targets, cfg)(state)


def loss(state, targets, cfg: HydraConfig) -> tuple[float, list[float]]:
    """Objective and per-task distances, routed if the state has logits."""
    return _evaluate(state, targets, cfg)[:2]


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
    """``w @ c`` per task, from the stacked clusters ``c``, as a new array:
    under identity routing, a copy of ``c``."""
    return clusters.copy() if weights is None else np.tensordot(weights, clusters, axes=(1, 0))


@np.errstate(over="ignore", invalid="ignore")  # the check below types non-finite results
def _step(kernel, finish, state, targets, *args):
    """One evaluation step, ``(loss, per_task, grads)``: it owns what every
    kernel shares.

    It routes, mixes the state's stacked clusters ``c`` once into a new
    K-row buffer, ``c_mix = w @ c`` (under identity routing a copy of
    ``c``, the only copy of the clusters a step makes) and iterates
    ``kernel(state, c_mix, targets, *args)``, whose last argument is the
    config.  The kernel reads task i's ``c_mix_i`` from row i and yields
    ``(distance_i, E_i, term_i)`` for each task in order: ``E_i`` is the
    gradient with respect to ``c_mix_i``, which the step writes over row i,
    so the kernel must not read row i once it has yielded it; ``term_i``,
    a fresh array, is the task's term of the shared gradient.  A
    non-finite distance, or a :class:`NumericalError` while task i is
    evaluated, raises :class:`NumericalError` naming task i.
    ``finish(state, total)`` turns the summed terms into the shared
    parameter's gradient; the chain rule gives the rest: ``dc_j = sum_i
    w[i, j] E_i`` and the logits' ``g[i, j] = <E_i, c_j>``."""
    cfg = args[-1]
    weights = _routing(state, cfg, len(targets))
    clusters = state.clusters
    mixed = _mix(weights, clusters)  # row i holds c_mix_i, then E_i
    terms = kernel(state, mixed, targets, *args)
    per_task, shared = [], None
    for i in range(len(targets)):
        try:
            value, mixed[i], term = next(terms)
        except NumericalError:  # smooth_terms refuses a non-finite trace
            value = math.nan
        if not np.isfinite(value):
            raise NumericalError(f"the prediction for task {i} overflowed to non-finite values")
        per_task.append(value)
        shared = term if shared is None else np.add(shared, term, out=shared)
    terms.close()  # the kernel's locals go before the chain rule allocates
    shared_name, cluster_name = state.NAMES
    grads = {shared_name: finish(state, shared)}
    if weights is not None:
        inner = mixed.reshape(len(mixed), -1) @ clusters.reshape(len(clusters), -1).T
        grads["logits"] = _logit_grad(weights, inner, cfg.temperature)
        mixed = np.tensordot(weights, mixed, axes=(0, 0))
    for j, grad in enumerate(mixed):
        grads[f"{cluster_name}.{j}"] = grad
    return float(sum(per_task)), per_task, HydraGrads(grads)


def _stepped(finish=lambda state, total: total):
    """Make a generator of per-task terms into ``(state, targets, *args,
    cfg) -> (loss, per_task, grads)``, run by :func:`_step`."""
    return lambda kernel: functools.wraps(kernel)(functools.partial(_step, kernel, finish))


@_stepped(finish=lambda state, total: state.adapter_type.shared_grad(total, state.frozen))
def _loss_and_grads_dense(state, mixed, mats: list[Matrix], cfg: HydraConfig):
    """The dense kernel: one streamed d x k residual per task, with the
    pull-back in cluster space; no cluster product is formed.  A target
    shaped unlike its prediction raises :class:`ShapeError`."""
    basis = state.basis()
    for i, (target, c) in enumerate(zip(mats, mixed)):
        pred = state.adapter_type.predict(c, basis)
        if target.shape != pred.shape:
            raise ShapeError(f"target {i} has shape {target.shape}, its prediction {pred.shape}")
        value, g = distance_and_grad(target, pred, cfg.distance)
        yield (value, *state.adapter_type.pull_back(g, c, basis))


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


@np.errstate(over="ignore", invalid="ignore")  # an overflowed norm is typed here
def _squared_norms(targets, distance: DistanceKind) -> np.ndarray:
    """``tt[i] = <T_i, T_i>``, one task at a time: of a dense target, or of
    an adapter from its own :func:`delta_factors`.  Raises, naming the task,
    for a norm that is not finite or, under ``cos``, is zero."""
    tt = np.empty(len(targets))
    for i, target in enumerate(targets):
        if isinstance(target, Adapter):
            left, right = delta_factors(target)
            tt[i] = _trace(_cross(left.T, left.T), _cross(right, right))
        else:
            tt[i] = np.vdot(target, target)
        if not np.isfinite(tt[i]):
            msg = f"the Gram trace <T, T> of target {i} overflowed to a non-finite value"
            raise NumericalError(msg, task=i)
        if tt[i] == 0.0 and distance is DistanceKind.COS:
            msg = f"cosine distance is undefined for a zero matrix (target {i} is zero)"
            raise DegenerateInputError(msg, task=i)
    return tt


@_stepped()
def _loss_and_grads_factored(state, mixed, targets: Sequence[Adapter], tt, cfg):
    """The Gram kernel: loss and gradients of a smooth distance, for either
    kind, from r x r Gram products of the targets' and the predictions'
    rank-r factors, one task at a time; ``tt`` is :func:`_squared_norms`.
    Task i's prediction factor ``L_p,i`` is the left factor of its own
    ``c_mix_i``."""
    kind = state.adapter_type
    right_p = kind.factors(state.shared, mixed[0], state.frozen)[1]  # R_p, one for every task
    gram_r = _cross(right_p, right_p)  # R_p R_p^T
    size = len(mixed[0]) * right_p.shape[1]  # d k
    for i, (target, c) in enumerate(zip(targets, mixed)):
        left_p = np.ascontiguousarray(kind.factors(state.shared, c, state.frozen)[0].T)  # L_p,i^T
        left, right = delta_factors(target)
        cross_l = _cross(left_p, left.T)  # L_p,i^T L_t,i
        gram_l = _cross(left_p, left_p)  # L_p,i^T L_p,i
        # R_p R_t,i^T; a frozen right factor is one for the slot (see _kernel), so R_t,i = R_p
        cross_r = gram_r if kind.right_frozen else _cross(right_p, right)
        tp, pp = _trace(cross_l, cross_r), _trace(gram_l, gram_r)
        value, alpha, beta = smooth_terms(tt[i], tp, pp, size, cfg.distance)
        # M_i^T = (G_i R_p^T)^T (r x d) and N_i = L_p,i^T G_i, each operand C-ordered
        m_t = np.matmul(alpha * cross_r, np.ascontiguousarray(left.T))
        m_t += np.matmul(beta * gram_r, left_p)
        n = None if kind.right_frozen else np.matmul(alpha * cross_l, np.ascontiguousarray(right))
        if n is not None:
            n += np.matmul(beta * gram_l, right_p)
        yield (float(value), *kind.pull_back_factors(m_t.T, n, c, state.shared, state.frozen))


# Entries of one row block of a residual.
_BLOCK_ENTRIES = ROW_BLOCK_ENTRIES


@_stepped()
def _loss_and_grads_vera_mae(state, mixed, targets: Sequence[Adapter], cfg):
    """The blocked kernel: MAE loss and gradients, for either kind, from
    each task's residual ``R_i = L_t,i R_t,i - L_p,i R_p``, taken one row
    block at a time from :func:`~hydramerge.linalg.residual_blocks`: no
    d x k array but its two block buffers, the second of which then holds
    the block's sign.

    With ``G_i = -sign(R_i) / (d k)`` only ``M_i = G_i R_p^T`` (d x r) and,
    for a trained right factor, ``N_i = L_p,i^T G_i`` (r x k) reach the
    chain rule, through ``pull_back_factors``."""
    kind = state.adapter_type
    d, _, k = targets[0].shape_signature()
    size, (rows, row_slices) = d * k, row_blocks(d, k, _BLOCK_ENTRIES)
    buffers = np.empty((rows, k)), np.empty((rows, k))
    for target, c in zip(targets, mixed):
        left_p, right_p = kind.factors(state.shared, c, state.frozen)
        m, total = np.empty((d, len(right_p))), 0.0
        n = None if kind.right_frozen else np.zeros_like(right_p)
        residual = residual_blocks(
            delta_factors(target), (left_p, right_p), kind.right_frozen, row_slices, buffers
        )
        for span, block in residual:
            sign = np.sign(block, out=buffers[1][: len(block)])
            total += float(np.vdot(sign, block))  # sum |R| over the block
            np.matmul(sign, right_p.T, out=m[span])
            if n is not None:
                n += left_p[span].T @ sign
        m *= -1.0 / size
        if n is not None:
            n *= -1.0 / size
        yield (total / size, *kind.pull_back_factors(m, n, c, state.shared, state.frozen))


def _kernel(targets, cfg: HydraConfig):
    """The kernel for fixed targets, ``state -> (loss, per_task, grads)``,
    chosen by the distance alone.  Adapter targets of either kind take the
    Gram kernel under a smooth distance and the blocked kernel under MAE;
    dense target matrices take the dense kernel.  A target whose ``<T, T>``
    overflows raises :class:`NumericalError`, and under ``cos`` a zero
    target :class:`DegenerateInputError`, each carrying the task index.

    It checks no slot: the kernels assume that the state and its adapter
    targets could share one, with one frozen pair, which :func:`loss` and
    :func:`gradients` check on each call and :func:`train` gets by building
    its state from the targets :func:`init_state` checked."""
    if not _all_adapters(targets):
        mats = _target_matrices(targets)
        if cfg.distance is DistanceKind.COS:
            _squared_norms(mats, cfg.distance)
        return lambda state: _loss_and_grads_dense(state, mats, cfg)
    if cfg.distance in SMOOTH_DISTANCES:
        tt = _squared_norms(targets, cfg.distance)
        return lambda state: _loss_and_grads_factored(state, targets, tt, cfg)
    return lambda state: _loss_and_grads_vera_mae(state, targets, cfg)


def gradients(state, targets, cfg: HydraConfig) -> HydraGrads:
    """Analytic gradients of the objective for every trainable tensor.

    ``targets`` are adapters or their dense update matrices; the kernel is
    the one :func:`train` runs for the same targets."""
    return _evaluate(state, targets, cfg)[2]


def adamw_step(state, grads: HydraGrads, cfg: HydraConfig):
    """One Adam update with bias correction over all trainable tensors.

    theta <- theta - lr * m_hat / (sqrt(v_hat) + ADAM_EPS)

    ``theta`` and its moments ``m`` and ``v`` are updated in place, in the
    order of the formula's operations, through temporaries of its size.
    """
    state.step += 1
    correction1 = 1.0 - ADAM_BETA1**state.step
    correction2 = 1.0 - ADAM_BETA2**state.step
    for name, theta in state.named_tensors():
        grad = grads.tensors[name]
        m, v = state.moments[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        denom = v / correction2
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step = m / correction1
        step /= denom
        step *= cfg.learning_rate
        theta -= step
    return state


def train(targets: Sequence, cfg: HydraConfig, rng: Rng):
    """Full-batch training loop for either kind: gradients + AdamW for
    ``cfg.epochs`` steps.  The trace records the loss at the start of every iteration; its
    ``final_loss`` is evaluated after the last update.  The targets are
    checked once, by :func:`init_state`, and the state is built from them,
    so no step checks either.
    """
    state = init_state(targets, cfg, rng)
    return state, _fit(state, _kernel(targets, cfg), cfg)


def _fit(state, loss_and_grads, cfg: HydraConfig) -> TrainTrace:
    """``cfg.epochs`` AdamW steps on ``loss_and_grads(state)``, guarded.

    Raises :class:`NumericalError` naming the step when the loss or a
    gradient is non-finite, a logit row or the kernel overflows, or the
    loss exceeds ``DIVERGENCE_FACTOR`` times a positive initial loss.
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
            del grads  # not alive during the next evaluation
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
    """Package a trained state as one bundle slot, whose clusters are the
    rows of the state's stack, as a list; the routing logits are not part
    of it."""
    return state.adapter_type.shared_slot(
        state.shared, list(state.clusters), state.frozen, assignment
    )


def merge_collection_hydra(
    collection: AdapterCollection, cfg: HydraConfig
) -> tuple[MergedBundle, dict]:
    """Train one independent state per slot and assemble the bundle.

    :meth:`~hydramerge.adapters.MergedBundle.merged` walks the slots in
    order, gives each its own stream, ``seed xor hash(slot label)``, so no
    slot's result depends on another's, and labels an error with the slot
    and, when one task is to blame, the task.  The report sums the
    per-slot losses in slot order.
    """
    cfg.validate(collection.num_tasks)
    per_slot = {}

    def train_slot(slot: SlotKey, rng: Rng):
        # every step reads every target: they are read from the slot once, and held
        state, trace = train(list(collection.adapters_at(slot)), cfg, rng)
        per_slot[slot.label()] = {"initial_loss": trace.initial_loss, "final_loss": trace.final_loss}
        return export_slot(state, assign_tasks(state, cfg))

    bundle = MergedBundle.merged(collection, "hydraopt", cfg.seed, train_slot)
    report = {"per_slot": per_slot}
    for key in ("initial_loss", "final_loss"):
        report[key] = sum(entry[key] for entry in per_slot.values())
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
init_vera_state = init_state
train_vera = train
_loss_and_grads_lora = _loss_and_grads_dense
_lora_kernel = _kernel
