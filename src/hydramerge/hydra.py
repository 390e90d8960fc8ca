"""Optimization-based merging with cluster routing.

Given K per-task weight updates ``T_i = b_i @ a_i``, this module learns a
single shared input-side factor ``A`` (r x k), ``M <= K`` cluster
output-side factors ``B_j`` (d x r) and, when ``M < K``, routing logits
``C`` (K x M).  With routing weights ``w = softmax_rows(C, temperature)``
the prediction for task i is

    P_i = sum_j w[i, j] * (B_j @ A)

and the training objective is ``sum_i f(T_i, P_i)`` for a configurable
distance ``f``.  When ``M == K`` the logits are dropped entirely and task
i is tied to cluster i:

    P_i = B_i @ A

Analytic gradients, with ``G_i`` the distance gradient at task i taken
with respect to ``P_i``:

    dA      = sum_i (sum_j w[i, j] B_j)^T @ G_i
    dB_j    = (sum_i w[i, j] G_i) @ A^T
    g[i, j] = <G_i, B_j @ A>                     (flattened inner product)
    dC[i,m] = (w[i, m] / temperature) * (g[i, m] - sum_j w[i, j] g[i, j])

For the smooth distances (mse, fro, cos) on low-rank targets ``T_i =
b_i a_i`` the dense ``d x k`` matrices are never formed.  With ``Bmix_i =
sum_j w[i, j] B_j`` (``B_i`` under identity routing) every quantity is a
trace of ``r x r`` Gram products:

    tt_i = <T_i, T_i> = <b_i^T b_i,       a_i a_i^T>     (fixed per run)
    tp_i = <T_i, P_i> = <Bmix_i^T b_i,    A a_i^T>
    pp_i = <P_i, P_i> = <Bmix_i^T Bmix_i, A A^T>

:func:`~hydramerge.linalg.smooth_terms` maps them to the loss and to
``(alpha_i, beta_i)`` with ``G_i = alpha_i T_i + beta_i P_i``, so

    dA      = sum_i alpha_i (Bmix_i^T b_i) a_i + beta_i (Bmix_i^T Bmix_i) A
    dB_j^T  = sum_i w[i, j] (alpha_i (A a_i^T) b_i^T + beta_i (A A^T) Bmix_i^T)
    g[i, j] = alpha_i <B_j^T b_i, A a_i^T> + beta_i <B_j^T Bmix_i, A A^T>

at ``O(K M r^2 (d + k))`` per step.  Target-side and prediction-side
products run through the same operations, so ``b_i == Bmix_i`` and
``a_i == A`` give bit-equal traces, a loss of exactly 0 and gradient terms
that cancel exactly.  MAE, scaled-vector targets and targets given as
dense matrices use the dense kernel, which also serves as the reference
the factored one is tested against.

Training stops with :class:`~hydramerge.errors.NumericalError`, naming the
slot and step, when the loss or a gradient turns non-finite or the loss
exceeds ``DIVERGENCE_FACTOR`` times a positive initial loss.

Updates use AdamW with bias correction.  After training each task is
assigned ``argmax_j C[i, j]`` and the logits are discarded; storage per
slot is then ``M * r * d + r * k`` against ``K * r * (d + k)`` for the
originals.

The scaled-vector variant (:func:`train_vera`) keeps the frozen factor
pair of its targets and instead learns a shared inner scaling vector plus
M outer scaling vectors, routed identically.

Training never looks at task data: the target adapters themselves are the
regression labels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .adapters import (
    AdapterCollection,
    LowRankAdapter,
    MergedBundle,
    SharedLoraSlot,
    SharedVeraSlot,
    SlotKey,
    VeraAdapter,
    delta_weight,
)
from .errors import NumericalError, ParameterError, ValidationError
from .linalg import (
    SMOOTH_DISTANCES,
    DistanceKind,
    Matrix,
    Rng,
    as_matrix,
    distance,
    distance_grad,
    exact_mean,
    gaussian_sample,
    smooth_terms,
    softmax_rows,
    stable_hash64,
)

_RANDOM_INIT_STDEV = 0.02
# A loss above this multiple of a positive initial loss counts as divergence.
DIVERGENCE_FACTOR = 1e3


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
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0
    distance: DistanceKind = DistanceKind.MAE
    seed: int = 0
    init_scheme: InitScheme = InitScheme.RANDOM

    def validate(self, num_tasks: int) -> None:
        if self.num_clusters < 1:
            raise ParameterError(f"num_clusters must be >= 1, got {self.num_clusters}")
        if self.num_clusters > num_tasks:
            raise ParameterError(
                f"num_clusters = {self.num_clusters} exceeds the {num_tasks} tasks"
            )
        if not (self.temperature > 0):
            raise ParameterError(f"temperature must be > 0, got {self.temperature}")
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        if not (self.learning_rate > 0):
            raise ParameterError(f"learning_rate must be > 0, got {self.learning_rate}")
        for name, beta in (("adam_beta1", self.adam_beta1), ("adam_beta2", self.adam_beta2)):
            if not (0.0 <= beta < 1.0):
                raise ParameterError(f"{name} must be in [0, 1), got {beta}")
        if not (self.adam_eps > 0):
            raise ParameterError(f"adam_eps must be > 0, got {self.adam_eps}")
        if self.weight_decay < 0:
            raise ParameterError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclass
class Moments:
    m: np.ndarray
    v: np.ndarray


@dataclass
class HydraState:
    a_shared: Matrix
    b_clusters: list[Matrix]
    logits: Matrix | None
    moments: dict[str, Moments] = field(default_factory=dict)
    step: int = 0

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        out: list[tuple[str, np.ndarray]] = [("a_shared", self.a_shared)]
        out += [(f"b.{j}", b) for j, b in enumerate(self.b_clusters)]
        if self.logits is not None:
            out.append(("logits", self.logits))
        return out


@dataclass
class VeraHydraState:
    lambda_d: np.ndarray
    lambda_b_clusters: list[np.ndarray]
    logits: Matrix | None
    shared_b: Matrix
    shared_a: Matrix
    moments: dict[str, Moments] = field(default_factory=dict)
    step: int = 0

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        out: list[tuple[str, np.ndarray]] = [("lambda_d", self.lambda_d)]
        out += [(f"lambda_b.{j}", v) for j, v in enumerate(self.lambda_b_clusters)]
        if self.logits is not None:
            out.append(("logits", self.logits))
        return out


@dataclass
class HydraGrads:
    tensors: dict[str, np.ndarray]


@dataclass
class TrainTrace:
    losses: list[float]
    final_loss: float
    wall_time: float = 0.0

    @property
    def initial_loss(self) -> float:
        return self.losses[0] if self.losses else self.final_loss


def _zero_moments(state) -> None:
    state.moments = {
        name: Moments(m=np.zeros_like(t), v=np.zeros_like(t))
        for name, t in state.named_tensors()
    }


def _target_matrices(targets) -> list[Matrix]:
    mats = []
    for t in targets:
        if isinstance(t, (LowRankAdapter, VeraAdapter)):
            mats.append(delta_weight(t))
        else:
            mats.append(as_matrix(t, "target"))
    return mats


def init_state(targets: Sequence[LowRankAdapter], cfg: HydraConfig, rng: Rng) -> HydraState:
    """Fresh trainable state for a list of same-shaped target adapters.

    Mean init sets the shared factor to the exact mean of the targets'
    input factors and copies the first M output factors; random init draws
    both from N(0, 0.02).  Routing logits, present only when M < K, are
    always drawn from N(0, 1).  Draw order: shared factor, cluster factors,
    then logits.
    """
    if not targets:
        raise ParameterError("need at least one target adapter")
    cfg.validate(len(targets))
    first = targets[0]
    signature = first.shape_signature()
    for t in targets[1:]:
        if t.shape_signature() != signature:
            raise ValidationError(
                f"targets disagree on (d, r, k): {t.shape_signature()} vs {signature}"
            )
    d, r, k = signature
    m_clusters = cfg.num_clusters
    if cfg.init_scheme is InitScheme.RANDOM:
        a_shared = gaussian_sample(rng, r, k, 0.0, _RANDOM_INIT_STDEV)
        b_clusters = [
            gaussian_sample(rng, d, r, 0.0, _RANDOM_INIT_STDEV) for _ in range(m_clusters)
        ]
    else:
        a_shared = exact_mean([t.a for t in targets])
        b_clusters = [targets[j].b.copy() for j in range(m_clusters)]
    logits = (
        gaussian_sample(rng, len(targets), m_clusters, 0.0, 1.0)
        if m_clusters < len(targets)
        else None
    )
    state = HydraState(a_shared=a_shared, b_clusters=b_clusters, logits=logits)
    _zero_moments(state)
    return state


def _finite(products: list[Matrix]) -> list[Matrix]:
    """Dense cluster products, checked so that an overflow stops training
    with its step named rather than as a non-finite prediction."""
    if not all(np.all(np.isfinite(p)) for p in products):
        raise NumericalError("a cluster product overflowed to non-finite values")
    return products


def _lora_predictions(state: HydraState, cfg: HydraConfig, num_tasks: int):
    products = _finite([b @ state.a_shared for b in state.b_clusters])
    if state.logits is None:
        if len(state.b_clusters) != num_tasks:
            raise ParameterError(
                f"{len(state.b_clusters)} clusters cannot be identity-routed to "
                f"{num_tasks} tasks"
            )
        return products, None, [products[i] for i in range(num_tasks)]
    weights = softmax_rows(state.logits, cfg.temperature)
    stacked = np.stack(products)
    preds = [np.tensordot(weights[i], stacked, axes=(0, 0)) for i in range(num_tasks)]
    return products, weights, preds


def loss_eq1(state: HydraState, targets, cfg: HydraConfig) -> tuple[float, list[float]]:
    """Routed objective; requires routing logits to be present."""
    if state.logits is None:
        raise ParameterError("routed loss needs logits; this state was built with M == K")
    mats = _target_matrices(targets)
    _, _, preds = _lora_predictions(state, cfg, len(mats))
    per_task = [distance(mats[i], preds[i], cfg.distance) for i in range(len(mats))]
    return float(sum(per_task)), per_task


def loss_eq2(state: HydraState, targets, cfg: HydraConfig) -> tuple[float, list[float]]:
    """Identity-routed objective for M == K (one cluster per task)."""
    if state.logits is not None:
        raise ParameterError("identity-routed loss does not use logits")
    mats = _target_matrices(targets)
    if len(state.b_clusters) != len(mats):
        raise ParameterError(
            f"{len(state.b_clusters)} clusters vs {len(mats)} tasks: identity routing "
            "needs M == K"
        )
    per_task = [
        distance(mats[i], state.b_clusters[i] @ state.a_shared, cfg.distance)
        for i in range(len(mats))
    ]
    return float(sum(per_task)), per_task


def loss(state: HydraState, targets, cfg: HydraConfig) -> tuple[float, list[float]]:
    if state.logits is None:
        return loss_eq2(state, targets, cfg)
    return loss_eq1(state, targets, cfg)


def _loss_and_grads_lora(state: HydraState, mats: list[Matrix], cfg: HydraConfig):
    num_tasks = len(mats)
    products, weights, preds = _lora_predictions(state, cfg, num_tasks)
    per_task = [distance(mats[i], preds[i], cfg.distance) for i in range(num_tasks)]
    residual_grads = [distance_grad(mats[i], preds[i], cfg.distance) for i in range(num_tasks)]

    a_t = state.a_shared.T
    grads: dict[str, np.ndarray] = {}
    if weights is None:
        grad_a = np.zeros_like(state.a_shared)
        for i in range(num_tasks):
            grad_a += state.b_clusters[i].T @ residual_grads[i]
            grads[f"b.{i}"] = residual_grads[i] @ a_t
        grads["a_shared"] = grad_a
    else:
        b_stack = np.stack(state.b_clusters)
        grad_a = np.zeros_like(state.a_shared)
        for i in range(num_tasks):
            mixed_b = np.tensordot(weights[i], b_stack, axes=(0, 0))
            grad_a += mixed_b.T @ residual_grads[i]
        grads["a_shared"] = grad_a
        g_stack = np.stack(residual_grads)
        for j in range(len(state.b_clusters)):
            summed = np.tensordot(weights[:, j], g_stack, axes=(0, 0))
            grads[f"b.{j}"] = summed @ a_t
        inner = np.array(
            [[float(np.vdot(residual_grads[i], products[j])) for j in range(len(products))]
             for i in range(num_tasks)]
        )
        row_mix = (weights * inner).sum(axis=1, keepdims=True)
        grads["logits"] = (weights / cfg.temperature) * (inner - row_mix)
    return float(sum(per_task)), per_task, HydraGrads(tensors=grads)


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
    def of(cls, targets: Sequence[LowRankAdapter]) -> "_LowRankTargets":
        b_t = np.ascontiguousarray(np.stack([as_matrix(t.b, "target B").T for t in targets]))
        a = np.stack([as_matrix(t.a, "target A") for t in targets])
        d, _, k = targets[0].shape_signature()
        return cls(b_t=b_t, a=a, tt=_trace(_cross(b_t, b_t), _cross(a, a)), size=d * k)


def _loss_and_grads_factored(state: HydraState, tgt: _LowRankTargets, cfg: HydraConfig):
    """Loss and gradients of a smooth distance from r x r Gram products."""
    num_tasks = len(tgt.tt)
    a_shared = state.a_shared
    clusters_t = np.ascontiguousarray(np.swapaxes(np.stack(state.b_clusters), 1, 2))  # B_j^T
    if state.logits is None:
        if len(state.b_clusters) != num_tasks:
            raise ParameterError(
                f"{len(state.b_clusters)} clusters cannot be identity-routed to "
                f"{num_tasks} tasks"
            )
        weights = None
        mix_t = clusters_t
    else:
        weights = softmax_rows(state.logits, cfg.temperature)
        mix_t = np.tensordot(weights, clusters_t, axes=(1, 0))  # Bmix_i^T
    cross_b = _cross(mix_t, tgt.b_t)  # Bmix_i^T b_i
    gram_b = _cross(mix_t, mix_t)  # Bmix_i^T Bmix_i
    cross_a = _cross(a_shared, tgt.a)  # A a_i^T
    gram_a = _cross(a_shared, a_shared)  # A A^T
    values, alpha, beta = smooth_terms(
        tgt.tt, _trace(cross_b, cross_a), _trace(gram_b, gram_a), tgt.size, cfg.distance
    )
    alpha3 = alpha[:, None, None]
    beta3 = beta[:, None, None]

    grads: dict[str, np.ndarray] = {}
    grads["a_shared"] = (
        np.matmul(alpha3 * cross_b, tgt.a) + np.matmul(beta3 * gram_b, a_shared)
    ).sum(axis=0)
    # (G_i A^T)^T, one r x d block per task.
    g_at_t = np.matmul(alpha3 * cross_a, tgt.b_t) + np.matmul(beta3 * gram_a, mix_t)
    if weights is not None:
        g_at_t = np.tensordot(weights, g_at_t, axes=(0, 0))
        inner = alpha[:, None] * _trace(
            _cross(clusters_t[None], tgt.b_t[:, None]), cross_a[:, None]
        ) + beta[:, None] * _trace(_cross(clusters_t[None], mix_t[:, None]), gram_a)
        row_mix = (weights * inner).sum(axis=1, keepdims=True)
        grads["logits"] = (weights / cfg.temperature) * (inner - row_mix)
    for j, block in enumerate(g_at_t):
        grads[f"b.{j}"] = np.ascontiguousarray(block.T)
    per_task = values.tolist()
    return float(sum(per_task)), per_task, HydraGrads(tensors=grads)


def _lora_kernel(targets, cfg: HydraConfig):
    """The loss-and-gradient function ``state -> (loss, per_task, grads)``
    for fixed targets: factored for a smooth distance on low-rank targets,
    dense otherwise."""
    if cfg.distance in SMOOTH_DISTANCES and all(
        isinstance(t, LowRankAdapter) for t in targets
    ):
        factored = _LowRankTargets.of(targets)
        return lambda state: _loss_and_grads_factored(state, factored, cfg)
    mats = _target_matrices(targets)
    return lambda state: _loss_and_grads_lora(state, mats, cfg)


def gradients(state: HydraState, targets, cfg: HydraConfig) -> HydraGrads:
    """Analytic gradients of the objective for every trainable tensor.

    ``targets`` are adapters or their dense update matrices; the kernel is
    the one :func:`train` runs for the same targets."""
    return _lora_kernel(targets, cfg)(state)[2]


def adamw_step(state, grads: HydraGrads, cfg: HydraConfig):
    """One AdamW update with bias correction over all trainable tensors.

    theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * theta)
    """
    state.step += 1
    correction1 = 1.0 - cfg.adam_beta1**state.step
    correction2 = 1.0 - cfg.adam_beta2**state.step
    for name, theta in state.named_tensors():
        grad = grads.tensors[name]
        mom = state.moments[name]
        mom.m = cfg.adam_beta1 * mom.m + (1.0 - cfg.adam_beta1) * grad
        mom.v = cfg.adam_beta2 * mom.v + (1.0 - cfg.adam_beta2) * grad * grad
        m_hat = mom.m / correction1
        v_hat = mom.v / correction2
        theta -= cfg.learning_rate * (
            m_hat / (np.sqrt(v_hat) + cfg.adam_eps) + cfg.weight_decay * theta
        )
    return state


def train(
    targets: Sequence[LowRankAdapter], cfg: HydraConfig, rng: Rng
) -> tuple[HydraState, TrainTrace]:
    """Full-batch training loop: gradients + AdamW for ``cfg.epochs`` steps.

    The trace records the loss at the start of every iteration; its
    ``final_loss`` is evaluated after the last update.
    """
    state = init_state(targets, cfg, rng)
    return state, _fit(state, _lora_kernel(targets, cfg), cfg)


def _fit(state, loss_and_grads, cfg: HydraConfig) -> TrainTrace:
    """``cfg.epochs`` AdamW steps on ``loss_and_grads(state)``, guarded.

    Raises :class:`NumericalError` naming the step when the loss or a
    gradient is non-finite, the kernel overflows, or the loss exceeds
    ``DIVERGENCE_FACTOR`` times a positive initial loss.
    """
    losses: list[float] = []
    started = time.perf_counter()
    for step in range(cfg.epochs + 1):
        try:
            value, _, grads = loss_and_grads(state)
        except NumericalError as exc:
            raise NumericalError(f"step {step}: {exc}") from exc
        _check_progress(step, value, grads, losses[0] if losses else value)
        if step < cfg.epochs:
            losses.append(value)
            adamw_step(state, grads, cfg)
    return TrainTrace(losses=losses, final_loss=value, wall_time=time.perf_counter() - started)


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
        return list(range(len(_cluster_list(state))))
    return [int(np.argmax(row)) for row in state.logits]


def _cluster_list(state) -> list:
    if isinstance(state, HydraState):
        return state.b_clusters
    return state.lambda_b_clusters


# -- scaled-vector (vera) variant -------------------------------------------


def init_vera_state(
    targets: Sequence[VeraAdapter], cfg: HydraConfig, rng: Rng
) -> VeraHydraState:
    """Fresh state for scaled-vector targets sharing one frozen factor pair."""
    if not targets:
        raise ParameterError("need at least one target adapter")
    cfg.validate(len(targets))
    first = targets[0]
    for t in targets[1:]:
        if not (
            np.array_equal(t.shared_a, first.shared_a)
            and np.array_equal(t.shared_b, first.shared_b)
        ):
            raise ValidationError("targets do not share identical frozen factors")
    d, r, _ = first.shape_signature()
    m_clusters = cfg.num_clusters
    if cfg.init_scheme is InitScheme.RANDOM:
        lambda_d = gaussian_sample(rng, r, 1, 0.0, _RANDOM_INIT_STDEV).ravel()
        lambda_bs = [
            gaussian_sample(rng, d, 1, 0.0, _RANDOM_INIT_STDEV).ravel()
            for _ in range(m_clusters)
        ]
    else:
        lambda_d = exact_mean([t.lambda_d.reshape(-1, 1) for t in targets]).ravel()
        lambda_bs = [targets[j].lambda_b.copy() for j in range(m_clusters)]
    logits = (
        gaussian_sample(rng, len(targets), m_clusters, 0.0, 1.0)
        if m_clusters < len(targets)
        else None
    )
    state = VeraHydraState(
        lambda_d=lambda_d,
        lambda_b_clusters=lambda_bs,
        logits=logits,
        shared_b=first.shared_b,
        shared_a=first.shared_a,
    )
    _zero_moments(state)
    return state


def _loss_and_grads_vera(state: VeraHydraState, mats: list[Matrix], cfg: HydraConfig):
    num_tasks = len(mats)
    m_clusters = len(state.lambda_b_clusters)
    inner = (state.shared_b * state.lambda_d[None, :]) @ state.shared_a
    products = _finite([lb[:, None] * inner for lb in state.lambda_b_clusters])
    if state.logits is None:
        if m_clusters != num_tasks:
            raise ParameterError(
                f"{m_clusters} clusters cannot be identity-routed to {num_tasks} tasks"
            )
        weights = None
        preds = products
    else:
        weights = softmax_rows(state.logits, cfg.temperature)
        stacked = np.stack(products)
        preds = [np.tensordot(weights[i], stacked, axes=(0, 0)) for i in range(num_tasks)]

    per_task = [distance(mats[i], preds[i], cfg.distance) for i in range(num_tasks)]
    residual_grads = [distance_grad(mats[i], preds[i], cfg.distance) for i in range(num_tasks)]

    grads: dict[str, np.ndarray] = {}
    lb_stack = np.stack(state.lambda_b_clusters)
    grad_ld = np.zeros_like(state.lambda_d)
    for i in range(num_tasks):
        outer_scale = (
            lb_stack[i] if weights is None else np.tensordot(weights[i], lb_stack, axes=(0, 0))
        )
        scaled_grad = outer_scale[:, None] * residual_grads[i]
        grad_ld += np.einsum("dt,dk,tk->t", state.shared_b, scaled_grad, state.shared_a)
    grads["lambda_d"] = grad_ld
    if weights is None:
        for i in range(num_tasks):
            grads[f"lambda_b.{i}"] = (residual_grads[i] * inner).sum(axis=1)
    else:
        g_stack = np.stack(residual_grads)
        for j in range(m_clusters):
            summed = np.tensordot(weights[:, j], g_stack, axes=(0, 0))
            grads[f"lambda_b.{j}"] = (summed * inner).sum(axis=1)
        inner_products = np.array(
            [[float(np.vdot(residual_grads[i], products[j])) for j in range(m_clusters)]
             for i in range(num_tasks)]
        )
        row_mix = (weights * inner_products).sum(axis=1, keepdims=True)
        grads["logits"] = (weights / cfg.temperature) * (inner_products - row_mix)
    return float(sum(per_task)), per_task, HydraGrads(tensors=grads)


def vera_loss(state: VeraHydraState, targets, cfg: HydraConfig) -> tuple[float, list[float]]:
    value, per_task, _ = _loss_and_grads_vera(state, _target_matrices(targets), cfg)
    return value, per_task


def vera_gradients(state: VeraHydraState, targets, cfg: HydraConfig) -> HydraGrads:
    return _loss_and_grads_vera(state, _target_matrices(targets), cfg)[2]


def train_vera(
    targets: Sequence[VeraAdapter], cfg: HydraConfig, rng: Rng
) -> tuple[VeraHydraState, TrainTrace]:
    """Training loop for scaled-vector targets; mirrors :func:`train`."""
    state = init_vera_state(targets, cfg, rng)
    mats = _target_matrices(targets)
    return state, _fit(state, lambda s: _loss_and_grads_vera(s, mats, cfg), cfg)


# -- collection-level driver -------------------------------------------------


def export_slot(state, assignment: list[int]):
    """Package a trained state as one bundle slot: the shared factor, the M
    cluster factors, and the per-task assignment.  The slot's declared
    parameter count is ``M*r*d + r*k`` (plus the frozen pair for the
    scaled-vector variant); the routing logits are not part of it.
    """
    if isinstance(state, HydraState):
        return SharedLoraSlot(
            a_shared=state.a_shared, b_clusters=state.b_clusters, assignment=assignment
        )
    return SharedVeraSlot(
        lambda_d=state.lambda_d,
        lambda_b_clusters=state.lambda_b_clusters,
        shared_b=state.shared_b,
        shared_a=state.shared_a,
        assignment=assignment,
    )


def _train_slot(collection: AdapterCollection, slot: SlotKey, cfg: HydraConfig):
    rng = Rng(cfg.seed ^ stable_hash64(slot.label()))
    targets = collection.adapters_at(slot)
    try:
        if collection.kind == "lora":
            state, trace = train(targets, cfg, rng)
        else:
            state, trace = train_vera(targets, cfg, rng)
    except NumericalError as exc:
        raise NumericalError(f"slot {slot.label()}: {exc}") from exc
    return export_slot(state, assign_tasks(state, cfg)), trace


def merge_collection_hydra(
    collection: AdapterCollection, cfg: HydraConfig, jobs: int = 1
) -> tuple[MergedBundle, dict]:
    """Train one independent state per slot and assemble the bundle.

    Slots derive their streams from ``seed xor hash(slot label)``, so the
    result is identical whether slots run sequentially or in parallel.
    """
    cfg.validate(collection.num_tasks)
    bundle = MergedBundle(
        method="hydraopt",
        kind=collection.kind,
        tasks=list(collection.task_ids),
        slots=list(collection.slots),
    )
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(lambda s: (s, _train_slot(collection, s, cfg)), collection.slots)
            )
        outcome = dict(results)
    else:
        outcome = {slot: _train_slot(collection, slot, cfg) for slot in collection.slots}

    report = {"per_slot": {}}
    total_initial = 0.0
    total_final = 0.0
    for slot in collection.slots:
        entry, trace = outcome[slot]
        bundle.entries[slot] = entry
        report["per_slot"][slot.label()] = {
            "initial_loss": trace.initial_loss,
            "final_loss": trace.final_loss,
        }
        total_initial += trace.initial_loss
        total_final += trace.final_loss
    report["initial_loss"] = total_initial
    report["final_loss"] = total_final
    bundle.validate()
    return bundle, report


def globalize_assignment(bundle: MergedBundle) -> MergedBundle:
    """Rewrite per-slot assignments to each task's majority cluster.

    Off by default; only meaningful when every slot carries the same
    number of clusters.  Ties resolve to the lowest cluster index.
    """
    shared = [
        e for e in bundle.entries.values() if isinstance(e, (SharedLoraSlot, SharedVeraSlot))
    ]
    if not shared:
        return bundle
    counts = {len(_entry_clusters(e)) for e in shared}
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


def _entry_clusters(entry) -> list:
    if isinstance(entry, SharedLoraSlot):
        return entry.b_clusters
    return entry.lambda_b_clusters
