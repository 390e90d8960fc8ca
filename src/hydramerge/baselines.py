"""Data-free baseline merging: uniform averaging, trim/sign-election
merging, random drop-and-rescale, and their composition.

All four methods collapse K per-task tensors into one tensor per matrix
position.  ``merge_collection`` applies them per slot to the adapters'
``sides()``, for either kind alike: either to both sides independently
(one merged adapter per slot) or to the shared side only, keeping every
per-task cluster side in a shared slot.  A LoRA adapter's sides are its
factors ``(A, B)``; a VeRA adapter's are its scaling vectors ``(lambda_d,
lambda_b)`` as n x 1 columns, and its frozen pair passes through.

Determinism: every stochastic step consumes an explicit :class:`Rng`, and
each slot derives its own stream from ``seed xor hash(slot label)``, so
slots can be processed in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .adapters import AdapterCollection, MergedAdapterSlot, MergedBundle, SlotKey
from .errors import HydraMergeError, NumericalError, ParameterError, ShapeError, coerce_enums
from .linalg import (
    ROW_BLOCK_ENTRIES,
    Matrix,
    Rng,
    as_matrix,
    exact_mean,
    row_blocks,
    stable_hash64,
)


class MergeMethod(str, Enum):
    TA = "ta"
    TIES = "ties"
    DARE = "dare"
    DARE_TIES = "dare-ties"


class MergeTarget(str, Enum):
    PER_MATRIX = "per-matrix"
    A_ONLY = "a-only"


@dataclass(frozen=True)
class BaselineConfig:
    """One baseline merge; an unknown enum value or a field out of range
    raises :class:`ParameterError` when the config is built."""

    method: MergeMethod
    ties_density: float = 0.2
    dare_drop_p: float = 0.9
    seed: int = 0
    merge_target: MergeTarget = MergeTarget.PER_MATRIX
    scale: float = 1.0

    def __post_init__(self):
        coerce_enums(self, method=MergeMethod, merge_target=MergeTarget)
        if not (0.0 < self.ties_density <= 1.0):
            raise ParameterError(f"ties_density must be in (0, 1], got {self.ties_density}")
        if not (0.0 <= self.dare_drop_p < 1.0):
            raise ParameterError(f"dare_drop_p must be in [0, 1), got {self.dare_drop_p}")
        if not 0.0 < self.scale < math.inf:
            raise ParameterError(f"scale must be finite and > 0, got {self.scale}")


def merge_ta(tensors: Sequence[Matrix], scale: float = 1.0) -> Matrix:
    """Uniform average (coefficient 1/K each), optionally rescaled.

    The mean is exactly rounded, so K copies of X merge to X exactly and
    the result is bit-identical under task permutation.  A scale that
    takes the mean past the float range raises :class:`NumericalError`.
    """
    mats = [as_matrix(t) for t in tensors]
    out = exact_mean(mats)
    if scale != 1.0:
        with np.errstate(over="ignore"):
            out = out * scale
        if not np.all(np.isfinite(out)):
            raise NumericalError(
                f"scale {scale:g} overflows the merged tensor to non-finite values"
            )
    return out


def ties_trim(t, density: float) -> Matrix:
    """Keep the ``ceil(density * n)`` largest-magnitude entries, zero the rest.

    Ties at the threshold magnitude keep the lower flat index.
    """
    if not (0.0 < density <= 1.0):
        raise ParameterError(f"density must be in (0, 1], got {density}")
    mat = as_matrix(t)
    n = mat.size
    keep = math.ceil(density * n)
    if keep >= n:
        return mat.copy()
    flat = mat.ravel()
    order = np.argsort(-np.abs(flat), kind="stable")
    out = np.zeros_like(flat)
    kept = order[:keep]
    out[kept] = flat[kept]
    return out.reshape(mat.shape)


# Each column block of the TIES reduction holds about this many (K, c)
# stacks at once: the sign, the aligned mask and the aligned values.
_TIES_STACKS = 3
_BLOCK_ENTRIES = ROW_BLOCK_ENTRIES


def _sum_rows(rows: np.ndarray) -> np.ndarray:
    """The sum of a stack's rows, added in order."""
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


def _ties(tensors: Sequence[Matrix], density: float, transform=as_matrix) -> Matrix:
    """TIES over ``transform(t)`` of each tensor.  Each is transformed and
    trimmed in task order into one ``(K, n)`` stack; the election and the
    average then run one column block at a time.  Both sums add the K rows
    in task order, as numpy's axis-0 sum of a C-ordered stack of two or
    more columns does."""
    if not tensors:
        raise ParameterError("merge of an empty sequence")
    trimmed, shape = None, None
    for i, t in enumerate(tensors):
        mat = transform(t)
        if trimmed is None:
            trimmed, shape = np.empty((len(tensors), mat.size)), mat.shape
        elif mat.shape != shape:
            raise ShapeError(f"shape mismatch: {mat.shape} vs {shape}")
        trimmed[i] = ties_trim(mat, density).ravel()
    out = np.zeros(trimmed.shape[1])
    _, blocks = row_blocks(trimmed.shape[1], _TIES_STACKS * len(trimmed), _BLOCK_ENTRIES)
    for block in blocks:
        rows = trimmed[:, block]
        elected = np.sign(_sum_rows(rows))
        aligned = (np.sign(rows) == elected) & (elected != 0)
        counts = aligned.sum(axis=0)
        total = _sum_rows(rows * aligned)
        np.divide(total, counts, out=out[block], where=counts > 0)
    return out.reshape(shape)


def ties_merge(tensors: Sequence[Matrix], density: float) -> Matrix:
    """Trim each tensor, elect the entrywise sign of the trimmed sum, then
    average only the sign-aligned trimmed values (unary task coefficients).

    Entries with no elected sign (exact cancellation or all trimmed away)
    merge to zero.  The trimmed tensors fill one ``(K, n)`` stack; the
    reduction across tasks then runs one column block of ``c = 2^17 //
    (3 K)`` entries at a time, so beyond the stack it holds a few ``(K,
    c)`` arrays, about ``ROW_BLOCK_ENTRIES`` doubles (1 MiB).
    """
    return _ties(tensors, density)


def dare_transform(t, p: float, rng: Rng) -> Matrix:
    """Zero each entry with probability ``p``, rescale survivors by
    ``1/(1-p)``.  The drop mask consumes one uniform per entry in flat
    index order, so the expectation over seeds equals the input.
    """
    if not (0.0 <= p < 1.0):
        raise ParameterError(f"drop probability must be in [0, 1), got {p}")
    mat = as_matrix(t)
    u = rng.uniforms(mat.size).reshape(mat.shape)
    return np.where(u >= p, mat / (1.0 - p), 0.0)


def merge_dare(tensors: Sequence[Matrix], p: float, rng: Rng, scale: float = 1.0) -> Matrix:
    """Drop-and-rescale each tensor, then average uniformly.

    The stream is consumed task by task in task order; with ``p == 0`` this
    is bit-exactly ``merge_ta``.
    """
    transformed = [dare_transform(t, p, rng) for t in tensors]
    return merge_ta(transformed, scale=scale)


def merge_dare_ties(tensors: Sequence[Matrix], p: float, density: float, rng: Rng) -> Matrix:
    """Drop-and-rescale each tensor, then trim/elect/average.  Each task is
    transformed and trimmed before the next is drawn, so only one
    transformed tensor is alive at a time."""
    return _ties(tensors, density, lambda t: dare_transform(t, p, rng))


def _merge_tensors(tensors: Sequence[Matrix], cfg: BaselineConfig, rng: Rng) -> Matrix:
    if cfg.method is MergeMethod.TA:
        return merge_ta(tensors, scale=cfg.scale)
    if cfg.method is MergeMethod.TIES:
        return ties_merge(tensors, cfg.ties_density)
    if cfg.method is MergeMethod.DARE:
        return merge_dare(tensors, cfg.dare_drop_p, rng, scale=cfg.scale)
    return merge_dare_ties(tensors, cfg.dare_drop_p, cfg.ties_density, rng)


def _merge_side(tensors, cfg: BaselineConfig, rng: Rng, where: str) -> Matrix:
    """``_merge_tensors``; an error keeps its type and gains ``where``."""
    try:
        return _merge_tensors(tensors, cfg, rng)
    except HydraMergeError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def merge_collection(collection: AdapterCollection, cfg: BaselineConfig) -> MergedBundle:
    """Merge every slot of a collection with one baseline method.

    Slot by slot, in order, each merged entry is put in the bundle (see
    :meth:`~hydramerge.adapters.MergedBundle.of` for where it goes).  Per
    slot the shared sides are merged first, then (per-matrix mode) the
    cluster sides, drawing from that slot's stream throughout.  An error
    keeps its type and gains the slot label and the side.
    """
    bundle = MergedBundle.of(collection, cfg.method.value)
    for slot in collection.slots:
        bundle.entries[slot] = _merge_slot(collection, slot, cfg)
    bundle.validate()
    return bundle


def _merge_slot(collection: AdapterCollection, slot: SlotKey, cfg: BaselineConfig):
    """The merged entry of one slot.  Each side is read with
    :meth:`~hydramerge.adapters.AdapterCollection.sides_at`, so a merge that
    takes its tensors one at a time (TIES, DARE) holds one of them at a time
    from an archived collection."""
    rng = Rng(cfg.seed ^ stable_hash64(slot.label()))
    first = collection.adapter(collection.task_ids[0], slot)
    adapter_type, frozen = type(first), first.frozen
    del first  # only its type and frozen pair are needed while the sides merge
    shared, clusters = collection.sides_at(slot)
    merged_shared = _merge_side(shared, cfg, rng, f"slot {slot.label()}: shared side")
    if cfg.merge_target is MergeTarget.PER_MATRIX:
        where = f"slot {slot.label()}: cluster side"
        merged_cluster = _merge_side(clusters, cfg, rng, where)
        return MergedAdapterSlot(adapter_type.from_sides(merged_shared, merged_cluster, frozen))
    identity = list(range(collection.num_tasks))
    return adapter_type.shared_slot(merged_shared, [c.copy() for c in clusters], frozen, identity)
