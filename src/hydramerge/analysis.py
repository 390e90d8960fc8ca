"""Quantitative reports: pairwise adapter similarity, storage accounting,
and reconstruction error of merged bundles against their originals.

The reconstruction report never forms a whole ``d x k`` update, and holds
one task at a time: it takes the residual of the task's update against
its prediction one row block at a time from their rank-r ``factors``,
through :func:`~hydramerge.linalg.residual_blocks` (the builder
:mod:`hydramerge.hydra`'s MAE kernel trains with), and keeps only the
sums of ``|R|`` and ``R^2`` per task.

Similarity covers both adapter kinds through ``sides()``: "A" is the
shared side (LoRA ``A``, VeRA ``lambda_d``) and "B" the cluster side (LoRA
``B``, VeRA ``lambda_b``)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .adapters import (
    Adapter,
    AdapterCollection,
    MergedBundle,
    MergedSlot,
    SharedSlot,
    SlotKey,
    delta_factors,
)
from .errors import NumericalError, ParameterError
from .linalg import (
    ROW_BLOCK_ENTRIES,
    DistanceKind,
    distance,
    mae_and_fro_of_sums,
    residual_blocks,
    residual_sums,
    row_blocks,
)

# Entries of one row block of an update or residual.
_BLOCK_ENTRIES = ROW_BLOCK_ENTRIES


@dataclass
class SimilarityReport:
    """Per-slot K x K mean-absolute-difference matrices for each side."""

    tasks: list[str]
    a_matrices: dict[SlotKey, np.ndarray] = field(default_factory=dict)
    b_matrices: dict[SlotKey, np.ndarray] = field(default_factory=dict)

    def grand_mean(self, which: str) -> float:
        if which not in ("A", "B"):
            raise ParameterError(f"factor must be 'A' or 'B', got {which!r}")
        mats = self.a_matrices if which == "A" else self.b_matrices
        return float(np.mean([_offdiag_mean(m) for m in mats.values()]))

    def to_dict(self) -> dict:
        def section(which: str, mats: dict[SlotKey, np.ndarray]) -> dict:
            return {
                "grand_mean": self.grand_mean(which),
                "per_slot": {
                    slot.label(): {
                        "matrix": mats[slot].tolist(),
                        "mean": _offdiag_mean(mats[slot]),
                    }
                    for slot in sorted(mats)
                },
            }

        return {
            "tasks": list(self.tasks),
            "similarity": {"A": section("A", self.a_matrices), "B": section("B", self.b_matrices)},
        }


def _offdiag_mean(matrix: np.ndarray) -> float:
    k = matrix.shape[0]
    if k < 2:
        return 0.0
    mask = ~np.eye(k, dtype=bool)
    return float(matrix[mask].mean())


def pairwise_similarity(collection: AdapterCollection) -> SimilarityReport:
    """Pairwise mean absolute differences between every two tasks' sides,
    one K x K symmetric zero-diagonal matrix per slot and side ("A", the
    shared side, and "B", the cluster side)."""
    report = SimilarityReport(tasks=list(collection.task_ids))
    for slot in collection.slots:
        pair = _slot_similarity(collection.adapters_at(slot))
        report.a_matrices[slot], report.b_matrices[slot] = pair
    return report


def _slot_similarity(adapters: Sequence[Adapter]) -> tuple[np.ndarray, np.ndarray]:
    """The K x K matrices of one slot's shared and cluster sides."""
    sides = [adapter.sides() for adapter in adapters]
    k = len(sides)
    a_mat = np.zeros((k, k))
    b_mat = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            for mat, x, y in zip((a_mat, b_mat), sides[i], sides[j]):
                mat[i, j] = mat[j, i] = distance(x, y, DistanceKind.MAE)
    return a_mat, b_mat


def storage_ratio(k_tasks: int, m_clusters: int, rank: int, d: int, k: int) -> float:
    """Merged storage as a percentage of storing all task adapters:
    100 * (M*r*d + r*k) / (K*r*(d+k))."""
    for name, value in (
        ("k_tasks", k_tasks),
        ("m_clusters", m_clusters),
        ("rank", rank),
        ("d", d),
        ("k", k),
    ):
        if value < 1:
            raise ParameterError(f"{name} must be a positive integer, got {value}")
    merged = m_clusters * rank * d + rank * k
    original = k_tasks * rank * (d + k)
    return 100.0 * merged / original


@dataclass
class ReconReport:
    """Distances between original per-task updates and merged predictions."""

    tasks: list[str]
    slots: list[SlotKey]
    mae: dict[tuple[str, SlotKey], float] = field(default_factory=dict)
    fro: dict[tuple[str, SlotKey], float] = field(default_factory=dict)

    def _table(self, which: str) -> dict[tuple[str, SlotKey], float]:
        if which not in ("mae", "fro"):
            raise ParameterError(f"measure must be 'mae' or 'fro', got {which!r}")
        return self.mae if which == "mae" else self.fro

    def task_mean(self, task: str, which: str = "mae") -> float:
        table = self._table(which)
        return float(np.mean([table[(task, slot)] for slot in self.slots]))

    def grand_mean(self, which: str = "mae") -> float:
        return float(np.mean(list(self._table(which).values())))

    def to_dict(self) -> dict:
        return {
            "recon": {
                "grand_mean_mae": self.grand_mean("mae"),
                "grand_mean_fro": self.grand_mean("fro"),
                "per_task": {
                    task: {"mae": self.task_mean(task, "mae"), "fro": self.task_mean(task, "fro")}
                    for task in self.tasks
                },
                "per_pair": {
                    task: {
                        slot.label(): {
                            "mae": self.mae[(task, slot)],
                            "fro": self.fro[(task, slot)],
                        }
                        for slot in self.slots
                    }
                    for task in self.tasks
                },
            }
        }


def reconstruction_report(original: AdapterCollection, merged: MergedBundle) -> ReconReport:
    """Compare every task's original update against the bundle's prediction
    for that task, per slot, in mean-absolute and Frobenius terms.  A bundle
    not merged over ``original`` raises :class:`ValidationError` (see
    :meth:`~hydramerge.adapters.MergedBundle.check_pairs`), and a residual
    whose MAE or FRO is not finite raises :class:`NumericalError` naming the
    slot and the task.

    No ``d x k`` update is formed: see :func:`_scores`.  Results enter the
    report slot by slot, in task order."""
    merged.check_pairs(original)
    tasks = list(original.task_ids)
    report = ReconReport(tasks=tasks, slots=list(original.slots))
    for slot in original.slots:
        scores = _scores(original.adapters_at(slot), merged.entry(slot))
        for task, (mae, fro) in zip(tasks, scores):
            if not (math.isfinite(mae) and math.isfinite(fro)):
                raise NumericalError(
                    f"slot {slot.label()}: task {task!r}: the residual overflowed to "
                    "non-finite values"
                )
            report.mae[(task, slot)] = mae
            report.fro[(task, slot)] = fro
    return report


@np.errstate(over="ignore", invalid="ignore")  # the caller types a non-finite score
def _scores(targets: Sequence[Adapter], entry: MergedSlot) -> list[tuple[float, float]]:
    """``(mae, fro)`` of each target's residual against its prediction by
    the merged slot ``entry``, each from :func:`mae_and_fro_of_sums`.

    One task at a time, in task order: task i is read from ``targets``
    (an archived collection reads it then), scored and dropped before
    task i + 1 is read, so memory does not grow with the number of tasks.
    Each residual comes from the rank-r ``factors`` of the task and of its
    cluster's adapter (see :mod:`hydramerge.adapters`; a single merged
    adapter is one cluster of every task) one row block of about
    ``_BLOCK_ENTRIES`` entries at a time, from
    :func:`~hydramerge.linalg.residual_blocks` into two buffers that the
    whole slot reuses; each block's
    :func:`~hydramerge.linalg.residual_sums` add to the task's sums."""
    assignment = entry.assignment if isinstance(entry, SharedSlot) else [0] * len(targets)
    d, _, k = entry.member(0).shape_signature()
    rows, blocks = row_blocks(d, k, _BLOCK_ENTRIES)
    buffers = np.empty((rows, k)), np.empty((rows, k))
    one_right = entry.member(0).right_frozen
    scores = []
    for i in range(len(targets)):
        # indexed, then deleted: an iterator, enumerate's tuple or the loop variable
        # would hold task i while task i + 1 is read
        target = targets[i]
        factors = delta_factors(target), delta_factors(entry.member(assignment[i]))
        abs_sum = sq_sum = 0.0
        for _, block in residual_blocks(*factors, one_right, blocks, buffers):
            block_abs, block_sq = residual_sums(block)
            abs_sum += block_abs
            sq_sum += block_sq
        scores.append(mae_and_fro_of_sums(abs_sum, sq_sum, d * k))
        del target, factors
    return scores
