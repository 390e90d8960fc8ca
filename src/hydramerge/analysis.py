"""Quantitative reports: pairwise adapter similarity, storage accounting,
and reconstruction error of merged bundles against their originals.

Similarity covers both adapter kinds through ``sides()``: "A" is the
shared side (LoRA ``A``, VeRA ``lambda_d``) and "B" the cluster side (LoRA
``B``, VeRA ``lambda_b``)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adapters import AdapterCollection, MergedBundle, SharedSlot, SlotKey, delta_weight
from .errors import ParameterError
from .linalg import DistanceKind, distance, residual_mae_and_fro


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
    tasks = collection.task_ids
    k = len(tasks)
    report = SimilarityReport(tasks=list(tasks))
    for slot in collection.slots:
        sides = [adapter.sides() for adapter in collection.adapters_at(slot)]
        a_mat = np.zeros((k, k))
        b_mat = np.zeros((k, k))
        for i in range(k):
            for j in range(i + 1, k):
                for mat, x, y in zip((a_mat, b_mat), sides[i], sides[j]):
                    mat[i, j] = mat[j, i] = distance(x, y, DistanceKind.MAE)
        report.a_matrices[slot] = a_mat
        report.b_matrices[slot] = b_mat
    return report


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

    def task_mean(self, task: str, which: str = "mae") -> float:
        table = self.mae if which == "mae" else self.fro
        return float(np.mean([table[(task, slot)] for slot in self.slots]))

    def grand_mean(self, which: str = "mae") -> float:
        table = self.mae if which == "mae" else self.fro
        return float(np.mean(list(table.values())))

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
    :meth:`~hydramerge.adapters.MergedBundle.check_pairs`).

    The report streams: per slot it builds one merged product at a time
    (one per used cluster of a shared slot, one for a single merged
    adapter), scores that product's tasks, each on one residual built in
    place, and drops it.  So it holds one product and one residual, whatever
    the cluster and task counts.  Results enter the report slot by slot, in
    task order."""
    merged.check_pairs(original)
    tasks = list(original.task_ids)
    report = ReconReport(tasks=tasks, slots=list(original.slots))
    for slot in original.slots:
        entry = merged.entries[slot]
        assignment = entry.assignment if isinstance(entry, SharedSlot) else [0] * len(tasks)
        scores: list[tuple[float, float]] = [(0.0, 0.0)] * len(tasks)
        for cluster in sorted(set(assignment)):
            product = delta_weight(entry.member(cluster))
            for index in (i for i, j in enumerate(assignment) if j == cluster):
                # a fresh, checked array, so the residual is built in it
                residual = delta_weight(original.adapter(tasks[index], slot))
                residual -= product
                scores[index] = residual_mae_and_fro(residual)
                del residual
            del product
        for task, (mae, fro) in zip(tasks, scores):
            report.mae[(task, slot)] = mae
            report.fro[(task, slot)] = fro
    return report
