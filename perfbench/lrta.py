"""Independent reader and reference computations for LRTA v1 archives.

Written from the layout documented at the top of ``hydramerge/archive.py``
(u64 little-endian manifest length, JSON manifest, packed little-endian
float32 payloads at manifest offsets) and the tensor naming scheme given
there.  Nothing here imports the program: every number the benchmark
checks is recomputed in plain numpy from the bytes the program wrote.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

_MERGED_B = re.compile(r"^merged\.(?P<slot>.+)\.(?:B|lambda_b)\.(?P<j>\d+)$")


class Archive:
    """Manifest meta plus float32 tensors of one LRTA v1 file."""

    def __init__(self, path):
        raw = Path(path).read_bytes()
        n = int.from_bytes(raw[:8], "little")
        manifest = json.loads(raw[8 : 8 + n].decode("utf-8"))
        if manifest["version"] != 1:
            raise ValueError(f"{path}: LRTA version {manifest['version']!r}")
        payload = raw[8 + n :]
        self.meta: dict = manifest["meta"]
        self.tensors: dict[str, np.ndarray] = {}
        for name, entry in manifest["tensors"].items():
            rows, cols = entry["shape"]
            if entry["nbytes"] != 4 * rows * cols:
                raise ValueError(f"{path}: {name} declares {entry['nbytes']} bytes")
            self.tensors[name] = np.frombuffer(
                payload, dtype="<f4", count=rows * cols, offset=entry["offset"]
            ).reshape(rows, cols)

    @property
    def tasks(self) -> list[str]:
        return list(self.meta["tasks"])

    def f64(self, name: str) -> np.ndarray:
        return self.tensors[name].astype(np.float64)

    def slots(self) -> list[str]:
        """Slot labels (``layer.<n>.<name>``) named by any tensor."""
        found = set()
        for name in self.tensors:
            parts = name.split(".")
            for i in range(len(parts) - 2):
                if parts[i] == "layer" and parts[i + 1].isdigit():
                    found.add(".".join(parts[i : i + 3]))
        return sorted(found)

    def clusters(self, slot: str) -> int:
        """Number of cluster output-side tensors at ``slot`` (0 for a single adapter)."""
        return sum(
            1 for name in self.tensors if (m := _MERGED_B.match(name)) and m["slot"] == slot
        )


def vera_product(lambda_b, lambda_d, shared_b, shared_a) -> np.ndarray:
    """diag(lambda_b) @ shared_b @ diag(lambda_d) @ shared_a."""
    return lambda_b.reshape(-1, 1) * ((shared_b * lambda_d.reshape(1, -1)) @ shared_a)


def targets(coll: Archive) -> dict[tuple[str, str], np.ndarray]:
    """Dense per-task updates of a collection, keyed by (task, slot)."""
    out = {}
    for slot in coll.slots():
        for task in coll.tasks:
            pre = f"task.{task}.{slot}"
            if coll.meta["kind"] == "lora":
                out[(task, slot)] = coll.f64(f"{pre}.B") @ coll.f64(f"{pre}.A")
            else:
                out[(task, slot)] = vera_product(
                    coll.f64(f"{pre}.lambda_b"),
                    coll.f64(f"{pre}.lambda_d"),
                    coll.f64(f"shared.{slot}.B"),
                    coll.f64(f"shared.{slot}.A"),
                )
    return out


def prediction(bundle: Archive, task: str, slot: str) -> np.ndarray:
    """The dense update the bundle stores for ``task`` at ``slot``."""
    pre = f"merged.{slot}"
    names = bundle.tensors
    suffix = ""
    if bundle.clusters(slot):
        suffix = f".{bundle.meta['assignment'][task][slot]}"
    if f"{pre}.A" in names:
        return bundle.f64(f"{pre}.B{suffix}") @ bundle.f64(f"{pre}.A")
    return vera_product(
        bundle.f64(f"{pre}.lambda_b{suffix}"),
        bundle.f64(f"{pre}.lambda_d"),
        bundle.f64(f"shared.{slot}.B"),
        bundle.f64(f"shared.{slot}.A"),
    )


def grand_mean_mae(target: dict, bundle: Archive) -> float:
    """Mean over (task, slot) of mean |T - P|."""
    maes = [
        float(np.mean(np.abs(t - prediction(bundle, task, slot))))
        for (task, slot), t in target.items()
    ]
    return float(np.mean(maes))


def similarity_grand_means(coll: Archive) -> dict[str, float]:
    """Per factor, the slot-mean of the off-diagonal mean |X_i - X_j| entries."""
    out = {}
    tasks = coll.tasks
    for factor in ("A", "B"):
        slot_means = []
        for slot in coll.slots():
            mats = [coll.f64(f"task.{t}.{slot}.{factor}") for t in tasks]
            pairs = [
                float(np.mean(np.abs(mats[i] - mats[j])))
                for i in range(len(mats))
                for j in range(len(mats))
                if i != j
            ]
            slot_means.append(float(np.mean(pairs)))
        out[factor] = float(np.mean(slot_means))
    return out
