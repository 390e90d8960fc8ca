"""Deterministic generator of desk-scale adapter collections.

Per slot, all tasks share a common input-side factor up to configurable
Gaussian noise, while output-side factors are drawn independently per
task.  With small ``a_noise`` and unit ``b_scale`` the input factors are
near-identical across tasks and the output factors are not, which is the
regime the merging procedures are designed around.

Every slot draws from its own stream, so a generated collection draws a
slot when it is read and keeps one slot at a time (see :func:`generate`).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .adapters import AdapterCollection, LowRankAdapter, SlotKey
from .errors import ParameterError
from .linalg import Rng, gaussian_sample, stable_hash64


@dataclass(frozen=True)
class SynthSpec:
    """The shape and noise of a synthetic collection; a field out of range
    raises :class:`ParameterError` when the spec is built."""

    tasks: int = 5
    layers: int = 2
    slot_names: tuple[str, ...] = ("q", "v")
    d: int = 16
    k: int = 16
    rank: int = 4
    a_noise: float = 0.05
    b_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.tasks < 1:
            raise ParameterError(f"tasks must be >= 1, got {self.tasks}")
        if self.layers < 1 or not self.slot_names:
            raise ParameterError("need at least one layer and one slot name")
        if len(set(self.slot_names)) != len(self.slot_names):
            raise ParameterError(f"duplicate slot names in {self.slot_names}")
        if min(self.d, self.k, self.rank) < 1:
            raise ParameterError("d, k and rank must be positive")
        if self.rank > min(self.d, self.k):
            raise ParameterError(f"rank {self.rank} exceeds min(d, k) = {min(self.d, self.k)}")
        for name in ("a_noise", "b_scale"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be finite and >= 0, got {getattr(self, name)}")

    def slot_keys(self) -> list[SlotKey]:
        return sorted(
            SlotKey(layer, name) for layer in range(self.layers) for name in self.slot_names
        )


def generate(spec: SynthSpec) -> AdapterCollection:
    """The collection described by ``spec``, fully determined by its seed.

    Its slots are drawn when they are read, one at a time: looking up an
    adapter draws its slot, unless that slot was the last one drawn, so
    walking the slots in order draws each once and holds one slot.  Per
    slot: draw the shared input factor, then per task (in order) the
    input-factor perturbation and the output factor, all from that slot's
    own stream, so every draw of a slot gives the same adapters.  A draw
    that overflows raises :class:`ParameterError` naming ``a_noise`` or
    ``b_scale``, when its slot is read.
    """
    task_ids = [f"t{i}" for i in range(spec.tasks)]
    return AdapterCollection(task_ids, spec.slot_keys(), _Drawn(spec, task_ids))


class _Drawn(Mapping):
    """A synthetic collection's adapters by ``(task, slot)``, the last slot
    drawn kept."""

    def __init__(self, spec: SynthSpec, task_ids: list[str]):
        self._spec, self._task_ids = spec, task_ids
        self._keys = dict.fromkeys((task, slot) for slot in spec.slot_keys() for task in task_ids)
        self._slot, self._adapters = None, {}

    def __getitem__(self, key: tuple[str, SlotKey]) -> LowRankAdapter:
        if key not in self._keys:
            raise KeyError(key)
        task, slot = key
        if slot != self._slot:
            self._slot, self._adapters = None, {}  # the last slot goes before the next is drawn
            self._adapters = dict(zip(self._task_ids, self._draw(slot)))
            self._slot = slot
        return self._adapters[task]

    def __contains__(self, key) -> bool:
        return key in self._keys

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def _draw(self, slot: SlotKey) -> list[LowRankAdapter]:
        spec = self._spec
        rng = Rng(spec.seed ^ stable_hash64("synthetic." + slot.label()))
        a_common = gaussian_sample(rng, spec.rank, spec.k, 0.0, 1.0)
        adapters = []
        for _ in self._task_ids:
            noise = gaussian_sample(rng, spec.rank, spec.k, 0.0, spec.a_noise)
            b = gaussian_sample(rng, spec.d, spec.rank, 0.0, spec.b_scale)
            for name, draw in (("a_noise", noise), ("b_scale", b)):
                if not np.all(np.isfinite(draw)):
                    value = getattr(spec, name)
                    raise ParameterError(f"{name} = {value:g} is too large: the draw overflows")
            adapters.append(LowRankAdapter(b=b, a=a_common + noise))
        return adapters
