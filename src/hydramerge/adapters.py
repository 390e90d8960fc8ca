"""Adapter data model: low-rank pairs, scaled-vector adapters, keyed
collections of them, and merged bundles.

A collection is ``K`` tasks x a set of (layer, slot) positions, homogeneous
in adapter kind, with identical shapes across tasks at each slot.  Merged
bundles hold either one adapter per slot (baseline output) or a
:class:`SharedSlot`: one shared side plus a list of cluster sides with a
per-task cluster assignment.  The clustered slot classes are also the
base of :mod:`hydramerge.hydra`'s training states, which hold their
clusters as one ``(M, ...)`` array instead of a list and add only the
routing logits, Adam's moments and the step count.  Both check their
clusters' shapes with :func:`check_cluster_shapes`.

Each adapter class describes its kind, so no other layer branches on it:

* ``kind`` is ``"lora"`` or ``"vera"``;
* ``sides()`` is ``(shared, cluster)`` as 2-D arrays: ``(a, b)`` for LoRA,
  ``(lambda_d, lambda_b)`` as columns for VeRA;
* ``frozen`` is ``()`` for LoRA and ``(shared_a, shared_b)`` for VeRA,
  the pair every task at a slot carries unchanged;
* ``from_sides`` and ``shared_slot`` build an adapter, or a
  :class:`SharedSlot`, back from those parts;
* ``check_shapes`` says, from shapes alone, whether those parts fit
  together; each adapter calls it, and so does
  :meth:`MergedBundle.validate` for every shared slot;
* ``predict(c, basis(shared, frozen))`` is the linear update map ``L(c)``
  from a cluster side to the ``d x k`` update; ``pull_back(g, c, basis)``
  gives its adjoint ``L^T(g)`` and ``c``'s term of the shared side's
  gradient, which ``shared_grad(term, frozen)`` finishes, one task's term
  at a time.  :func:`delta_weight` and :mod:`hydramerge.hydra`'s dense
  kernel use them.
* ``factors(shared, cluster, frozen)`` is the update as its rank-r
  factors ``(left, right)``, ``d x r`` and ``r x k``, with ``left @
  right == L(cluster)`` up to rounding: ``(b, a)`` for LoRA and ``(W,
  shared_a)`` for VeRA, ``W = diag(lambda_b) shared_b diag(lambda_d)``.
  :func:`delta_factors` gives an adapter's own.  ``right_frozen`` says
  whether the right factor is part of ``frozen`` (VeRA) or of the trained
  shared side (LoRA).  ``pull_back_factors(m, n, cluster, shared,
  frozen)`` gives ``L^T(G)`` and the finished shared term from ``m = G
  right^T`` (d x r) and ``n = left^T G`` (r x k), for one task or a stack
  of them.  With a frozen right factor the shared side sits in the left
  one, so it reads ``cluster`` and not ``n`` (which may be ``None``);
  otherwise ``n`` and not ``cluster``.  The reconstruction
  report and :mod:`hydramerge.hydra`'s factored kernels build on these;
  the report and the blocked kernel take every residual block from
  :func:`~hydramerge.linalg.residual_blocks`, with ``right_frozen`` as
  its ``one_right``.  :func:`delta_weight` stays the dense reference.

The base class :class:`Adapter` derives the rest once for both kinds:
``param_count`` is the size of the two sides, and ``shape_signature`` is
``(d, r, k)``.

Each pairing rule has one owner here.  :func:`check_slot` says when
adapters can share a slot (one kind, one ``(d, r, k)``, one frozen pair);
collections and :mod:`hydramerge.hydra`'s targets are checked with it.
:meth:`MergedBundle.of` builds a bundle over a collection's kind, tasks and
slots for a merge to fill.  :meth:`MergedBundle.merged` is the one slot
walk every merge fills it with: each slot's stream, ``seed xor hash(slot
label)``, and the slot label an error gains are set there.
:meth:`MergedBundle.check_pairs` says whether a bundle belongs to a
collection: its tasks in order, its slots and, per slot,
:func:`check_slot` between the two.  The reports refuse a bundle that
fails it.

Code that walks the slots reads a collection one slot at a time through
``adapters_at``, and a bundle through ``entry``; a merge puts each
slot's entry into its bundle's ``entries``, which :meth:`MergedBundle.of`
takes from the collection's ``merged_entries``.  ``adapters_at`` is the
only method that reads a collection's values: ``adapter(task, slot)`` is
one element of it, and ``sides_at`` is :func:`side_views` of it, two
views that take a task's side when indexed.  An archived collection or
bundle (see :mod:`hydramerge.archive`) holds :func:`stand_in` arrays in
its ``table`` or ``entries`` and reads each slot from its file in
``adapters_at`` or ``entry``, and a collection opened for a merge into
an archive writes each merged entry as it is put.  So a walk over the
slots in order holds one slot at a time.  An archived collection's
``adapters_at`` reads the slot's frozen pair when called and each task's
adapter, both sides, when it is indexed, so a walk over a slot's tasks
in turn (the reconstruction report, or one side view) holds one task at
a time; training holds every task of its slot, which each step reads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterable, Mapping, MutableMapping, Sequence, Union

import numpy as np

from .errors import HydraMergeError, ShapeError, ValidationError
from .linalg import Matrix, Rng, as_matrix, stable_hash64

_SLOT_NAME = r"[A-Za-z0-9_]+"


@dataclass(frozen=True, order=True)
class SlotKey:
    """One adapted weight position: layer index plus projection name.
    ``LABEL`` is the pattern of a :meth:`label`, unanchored, with the
    layer and the name as its two groups."""

    layer: int
    slot: str
    LABEL: ClassVar[str] = rf"layer\.(\d+)\.({_SLOT_NAME})"

    def __post_init__(self):
        if self.layer < 0:
            raise ValidationError(f"layer index must be >= 0, got {self.layer}")
        if not re.match(rf"^{_SLOT_NAME}$", self.slot):
            raise ValidationError(f"slot name {self.slot!r} must be alphanumeric/underscore")

    def label(self) -> str:
        return f"layer.{self.layer}.{self.slot}"

    @classmethod
    def from_label(cls, label: str) -> "SlotKey":
        m = re.match(rf"^{cls.LABEL}$", label)
        if m is None:
            raise ValidationError(f"malformed slot label {label!r}")
        return cls(layer=int(m.group(1)), slot=m.group(2))


class Adapter:
    """What every adapter kind derives from its ``sides()`` and its
    ``d``, ``rank`` and ``k``."""

    @property
    def param_count(self) -> int:
        # per-task payload only; the frozen pair's holder counts it once per slot
        return sum(side.size for side in self.sides())

    def shape_signature(self) -> tuple:
        return (self.d, self.rank, self.k)


@dataclass
class LowRankAdapter(Adapter):
    """One task's factor pair for one slot; the weight update is ``b @ a``.

    ``b`` is the output-side factor (d x r), ``a`` the input-side factor
    (r x k).
    """

    b: Matrix
    a: Matrix
    kind: ClassVar[str] = "lora"
    frozen: ClassVar[tuple] = ()
    right_frozen: ClassVar[bool] = False

    def __post_init__(self):
        self.b = as_matrix(self.b, "b")
        self.a = as_matrix(self.a, "a")
        self.check_shapes(self.a, self.b, self.frozen)

    @property
    def d(self) -> int:
        return self.b.shape[0]

    @property
    def k(self) -> int:
        return self.a.shape[1]

    @property
    def rank(self) -> int:
        return self.b.shape[1]

    def sides(self) -> tuple[Matrix, Matrix]:
        return self.a, self.b

    @staticmethod
    def check_shapes(shared, cluster, frozen, where: str = "") -> None:
        """Raise :class:`ValidationError`, prefixed by ``where``, unless
        ``from_sides(shared, cluster, frozen)`` fits together, from shapes
        alone."""
        b, a = np.shape(cluster), np.shape(shared)
        if len(b) != 2 or len(a) != 2 or b[1] != a[0]:
            raise ValidationError(f"{where}rank mismatch: b is {b}, a is {a}")
        (d, rank), k = b, a[1]
        if rank > min(d, k):
            raise ValidationError(f"{where}rank {rank} exceeds min(d, k) = {min(d, k)}")

    @classmethod
    def from_sides(cls, shared, cluster, frozen) -> "LowRankAdapter":
        return cls(b=cluster, a=shared)

    @classmethod
    def shared_slot(cls, shared, clusters, frozen, assignment) -> "SharedLoraSlot":
        return SharedLoraSlot(a_shared=shared, b_clusters=clusters, assignment=assignment)

    @staticmethod
    def basis(shared: Matrix, frozen: tuple) -> Matrix:
        return shared

    @staticmethod
    def predict(cluster: Matrix, basis: Matrix) -> Matrix:
        """``L(B) = B A``."""
        return cluster @ basis

    @staticmethod
    def pull_back(g: Matrix, cluster: Matrix, basis: Matrix) -> tuple[Matrix, Matrix]:
        """``L^T(G) = G A^T`` and ``B^T G``, whose sum is ``dA``."""
        return g @ basis.T, cluster.T @ g

    @staticmethod
    def shared_grad(term: Matrix, frozen: tuple) -> Matrix:
        return term

    @staticmethod
    def factors(shared: Matrix, cluster: Matrix, frozen: tuple) -> tuple[Matrix, Matrix]:
        """``(B, A)``, so that ``L(B) = B A``."""
        return cluster, shared

    @staticmethod
    def pull_back_factors(m, n, cluster, shared, frozen: tuple):
        """``L^T(G) = G A^T = m`` and the shared term ``dA = B^T G = n``."""
        return m, n


@dataclass
class VeraAdapter(Adapter):
    """Scaled-vector adapter: frozen shared factors plus per-task scaling
    vectors.  The weight update is ``diag(lambda_b) @ shared_b @
    diag(lambda_d) @ shared_a``.
    """

    lambda_b: np.ndarray
    lambda_d: np.ndarray
    shared_b: Matrix
    shared_a: Matrix
    kind: ClassVar[str] = "vera"
    right_frozen: ClassVar[bool] = True

    def __post_init__(self):
        # as_matrix rejects an empty or non-finite vector
        self.lambda_b = as_matrix(np.reshape(self.lambda_b, (-1, 1)), "lambda_b").ravel()
        self.lambda_d = as_matrix(np.reshape(self.lambda_d, (-1, 1)), "lambda_d").ravel()
        self.shared_b = as_matrix(self.shared_b, "shared_b")
        self.shared_a = as_matrix(self.shared_a, "shared_a")
        self.check_shapes(self.lambda_d, self.lambda_b, self.frozen)

    @property
    def d(self) -> int:
        return self.shared_b.shape[0]

    @property
    def k(self) -> int:
        return self.shared_a.shape[1]

    @property
    def rank(self) -> int:
        return self.shared_b.shape[1]

    def sides(self) -> tuple[Matrix, Matrix]:
        return self.lambda_d.reshape(-1, 1), self.lambda_b.reshape(-1, 1)

    @property
    def frozen(self) -> tuple[Matrix, Matrix]:
        return self.shared_a, self.shared_b

    @staticmethod
    def check_shapes(shared, cluster, frozen, where: str = "") -> None:
        """Raise :class:`ValidationError`, prefixed by ``where``, unless
        ``from_sides(shared, cluster, frozen)`` fits together, from shapes
        alone."""
        shared_a, shared_b = map(np.shape, frozen)
        if len(shared_b) != 2 or len(shared_a) != 2 or shared_b[1] != shared_a[0]:
            raise ValidationError(
                f"{where}rank mismatch: shared_b is {shared_b}, shared_a is {shared_a}"
            )
        d, rank = shared_b
        if np.size(shared) != rank:
            raise ValidationError(
                f"{where}lambda_d has length {np.size(shared)}, expected rank {rank}"
            )
        if np.size(cluster) != d:
            raise ValidationError(
                f"{where}lambda_b has length {np.size(cluster)}, expected {d} rows"
            )

    @classmethod
    def from_sides(cls, shared, cluster, frozen) -> "VeraAdapter":
        shared_a, shared_b = frozen
        return cls(lambda_b=cluster, lambda_d=shared, shared_b=shared_b, shared_a=shared_a)

    @classmethod
    def shared_slot(cls, shared, clusters, frozen, assignment) -> "SharedVeraSlot":
        shared_a, shared_b = frozen
        clusters = [c.ravel() for c in clusters]
        return SharedVeraSlot(shared.ravel(), clusters, shared_b, shared_a, assignment)

    @staticmethod
    def basis(shared: np.ndarray, frozen: tuple[Matrix, Matrix]) -> Matrix:
        """``core = shared_b diag(lambda_d) shared_a``."""
        shared_a, shared_b = frozen
        return (shared_b * np.reshape(shared, (1, -1))) @ shared_a

    @staticmethod
    def predict(cluster: np.ndarray, basis: Matrix) -> Matrix:
        """``L(lambda_b) = diag(lambda_b) core``, for 1-D or column vectors."""
        return np.reshape(cluster, (-1, 1)) * basis

    @staticmethod
    def pull_back(g: Matrix, cluster: np.ndarray, basis: Matrix) -> tuple[np.ndarray, Matrix]:
        """``L^T(G) = rowsum(G * core)`` and ``diag(lambda_b) G``."""
        return (g * basis).sum(axis=1), np.reshape(cluster, (-1, 1)) * g

    @staticmethod
    def shared_grad(term: Matrix, frozen: tuple[Matrix, Matrix]) -> np.ndarray:
        """``rowsum((shared_b^T H) * shared_a)`` for the term ``H = diag(lambda_b) G``."""
        shared_a, shared_b = frozen
        return ((shared_b.T @ term) * shared_a).sum(axis=1)

    @staticmethod
    def factors(shared: np.ndarray, cluster: np.ndarray, frozen: tuple) -> tuple[Matrix, Matrix]:
        """``(W, shared_a)`` with ``W = diag(lambda_b) shared_b
        diag(lambda_d)`` (d x r), so that ``L(lambda_b) = W shared_a``.
        Both halves of a residual ``W_t - W_p`` take the same operations,
        so equal vectors give exactly 0."""
        shared_a, shared_b = frozen
        return np.reshape(cluster, (-1, 1)) * (shared_b * np.reshape(shared, (1, -1))), shared_a

    @staticmethod
    def pull_back_factors(m, n, cluster, shared, frozen: tuple[Matrix, Matrix]):
        """``L^T(G) = rowsum(m * shared_b * lambda_d)`` and the finished
        shared term ``colsum(m * lambda_b * shared_b)``, from ``m = G
        shared_a^T`` alone; ``cluster`` is 1-D, or one row per stacked ``m``."""
        scaled = m * frozen[1]
        return scaled @ np.ravel(shared), (cluster[..., None, :] @ scaled)[..., 0, :]


def check_slot(adapters: Mapping[str, Adapter], where: str) -> None:
    """Raise :class:`ValidationError` unless every adapter has the first
    one's kind, ``(d, r, k)`` and frozen pair, as adapters sharing a slot
    must.  ``adapters`` maps a label for each (``task 't1'``, ``the
    bundle``) to the adapter; the error names ``where``, the first
    offender and each of the three it differs in (a LoRA adapter carries
    no frozen pair, so it differs from a VeRA one in all three)."""
    (first_name, first), *rest = adapters.items()
    for name, adapter in rest:
        found = []
        if (adapter.kind, adapter.shape_signature()) != (first.kind, first.shape_signature()):
            found.append(
                f"{name} is {adapter.kind} with (d, r, k) = {adapter.shape_signature()}, "
                f"{first_name} is {first.kind} with {first.shape_signature()}"
            )
        pairs = (first.frozen, adapter.frozen)
        if len(pairs[0]) != len(pairs[1]) or not all(map(np.array_equal, *pairs)):
            found.append(f"{name} and {first_name} carry different frozen pairs")
        if found:
            raise ValidationError(f"{where}: " + "; ".join(found))


def check_cluster_shapes(clusters: Sequence, where: str = "") -> None:
    """Raise :class:`ValidationError`, prefixed by ``where``, naming the
    first cluster whose shape differs from cluster 0's."""
    first = np.shape(clusters[0])
    for j, cluster in enumerate(clusters):
        if np.shape(cluster) != first:
            raise ValidationError(
                f"{where}cluster {j} has shape {np.shape(cluster)}, cluster 0 has {first}"
            )


def stand_in(shape) -> np.ndarray:
    """A read-only array of zeros of ``shape`` that stores one value (all
    its strides are 0): an adapter or slot built from stand-ins has the
    kind, shapes and parameter count of the real one, and no payload."""
    return np.broadcast_to(np.float64(0.0), shape)


def _check_task_ids(ids, field: str) -> None:
    """At least one id, each a distinct non-empty string: the archive's
    tensor names and ``meta.tasks`` carry nothing else."""
    if not ids or not all(isinstance(t, str) and t for t in ids) or len(set(ids)) != len(ids):
        raise ValidationError(f"{field} must be distinct non-empty strings, got {ids!r}")


def delta_factors(adapter: Adapter) -> tuple[Matrix, Matrix]:
    """The update's rank-r factors ``(left, right)`` from ``sides()``."""
    return adapter.factors(*adapter.sides(), adapter.frozen)


def delta_weight(adapter: Adapter) -> Matrix:
    """The dense weight update ``L(cluster)`` from ``sides()``; non-finite raises ShapeError."""
    shared, cluster = adapter.sides()
    with np.errstate(over="ignore", invalid="ignore"):
        out = adapter.predict(cluster, adapter.basis(shared, adapter.frozen))
    if not np.all(np.isfinite(out)):
        raise ShapeError("matrix product overflowed to non-finite values")
    return out


class _Side(Sequence):
    """Side ``which`` of ``sides()`` of each adapter in ``adapters``, taken
    when indexed."""

    def __init__(self, adapters: Sequence[Adapter], which: int):
        self._adapters, self._which = adapters, which

    def __getitem__(self, i: int) -> Matrix:
        return self._adapters[i].sides()[self._which]

    def __len__(self) -> int:
        return len(self._adapters)


def side_views(adapters: Sequence[Adapter]) -> tuple[Sequence[Matrix], Sequence[Matrix]]:
    """Each adapter's shared side, and each one's cluster side, in order: two
    views of ``adapters`` that index an adapter to take its side, so a
    sequence that reads an adapter when indexed reads it once per side
    taken, and a walk over one view holds one task at a time."""
    return _Side(adapters, 0), _Side(adapters, 1)


@dataclass
class AdapterCollection:
    """K tasks x slots of adapters with consistent shapes.

    ``slots`` is kept in canonical sorted order so that any two collections
    with the same contents are laid out, and serialized, identically.
    """

    task_ids: list[str]
    slots: list[SlotKey]
    table: dict[tuple[str, SlotKey], Adapter]

    @classmethod
    def build(
        cls,
        task_ids: Iterable[str],
        table: Mapping[tuple[str, SlotKey], Adapter],
    ) -> "AdapterCollection":
        slots = sorted({slot for (_, slot) in table})
        coll = cls(task_ids=list(task_ids), slots=slots, table=dict(table))
        coll.validate()
        return coll

    def validate(self) -> None:
        _check_task_ids(self.task_ids, "task_ids")
        if not self.slots:
            raise ValidationError("a collection needs at least one slot")
        tasks, slots = set(self.task_ids), set(self.slots)
        for task, slot in self.table:
            if task not in tasks or slot not in slots:
                raise ValidationError(
                    f"adapter for task {task!r} at slot {slot.label()} lies outside "
                    f"task_ids x slots"
                )
        kinds = {type(adapter) for adapter in self.table.values()}
        if len(kinds) > 1:
            raise ValidationError("collection mixes adapter kinds")
        for slot in self.slots:
            for task in self.task_ids:
                if (task, slot) not in self.table:
                    raise ValidationError(
                        f"missing adapter for task {task!r} at slot {slot.label()}"
                    )
            names = (f"task {task!r}" for task in self.task_ids)
            check_slot(dict(zip(names, self.adapters_at(slot))), f"slot {slot.label()}")

    @property
    def kind(self) -> str:
        return next(iter(self.table.values())).kind

    @property
    def num_tasks(self) -> int:
        return len(self.task_ids)

    def adapter(self, task: str, slot: SlotKey) -> Adapter:
        """``task``'s adapter at ``slot``, read through :meth:`adapters_at`;
        a task the collection does not hold raises :class:`KeyError`."""
        if task not in self.task_ids:
            raise KeyError(f"task {task!r} is not in the collection")
        return self.adapters_at(slot)[self.task_ids.index(task)]

    def adapters_at(self, slot: SlotKey) -> Sequence[Adapter]:
        """Every task's adapter at ``slot``, in task order; an archived
        collection reads each one when it is indexed.  The only method
        that reads the collection's values."""
        return [self.table[(task, slot)] for task in self.task_ids]

    def sides_at(self, slot: SlotKey) -> tuple[Sequence[Matrix], Sequence[Matrix]]:
        """Every task's shared side, and every task's cluster side, at
        ``slot``, each in task order: :func:`side_views` of one
        :meth:`adapters_at` sequence."""
        return side_views(self.adapters_at(slot))

    def merged_entries(self) -> MutableMapping:
        """Where a bundle merged over this collection keeps its entries (see
        :meth:`MergedBundle.of`): a dict, or a collection opened for a merge
        into an archive writes each entry as it is put."""
        return {}

    def param_count(self) -> int:
        """Number of stored real entries, counting frozen factors once per slot."""
        total = sum(adapter.param_count for adapter in self.table.values())
        for slot in self.slots:
            total += sum(f.size for f in self.table[(self.task_ids[0], slot)].frozen)
        return total


@dataclass
class MergedAdapterSlot:
    """Baseline output for one slot: a single adapter used by every task."""

    adapter: Adapter

    @property
    def kind(self) -> str:
        return self.adapter.kind

    def member(self, j: int) -> Adapter:
        return self.adapter

    @property
    def param_count(self) -> int:
        # the frozen pair, if any, is stored alongside the merged adapter
        return self.adapter.param_count + sum(f.size for f in self.adapter.frozen)

    def prediction(self, task_index: int) -> Matrix:
        return delta_weight(self.adapter)


class SharedSlot:
    """One shared side plus per-cluster sides of one adapter kind, and each
    task's cluster.  A subclass names its parts ``shared``, ``clusters``
    and ``frozen``; cluster j's adapter is ``member(j)``."""

    adapter_type: ClassVar[type]

    def __post_init__(self):
        m = len(self.clusters)
        if m == 0:
            raise ValidationError("clusters is empty; a shared slot needs at least one cluster")
        for idx in self.assignment:
            if not (0 <= idx < m):
                raise ValidationError(f"assignment index {idx} out of range [0, {m})")

    @property
    def kind(self) -> str:
        return self.adapter_type.kind

    def member(self, j: int) -> Adapter:
        return self.adapter_type.from_sides(self.shared, self.clusters[j], self.frozen)

    @property
    def param_count(self) -> int:
        return sum(part.size for part in (self.shared, *self.clusters, *self.frozen))

    def prediction(self, task_index: int) -> Matrix:
        return delta_weight(self.member(self.assignment[task_index]))


@dataclass
class SharedLoraSlot(SharedSlot):
    """Shared input-side factor plus per-cluster output factors."""

    a_shared: Matrix
    b_clusters: list[Matrix]
    assignment: list[int]
    adapter_type: ClassVar[type] = LowRankAdapter
    frozen: ClassVar[tuple] = ()

    @property
    def shared(self) -> Matrix:
        return self.a_shared

    @property
    def clusters(self) -> list[Matrix]:
        return self.b_clusters


@dataclass
class SharedVeraSlot(SharedSlot):
    """Shared inner scaling vector plus per-cluster outer scaling vectors,
    alongside the frozen factor pair they modulate."""

    lambda_d: np.ndarray
    lambda_b_clusters: list[np.ndarray]
    shared_b: Matrix
    shared_a: Matrix
    assignment: list[int]
    adapter_type: ClassVar[type] = VeraAdapter

    @property
    def shared(self) -> np.ndarray:
        return self.lambda_d

    @property
    def clusters(self) -> list[np.ndarray]:
        return self.lambda_b_clusters

    @property
    def frozen(self) -> tuple[Matrix, Matrix]:
        return self.shared_a, self.shared_b


MergedSlot = Union[MergedAdapterSlot, SharedSlot]


@dataclass
class MergedBundle:
    """Output of any merge: one entry per slot plus bookkeeping."""

    method: str
    kind: str
    tasks: list[str]
    slots: list[SlotKey] = field(default_factory=list)
    entries: dict[SlotKey, MergedSlot] = field(default_factory=dict)

    @classmethod
    def of(cls, collection: AdapterCollection, method: str) -> "MergedBundle":
        """An empty bundle over ``collection``'s kind, tasks and slots, for
        a merge to fill; its entries go into ``collection.merged_entries()``."""
        tasks, slots = list(collection.task_ids), list(collection.slots)
        return cls(method, collection.kind, tasks, slots, collection.merged_entries())

    @classmethod
    def merged(
        cls, collection: AdapterCollection, method: str, seed: int, merge_slot: Callable
    ) -> "MergedBundle":
        """The bundle that ``merge_slot(slot, rng)`` fills (see :meth:`of`).

        Slot by slot, in order, ``merge_slot`` gets the slot and its own
        stream, ``Rng(seed xor stable_hash64(slot label))``, so no slot's
        entry depends on another's; the entry it returns is put in the
        bundle, which is validated last.  An error it raises keeps its type
        and gains the slot label, and the task name when ``exc.task`` is
        set.  The put is not labelled: an archive writer's error there
        names its tensor.
        """
        bundle = cls.of(collection, method)
        for slot in collection.slots:
            label = slot.label()
            try:
                entry = merge_slot(slot, Rng(seed ^ stable_hash64(label)))
            except HydraMergeError as exc:
                where = "" if exc.task is None else f"task {collection.task_ids[exc.task]}: "
                raise type(exc)(f"slot {label}: {where}{exc}") from exc
            bundle.entries[slot] = entry
            del entry  # the put stored it: the next slot merges without it in memory
        bundle.validate()
        return bundle

    def validate(self) -> None:
        if self.kind not in ("lora", "vera"):
            raise ValidationError(f"unknown bundle kind {self.kind!r}")
        if not isinstance(self.method, str):
            raise ValidationError(f"method must be a string, got {self.method!r}")
        _check_task_ids(self.tasks, "tasks")
        if not self.slots:
            raise ValidationError("slots is empty; a bundle needs at least one slot")
        if set(self.slots) != set(self.entries):
            raise ValidationError("bundle slots and entries disagree")
        for slot, entry in self.entries.items():
            if entry.kind != self.kind:
                raise ValidationError(f"kind {self.kind!r} does not match slot {slot.label()}")
            if isinstance(entry, SharedSlot):
                if len(entry.assignment) != len(self.tasks):
                    raise ValidationError(
                        f"slot {slot.label()} assigns {len(entry.assignment)} tasks, "
                        f"expected {len(self.tasks)}"
                    )
                check_cluster_shapes(entry.clusters, f"slot {slot.label()}: ")
                # every cluster has cluster 0's shape, so its fit is theirs
                entry.adapter_type.check_shapes(
                    entry.shared, entry.clusters[0], entry.frozen, f"slot {slot.label()}: "
                )

    def check_pairs(self, collection: AdapterCollection) -> None:
        """Raise :class:`ValidationError` unless this bundle was merged over
        ``collection``: the same tasks in order, the same slots and, at each
        slot, :func:`check_slot` between the two.  The bundle must also be
        valid (see :meth:`validate`)."""
        self.validate()
        if set(collection.slots) != set(self.slots):
            raise ValidationError("collection and bundle cover different slots")
        if list(collection.task_ids) != list(self.tasks):
            raise ValidationError("collection and bundle cover different tasks")
        for slot in collection.slots:
            ours, theirs = collection.adapter(self.tasks[0], slot), self.entry(slot).member(0)
            check_slot({"the collection": ours, "the bundle": theirs}, f"slot {slot.label()}")

    @property
    def param_count(self) -> int:
        return sum(entry.param_count for entry in self.entries.values())

    def entry(self, slot: SlotKey) -> MergedSlot:
        return self.entries[slot]

    def prediction(self, task: str, slot: SlotKey) -> Matrix:
        return self.entry(slot).prediction(self.tasks.index(task))

    def assignment_map(self) -> dict[str, dict[str, int]]:
        """Per-task, per-slot cluster index (0 for single-adapter slots)."""
        out: dict[str, dict[str, int]] = {task: {} for task in self.tasks}
        for slot in self.slots:
            entry = self.entries[slot]
            shared = isinstance(entry, SharedSlot)
            for i, task in enumerate(self.tasks):
                out[task][slot.label()] = entry.assignment[i] if shared else 0
        return out


def storage_ratio_percent(original: int, merged: int) -> float:
    """Merged parameter count as a percentage of the original count."""
    if original <= 0:
        raise ValidationError("original parameter count must be positive")
    return 100.0 * merged / original
