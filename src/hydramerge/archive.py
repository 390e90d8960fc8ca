"""LRTA v1: a bit-exact tensor-archive file format, read and written one
slot at a time.

Layout::

    bytes 0..7    u64 little-endian N = manifest length in bytes
    bytes 8..8+N  UTF-8 JSON manifest (sorted keys, no whitespace)
    bytes 8+N..   concatenated row-major little-endian float32 payloads,
                  no padding; tensor offsets are relative to this section

Manifest schema::

    {"version": 1,
     "tensors": {name: {"shape": [rows, cols], "offset": int, "nbytes": int}},
     "meta": {"kind": "lora"|"vera"|"bundle",
              "tasks": [task_id, ...],
              "method": str?,                       # bundles only
              "assignment": {task: {slot: int}}?}}  # bundles only

Tensor names (``<slot>`` is ``layer.<n>.<name>``):

* lora collection:   ``task.<id>.<slot>.A`` / ``task.<id>.<slot>.B``
* vera collection:   ``task.<id>.<slot>.lambda_b|lambda_d`` plus
  ``shared.<slot>.A`` / ``shared.<slot>.B`` stored once per slot
* bundles:           ``merged.<slot>.A|B`` (single adapter),
  ``merged.<slot>.B.<j>`` for cluster factors, and the vera analogues
  ``merged.<slot>.lambda_b|lambda_d[.<j>]``

One table, ``_LAYOUTS``, maps each adapter kind to its field names: the
shared side (``A`` / ``lambda_d``), the cluster side (``B`` /
``lambda_b``) and the frozen pair (none / ``A``, ``B``).  Its
``side_names`` gives the stored names of a task's or a bundle's two
sides at a slot, and ``frozen_names`` those of the slot's frozen pair;
the writer and the reader both take every such name from them.  They
take the parts themselves from the adapter's ``sides()`` and ``frozen``
(see :mod:`hydramerge.adapters`), so neither branches on the kind.  The
reader's name patterns take their side names from it too, and the slot
grammar from :class:`~hydramerge.adapters.SlotKey`'s ``LABEL``; a bundle
that names a VeRA side is read as VeRA.

Vectors are stored as n x 1.  Tensors are serialized in sorted-name order,
so identical inputs always produce byte-identical files.  Values are
written as float32 and widened to float64 on read.

**Reading.**  :func:`open_archive` checks the whole file and keeps none of
its values.  It checks the manifest, then every payload in name order,
each read by its offset and scanned for non-finite float32 values, then
builds the collection or bundle from names, shapes and meta alone, out of
:func:`~hydramerge.adapters.stand_in` arrays, with every check
:func:`read_archive` makes.  It returns that object: its ``table`` or
``entries`` hold the stand-ins, which give every slot, task, kind, shape,
assignment and parameter count.  A bundle's ``entry`` reads one slot's
tensors from the file, as float64, each time it is called.  A
collection's ``adapters_at`` reads the slot's frozen pair once, when
called, and gives a sequence that reads a task's two sides when indexed;
its ``adapter`` and ``sides_at`` read through that sequence (see
:mod:`hydramerge.adapters`).  A file replaced or rewritten
after the checks is then an :class:`ArchiveFormatError`.
:func:`read_archive` is the every-slot case: the same checks, then the
same slot readers read every tensor into an in-memory object.

The reader accepts exactly what the writer can emit: the version, shapes,
offsets and sizes are JSON integers (not booleans or floats), the
payloads lie back to back in name order, as the writer lays them out,
and fill the payload section with no overlap, gap or trailing bytes,
``meta.tasks`` is a list of distinct strings, every tensor
belongs to the collection or bundle read, so a stray name (for instance
``task.<id>.*`` of an undeclared task) is an error that names it, and
``meta`` equals the writer's meta for the object read, so an unknown key
or an assignment the writer would not emit is an error naming the key.
The reader itself takes from ``meta.assignment`` only the shared slots'
clusters; the ``meta`` comparison judges the rest.

**Writing.**  An :class:`ArchiveWriter` takes tensors a slot at a time.
It rejects a non-finite value, or a finite one beyond float32 range,
naming the tensor, and appends each payload to a spill file beside the
destination, whose name is removed as soon as it is opened.  The
manifest comes last, because a bundle's ``meta.assignment`` is known only
after its last slot (and after ``--globalize-assignment``):
:meth:`ArchiveWriter.commit` writes the header, the manifest and the
payloads in name order, copied one tensor at a time from the spill, to a
temporary file beside the destination, and ``os.replace``-s the
destination with it.  So a failed write leaves neither the destination
nor a temporary file, and a destination that is also the archive being
read is replaced only after its last slot was read.

The writer has one encoder and borrows the reader's decoder.
:func:`_slot_tensors` gives the tensors of one slot of a collection or
bundle, and :meth:`ArchiveWriter.write` spills them slot by slot in slot
order, taking the meta first.  Before it commits, ``write``, like
:meth:`ArchiveWriter.finish`, decodes the manifest it is about to write
with :func:`_build`, the decoder of :func:`open_archive` and
:func:`read_archive`, from stand-ins of the spilled shapes plus the
meta.  It commits only if that succeeds and returns the outline decoded,
so the writer never emits a file its reader rejects: an assignment of
``True`` or ``1.0`` is refused as the reader refuses it, naming the task
and the slot.  A bundle merged over a collection opened with
``into=writer`` (see :meth:`~hydramerge.adapters.MergedBundle.of`) keeps
its entries in a mapping that writes each slot to ``writer`` as the
merge puts it, and keeps its stand-in.  :func:`write_archive` and
:func:`write_raw_archive` are the every-slot case;
:func:`write_raw_archive` checks only the values, so that malformed
archives can be made with it.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .adapters import (
    AdapterCollection,
    LowRankAdapter,
    MergedAdapterSlot,
    MergedBundle,
    SharedSlot,
    SlotKey,
    VeraAdapter,
    stand_in,
)
from .errors import ArchiveFormatError, ValidationError


class _Layout(NamedTuple):
    """One adapter kind's stored names; the writer and the reader both take
    every side and frozen name from its methods."""

    adapter: type
    shared: str
    cluster: str
    frozen: tuple[str, ...]

    @property
    def sides(self) -> tuple[str, str]:
        """The field names of the shared and the cluster side."""
        return self.shared, self.cluster

    def side_names(self, label: str, task: str | None = None) -> tuple[str, str]:
        """The names of the shared and the cluster side at the slot
        ``label``: ``task.<task>.<label>.<field>``, or
        ``merged.<label>.<field>`` for a bundle (``task`` None)."""
        prefix = f"merged.{label}." if task is None else f"task.{task}.{label}."
        return prefix + self.shared, prefix + self.cluster

    def frozen_names(self, label: str) -> tuple[str, ...]:
        """The names of the frozen pair, stored once at the slot ``label``."""
        return tuple(f"shared.{label}.{name}" for name in self.frozen)


_LAYOUTS = {
    "lora": _Layout(LowRankAdapter, "A", "B", ()),
    "vera": _Layout(VeraAdapter, "lambda_d", "lambda_b", ("A", "B")),
}

_HEADER_BYTES = 8
# every kind's side names; a task's or a bundle's side is a slot label, then one
_SIDE_NAMES = [name for layout in _LAYOUTS.values() for name in layout.sides]
_SIDE = rf"(?P<slot>{SlotKey.LABEL})\.(?P<field>{'|'.join(_SIDE_NAMES)})"
_TASK_TENSOR = re.compile(  # DOTALL: a task id may hold any character
    rf"^task\.(?P<task>.+)\.{_SIDE}$", re.DOTALL
)
_MERGED_TENSOR = re.compile(rf"^merged\.{_SIDE}(?:\.(?P<cluster>\d+))?$")


def _as_f32_payload(arr: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        payload = np.ascontiguousarray(a, dtype="<f4")
    if not np.all(np.isfinite(payload)):
        if not np.all(np.isfinite(a)):
            raise ValidationError(f"tensor {name!r} contains non-finite entries")
        raise ValidationError(
            f"tensor {name!r} holds a finite value beyond float32 range "
            f"(|x| > {float(np.finfo(np.float32).max):.7g})"
        )
    return payload


class ArchiveWriter:
    """Writes one archive to ``path``, a slot at a time; a context manager.

    :meth:`add` checks and spills tensors and :meth:`commit` writes the
    file; :meth:`write` and :meth:`finish` do both for a collection or
    bundle, and commit only what the reader decodes.  Leaving the ``with``
    block without a commit, or by an error, writes nothing.  An
    :class:`OSError` from a file beside ``path`` names ``path`` instead."""

    def __init__(self, path):
        self.path = path
        self._spill = None
        self._spilled: dict[str, tuple[tuple[int, int], int]] = {}  # name: (shape, spill offset)

    def __enter__(self) -> "ArchiveWriter":
        return self

    def __exit__(self, *exc) -> None:
        if self._spill is not None:
            self._spill.close()

    def _named(self, call, *args):
        try:
            return call(*args)
        except OSError as exc:  # from opening or replacing a file beside the destination
            raise OSError(exc.errno, exc.strerror, os.fspath(self.path)) from None

    def _beside(self, suffix: str, mode: str):
        """A new file beside the destination, open in ``mode``, and its path."""
        head, tail = os.path.split(os.fspath(self.path))
        temp = os.path.join(head, f".{tail}.{os.getpid()}.{id(self):x}{suffix}")
        return temp, self._named(open, temp, mode)

    def add(self, tensors: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Check each tensor, in name order, and append its float32 payload
        to the spill; the stand-ins of the tensors added, by name."""
        stand_ins = {}
        for name in sorted(tensors):
            payload = _as_f32_payload(tensors[name], name)
            if self._spill is None:
                temp, self._spill = self._beside(".spill", "w+b")
                os.unlink(temp)  # the open file outlives its name, so nothing is left behind
            self._spilled[name] = (payload.shape, self._spill.tell())
            self._spill.write(payload)
            stand_ins[name] = stand_in(payload.shape)
        return stand_ins

    def write(self, obj):
        """Write every slot of ``obj``, a collection or a bundle, one at a
        time in slot order, and commit its meta as :meth:`finish` does;
        return the outline the reader decodes, built of stand-ins."""
        meta = _meta(obj)  # first: a generated collection's kind draws slot 0
        for slot in obj.slots:
            self.add(_slot_tensors(obj, slot))
        return self._seal(meta)

    def finish(self, obj):
        """Commit the meta of ``obj``, the collection or bundle written, if
        the reader's decoder accepts it with the tensors written; return the
        outline it decodes."""
        return self._seal(_meta(obj))

    def _seal(self, meta: dict):
        """Decode ``meta`` with the tensors spilled, as the reader would,
        then commit it; the outline decoded."""
        outline = _outline(self._spilled, meta)
        self.commit(meta)
        return outline

    def commit(self, meta: dict) -> None:
        """Write the header, the manifest with ``meta`` and every payload to a
        temporary file beside the destination, and replace the destination
        with it."""
        entries, offset = {}, 0
        for name in sorted(self._spilled):
            (rows, cols), _ = self._spilled[name]
            entries[name] = {"shape": [rows, cols], "offset": offset, "nbytes": 4 * rows * cols}
            offset += 4 * rows * cols
        manifest = {"version": 1, "tensors": entries, "meta": meta}
        blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
        temp, fh = self._beside(".tmp", "wb")
        try:
            with fh:
                fh.write(len(blob).to_bytes(_HEADER_BYTES, "little"))
                fh.write(blob)
                for name, entry in entries.items():
                    self._spill.seek(self._spilled[name][1])
                    fh.write(self._spill.read(entry["nbytes"]))
            self._named(os.replace, temp, self.path)
        except BaseException:
            os.unlink(temp)
            raise


class _WrittenEntries(dict):
    """A bundle's entries by slot: an entry put in is written, and only its
    stand-in is kept."""

    def __init__(self, writer: ArchiveWriter):
        super().__init__()
        self._writer = writer

    def __setitem__(self, slot: SlotKey, entry) -> None:
        label, layout = slot.label(), _LAYOUTS[entry.kind]
        stand_ins = self._writer.add(_entry_tensors(label, layout, entry))
        assignment = lambda _: list(entry.assignment)  # noqa: E731
        super().__setitem__(slot, _bundle_slot(stand_ins, layout, label, assignment))


def write_raw_archive(path, tensors: dict[str, np.ndarray], meta: dict) -> None:
    """Low-level writer; callers are responsible for semantic validity."""
    with ArchiveWriter(path) as writer:
        writer.add(tensors)
        writer.commit(meta)


def write_archive(obj, path) -> None:
    """Serialize a collection or merged bundle to an LRTA v1 file, checked
    first, then written a slot at a time (see :meth:`ArchiveWriter.write`)."""
    if isinstance(obj, AdapterCollection):
        if not obj.task_ids:
            raise ArchiveFormatError("cannot write an empty collection (K >= 1 required)")
    elif not isinstance(obj, MergedBundle):
        raise ValidationError(f"cannot archive object of type {type(obj).__name__}")
    obj.validate()
    with ArchiveWriter(path) as writer:
        writer.write(obj)


def _entry_tensors(label: str, layout: _Layout, entry) -> dict[str, np.ndarray]:
    """The tensors the writer stores for one bundle entry."""
    shared_name, cluster_name = layout.side_names(label)
    if isinstance(entry, SharedSlot):
        shared, frozen = entry.shared, entry.frozen
        tensors = {f"{cluster_name}.{j}": c for j, c in enumerate(entry.clusters)}
    else:
        (shared, cluster), frozen = entry.adapter.sides(), entry.adapter.frozen
        tensors = {cluster_name: cluster}
    tensors[shared_name] = shared
    tensors.update(zip(layout.frozen_names(label), frozen))
    return tensors


def _meta(obj) -> dict:
    if isinstance(obj, AdapterCollection):
        return {"kind": obj.kind, "tasks": list(obj.task_ids)}
    return {
        "kind": "bundle",
        "tasks": list(obj.tasks),
        "method": obj.method,
        "assignment": obj.assignment_map(),
    }


def _slot_tensors(obj, slot: SlotKey) -> dict[str, np.ndarray]:
    """The tensors the writer stores for one slot of ``obj``, a collection
    or a bundle."""
    label = slot.label()
    if isinstance(obj, MergedBundle):
        entry = obj.entry(slot)
        return _entry_tensors(label, _LAYOUTS[entry.kind], entry)
    adapters = obj.adapters_at(slot)
    layout = _LAYOUTS[adapters[0].kind]
    tensors = dict(zip(layout.frozen_names(label), adapters[0].frozen))
    for task, adapter in zip(obj.task_ids, adapters):
        tensors.update(zip(layout.side_names(label, task), adapter.sides()))
    return tensors


def _contents(obj) -> tuple[dict, dict]:
    """Every tensor the writer stores for ``obj``, by name, and its meta."""
    tensors: dict[str, np.ndarray] = {}
    for slot in obj.slots:
        tensors.update(_slot_tensors(obj, slot))
    return tensors, _meta(obj)


_collection_tensors = _bundle_tensors = _contents  # names the tests use


def _identity(fh) -> tuple:
    """What changes when the file open as ``fh`` is replaced or rewritten."""
    st = os.fstat(fh.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class _Payloads(Mapping):
    """A checked archive's tensors by name: looking one up reads it from the
    file, widened to float64."""

    def __init__(self, path, shapes: dict, start: int, identity: tuple):
        self._path, self.shapes, self._start, self._identity = path, shapes, start, identity

    def __getitem__(self, name: str) -> np.ndarray:
        (rows, cols), offset = self.shapes[name]
        with open(self._path, "rb") as fh:
            if _identity(fh) != self._identity:
                raise ArchiveFormatError(f"{os.fspath(self._path)} changed after it was checked")
            fh.seek(self._start + offset)
            values = np.fromfile(fh, dtype="<f4", count=rows * cols)
        return values.astype(np.float64).reshape(rows, cols)

    def __contains__(self, name) -> bool:
        return name in self.shapes

    def __iter__(self):
        return iter(self.shapes)

    def __len__(self) -> int:
        return len(self.shapes)


def _scan(path) -> tuple[_Payloads, dict]:
    """Check the manifest and every payload, in name order, keeping no value."""
    with open(path, "rb") as fh:
        identity = _identity(fh)
        size = identity[2]
        if size < _HEADER_BYTES:
            raise ArchiveFormatError(f"file is {size} bytes, expected a u64 header at byte 0")
        manifest_len = int.from_bytes(fh.read(_HEADER_BYTES), "little")
        if _HEADER_BYTES + manifest_len > size:
            raise ArchiveFormatError(
                f"manifest of {manifest_len} bytes at byte {_HEADER_BYTES} "
                f"overruns file of {size} bytes"
            )
        try:
            manifest = json.loads(fh.read(manifest_len))
        except (ValueError, RecursionError) as exc:
            raise ArchiveFormatError(
                f"manifest at byte {_HEADER_BYTES} is not JSON: {exc}"
            ) from exc
        version = manifest.get("version") if isinstance(manifest, dict) else None
        if type(version) is not int or version != 1:
            raise ArchiveFormatError(
                f"unsupported archive version {version!r} at byte {_HEADER_BYTES}"
            )
        payload_bytes = size - _HEADER_BYTES - manifest_len
        entries = manifest.get("tensors", {})
        if not isinstance(entries, dict):
            raise ArchiveFormatError("manifest 'tensors' must map names to entries")
        shapes: dict[str, tuple[tuple[int, int], int]] = {}
        end, previous = 0, None  # the writer lays payloads back to back in name order
        for name, entry in sorted(entries.items()):
            if not isinstance(entry, dict):
                raise ArchiveFormatError(f"malformed manifest entry for {name!r}")
            shape = entry.get("shape")
            if not (isinstance(shape, list) and len(shape) == 2 and all(map(_is_int, shape))):
                raise ArchiveFormatError(
                    f"tensor {name!r}: shape must be two integers, got {shape!r}"
                )
            for field_name in ("offset", "nbytes"):
                if not _is_int(entry.get(field_name)):
                    raise ArchiveFormatError(
                        f"tensor {name!r}: {field_name} must be an integer, "
                        f"got {entry.get(field_name)!r}"
                    )
            rows, cols = shape
            offset, nbytes = entry["offset"], entry["nbytes"]
            if rows < 1 or cols < 1:
                raise ArchiveFormatError(f"tensor {name!r} declares empty shape {rows}x{cols}")
            if nbytes != 4 * rows * cols:
                raise ArchiveFormatError(
                    f"tensor {name!r} declares shape {rows}x{cols} but {nbytes} bytes"
                )
            if offset < 0 or offset + nbytes > payload_bytes:
                raise ArchiveFormatError(
                    f"tensor {name!r} at payload offset {offset} (+{nbytes} bytes) "
                    f"overruns payload of {payload_bytes} bytes"
                )
            if offset < end:
                raise ArchiveFormatError(
                    f"tensors {previous!r} and {name!r} overlap in the payload "
                    f"(bytes {offset}..{end})"
                )
            if offset > end:
                raise ArchiveFormatError(
                    f"payload bytes {end}..{offset} before tensor {name!r} belong to no tensor"
                )
            # back to back in name order: the file position is at this tensor
            if not np.all(np.isfinite(np.frombuffer(fh.read(nbytes), dtype="<f4"))):
                raise ValidationError(f"tensor {name!r} contains non-finite entries")
            shapes[name] = ((rows, cols), offset)
            end, previous = offset + nbytes, name
    if end != payload_bytes:
        raise ArchiveFormatError(
            f"payload bytes {end}..{payload_bytes} after the last tensor belong to no tensor"
        )
    meta = manifest.get("meta")
    if not isinstance(meta, dict) or "kind" not in meta or "tasks" not in meta:
        raise ArchiveFormatError("manifest meta must declare 'kind' and 'tasks'")
    tasks = meta["tasks"]
    if (
        not isinstance(tasks, list)
        or not all(isinstance(t, str) for t in tasks)
        or len(set(tasks)) != len(tasks)
    ):
        raise ArchiveFormatError(f"meta.tasks must be a list of distinct strings, got {tasks!r}")
    return _Payloads(path, shapes, _HEADER_BYTES + manifest_len, identity), meta


def _is_int(value) -> bool:
    return type(value) is int  # excludes bool, an int subclass


def _build(tensors: Mapping[str, np.ndarray], meta: dict):
    """The collection or bundle of a scanned archive, built from ``tensors``
    (stand-ins or payloads).  Every tensor must be one the writer would
    emit for the object read; a stray one raises :class:`ValidationError`
    naming it."""
    kind = meta["kind"]
    if kind == "bundle":
        obj = _read_bundle(tensors, meta)
    elif isinstance(kind, str) and kind in _LAYOUTS:
        obj = _read_collection(tensors, meta, _LAYOUTS[kind])
    else:
        raise ArchiveFormatError(f"unknown archive kind {kind!r}")
    used, written = _contents(obj)
    stray = sorted(set(tensors) - set(used))
    if stray:
        raise ValidationError(f"stray tensor {stray[0]!r} is not part of the {kind} archive")
    keys = sorted(set(meta) | set(written))
    differ = [k for k in keys if (k in meta, meta.get(k)) != (k in written, written.get(k))]
    if differ:
        raise ArchiveFormatError(
            f"meta.{differ[0]} is not what the writer emits for the {kind} archive read"
        )
    return obj


@dataclass
class _ArchivedCollection(AdapterCollection):
    """A checked archive's collection: its ``table`` holds stand-ins, its
    methods that give values read them from the file, and a bundle merged
    over it is written to ``into``, if given."""

    payloads: Mapping = field(default=None, repr=False)
    into: ArchiveWriter | None = field(default=None, repr=False)

    def adapters_at(self, slot: SlotKey) -> _CollectionSlot:
        return _CollectionSlot(self.payloads, self.task_ids, _LAYOUTS[self.kind], slot.label())

    def merged_entries(self):
        return {} if self.into is None else _WrittenEntries(self.into)


@dataclass
class _ArchivedBundle(MergedBundle):
    """A checked archive's bundle: its ``entries`` hold stand-ins, and
    :meth:`entry` reads the slot's values from the file."""

    payloads: Mapping = field(default=None, repr=False)

    def entry(self, slot: SlotKey):
        assignment = lambda _: list(self.entries[slot].assignment)  # noqa: E731
        return _bundle_slot(self.payloads, _LAYOUTS[self.kind], slot.label(), assignment)


def open_archive(path, into: ArchiveWriter | None = None):
    """Check an LRTA v1 file and return its :class:`AdapterCollection` or
    :class:`MergedBundle`, which reads each slot from the file when asked
    (see the module docstring); no value is kept.  A bundle merged over the
    collection (see :meth:`~hydramerge.adapters.MergedBundle.of`) is
    written to ``into``, slot by slot, if given."""
    payloads, meta = _scan(path)
    outline = _outline(payloads.shapes, meta)
    if isinstance(outline, MergedBundle):
        return _ArchivedBundle(**vars(outline), payloads=payloads)
    return _ArchivedCollection(**vars(outline), payloads=payloads, into=into)


def _outline(shapes: Mapping[str, tuple], meta: dict):
    """What :func:`_build` decodes from stand-ins of the tensors ``shapes``
    gives, by name, as ``(shape, offset)``, and ``meta``."""
    return _build({name: stand_in(shape) for name, (shape, _) in shapes.items()}, meta)


def read_archive(path):
    """Load an LRTA v1 file into an :class:`AdapterCollection` or
    :class:`MergedBundle`, widening values to float64: the checks of
    :func:`open_archive`, then every slot read."""
    payloads, meta = _scan(path)
    return _build(payloads, meta)


def _require(tensors: Mapping[str, np.ndarray], name: str) -> np.ndarray:
    if name not in tensors:
        raise ValidationError(f"missing tensor {name!r}")
    return tensors[name]


def _slots_from_names(names, pattern, tasks=None) -> list[SlotKey]:
    """Slots named by ``pattern`` matches; only declared tasks' if ``tasks``."""
    matches = (m for m in map(pattern.match, names) if m)
    labels = {m.group("slot") for m in matches if tasks is None or m.group("task") in tasks}
    return sorted(SlotKey.from_label(label) for label in labels)


def _require_frozen(tensors, layout: _Layout, label: str) -> tuple:
    return tuple(_require(tensors, name) for name in layout.frozen_names(label))


class _CollectionSlot(Sequence):
    """The adapters of ``tasks`` at the slot ``label``, in task order, each
    built from ``tensors`` when indexed.  The slot's frozen pair is taken
    once, here, and shared by every adapter built."""

    def __init__(self, tensors, tasks: list[str], layout: _Layout, label: str):
        self._tensors, self._tasks, self._layout, self._label = tensors, tasks, layout, label
        self._frozen = _require_frozen(tensors, layout, label)

    def __getitem__(self, i: int):
        shared, cluster = self._layout.side_names(self._label, self._tasks[i])
        return self._layout.adapter.from_sides(
            _require(self._tensors, shared), _require(self._tensors, cluster), self._frozen
        )

    def __len__(self) -> int:
        return len(self._tasks)


def _bundle_slot(tensors, layout: _Layout, label: str, assignment):
    """The bundle entry at the slot ``label``; ``assignment(label)`` gives a
    shared slot's clusters."""
    frozen = _require_frozen(tensors, layout, label)
    shared_name, cluster_name = layout.side_names(label)
    shared = _require(tensors, shared_name)
    # B.0, B.1, ... up to the first gap; the stray check names the rest
    names = (f"{cluster_name}.{j}" for j in itertools.count())
    clusters = [tensors[name] for name in itertools.takewhile(tensors.__contains__, names)]
    if clusters:
        return layout.adapter.shared_slot(shared, clusters, frozen, assignment(label))
    cluster = _require(tensors, cluster_name)
    return MergedAdapterSlot(layout.adapter.from_sides(shared, cluster, frozen))


def _read_collection(tensors, meta, layout: _Layout) -> AdapterCollection:
    tasks = list(meta["tasks"])
    collection = AdapterCollection(tasks, _slots_from_names(tensors, _TASK_TENSOR, tasks), {})
    for slot in collection.slots:
        adapters = _CollectionSlot(tensors, tasks, layout, slot.label())
        collection.table.update(((task, slot), a) for task, a in zip(tasks, adapters))
    collection.validate()
    return collection


def _read_bundle(tensors, meta) -> MergedBundle:
    tasks = list(meta["tasks"])
    method = meta.get("method", "")
    if not isinstance(method, str):
        raise ArchiveFormatError(f"meta.method must be a string, got {method!r}")
    fields = {m.group("field") for m in map(_MERGED_TENSOR.match, tensors) if m}
    kind = "vera" if fields & set(_LAYOUTS["vera"].sides) else "lora"
    bundle = MergedBundle(method, kind, tasks, _slots_from_names(tensors, _MERGED_TENSOR))
    assignment = functools.partial(_slot_assignment, meta.get("assignment"), tasks)
    for slot in bundle.slots:
        bundle.entries[slot] = _bundle_slot(tensors, _LAYOUTS[kind], slot.label(), assignment)
    bundle.validate()
    return bundle


def _slot_assignment(assignment_meta, tasks: list[str], label: str) -> list[int]:
    """Each task's cluster at the shared slot ``label``.  Only these entries
    are read here; the meta round trip in :func:`_build` judges the rest of
    ``meta.assignment``."""
    out = []
    for task in tasks:
        per_task = assignment_meta.get(task) if isinstance(assignment_meta, dict) else None
        index = per_task.get(label) if isinstance(per_task, dict) else None
        if type(index) is not int:
            raise ArchiveFormatError(
                f"meta.assignment gives task {task!r} no integer cluster at slot {label}"
            )
        out.append(index)
    return out
