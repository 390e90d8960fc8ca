"""LRTA v1: a bit-exact tensor-archive file format.

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
``lambda_b``) and the frozen pair (none / ``shared.<slot>.A|B``).  The
writer and the reader take the parts themselves from the adapter's
``sides()`` and ``frozen`` (see :mod:`hydramerge.adapters`), so neither
branches on the kind.

Vectors are stored as n x 1.  Tensors are serialized in sorted-name order,
so identical inputs always produce byte-identical files.  Values are
written as float32 and widened to float64 on read.  The writer rejects a
non-finite value, or a finite one beyond float32 range, naming the tensor,
before it opens the file.

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
"""

from __future__ import annotations

import itertools
import json
import re
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .adapters import (
    Adapter,
    AdapterCollection,
    LowRankAdapter,
    MergedAdapterSlot,
    MergedBundle,
    SharedSlot,
    SlotKey,
    VeraAdapter,
)
from .errors import ArchiveFormatError, ValidationError


class _Layout(NamedTuple):
    adapter: type
    shared: str
    cluster: str
    frozen: tuple[str, ...]  # stored once per slot as shared.<slot>.<name>


_LAYOUTS = {
    "lora": _Layout(LowRankAdapter, "A", "B", ()),
    "vera": _Layout(VeraAdapter, "lambda_d", "lambda_b", ("A", "B")),
}

_HEADER_BYTES = 8
_TASK_TENSOR = re.compile(  # DOTALL: a task id may hold any character
    r"^task\.(?P<task>.+)\.(?P<slot>layer\.\d+\.[A-Za-z0-9_]+)\.(?P<field>A|B|lambda_b|lambda_d)$",
    re.DOTALL,
)
_MERGED_TENSOR = re.compile(
    r"^merged\.(?P<slot>layer\.\d+\.[A-Za-z0-9_]+)\."
    r"(?P<field>A|B|lambda_b|lambda_d)(?:\.(?P<cluster>\d+))?$"
)


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


def write_raw_archive(path, tensors: dict[str, np.ndarray], meta: dict) -> None:
    """Low-level writer; callers are responsible for semantic validity."""
    entries: dict[str, dict] = {}
    payloads: list[bytes] = []
    offset = 0
    for name in sorted(tensors):
        payload = _as_f32_payload(tensors[name], name)
        raw = payload.tobytes()
        entries[name] = {
            "shape": [int(payload.shape[0]), int(payload.shape[1])],
            "offset": offset,
            "nbytes": len(raw),
        }
        payloads.append(raw)
        offset += len(raw)
    manifest = {"version": 1, "tensors": entries, "meta": meta}
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(len(blob).to_bytes(_HEADER_BYTES, "little"))
        fh.write(blob)
        for raw in payloads:
            fh.write(raw)


def write_archive(obj, path) -> None:
    """Serialize a collection or merged bundle to an LRTA v1 file."""
    if isinstance(obj, AdapterCollection):
        if not obj.task_ids:
            raise ArchiveFormatError("cannot write an empty collection (K >= 1 required)")
        obj.validate()
        tensors, meta = _collection_tensors(obj)
    elif isinstance(obj, MergedBundle):
        obj.validate()
        tensors, meta = _bundle_tensors(obj)
    else:
        raise ValidationError(f"cannot archive object of type {type(obj).__name__}")
    write_raw_archive(path, tensors, meta)


def _frozen_tensors(layout: _Layout, label: str, frozen: tuple) -> dict:
    return {f"shared.{label}.{name}": t for name, t in zip(layout.frozen, frozen)}


def _collection_tensors(coll: AdapterCollection) -> tuple[dict, dict]:
    layout = _LAYOUTS[coll.kind]
    tensors: dict[str, np.ndarray] = {}
    for slot in coll.slots:
        label = slot.label()
        tensors.update(_frozen_tensors(layout, label, coll.adapter(coll.task_ids[0], slot).frozen))
        for task in coll.task_ids:
            shared, cluster = coll.adapter(task, slot).sides()
            tensors[f"task.{task}.{label}.{layout.shared}"] = shared
            tensors[f"task.{task}.{label}.{layout.cluster}"] = cluster
    return tensors, {"kind": coll.kind, "tasks": list(coll.task_ids)}


def _bundle_tensors(bundle: MergedBundle) -> tuple[dict, dict]:
    tensors: dict[str, np.ndarray] = {}
    for slot in bundle.slots:
        label = slot.label()
        entry = bundle.entries[slot]
        layout = _LAYOUTS[entry.kind]
        if isinstance(entry, SharedSlot):
            shared, frozen = entry.shared, entry.frozen
            for j, cluster in enumerate(entry.clusters):
                tensors[f"merged.{label}.{layout.cluster}.{j}"] = cluster
        else:
            (shared, cluster), frozen = entry.adapter.sides(), entry.adapter.frozen
            tensors[f"merged.{label}.{layout.cluster}"] = cluster
        tensors[f"merged.{label}.{layout.shared}"] = shared
        tensors.update(_frozen_tensors(layout, label, frozen))
    meta = {
        "kind": "bundle",
        "tasks": list(bundle.tasks),
        "method": bundle.method,
        "assignment": bundle.assignment_map(),
    }
    return tensors, meta


def _parse_file(path) -> tuple[dict[str, np.ndarray], dict]:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER_BYTES:
        raise ArchiveFormatError(
            f"file is {len(raw)} bytes, expected a u64 header at byte 0"
        )
    manifest_len = int.from_bytes(raw[:_HEADER_BYTES], "little")
    if _HEADER_BYTES + manifest_len > len(raw):
        raise ArchiveFormatError(
            f"manifest of {manifest_len} bytes at byte {_HEADER_BYTES} "
            f"overruns file of {len(raw)} bytes"
        )
    try:
        manifest = json.loads(raw[_HEADER_BYTES : _HEADER_BYTES + manifest_len])
    except (ValueError, RecursionError) as exc:
        raise ArchiveFormatError(f"manifest at byte {_HEADER_BYTES} is not JSON: {exc}") from exc
    version = manifest.get("version") if isinstance(manifest, dict) else None
    if type(version) is not int or version != 1:
        raise ArchiveFormatError(
            f"unsupported archive version {version!r} at byte {_HEADER_BYTES}"
        )
    payload = memoryview(raw)[_HEADER_BYTES + manifest_len :]  # a view, not a copy
    entries = manifest.get("tensors", {})
    if not isinstance(entries, dict):
        raise ArchiveFormatError("manifest 'tensors' must map names to entries")
    tensors: dict[str, np.ndarray] = {}
    end, previous = 0, None  # the writer lays payloads back to back in name order
    for name, entry in sorted(entries.items()):
        if not isinstance(entry, dict):
            raise ArchiveFormatError(f"malformed manifest entry for {name!r}")
        shape = entry.get("shape")
        if not (isinstance(shape, list) and len(shape) == 2 and all(map(_is_int, shape))):
            raise ArchiveFormatError(f"tensor {name!r}: shape must be two integers, got {shape!r}")
        for field in ("offset", "nbytes"):
            if not _is_int(entry.get(field)):
                raise ArchiveFormatError(
                    f"tensor {name!r}: {field} must be an integer, got {entry.get(field)!r}"
                )
        rows, cols = shape
        offset, nbytes = entry["offset"], entry["nbytes"]
        if rows < 1 or cols < 1:
            raise ArchiveFormatError(f"tensor {name!r} declares empty shape {rows}x{cols}")
        if nbytes != 4 * rows * cols:
            raise ArchiveFormatError(
                f"tensor {name!r} declares shape {rows}x{cols} but {nbytes} bytes"
            )
        if offset < 0 or offset + nbytes > len(payload):
            raise ArchiveFormatError(
                f"tensor {name!r} at payload offset {offset} (+{nbytes} bytes) "
                f"overruns payload of {len(payload)} bytes"
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
        data = np.frombuffer(payload, dtype="<f4", count=rows * cols, offset=offset)
        arr = data.astype(np.float64).reshape(rows, cols)
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"tensor {name!r} contains non-finite entries")
        tensors[name] = arr
        end, previous = offset + nbytes, name
    if end != len(payload):
        raise ArchiveFormatError(
            f"payload bytes {end}..{len(payload)} after the last tensor belong to no tensor"
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
    return tensors, meta


def _is_int(value) -> bool:
    return type(value) is int  # excludes bool, an int subclass


def read_archive(path):
    """Load an LRTA v1 file into an :class:`AdapterCollection` or
    :class:`MergedBundle`, widening values to float64.

    Every tensor must be one the writer would emit for the object read;
    a stray one raises :class:`ValidationError` naming it.
    """
    tensors, meta = _parse_file(path)
    kind = meta["kind"]
    if kind == "bundle":
        obj = _read_bundle(tensors, meta)
    elif isinstance(kind, str) and kind in _LAYOUTS:
        obj = _read_collection(tensors, meta, _LAYOUTS[kind])
    else:
        raise ArchiveFormatError(f"unknown archive kind {kind!r}")
    used, written = _bundle_tensors(obj) if kind == "bundle" else _collection_tensors(obj)
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


def _require(tensors: dict[str, np.ndarray], name: str) -> np.ndarray:
    if name not in tensors:
        raise ValidationError(f"missing tensor {name!r}")
    return tensors[name]


def _slots_from_names(names, pattern, tasks=None) -> list[SlotKey]:
    """Slots named by ``pattern`` matches; only declared tasks' if ``tasks``."""
    matches = (m for m in map(pattern.match, names) if m)
    labels = {m.group("slot") for m in matches if tasks is None or m.group("task") in tasks}
    return sorted(SlotKey.from_label(label) for label in labels)


def _require_frozen(tensors, layout: _Layout, label: str) -> tuple:
    return tuple(_require(tensors, f"shared.{label}.{name}") for name in layout.frozen)


def _read_collection(tensors, meta, layout: _Layout) -> AdapterCollection:
    tasks = list(meta["tasks"])
    slots = _slots_from_names(tensors, _TASK_TENSOR, tasks)
    table: dict[tuple[str, SlotKey], Adapter] = {}
    for slot in slots:
        label = slot.label()
        frozen = _require_frozen(tensors, layout, label)
        for task in tasks:
            shared = _require(tensors, f"task.{task}.{label}.{layout.shared}")
            cluster = _require(tensors, f"task.{task}.{label}.{layout.cluster}")
            table[(task, slot)] = layout.adapter.from_sides(shared, cluster, frozen)
    return AdapterCollection.build(tasks, table)


def _read_bundle(tensors, meta) -> MergedBundle:
    tasks = list(meta["tasks"])
    method = meta.get("method", "")
    if not isinstance(method, str):
        raise ArchiveFormatError(f"meta.method must be a string, got {method!r}")
    slots = _slots_from_names(tensors, _MERGED_TENSOR)
    fields = {m.group("field") for m in map(_MERGED_TENSOR.match, tensors) if m}
    kind = "vera" if fields & {"lambda_b", "lambda_d"} else "lora"
    layout = _LAYOUTS[kind]
    entries: dict[SlotKey, object] = {}
    for slot in slots:
        label = slot.label()
        frozen = _require_frozen(tensors, layout, label)
        shared = _require(tensors, f"merged.{label}.{layout.shared}")
        # B.0, B.1, ... up to the first gap; the stray check names the rest
        names = (f"merged.{label}.{layout.cluster}.{j}" for j in itertools.count())
        clusters = [tensors[name] for name in itertools.takewhile(tensors.__contains__, names)]
        if clusters:
            assignment = _slot_assignment(meta.get("assignment"), tasks, label)
            entries[slot] = layout.adapter.shared_slot(shared, clusters, frozen, assignment)
        else:
            cluster = _require(tensors, f"merged.{label}.{layout.cluster}")
            entries[slot] = MergedAdapterSlot(layout.adapter.from_sides(shared, cluster, frozen))
    bundle = MergedBundle(method=method, kind=kind, tasks=tasks, slots=slots, entries=entries)
    bundle.validate()
    return bundle


def _slot_assignment(assignment_meta, tasks: list[str], label: str) -> list[int]:
    """Each task's cluster at the shared slot ``label``.  Only these entries
    are read here; the meta round trip in :func:`read_archive` judges the
    rest of ``meta.assignment``."""
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
