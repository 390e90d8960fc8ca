import json
import os
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydramerge.adapters import (
    AdapterCollection,
    LowRankAdapter,
    MergedAdapterSlot,
    MergedBundle,
    SharedLoraSlot,
    SharedVeraSlot,
    SlotKey,
    VeraAdapter,
)
from hydramerge import archive as archive_module
from hydramerge import synthetic
from hydramerge.archive import (
    ArchiveWriter,
    open_archive,
    read_archive,
    write_archive,
    write_raw_archive,
)
from hydramerge.baselines import BaselineConfig, MergeMethod, merge_collection
from hydramerge.errors import ArchiveFormatError, HydraMergeError, ValidationError
from hydramerge.hydra import HydraConfig, merge_collection_hydra
from hydramerge.linalg import Rng, gaussian_sample


def small_collection(tasks=3, d=4, r=2, k=6, seed=0):
    slots = [SlotKey(0, "q"), SlotKey(0, "v"), SlotKey(1, "q")]
    rng = Rng(seed)
    ids = [f"t{i}" for i in range(tasks)]
    table = {}
    for slot in slots:
        for task in ids:
            table[(task, slot)] = LowRankAdapter(
                b=gaussian_sample(rng, d, r, 0.0, 1.0),
                a=gaussian_sample(rng, r, k, 0.0, 1.0),
            )
    return AdapterCollection.build(ids, table)


def small_vera_collection(tasks=3, d=4, r=2, k=6, seed=0):
    slots = [SlotKey(0, "q"), SlotKey(1, "v")]
    rng = Rng(seed)
    ids = [f"t{i}" for i in range(tasks)]
    table = {}
    for slot in slots:
        shared_b = gaussian_sample(rng, d, r, 0.0, 1.0)
        shared_a = gaussian_sample(rng, r, k, 0.0, 1.0)
        for task in ids:
            table[(task, slot)] = VeraAdapter(
                lambda_b=gaussian_sample(rng, d, 1, 0.0, 1.0).ravel(),
                lambda_d=gaussian_sample(rng, r, 1, 0.0, 1.0).ravel(),
                shared_b=shared_b,
                shared_a=shared_a,
            )
    return AdapterCollection.build(ids, table)


class TestRoundTrip:
    def test_lora_collection_round_trip(self, tmp_path):
        coll = small_collection()
        path = tmp_path / "coll.lrta"
        write_archive(coll, path)
        back = read_archive(path)
        assert back.task_ids == coll.task_ids
        assert back.slots == coll.slots
        for key, adapter in coll.table.items():
            loaded = back.table[key]
            np.testing.assert_array_equal(loaded.a, adapter.a.astype(np.float32))
            np.testing.assert_array_equal(loaded.b, adapter.b.astype(np.float32))

    def test_vera_collection_round_trip(self, tmp_path):
        coll = small_vera_collection()
        path = tmp_path / "vera.lrta"
        write_archive(coll, path)
        back = read_archive(path)
        assert back.kind == "vera"
        for key, adapter in coll.table.items():
            loaded = back.table[key]
            np.testing.assert_array_equal(loaded.lambda_b, adapter.lambda_b.astype(np.float32))
            np.testing.assert_array_equal(
                loaded.shared_a, adapter.shared_a.astype(np.float32)
            )

    def test_opened_payloads_hold_every_tensor(self, tmp_path):
        path = tmp_path / "coll.lrta"
        write_archive(small_collection(), path)
        payloads = open_archive(path).payloads
        assert len(payloads) == 3 * 3 * 2  # slots x tasks x (A, B)
        assert len(payloads) == len(list(payloads))

    def test_double_round_trip_is_byte_identical(self, tmp_path):
        coll = small_collection()
        first, second = tmp_path / "a.lrta", tmp_path / "b.lrta"
        write_archive(coll, first)
        write_archive(read_archive(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_write_is_deterministic(self, tmp_path):
        coll = small_collection(seed=9)
        one, two = tmp_path / "one.lrta", tmp_path / "two.lrta"
        write_archive(coll, one)
        write_archive(coll, two)
        assert one.read_bytes() == two.read_bytes()

    def test_bundle_round_trip_preserves_assignment(self, tmp_path):
        slot = SlotKey(0, "q")
        entry = SharedLoraSlot(
            a_shared=np.arange(6, dtype=np.float64).reshape(2, 3),
            b_clusters=[np.ones((4, 2)), 2 * np.ones((4, 2))],
            assignment=[1, 0, 1],
        )
        bundle = MergedBundle(
            method="hydraopt",
            kind="lora",
            tasks=["t0", "t1", "t2"],
            slots=[slot],
            entries={slot: entry},
        )
        path = tmp_path / "bundle.lrta"
        write_archive(bundle, path)
        back = read_archive(path)
        assert isinstance(back, MergedBundle)
        assert back.method == "hydraopt"
        assert back.entries[slot].assignment == [1, 0, 1]
        assert len(back.entries[slot].b_clusters) == 2

    def test_hydra_bundle_manifest_tensor_count(self, tmp_path):
        # shared layout: exactly M cluster tensors plus one shared factor per slot
        m, tasks = 2, [f"t{i}" for i in range(5)]
        slots = [SlotKey(0, "q"), SlotKey(0, "v")]
        entries = {
            slot: SharedLoraSlot(
                a_shared=np.ones((2, 3)),
                b_clusters=[np.full((4, 2), j + 1.0) for j in range(m)],
                assignment=[0, 1, 0, 1, 0],
            )
            for slot in slots
        }
        bundle = MergedBundle(
            method="hydraopt", kind="lora", tasks=tasks, slots=slots, entries=entries
        )
        path = tmp_path / "bundle.lrta"
        write_archive(bundle, path)
        raw = path.read_bytes()
        manifest = json.loads(raw[8 : 8 + int.from_bytes(raw[:8], "little")])
        for slot in slots:
            names = [n for n in manifest["tensors"] if slot.label() in n]
            assert len(names) == m + 1

    def test_vectors_stored_as_columns(self, tmp_path):
        coll = small_vera_collection()
        path = tmp_path / "vera.lrta"
        write_archive(coll, path)
        raw = path.read_bytes()
        manifest = json.loads(raw[8 : 8 + int.from_bytes(raw[:8], "little")])
        shape = manifest["tensors"]["task.t0.layer.0.q.lambda_b"]["shape"]
        assert shape == [4, 1]


class TestSlotReader:
    """An opened collection's ``adapters_at`` reads the slot's frozen pair
    once, when it is called, and a task's sides when that task is indexed."""

    def test_each_task_is_read_when_indexed(self, tmp_path, monkeypatch):
        coll, path = small_vera_collection(tasks=4), tmp_path / "vera.lrta"
        write_archive(coll, path)
        opened, reads = open_archive(path), []
        read = archive_module._Payloads.__getitem__
        monkeypatch.setattr(
            archive_module._Payloads, "__getitem__",
            lambda payloads, name: reads.append(name) or read(payloads, name),
        )  # fmt: skip
        slot = opened.slots[0]
        adapters = opened.adapters_at(slot)
        assert reads == ["shared.layer.0.q.A", "shared.layer.0.q.B"]
        assert len(adapters) == 4
        for i, task in enumerate(opened.task_ids):
            reads.clear()
            adapter = adapters[i]
            assert reads == [f"task.{task}.layer.0.q.lambda_d", f"task.{task}.layer.0.q.lambda_b"]
            np.testing.assert_array_equal(
                adapter.lambda_b, coll.adapter(task, slot).lambda_b.astype(np.float32)
            )
            assert adapter.shared_a is adapters[0].shared_a  # the pair read once
        with pytest.raises(IndexError):
            adapters[4]


class TestReadThroughAdaptersAt:
    """``adapter`` and ``sides_at`` read through ``adapters_at``, the same
    for a collection in memory and one opened from its archive."""

    @staticmethod
    def collection(kind, form, tmp_path):
        coll = small_collection() if kind == "lora" else small_vera_collection()
        if form == "memory":
            return coll
        write_archive(coll, tmp_path / "coll.lrta")
        return open_archive(tmp_path / "coll.lrta")

    @pytest.mark.parametrize("form", ["memory", "archived"])
    @pytest.mark.parametrize("kind", ["lora", "vera"])
    def test_a_task_not_held_is_a_key_error_naming_it(self, tmp_path, kind, form):
        coll = self.collection(kind, form, tmp_path)
        with pytest.raises(KeyError, match="task 'zz' is not in the collection"):
            coll.adapter("zz", coll.slots[0])

    @pytest.mark.parametrize("form", ["memory", "archived"])
    @pytest.mark.parametrize("kind", ["lora", "vera"])
    def test_sides_at_gives_each_adapters_sides(self, tmp_path, kind, form):
        coll = self.collection(kind, form, tmp_path)
        for slot in coll.slots:
            shared, cluster = coll.sides_at(slot)
            assert len(shared) == len(cluster) == coll.num_tasks
            for i, task in enumerate(coll.task_ids):
                want = coll.adapter(task, slot).sides()
                np.testing.assert_array_equal(shared[i], want[0])
                np.testing.assert_array_equal(cluster[i], want[1])
            with pytest.raises(IndexError):
                shared[coll.num_tasks]

    def test_a_side_view_reads_a_task_when_indexed(self, tmp_path, monkeypatch):
        opened, reads = self.collection("vera", "archived", tmp_path), []
        read = archive_module._Payloads.__getitem__
        monkeypatch.setattr(
            archive_module._Payloads, "__getitem__",
            lambda payloads, name: reads.append(name) or read(payloads, name),
        )  # fmt: skip
        shared, cluster = opened.sides_at(opened.slots[0])
        assert reads == ["shared.layer.0.q.A", "shared.layer.0.q.B"]
        reads.clear()
        cluster[1]
        assert reads == ["task.t1.layer.0.q.lambda_d", "task.t1.layer.0.q.lambda_b"]


class TestErrorPaths:
    def test_empty_collection_rejected(self, tmp_path):
        empty = AdapterCollection(task_ids=[], slots=[], table={})
        with pytest.raises(ArchiveFormatError, match="K >= 1"):
            write_archive(empty, tmp_path / "empty.lrta")

    def test_neither_collection_nor_bundle_is_refused_and_leaves_no_file(self, tmp_path):
        path = tmp_path / "object.lrta"
        with pytest.raises(ValidationError, match="^cannot archive object of type object$"):
            write_archive(object(), path)
        assert list(tmp_path.iterdir()) == []

    def test_truncated_file_is_format_error(self, tmp_path):
        coll = small_collection()
        path = tmp_path / "coll.lrta"
        write_archive(coll, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 17])
        with pytest.raises(ArchiveFormatError, match="overruns"):
            read_archive(path)

    def test_header_only_noise_is_format_error(self, tmp_path):
        path = tmp_path / "noise.lrta"
        path.write_bytes(b"\x01\x02\x03")
        with pytest.raises(ArchiveFormatError, match="byte 0"):
            read_archive(path)

    def test_non_json_manifest_is_format_error(self, tmp_path):
        path = tmp_path / "bad.lrta"
        blob = b"this is not json"
        path.write_bytes(len(blob).to_bytes(8, "little") + blob)
        with pytest.raises(ArchiveFormatError, match="byte 8"):
            read_archive(path)

    def test_nonpositive_shape_is_format_error(self, tmp_path):
        manifest = {
            "version": 1,
            "tensors": {"task.t0.layer.0.q.A": {"shape": [-1, -4], "offset": 0, "nbytes": 16}},
            "meta": {"kind": "lora", "tasks": ["t0"]},
        }
        blob = json.dumps(manifest).encode()
        path = tmp_path / "negshape.lrta"
        path.write_bytes(len(blob).to_bytes(8, "little") + blob + b"\x00" * 16)
        with pytest.raises(ArchiveFormatError, match="shape"):
            read_archive(path)

    def test_rank_mismatch_across_tasks_names_slot(self, tmp_path):
        rng = Rng(0)
        tensors = {
            "task.t1.layer.0.q.A": gaussian_sample(rng, 4, 6, 0.0, 1.0),
            "task.t1.layer.0.q.B": gaussian_sample(rng, 8, 4, 0.0, 1.0),
            "task.t2.layer.0.q.A": gaussian_sample(rng, 2, 6, 0.0, 1.0),
            "task.t2.layer.0.q.B": gaussian_sample(rng, 8, 2, 0.0, 1.0),
        }
        path = tmp_path / "mismatch.lrta"
        write_raw_archive(path, tensors, {"kind": "lora", "tasks": ["t1", "t2"]})
        with pytest.raises(ValidationError, match="layer.0.q"):
            read_archive(path)

    def test_missing_tensor_names_key(self, tmp_path):
        rng = Rng(0)
        tensors = {
            "task.t1.layer.0.q.A": gaussian_sample(rng, 2, 6, 0.0, 1.0),
            "task.t1.layer.0.q.B": gaussian_sample(rng, 8, 2, 0.0, 1.0),
            "task.t2.layer.0.q.A": gaussian_sample(rng, 2, 6, 0.0, 1.0),
        }
        path = tmp_path / "missing.lrta"
        write_raw_archive(path, tensors, {"kind": "lora", "tasks": ["t1", "t2"]})
        with pytest.raises(ValidationError, match="task.t2.layer.0.q.B"):
            read_archive(path)

    def test_value_beyond_float32_range_names_tensor(self, tmp_path):
        coll = small_collection()
        coll.adapter("t1", SlotKey(0, "v")).a[0, 1] = 1e39
        path = tmp_path / "overflow.lrta"
        with pytest.raises(ValidationError, match=r"task\.t1\.layer\.0\.v\.A"):
            write_archive(coll, path)
        assert not path.exists()

    def test_non_finite_vector_is_named_and_nothing_is_written(self, tmp_path):
        coll = small_vera_collection()
        coll.adapter("t1", SlotKey(0, "q")).lambda_b[2] = np.nan
        path = tmp_path / "nan.lrta"
        with pytest.raises(ValidationError, match=r"'task\.t1\.layer\.0\.q\.lambda_b'.*non-finite"):
            write_archive(coll, path)
        assert not path.exists()

    def test_inf_cluster_vector_of_shared_vera_slot_is_named(self, tmp_path):
        slot = SlotKey(0, "q")
        entry = SharedVeraSlot(
            lambda_d=np.ones(2),
            lambda_b_clusters=[np.ones(4), np.array([1.0, np.inf, 1.0, 1.0])],
            shared_b=np.ones((4, 2)),
            shared_a=np.ones((2, 6)),
            assignment=[0, 1],
        )
        bundle = MergedBundle(
            method="hydraopt", kind="vera", tasks=["t0", "t1"], slots=[slot], entries={slot: entry}
        )
        path = tmp_path / "inf.lrta"
        with pytest.raises(ValidationError, match=r"'merged\.layer\.0\.q\.lambda_b\.1'"):
            write_archive(bundle, path)
        assert not path.exists()

    def test_partial_collection_never_escapes(self, tmp_path):
        coll = small_collection()
        path = tmp_path / "coll.lrta"
        write_archive(coll, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        try:
            read_archive(path)
        except ArchiveFormatError:
            pass
        else:  # pragma: no cover
            pytest.fail("truncated archive parsed")


def _collection_of(task_ids, stray=()):
    """One slot of ``task_ids``; ``stray`` keys add table entries outside it."""
    slot = SlotKey(0, "q")
    adapter = LowRankAdapter(b=np.ones((4, 2)), a=np.ones((2, 6)))
    table = {key: adapter for key in [(task, slot) for task in task_ids] + list(stray)}
    return AdapterCollection(task_ids=task_ids, slots=[slot], table=table)


class TestWriterRejectsWhatItsReaderWould:
    """The writer refuses, before it opens the file, what ``read_archive``
    would reject or read back as something else."""

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: _collection_of([""]), "task_ids"),
            (lambda: _collection_of([1, 2]), "task_ids"),
            (lambda: _collection_of(["t0", "t0"]), "task_ids"),
            (lambda: replace(_ta_bundle(), tasks=["t0", "t0"]), "tasks"),
            (lambda: replace(_ta_bundle(), method=5), "method"),
            (lambda: replace(_ta_bundle(), slots=[], entries={}), "slots"),
            (lambda: replace(_ta_bundle(), kind="vera"), "kind"),
            (lambda: _collection_of(["t0"], [("t9", SlotKey(0, "q"))]),
             r"task 't9' at slot layer\.0\.q"),
            (lambda: _collection_of(["t0"], [("t0", SlotKey(1, "q"))]),
             r"task 't0' at slot layer\.1\.q"),
            (lambda: _shared_bundle("lora", cluster_rows=(4, 5)), r"slot layer\.0\.q: cluster 1"),
            (lambda: _shared_bundle("vera", cluster_rows=(4, 5)), r"slot layer\.0\.q: cluster 1"),
        ],
        ids=["empty-id", "int-ids", "duplicate-ids", "bundle-duplicate-tasks", "int-method",
             "no-slots", "vera-kind-lora-entries", "stray-task-entry", "stray-slot-entry",
             "lora-clusters-of-two-shapes", "vera-clusters-of-two-shapes"],
    )  # fmt: skip
    def test_writer_raises_naming_the_field_and_writes_nothing(self, tmp_path, make, field):
        path = tmp_path / "bad.lrta"
        with pytest.raises(ValidationError, match=field):
            write_archive(make(), path)
        assert not path.exists()

    def test_task_id_with_a_line_break_round_trips(self, tmp_path):
        path = tmp_path / "newline.lrta"
        write_archive(_collection_of(["a\nb"]), path)
        assert read_archive(path).task_ids == ["a\nb"]


def _raw_with_manifest(path, manifest, payload: bytes) -> None:
    blob = json.dumps(manifest).encode()
    path.write_bytes(len(blob).to_bytes(8, "little") + blob + payload)


def _ta_bundle(tasks=("t0", "t1")):
    slot = SlotKey(0, "q")
    entry = MergedAdapterSlot(LowRankAdapter(b=np.ones((4, 2)), a=np.ones((2, 6))))
    return MergedBundle(
        method="ta", kind="lora", tasks=list(tasks), slots=[slot], entries={slot: entry}
    )


def _shared_bundle(kind, cluster_rows=(4, 4)):
    """A two-task hydraopt bundle over one slot, one cluster per task."""
    slot = SlotKey(0, "q")
    if kind == "lora":
        entry = SharedLoraSlot(
            a_shared=np.ones((2, 6)),
            b_clusters=[np.ones((rows, 2)) for rows in cluster_rows],
            assignment=[0, 1],
        )
    else:
        entry = SharedVeraSlot(
            lambda_d=np.ones(2),
            lambda_b_clusters=[np.ones(rows) for rows in cluster_rows],
            shared_b=np.ones((4, 2)),
            shared_a=np.ones((2, 6)),
            assignment=[0, 1],
        )
    return MergedBundle(
        method="hydraopt", kind=kind, tasks=["t0", "t1"], slots=[slot], entries={slot: entry}
    )


# A shared slot whose parts do not fit together: (kind, replaced parts, error)
_MISFITS = {
    "lora-rank": (
        "lora", {"b_clusters": [np.ones((4, 3))] * 2}, r"rank mismatch: b is \(4, 3\), a is \(2, 6\)"
    ),
    "vera-lambda-d": ("vera", {"lambda_d": np.ones(3)}, r"lambda_d has length 3, expected rank 2"),
    "vera-lambda-b": (
        "vera", {"lambda_b_clusters": [np.ones(5)] * 2}, r"lambda_b has length 5, expected 4 rows"
    ),
    "vera-frozen-pair": (
        "vera", {"shared_a": np.ones((3, 6))},
        r"rank mismatch: shared_b is \(4, 2\), shared_a is \(3, 6\)",
    ),
}  # fmt: skip


def _misfit_bundle(case):
    kind, parts, _ = _MISFITS[case]
    bundle = _shared_bundle(kind)
    slot = bundle.slots[0]
    bundle.entries[slot] = replace(bundle.entries[slot], **parts)
    return bundle


class TestSharedSlotShapes:
    """The writer and the reader refuse a shared slot whose shared side,
    cluster sides and frozen pair do not fit together, naming the slot."""

    @pytest.mark.parametrize("case", sorted(_MISFITS))
    def test_writer_names_the_slot_and_writes_nothing(self, tmp_path, case):
        path = tmp_path / "misfit.lrta"
        with pytest.raises(ValidationError, match=r"slot layer\.0\.q: " + _MISFITS[case][2]):
            write_archive(_misfit_bundle(case), path)
        assert not path.exists()

    def test_a_part_that_is_not_a_matrix_is_a_typed_error(self, tmp_path):
        bundle = _shared_bundle("lora")
        slot = bundle.slots[0]
        bundle.entries[slot] = replace(bundle.entries[slot], a_shared=np.ones(6))
        path = tmp_path / "flat.lrta"
        error = r"slot layer\.0\.q: rank mismatch: b is \(4, 2\), a is \(6,\)"
        with pytest.raises(ValidationError, match=error):
            write_archive(bundle, path)
        assert not path.exists()

    @pytest.mark.parametrize("case", sorted(_MISFITS))
    def test_reader_names_the_slot(self, tmp_path, case):
        path = tmp_path / "misfit.lrta"
        write_raw_archive(path, *archive_module._bundle_tensors(_misfit_bundle(case)))
        with pytest.raises(ValidationError, match=r"slot layer\.0\.q: " + _MISFITS[case][2]):
            read_archive(path)


class TestReaderChecks:
    @pytest.mark.parametrize("tasks", ["ab", ["t0", "t0"], ["t0", 1], {"t0": 1}, None])
    def test_meta_tasks_must_be_distinct_strings(self, tmp_path, tasks):
        coll = small_collection(tasks=1)
        tensors, _ = archive_module._collection_tensors(coll)
        path = tmp_path / "tasks.lrta"
        write_raw_archive(path, tensors, {"kind": "lora", "tasks": tasks})
        with pytest.raises(ArchiveFormatError, match=r"meta\.tasks"):
            read_archive(path)

    def test_stray_task_tensor_is_named(self, tmp_path):
        coll = small_collection(tasks=2)
        tensors, meta = archive_module._collection_tensors(coll)
        tensors["task.zz.layer.0.q.A"] = coll.adapter("t0", SlotKey(0, "q")).a
        path = tmp_path / "stray.lrta"
        write_raw_archive(path, tensors, meta)
        with pytest.raises(ValidationError, match=r"task\.zz\.layer\.0\.q\.A"):
            read_archive(path)

    def test_stray_tensor_of_undeclared_task_at_its_own_slot_is_named(self, tmp_path):
        coll = small_collection(tasks=2)
        tensors, meta = archive_module._collection_tensors(coll)
        tensors["task.zz.layer.7.q.A"] = np.ones((2, 6))
        tensors["task.zz.layer.7.q.B"] = np.ones((4, 2))
        path = tmp_path / "stray.lrta"
        write_raw_archive(path, tensors, meta)
        with pytest.raises(ValidationError, match=r"task\.zz\.layer\.7\.q\.A"):
            read_archive(path)

    def test_stray_tensor_in_vera_collection_is_named(self, tmp_path):
        coll = small_vera_collection()
        tensors, meta = archive_module._collection_tensors(coll)
        tensors["notes"] = np.ones((1, 1))
        path = tmp_path / "stray.lrta"
        write_raw_archive(path, tensors, meta)
        with pytest.raises(ValidationError, match="'notes'"):
            read_archive(path)

    @pytest.mark.parametrize(
        "extra", ["shared.layer.0.q.A", "merged.layer.0.q.A.1", "merged.layer.0.q.B.0x"]
    )
    def test_stray_tensor_in_bundle_is_named(self, tmp_path, extra):
        tensors, meta = archive_module._bundle_tensors(_ta_bundle())
        tensors[extra] = np.ones((2, 6))
        path = tmp_path / "stray.lrta"
        write_raw_archive(path, tensors, meta)
        with pytest.raises(ValidationError, match=extra.replace(".", r"\.")):
            read_archive(path)

    def test_duplicate_cluster_index_is_stray(self, tmp_path):
        slot = SlotKey(0, "q")
        entry = SharedLoraSlot(
            a_shared=np.ones((2, 6)), b_clusters=[np.ones((4, 2))] * 2, assignment=[0, 1]
        )
        bundle = MergedBundle(
            method="hydraopt", kind="lora", tasks=["t0", "t1"], slots=[slot], entries={slot: entry}
        )
        tensors, meta = archive_module._bundle_tensors(bundle)
        tensors["merged.layer.0.q.B.01"] = np.ones((4, 2))
        path = tmp_path / "dup.lrta"
        write_raw_archive(path, tensors, meta)
        with pytest.raises(ValidationError, match=r"merged\.layer\.0\.q\.B\.01"):
            read_archive(path)

    def test_overlapping_payloads_name_both_tensors(self, tmp_path):
        manifest = {
            "version": 1,
            "tensors": {
                "task.t0.layer.0.q.A": {"shape": [2, 6], "offset": 0, "nbytes": 48},
                "task.t0.layer.0.q.B": {"shape": [8, 2], "offset": 40, "nbytes": 64},
            },
            "meta": {"kind": "lora", "tasks": ["t0"]},
        }
        path = tmp_path / "overlap.lrta"
        _raw_with_manifest(path, manifest, b"\x00" * 104)
        with pytest.raises(ArchiveFormatError, match="overlap") as err:
            read_archive(path)
        assert "task.t0.layer.0.q.A" in str(err.value)
        assert "task.t0.layer.0.q.B" in str(err.value)

    def test_nested_overlap_is_found(self, tmp_path):
        manifest = {
            "version": 1,
            "tensors": {
                "task.t0.layer.0.q.A": {"shape": [2, 6], "offset": 0, "nbytes": 48},
                "task.t0.layer.0.q.B": {"shape": [8, 2], "offset": 48, "nbytes": 64},
                "task.t0.layer.0.v.A": {"shape": [2, 2], "offset": 52, "nbytes": 16},
            },
            "meta": {"kind": "lora", "tasks": ["t0"]},
        }
        path = tmp_path / "nested.lrta"
        _raw_with_manifest(path, manifest, b"\x00" * 112)
        with pytest.raises(ArchiveFormatError, match=r"layer\.0\.q\.B.*layer\.0\.v\.A"):
            read_archive(path)

    @pytest.mark.parametrize(
        "assignment", [[0], {"t0": [0]}, {"t0": {"layer.0.q": "0"}}, {"t0": {"layer.0.q": True}}]
    )
    def test_malformed_assignment_is_format_error(self, tmp_path, assignment):
        tensors, meta = archive_module._bundle_tensors(_ta_bundle())
        meta["assignment"] = assignment
        path = tmp_path / "assign.lrta"
        write_raw_archive(path, tensors, meta)
        with pytest.raises(ArchiveFormatError, match=r"meta\.assignment"):
            read_archive(path)

    @pytest.mark.parametrize("kind", ["lora", "vera"])
    def test_clusters_of_two_shapes_are_refused(self, tmp_path, kind):
        tensors, meta = archive_module._bundle_tensors(_shared_bundle(kind, cluster_rows=(4, 5)))
        path = tmp_path / "clusters.lrta"
        write_raw_archive(path, tensors, meta)
        with pytest.raises(ValidationError, match=r"slot layer\.0\.q: cluster 1"):
            read_archive(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda a: a["t1"].pop("layer.0.q"),
            lambda a: a.pop("t1"),
            lambda a: a["t1"].update({"layer.0.q": "1"}),
            lambda a: a["t1"].update({"layer.0.q": True}),
        ],
        ids=["no-slot-entry", "no-task-entry", "string", "bool"],
    )
    def test_shared_slot_assignment_must_be_an_integer(self, tmp_path, edit):
        tensors, meta = archive_module._bundle_tensors(_shared_bundle("lora"))
        edit(meta["assignment"])
        path = tmp_path / "assign.lrta"
        write_raw_archive(path, tensors, meta)
        with pytest.raises(ArchiveFormatError, match=r"meta\.assignment.*'t1'.*layer\.0\.q"):
            read_archive(path)

    @pytest.mark.parametrize("kind", ["lora2", ["lora"], {"vera": 1}, None])
    def test_unknown_kind_is_format_error(self, tmp_path, kind):
        tensors, _ = archive_module._collection_tensors(small_collection(tasks=1))
        path = tmp_path / "kind.lrta"
        write_raw_archive(path, tensors, {"kind": kind, "tasks": ["t0"]})
        with pytest.raises(ArchiveFormatError, match="unknown archive kind"):
            read_archive(path)

    @pytest.mark.parametrize("index", [7, -3])
    def test_single_adapter_slot_assignment_must_be_zero(self, tmp_path, index):
        tensors, meta = archive_module._bundle_tensors(_ta_bundle())
        meta["assignment"]["t1"]["layer.0.q"] = index
        path = tmp_path / "assign.lrta"
        write_raw_archive(path, tensors, meta)
        with pytest.raises(ArchiveFormatError, match=r"meta\.assignment"):
            read_archive(path)

    @pytest.mark.parametrize("task, label", [("zz", "layer.0.q"), ("t0", "layer.9.q")])
    def test_assignment_of_undeclared_task_or_slot(self, tmp_path, task, label):
        tensors, meta = archive_module._bundle_tensors(_ta_bundle())
        meta["assignment"].setdefault(task, {})[label] = 0
        path = tmp_path / "assign.lrta"
        write_raw_archive(path, tensors, meta)
        with pytest.raises(ArchiveFormatError, match=r"meta\.assignment"):
            read_archive(path)

    @pytest.mark.parametrize("value", ["hello", None])
    @pytest.mark.parametrize("form", ["collection", "bundle"])
    def test_unknown_meta_key_is_named(self, tmp_path, form, value):
        if form == "bundle":
            tensors, meta = archive_module._bundle_tensors(_ta_bundle())
        else:
            tensors, meta = archive_module._collection_tensors(small_collection(tasks=2))
        meta["notes"] = value
        path = tmp_path / "notes.lrta"
        write_raw_archive(path, tensors, meta)
        with pytest.raises(ArchiveFormatError, match=r"meta\.notes"):
            read_archive(path)

    def test_non_string_method_is_format_error(self, tmp_path):
        tensors, meta = archive_module._bundle_tensors(_ta_bundle())
        meta["method"] = ["ta"]
        path = tmp_path / "method.lrta"
        write_raw_archive(path, tensors, meta)
        with pytest.raises(ArchiveFormatError, match=r"meta\.method"):
            read_archive(path)


# Bytes that keep a damaged manifest likely to parse as JSON.
_JSON_BYTES = list(b'0123456789-.eE"[]{},:')


@pytest.fixture(scope="module")
def valid_archives(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    out = {}
    for name, obj in [
        ("lora", small_collection(tasks=2, d=3, r=1, k=2)),
        ("vera", small_vera_collection(tasks=2, d=3, r=1, k=2)),
        ("bundle", _ta_bundle()),
    ]:
        write_archive(obj, root / name)
        out[name] = (root / name).read_bytes()
    return out


class TestFuzz:
    @given(
        kind=st.sampled_from(["lora", "vera", "bundle"]),
        keep=st.none() | st.floats(0.0, 1.0),
        edits=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.integers(0, 255) | st.sampled_from(_JSON_BYTES)),
            max_size=4,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_damaged_archive_raises_only_typed_errors(
        self, tmp_path_factory, valid_archives, kind, keep, edits
    ):
        data = bytearray(valid_archives[kind])
        if keep is not None:
            del data[int(keep * len(data)) :]
        for where, byte in edits:
            if data:
                data[min(int(where * len(data)), len(data) - 1)] = byte
        path = tmp_path_factory.getbasetemp() / "fuzz.lrta"
        path.write_bytes(bytes(data))
        try:
            read_archive(path)
        except (ArchiveFormatError, ValidationError):
            pass


_A, _B = "task.t0.layer.0.q.A", "task.t0.layer.0.q.B"


def _one_adapter_manifest() -> dict:
    return {
        "version": 1,
        "tensors": {
            _A: {"shape": [2, 6], "offset": 0, "nbytes": 48},
            _B: {"shape": [8, 2], "offset": 48, "nbytes": 64},
        },
        "meta": {"kind": "lora", "tasks": ["t0"]},
    }


class TestManifestFields:
    def test_untouched_manifest_reads(self, tmp_path):
        path = tmp_path / "ok.lrta"
        _raw_with_manifest(path, _one_adapter_manifest(), b"\x00" * 112)
        assert read_archive(path).task_ids == ["t0"]

    @pytest.mark.parametrize(
        "tensor, field, value, match",
        [
            (None, "version", True, "version True"),
            (None, "version", 1.0, r"version 1\.0"),
            (_A, "shape", [2.0, 6], r"'task\.t0\.layer\.0\.q\.A': shape"),
            (_A, "shape", [True, 6], r"'task\.t0\.layer\.0\.q\.A': shape"),
            (_A, "shape", [1.9, 2], r"'task\.t0\.layer\.0\.q\.A': shape"),
            (_A, "shape", [2, 6, 1], r"'task\.t0\.layer\.0\.q\.A': shape"),
            (_A, "offset", 0.7, r"'task\.t0\.layer\.0\.q\.A': offset"),
            (_B, "offset", 48.0, r"'task\.t0\.layer\.0\.q\.B': offset"),
            (_A, "offset", False, r"'task\.t0\.layer\.0\.q\.A': offset"),
            (_A, "nbytes", 48.0, r"'task\.t0\.layer\.0\.q\.A': nbytes"),
            (_B, "nbytes", "64", r"'task\.t0\.layer\.0\.q\.B': nbytes"),
        ],
    )
    def test_non_integer_field_names_field_and_tensor(self, tmp_path, tensor, field, value, match):
        manifest = _one_adapter_manifest()
        (manifest if tensor is None else manifest["tensors"][tensor])[field] = value
        path = tmp_path / "field.lrta"
        _raw_with_manifest(path, manifest, b"\x00" * 112)
        with pytest.raises(ArchiveFormatError, match=match):
            read_archive(path)

    def test_nbytes_that_disagrees_with_the_shape_names_both(self, tmp_path):
        manifest = _one_adapter_manifest()
        manifest["tensors"][_A]["nbytes"] = 40
        path = tmp_path / "nbytes.lrta"
        _raw_with_manifest(path, manifest, b"\x00" * 104)
        message = rf"tensor '{_A}' declares shape 2x6 but 40 bytes"
        with pytest.raises(ArchiveFormatError, match=message):
            read_archive(path)

    def test_manifest_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.lrta"
        _raw_with_manifest(path, [1, 2], b"")
        with pytest.raises(ArchiveFormatError, match="version None"):
            read_archive(path)

    @pytest.mark.parametrize(
        "offset_b, size, match",
        [
            (52, 116, r"bytes 48\.\.52 before tensor 'task\.t0\.layer\.0\.q\.B'"),
            (48, 120, r"bytes 112\.\.120 after the last tensor"),
        ],
    )
    def test_payload_bytes_outside_every_tensor(self, tmp_path, offset_b, size, match):
        manifest = _one_adapter_manifest()
        manifest["tensors"][_B]["offset"] = offset_b
        path = tmp_path / "gap.lrta"
        _raw_with_manifest(path, manifest, b"\x00" * size)
        with pytest.raises(ArchiveFormatError, match=match):
            read_archive(path)

    def test_payloads_out_of_name_order_are_refused(self, tmp_path):
        # they tile the payload, but the writer lays them out in name order
        manifest = _one_adapter_manifest()
        manifest["tensors"][_B]["offset"] = 0
        manifest["tensors"][_A]["offset"] = 64
        path = tmp_path / "permuted.lrta"
        _raw_with_manifest(path, manifest, b"\x00" * 112)
        with pytest.raises(ArchiveFormatError, match=rf"bytes 0\.\.64 before tensor '{_A}'"):
            read_archive(path)


_F32_MAX = float(np.finfo(np.float32).max)
_F32_SUBNORMAL = float(np.float32(2.0**-149))
_F32_VALUES = st.sampled_from(
    [_F32_MAX, -_F32_MAX, _F32_SUBNORMAL, -_F32_SUBNORMAL, -0.0, 0.0]
) | st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def _archivable(draw):
    """A LoRA or VeRA collection, a ``ta`` bundle or a ``hydraopt`` bundle
    whose values are all float32 numbers, edge values included."""
    kind = draw(st.sampled_from(["lora", "vera"]))
    form = draw(st.sampled_from(["collection", "ta", "hydraopt"]))
    tasks = [f"t{i}" for i in range(draw(st.integers(1, 3)))]
    slot_keys = st.builds(SlotKey, st.integers(0, 2), st.sampled_from(["q", "v"]))
    slots = sorted(draw(st.lists(slot_keys, min_size=1, max_size=2, unique=True)))
    d, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    r = draw(st.integers(1, min(d, k)))

    def mat(rows, cols):
        values = draw(st.lists(_F32_VALUES, min_size=rows * cols, max_size=rows * cols))
        return np.array(values, dtype=np.float64).reshape(rows, cols)

    pairs = {slot: (mat(d, r), mat(r, k)) for slot in slots}

    def adapter(slot):
        if kind == "lora":
            return LowRankAdapter(b=mat(d, r), a=mat(r, k))
        return VeraAdapter(
            lambda_b=mat(d, 1).ravel(),
            lambda_d=mat(r, 1).ravel(),
            shared_b=pairs[slot][0],
            shared_a=pairs[slot][1],
        )

    def shared_slot(slot):
        m = draw(st.integers(1, len(tasks)))
        assignment = draw(st.lists(st.integers(0, m - 1), min_size=len(tasks), max_size=len(tasks)))
        if kind == "lora":
            return SharedLoraSlot(
                a_shared=mat(r, k), b_clusters=[mat(d, r) for _ in range(m)], assignment=assignment
            )
        return SharedVeraSlot(
            lambda_d=mat(r, 1).ravel(),
            lambda_b_clusters=[mat(d, 1).ravel() for _ in range(m)],
            shared_b=pairs[slot][0],
            shared_a=pairs[slot][1],
            assignment=assignment,
        )

    if form == "collection":
        return AdapterCollection.build(tasks, {(t, s): adapter(s) for t in tasks for s in slots})
    make = (lambda s: MergedAdapterSlot(adapter(s))) if form == "ta" else shared_slot
    entries = {slot: make(slot) for slot in slots}
    return MergedBundle(method=form, kind=kind, tasks=tasks, slots=slots, entries=entries)


def _float32_bits(obj) -> tuple[dict, dict]:
    """Every tensor the writer emits for ``obj``, as raw float32 bits, and
    the manifest meta."""
    if isinstance(obj, MergedBundle):
        tensors, meta = archive_module._bundle_tensors(obj)
    else:
        tensors, meta = archive_module._collection_tensors(obj)
    bits = {
        name: archive_module._as_f32_payload(arr, name).view(np.uint32)
        for name, arr in tensors.items()
    }
    return bits, meta


class TestRoundTripProperty:
    @given(obj=_archivable())
    @settings(max_examples=150, deadline=None)
    def test_read_of_write_is_bit_exact(self, tmp_path_factory, obj):
        first = tmp_path_factory.getbasetemp() / "first.lrta"
        second = tmp_path_factory.getbasetemp() / "second.lrta"
        write_archive(obj, first)
        back = read_archive(first)
        assert type(back) is type(obj)
        want_bits, want_meta = _float32_bits(obj)
        got_bits, got_meta = _float32_bits(back)
        assert got_meta == want_meta
        assert sorted(got_bits) == sorted(want_bits)
        for name, want in want_bits.items():
            assert got_bits[name].shape == want.shape, name
            assert np.array_equal(got_bits[name], want), name
        write_archive(back, second)
        assert second.read_bytes() == first.read_bytes()


class TestManifestStructure:
    """The reader's refusals of a manifest that is JSON but not an archive's."""

    def test_tensors_must_be_a_map(self, tmp_path):
        manifest = _one_adapter_manifest()
        manifest["tensors"] = [_A, _B]
        path = tmp_path / "list.lrta"
        _raw_with_manifest(path, manifest, b"\x00" * 112)
        with pytest.raises(ArchiveFormatError, match=r"^manifest 'tensors' must map names"):
            read_archive(path)

    def test_an_entry_must_be_a_map(self, tmp_path):
        manifest = _one_adapter_manifest()
        manifest["tensors"][_B] = [8, 2]
        path = tmp_path / "entry.lrta"
        _raw_with_manifest(path, manifest, b"\x00" * 112)
        with pytest.raises(ArchiveFormatError, match=rf"^malformed manifest entry for '{_B}'$"):
            read_archive(path)

    def test_a_nan_payload_names_its_tensor(self, tmp_path):
        path = tmp_path / "nan.lrta"
        nan_b = np.full(16, np.nan, dtype="<f4").tobytes()
        _raw_with_manifest(path, _one_adapter_manifest(), b"\x00" * 48 + nan_b)
        with pytest.raises(ValidationError, match=rf"^tensor '{_B}' contains non-finite entries$"):
            read_archive(path)

    @pytest.mark.parametrize("missing", ["kind", "tasks", None])
    def test_meta_must_declare_kind_and_tasks(self, tmp_path, missing):
        manifest = _one_adapter_manifest()
        if missing is None:
            manifest["meta"] = ["lora", ["t0"]]
        else:
            del manifest["meta"][missing]
        path = tmp_path / "meta.lrta"
        _raw_with_manifest(path, manifest, b"\x00" * 112)
        with pytest.raises(ArchiveFormatError, match=r"^manifest meta must declare 'kind' and"):
            read_archive(path)


class _FailingFile:
    """A file whose writes count down a shared budget; the write that
    spends it fails as on a full disk."""

    def __init__(self, fh, budget: list):
        self._fh, self._budget = fh, budget

    def write(self, data):
        self._budget[0] -= 1
        if self._budget[0] == 0:
            raise OSError(28, "No space left on device")
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


class TestFailedWrite:
    """A write that fails part way leaves neither a destination nor a
    temporary file behind, and an archive already at the destination as it
    was."""

    @staticmethod
    def write_failing_at(monkeypatch, obj, path, call: int) -> int:
        """Write ``obj`` with every file the writer opens failing its
        ``call``-th write in all; the writes it made."""
        budget = [call]
        opened = lambda *args: _FailingFile(open(*args), budget)  # noqa: E731
        monkeypatch.setattr(archive_module, "open", opened, raising=False)
        try:
            write_archive(obj, path)
        finally:
            monkeypatch.undo()
        return call - budget[0]

    @pytest.mark.parametrize("make", [small_collection, small_vera_collection])
    def test_every_failing_write_leaves_no_file(self, tmp_path, monkeypatch, make):
        obj, out = make(), tmp_path / "out.lrta"
        writes = self.write_failing_at(monkeypatch, obj, out, call=-1)
        expected = out.read_bytes()
        out.unlink()
        assert writes > 2 * len(obj.slots)  # the spill's payloads, then the file's
        for call in range(1, writes + 1):
            with pytest.raises(OSError, match="No space left on device"):
                self.write_failing_at(monkeypatch, obj, out, call)
            assert list(tmp_path.iterdir()) == [], call
        write_archive(obj, out)
        assert out.read_bytes() == expected

    def test_a_failing_write_keeps_the_archive_it_would_replace(self, tmp_path, monkeypatch):
        out = tmp_path / "out.lrta"
        write_archive(small_collection(seed=1), out)
        before = out.read_bytes()
        with pytest.raises(OSError, match="No space left on device"):
            self.write_failing_at(monkeypatch, small_collection(seed=2), out, call=4)
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_bytes() == before
        read_archive(out)


def _names_and_shapes(obj) -> tuple[dict, dict]:
    tensors, meta = archive_module._contents(obj)
    return {name: np.shape(t) for name, t in tensors.items()}, meta


class TestWriterDecodesWhatItWrites:
    """The writer commits only what the reader's own decoder accepts, and
    returns what that decoder builds."""

    @pytest.mark.parametrize(
        "assignment",
        [[True, False], [1.0, 0.0], [np.int64(1), np.int64(0)]],
        ids=["bool", "float", "numpy-int"],
    )
    def test_non_integer_assignment_is_refused_and_nothing_is_written(
        self, tmp_path, assignment
    ):
        bundle = _shared_bundle("lora")
        bundle.entries[bundle.slots[0]].assignment = assignment
        with pytest.raises(HydraMergeError, match=r"task 't0'.*slot layer\.0\.q"):
            write_archive(bundle, tmp_path / "bundle.lrta")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "make",
        [small_collection, small_vera_collection, _ta_bundle, lambda: _shared_bundle("vera")],
        ids=["lora", "vera", "ta-bundle", "vera-bundle"],
    )
    def test_write_returns_what_open_archive_decodes(self, tmp_path, make):
        path = tmp_path / "out.lrta"
        with ArchiveWriter(path) as writer:
            outline = writer.write(make())
        assert _names_and_shapes(outline) == _names_and_shapes(open_archive(path))

    def test_a_generated_collection_draws_each_slot_once(self, tmp_path, monkeypatch):
        drawn, draw = [], synthetic._Drawn._draw
        monkeypatch.setattr(
            synthetic._Drawn, "_draw", lambda table, slot: drawn.append(slot) or draw(table, slot)
        )
        spec = synthetic.SynthSpec(layers=2)
        with ArchiveWriter(tmp_path / "gen.lrta") as writer:
            writer.write(synthetic.generate(spec))
        assert drawn == spec.slot_keys()


class TestChangedAfterCheck:
    """A slot read from an archive that was replaced, or rewritten in place
    to the same size, after :func:`open_archive` checked it raises
    :class:`ArchiveFormatError` naming the file."""

    READS = {
        "adapters_at": lambda obj, slot: list(obj.adapters_at(slot)),
        "adapter": lambda obj, slot: obj.adapter(obj.task_ids[-1], slot),
        "sides_at": lambda obj, slot: [list(side) for side in obj.sides_at(slot)],
        "entry": lambda obj, slot: obj.entry(slot),
    }

    @staticmethod
    def replace(path, other) -> None:
        os.replace(other, path)

    @staticmethod
    def rewrite(path, other) -> None:
        time.sleep(0.05)  # file times may tick coarsely: let the rewrite get a later one
        data = other.read_bytes()
        with open(path, "r+b") as fh:
            fh.write(data)

    @pytest.mark.parametrize("change", ["replace", "rewrite"])
    @pytest.mark.parametrize("read", list(READS))
    def test_a_changed_file_is_named(self, tmp_path, change, read):
        obj = _shared_bundle("lora") if read == "entry" else small_collection()
        path, other = tmp_path / "archive.lrta", tmp_path / "other.lrta"
        write_archive(obj, path)
        write_archive(obj, other)  # the same bytes: only the file's identity changes
        opened = open_archive(path)
        slot = opened.slots[-1]
        self.READS[read](opened, slot)
        getattr(self, change)(path, other)
        message = re.escape(f"{path} changed after it was checked")
        with pytest.raises(ArchiveFormatError, match=message):
            self.READS[read](opened, slot)

    MERGES = {
        **{m.value: lambda obj, m=m: merge_collection(obj, BaselineConfig(m)) for m in MergeMethod},
        "ta --a-only": lambda obj: merge_collection(
            obj, BaselineConfig("ta", merge_target="a-only")
        ),
        "hydraopt": lambda obj: merge_collection_hydra(obj, HydraConfig(num_clusters=2)),
    }

    @pytest.mark.parametrize("merge", list(MERGES))
    def test_a_merge_names_the_slot_it_was_reading(self, tmp_path, merge):
        path, other = tmp_path / "archive.lrta", tmp_path / "other.lrta"
        write_archive(small_collection(), path)
        write_archive(small_collection(seed=1), other)
        opened = open_archive(path)
        os.replace(other, path)
        message = re.escape(f"slot layer.0.q: {path} changed after it was checked")
        with pytest.raises(ArchiveFormatError, match=f"^{message}$"):
            self.MERGES[merge](opened)
