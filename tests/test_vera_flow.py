"""End-to-end coverage of the scaled-vector (vera) surfaces: baseline and
optimized merging, archive round trips, and reconstruction reports."""

import numpy as np
import pytest

from hydramerge.adapters import (
    AdapterCollection,
    MergedAdapterSlot,
    SharedVeraSlot,
    SlotKey,
    VeraAdapter,
)
from hydramerge.analysis import reconstruction_report
from hydramerge.archive import read_archive, write_archive
from hydramerge.baselines import (
    BaselineConfig,
    MergeMethod,
    MergeTarget,
    merge_collection,
    merge_dare,
    merge_dare_ties,
)
from hydramerge.hydra import HydraConfig, globalize_assignment, merge_collection_hydra, train
from hydramerge.linalg import Rng, exact_mean, gaussian_sample, stable_hash64


def vera_collection(tasks=4, d=6, r=2, k=5, seed=0, layers=2):
    slots = [SlotKey(layer, name) for layer in range(layers) for name in ("q",)]
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


class TestVeraBaselines:
    def test_ta_merges_scaling_vectors(self):
        coll = vera_collection()
        bundle = merge_collection(coll, BaselineConfig(method=MergeMethod.TA))
        slot = coll.slots[0]
        entry = bundle.entries[slot]
        assert isinstance(entry, MergedAdapterSlot)
        adapters = coll.adapters_at(slot)
        expected_lb = exact_mean([a.lambda_b.reshape(-1, 1) for a in adapters]).ravel()
        assert np.array_equal(entry.adapter.lambda_b, expected_lb)
        assert np.array_equal(entry.adapter.shared_a, adapters[0].shared_a)

    @pytest.mark.parametrize("method", [MergeMethod.DARE, MergeMethod.DARE_TIES])
    @pytest.mark.parametrize("target", list(MergeTarget))
    def test_slot_stream_merges_lambda_d_before_lambda_b(self, method, target):
        coll = vera_collection(tasks=3, d=8, r=3, k=6, seed=1)
        cfg = BaselineConfig(method=method, dare_drop_p=0.5, seed=5, merge_target=target)
        bundle = merge_collection(coll, cfg)
        for slot in coll.slots:
            rng = Rng(cfg.seed ^ stable_hash64(slot.label()))
            p, density = cfg.dare_drop_p, cfg.ties_density
            if method is MergeMethod.DARE:
                merge = lambda ts: merge_dare(ts, p, rng).ravel()
            else:
                merge = lambda ts: merge_dare_ties(ts, p, density, rng).ravel()
            adapters = coll.adapters_at(slot)
            expected_ld = merge([ad.lambda_d.reshape(-1, 1) for ad in adapters])
            entry = bundle.entries[slot]
            if target is MergeTarget.PER_MATRIX:
                expected_lb = merge([ad.lambda_b.reshape(-1, 1) for ad in adapters])
                assert np.array_equal(entry.adapter.lambda_d, expected_ld)
                assert np.array_equal(entry.adapter.lambda_b, expected_lb)
            else:
                assert np.array_equal(entry.lambda_d, expected_ld)
                for ad, kept in zip(adapters, entry.lambda_b_clusters):
                    assert np.array_equal(kept, ad.lambda_b)

    def test_a_only_keeps_outer_vectors(self):
        coll = vera_collection()
        cfg = BaselineConfig(method=MergeMethod.TA, merge_target=MergeTarget.A_ONLY)
        bundle = merge_collection(coll, cfg)
        entry = bundle.entries[coll.slots[0]]
        assert isinstance(entry, SharedVeraSlot)
        assert len(entry.lambda_b_clusters) == coll.num_tasks
        assert entry.assignment == list(range(coll.num_tasks))

    def test_baseline_bundle_round_trip(self, tmp_path):
        coll = vera_collection()
        bundle = merge_collection(coll, BaselineConfig(method=MergeMethod.TIES))
        path = tmp_path / "vera-ta.lrta"
        write_archive(bundle, path)
        back = read_archive(path)
        assert back.kind == "vera"
        slot = coll.slots[0]
        original = bundle.entries[slot].adapter
        loaded = back.entries[slot].adapter
        assert np.array_equal(loaded.lambda_d, original.lambda_d.astype(np.float32))


class TestVeraHydra:
    def test_merge_train_and_round_trip(self, tmp_path):
        coll = vera_collection(tasks=4)
        cfg = HydraConfig(num_clusters=2, epochs=60, seed=1)
        bundle, summary = merge_collection_hydra(coll, cfg)
        assert summary["final_loss"] <= summary["initial_loss"]
        slot = coll.slots[0]
        entry = bundle.entries[slot]
        assert isinstance(entry, SharedVeraSlot)
        assert len(entry.lambda_b_clusters) == 2

        path = tmp_path / "vera-hydra.lrta"
        write_archive(bundle, path)
        back = read_archive(path)
        back_entry = back.entries[slot]
        assert back_entry.assignment == entry.assignment
        assert np.array_equal(
            back_entry.lambda_d, entry.lambda_d.astype(np.float32)
        )

        recon = reconstruction_report(coll, bundle)
        assert recon.grand_mean("mae") >= 0.0

    def test_full_cluster_recon_beats_single(self):
        coll = vera_collection(tasks=4, seed=5)
        errors = {}
        for m in (1, 4):
            bundle, _ = merge_collection_hydra(
                coll, HydraConfig(num_clusters=m, epochs=400, seed=2)
            )
            errors[m] = reconstruction_report(coll, bundle).grand_mean("mae")
        assert errors[4] <= errors[1]


class TestDataFreeContract:
    def test_train_never_mutates_targets(self):
        from hydramerge.linalg import Rng as R

        coll = vera_collection(tasks=3, seed=9)
        slot = coll.slots[0]
        vera_targets = coll.adapters_at(slot)
        snapshots = [
            (t.lambda_b.copy(), t.lambda_d.copy(), t.shared_b.copy(), t.shared_a.copy())
            for t in vera_targets
        ]
        from hydramerge.hydra import train_vera

        train_vera(vera_targets, HydraConfig(num_clusters=2, epochs=30), R(0))
        for target, snap in zip(vera_targets, snapshots):
            assert np.array_equal(target.lambda_b, snap[0])
            assert np.array_equal(target.lambda_d, snap[1])
            assert np.array_equal(target.shared_b, snap[2])
            assert np.array_equal(target.shared_a, snap[3])

    def test_lora_train_never_mutates_targets(self):
        from hydramerge.adapters import LowRankAdapter

        rng = Rng(3)
        targets = [
            LowRankAdapter(
                b=gaussian_sample(rng, 5, 2, 0.0, 1.0), a=gaussian_sample(rng, 2, 6, 0.0, 1.0)
            )
            for _ in range(3)
        ]
        snaps = [(t.b.copy(), t.a.copy()) for t in targets]
        train(targets, HydraConfig(num_clusters=2, epochs=30), Rng(0))
        for target, (b, a) in zip(targets, snaps):
            assert np.array_equal(target.b, b)
            assert np.array_equal(target.a, a)


class TestGlobalizeAssignment:
    def test_majority_vote_across_slots(self):
        coll = vera_collection(tasks=3, layers=3, seed=2)
        bundle, _ = merge_collection_hydra(coll, HydraConfig(num_clusters=2, epochs=5, seed=0))
        # force disagreeing assignments, then globalize
        slots = list(bundle.slots)
        bundle.entries[slots[0]].assignment = [0, 1, 0]
        bundle.entries[slots[1]].assignment = [0, 0, 1]
        bundle.entries[slots[2]].assignment = [1, 1, 1]
        globalize_assignment(bundle)
        for slot in slots:
            assert bundle.entries[slot].assignment == [0, 1, 1]
