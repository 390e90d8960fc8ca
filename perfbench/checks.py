"""Checks of one round's outputs against computations made apart from the
program: the archives are read with the benchmark's own LRTA parser
(lrta.py) and every figure is recomputed in plain numpy.

Run as a process of its own, so that the process timing the commands
stays small:

    checks.py --workload NAME [--tiny] --work DIR --docs FILE

prints one JSON object: ``checks`` (name, passed, detail) and ``machine``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

import lrta
from workloads import DARE_P, Workload, checks_per_round, storage_closed_form, workloads

DARE_ZERO_TOLERANCE = 0.02  # >= 7 standard deviations of the zero share at 32k entries


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_round(w: Workload, docs: dict, work: Path) -> list[tuple[str, bool, str]]:
    """Every check of a round, in a fixed order.  ``docs`` maps each
    command label of ``workloads.plan`` to the JSON it printed."""
    results: list[tuple[str, bool, str]] = []

    def check(name: str, passed: bool, detail: str = "") -> None:
        results.append((name, bool(passed), detail))

    coll = lrta.Archive(work / "collection.lrta")
    slots = w.slot_labels
    b_name, a_name = (
        (f"task.t0.{slots[0]}.B", f"task.t0.{slots[0]}.A")
        if w.kind == "lora"
        else (f"shared.{slots[0]}.B", f"shared.{slots[0]}.A")
    )
    check(
        "collection",
        coll.meta["kind"] == w.kind
        and coll.tasks == [f"t{i}" for i in range(w.tasks)]
        and coll.slots() == slots
        and coll.tensors[b_name].shape == (w.d, w.rank)
        and coll.tensors[a_name].shape == (w.rank, w.k),
        f"kind {coll.meta['kind']}, tasks {coll.tasks}, slots {coll.slots()}",
    )

    target = lrta.targets(coll)
    for name, _ in w.merges:
        bundle = lrta.Archive(work / f"{name}.lrta")
        merged = docs[f"merge:{name}"]
        storage = docs[f"report-storage:{name}"]["storage"]
        expect = storage_closed_form(w, name)
        check(
            f"storage:{name}",
            _close(merged["storage_ratio_percent"], expect, 1e-12)
            and storage["ratio_percent"] == merged["storage_ratio_percent"],
            f"merge {merged['storage_ratio_percent']}, report-storage "
            f"{storage['ratio_percent']}, closed form {expect}",
        )
        mine = lrta.grand_mean_mae(target, bundle)
        theirs = docs[f"eval-recon:{name}"]["recon"]["grand_mean_mae"]
        check(f"recon:{name}", _close(mine, theirs, 1e-9), f"eval-recon {theirs}, numpy {mine}")

        clusters = {slot: bundle.clusters(slot) or 1 for slot in slots}
        assignment = bundle.meta["assignment"]
        in_range = all(0 <= assignment[t][s] < clusters[s] for t in coll.tasks for s in slots)
        if name == "hydraopt":
            in_range = (
                in_range
                and merged["assignment"] == assignment
                and all(c == w.m for c in clusters.values())
            )
        check(f"assignment:{name}", in_range, f"clusters per slot {clusters}")

        if name == "hydraopt":
            check(
                "loss:hydraopt",
                merged["final_loss"] < merged["initial_loss"],
                f"initial {merged['initial_loss']}, final {merged['final_loss']}",
            )
        elif name == "ta":
            check("ta-mean", *_ta_is_mean(coll, bundle, slots))
        elif name == "dare":
            entries = [bundle.tensors[f"merged.{s}.{f}"] for s in slots for f in "AB"]
            share = sum(int(np.count_nonzero(t == 0)) for t in entries) / sum(
                t.size for t in entries
            )
            expect_share = DARE_P**w.tasks
            check(
                "dare-zeros",
                abs(share - expect_share) <= DARE_ZERO_TOLERANCE,
                f"zero share {share:.4f}, p^K {expect_share:.4f}",
            )
    if w.kind == "lora":
        mine = lrta.similarity_grand_means(coll)
        doc = docs["analyze-similarity"]["similarity"]
        check(
            "similarity",
            all(_close(mine[f], doc[f]["grand_mean"], 1e-9) for f in "AB"),
            f"numpy {mine}",
        )
    if len(results) != checks_per_round(w):
        raise RuntimeError(f"{len(results)} checks made, {checks_per_round(w)} counted")
    return results


def _ta_is_mean(coll: lrta.Archive, bundle: lrta.Archive, slots: list[str]) -> tuple[bool, str]:
    """The ta factors are the float32 mean of the inputs, within one float32 ulp."""
    worst = 0.0
    for slot in slots:
        for factor in "AB":
            stack = np.stack([coll.f64(f"task.{t}.{slot}.{factor}") for t in coll.tasks])
            ref = stack.mean(axis=0).astype(np.float32)
            got = bundle.tensors[f"merged.{slot}.{factor}"]
            ulp = np.spacing(np.abs(ref)).astype(np.float64)
            worst = max(worst, float(np.max(np.abs(got.astype(np.float64) - ref) / ulp)))
    return worst <= 1.0, f"largest difference {worst} float32 ulp"


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="checks.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--work", required=True)
    parser.add_argument("--docs", required=True)
    args = parser.parse_args(argv)
    w = workloads(args.tiny)[args.workload]
    docs = json.loads(Path(args.docs).read_text())
    results = check_round(w, docs, Path(args.work))
    print(json.dumps({"checks": results, "machine": machine()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
