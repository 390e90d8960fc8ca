#!/usr/bin/env python3
"""Quick self-test of the benchmark, in under a minute on two cores.

    python3 perfbench/selftest.py        # from the root of a checkout

1. Every workload of BENCHMARK.json runs at tiny shapes, untraced and
   traced, through the same command line and the same checks as a full
   run; each must be correct, fail nothing and print exactly the metrics
   BENCHMARK.json names, with their units.
2. Each check rejects an output made wrong on purpose.
3. In a directory without the program, the benchmark exits non-zero and
   prints no result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import checks
import run
from workloads import workloads


def cli_runs(spec: dict) -> list[str]:
    problems = []
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload["name"],
                    "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]  # fmt: skip
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=run.ROOT, timeout=170)
            label = f"{workload['name']} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no result line; stderr: {proc.stderr[-1500:]}")
                continue
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expected = {m["name"]: m["unit"] for m in spec[key]}
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: rc {proc.returncode}, {result}; {proc.stderr[-1500:]}")
            if set(result) != {"correct", "attempted", "failed", "metrics"} or units != expected:
                problems.append(f"{label}: metrics {units} differ from {expected}")
            print(f"ok   {label}: {result['attempted']} operations", flush=True)
    return problems


def mutations() -> list[str]:
    """Run one tiny round per workload in this process, then spoil one
    output at a time and require the matching check to fail."""
    problems = []
    table = workloads(tiny=True)
    for name in ("hydraopt-lora-mse", "hydraopt-vera-mae", "baselines-lora"):
        w = table[name]
        work = run.BENCH / "work" / f"selftest-{name}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            runner = run.Runner(work)
            rnd = run.run_round(runner, w, seed=5, traced=False, trace_id=0)
            first = w.merges[0][0]
            cases = [
                (f"storage:{first}", lambda d: _scale(d[f"merge:{first}"], "storage_ratio_percent")),
                (f"recon:{first}", lambda d: _scale(d[f"eval-recon:{first}"]["recon"], "grand_mean_mae")),
            ]
            if w.hydra:
                cases.append(("loss:hydraopt", lambda d: _swap_losses(d["merge:hydraopt"])))
                cases.append(("assignment:hydraopt", lambda d: _bump_assignment(d["merge:hydraopt"])))
            if w.kind == "lora":
                cases.append(("similarity", lambda d: _scale(d["analyze-similarity"]["similarity"]["A"], "grand_mean")))
            for check_name, spoil in cases:
                spoiled = copy.deepcopy(rnd.docs)
                spoil(spoiled)
                problems += _expect_failure(w, spoiled, work, check_name)
            if not w.hydra:
                # a bundle that is not the ta mean, and one without dropped entries
                shutil.copy(work / "ties.lrta", work / "ta.lrta")
                shutil.copy(work / "dare-ties.lrta", work / "dare.lrta")
                problems += _expect_failure(w, rnd.docs, work, "ta-mean")
                problems += _expect_failure(w, rnd.docs, work, "dare-zeros")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return problems


def _scale(doc: dict, key: str) -> None:
    doc[key] *= 1.0001


def _swap_losses(doc: dict) -> None:
    doc["initial_loss"], doc["final_loss"] = doc["final_loss"], doc["initial_loss"]


def _bump_assignment(doc: dict) -> None:
    for per_slot in doc["assignment"].values():
        for slot in per_slot:
            per_slot[slot] += 7


def _expect_failure(w, docs: dict, work, check_name: str) -> list[str]:
    outcome = {name: ok for name, ok, _ in checks.check_round(w, docs, work)}
    if outcome.get(check_name, True):
        return [f"{w.name}: check {check_name} accepted a spoiled output"]
    print(f"ok   {w.name}: {check_name} rejects a spoiled output", flush=True)
    return []


def without_program() -> list[str]:
    bare = run.BENCH / "work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in run.BENCH.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        argv = [sys.executable, "perfbench/run.py", "--workload", "baselines-lora",
                "--seed", "0", "--seconds", "1", "--trace", "0"]  # fmt: skip
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=bare, timeout=170)
        if proc.returncode == 0 or proc.stdout.strip():
            return [f"without the program: rc {proc.returncode}, stdout {proc.stdout!r}"]
        print("ok   without the program the benchmark exits non-zero and prints nothing")
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = cli_runs(spec) + mutations() + without_program()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
