#!/usr/bin/env python3
"""Benchmark of the hydramerge merge pipeline: set-up, merge and reports,
driven through the CLI as a user runs it, with every output checked
against computations made apart from the program.  See README.md here.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Every sample and
the machine description go to ``perfbench/results/``.

Every time is CPU time, user plus system, of the processes that do the
work, as ``wait4`` reports it when each ends.  The kernel leaves out of it
the time the hypervisor gave to other guests (steal), which on a shared
host can double the wall time of a command; wall times go to the results
file only.

This process imports no numpy and keeps no arrays: a child's peak RSS, as
the kernel reports it, starts from the RSS of the process that forked it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import TEMPERATURE, Workload, checks_per_round, plan, setup_args, workloads

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
CHILD = BENCH / "child.py"
# One BLAS thread in every process: on two cores, two threads made one
# hydra step faster but twice as variable.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COMMAND_TIMEOUT_S = 150
EXTRA_SETUPS = 2  # set-ups timed before each round, besides the round's own
IMPORT_SAMPLES = 5

LAYERS = ("cli", "synthetic", "archive", "linalg", "baselines", "hydra", "analysis")
END_TO_END_UNITS = {
    "setup_s": "s",
    "merge_s": "s",
    "report_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "storage_pct": "%",
    "recon_mae": "abs_err",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "synthetic.generate_s": "s",
    "archive.read_s": "s",
    "archive.write_s": "s",
    "archive.bytes": "B",
    "linalg.exact_mean_s": "s",
    "linalg.exact_mean_calls": "count",
    "linalg.distance_ms": "ms",
    "linalg.distance_grad_ms": "ms",
    "baselines.ta_s": "s",
    "baselines.ties_s": "s",
    "baselines.dare_s": "s",
    "baselines.dare_ties_s": "s",
    "hydra.init_s": "s",
    "hydra.grad_ms": "ms",
    "hydra.adamw_ms": "ms",
    "hydra.step_ms": "ms",
    "hydra.train_s": "s",
    "hydra.steps": "count",
    "hydra.step_alloc_mb": "MB",
    "analysis.recon_s": "s",
    "analysis.similarity_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS + ("bench",)},
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class CommandFailed(Exception):
    pass


@dataclass
class Done:
    """One process that ended well."""

    cpu_s: float  # user plus system CPU seconds
    wall_s: float
    rss_mb: float  # peak resident memory
    stdout: str


@dataclass
class Round:
    """Samples of one round: set-up, merges, then reports.  The phase times
    are CPU seconds; ``pipeline_s`` is their sum."""

    traced: bool
    times: dict[str, list[float]] = field(default_factory=dict)  # label: [cpu s, wall s, peak MB]
    setup_s: float = 0.0
    merge_s: float = 0.0
    report_s: float = 0.0
    pipeline_s: float = 0.0
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    docs: dict[str, dict] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)


class Runner:
    """Starts one process at a time and waits for it (a closed loop)."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)
        self.env.pop("HYDRA_MERGE_LOG", None)
        self.count = 0

    def run(self, argv: list[str]) -> Done:
        """Run one process to its end; CPU and wall time, peak RSS, stdout."""
        self.count += 1
        out_path = self.work / f"cmd{self.count}.out"
        err_path = self.work / f"cmd{self.count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = err_path.read_text(errors="replace")[-2000:]
            raise CommandFailed(f"{' '.join(argv[1:6])} ... exited {proc.returncode}: {tail}")
        cpu = usage.ru_utime + usage.ru_stime
        return Done(cpu, wall, usage.ru_maxrss / 1024.0, out_path.read_text())


def argv_for(args: list[str], traced: bool = False, spans: Path | None = None,
             parent: str = "", trace_id: int = 0) -> list[str]:  # fmt: skip
    """Untraced CLI commands run as a user runs them; make-vera, and every
    traced command, go through child.py."""
    if not traced and args[0] != "make-vera":
        return [sys.executable, "-m", "hydramerge", *args]
    head = [sys.executable, str(CHILD)]
    if traced:
        head += ["--spans", str(spans), "--parent", parent, "--trace-id", str(trace_id)]
    return head + (args if args[0] == "make-vera" else ["cli", "--", *args])


def run_round(runner: Runner, w: Workload, seed: int, traced: bool, trace_id: int) -> Round:
    rnd = Round(traced=traced)
    round_id = f"r{trace_id}"
    round_span = {"id": round_id, "name": "bench.round", "parent": None, "trace": trace_id,
                  "attrs": {"workload": w.name}, "start_ns": time.monotonic_ns()}  # fmt: skip
    start, own_cpu, children_cpu = time.perf_counter(), time.process_time(), 0.0
    for i, (phase, label, args) in enumerate(plan(w, seed, runner.work)):
        span_id = f"{round_id}.{i}"
        spans_file = runner.work / f"{span_id}.spans.json"
        proc_span = {"id": span_id, "parent": round_id, "trace": trace_id,
                     "name": "bench.process" if args[0] == "make-vera" else "cli.process",
                     "attrs": {"command": label}, "start_ns": time.monotonic_ns()}  # fmt: skip
        done = runner.run(argv_for(args, traced, spans_file, span_id, trace_id))
        proc_span["end_ns"] = time.monotonic_ns()
        proc_span["cpu_ns"] = round(done.cpu_s * 1e9)
        children_cpu += done.cpu_s
        setattr(rnd, f"{phase}_s", getattr(rnd, f"{phase}_s") + done.cpu_s)
        rnd.peak_rss_mb = max(rnd.peak_rss_mb, done.rss_mb)
        rnd.times[label] = [done.cpu_s, done.wall_s, done.rss_mb]
        rnd.docs[label] = json.loads(done.stdout)
        if traced:
            rnd.spans.append(proc_span)
            rnd.spans.extend(json.loads(spans_file.read_text()))
    rnd.pipeline_s = rnd.setup_s + rnd.merge_s + rnd.report_s
    rnd.wall_s = time.perf_counter() - start
    round_span["end_ns"] = time.monotonic_ns()
    # The benchmark's own CPU time between commands, plus that of the commands.
    round_span["cpu_ns"] = round((time.process_time() - own_cpu + children_cpu) * 1e9)
    if traced:
        rnd.spans.insert(0, round_span)
    return rnd


def span_metrics(spans: list[dict]) -> dict[str, float]:
    """Totals, counts and per-layer self times of one traced round, in CPU
    seconds.  A span's self time is its CPU time minus that of its
    children; children run one after another inside their parent."""
    dur = {s["id"]: s["cpu_ns"] / 1e9 for s in spans}
    child_time: dict[str, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + dur[s["id"]]

    def total(name: str, **attrs) -> float:
        return sum(
            dur[s["id"]]
            for s in spans
            if s["name"] == name and all(s["attrs"].get(k) == v for k, v in attrs.items())
        )

    def count(name: str) -> int:
        return sum(1 for s in spans if s["name"] == name)

    out = {
        "synthetic.generate_s": total("synthetic.generate"),
        "archive.read_s": total("archive.read_archive"),
        "archive.write_s": total("archive.write_archive"),
        "archive.bytes": sum(s["attrs"]["bytes"] for s in spans if s["name"].startswith("archive.")),
        "linalg.exact_mean_s": total("linalg.exact_mean"),
        "linalg.exact_mean_calls": count("linalg.exact_mean"),
        "baselines.ta_s": total("baselines.merge_collection", method="ta"),
        "baselines.ties_s": total("baselines.merge_collection", method="ties"),
        "baselines.dare_s": total("baselines.merge_collection", method="dare"),
        "baselines.dare_ties_s": total("baselines.merge_collection", method="dare-ties"),
        "hydra.init_s": total("hydra.init_state") + total("hydra.init_vera_state"),
        "hydra.train_s": total("hydra.train") + total("hydra.train_vera"),
        "hydra.steps": count("hydra.adamw_step"),
        "analysis.recon_s": total("analysis.reconstruction_report"),
        "analysis.similarity_s": total("analysis.pairwise_similarity"),
        "trace.spans": len(spans),
    }
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = sum(
            dur[s["id"]] - child_time.get(s["id"], 0.0)
            for s in spans
            if s["name"].split(".")[0] == layer
        )
    return out


def median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny shapes (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hydramerge" / "__init__.py").is_file():
        print(f"error: no src/hydramerge under {ROOT}; run from a checkout root", file=sys.stderr)
        return 2
    table = workloads(args.tiny)
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(table)}", file=sys.stderr)
        return 2
    work = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(table[args.workload], args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(w: Workload, args, work: Path) -> int:
    runner = Runner(work)
    deadline = time.perf_counter() + args.seconds
    # Compile and cache the package before anything is timed.
    runner.run([sys.executable, "-c", "import hydramerge"])

    rounds: list[Round] = []
    setups: list[float] = []
    attempted = failed = 0
    checks: list = []
    errors: list[str] = []
    ops_per_round = len(plan(w, args.seed, work)) + checks_per_round(w)
    probe: dict = {}
    machine: dict = {}
    import_s: list[float] = []
    if args.trace:
        for _ in range(IMPORT_SAMPLES):
            import_s.append(runner.run([sys.executable, "-c", "import hydramerge"]).cpu_s)
    setup_argv = argv_for(setup_args(w, args.seed, str(work / "collection.lrta")))

    while True:
        started = time.perf_counter()
        # Untraced runs: extra set-up samples, spread over the run like the rounds.
        for _ in range(0 if args.trace else EXTRA_SETUPS):
            attempted += 1
            try:
                setups.append(runner.run(setup_argv).cpu_s)
            except CommandFailed as exc:
                failed += 1
                errors.append(str(exc))
        # Traced runs: an untraced round, then a traced one, for the overhead.
        for traced in (False, True) if args.trace else (False,):
            attempted += ops_per_round
            try:
                rnd = run_round(runner, w, args.seed, traced, len(rounds))
                docs = work / "docs.json"
                docs.write_text(json.dumps(rnd.docs))
                check_argv = [sys.executable, str(BENCH / "checks.py"), "--workload", w.name,
                              "--work", str(work), "--docs", str(docs)] + ["--tiny"] * args.tiny  # fmt: skip
                verdict = json.loads(runner.run(check_argv).stdout)
            except CommandFailed as exc:
                failed += ops_per_round
                errors.append(str(exc))
                continue
            machine = verdict["machine"]
            failed += sum(1 for _, ok, _ in verdict["checks"] if not ok)
            checks.extend(verdict["checks"])
            rounds.append(rnd)
            setups.append(rnd.setup_s)
        if args.trace and not probe and rounds:
            probe_argv = [sys.executable, str(CHILD), "probe", "--archive",
                          str(work / "collection.lrta"), "--m", str(w.m), "--distance", w.distance,
                          "--lr", str(w.lr), "--temp", str(TEMPERATURE), "--seed", str(args.seed)]  # fmt: skip
            probe = json.loads(runner.run(probe_argv).stdout)
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            break

    plain = [r for r in rounds if not r.traced]
    traced_rounds = [r for r in rounds if r.traced]
    metrics: dict[str, float] = {}
    if plain:
        first = w.merges[0][0]
        # Each command's median over the rounds, summed over its phase: a
        # command slowed by a passing neighbour moves one median, not a sum.
        phase_s = {"setup": median(setups), "merge": 0.0, "report": 0.0}
        for phase, label, _ in plan(w, args.seed, work):
            if phase != "setup":
                phase_s[phase] += median(r.times[label][0] for r in plain)
        metrics = {
            "setup_s": phase_s["setup"],
            "merge_s": phase_s["merge"],
            "report_s": phase_s["report"],
            "pipeline_s": sum(phase_s.values()),
            "peak_rss_mb": median(r.peak_rss_mb for r in plain),
            "storage_pct": plain[0].docs[f"merge:{first}"]["storage_ratio_percent"],
            "recon_mae": plain[0].docs[f"eval-recon:{first}"]["recon"]["grand_mean_mae"],
        }
    shown, units = metrics, END_TO_END_UNITS
    if args.trace:
        shown, units = {}, PER_LAYER_UNITS
        if traced_rounds and plain and probe:
            per_round = [span_metrics(r.spans) for r in traced_rounds]
            shown = {name: median(m[name] for m in per_round) for name in per_round[0]}
            shown["cli.import_s"] = median(import_s)
            for key in ("distance_ms", "distance_grad_ms"):
                shown[f"linalg.{key}"] = probe[key]
            for key in ("grad_ms", "adamw_ms", "step_ms", "step_alloc_mb"):
                shown[f"hydra.{key}"] = probe[key]
            traced_pipeline = median(r.pipeline_s for r in traced_rounds)
            shown["trace.overhead_s"] = traced_pipeline - median(r.pipeline_s for r in plain)
            spans = [s for r in traced_rounds for s in r.spans]
            write_result(w, args, "spans", spans)

    write_result(w, args, f"trace{args.trace}", {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine, "workload_spec": vars(w), "setup_samples": setups,
        "rounds": [{k: v for k, v in vars(r).items() if k not in ("docs", "spans")}
                   for r in rounds],
        "probe": probe, "import_samples": import_s, "checks": checks, "errors": errors,
        "end_to_end": metrics, "metrics": shown,
    })  # fmt: skip
    for name, ok, info in checks:
        if not ok:
            print(f"check failed: {name}: {info}", file=sys.stderr)
    for err in errors:
        print(f"command failed: {err}", file=sys.stderr)
    missing = [name for name in units if name not in shown]
    if missing:
        print(f"error: no samples for {missing}", file=sys.stderr)
        return 1
    correct = all(ok for _, ok, _ in checks)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": shown[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def write_result(w: Workload, args, what: str, doc) -> None:
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{w.name}-seed{args.seed}-{what}.json").write_text(json.dumps(doc, indent=1))


if __name__ == "__main__":
    sys.exit(main())
