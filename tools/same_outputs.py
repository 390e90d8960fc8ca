"""Check that two source trees give the same CLI outputs.

    python tools/same_outputs.py OLD_SRC NEW_SRC

Runs a fixed matrix of ``hydramerge`` commands once against each source
tree (the directory that holds the ``hydramerge`` package), each tree in
its own temporary directory, with ``OPENBLAS_NUM_THREADS=1`` so that BLAS
sums in one fixed order.  Every command runs from that directory with
relative paths, so the two runs print the same paths.  Names every
command whose exit code, stdout, stderr or written archive differs (a
command that fails must write no archive in either tree), with what
differs, and then exits 1; exits 0 when every command agrees.  Each tree
goes on from its own archives, so a command that reads a differing
archive is likely to be named too.  Besides valid inputs, the matrix
feeds the reader malformed ones, which must fail the same way: a NaN
payload in the last slot, a stray tensor, a truncated payload and
bundles merged from another collection.  A collection whose slots
differ in shape goes through the merges and every report.  A command
may start with ``NAME=VALUE`` words, which set its environment as a
shell does: a few run with ``HYDRA_MERGE_LOG``
set, so that the diagnostics they log are compared too; the others run
without it.  Takes under two minutes per tree on two cores.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from itertools import product
from pathlib import Path

BASELINES = ("ta", "ties", "dare", "dare-ties")
DISTANCES = ("mae", "mse", "fro", "cos")

# A VeRA collection from the tree's own library: gen-synthetic writes LoRA only.
# An optional last argument is the seed, 3 by default.
MAKE_VERA = """
import sys
import numpy as np
from hydramerge import AdapterCollection, SlotKey, VeraAdapter, write_archive
rng = np.random.default_rng(int(sys.argv[3]) if len(sys.argv) > 3 else 3)
tasks = ["t0", "t1", "t2", "t3"]
table = {}
for name in ("q", "v"):
    slot = SlotKey(0, name)
    shared_b, shared_a = rng.standard_normal((12, 6)), rng.standard_normal((6, 10))
    for task in tasks:
        table[(task, slot)] = VeraAdapter(
            lambda_b=rng.standard_normal(12), lambda_d=1.0 + 0.1 * rng.standard_normal(6),
            shared_b=shared_b, shared_a=shared_a,
        )
write_archive(AdapterCollection.build(tasks, table), sys.argv[2])
"""

# A LoRA collection whose slots differ in d x k, from the tree's own library:
# gen-synthetic gives every slot one shape.  K = 4 tasks, rank 4.
MAKE_MIXED = """
import sys
import numpy as np
from hydramerge import AdapterCollection, LowRankAdapter, SlotKey, write_archive
rng = np.random.default_rng(3)
tasks = ["t0", "t1", "t2", "t3"]
table = {}
for name, (d, k) in {"q": (64, 64), "k": (16, 64), "v": (176, 64), "o": (64, 176)}.items():
    a_common = rng.standard_normal((4, k))
    for task in tasks:
        table[(task, SlotKey(0, name))] = LowRankAdapter(
            b=rng.standard_normal((d, 4)), a=a_common + 0.05 * rng.standard_normal((4, k))
        )
write_archive(AdapterCollection.build(tasks, table), sys.argv[2])
"""

# Malformed copies of default.lrta (4 slots, tasks t0..t4): a NaN in the last
# slot, a stray tensor of an undeclared task, and the payload cut short.
MAKE_MALFORMED = """
import json
import numpy as np
from hydramerge.archive import write_raw_archive
raw = open("default.lrta", "rb").read()
n = int.from_bytes(raw[:8], "little")
manifest = json.loads(raw[8 : 8 + n])
at = 8 + n + manifest["tensors"]["task.t0.layer.1.v.B"]["offset"]
open("nan-last-slot.lrta", "wb").write(raw[:at] + np.float32("nan").tobytes() + raw[at + 4 :])
open("truncated.lrta", "wb").write(raw[:-4])
tensors = {
    name: np.frombuffer(raw, "<f4", e["nbytes"] // 4, 8 + n + e["offset"]).reshape(e["shape"])
    for name, e in manifest["tensors"].items()
}
tensors["task.t9.layer.0.q.A"] = tensors["task.t0.layer.0.q.A"]
write_raw_archive("stray.lrta", tensors, manifest["meta"])
"""


def merge(coll: str, out: str, *flags: str) -> list[list[str]]:
    """A merge, then both reports of the bundle it writes."""
    return [
        ["merge", "--in", coll, "--out", out, *flags],
        ["eval-recon", "--in", coll, "--merged", out],
        ["report-storage", "--in", coll, "--merged", out],
    ]


def matrix() -> list[list[str]]:
    """Every command, in order; a list that starts with ``-c`` runs Python."""
    commands = [
        ["gen-synthetic", "--out", "default.lrta"],
        ["gen-synthetic", "--out", "every.lrta", "--tasks", "3", "--layers", "1",
         "--slots", "q,,k,v", "--d", "9", "--k", "7", "--rank", "3", "--a-noise", "0.2",
         "--b-scale", "1.5", "--seed", "5"],
        ["gen-synthetic", "--out", "lora.lrta", "--tasks", "4", "--layers", "1", "--d", "12",
         "--k", "10", "--rank", "3", "--seed", "1"],
        ["-c", MAKE_VERA, "--out", "vera.lrta"],
        ["-c", MAKE_MIXED, "--out", "mixed.lrta"],
        ["analyze-similarity", "--in", "default.lrta"],
        ["analyze-similarity", "--in", "vera.lrta"],
        ["analyze-similarity", "--in", "mixed.lrta"],
    ]  # fmt: skip
    base_flags = {
        "ta": [["--scale", "0.5"]],
        "ties": [["--ties-density", "0.5"]],
        "dare": [["--dare-p", "0.5"], ["--scale", "2"]],
        "dare-ties": [["--dare-p", "0.5", "--ties-density", "0.3"]],
    }
    for coll, method in product(("default", "vera"), BASELINES):
        variants = [[], ["--a-only"], ["--seed", "7"], ["--jobs", "2"], *base_flags[method]]
        for i, flags in enumerate(variants):
            out = f"{coll}-{method}-{i}.lrta"
            commands += merge(f"{coll}.lrta", out, "--method", method, *flags)
    commands += merge("default.lrta", "hydra-default.lrta", "--method", "hydraopt")
    commands += merge(
        "lora.lrta", "hydra-every.lrta", "--method", "hydraopt", "--m", "2", "--temp", "0.3",
        "--epochs", "30", "--lr", "0.02", "--distance", "mse", "--init", "mean", "--seed", "4",
        "--jobs", "2", "--globalize-assignment",
    )
    for coll, distance, init, m, glob in product(
        ("lora", "vera"), DISTANCES, ("mean", "random"), ("1", "3", None), (False, True)
    ):
        flags = ["--method", "hydraopt", "--epochs", "40", "--distance", distance, "--init", init]
        flags += ["--m", m] * (m is not None) + ["--globalize-assignment"] * glob
        out = f"{coll}-{distance}-{init}-{m}-{int(glob)}.lrta"
        commands += merge(f"{coll}.lrta", out, *flags)
    hydra_m2 = ["--method", "hydraopt", "--m", "2", "--distance"]
    for i, flags in enumerate(
        [["--method", "ta"], ["--method", "ties"], ["--method", "dare-ties"],
         ["--method", "ta", "--a-only"], [*hydra_m2, "mae"], [*hydra_m2, "mse"],
         [*hydra_m2, "cos", "--globalize-assignment"]]
    ):  # fmt: skip
        commands += merge("mixed.lrta", f"mixed-{i}.lrta", *flags)
    commands += [
        ["merge", "--in", "lora.lrta", "--out", "bad.lrta", "--method", "hydraopt", "--temp",
         "inf"],
        ["merge", "--in", "lora.lrta", "--out", "bad.lrta", "--method", "ta", "--scale", "nan"],
        ["grad-check", "--seed", "0"],
        ["grad-check", "--seed", "1", "--instances", "20"],
    ]  # fmt: skip
    commands += malformed()
    commands += logged()
    return commands


def logged() -> list[list[str]]:
    """Commands that log to stderr: each one that writes an archive, a
    report, and a failed merge."""
    info = "HYDRA_MERGE_LOG=info"
    return [
        [info, "gen-synthetic", "--out", "logged.lrta", "--tasks", "3", "--d", "8", "--k", "8"],
        [info, "merge", "--in", "logged.lrta", "--out", "logged-ta.lrta", "--method", "ta"],
        [info, "merge", "--in", "logged.lrta", "--out", "logged-hydra.lrta", "--method",
         "hydraopt", "--epochs", "5"],
        [info, "eval-recon", "--in", "logged.lrta", "--merged", "logged-hydra.lrta"],
        ["HYDRA_MERGE_LOG=debug", "report-storage", "--in", "logged.lrta", "--merged",
         "logged-ta.lrta"],
        [info, "merge", "--in", "logged.lrta", "--out", "bad.lrta", "--method", "ta", "--scale",
         "nan"],
    ]  # fmt: skip


def malformed() -> list[list[str]]:
    """Inputs the reader must refuse, each as before; run after ``matrix``'s
    own commands, whose archives they use."""
    commands = [
        ["-c", MAKE_MALFORMED],
        ["-c", MAKE_VERA, "--out", "vera-other.lrta", "4"],
        ["merge", "--in", "vera-other.lrta", "--out", "vera-other-ta.lrta", "--method", "ta"],
    ]
    for bad in ("nan-last-slot", "stray", "truncated"):
        commands += [
            ["merge", "--in", f"{bad}.lrta", "--out", "bad.lrta", "--method", "ta"],
            ["merge", "--in", f"{bad}.lrta", "--out", "bad.lrta", "--method", "hydraopt"],
            ["eval-recon", "--in", f"{bad}.lrta", "--merged", "default-ta-0.lrta"],
            ["report-storage", "--in", f"{bad}.lrta", "--merged", "default-ta-0.lrta"],
            ["analyze-similarity", "--in", f"{bad}.lrta"],
        ]
    for coll, foreign in (("vera", "vera-other-ta"), ("default", "hydra-every")):
        for command in ("eval-recon", "report-storage"):
            commands.append([command, "--in", f"{coll}.lrta", "--merged", f"{foreign}.lrta"])
    return commands


def run(src: Path, work: Path, command: list[str]) -> tuple[int, str, str, bytes | None]:
    """Exit code, stdout, stderr and the bytes of the ``--out`` file of one
    command; a command that fails must leave no ``--out`` file."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    env.pop("HYDRA_MERGE_LOG", None)
    args = list(command)
    while "=" in args[0]:  # NAME=VALUE words before the command set its environment
        name, value = args.pop(0).split("=", 1)
        env[name] = value
    head = [sys.executable] if args[0] == "-c" else [sys.executable, "-m", "hydramerge"]
    done = subprocess.run(
        [*head, *args], cwd=work, env=env, capture_output=True, text=True, timeout=600
    )
    written = work / command[command.index("--out") + 1] if "--out" in command else None
    archive = written.read_bytes() if written and written.is_file() else None
    if written and done.returncode != 0 and archive is not None:
        written.unlink()  # a failed command's output, if any, would be stale for the next
    return done.returncode, done.stdout, done.stderr, archive


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/same_outputs.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = (Path(p).resolve() for p in argv)
    commands = matrix()
    names = {
        MAKE_VERA: "<make-vera>",
        MAKE_MIXED: "<make-mixed>",
        MAKE_MALFORMED: "<make-malformed>",
    }
    differing = 0
    with tempfile.TemporaryDirectory() as old_work, tempfile.TemporaryDirectory() as new_work:
        for n, command in enumerate(commands, 1):
            old = run(old_src, Path(old_work), command)
            new = run(new_src, Path(new_work), command)
            whats = ("exit code", "stdout", "stderr", "written archive")
            differs = [what for what, a, b in zip(whats, old, new) if a != b]
            if differs:
                differing += 1
                shown = " ".join(names.get(c, c) for c in command)
                print(f"command {n} differs in {', '.join(differs)}: {shown}", file=sys.stderr)
    if differing:
        print(f"{differing} of {len(commands)} commands differ", file=sys.stderr)
        return 1
    print(f"all {len(commands)} commands agree")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
