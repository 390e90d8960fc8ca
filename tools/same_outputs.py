"""Check that two source trees give the same CLI outputs.

    python tools/same_outputs.py OLD_SRC NEW_SRC

Runs a fixed matrix of ``hydramerge`` commands once against each source
tree (the directory that holds the ``hydramerge`` package), each tree in
its own temporary directory, with ``OPENBLAS_NUM_THREADS=1`` so that BLAS
sums in one fixed order.  Every command runs from that directory with
relative paths, so the two runs print the same paths.  Exits 1 and names
the first command whose exit code, stdout or written archive differs, and
0 when every command agrees.  Takes under two minutes per tree on two cores.
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
MAKE_VERA = """
import sys
import numpy as np
from hydramerge import AdapterCollection, SlotKey, VeraAdapter, write_archive
rng = np.random.default_rng(3)
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
        ["analyze-similarity", "--in", "default.lrta"],
        ["analyze-similarity", "--in", "vera.lrta"],
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
    commands += [
        ["merge", "--in", "lora.lrta", "--out", "bad.lrta", "--method", "hydraopt", "--temp",
         "inf"],
        ["merge", "--in", "lora.lrta", "--out", "bad.lrta", "--method", "ta", "--scale", "nan"],
        ["grad-check", "--seed", "0"],
        ["grad-check", "--seed", "1", "--instances", "20"],
    ]  # fmt: skip
    return commands


def run(src: Path, work: Path, command: list[str]) -> tuple[int, str, bytes | None]:
    """Exit code, stdout and the bytes of the ``--out`` file of one command."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    env.pop("HYDRA_MERGE_LOG", None)
    head = [sys.executable] if command[0] == "-c" else [sys.executable, "-m", "hydramerge"]
    done = subprocess.run(
        [*head, *command], cwd=work, env=env, capture_output=True, text=True, timeout=600
    )
    written = work / command[command.index("--out") + 1] if "--out" in command else None
    archive = written.read_bytes() if written and written.is_file() else None
    return done.returncode, done.stdout, archive


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/same_outputs.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = (Path(p).resolve() for p in argv)
    commands = matrix()
    with tempfile.TemporaryDirectory() as old_work, tempfile.TemporaryDirectory() as new_work:
        for n, command in enumerate(commands, 1):
            old = run(old_src, Path(old_work), command)
            new = run(new_src, Path(new_work), command)
            for what, a, b in zip(("exit code", "stdout", "written archive"), old, new):
                if a != b:
                    shown = " ".join("<make-vera>" if c == MAKE_VERA else c for c in command)
                    print(f"{what} differs at command {n}: {shown}", file=sys.stderr)
                    return 1
    print(f"all {len(commands)} commands agree")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
