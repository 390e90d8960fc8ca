"""Work the benchmark runs inside a process of its own, with the program on
``PYTHONPATH``.

    child.py [--spans FILE --parent ID --trace-id N] cli -- <hydramerge args>
    child.py [--spans FILE --parent ID --trace-id N] make-vera --out PATH ...
    child.py probe --archive PATH --m M --distance KIND ...

``cli`` runs one command through ``hydramerge.cli.main``.  ``make-vera``
builds a VeRA collection through the public ``VeraAdapter`` and
``write_archive`` (``gen-synthetic`` makes only LoRA).  With ``--spans``,
the public functions of each layer are wrapped from outside the program
before the work starts, and the spans (name, start, end, parent, CPU time)
are kept in memory and written to FILE when the work ends.  ``probe`` times
single calls into ``linalg`` and ``hydra`` on the first slot of an archive
and prints one JSON object.  Every duration is this process's CPU time
(``time.process_time_ns``), the clock of the benchmark's end-to-end times.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import statistics
import sys
import time
import tracemalloc

import numpy as np

import hydramerge

# Public functions timed per layer; a name missing from a module is skipped.
TRACED = {
    "cli": ["main"],
    "synthetic": ["generate"],
    "archive": ["read_archive", "write_archive"],
    "linalg": ["exact_mean", "distance", "distance_grad"],
    "baselines": ["merge_collection", "ties_trim", "dare_transform"],
    "hydra": [
        "merge_collection_hydra",
        "init_state",
        "init_vera_state",
        "train",
        "train_vera",
        "adamw_step",
    ],
    "analysis": ["reconstruction_report", "pairwise_similarity"],
}

PROBE_REPS = 3  # calls of each kind the probe times; it reports the median


def _attrs(name: str, args) -> dict:
    if name == "archive.read_archive":
        return {"bytes": os.path.getsize(args[0])}
    if name == "archive.write_archive":
        return {"path": str(args[1])}
    if name == "baselines.merge_collection":
        return {"method": args[1].method.value}
    return {}


class Tracer:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self, parent: str, trace_id: int):
        self.parent = parent
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self.stack: list[str] = []

    def span(self, name: str, fn, attrs_of=_attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = {
                "id": f"{self.parent}/{len(self.spans)}",
                "name": name,
                "parent": self.stack[-1] if self.stack else self.parent,
                "trace": self.trace_id,
                "attrs": attrs_of(name, args),
            }
            self.spans.append(record)
            self.stack.append(record["id"])
            record["start_ns"] = time.monotonic_ns()
            cpu_start = time.process_time_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                record["cpu_ns"] = time.process_time_ns() - cpu_start
                record["end_ns"] = time.monotonic_ns()
                self.stack.pop()
                if name == "archive.write_archive":
                    record["attrs"] = {"bytes": os.path.getsize(record["attrs"]["path"])}

        return wrapper

    def install(self) -> None:
        """Replace every reference to a traced function in every loaded
        ``hydramerge`` module, so calls between modules are seen too."""
        layers = {layer: importlib.import_module(f"hydramerge.{layer}") for layer in TRACED}
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "hydramerge"]
        for layer, names in TRACED.items():
            module = layers[layer]
            for fname in names:
                original = getattr(module, fname, None)
                if original is None:
                    continue
                wrapped = self.span(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def make_vera(args) -> int:
    """Frozen shared pair per slot; inner vectors near one common vector,
    task-specific outer vectors, all drawn from ``--seed``.  The common
    inner vector sits near 1 rather than being drawn whole: its norm would
    otherwise set the scale of every update, and with it ``recon_mae``,
    differently on every seed."""
    from hydramerge import AdapterCollection, SlotKey, VeraAdapter, write_archive

    rng = np.random.default_rng(args.seed)
    tasks = [f"t{i}" for i in range(args.tasks)]
    table = {}
    for layer in range(args.layers):
        for name in args.slots.split(","):
            slot = SlotKey(layer, name)
            shared_b = rng.standard_normal((args.d, args.rank))
            shared_a = rng.standard_normal((args.rank, args.k)) / np.sqrt(args.rank)
            lambda_d = 1.0 + 0.1 * rng.standard_normal(args.rank)
            for task in tasks:
                table[(task, slot)] = VeraAdapter(
                    lambda_b=rng.standard_normal(args.d),
                    lambda_d=lambda_d + 0.05 * rng.standard_normal(args.rank),
                    shared_b=shared_b,
                    shared_a=shared_a,
                )
    write_archive(AdapterCollection.build(tasks, table), args.out)
    print(json.dumps({"command": "make-vera", "archive": args.out}))
    return 0


def _timed_ms(fn, *args) -> tuple[float, object]:
    start = time.process_time()
    out = fn(*args)
    return 1e3 * (time.process_time() - start), out


def probe(args) -> int:
    """Per-call times of ``distance``, ``distance_grad``, one gradient
    evaluation and one AdamW step, plus the traced allocation peak of one
    step, on the first slot of the archive."""
    from hydramerge import hydra
    from hydramerge.adapters import delta_weight
    from hydramerge.linalg import DistanceKind, Rng, distance, distance_grad, stable_hash64

    coll = hydramerge.read_archive(args.archive)
    slot = coll.slots[0]
    targets = coll.adapters_at(slot)
    mats = [delta_weight(t) for t in targets]
    kind = DistanceKind(args.distance)
    dist_ms = [_timed_ms(distance, mats[0], mats[1], kind)[0] for _ in range(PROBE_REPS)]
    grad_ms_d = [_timed_ms(distance_grad, mats[0], mats[1], kind)[0] for _ in range(PROBE_REPS)]

    cfg = hydra.HydraConfig(
        num_clusters=args.m,
        temperature=args.temp,
        learning_rate=args.lr,
        distance=kind,
        seed=args.seed,
        init_scheme=hydra.InitScheme.RANDOM,
    )
    rng = Rng(args.seed ^ stable_hash64(slot.label()))
    if coll.kind == "lora":
        state = hydra.init_state(targets, cfg, rng)
        gradients = hydra.gradients
    else:
        state = hydra.init_vera_state(targets, cfg, rng)
        gradients = getattr(hydra, "vera_gradients", hydra.gradients)
    grad_ms, adamw_ms = [], []
    for _ in range(PROBE_REPS):
        g_ms, grads = _timed_ms(gradients, state, mats, cfg)
        a_ms, _ = _timed_ms(hydra.adamw_step, state, grads, cfg)
        grad_ms.append(g_ms)
        adamw_ms.append(a_ms)
    tracemalloc.start()
    try:
        hydra.adamw_step(state, gradients(state, mats, cfg), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    print(
        json.dumps(
            {
                "distance_ms": statistics.median(dist_ms),
                "distance_grad_ms": statistics.median(grad_ms_d),
                "grad_ms": statistics.median(grad_ms),
                "adamw_ms": statistics.median(adamw_ms),
                "step_ms": statistics.median(g + a for g, a in zip(grad_ms, adamw_ms)),
                "step_alloc_mb": peak / 2**20,
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("--spans", default=None, help="write spans here")
    parser.add_argument("--parent", default="root", help="id of the enclosing span")
    parser.add_argument("--trace-id", type=int, default=0)
    sub = parser.add_subparsers(dest="what", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("cli_args", nargs=argparse.REMAINDER)
    vera = sub.add_parser("make-vera")
    vera.add_argument("--out", required=True)
    vera.add_argument("--seed", type=int, required=True)
    for name in ("tasks", "layers", "d", "k", "rank"):
        vera.add_argument(f"--{name}", type=int, required=True)
    vera.add_argument("--slots", required=True)
    prb = sub.add_parser("probe")
    prb.add_argument("--archive", required=True)
    prb.add_argument("--m", type=int, required=True)
    prb.add_argument("--distance", required=True)
    prb.add_argument("--lr", type=float, required=True)
    prb.add_argument("--temp", type=float, required=True)
    prb.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    if args.what == "probe":
        return probe(args)
    tracer = None
    if args.spans:
        tracer = Tracer(args.parent, args.trace_id)
        tracer.install()
    try:
        if args.what == "make-vera":
            work = make_vera
            if tracer:
                work = tracer.span("bench.make_vera", make_vera, lambda *_: {})
            return work(args)
        cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
        return sys.modules["hydramerge.cli"].main(cli_args)
    finally:
        if tracer:
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
