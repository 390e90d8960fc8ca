"""Batch command-line front end.

Every invocation runs one subcommand, prints exactly one JSON document to
stdout, and sends diagnostics to stderr (level set by the
``HYDRA_MERGE_LOG`` environment variable: error, info or debug).  All
randomness flows from ``--seed``, so repeating a command with identical
flags reproduces its outputs byte for byte.

``report-storage`` and ``eval-recon`` refuse a bundle that was not merged
from the collection given with ``--in``: other tasks or slots, or a slot
whose adapter kind, ``(d, r, k)`` or VeRA frozen pair differs (see
:meth:`~hydramerge.adapters.MergedBundle.check_pairs`).

Exit codes: 0 success, 1 failed gradient check, 2 usage error,
3 validation or file-format error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .adapters import AdapterCollection, MergedBundle, storage_ratio_percent
from .archive import read_archive, write_archive
from .baselines import BaselineConfig, MergeMethod, MergeTarget, merge_collection
from .errors import HydraMergeError
from .linalg import DistanceKind

# The parser takes --method's choices from MergeMethod and every command
# but grad-check reads or writes an archive, so the modules above load for
# each command.  Each handler imports the rest itself, so that a command
# loads only what it runs.

log = logging.getLogger("hydramerge")

_BASELINES = [m.value for m in MergeMethod]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hydramerge",
        description="Merge low-rank adapter collections and report on the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-synthetic", help="write a synthetic adapter collection")
    gen.set_defaults(run=_cmd_gen_synthetic)
    gen.add_argument("--out", required=True, help="output archive path")
    gen.add_argument("--tasks", type=int, default=5)
    gen.add_argument("--layers", type=int, default=2)
    gen.add_argument("--slots", default="q,v", help="comma-separated slot names")
    gen.add_argument("--d", type=int, default=16)
    gen.add_argument("--k", type=int, default=16)
    gen.add_argument("--rank", type=int, default=4)
    gen.add_argument("--a-noise", type=float, default=0.05)
    gen.add_argument("--b-scale", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)

    merge = sub.add_parser("merge", help="merge a collection into a bundle archive")
    merge.set_defaults(run=lambda args: _cmd_merge(args, parser))
    merge.add_argument("--in", dest="archive_in", required=True)
    merge.add_argument("--out", dest="archive_out", required=True)
    merge.add_argument(
        "--method", required=True, choices=_BASELINES + ["hydraopt"]
    )
    merge.add_argument("--ties-density", type=float, default=0.2)
    merge.add_argument("--dare-p", type=float, default=0.9)
    merge.add_argument("--scale", type=float, default=1.0)
    merge.add_argument(
        "--a-only", action="store_true", help="merge only input-side factors (baselines)"
    )
    merge.add_argument("--m", type=int, default=None, help="cluster count (hydraopt)")
    merge.add_argument("--temp", type=float, default=0.1)
    merge.add_argument("--epochs", type=int, default=1000)
    merge.add_argument("--lr", type=float, default=1e-2)
    merge.add_argument(
        "--distance",
        choices=[k.value for k in DistanceKind],
        default="mae",
        help="hydraopt objective; cos is undefined for a zero update, so a task whose "
        "adapter is zero (LoRA B = 0, VeRA lambda_b = 0) exits 3, naming the slot and task",
    )
    merge.add_argument("--init", choices=["mean", "random"], default="random")
    merge.add_argument("--seed", type=int, default=0)
    merge.add_argument(
        "--jobs", type=int, default=1, help="ignored; slots train one after another"
    )
    merge.add_argument(
        "--globalize-assignment",
        action="store_true",
        help="replace per-slot assignments by each task's majority cluster",
    )

    storage = sub.add_parser("report-storage", help="storage accounting for a merge")
    storage.set_defaults(run=_cmd_report_storage)
    storage.add_argument("--in", dest="archive_in", required=True)
    storage.add_argument("--merged", required=True)
    storage.add_argument("--out", default=None, help="also write the JSON here")

    similarity = sub.add_parser("analyze-similarity", help="pairwise factor similarity")
    similarity.set_defaults(run=_cmd_analyze_similarity)
    similarity.add_argument("--in", dest="archive_in", required=True)
    similarity.add_argument("--out", default=None)

    recon = sub.add_parser("eval-recon", help="reconstruction error of a bundle")
    recon.set_defaults(run=_cmd_eval_recon)
    recon.add_argument("--in", dest="archive_in", required=True)
    recon.add_argument("--merged", required=True)
    recon.add_argument("--out", default=None)

    grad = sub.add_parser("grad-check", help="finite-difference gradient check")
    grad.set_defaults(run=_cmd_grad_check)
    grad.add_argument("--seed", type=int, default=0)
    grad.add_argument("--instances", type=int, default=20)
    grad.add_argument("--tolerance", type=float, default=1e-5)
    grad.add_argument("--out", default=None)
    return parser


def _emit(doc: dict, out_path: str | None = None) -> None:
    """Write ``--out`` first, so a failed write prints no document."""
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


_ARCHIVED = {AdapterCollection: "collection", MergedBundle: "merged bundle"}


def _load(path, expected: type):
    """Read an archive that must hold an ``expected`` object."""
    loaded = read_archive(path)
    if not isinstance(loaded, expected):
        raise HydraMergeError(
            f"{path} holds a {_ARCHIVED[type(loaded)]}, expected a {_ARCHIVED[expected]}"
        )
    return loaded


def _storage(collection: AdapterCollection, bundle: MergedBundle) -> dict:
    original, merged = collection.param_count(), bundle.param_count
    return {
        "original_params": original,
        "merged_params": merged,
        "ratio_percent": storage_ratio_percent(original, merged),
    }


def _cmd_gen_synthetic(args) -> int:
    from .synthetic import SynthSpec, generate

    spec = SynthSpec(
        tasks=args.tasks,
        layers=args.layers,
        slot_names=tuple(s for s in args.slots.split(",") if s),
        d=args.d,
        k=args.k,
        rank=args.rank,
        a_noise=args.a_noise,
        b_scale=args.b_scale,
        seed=args.seed,
    )
    collection = generate(spec)
    write_archive(collection, args.out)
    log.info("wrote %s", args.out)
    _emit(
        {
            "command": "gen-synthetic",
            "archive": args.out,
            "tasks": collection.task_ids,
            "slots": [s.label() for s in collection.slots],
            "params": collection.param_count(),
            "seed": args.seed,
        }
    )
    return 0


def _cmd_merge(args, parser: argparse.ArgumentParser) -> int:
    if args.method == "hydraopt" and args.a_only:
        parser.error("--a-only does not apply to hydraopt")
    if args.method != "hydraopt" and args.m is not None:
        parser.error("--m only applies to hydraopt")
    collection = _load(args.archive_in, AdapterCollection)
    doc: dict = {
        "command": "merge",
        "method": args.method,
        "archive_in": args.archive_in,
        "archive_out": args.archive_out,
        "seed": args.seed,
        "initial_loss": None,
        "final_loss": None,
        "per_slot_loss": None,
        "assignment": None,
    }
    if args.method == "hydraopt":
        from .hydra import HydraConfig, InitScheme, globalize_assignment, merge_collection_hydra

        cfg = HydraConfig(
            num_clusters=args.m if args.m is not None else collection.num_tasks,
            temperature=args.temp,
            epochs=args.epochs,
            learning_rate=args.lr,
            distance=DistanceKind(args.distance),
            seed=args.seed,
            init_scheme=InitScheme.MEAN_A_COPY_B if args.init == "mean" else InitScheme.RANDOM,
        )
        bundle, report = merge_collection_hydra(collection, cfg)
        if args.globalize_assignment:
            globalize_assignment(bundle)
        doc["initial_loss"] = report["initial_loss"]
        doc["final_loss"] = report["final_loss"]
        doc["per_slot_loss"] = report["per_slot"]
        doc["assignment"] = bundle.assignment_map()
    else:
        cfg = BaselineConfig(
            method=MergeMethod(args.method),
            ties_density=args.ties_density,
            dare_drop_p=args.dare_p,
            seed=args.seed,
            merge_target=MergeTarget.A_ONLY if args.a_only else MergeTarget.PER_MATRIX,
            scale=args.scale,
        )
        bundle = merge_collection(collection, cfg)
    write_archive(bundle, args.archive_out)
    log.info("wrote %s", args.archive_out)
    doc.update(_storage(collection, bundle))
    doc["storage_ratio_percent"] = doc.pop("ratio_percent")
    _emit(doc)
    return 0


def _cmd_report_storage(args) -> int:
    collection = _load(args.archive_in, AdapterCollection)
    bundle = _load(args.merged, MergedBundle)
    bundle.check_pairs(collection)
    _emit({"command": "report-storage", "storage": _storage(collection, bundle)}, args.out)
    return 0


def _cmd_analyze_similarity(args) -> int:
    from .analysis import pairwise_similarity

    collection = _load(args.archive_in, AdapterCollection)
    doc = {"command": "analyze-similarity"}
    doc.update(pairwise_similarity(collection).to_dict())
    _emit(doc, args.out)
    return 0


def _cmd_eval_recon(args) -> int:
    from .analysis import reconstruction_report

    collection = _load(args.archive_in, AdapterCollection)
    bundle = _load(args.merged, MergedBundle)
    doc = {"command": "eval-recon", "method": bundle.method}
    doc.update(reconstruction_report(collection, bundle).to_dict())
    _emit(doc, args.out)
    return 0


def _cmd_grad_check(args) -> int:
    from .gradcheck import run_suite

    report = run_suite(seed=args.seed, instances=args.instances, tolerance=args.tolerance)
    _emit({"command": "grad-check", "grad_check": report.to_dict()}, args.out)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    level = os.environ.get("HYDRA_MERGE_LOG", "error").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (HydraMergeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
