"""Batch command-line front end.

Every invocation runs one subcommand, prints exactly one JSON document to
stdout, and sends diagnostics to stderr (level set by the
``HYDRA_MERGE_LOG`` environment variable: error, info or debug; the
``logging`` module is loaded only when it is set).  All
randomness flows from ``--seed``, so repeating a command with identical
flags reproduces its outputs byte for byte.

Every default belongs to its config type: :class:`~hydramerge.synthetic.SynthSpec`,
:class:`~hydramerge.baselines.BaselineConfig`, :class:`~hydramerge.hydra.HydraConfig`
or the keywords of :func:`~hydramerge.gradcheck.run_suite`.  Each option of
``gen-synthetic``, ``merge`` and ``grad-check`` is stored under the name of
the field it sets, only when given, and the handler passes the options given
to the config type by name; an absent ``--m`` means one cluster per task.
Each config checks its own fields when it is built, so a value out of range
exits 3 naming the field.  A ``merge`` option that the chosen method does
not read (see ``_READ_BY``) is a usage error naming the methods that read
it.

Every command holds one slot of its archives at a time.  It checks each
archive it reads whole, keeping no value, then reads a slot's tensors
when it reaches that slot (:func:`~hydramerge.archive.open_archive`),
and ``eval-recon`` one task of the slot at a time;
``report-storage`` counts parameters from the manifest shapes.
``gen-synthetic`` and ``merge`` write ``--out`` slot by slot through an
:class:`~hydramerge.archive.ArchiveWriter`, which replaces ``--out`` only
once the archive is whole.

``report-storage`` and ``eval-recon`` refuse a bundle that was not merged
from the collection given with ``--in``: other tasks or slots, or a slot
whose adapter kind, ``(d, r, k)`` or VeRA frozen pair differs (see
:meth:`~hydramerge.adapters.MergedBundle.check_pairs`).

Exit codes: 0 success, 1 failed gradient check, 2 usage error,
3 validation or file-format error, 141 (128 + SIGPIPE) when stdout is a
pipe whose reader has gone, as after ``| head -1`` on a long document:
then no ``error:`` line is printed, and any ``--out`` was already
written whole.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from inspect import signature

from .adapters import AdapterCollection, MergedBundle, storage_ratio_percent
from .archive import ArchiveWriter, open_archive
from .baselines import BaselineConfig, MergeMethod, MergeTarget, merge_collection
from .errors import HydraMergeError
from .linalg import DistanceKind

# The parser takes --method's choices from MergeMethod and every command
# but grad-check reads or writes an archive, so the modules above load for
# each command.  Each handler imports the rest itself, so that a command
# loads only what it runs.

_BASELINES = [m.value for m in MergeMethod]
CLOSED_STDOUT = 141  # the exit code of a command whose stdout lost its reader
# The methods that read each merge option, by the field it sets; every method
# reads --in, --out, --method, --seed and --jobs.  Any other option given to a
# method is a usage error.
_READ_BY = {
    "ties_density": ["ties", "dare-ties"],
    "dare_drop_p": ["dare", "dare-ties"],
    "scale": ["ta", "dare"],
    "merge_target": _BASELINES,
    **dict.fromkeys(
        ["num_clusters", "temperature", "epochs", "learning_rate", "distance", "init_scheme",
         "globalize_assignment"],
        ["hydraopt"],
    ),
}  # fmt: skip


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hydramerge",
        description="Merge low-rank adapter collections and report on the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # options of these three commands are stored only when given (see _given)
    quiet = {"argument_default": argparse.SUPPRESS}

    gen = sub.add_parser("gen-synthetic", help="write a synthetic adapter collection", **quiet)
    gen.set_defaults(run=_cmd_gen_synthetic)
    gen.add_argument("--out", required=True, help="output archive path")
    gen.add_argument("--tasks", type=int)
    gen.add_argument("--layers", type=int)
    gen.add_argument("--slots", dest="slot_names", help="comma-separated slot names",
                     type=lambda text: tuple(name for name in text.split(",") if name))  # fmt: skip
    gen.add_argument("--d", type=int)
    gen.add_argument("--k", type=int)
    gen.add_argument("--rank", type=int)
    gen.add_argument("--a-noise", dest="a_noise", type=float)
    gen.add_argument("--b-scale", dest="b_scale", type=float)
    gen.add_argument("--seed", type=int)

    merge = sub.add_parser("merge", help="merge a collection into a bundle archive", **quiet)
    merge.set_defaults(run=lambda args: _cmd_merge(args, merge))
    merge.add_argument("--in", dest="archive_in", required=True)
    merge.add_argument("--out", dest="archive_out", required=True)
    merge.add_argument("--method", required=True, choices=_BASELINES + ["hydraopt"])
    merge.add_argument("--ties-density", dest="ties_density", type=float)
    merge.add_argument("--dare-p", dest="dare_drop_p", type=float)
    merge.add_argument("--scale", type=float)
    merge.add_argument(
        "--a-only", dest="merge_target", action="store_const", const=MergeTarget.A_ONLY,
        help="merge only input-side factors",
    )  # fmt: skip
    merge.add_argument("--m", dest="num_clusters", type=int, help="cluster count (default K)")
    merge.add_argument("--temp", dest="temperature", type=float)
    merge.add_argument("--epochs", type=int)
    merge.add_argument("--lr", dest="learning_rate", type=float)
    merge.add_argument(
        "--distance",
        choices=[k.value for k in DistanceKind],
        help="objective; cos is undefined for a zero update, so a task whose adapter "
        "is zero (LoRA B = 0, VeRA lambda_b = 0) exits 3, naming the slot and task",
    )
    # the values of hydra.InitScheme, which the parser does not import
    merge.add_argument("--init", dest="init_scheme", choices=["mean", "random"])
    merge.add_argument("--seed", type=int)
    merge.add_argument("--jobs", type=int, help="ignored; slots train one after another")
    merge.add_argument(
        "--globalize-assignment",
        action="store_true",
        help="replace per-slot assignments by each task's majority cluster",
    )
    for action in merge._actions:
        if action.dest in _READ_BY:
            read_by = "read by " + ", ".join(_READ_BY[action.dest])
            action.help = f"{action.help}; {read_by}" if action.help else read_by

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

    grad = sub.add_parser("grad-check", help="finite-difference gradient check", **quiet)
    grad.set_defaults(run=_cmd_grad_check)
    grad.add_argument("--seed", type=int)
    grad.add_argument("--instances", type=int)
    grad.add_argument("--tolerance", type=float)
    grad.add_argument("--out", default=None)
    return parser


def _given(args: argparse.Namespace, target) -> dict:
    """The options given on the command line that name a parameter of
    ``target``, a config type or a function, by that name."""
    return {name: getattr(args, name) for name in signature(target).parameters if name in args}


def _log_wrote(path) -> None:
    """``INFO hydramerge: wrote <path>``, if ``HYDRA_MERGE_LOG`` is set (see :func:`main`)."""
    if os.environ.get("HYDRA_MERGE_LOG"):
        import logging

        logging.getLogger("hydramerge").info("wrote %s", path)


def _emit(doc: dict, out_path: str | None = None) -> None:
    """Write ``--out`` first, so a failed write prints no document.  The
    document is flushed here, so a stdout with no reader raises
    :class:`BrokenPipeError` inside :func:`main`."""
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text, flush=True)


_ARCHIVED = {AdapterCollection: "collection", MergedBundle: "merged bundle"}


def _load(path, expected: type, into: ArchiveWriter | None = None):
    """Check an archive that must hold an ``expected`` object, and return it
    to be read slot by slot (see :func:`~hydramerge.archive.open_archive`,
    which also says what ``into`` does)."""
    loaded = open_archive(path, into)
    if not isinstance(loaded, expected):
        held = next(name for cls, name in _ARCHIVED.items() if isinstance(loaded, cls))
        raise HydraMergeError(f"{path} holds a {held}, expected a {_ARCHIVED[expected]}")
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

    spec = SynthSpec(**_given(args, SynthSpec))
    with ArchiveWriter(args.out) as writer:
        collection = writer.write(generate(spec))
    _log_wrote(args.out)
    _emit(
        {
            "command": "gen-synthetic",
            "archive": args.out,
            "tasks": collection.task_ids,
            "slots": [s.label() for s in collection.slots],
            "params": collection.param_count(),
            "seed": spec.seed,
        }
    )
    return 0


def _cmd_merge(args, merge: argparse.ArgumentParser) -> int:
    for action in merge._actions:
        methods = _READ_BY.get(action.dest)
        if methods and action.dest in args and args.method not in methods:
            flag = action.option_strings[0]
            merge.error(f"{flag} is read only by {', '.join(methods)}, not {args.method}")
    doc: dict = {
        "command": "merge",
        "method": args.method,
        "archive_in": args.archive_in,
        "archive_out": args.archive_out,
        "initial_loss": None,
        "final_loss": None,
        "per_slot_loss": None,
        "assignment": None,
    }
    with ArchiveWriter(args.archive_out) as writer:
        # a bundle merged over this collection is written slot by slot, as it is put
        collection = _load(args.archive_in, AdapterCollection, writer)
        if args.method == "hydraopt":
            from .hydra import HydraConfig, globalize_assignment, merge_collection_hydra

            # an absent --m means one cluster per task
            cfg = HydraConfig(**{"num_clusters": collection.num_tasks, **_given(args, HydraConfig)})
            bundle, report = merge_collection_hydra(collection, cfg)
            if "globalize_assignment" in args:
                globalize_assignment(bundle)
            doc["initial_loss"] = report["initial_loss"]
            doc["final_loss"] = report["final_loss"]
            doc["per_slot_loss"] = report["per_slot"]
            doc["assignment"] = bundle.assignment_map()
        else:
            cfg = BaselineConfig(**_given(args, BaselineConfig))
            bundle = merge_collection(collection, cfg)
        writer.finish(bundle)
    _log_wrote(args.archive_out)
    doc["seed"] = cfg.seed
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

    report = run_suite(**_given(args, run_suite))
    _emit({"command": "grad-check", "grad_check": report.to_dict()}, args.out)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    level = os.environ.get("HYDRA_MERGE_LOG")
    if level:  # unset, nothing is logged: no command loads logging for it
        import logging

        logging.basicConfig(
            stream=sys.stderr,
            level=getattr(logging, level.upper(), logging.ERROR),
            format="%(levelname)s %(name)s: %(message)s",
        )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except BrokenPipeError:
        # stdout lost its reader: point it at devnull, so the flush at exit
        # cannot raise again, and exit as a process killed by SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_STDOUT
    except (HydraMergeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
