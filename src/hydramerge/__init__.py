"""Storage-reduced merging of low-rank adapter collections.

Four data-free baselines (uniform averaging, trim/sign-election, random
drop-and-rescale, and their composition) plus an optimization-based
scheme that learns one shared input-side factor and a configurable number
of cluster output-side factors with softmax-routed task assignment.
Includes a bit-exact archive format, a synthetic collection generator,
similarity/storage/reconstruction reports, and a batch CLI.

``import hydramerge`` loads no submodule: each name below, and each
submodule, is imported on first use (PEP 562), so a command pays only for
the modules it runs.
"""

import importlib

_EXPORTS = {
    "adapters": (
        "AdapterCollection",
        "LowRankAdapter",
        "MergedAdapterSlot",
        "MergedBundle",
        "SharedLoraSlot",
        "SharedVeraSlot",
        "SlotKey",
        "VeraAdapter",
        "delta_weight",
    ),
    "analysis": (
        "ReconReport",
        "SimilarityReport",
        "pairwise_similarity",
        "reconstruction_report",
        "storage_ratio",
    ),
    "archive": ("read_archive", "write_archive"),
    "baselines": (
        "BaselineConfig",
        "MergeMethod",
        "MergeTarget",
        "dare_transform",
        "merge_collection",
        "merge_dare",
        "merge_dare_ties",
        "merge_ta",
        "ties_merge",
        "ties_trim",
    ),
    "errors": (
        "ArchiveFormatError",
        "DegenerateInputError",
        "HydraMergeError",
        "NumericalError",
        "ParameterError",
        "ShapeError",
        "ValidationError",
    ),
    "gradcheck": ("run_suite",),
    "hydra": (
        "HydraConfig",
        "HydraState",
        "InitScheme",
        "TrainTrace",
        "VeraHydraState",
        "adamw_step",
        "assign_tasks",
        "export_slot",
        "gradients",
        "init_state",
        "init_vera_state",
        "loss_eq1",
        "loss_eq2",
        "merge_collection_hydra",
        "train",
        "train_vera",
    ),
    "linalg": (
        "DistanceKind",
        "Rng",
        "distance",
        "distance_grad",
        "finite_diff",
        "gaussian_sample",
        "matmul",
        "softmax_rows",
    ),
    "synthetic": ("SynthSpec", "generate"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
