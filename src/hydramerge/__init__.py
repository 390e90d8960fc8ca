"""Storage-reduced merging of low-rank adapter collections.

Four data-free baselines (uniform averaging, trim/sign-election, random
drop-and-rescale, and their composition) plus an optimization-based
scheme that learns one shared input-side factor and a configurable number
of cluster output-side factors with softmax-routed task assignment.
Includes a bit-exact archive format, a synthetic collection generator,
similarity/storage/reconstruction reports, and a batch CLI.
"""

from .adapters import (
    AdapterCollection,
    LowRankAdapter,
    MergedAdapterSlot,
    MergedBundle,
    SharedLoraSlot,
    SharedVeraSlot,
    SlotKey,
    VeraAdapter,
    delta_weight,
)
from .analysis import (
    ReconReport,
    SimilarityReport,
    pairwise_similarity,
    reconstruction_report,
    storage_ratio,
)
from .archive import read_archive, write_archive
from .baselines import (
    BaselineConfig,
    MergeMethod,
    MergeTarget,
    dare_transform,
    merge_collection,
    merge_dare,
    merge_dare_ties,
    merge_ta,
    ties_merge,
    ties_trim,
)
from .errors import (
    ArchiveFormatError,
    DegenerateInputError,
    HydraMergeError,
    NumericalError,
    ParameterError,
    ShapeError,
    ValidationError,
)
from .gradcheck import run_suite
from .hydra import (
    HydraConfig,
    HydraState,
    InitScheme,
    TrainTrace,
    VeraHydraState,
    adamw_step,
    assign_tasks,
    export_slot,
    gradients,
    init_state,
    init_vera_state,
    loss_eq1,
    loss_eq2,
    merge_collection_hydra,
    train,
    train_vera,
)
from .linalg import (
    DistanceKind,
    Rng,
    distance,
    distance_grad,
    finite_diff,
    gaussian_sample,
    matmul,
    softmax_rows,
)
from .synthetic import SynthSpec, generate

__version__ = "0.1.0"
