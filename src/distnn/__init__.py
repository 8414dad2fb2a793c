"""Distributional matrix completion with Wasserstein nearest neighbors.

Given a sparsely observed matrix whose entries are arrays of scalar samples,
impute each entry's underlying one-dimensional distribution from the
Wasserstein barycenter of its nearest neighboring rows, with leave-one-out
threshold tuning, confidence bands, synthetic-data experiments, and exact
closed-form references for verification.
"""

from .empirical import (
    EmpiricalDistribution,
    StepQuantile,
    barycenter,
    from_samples,
    step_barycenter,
    summaries,
    w2_equal_n,
    w2_general,
    w2sq,
)
from .errors import (
    AllTrialsFailedError,
    DegenerateDensityError,
    DistnnError,
    EmptyCollectionError,
    EmptyInputError,
    ExperimentAbortedError,
    IndexOutOfRangeError,
    NoNeighborsError,
    NonFiniteSampleError,
    NoObservedCellsError,
    OutOfDomainError,
    PanelParseError,
    SizeMismatchError,
    TooLargeError,
)
from .estimator import (
    ImputationBatch,
    ImputationResult,
    NeighborSet,
    find_neighbors,
    impute,
    impute_all,
    row_distance,
)
from .exact import (
    UniformPair,
    brute_force_w2_sq,
    uniform_barycenter_expected_w2_sq,
    uniform_empirical_expected_w2_sq,
    uniform_pair_empirical_expected_w2_sq,
    uniform_w2_sq,
)
from .inference import (
    ConfidenceBand,
    SigmaFunction,
    asymptotic_band,
    bootstrap_band,
    default_levels,
    sigma_sq,
)
from .matrix import DistributionalMatrix, MaskSpec, apply_mcar, shared_columns
from .panel import Panel, load_panel, read_panel_csv, write_panel_csv
from .synthetic import DgpSpec, LatentFactors, TrueDistributions, generate, true_w2
from .tuning import TuneConfig, TuneReport, TuneTrial, tune_eta

__version__ = "0.1.0"
