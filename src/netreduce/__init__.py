"""netreduce: structure-preserving reduction of networked dynamical systems.

Pipeline: spectral clustering of the graph Laplacian identifies coherent
node groups, each group is replaced by its harmonic aggregate dynamics, and
a refined spectral embedding yields the coupling matrix of a small reduced
network with the same feedback structure as the original.
"""

import os as _os

# One BLAS thread per process unless the caller set one. The package loads
# only numpy's OpenBLAS; a program that loads a second BLAS beside it has two
# thread pools, which fight over the cores. Parallelism comes from the
# ``--jobs`` process pool, whose workers inherit these values. This acts
# only while numpy has not yet been imported, so it must run before any
# submodule below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")
del _os, _var

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    CouplingVanishes,
    DegenerateEmbedding,
    DisconnectedGraph,
    Diverged,
    EmptyBlock,
    GridMismatch,
    IllPosed,
    ImproperTF,
    KTooLarge,
    ModelMismatch,
    NearSingular,
    NetreduceError,
    NonFinite,
    NotOrthonormal,
    NotPassiveOnGrid,
    NotSymmetric,
    PoleAtS,
    RankDeficientWarning,
    ReductionFailed,
    SingularS,
    TiedSpectrumWarning,
    ZeroNumerator,
)
from .evaluation import (
    ErrorReport,
    FreqGrid,
    band_error,
    eval_t_hat_k,
    eval_t_k,
    eval_t_yu,
    spectral_norm,
    theorem1_bound,
)
from .graphs import (
    BlockSpectrum,
    Partition,
    WsbmParams,
    block_spectrum_oracle,
    concentration_stat,
    expected_laplacian,
    laplacian,
    sample_adjacency,
)
from .reduction import (
    RefinementResult,
    ReducedModel,
    block_ideal_check,
    reduced_laplacian,
    refine_embedding,
    run_algorithm_1,
)
from .simulate import (
    ComparisonReport,
    SimResult,
    StateSpace,
    broadcast_outputs,
    close_loop,
    compare_responses,
    realize,
    realize_aggregate,
    realize_reduced,
    step_response,
)
from .spectral import (
    SinThetaReport,
    SpectralData,
    bottom_k_eig,
    cluster_embedding,
    sin_theta,
    wcss_of,
)
from .transfer import (
    AggregateEvaluator,
    NetworkModel,
    PassivityReport,
    RationalTF,
    first_order_swing,
    log_grid,
    passivity_check,
    sample_swing_nodes,
    tf_eval,
)
