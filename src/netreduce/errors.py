"""Exception hierarchy for netreduce."""


class NetreduceError(Exception):
    """Base class for all netreduce errors."""


class PoleAtS(NetreduceError):
    """Transfer function evaluated at or numerically near a pole."""


class NotPassiveOnGrid(NetreduceError):
    """Re(g(jw)) <= 0 at some tested frequency."""


class CouplingVanishes(NetreduceError):
    """The coupling magnitude lower estimate is numerically zero."""


class NotSymmetric(NetreduceError):
    """Matrix expected to be symmetric is not."""


class NonFinite(NetreduceError, ValueError):
    """Matrix or transfer function has a NaN or infinite entry."""


class KTooLarge(NetreduceError):
    """Requested subspace dimension exceeds what the input admits."""


class DegenerateEmbedding(NetreduceError):
    """Every clustering restart converged with coinciding centroids."""


class NotOrthonormal(NetreduceError):
    """Matrix columns expected to be orthonormal are not."""


class EmptyBlock(NetreduceError):
    """A partition block is empty."""


class SingularS(NetreduceError):
    """Refinement matrix is numerically singular."""


class NearSingular(NetreduceError):
    """Linear system too ill-conditioned to solve reliably."""


class DisconnectedGraph(NetreduceError):
    """Graph Laplacian has a numerically zero algebraic connectivity."""


class ImproperTF(NetreduceError, ValueError):
    """Transfer function is not proper."""


class IllPosed(NetreduceError):
    """Feedback interconnection has a singular feedthrough loop."""


class Diverged(NetreduceError):
    """Time integration produced unbounded states."""


class GridMismatch(NetreduceError):
    """Two simulation results do not share the same time grid."""


class NoFrequencyEvaluated(NetreduceError):
    """Every frequency of a band evaluation failed; there is nothing to report."""


class ModelMismatch(NetreduceError):
    """Full model, reduced model and eigendata describe different networks."""


class ConfigError(NetreduceError):
    """Experiment configuration is invalid; message names the field path."""


class ReductionFailed(NetreduceError):
    """A stage of the reduction pipeline failed.

    Carries the stage name so callers can tell where the pipeline broke.
    """

    def __init__(self, stage, message):
        self.stage = stage
        super().__init__(f"stage '{stage}': {message}")


class TiedSpectrumWarning(UserWarning):
    """The k-th and (k+1)-th eigenvalues are numerically tied."""


class RankDeficientWarning(UserWarning):
    """Alignment problem in the refinement step has a non-unique optimum."""
