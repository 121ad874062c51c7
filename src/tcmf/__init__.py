"""Triple component matrix factorization.

Recovers, from N observation matrices, a low-rank component shared by every
source, a per-source low-rank component orthogonal to it, and per-source
sparse noise, by alternating hard thresholding with a joint factorization
under a geometrically decaying threshold.
"""

from .alternating import EpochTrace, TcmfConfig, rpca_baseline, run
from .errors import (
    ConfigurationError,
    ContractViolationError,
    CorruptDataError,
    DimensionError,
    DivergenceError,
    MissingInputError,
    SingularityError,
    TcmfError,
)
from .hmf import HmfParams, hmf_correct, hmf_gradients, hmf_objective, hmf_solve
from .jimf import KktResidualReport, kkt_residuals, renormalize, solve, spectral_init
from .metrics import RecoveryErrors, recovery_errors
from .model import (
    FactorEstimate,
    GroundTruth,
    IdentifiabilityReport,
    ObservationSet,
    SparseParts,
    SynthConfig,
    assemble_observations,
    generate,
    identifiability_report,
    measure_incoherence,
    measure_misalignment,
    measure_sparsity,
)
from .numerics import ThinSVD, truncated_svd
from .perpca import PerpcaParams, perpca_solve
from .thresholding import (
    LambdaSchedule,
    hard_threshold,
    initial_lambda,
    next_lambda,
)

__all__ = [
    "ConfigurationError",
    "ContractViolationError",
    "CorruptDataError",
    "DimensionError",
    "DivergenceError",
    "EpochTrace",
    "FactorEstimate",
    "GroundTruth",
    "HmfParams",
    "IdentifiabilityReport",
    "KktResidualReport",
    "LambdaSchedule",
    "MissingInputError",
    "ObservationSet",
    "PerpcaParams",
    "RecoveryErrors",
    "SingularityError",
    "SparseParts",
    "SynthConfig",
    "TcmfConfig",
    "TcmfError",
    "ThinSVD",
    "assemble_observations",
    "generate",
    "hard_threshold",
    "hmf_correct",
    "hmf_gradients",
    "hmf_objective",
    "hmf_solve",
    "identifiability_report",
    "initial_lambda",
    "kkt_residuals",
    "measure_incoherence",
    "measure_misalignment",
    "measure_sparsity",
    "next_lambda",
    "perpca_solve",
    "recovery_errors",
    "renormalize",
    "rpca_baseline",
    "run",
    "solve",
    "spectral_init",
    "truncated_svd",
]
