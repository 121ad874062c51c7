"""Exception types shared across the package."""


class TcmfError(Exception):
    """Base class for all library errors."""


class DimensionError(TcmfError, ValueError):
    """Shapes or rank targets incompatible with an operation."""


class SingularityError(TcmfError, ArithmeticError):
    """Matrix numerically rank deficient where full rank is required."""


class ContractViolationError(TcmfError, ValueError):
    """Caller-supplied value violates a documented precondition."""


class ConfigurationError(TcmfError, ValueError):
    """Invalid or incomplete run configuration."""


class CorruptDataError(TcmfError, ValueError):
    """On-disk matrix or config data failed validation."""


class MissingInputError(TcmfError, FileNotFoundError):
    """Required input files are absent."""


class DivergenceError(TcmfError, RuntimeError):
    """Inner solver objective overflowed or rose for too many consecutive
    iterations (see jimf.ObjectiveTrace).

    Carries the objective trace up to the failure and, when raised from the
    outer loop, the per-epoch traces completed so far.
    """

    def __init__(self, message, objective_trace=None, epoch_traces=None):
        super().__init__(message)
        self.objective_trace = list(objective_trace or [])
        self.epoch_traces = list(epoch_traces or [])
