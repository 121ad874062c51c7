"""Entrywise hard thresholding and the geometric threshold schedule."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .model import IdentifiabilityReport, ObservationSet, SparseParts
from .numerics import as_matrix


@dataclass(frozen=True)
class LambdaSchedule:
    """Threshold recurrence lambda_{t+1} = rho * lambda_t + epsilon.

    Requires finite fields and rho < 1 - epsilon/lambda1, so the schedule
    strictly decreases from lambda1 toward its fixed point epsilon/(1 - rho).
    """

    lambda1: float
    rho: float
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.lambda1 < np.inf:
            raise ConfigurationError("lambda1 must be positive and finite")
        if not 0.0 < self.rho < 1.0:
            raise ConfigurationError("rho must lie in (0, 1)")
        if not 0.0 <= self.epsilon < np.inf:
            raise ConfigurationError("epsilon must be nonnegative and finite")
        if not self.rho < 1.0 - self.epsilon / self.lambda1:
            raise ConfigurationError("need rho < 1 - epsilon/lambda1")


def hard_threshold(x, lam: float) -> np.ndarray:
    """Keep entries with |x_ij| strictly above lam, zero the rest, in a new
    C-ordered matrix: SparseParts.from_dense's support read back dense.

    Entries exactly at the threshold map to +0.0.  Survivors keep their
    value, so the operator is idempotent and never moves an entry by more
    than lam.
    """
    return SparseParts.from_dense([as_matrix(x)], lam)[0]


def next_lambda(schedule: LambdaSchedule, lambda_t: float) -> float:
    return schedule.rho * lambda_t + schedule.epsilon


LAMBDA1_MODES = ("theoretical", "data_driven")


def initial_lambda(obs: ObservationSet, mode: str, report: IdentifiabilityReport | None = None) -> float:
    """Pick lambda_1.

    "theoretical" uses sigma_max * mu^2 * (r1 + r2) / sqrt(n1 * n2), an upper
    bound on the largest low-rank entry, and needs an identifiability report.
    "data_driven" uses the largest absolute observed entry, which dominates
    any entry of the low-rank part without oracle knowledge.
    """
    if mode == "theoretical":
        if report is None:
            raise ConfigurationError("theoretical mode needs an identifiability report")
        r = obs.r1 + obs.r2
        # widths may differ across sources; the smallest gives the largest bound
        n2 = min(m.shape[1] for m in obs.matrices)
        lam = report.sigma_max * report.mu**2 * r / float(np.sqrt(obs.n1 * n2))
    elif mode == "data_driven":
        lam = max((float(np.max(np.abs(m))) if m.size else 0.0) for m in obs.matrices)
    else:
        raise ConfigurationError(f"unknown lambda mode {mode!r}")
    if lam <= 0.0:
        raise ConfigurationError("initial threshold must be positive")
    return float(lam)
