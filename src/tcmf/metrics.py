"""Recovery error summaries and anomaly scoring."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError
from .model import FactorEstimate, GroundTruth
from .numerics import as_matrix, linf
from .thresholding import SparseEstimate

LOG_FLOOR = 1e-16


@dataclass(frozen=True)
class RecoveryErrors:
    """Entrywise-max and log10 squared-Frobenius errors for the three
    components.  linf_* average the per-source max errors; log_g and log_l
    average the squared norms over sources before the log, log_s sums them."""

    linf_g: float
    linf_l: float
    linf_s: float
    log_g: float
    log_l: float
    log_s: float


def _log10_floored(x: float) -> float:
    return float(np.log10(max(x, LOG_FLOOR)))


def recovery_errors(est: FactorEstimate, s_hat: SparseEstimate, gt: GroundTruth) -> RecoveryErrors:
    n = gt.n_sources
    if est.n_sources != n or len(s_hat.s) != n:
        raise DimensionError("estimate, sparse part and ground truth disagree on source count")
    linf_g = linf_l = linf_s = 0.0
    sq_g = sq_l = sq_s = 0.0
    for i in range(n):
        dg = est.u_g @ est.v_g[i].T - gt.u_g @ gt.v_g[i].T
        dl = est.u_l[i] @ est.v_l[i].T - gt.u_l[i] @ gt.v_l[i].T
        ds = s_hat.s[i] - gt.s[i]
        linf_g += linf(dg)
        linf_l += linf(dl)
        linf_s += linf(ds)
        sq_g += float(np.sum(dg * dg))
        sq_l += float(np.sum(dl * dl))
        sq_s += float(np.sum(ds * ds))
    return RecoveryErrors(
        linf_g=linf_g / n,
        linf_l=linf_l / n,
        linf_s=linf_s / n,
        log_g=_log10_floored(sq_g / n),
        log_l=_log10_floored(sq_l / n),
        log_s=_log10_floored(sq_s),
    )


def psnr(reference, candidate, peak: float) -> float:
    """10 * log10(peak^2 / MSE); +inf when the inputs match exactly."""
    reference = as_matrix(reference)
    candidate = as_matrix(candidate)
    if reference.shape != candidate.shape:
        raise DimensionError("psnr needs matching shapes")
    if peak <= 0.0:
        raise ConfigurationError("peak must be positive")
    diff = reference - candidate
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return math.inf
    return float(10.0 * np.log10(peak * peak / mse))


def anomaly_statistic(s) -> float:
    """Entrywise l1 norm of a sparse estimate; grows when a frame carries
    more or larger outliers than usual."""
    return float(np.sum(np.abs(as_matrix(s))))


def anomaly_threshold(stats, in_control_count: int) -> float:
    """Largest statistic among the first in_control_count entries, the
    conventional control limit when those frames are known clean."""
    stats = [float(x) for x in stats]
    if not 1 <= in_control_count <= len(stats):
        raise ConfigurationError("in_control_count must be within the statistic list")
    return max(stats[:in_control_count])
