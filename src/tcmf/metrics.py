"""Recovery error summaries."""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .model import FactorEstimate, GroundTruth
from .numerics import linf
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


# a diverging run's errors overflow to inf, recorded as such, not warned about
@np.errstate(over="ignore", invalid="ignore")
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
