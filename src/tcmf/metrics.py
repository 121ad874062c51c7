"""Recovery error summaries."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .model import FactorEstimate, GroundTruth
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


def _max_and_squares(d: np.ndarray, scratch: np.ndarray) -> tuple:
    # (max |d|, sum of d^2) of a difference d, overwriting d and scratch
    sq = float(np.sum(np.square(d, out=scratch)))
    return float(np.abs(d, out=d).max(initial=0.0)), sq


# a diverging run's errors overflow to inf, recorded as such, not warned about
@np.errstate(over="ignore", invalid="ignore")
def recovery_errors(est: FactorEstimate, s_hat: SparseEstimate, gt: GroundTruth) -> RecoveryErrors:
    n = gt.n_sources
    if est.n_sources != n or len(s_hat.s) != n:
        raise DimensionError("estimate, sparse part and ground truth disagree on source count")
    shapes = list(gt.s.shapes)
    est.check_fits(shapes, "estimates vs the ground truth")
    if list(s_hat.s.shapes) != shapes:
        raise DimensionError(f"estimated sparse parts do not match the ground truth shapes {shapes}")
    # Two work arrays sized to the largest source.  Each source's differences
    # are taken in C-contiguous views of its shape, so np.sum adds them in the
    # order it would a fresh array's and every bit is the plain formula's.
    # The sparse difference is built from the two supports: the estimate's
    # values put into zeros, then the truth's subtracted in place at its
    # indices, the same subtraction, entry by entry, as of the dense parts.
    size = max(math.prod(shape) for shape in shapes)
    work = np.empty(size), np.empty(size)
    linf_g = linf_l = linf_s = 0.0
    sq_g = sq_l = sq_s = 0.0
    for i in range(n):
        a, b = (w[: math.prod(shapes[i])].reshape(shapes[i]) for w in work)
        np.subtract(np.matmul(est.u_g, est.v_g[i].T, out=a), np.matmul(gt.u_g, gt.v_g[i].T, out=b), out=a)
        top, sq = _max_and_squares(a, b)
        linf_g, sq_g = linf_g + top, sq_g + sq
        np.subtract(np.matmul(est.u_l[i], est.v_l[i].T, out=a), np.matmul(gt.u_l[i], gt.v_l[i].T, out=b), out=a)
        top, sq = _max_and_squares(a, b)
        linf_l, sq_l = linf_l + top, sq_l + sq
        a.fill(0.0)
        a.put(s_hat.s.indices[i], s_hat.s.values[i])
        np.subtract.at(a.reshape(-1), gt.s.indices[i], gt.s.values[i])
        top, sq = _max_and_squares(a, b)
        linf_s, sq_s = linf_s + top, sq_s + sq
    return RecoveryErrors(
        linf_g=linf_g / n,
        linf_l=linf_l / n,
        linf_s=linf_s / n,
        log_g=_log10_floored(sq_g / n),
        log_l=_log10_floored(sq_l / n),
        log_s=_log10_floored(sq_s),
    )
