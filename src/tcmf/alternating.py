"""Outer loop: alternate hard thresholding of the residual with a joint
factorization of the cleaned data while the threshold decays geometrically.

Epoch t (estimates start at zero):
    s_hat[i] = hard_threshold(M_i - L_hat[i], lambda_t)
    factors  = jimf backend fit of {M_i - s_hat[i]}
    lambda_{t+1} = rho * lambda_t + epsilon

The noise is sparse, so an epoch holds each s_hat[i] as its support: the
flat indices and values of the entries above lambda_t.  Beside the data, the
solve then holds one data-sized stack, the cleaned {M_i - s_hat[i]}.  No
dense s_hat is built: the SparseEstimate holds the supports, and scoring
reads them as they are.
"""

import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .jimf import solve
from .metrics import recovery_errors
from .model import FactorEstimate, GroundTruth, ObservationSet, SparseParts
from .numerics import as_matrix, truncated_svd
from .thresholding import LambdaSchedule, SparseEstimate, _threshold, next_lambda

WARM_START_POLICIES = ("carry_forward", "fresh_spectral")


@dataclass(frozen=True)
class TcmfConfig:
    """Outer-loop settings.  params (HmfParams or PerpcaParams) picks the
    inner backend; each epoch's problem is built from the data."""

    schedule: LambdaSchedule
    epochs: int
    params: object
    warm_start_policy: str = "carry_forward"

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigurationError("epochs must be positive")
        if self.warm_start_policy not in WARM_START_POLICIES:
            raise ConfigurationError(f"warm_start_policy must be one of {WARM_START_POLICIES}")


@dataclass(frozen=True, kw_only=True)
class EpochTrace:
    """Per-epoch record; the error fields stay None without ground truth."""

    epoch: int
    lam: float
    linf_g: float | None = None
    linf_l: float | None = None
    linf_s: float | None = None
    log_g: float | None = None
    log_l: float | None = None
    log_s: float | None = None
    support_violations: int | None = None
    wall_ms: float


def _support_violations(s_hat: SparseEstimate, truth: SparseParts) -> int:
    # entries claimed by the estimate outside the true support: each
    # estimated index absent from the truth's sorted, distinct indices, so
    # that its left and right insertion points there coincide
    violations = 0
    for idx, true_idx in zip(s_hat.s.indices, truth.indices):
        found = np.searchsorted(true_idx, idx, side="right") - np.searchsorted(true_idx, idx)
        violations += idx.size - int(found.sum())
    return violations


def _split(m: np.ndarray, r: np.ndarray, lam: float):
    # _threshold(r, lam) in support form, the C-order flat indices and values
    # of the entries above lam, and m less it.  The cleaned matrix is laid out
    # as m - _threshold(r, lam) would be, like r; off the support it is m
    # itself, as m - (+0.0) is, and on it m_ij - r_ij, the same subtraction
    idx = np.flatnonzero(np.abs(r) > lam)
    vals = r.take(idx)
    cleaned = np.empty_like(r)
    np.copyto(cleaned, m)
    np.put(cleaned, idx, m.take(idx) - vals)
    return cleaned, (idx, vals)


def _estimate(mats: list, supports: list) -> SparseEstimate:
    # the sparse part _threshold gives, held as the supports _split took,
    # each in its source's shape: no dense matrix is built
    idx, vals = zip(*supports)
    return SparseEstimate(s=SparseParts(tuple(m.shape for m in mats), idx, vals))


def run(obs: ObservationSet, cfg: TcmfConfig, gt: GroundTruth | None = None):
    """Run the alternating loop and return (factors, sparse part, traces).

    Rank targets come from obs.  With ground truth, every epoch records
    recovery errors and the count of sparse entries placed off-support.
    Backend divergence propagates with the completed epoch traces attached
    to the raised error.

    Each epoch holds its sparse part as its support (flat indices and values
    per source) beside the cleaned data.  The SparseEstimate holds those
    supports; it is built where it is read: every epoch with ground truth,
    for scoring, and once after the last epoch without it.  No dense sparse
    part is built; reading s_hat.s[i] builds one.
    """
    est: FactorEstimate | None = None
    traces: list[EpochTrace] = []
    lam = cfg.schedule.lambda1
    try:
        for epoch in range(1, cfg.epochs + 1):
            t0 = time.perf_counter()
            s_hat = None  # only est and lam carry over
            cleaned, supports = zip(*[_split(m, m if est is None else m - est.reconstruction(i), lam)
                                      for i, m in enumerate(obs.matrices)])
            if cfg.warm_start_policy != "carry_forward":
                est = None  # spent: a fresh start reads only the cleaned data
            est = solve(ObservationSet(matrices=cleaned, r1=obs.r1, r2=obs.r2), cfg.params, est)
            del cleaned  # spent: the metrics' work arrays take its room
            wall_ms = (time.perf_counter() - t0) * 1e3
            errors = {}
            if gt is not None:
                s_hat = _estimate(obs.matrices, supports)
                errors = asdict(recovery_errors(est, s_hat, gt))
                errors["support_violations"] = _support_violations(s_hat, gt.s)
            traces.append(EpochTrace(epoch=epoch, lam=lam, wall_ms=wall_ms, **errors))
            lam = next_lambda(cfg.schedule, lam)
    except DivergenceError as err:
        err.epoch_traces = traces
        raise
    if s_hat is None:  # no ground truth: the last epoch's, built once for the caller
        s_hat = _estimate(obs.matrices, supports)
    return est, s_hat, traces


def rpca_baseline(m, r: int, schedule: LambdaSchedule, epochs: int):
    """Single-matrix robust-recovery reference: alternate hard thresholding
    with a rank-r truncated-SVD refit.  Returns (low_rank, sparse)."""
    m = as_matrix(m)
    if epochs < 1:
        raise ConfigurationError("epochs must be positive")
    low = np.zeros_like(m)
    sparse = np.zeros_like(m)
    lam = schedule.lambda1
    for _ in range(epochs):
        sparse = _threshold(m - low, lam)
        low = truncated_svd(m - sparse, r).reconstruct()
        lam = next_lambda(schedule, lam)
    return low, sparse
