"""Outer loop: alternate hard thresholding of the residual with a joint
factorization of the cleaned data while the threshold decays geometrically.

Epoch t (estimates start at zero):
    s_hat[i] = hard_threshold(M_i - L_hat[i], lambda_t)
    factors  = jimf backend fit of {M_i - s_hat[i]}
    lambda_{t+1} = rho * lambda_t + epsilon
"""

import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .jimf import solve
from .metrics import recovery_errors
from .model import FactorEstimate, GroundTruth, ObservationSet
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


def _support_violations(s_hat: SparseEstimate, gt: GroundTruth) -> int:
    # entries claimed by the estimate outside the true support
    total = 0
    for est_s, true_s in zip(s_hat.s, gt.s):
        total += int(np.count_nonzero((est_s != 0.0) & (true_s == 0.0)))
    return total


def run(obs: ObservationSet, cfg: TcmfConfig, gt: GroundTruth | None = None):
    """Run the alternating loop and return (factors, sparse part, traces).

    Rank targets come from obs.  With ground truth, every epoch records
    recovery errors and the count of sparse entries placed off-support.
    Backend divergence propagates with the completed epoch traces attached
    to the raised error.
    """
    mats = obs.matrices
    est: FactorEstimate | None = None
    s_hat: SparseEstimate | None = None
    traces: list[EpochTrace] = []
    lam = cfg.schedule.lambda1
    try:
        for epoch in range(1, cfg.epochs + 1):
            t0 = time.perf_counter()
            recon = est.reconstructions() if est is not None else [np.zeros_like(m) for m in mats]
            s_mats = [_threshold(m - r, lam) for m, r in zip(mats, recon)]
            s_hat = SparseEstimate(s=s_mats)
            cleaned = [m - s for m, s in zip(mats, s_mats)]
            warm = est if cfg.warm_start_policy == "carry_forward" else None
            est = solve(ObservationSet(matrices=cleaned, r1=obs.r1, r2=obs.r2), cfg.params, warm)
            wall_ms = (time.perf_counter() - t0) * 1e3
            errors = {}
            if gt is not None:
                errors = asdict(recovery_errors(est, s_hat, gt))
                errors["support_violations"] = _support_violations(s_hat, gt)
            traces.append(EpochTrace(epoch=epoch, lam=lam, wall_ms=wall_ms, **errors))
            lam = next_lambda(cfg.schedule, lam)
    except DivergenceError as err:
        err.epoch_traces = traces
        raise
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
