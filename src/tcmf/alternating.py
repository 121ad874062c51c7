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


def _support_violations(s_hat: SparseEstimate, true_support: list) -> int:
    # entries claimed by the estimate outside the true support: all it claims
    # less those it claims at the flat indices true_support[i] of gt.s[i]
    kept_on_support = sum(int(np.count_nonzero(s.ravel()[idx])) for s, idx in zip(s_hat.s, true_support))
    return sum(s_hat.support_sizes) - kept_on_support


def run(obs: ObservationSet, cfg: TcmfConfig, gt: GroundTruth | None = None):
    """Run the alternating loop and return (factors, sparse part, traces).

    Rank targets come from obs.  With ground truth, every epoch records
    recovery errors and the count of sparse entries placed off-support.
    Backend divergence propagates with the completed epoch traces attached
    to the raised error.
    """
    est: FactorEstimate | None = None
    traces: list[EpochTrace] = []
    lam = cfg.schedule.lambda1
    true_support = None if gt is None else [np.flatnonzero(s) for s in gt.s]
    try:
        for epoch in range(1, cfg.epochs + 1):
            t0 = time.perf_counter()
            s_hat, s_mats, cleaned = None, [], []  # only est and lam carry over
            for i, m in enumerate(obs.matrices):
                s_mats.append(_threshold(m if est is None else m - est.reconstruction(i), lam))
                cleaned.append(m - s_mats[-1])
            s_hat = SparseEstimate(s=s_mats)
            warm = est if cfg.warm_start_policy == "carry_forward" else None
            est = solve(ObservationSet(matrices=cleaned, r1=obs.r1, r2=obs.r2), cfg.params, warm)
            del cleaned  # spent: the metrics' temporaries take its room
            wall_ms = (time.perf_counter() - t0) * 1e3
            errors = {}
            if gt is not None:
                errors = asdict(recovery_errors(est, s_hat, gt))
                errors["support_violations"] = _support_violations(s_hat, true_support)
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
