"""Outer loop: alternate hard thresholding of the residual with a joint
factorization of the data less that sparse part while the threshold decays
geometrically.

Epoch t (estimates start at zero):
    s_hat[i] = hard_threshold(M_i - L_hat[i], lambda_t)
    factors  = jimf backend fit of {M_i - s_hat[i]}
    lambda_{t+1} = rho * lambda_t + epsilon

The noise is sparse, so an epoch holds s_hat as SparseParts, per source the
flat indices and values of the entries above lambda_t (SparseParts.from_dense,
one residual at a time), as the ground truth holds its noise.  The solve fits
obs.less(s_hat), which builds each source's M_i - s_hat[i] only when a solver
reads it, so beside the data an epoch holds no data-sized stack.  No dense
s_hat is built: scoring reads the supports as they are.
"""

import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .jimf import solve
from .metrics import recovery_errors
from .model import FactorEstimate, GroundTruth, ObservationSet, SparseParts
from .numerics import as_matrix, truncated_svd
from .thresholding import LambdaSchedule, next_lambda

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


def _support_violations(s_hat: SparseParts, truth: SparseParts) -> int:
    # entries claimed by the estimate outside the true support: each
    # estimated index absent from the truth's sorted, distinct indices, so
    # that its left and right insertion points there coincide
    violations = 0
    for idx, true_idx in zip(s_hat.indices, truth.indices):
        found = np.searchsorted(true_idx, idx, side="right") - np.searchsorted(true_idx, idx)
        violations += idx.size - int(found.sum())
    return violations


def run(obs: ObservationSet, cfg: TcmfConfig, gt: GroundTruth | None = None):
    """Run the alternating loop and return (factors, sparse part, traces).

    Rank targets come from obs.  With ground truth, every epoch records
    recovery errors and the count of sparse entries placed off-support.
    Backend divergence propagates with the completed epoch traces attached
    to the raised error.

    Each epoch holds its sparse part as SparseParts.from_dense takes it at
    lambda_t (flat indices and values per source), and solves obs.less(s_hat);
    the last epoch's part is returned, with or without ground truth.  No
    dense sparse part is built; reading s_hat[i] builds one.
    """
    est: FactorEstimate | None = None
    traces: list[EpochTrace] = []
    lam = cfg.schedule.lambda1
    try:
        for epoch in range(1, cfg.epochs + 1):
            t0 = time.perf_counter()
            residuals = (m if est is None else m - est.reconstruction(i) for i, m in enumerate(obs.matrices))
            s_hat = SparseParts.from_dense(residuals, lam)
            if cfg.warm_start_policy != "carry_forward":
                est = None  # spent: a fresh start reads only the problem
            est = solve(obs.less(s_hat), cfg.params, est)
            wall_ms = (time.perf_counter() - t0) * 1e3
            errors = {}
            if gt is not None:
                errors = asdict(recovery_errors(est, s_hat, gt))
                errors["support_violations"] = _support_violations(s_hat, gt.s)
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
    lam = schedule.lambda1
    for _ in range(epochs):
        sparse = SparseParts.from_dense([m - low], lam)[0]
        low = truncated_svd(m - sparse, r).reconstruct()
        lam = next_lambda(schedule, lam)
    return low, sparse
