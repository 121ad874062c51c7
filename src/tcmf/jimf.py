"""Joint/individual matrix factorization: shared interface, initialization
and first-order residuals.

Backends ("hmf", "perpca") drive a FactorEstimate of an ObservationSet toward
the least-squares fit, keeping the shared basis u_g orthogonal to each local
basis u_l[i].  Per-source arrays of one shape are stacks (u_l, obs.grams);
those whose width follows the source's (the data, v_g, v_l) are lists.

_terms is the one place the regularized least-squares objective and its
gradient blocks are computed: the hmf solver loop, hmf_objective,
hmf_gradients and kkt_residuals (at beta = 0) all call it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolationError, DimensionError, DivergenceError, SingularityError
from .model import FactorEstimate, ObservationSet
from .numerics import RANK_RTOL, as_matrix, linf, sign_fixed_qr, top_eigenvectors

DIVERGENCE_WINDOW = 50
STOP_RTOL = 1e-10
FLOOR_RTOL = 1e-12

@dataclass(frozen=True)
class KktResidualReport:
    """Frobenius norms of the stationarity blocks plus the worst
    orthogonality violation, all after renormalization."""

    r_vg: float
    r_vl: float
    r_ug: float
    r_ul: float
    r_orth: float

    def max_residual(self) -> float:
        return max(self.r_vg, self.r_vl, self.r_ug, self.r_ul, self.r_orth)


class ObjectiveTrace:
    """Per-iteration objective record with the divergence and stopping rules
    both backends share.

    record(obj) appends to values (the caller's list when given) and raises
    DivergenceError, this trace attached, when obj is not finite or when the
    objective has risen for DIVERGENCE_WINDOW consecutive iterations.  It
    returns True, telling the loop to stop, when the objective fell by at
    most STOP_RTOL of itself, 0 <= f_{k-1} - f_k <= STOP_RTOL * f_k, while
    still above FLOOR_RTOL * scale, scale the objective of the empty fit (an
    exactly fitted instance records round-off and runs its whole budget).
    Rises, the stop test and the iteration the error names count this
    trace's own values only, from where it started in the caller's list.
    """

    def __init__(self, values: list | None = None, scale: float = 0.0):
        self.values = [] if values is None else values
        self.start = len(self.values)
        self._floor = FLOOR_RTOL * scale
        self._rises = 0

    def record(self, obj: float) -> bool:
        if not np.isfinite(obj):
            self.values.append(obj)
            self.fail("objective overflowed")
        prev = self.values[-1] if len(self.values) > self.start else None
        if prev is not None and obj > prev:
            self._rises += 1
        else:
            self._rises = 0
        self.values.append(obj)
        if self._rises >= DIVERGENCE_WINDOW:
            self.fail(f"objective rose for {self._rises} consecutive iterations")
        return prev is not None and 0.0 <= prev - obj <= STOP_RTOL * obj and obj > self._floor

    def fail(self, reason: str, iteration: int | None = None):
        """Raise DivergenceError for reason at iteration (default: the last recorded)."""
        at = len(self.values) - self.start if iteration is None else iteration
        raise DivergenceError(f"{reason} at inner iteration {at}", objective_trace=self.values)


def spectral_init(obs: ObservationSet) -> FactorEstimate:
    """Initialize factors from the data spectrum, working only on the n1 x n1
    Gram stack C_i = M_i M_i^T (obs.grams), M_i the problem matrices
    (obs.problem_matrix).

    u_g holds the top r1 eigenvectors of sum_i C_i (the top left singular
    vectors of the concatenation [M_1 ... M_N]); u_l[i] the top r2
    eigenvectors of P C_i P with P = I - u_g u_g^T (those of source i after
    projecting out u_g).  Columns are signed by truncated_svd's rule, and the
    v factors are the coefficient matrices M_i^T [u_g u_l[i]], one product
    per source, split at column r1 as perpca_solve reads its own.

    Raises SingularityError when the data has numerical rank below r1: the
    singular values sigma_j = ||[M_1 ... M_N]^T u_g[:, j]|| (column norms of
    the stacked v_g) are all zero or sigma_r1 <= RANK_RTOL * sigma_1; and
    ContractViolationError when a Gram matrix M_i M_i^T overflows.
    """
    grams = obs.grams
    u_g = top_eigenvectors(grams.sum(axis=0), obs.r1)
    p = np.eye(u_g.shape[0]) - u_g @ u_g.T
    u_l = top_eigenvectors(p @ grams @ p, obs.r2)
    u = np.concatenate((np.broadcast_to(u_g, u_l.shape[:-1] + (obs.r1,)), u_l), axis=-1)
    est = FactorEstimate.from_joint(u, [obs.problem_matrix(i).T @ ui for i, ui in enumerate(u)], obs.r1)
    sigma = np.linalg.norm(np.concatenate(est.v_g), axis=0)
    if obs.r1 > 0 and (sigma[0] == 0.0 or sigma[-1] <= RANK_RTOL * sigma[0]):
        raise SingularityError("concatenated data has numerical rank below r1")
    return est


def solve(obs: ObservationSet, params, warm_start: FactorEstimate | None = None) -> FactorEstimate:
    """Run the backend named by the type of params (HmfParams: hmf,
    PerpcaParams: perpca) until the ObjectiveTrace stopping rule or its
    iteration cap ends the solve, from warm_start when given and from
    spectral_init otherwise.

    Raises ConfigurationError for any other params object, DimensionError
    for a warm start whose ranks or shapes do not fit obs,
    ContractViolationError for one with NaN or Inf entries, and
    DivergenceError (with the objective trace attached) under the
    ObjectiveTrace rule.
    """
    from .hmf import HmfParams, hmf_solve
    from .perpca import PerpcaParams, perpca_solve

    if isinstance(params, HmfParams):
        return hmf_solve(obs, params, warm_start)
    if isinstance(params, PerpcaParams):
        return perpca_solve(obs, params, warm_start)
    raise ConfigurationError(f"params must be HmfParams or PerpcaParams, got {type(params).__name__}")


def _start(obs: ObservationSet, warm_start: FactorEstimate | None) -> tuple:
    """The joint factors (FactorEstimate.joint) a backend solve starts from:
    warm_start's once its ranks and shapes (else DimensionError) and its
    finiteness (else ContractViolationError) are checked against obs, or
    spectral_init's when there is none."""
    if warm_start is None:
        return spectral_init(obs).joint()
    ranks = (warm_start.r1, warm_start.r2)
    if ranks != (obs.r1, obs.r2):
        raise DimensionError(f"warm start has ranks {ranks}, expected {(obs.r1, obs.r2)}")
    warm_start.check_fits([m.shape for m in obs.matrices], "warm start vs the observations")
    factors = (warm_start.u_g, warm_start.u_l, *warm_start.v_g, *warm_start.v_l)
    if not all(np.isfinite(a).all() for a in factors):
        raise ContractViolationError("warm start contains NaN or Inf entries")
    return warm_start.joint()


def renormalize(est: FactorEstimate) -> FactorEstimate:
    """Re-express the estimate with orthonormal u_g and u_l and exact
    cross-orthogonality, preserving every reconstruction bit for bit up to
    round-off.

    Steps: QR on u_g (v_g absorbs the triangular factor), exact deflation of
    the u_l stack against u_g with the matching v_g compensation, then one
    stacked QR on u_l.
    """
    q_g, r_g = sign_fixed_qr(est.u_g)
    g = q_g.T @ est.u_l
    u_l, r_l = sign_fixed_qr(est.u_l - q_g @ g)
    v_g = [v @ r_g.T + vl @ gi.T for v, vl, gi in zip(est.v_g, est.v_l, g)]
    v_l = [vl @ rl.T for vl, rl in zip(est.v_l, r_l)]
    return FactorEstimate(u_g=q_g, v_g=v_g, u_l=u_l, v_l=v_l)


def _penalty(r1: int, r2: int):
    """(identity, block mask) of the joint Gram [u_g u_l]^T [u_g u_l]: beta
    penalizes its diagonal blocks u_g^T u_g - I and u_l^T u_l - I only."""
    r = r1 + r2
    mask = np.zeros((r, r))
    mask[:r1, :r1] = 1.0
    mask[r1:, r1:] = 1.0
    return np.eye(r), mask


def _terms(u, v, m, beta, penalty):
    """Objective and gradient blocks (obj, d/du, d/dv) of one source's joint
    factors u = [u_g u_l] (n1, r1 + r2) and v = [v_g v_l] (n2, r1 + r2), or
    of (N, ., .) stacks of sources; obj holds one entry per source and
    penalty is _penalty(r1, r2).  Split at column r1, d/du holds the u_g and
    u_l blocks and d/dv the v_g and v_l blocks.

    With E = u v^T - M and G = B o (u^T u - I), B the block mask:
        obj  = 0.5 ||E||^2 + 0.5 beta ||G||^2
        d/du = E v + 2 beta u G
        d/dv = E^T u
    """
    eye, mask = penalty
    gram = u.swapaxes(-1, -2) @ u
    gram -= eye
    gram *= mask
    e = u @ v.swapaxes(-1, -2)
    e -= m
    obj = 0.5 * np.sum(e * e, axis=(-2, -1)) + 0.5 * beta * np.sum(gram * gram, axis=(-2, -1))
    g_u = e @ v
    g_u += 2.0 * beta * (u @ gram)
    return obj, g_u, e.swapaxes(-1, -2) @ u


def kkt_residuals(est: FactorEstimate, matrices) -> KktResidualReport:
    """First-order residuals of the constrained least-squares problem.

    The estimate is renormalized first so the multiplier-free stationarity
    conditions apply: the blocks are the beta = 0 gradients of _terms, the
    u_g block summed over sources (r_vg) and the u_l, v_g and v_l blocks per
    source (r_vl, r_ug, r_ul, worst source), plus the worst violation among
    u_g^T u_g = I, u_l^T u_l = I and u_l^T u_g = 0.
    """
    mats = [as_matrix(m) for m in matrices]
    est.check_fits([m.shape for m in mats], "kkt_residuals matrices")
    est = renormalize(est)
    r1, penalty = est.r1, _penalty(est.r1, est.r2)
    grads = [_terms(u, v, m, 0.0, penalty)[1:] for u, v, m in zip(*est.joint(), mats)]
    gram_l = est.u_l.swapaxes(-1, -2) @ est.u_l - np.eye(est.r2)
    r_orth = max(linf(est.u_g.T @ est.u_g - np.eye(est.r1)), linf(gram_l), est.cross_orthogonality())
    return KktResidualReport(
        r_vg=float(np.linalg.norm(sum(g_u[:, :r1] for g_u, _ in grads))),
        r_vl=max(float(np.linalg.norm(g_u[:, r1:])) for g_u, _ in grads),
        r_ug=max(float(np.linalg.norm(g_v[:, :r1])) for _, g_v in grads),
        r_ul=max(float(np.linalg.norm(g_v[:, r1:])) for _, g_v in grads),
        r_orth=r_orth,
    )
