"""Joint/individual matrix factorization: shared interface, initialization,
optimality checks and first-order residuals.

A factor estimate represents every source i as u_g v_g[i]^T + u_l[i] v_l[i]^T
with the shared basis u_g kept orthogonal to each local basis u_l[i].
Backends ("hmf", "perpca") drive the estimate toward the least-squares fit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, DivergenceError, SingularityError
from .numerics import as_matrix, linf, sign_fixed_qr, truncated_svd

CROSS_ORTHO_TOL = 1e-8
INIT_RANK_TOL = 1e-12
DIVERGENCE_WINDOW = 50

BACKENDS = ("hmf", "perpca")


@dataclass(frozen=True)
class FactorEstimate:
    """Shared factor u_g plus per-source factors v_g, u_l, v_l."""

    u_g: np.ndarray
    v_g: list
    u_l: list
    v_l: list

    @property
    def n_sources(self) -> int:
        return len(self.v_g)

    @property
    def r1(self) -> int:
        return self.u_g.shape[1]

    @property
    def r2(self) -> int:
        return self.u_l[0].shape[1]

    def reconstruction(self, i: int) -> np.ndarray:
        return self.u_g @ self.v_g[i].T + self.u_l[i] @ self.v_l[i].T

    def reconstructions(self) -> list:
        return [self.reconstruction(i) for i in range(self.n_sources)]

    def cross_orthogonality(self) -> float:
        """Worst |u_g^T u_l[i]| entry across sources."""
        return max(linf(self.u_g.T @ ul) for ul in self.u_l)


@dataclass(frozen=True, kw_only=True)
class JimfRequest:
    """One factorization problem: data, rank targets and an optional warm
    start.  The params object handed to solve picks the backend."""

    matrices: tuple
    r1: int
    r2: int
    warm_start: FactorEstimate | None = None

    def __post_init__(self):
        if self.r1 < 0 or self.r2 < 0:
            raise DimensionError("rank targets must be nonnegative")


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
    """Per-iteration objective record with the divergence rule both backends
    share.

    record(obj) appends to values (the caller's list when given) and raises
    DivergenceError, this trace attached, when obj is not finite or when the
    objective has risen for DIVERGENCE_WINDOW consecutive iterations.
    """

    def __init__(self, values: list | None = None):
        self.values = [] if values is None else values
        self._rises = 0

    def record(self, obj: float):
        if not np.isfinite(obj):
            self.values.append(obj)
            self.fail("objective overflowed")
        if self.values and obj > self.values[-1]:
            self._rises += 1
        else:
            self._rises = 0
        self.values.append(obj)
        if self._rises >= DIVERGENCE_WINDOW:
            self.fail(f"objective rose for {self._rises} consecutive iterations")

    def fail(self, reason: str):
        """Raise DivergenceError for reason, naming the inner iteration."""
        raise DivergenceError(
            f"{reason} at inner iteration {len(self.values)}",
            objective_trace=self.values,
        )


def spectral_init(matrices, r1: int, r2: int) -> FactorEstimate:
    """Initialize factors from the data spectrum.

    u_g comes from the top r1 left singular vectors of the column-wise
    concatenation of all sources; u_l[i] from the top r2 left singular
    vectors of source i after projecting out u_g; the v factors are the
    corresponding coefficient matrices.
    """
    mats = [as_matrix(m) for m in matrices]
    if not mats:
        raise DimensionError("need at least one matrix")
    concat = np.hstack(mats)
    top = truncated_svd(concat, r1)
    if r1 > 0 and top.sigma[-1] <= INIT_RANK_TOL:
        raise SingularityError("concatenated data has numerical rank below r1")
    u_g = top.u
    v_g, u_l, v_l = [], [], []
    for m in mats:
        deflated = m - u_g @ (u_g.T @ m)
        ul = truncated_svd(deflated, r2).u
        u_l.append(ul)
        v_g.append(m.T @ u_g)
        v_l.append(m.T @ ul)
    return FactorEstimate(u_g=u_g, v_g=v_g, u_l=u_l, v_l=v_l)


def solve(req: JimfRequest, params) -> FactorEstimate:
    """Run the backend named by the type of params (HmfParams: hmf,
    PerpcaParams: perpca) for its configured iteration budget.

    Raises ConfigurationError for any other params object, and
    DivergenceError (with the objective trace attached) under the
    ObjectiveTrace rule.
    """
    from .hmf import HmfParams, hmf_solve
    from .perpca import PerpcaParams, perpca_solve

    if isinstance(params, HmfParams):
        return hmf_solve(req, params)
    if isinstance(params, PerpcaParams):
        return perpca_solve(req, params)
    raise ConfigurationError(f"params must be HmfParams or PerpcaParams, got {type(params).__name__}")


def check_epsilon_optimality(candidate: FactorEstimate, reference: FactorEstimate, epsilon: float) -> bool:
    """True iff the candidate's reconstructions sit within epsilon (entrywise)
    of the reference's for every source and the candidate keeps
    u_g^T u_l[i] below the orthogonality tolerance."""
    if candidate.n_sources != reference.n_sources:
        raise DimensionError("candidate and reference have different source counts")
    if candidate.cross_orthogonality() > CROSS_ORTHO_TOL:
        return False
    for i in range(candidate.n_sources):
        gap = linf(candidate.reconstruction(i) - reference.reconstruction(i))
        if gap > epsilon:
            return False
    return True


def renormalize(est: FactorEstimate) -> FactorEstimate:
    """Re-express the estimate with orthonormal u_g and u_l and exact
    cross-orthogonality, preserving every reconstruction bit for bit up to
    round-off.

    Steps: QR on u_g (v_g absorbs the triangular factor), exact deflation of
    u_l against u_g with the matching v_g compensation, then QR on u_l.
    """
    q_g, r_g = sign_fixed_qr(est.u_g)
    v_g = [v @ r_g.T for v in est.v_g]
    u_l, v_l = [], []
    for i in range(est.n_sources):
        ul_old = est.u_l[i]
        g = q_g.T @ ul_old
        ul = ul_old - q_g @ g
        v_g[i] = v_g[i] + est.v_l[i] @ g.T
        q_l, r_l = sign_fixed_qr(ul)
        u_l.append(q_l)
        v_l.append(est.v_l[i] @ r_l.T)
    return FactorEstimate(u_g=q_g, v_g=v_g, u_l=u_l, v_l=v_l)


def kkt_residuals(est: FactorEstimate, matrices) -> KktResidualReport:
    """First-order residuals of the constrained least-squares problem.

    The estimate is renormalized first so the multiplier-free stationarity
    conditions apply: with D_i = L_i - M_i, the blocks are sum_i D_i v_g[i]
    (shared), D_i v_l[i], D_i^T u_l[i] and D_i^T u_g per source, plus the
    worst violation among u_g^T u_g = I, u_l^T u_l = I and u_l^T u_g = 0.
    """
    mats = [as_matrix(m) for m in matrices]
    if len(mats) != est.n_sources:
        raise DimensionError("estimate and data have different source counts")
    est = renormalize(est)
    eye_g = np.eye(est.r1)
    shared = None
    r_vl = r_ug = r_ul = r_orth = 0.0
    r_orth = linf(est.u_g.T @ est.u_g - eye_g)
    for i, m in enumerate(mats):
        d = est.reconstruction(i) - m
        contrib = d @ est.v_g[i]
        shared = contrib if shared is None else shared + contrib
        r_vl = max(r_vl, float(np.linalg.norm(d @ est.v_l[i])))
        r_ul = max(r_ul, float(np.linalg.norm(d.T @ est.u_l[i])))
        r_ug = max(r_ug, float(np.linalg.norm(d.T @ est.u_g)))
        ul = est.u_l[i]
        r_orth = max(r_orth, linf(ul.T @ ul - np.eye(ul.shape[1])), linf(ul.T @ est.u_g))
    r_vg = float(np.linalg.norm(shared)) if shared is not None else 0.0
    return KktResidualReport(r_vg=r_vg, r_vl=r_vl, r_ug=r_ug, r_ul=r_ul, r_orth=r_orth)
