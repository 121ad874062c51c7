"""Gradient-descent factorization backend with per-iteration orthogonality
correction.

Objective over sources i (beta >= 0):

    sum_i  0.5 * ||M_i - u_g v_g[i]^T - u_l[i] v_l[i]^T||_F^2
         + 0.5 * beta * (||u_g^T u_g - I||_F^2 + ||u_l[i]^T u_l[i] - I||_F^2)

Each iteration takes one gradient step per block, then corrects every
source (as the start was before the loop), replacing u_l[i] by its component
orthogonal to u_g and compensating v_g[i] so the reconstruction is untouched.
The objective and the gradient blocks come from jimf._terms, the one kernel
that hmf_objective, hmf_gradients and kkt_residuals also call, on the joint
factors [u_g u_l[i]] and [v_g[i] v_l[i]] of FactorEstimate.joint.  The
shared factor moves as the average of the per-source updated copies,
accumulated in ascending source order.

The step V <- V - eta (V U^T U - M_i^T U) and the correction V <- V T^-T
keep every v iterate of a solve in span[M_i^T v_g[i] v_l[i]], v_g[i] and
v_l[i] those of the start.  So the loop runs in each source's row-space
coordinates: q_i is the reduced Householder Q of that block, with
k_i = min(n2_i, n1 + r1 + r2) orthonormal columns, and the loop works on
M_i q_i and z_i = q_i^T V in place of M_i and V.  This is exact:
||U Z^T - M q|| = ||U V^T - M||, the z gradient is q^T times the v gradient
and the u gradient is unchanged, so the correction, the objective and the
shared average are those of the full-width loop up to round-off.  This
saves work only when n2_i > n1 + r1 + r2: beyond that the cost of an
iteration does not grow with n2, while below it q_i is square and the loop
works in rotated coordinates.  v_i = q_i z_i is read off once, at the end.
Narrower sources are zero-padded to the largest k_i: padded columns of
M_i q_i and padded rows of z_i start at zero and their gradients stay zero.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, ContractViolationError, DimensionError, SingularityError
from .jimf import ObjectiveTrace, _penalty, _start, _terms
from .model import FactorEstimate, ObservationSet
from .numerics import _inv_cholesky, as_matrix


@dataclass(frozen=True)
class HmfParams:
    step_size: float = 5e-3
    iterations: int = 500  # a cap: the ObjectiveTrace stopping rule may end a solve sooner
    beta: float = 1e-5

    def __post_init__(self):
        if not 0.0 <= self.step_size < np.inf:
            raise ConfigurationError("step_size must be nonnegative and finite")
        if self.iterations < 0:
            raise ConfigurationError("iterations must be nonnegative")
        if not 0.0 <= self.beta < np.inf:
            raise ConfigurationError("beta must be nonnegative and finite")


def hmf_objective(est: FactorEstimate, matrices, beta: float) -> float:
    """Evaluate the objective above at the given estimate (DimensionError unless the matrices fit it)."""
    mats = [as_matrix(m) for m in matrices]
    est.check_fits([m.shape for m in mats], "hmf_objective matrices")
    penalty = _penalty(est.r1, est.r2)
    return float(sum(_terms(u, v, m, beta, penalty)[0] for u, v, m in zip(*est.joint(), mats)))


def hmf_gradients(est: FactorEstimate, source_index: int, matrix, beta: float):
    """Gradient blocks (u_g, v_g, u_l, v_l) of the source's term, as jimf._terms computes them."""
    m = as_matrix(matrix)
    if not 0 <= source_index < est.n_sources or m.shape != (est.u_g.shape[0], est.v_g[source_index].shape[0]):
        raise DimensionError(f"source_index {source_index} and a {m.shape} matrix do not fit {est.n_sources} sources")
    r1 = est.r1
    u, v = est.joint()
    _, g_u, g_v = _terms(u[source_index], v[source_index], m, beta, _penalty(r1, est.r2))
    return g_u[:, :r1], g_v[:, :r1], g_u[:, r1:], g_v[:, r1:]


def _correct(u, v, r1):
    # the correction, in place, on (N, ., .) stacks of joint factors u = [u_g u_l] and
    # v = [v_g v_l] sharing u_g = u[0, :, :r1]: u_l loses its component along u_g and v_g
    # absorbs the shift g = (u_g^T u_g)^-1 u_g^T u_l, so u v^T is unchanged up to round-off.
    # One _inv_cholesky of the shared Gram matrix serves all sources and may raise
    if r1 == 0:
        return
    u_g = u[0, :, :r1]
    inv = _inv_cholesky(u_g.T @ u_g)
    g = inv.T @ (inv @ (u_g.T @ u[..., r1:]))
    u[..., r1:] -= u_g @ g
    v[..., :r1] += v[..., r1:] @ g.swapaxes(-1, -2)


def hmf_correct(est: FactorEstimate, source_index: int) -> FactorEstimate:
    """Restore u_g^T u_l[i] = 0 for one source without moving its reconstruction:
    u_l[i] loses its component along u_g and v_g[i] absorbs the matching coefficient
    shift.  Raises DimensionError for a missing source, SingularityError unless u_g
    has full column rank, ContractViolationError unless its Gram matrix is finite."""
    if not 0 <= source_index < est.n_sources:
        raise DimensionError(f"source_index {source_index} out of range for {est.n_sources} sources")
    u, v = est.joint()
    _correct(u[source_index : source_index + 1], v[source_index][None], est.r1)
    fixed = FactorEstimate.from_joint(u, v, est.r1)
    return replace(est, v_g=fixed.v_g, u_l=fixed.u_l)


# one scope per solve: a diverging run overflows before ObjectiveTrace sees
# the non-finite objective, and numpy's warnings would bury DivergenceError
@np.errstate(over="ignore", invalid="ignore")
def hmf_solve(
    obs: ObservationSet,
    params: HmfParams,
    warm_start: FactorEstimate | None = None,
    objective_out: list | None = None,
) -> FactorEstimate:
    """Run at most params.iterations step-then-correct rounds from a corrected start.

    Starts from warm_start when given, otherwise from spectral_init; a warm
    start whose ranks or shapes do not fit obs raises DimensionError, one
    with NaN or Inf entries ContractViolationError, one whose u_g, or any
    corrected u_l[i], lacks full column rank SingularityError.  The loop
    runs in row-space coordinates (module docstring) and records the
    objective once per round through ObjectiveTrace (into objective_out when
    given), with scale 0.5 sum_i ||M_i||^2, the objective at zero factors:
    it stops under the shared stopping rule, and raises DivergenceError
    under the shared divergence rule or when a stepped u_g loses column
    rank.  Every round ends corrected, so the estimate meets the
    orthogonality contract.
    """
    # the joint start, new arrays that share no memory with the warm start
    u, v = _start(obs, warm_start)
    n, r1, r = obs.n_sources, obs.r1, obs.r1 + obs.r2
    # q_i, the reduced Householder Q of [M_i^T v_g[i] v_l[i]] (module docstring),
    # with min(n2_i, n1 + r) columns; one pass over the problem matrices M_i
    k = max(min(m.shape[1], obs.n1 + r) for m in obs.matrices)
    m_q = np.zeros((n, obs.n1, k))
    z = np.zeros((n, k, r))
    bases, total = [], 0.0
    for i, vi in enumerate(v):
        m = obs.problem_matrix(i)
        q = np.linalg.qr(np.hstack((m.T, vi)))[0]
        bases.append(q)
        m_q[i, :, : q.shape[1]] = m @ q
        z[i, : q.shape[1]] = q.T @ vi
        total += float(np.sum(m * m))
    eta = params.step_size
    penalty = _penalty(r1, obs.r2)
    trace = ObjectiveTrace(objective_out, scale=0.5 * total)

    _correct(u, z, r1)
    # the corrected start's local bases meet the loops' rank rule, as perpca's start does
    _inv_cholesky(u[..., r1:].swapaxes(-1, -2) @ u[..., r1:])
    for _ in range(params.iterations):
        objs, g_u, g_z = _terms(u, z, m_q, params.beta, penalty)
        u = u - eta * g_u
        u[..., :r1] = u[..., :r1].sum(axis=0) / n
        z = z - eta * g_z
        # per-source objectives, summed in source order
        stop = trace.record(sum(objs.tolist()))
        try:
            _correct(u, z, r1)
        except ContractViolationError:
            trace.record(np.inf)  # the next objective: raises DivergenceError
        except SingularityError:
            trace.fail("shared factor lost column rank")
        if stop:
            break

    return FactorEstimate.from_joint(u, [q @ zi[: q.shape[1]] for q, zi in zip(bases, z)], r1)
