"""Gradient-descent factorization backend with per-iteration orthogonality
correction.

Objective over sources i (beta >= 0):

    sum_i  0.5 * ||M_i - u_g v_g[i]^T - u_l[i] v_l[i]^T||_F^2
         + 0.5 * beta * (||u_g^T u_g - I||_F^2 + ||u_l[i]^T u_l[i] - I||_F^2)

Each iteration first corrects every source, replacing u_l[i] by its component
orthogonal to u_g and compensating v_g[i] so the reconstruction is untouched,
then takes one gradient step per block.  The objective and the gradient
blocks come from jimf._terms, the one kernel that hmf_objective,
hmf_gradients and kkt_residuals also call.  The shared factor moves as the
average of the per-source updated copies, accumulated in ascending source
order.  The solver carries the joint factors [u_g u_l[i]] and
[v_g[i] v_l[i]] as one (N, ., r1 + r2) stack each.

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

from .errors import ConfigurationError, SingularityError
from .jimf import ObjectiveTrace, _joint, _penalty, _start, _terms
from .model import FactorEstimate, ObservationSet
from .numerics import RANK_RTOL, as_matrix


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
    """Evaluate the objective above at the given estimate."""
    penalty = _penalty(est.r1, est.r2)
    sources = zip(range(est.n_sources), matrices, strict=True)
    return float(sum(_terms(*_joint(est, i), as_matrix(m), beta, penalty)[0] for i, m in sources))


def hmf_gradients(est: FactorEstimate, source_index: int, matrix, beta: float):
    """Gradient blocks (u_g, v_g, u_l, v_l) of the source's term, as jimf._terms computes them."""
    r1 = est.r1
    _, g_u, g_v = _terms(*_joint(est, source_index), as_matrix(matrix), beta, _penalty(r1, est.r2))
    return g_u[:, :r1], g_v[:, :r1], g_u[:, r1:], g_v[:, r1:]


def _correct(u, v, r1):
    # the correction, in place, on joint factors u = [u_g u_l] and
    # v = [v_g v_l], or on (N, ., .) stacks of them whose first r1 columns of
    # u are one shared u_g: u_l loses its component along u_g and v_g absorbs
    # the matching shift, so u v^T is unchanged up to round-off.  Raises
    # SingularityError when u_g has lost column rank.
    if r1 == 0:
        return
    u_g = u[..., :r1] if u.ndim == 2 else u[0, :, :r1]
    try:
        sv = np.linalg.svd(u_g, compute_uv=False)
    except np.linalg.LinAlgError as err:
        raise SingularityError(f"shared factor has no SVD ({err}); cannot correct") from err
    if sv[0] == 0.0 or sv[-1] <= RANK_RTOL * sv[0]:
        raise SingularityError("shared factor lost column rank; cannot correct")
    if u.shape[-1] == r1:
        return
    try:
        g = np.linalg.solve(u_g.T @ u_g, u_g.T @ u[..., r1:])
    except np.linalg.LinAlgError as err:
        raise SingularityError(f"shared factor Gram matrix is singular ({err}); cannot correct") from err
    u[..., r1:] -= u_g @ g
    v[..., :r1] += v[..., r1:] @ g.swapaxes(-1, -2)


def hmf_correct(est: FactorEstimate, source_index: int) -> FactorEstimate:
    """Restore u_g^T u_l[i] = 0 for one source without moving its
    reconstruction: u_l[i] loses its component along u_g and v_g[i] absorbs
    the matching coefficient shift."""
    r1 = est.r1
    u, v = _joint(est, source_index)
    _correct(u, v, r1)
    v_g = list(est.v_g)
    u_l = est.u_l.copy()
    v_g[source_index] = v[:, :r1]
    u_l[source_index] = u[:, r1:]
    return replace(est, v_g=v_g, u_l=u_l)


# one scope per solve: a diverging run overflows before ObjectiveTrace sees
# the non-finite objective, and numpy's warnings would bury DivergenceError
@np.errstate(over="ignore", invalid="ignore")
def hmf_solve(
    obs: ObservationSet,
    params: HmfParams,
    warm_start: FactorEstimate | None = None,
    objective_out: list | None = None,
) -> FactorEstimate:
    """Run the correct-then-step loop for at most params.iterations rounds.

    Starts from warm_start when given, otherwise from spectral_init; a warm
    start whose ranks or shapes do not fit obs raises DimensionError, one
    with NaN or Inf entries ContractViolationError.
    The loop runs in each source's row-space coordinates (module docstring).
    Records the objective once per iteration through ObjectiveTrace
    (appended to objective_out when provided) with scale 0.5 sum_i ||M_i||^2,
    the objective at zero factors: the loop ends under the shared stopping
    rule and raises DivergenceError under the shared divergence rule, as it
    does when a shared factor loses rank after runaway objective growth.
    Ends with one extra correction pass so the returned estimate satisfies
    the orthogonality contract.
    """
    mats = obs.matrices
    start = _start(obs, warm_start)
    n, r1 = len(mats), obs.r1
    v = [np.hstack((vg, vl)) for vg, vl in zip(start.v_g, start.v_l)]
    # q_i, the reduced Householder Q of [M_i^T v_g[i] v_l[i]] (module docstring)
    bases = [np.linalg.qr(np.hstack((m.T, vi)))[0] for m, vi in zip(mats, v)]
    k = max(q.shape[1] for q in bases)
    m_q = np.zeros((n, obs.n1, k))
    z = np.zeros((n, k, r1 + obs.r2))
    for i, q in enumerate(bases):
        m_q[i, :, : q.shape[1]] = mats[i] @ q
        z[i, : q.shape[1]] = q.T @ v[i]
    # [u_g u_l[i]] for every source, a new array that shares no memory with the warm start
    u = np.concatenate((np.broadcast_to(start.u_g, start.u_l.shape[:-1] + (r1,)), start.u_l), axis=-1)
    eta = params.step_size
    penalty = _penalty(r1, obs.r2)
    trace = ObjectiveTrace(objective_out, scale=0.5 * sum(float(np.sum(m * m)) for m in mats))

    for _ in range(params.iterations):
        try:
            _correct(u, z, r1)
        except SingularityError:
            # rank collapse after runaway growth is divergence, not bad input
            values = trace.values[trace.start:]
            if values and values[-1] > 1e6 * max(values[0], 1e-300):
                trace.fail("shared factor collapsed while the objective grew")
            raise
        objs, g_u, g_z = _terms(u, z, m_q, params.beta, penalty)
        u = u - eta * g_u
        u[..., :r1] = u[..., :r1].sum(axis=0) / n
        z = z - eta * g_z
        # per-source objectives, summed in source order
        if trace.record(sum(objs.tolist())):
            break

    _correct(u, z, r1)
    v = [q @ zi[: q.shape[1]] for q, zi in zip(bases, z)]
    return FactorEstimate(
        u_g=u[0, :, :r1],
        v_g=[vi[:, :r1] for vi in v],
        u_l=u[..., r1:],
        v_l=[vi[:, r1:] for vi in v],
    )
