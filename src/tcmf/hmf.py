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
order.  The solver keeps the sources as stacked arrays (N, n1, w), w the
widest source, with narrower sources zero-padded: padded columns of the data
and padded rows of v_g, v_l start at zero and their gradients stay zero.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, SingularityError
from .jimf import ObjectiveTrace, _start, _terms
from .model import FactorEstimate, ObservationSet
from .numerics import RANK_RTOL, as_matrix


@dataclass(frozen=True)
class HmfParams:
    step_size: float = 5e-3
    iterations: int = 500  # a cap: the ObjectiveTrace stopping rule may end a solve sooner
    beta: float = 1e-5

    def __post_init__(self):
        if self.step_size < 0.0:
            raise ConfigurationError("step_size must be nonnegative")
        if self.iterations < 0:
            raise ConfigurationError("iterations must be nonnegative")
        if self.beta < 0.0:
            raise ConfigurationError("beta must be nonnegative")


def hmf_objective(est: FactorEstimate, matrices, beta: float) -> float:
    """Evaluate the objective above at the given estimate."""
    sources = zip(est.v_g, est.u_l, est.v_l, matrices, strict=True)
    return float(sum(_terms(est.u_g, *factors, as_matrix(m), beta)[0] for *factors, m in sources))


def hmf_gradients(est: FactorEstimate, source_index: int, matrix, beta: float):
    """Gradient blocks (u_g, v_g, u_l, v_l) of the source's term, as jimf._terms computes them."""
    i = source_index
    return _terms(est.u_g, est.v_g[i], est.u_l[i], est.v_l[i], as_matrix(matrix), beta)[1:]


def _correct_arrays(u_g, v_g, u_l, v_l):
    # returns (u_l_new, v_g_new); exact identity u_g v_g'^T + u_l' v_l^T ==
    # u_g v_g^T + u_l v_l^T by construction.  v_g, u_l, v_l may be stacks
    # (N, ., .) sharing the 2-D u_g.  Raises SingularityError when u_g has
    # lost column rank.
    if u_g.shape[1] == 0:
        return u_l, v_g
    try:
        sv = np.linalg.svd(u_g, compute_uv=False)
    except np.linalg.LinAlgError as err:
        raise SingularityError(f"shared factor has no SVD ({err}); cannot correct") from err
    if sv[0] == 0.0 or sv[-1] <= RANK_RTOL * sv[0]:
        raise SingularityError("shared factor lost column rank; cannot correct")
    if u_l.shape[-1] == 0:
        return u_l, v_g
    try:
        g = np.linalg.solve(u_g.T @ u_g, u_g.T @ u_l)
    except np.linalg.LinAlgError as err:
        raise SingularityError(f"shared factor Gram matrix is singular ({err}); cannot correct") from err
    return u_l - u_g @ g, v_g + v_l @ g.swapaxes(-1, -2)


def hmf_correct(est: FactorEstimate, source_index: int) -> FactorEstimate:
    """Restore u_g^T u_l[i] = 0 for one source without moving its
    reconstruction: u_l[i] loses its component along u_g and v_g[i] absorbs
    the matching coefficient shift."""
    ul, vg = _correct_arrays(est.u_g, est.v_g[source_index], est.u_l[source_index], est.v_l[source_index])
    v_g = list(est.v_g)
    u_l = est.u_l.copy()
    v_g[source_index] = vg
    u_l[source_index] = ul
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
    n = len(mats)
    widths = [m.shape[1] for m in mats]
    w = max(widths)
    m_all = np.zeros((n, mats[0].shape[0], w))
    v_g = np.zeros((n, w, obs.r1))
    v_l = np.zeros((n, w, obs.r2))
    for i, width in enumerate(widths):
        m_all[i, :, :width] = mats[i]
        v_g[i, :width] = start.v_g[i]
        v_l[i, :width] = start.v_l[i]
    # copies, so no output shares memory with the warm start even when no step moves it
    u_g, u_l = start.u_g.copy(), start.u_l.copy()
    eta = params.step_size
    trace = ObjectiveTrace(objective_out, scale=0.5 * float(np.sum(m_all * m_all)))

    for _ in range(params.iterations):
        try:
            u_l, v_g = _correct_arrays(u_g, v_g, u_l, v_l)
        except SingularityError:
            # rank collapse after runaway growth is divergence, not bad input
            values = trace.values[trace.start:]
            if values and values[-1] > 1e6 * max(values[0], 1e-300):
                trace.fail("shared factor collapsed while the objective grew")
            raise
        objs, g_u_g, g_v_g, g_u_l, g_v_l = _terms(u_g, v_g, u_l, v_l, m_all, params.beta)
        u_g = (u_g - eta * g_u_g).sum(axis=0) / n
        v_g = v_g - eta * g_v_g
        u_l = u_l - eta * g_u_l
        v_l = v_l - eta * g_v_l
        # per-source objectives, summed in source order
        if trace.record(sum(objs.tolist())):
            break

    u_l, v_g = _correct_arrays(u_g, v_g, u_l, v_l)
    return FactorEstimate(
        u_g=u_g,
        v_g=[v_g[i, :width] for i, width in enumerate(widths)],
        u_l=u_l,
        v_l=[v_l[i, :width] for i, width in enumerate(widths)],
    )
