"""Gradient-descent factorization backend with per-iteration orthogonality
correction.

Objective over sources i (beta >= 0):

    sum_i  0.5 * ||M_i - u_g v_g[i]^T - u_l[i] v_l[i]^T||_F^2
         + 0.5 * beta * (||u_g^T u_g - I||_F^2 + ||u_l[i]^T u_l[i] - I||_F^2)

Each iteration first corrects every source, replacing u_l[i] by its component
orthogonal to u_g and compensating v_g[i] so the reconstruction is untouched,
then takes one gradient step per block.  The shared factor moves as the
average of the per-source updated copies, accumulated in ascending source
order.  The solver keeps the sources as stacked arrays (N, n1, w), w the
widest source, with narrower sources zero-padded: padded columns of the data
and padded rows of v_g, v_l start at zero and their gradients stay zero.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, SingularityError
from .jimf import FactorEstimate, JimfRequest, ObjectiveTrace, spectral_init
from .numerics import RANK_RTOL, as_matrix


@dataclass(frozen=True)
class HmfParams:
    step_size: float = 5e-3
    iterations: int = 500
    beta: float = 1e-5

    def __post_init__(self):
        if self.step_size < 0.0:
            raise ConfigurationError("step_size must be nonnegative")
        if self.iterations < 0:
            raise ConfigurationError("iterations must be nonnegative")
        if self.beta < 0.0:
            raise ConfigurationError("beta must be nonnegative")


def _frob_sq(a) -> float:
    return float(np.sum(a * a))


def hmf_objective(est: FactorEstimate, matrices, beta: float) -> float:
    """Evaluate the objective above at the given estimate."""
    mats = [as_matrix(m) for m in matrices]
    gram_g = est.u_g.T @ est.u_g
    reg_g = 0.5 * beta * _frob_sq(gram_g - np.eye(est.r1))
    total = 0.0
    for i, m in enumerate(mats):
        resid = m - est.reconstruction(i)
        ul = est.u_l[i]
        gram_l = ul.T @ ul
        total += 0.5 * _frob_sq(resid) + reg_g
        total += 0.5 * beta * _frob_sq(gram_l - np.eye(ul.shape[1]))
    return total


def hmf_gradients(est: FactorEstimate, source_index: int, matrix, beta: float):
    """Gradient blocks (u_g, v_g, u_l, v_l) of the source's term.

    With E = u_g v_g^T + u_l v_l^T - M:
        d/du_g = E v_g + 2 beta u_g (u_g^T u_g - I)
        d/dv_g = E^T u_g
        d/du_l = E v_l + 2 beta u_l (u_l^T u_l - I)
        d/dv_l = E^T u_l
    """
    m = as_matrix(matrix)
    u_g = est.u_g
    v_g = est.v_g[source_index]
    u_l = est.u_l[source_index]
    v_l = est.v_l[source_index]
    e = u_g @ v_g.T + u_l @ v_l.T - m
    g_u_g = e @ v_g + 2.0 * beta * (u_g @ (u_g.T @ u_g - np.eye(u_g.shape[1])))
    g_v_g = e.T @ u_g
    g_u_l = e @ v_l + 2.0 * beta * (u_l @ (u_l.T @ u_l - np.eye(u_l.shape[1])))
    g_v_l = e.T @ u_l
    return g_u_g, g_v_g, g_u_l, g_v_l


def _check_full_rank(u_g: np.ndarray):
    if u_g.shape[1] == 0:
        return
    try:
        sv = np.linalg.svd(u_g, compute_uv=False)
    except np.linalg.LinAlgError as err:
        raise SingularityError(f"shared factor has no SVD ({err}); cannot correct") from err
    if sv[0] == 0.0 or sv[-1] <= RANK_RTOL * sv[0]:
        raise SingularityError("shared factor lost column rank; cannot correct")


def _correct_arrays(u_g, v_g, u_l, v_l):
    # returns (u_l_new, v_g_new); exact identity u_g v_g'^T + u_l' v_l^T ==
    # u_g v_g^T + u_l v_l^T by construction.  v_g, u_l, v_l may be stacks
    # (N, ., .) sharing the 2-D u_g.
    if u_g.shape[1] == 0 or u_l.shape[-1] == 0:
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
    _check_full_rank(est.u_g)
    ul, vg = _correct_arrays(est.u_g, est.v_g[source_index], est.u_l[source_index], est.v_l[source_index])
    v_g = list(est.v_g)
    u_l = list(est.u_l)
    v_g[source_index] = vg
    u_l[source_index] = ul
    return replace(est, v_g=v_g, u_l=u_l)


# one scope per solve: a diverging run overflows before ObjectiveTrace sees
# the non-finite objective, and numpy's warnings would bury DivergenceError
@np.errstate(over="ignore", invalid="ignore")
def hmf_solve(req: JimfRequest, params: HmfParams, objective_out: list | None = None) -> FactorEstimate:
    """Run the correct-then-step loop for params.iterations rounds.

    Starts from req.warm_start when given, otherwise from spectral_init.
    Records the objective once per iteration through ObjectiveTrace
    (appended to objective_out when provided), which raises DivergenceError
    under the shared rule; a shared factor that loses rank after runaway
    objective growth raises DivergenceError as well.  Ends with one extra
    correction pass so the returned estimate satisfies the orthogonality
    contract.
    """
    mats = [as_matrix(m) for m in req.matrices]
    start = req.warm_start if req.warm_start is not None else spectral_init(mats, req.r1, req.r2)
    n = len(mats)
    widths = [m.shape[1] for m in mats]
    w = max(widths)
    m_all = np.zeros((n, mats[0].shape[0], w))
    v_g = np.zeros((n, w, req.r1))
    v_l = np.zeros((n, w, req.r2))
    for i, width in enumerate(widths):
        m_all[i, :, :width] = mats[i]
        v_g[i, :width] = start.v_g[i]
        v_l[i, :width] = start.v_l[i]
    u_g = start.u_g.copy()
    u_l = np.stack(start.u_l)
    eta = params.step_size
    beta = params.beta
    eye_g = np.eye(req.r1)
    eye_l = np.eye(req.r2)
    trace = ObjectiveTrace(objective_out)

    for _ in range(params.iterations):
        try:
            _check_full_rank(u_g)
            u_l, v_g = _correct_arrays(u_g, v_g, u_l, v_l)
        except SingularityError:
            # rank collapse after runaway growth is divergence, not bad input
            values = trace.values
            if values and values[-1] > 1e6 * max(values[0], 1e-300):
                trace.fail("shared factor collapsed while the objective grew")
            raise
        gram_g = u_g.T @ u_g
        reg_g_val = 0.5 * beta * _frob_sq(gram_g - eye_g)
        reg_g_grad = 2.0 * beta * (u_g @ (gram_g - eye_g))

        e = u_g @ v_g.swapaxes(-1, -2)
        e += u_l @ v_l.swapaxes(-1, -2)
        e -= m_all
        gram_l = u_l.swapaxes(-1, -2) @ u_l - eye_l
        # per-source objectives, then summed in source order
        objs = (
            0.5 * np.sum(e * e, axis=(1, 2))
            + reg_g_val
            + 0.5 * beta * np.sum(gram_l * gram_l, axis=(1, 2))
        )
        obj = sum(objs.tolist())
        cand = u_g - eta * (e @ v_g + reg_g_grad)
        v_g = v_g - eta * (e.swapaxes(-1, -2) @ u_g)
        u_l, v_l = (
            u_l - eta * (e @ v_l + 2.0 * beta * (u_l @ gram_l)),
            v_l - eta * (e.swapaxes(-1, -2) @ u_l),
        )
        u_g = cand.sum(axis=0) / n
        trace.record(obj)

    _check_full_rank(u_g)
    u_l, v_g = _correct_arrays(u_g, v_g, u_l, v_l)
    return FactorEstimate(
        u_g=u_g,
        v_g=[v_g[i, :width] for i, width in enumerate(widths)],
        u_l=list(u_l),
        v_l=[v_l[i, :width] for i, width in enumerate(widths)],
    )
