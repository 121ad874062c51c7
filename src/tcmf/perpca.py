"""Riemannian factorization backend: Stiefel gradient steps with a QR
retraction.

Works on the covariances S_i = M_i M_i^T (the problem's Gram stack), so the
per-iteration cost does not depend on the column counts.  The iterate is the
(N, n1, r1 + r2) stack of joint bases [u_g u_l[i]], orthonormalized at the
start by the one Cholesky QR every iteration ends on.  Each iteration takes a
variance-ascent step along the projected covariance directions, replaces the
shared columns of every source by their average, and orthonormalizes the
stack: the shared columns become the orthonormal factor of the averaged
shared step, and every local block that of its step deflated against the
new shared basis.  The step, the average and the deflation are
right-equivariant and only the spans reach the outputs, so the iterates span
what the generalized polar retraction w (w^T w)^{-1/2} of each step w would;
only the bases inside the spans differ, as
test_perpca.py::test_solve_tracks_the_polar_retraction_subspaces checks.
Coefficient factors are read off the last iterate as v = M^T u.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolationError, SingularityError
from .jimf import ObjectiveTrace, _start
from .model import FactorEstimate, ObservationSet
from .numerics import _inv_cholesky

POWER_ITERATIONS = 20


@dataclass(frozen=True)
class PerpcaParams:
    step_size: float = 0.1
    iterations: int = 500  # a cap: the ObjectiveTrace stopping rule may end a solve sooner

    def __post_init__(self):
        if not 0.0 <= self.step_size < np.inf:
            raise ConfigurationError("step_size must be nonnegative and finite")
        if self.iterations < 0:
            raise ConfigurationError("iterations must be nonnegative")


def _orthonormalize(x: np.ndarray) -> np.ndarray:
    # the q of sign_fixed_qr(x) by one Cholesky QR under the shared rank rule.
    # Its round-off grows as cond(x)^2.  A loop step is orthogonal to the
    # bases it leaves (x^T x = I + eta^2 G^T G >= I) until the shared average
    # adds O(eta) cross terms, so cond(x) stays near 1, as for a near-orthonormal start
    return x @ _inv_cholesky(x.swapaxes(-1, -2) @ x).swapaxes(-1, -2)


def _gradient(joint: np.ndarray, stacked: np.ndarray) -> np.ndarray:
    # the projected covariance directions (I - U U^T) S U, from the orthonormal
    # U = [u_g u_l] and S U; the first r1 columns drive the shared basis
    return stacked - joint @ (joint.swapaxes(-1, -2) @ stacked)


def _lambda_max(c: np.ndarray) -> float:
    # the largest eigenvalue over a stack (..., n, n), by a deterministic
    # power iteration on every slice at once; only used to scale the step
    # size.  A slice whose iterate vanishes stays at zero and reads 0
    n = c.shape[-1]
    if n == 0:
        return 0.0
    v = np.full(c.shape[:-1] + (1,), 1.0 / np.sqrt(n))
    for _ in range(POWER_ITERATIONS):
        w = c @ v
        norm = np.linalg.norm(w, axis=-2, keepdims=True)
        v = np.divide(w, norm, out=np.zeros_like(w), where=norm > 0.0)
    return float(np.max(v.swapaxes(-1, -2) @ (c @ v)))


# one scope per solve: a diverging step overflows before the objective does,
# and numpy's warnings would bury the DivergenceError that follows
@np.errstate(over="ignore", invalid="ignore")
def perpca_solve(
    obs: ObservationSet,
    params: PerpcaParams,
    warm_start: FactorEstimate | None = None,
    callback=None,
) -> FactorEstimate:
    """Run the retraction loop for at most params.iterations rounds, from
    warm_start when given and from spectral_init otherwise; a warm start whose
    ranks or shapes do not fit obs raises DimensionError, one with NaN or Inf
    entries (or a Gram stack that overflows) ContractViolationError, one
    whose [u_g u_l[i]] lack full column rank SingularityError.  The start's
    joint stack takes one Cholesky QR; so does each round's step of it after
    the shared average (module docstring), whose spans equal those of the
    three polar retractions they replace.  A stepped basis that loses column
    rank, or whose Gram matrix overflows, raises DivergenceError naming the
    round.

    The step size is params.step_size divided by the largest covariance
    eigenvalue across sources (estimated by power iteration), so the default
    works across data scales.  The objective, the variance left outside the
    fitted bases, is sum_i trace(K_i S_i K_i) with the projector
    K_i = I - U_i U_i^T, U_i = [u_g u_l[i]]; it is evaluated in O(n1^2 r) as
    sum_i trace(S_i) - sum(U_i * S_i U_i), with the traces taken once per
    solve and S_i U_i shared with the next gradient, and recorded through
    ObjectiveTrace with scale sum_i trace(S_i), the objective of empty bases:
    it raises DivergenceError under the shared divergence rule, and the loop
    ends, after that round's callback, under the shared stopping rule.
    callback(tau, u_g, u_l), u_l the (N, n1, r2) stack, is invoked after
    every iteration, when all bases are orthonormal and the local ones are
    orthogonal to the shared one; the coefficients are read off the last.
    """
    n, r1 = obs.n_sources, obs.r1
    joint = _orthonormalize(_start(obs, warm_start)[0])
    covs = obs.grams
    scale = _lambda_max(covs)
    eta = params.step_size / scale if scale > 0.0 else 0.0
    total = float(np.trace(covs, axis1=-2, axis2=-1).sum())
    trace = ObjectiveTrace(scale=total)
    stacked = covs @ joint

    for tau in range(params.iterations):
        step = joint + eta * _gradient(joint, stacked)
        step[..., :r1] = step[..., :r1].sum(axis=0) / n
        try:
            joint = _orthonormalize(step)
        except ContractViolationError:
            trace.record(np.inf)  # raises DivergenceError naming this round
        except SingularityError:
            trace.fail("stepped basis lost column rank", tau + 1)
        stacked = covs @ joint
        stop = trace.record(total - float(np.sum(joint * stacked)))
        if callback is not None:
            callback(tau + 1, joint[0, :, :r1], joint[..., r1:])
        if stop:
            break

    return FactorEstimate.from_joint(joint, [obs.problem_matrix(i).T @ u for i, u in enumerate(joint)], r1)
