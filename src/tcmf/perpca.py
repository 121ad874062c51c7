"""Riemannian factorization backend: Stiefel gradient steps with a QR
retraction.

Works on the covariances S_i = M_i M_i^T (the problem's Gram stack), so the
per-iteration cost does not depend on the column counts.  Each iteration
takes a variance-ascent step along the projected covariance directions,
then two sign-fixed QR steps: the shared basis becomes the orthonormal
factor of the average of its stepped per-source copies, and every stepped
local basis that of itself deflated against the new shared one.  The step,
the average and the deflation are right-equivariant and only the spans
reach the outputs, so the iterates span what the generalized polar
retraction (generalized_retraction) of each step would; only the bases
inside the spans differ.  Coefficient factors are read off as v = M^T u.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, SingularityError
from .jimf import ObjectiveTrace, _start, renormalize
from .model import FactorEstimate, ObservationSet
from .numerics import PSD_MIN_EIG, as_stack, inv_sqrt_psd, sign_fixed_qr

POWER_ITERATIONS = 20


@dataclass(frozen=True)
class PerpcaParams:
    step_size: float = 0.1
    iterations: int = 500  # a cap: the ObjectiveTrace stopping rule may end a solve sooner

    def __post_init__(self):
        if self.step_size < 0.0:
            raise ConfigurationError("step_size must be nonnegative")
        if self.iterations < 0:
            raise ConfigurationError("iterations must be nonnegative")


def generalized_retraction(u, v) -> np.ndarray:
    """Map the displaced basis u + v back onto the Stiefel manifold:
    (u + v) ((u + v)^T (u + v))^{-1/2}.  u and v may be stacks (..., n, r);
    each slice is retracted on its own."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim < 2:
        raise DimensionError(f"expected a matrix or a stack of matrices, got ndim={u.ndim}")
    if u.shape != v.shape:
        raise DimensionError("u and v must have the same shape")
    w = u + v
    try:
        # inv_sqrt_psd rejects NaN or Inf in w, or a Gram matrix that overflows
        b = inv_sqrt_psd(w.swapaxes(-1, -2) @ w)
    except SingularityError as err:
        raise SingularityError("u + v is rank deficient; retraction undefined") from err
    return w @ b


def _orthonormalize(x: np.ndarray) -> np.ndarray:
    # the q of sign_fixed_qr(x), unchecked; r_jj^2 <= PSD_MIN_EIG (the floor
    # inv_sqrt_psd puts on the Gram's eigenvalues) means rank deficient
    q, r = sign_fixed_qr(x)
    if np.any(np.diagonal(r, axis1=-2, axis2=-1) ** 2 <= PSD_MIN_EIG):
        raise SingularityError("stepped basis is rank deficient; retraction undefined")
    return q


def perpca_gradient(u_g, u_l, s) -> np.ndarray:
    """Projected covariance directions (I - u_g u_g^T - u_l u_l^T) S [u_g u_l].

    Assumes u_g and u_l are orthonormal and mutually orthogonal; the first
    r1 columns drive the shared basis, the rest the local one.  Any argument
    may be a stack (..., n, r); leading axes broadcast.
    """
    u_g = as_stack(u_g)
    u_l = as_stack(u_l)
    s = as_stack(s)
    lead = np.broadcast_shapes(u_g.shape[:-2], u_l.shape[:-2], s.shape[:-2])
    u_l = np.broadcast_to(u_l, lead + u_l.shape[-2:])
    joint = np.concatenate((np.broadcast_to(u_g, lead + u_g.shape[-2:]), u_l), axis=-1)
    return _gradient(u_g, u_l, s @ joint)


def _gradient(u_g: np.ndarray, u_l: np.ndarray, stacked: np.ndarray) -> np.ndarray:
    # perpca_gradient without its input checks, from the product S [u_g u_l]
    shared = u_g @ (u_g.swapaxes(-1, -2) @ stacked)
    return stacked - shared - u_l @ (u_l.swapaxes(-1, -2) @ stacked)


def _lambda_max(c: np.ndarray) -> float:
    # deterministic power iteration; only used to scale the step size
    n = c.shape[0]
    if n == 0:
        return 0.0
    v = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(POWER_ITERATIONS):
        w = c @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
    return float(v @ (c @ v))


def perpca_solve(
    obs: ObservationSet,
    params: PerpcaParams,
    warm_start: FactorEstimate | None = None,
    callback=None,
) -> FactorEstimate:
    """Run the retraction loop for at most params.iterations rounds, from
    warm_start when given and from spectral_init otherwise; a warm start whose
    ranks or shapes do not fit obs raises DimensionError, one with NaN or Inf
    entries (or a Gram stack that overflows) ContractViolationError.  Each
    round is two
    sign-fixed QR steps (the shared basis, then the deflated local bases)
    whose spans equal those of the three polar retractions they replace, so
    only the bases inside each span differ from that iteration; a stepped
    basis that loses rank raises SingularityError.

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
    orthogonal to the shared one.  Ends with an exact deflation plus QR pass
    on the local bases before the coefficients are read off.
    """
    mats = obs.matrices
    # warm starts from other backends are only near-orthonormal
    start = renormalize(_start(obs, warm_start))
    u_g, u_l = start.u_g, start.u_l
    r1 = obs.r1
    covs = obs.grams
    scale = max(_lambda_max(c) for c in covs)
    eta = params.step_size / scale if scale > 0.0 else 0.0
    total = float(np.trace(covs, axis1=-2, axis2=-1).sum())
    trace = ObjectiveTrace(scale=total)
    # [u_g u_l[i]] for every source, rewritten in place each round
    joint = np.concatenate((np.broadcast_to(u_g, u_l.shape[:-1] + (r1,)), u_l), axis=-1)
    stacked = covs @ joint

    for tau in range(params.iterations):
        grad = _gradient(u_g, u_l, stacked)
        u_g = _orthonormalize((u_g + eta * grad[..., :r1]).mean(axis=0))
        x = u_l + eta * grad[..., r1:]
        u_l = _orthonormalize(x - u_g @ (u_g.T @ x))
        joint[..., :r1] = u_g
        joint[..., r1:] = u_l
        stacked = covs @ joint
        stop = trace.record(total - float(np.sum(joint * stacked)))
        if callback is not None:
            callback(tau + 1, u_g, u_l)
        if stop:
            break

    u_l = sign_fixed_qr(u_l - u_g @ (u_g.T @ u_l))[0]
    v_g = [m.T @ u_g for m in mats]
    v_l = [m.T @ ul for m, ul in zip(mats, u_l)]
    return FactorEstimate(u_g=u_g, v_g=v_g, u_l=u_l, v_l=v_l)
