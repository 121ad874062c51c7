"""Dense linear-algebra primitives the rest of the package builds on.

Everything operates on finite float64 2-D arrays, or on stacks of them
(..., n, r) where a docstring says so.  numpy is the only backend; callers
never reach into LAPACK directly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DimensionError, SingularityError

ORTHO_TOL = 1e-10
RANK_RTOL = 1e-12
SYM_TOL = 1e-10
PSD_MIN_EIG = 1e-12


def as_stack(a) -> np.ndarray:
    """Return `a` as a float64 array of one or more matrices (ndim >= 2,
    matrix axes last), rejecting NaN and Inf entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim < 2:
        raise DimensionError(f"expected a matrix or a stack of matrices, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise ContractViolationError("matrix contains NaN or Inf entries")
    return m


def as_matrix(a) -> np.ndarray:
    """Return `a` as a float64 2-D array, rejecting NaN and Inf entries."""
    m = as_stack(a)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D array, got ndim={m.ndim}")
    return m


def linf(a) -> float:
    """Largest absolute entry; 0 for empty arrays."""
    return float(np.max(np.abs(a), initial=0.0))


@dataclass(frozen=True)
class ThinSVD:
    """Top-k singular triplets: u is (n, k), sigma is (k,), v is (m, k).

    Columns of u and v are orthonormal and sigma is nonnegative and
    nonincreasing; violations are rejected at construction.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        k = self.sigma.shape[0]
        if self.u.ndim != 2 or self.v.ndim != 2 or self.sigma.ndim != 1:
            raise DimensionError("ThinSVD parts have wrong dimensionality")
        if self.u.shape[1] != k or self.v.shape[1] != k:
            raise DimensionError("factor widths disagree with sigma length")
        if k and (np.any(np.diff(self.sigma) > 0) or self.sigma[-1] < 0):
            raise ContractViolationError("sigma must be nonnegative and nonincreasing")
        for f in (self.u, self.v):
            if k and linf(f.T @ f - np.eye(k)) > ORTHO_TOL:
                raise ContractViolationError("singular vectors are not orthonormal")

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.T


def truncated_svd(m, k: int) -> ThinSVD:
    """Best rank-k approximation factors of m.

    Sign convention: the largest-magnitude entry of each left singular vector
    is made positive (ties broken by first index), so repeated calls on the
    same input give bit-identical factors.
    """
    m = as_matrix(m)
    if not 0 <= k <= min(m.shape):
        raise DimensionError(f"k={k} out of range for shape {m.shape}")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    signs = _pivot_signs(u[:, :k])
    return ThinSVD(u=u[:, :k] * signs, sigma=s[:k], v=vt[:k].T * signs)


def top_eigenvectors(c, k: int) -> np.ndarray:
    """Top-k eigenvectors, in descending eigenvalue order, of a symmetric
    matrix or of every matrix in a stack (..., n, n), signed by
    truncated_svd's rule.  Like truncated_svd, raises DimensionError unless
    0 <= k <= n."""
    if not 0 <= k <= np.shape(c)[-1]:
        raise DimensionError(f"k={k} out of range for shape {np.shape(c)}")
    u = np.linalg.eigh(c)[1][..., ::-1][..., :k]
    return u * _pivot_signs(u)


def _pivot_signs(u) -> np.ndarray:
    # +-1 per column of u (..., n, k) that makes its largest-magnitude entry
    # (the first one on ties) positive
    if u.shape[-2] == 0:
        return np.ones(u.shape[-1])
    pivot = np.take_along_axis(u, np.argmax(np.abs(u), axis=-2)[..., None, :], axis=-2)
    return np.where(pivot < 0, -1.0, 1.0)


def sign_fixed_qr(a) -> tuple:
    """Thin QR of a 2-D array, or of every matrix in a stack (..., n, r),
    with the diagonal of r made nonnegative, so the factors are unique for
    full column rank input: returns (q, r) with q r == a and q orthonormal."""
    q, r = np.linalg.qr(a)
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d[d == 0] = 1.0
    return q * d[..., None, :], r * d[..., :, None]


def _inv_cholesky(gram: np.ndarray) -> np.ndarray:
    # L^-1, L L^T = gram, for a basis's Gram matrix (or stack) under the loops'
    # one rank rule: ContractViolationError if gram is not finite, SingularityError
    # if no factor or an L_jj^2 <= PSD_MIN_EIG * max_k gram_kk (relative: u_g is unscaled)
    try:
        chol = np.linalg.cholesky(gram)
        pivots = np.diagonal(chol, axis1=-2, axis2=-1) ** 2
        if (pivots > PSD_MIN_EIG * np.diagonal(gram, axis1=-2, axis2=-1).max(-1, keepdims=True, initial=0.0)).all():
            return np.linalg.inv(chol)
    except np.linalg.LinAlgError:
        pass
    finite = np.isfinite(gram).all()  # NaN or Inf always fails a test above
    raise SingularityError("basis lost column rank") if finite else ContractViolationError("Gram matrix is not finite")


def projection_onto(u) -> np.ndarray:
    """Orthogonal projector onto the column space of full-column-rank u."""
    u = as_matrix(u)
    n, r = u.shape
    if r == 0:
        return np.zeros((n, n))
    q, s, _ = np.linalg.svd(u, full_matrices=False)
    if s[-1] <= RANK_RTOL * s[0]:
        raise SingularityError("projection requires full column rank")
    p = q @ q.T
    return (p + p.T) / 2.0


def inv_sqrt_psd(a) -> np.ndarray:
    """Inverse principal square root of a symmetric positive-definite matrix,
    or of every matrix in a stack (..., n, n); every slice must pass the
    symmetry and definiteness checks."""
    a = as_stack(a)
    if a.shape[-2] != a.shape[-1]:
        raise DimensionError("inv_sqrt_psd needs square matrices")
    if linf(a - a.swapaxes(-1, -2)) >= SYM_TOL:
        raise ContractViolationError("matrix is not symmetric")
    sym = (a + a.swapaxes(-1, -2)) / 2.0  # kill round-off asymmetry before eigh
    w, q = np.linalg.eigh(sym)
    if np.any(w <= PSD_MIN_EIG):
        raise SingularityError("matrix is not positive definite")
    b = (q / np.sqrt(w)[..., None, :]) @ q.swapaxes(-1, -2)
    return (b + b.swapaxes(-1, -2)) / 2.0
