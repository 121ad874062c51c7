"""Synthetic ground truth generation and identifiability diagnostics.

The data model: each observation M_i is the sum of a shared low-rank part
u_g v_g[i]^T, a source-specific low-rank part u_l[i] v_l[i]^T with
u_g^T u_l[i] = 0, and a sparse noise matrix s[i].
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolationError, DimensionError
from .numerics import as_matrix, linf, projection_onto, sign_fixed_qr, truncated_svd

INCOHERENCE_ORTHO_TOL = 1e-8
SIGMA_NONZERO_RTOL = 1e-12


@dataclass(frozen=True)
class SynthConfig:
    """Problem sizes and noise law for one synthetic instance."""

    n_sources: int
    n1: int
    n2: int
    r1: int
    r2: int
    noise_prob: float
    noise_magnitude: float
    seed: int

    def __post_init__(self):
        if self.n_sources < 1 or self.n1 < 1 or self.n2 < 1:
            raise DimensionError("n_sources, n1 and n2 must be positive")
        if self.r1 < 0 or self.r2 < 0:
            raise DimensionError("rank targets must be nonnegative")
        if self.r1 + self.r2 > min(self.n1, self.n2):
            raise DimensionError("need r1 + r2 <= min(n1, n2)")
        if not 0.0 <= self.noise_prob <= 1.0:
            raise ConfigurationError("noise_prob must lie in [0, 1]")
        if self.noise_magnitude <= 0.0:
            raise ConfigurationError("noise_magnitude must be positive")


@dataclass(frozen=True)
class GroundTruth:
    """True factors and sparse noise for every source."""

    u_g: np.ndarray
    v_g: list
    u_l: list
    v_l: list
    s: list

    @property
    def n_sources(self) -> int:
        return len(self.v_g)

    @property
    def n1(self) -> int:
        return self.u_g.shape[0]

    @property
    def r1(self) -> int:
        return self.u_g.shape[1]

    @property
    def r2(self) -> int:
        return self.u_l[0].shape[1]

    def low_rank(self, i: int) -> np.ndarray:
        return self.u_g @ self.v_g[i].T + self.u_l[i] @ self.v_l[i].T


@dataclass(frozen=True)
class ObservationSet:
    """The N observed matrices plus the rank targets used to factor them."""

    matrices: list
    r1: int
    r2: int

    def __post_init__(self):
        if not self.matrices:
            raise DimensionError("need at least one observation")
        n1 = self.matrices[0].shape[0]
        for m in self.matrices:
            if m.shape[0] != n1:
                raise DimensionError("all observations must share the row count")

    @property
    def n_sources(self) -> int:
        return len(self.matrices)

    @property
    def n1(self) -> int:
        return self.matrices[0].shape[0]


@dataclass(frozen=True)
class IdentifiabilityReport:
    alpha: float
    mu: float
    theta: float
    sigma_max: float
    sigma_min: float


def generate(cfg: SynthConfig) -> GroundTruth:
    """Draw a ground truth instance.

    u_g is an orthonormalized Gaussian basis; each u_l[i] is a Gaussian draw
    deflated against u_g and orthonormalized (twice, so the cross product is
    zero to near machine precision).  Coefficient factors v stay Gaussian.
    Noise entries are +/- noise_magnitude with equal probability on a
    Bernoulli(noise_prob) support.  The same seed reproduces the instance
    bit for bit.
    """
    rng = np.random.default_rng(cfg.seed)
    u_g = sign_fixed_qr(rng.standard_normal((cfg.n1, cfg.r1)))[0]
    v_g, u_l, v_l, s = [], [], [], []
    for _ in range(cfg.n_sources):
        raw = rng.standard_normal((cfg.n1, cfg.r2))
        deflated = sign_fixed_qr(raw - u_g @ (u_g.T @ raw))[0]
        deflated = sign_fixed_qr(deflated - u_g @ (u_g.T @ deflated))[0]
        u_l.append(deflated)
        v_g.append(rng.standard_normal((cfg.n2, cfg.r1)))
        v_l.append(rng.standard_normal((cfg.n2, cfg.r2)))
        mask = rng.random((cfg.n1, cfg.n2)) < cfg.noise_prob
        signs = np.where(rng.random((cfg.n1, cfg.n2)) < 0.5, -1.0, 1.0)
        s.append(np.where(mask, signs * cfg.noise_magnitude, 0.0))
    return GroundTruth(u_g=u_g, v_g=v_g, u_l=u_l, v_l=v_l, s=s)


def assemble_observations(gt: GroundTruth) -> ObservationSet:
    mats = [gt.low_rank(i) + gt.s[i] for i in range(gt.n_sources)]
    return ObservationSet(matrices=mats, r1=gt.r1, r2=gt.r2)


def measure_sparsity(s, tol: float = 0.0) -> float:
    """Smallest alpha such that every column of s has at most alpha*n1 nonzero
    entries and every row at most alpha*n2.

    An entry counts as nonzero iff |x| > tol; the default tol=0 matches
    synthetic data, which carries exact zeros.  Pass a small tol for data
    that went through lossy arithmetic.
    """
    s = as_matrix(s)
    n1, n2 = s.shape
    nz = np.abs(s) > tol
    col_frac = float(nz.sum(axis=0).max(initial=0)) / n1
    row_frac = float(nz.sum(axis=1).max(initial=0)) / n2
    return max(col_frac, row_frac)


def measure_incoherence(u) -> float:
    """mu such that max_i ||e_i^T u||_2 = mu * sqrt(r) / sqrt(n) for u (n, r)."""
    u = as_matrix(u)
    n, r = u.shape
    if r == 0:
        return 0.0
    if linf(u.T @ u - np.eye(r)) > INCOHERENCE_ORTHO_TOL:
        raise ContractViolationError("incoherence is defined for orthonormal columns")
    row_norms = np.linalg.norm(u, axis=1)
    return float(row_norms.max() * np.sqrt(n) / np.sqrt(r))


def measure_misalignment(u_l) -> float:
    """theta = 1 - lambda_max of the averaged projector onto the local spans.

    theta = 0 means some direction is shared by every local subspace; larger
    theta means the local subspaces point different ways, which is what lets
    the shared component be told apart from the local ones.
    """
    mats = [as_matrix(u) for u in u_l]
    if not mats:
        raise DimensionError("need at least one local factor")
    n = mats[0].shape[0]
    avg = np.zeros((n, n))
    for u in mats:
        avg += projection_onto(u)
    avg /= len(mats)
    top = float(np.linalg.eigvalsh((avg + avg.T) / 2.0)[-1])
    return min(max(1.0 - top, 0.0), 1.0)


def identifiability_report(gt: GroundTruth) -> IdentifiabilityReport:
    """Measure the constants that govern recoverability of the decomposition.

    alpha is the worst sparsity over sources, mu the worst incoherence over
    the singular-vector factors of every low-rank product, theta the local
    subspace misalignment, sigma_max/sigma_min the extreme nonzero singular
    values across all low-rank components.
    """
    alpha = max((measure_sparsity(si) for si in gt.s), default=0.0)
    mus = []
    sigmas = []
    for i in range(gt.n_sources):
        parts = (
            (gt.u_g @ gt.v_g[i].T, gt.r1),
            (gt.u_l[i] @ gt.v_l[i].T, gt.r2),
        )
        for prod, rank in parts:
            if rank == 0:
                continue
            svd = truncated_svd(prod, rank)
            mus.append(measure_incoherence(svd.u))
            mus.append(measure_incoherence(svd.v))
            sigmas.extend(svd.sigma.tolist())
    theta = measure_misalignment(gt.u_l)
    if sigmas:
        arr = np.asarray(sigmas)
        sigma_max = float(arr.max())
        nonzero = arr[arr > SIGMA_NONZERO_RTOL * max(sigma_max, 1.0)]
        sigma_min = float(nonzero.min()) if nonzero.size else 0.0
    else:
        sigma_max = sigma_min = 0.0
    return IdentifiabilityReport(
        alpha=alpha,
        mu=max(mus, default=0.0),
        theta=theta,
        sigma_max=sigma_max,
        sigma_min=sigma_min,
    )
