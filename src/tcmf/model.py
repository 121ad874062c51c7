"""The data model, synthetic ground truth generation and identifiability
diagnostics.

The data model: each observation M_i is the sum of a shared low-rank part
u_g v_g[i]^T, a source-specific low-rank part u_l[i] v_l[i]^T with
u_g^T u_l[i] = 0, and a sparse noise matrix s[i], held as its support
(SparseParts).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, ContractViolationError, DimensionError
from .numerics import (RANK_RTOL, as_matrix, as_stack, check_orthonormal, column_basis, linf, projector,
                       sign_fixed_qr, truncated_svd)

INCOHERENCE_ORTHO_TOL = 1e-8


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
        if not 0.0 < self.noise_magnitude < np.inf:
            raise ConfigurationError("noise_magnitude must be positive and finite")
        if self.seed < 0:
            raise ConfigurationError("seed must be nonnegative")


@dataclass(frozen=True, eq=False)
class SparseParts:
    """Per-source sparse matrices held as their supports: each source's
    shape, the sorted C-order flat indices of its nonzero entries and their
    float64 values.  s[i] and iteration build a new dense C-ordered matrix
    on each read, +0.0 off the support: bit for bit the matrix the parts
    were built from, except that a -0.0 entry, being zero, reads back as
    +0.0.  Construction checks that each source has a 1-D index array,
    strictly increasing within its shape, and one value per index; values
    may be non-finite, as a diverging epoch thresholds overflowed residuals."""

    shapes: tuple
    indices: tuple
    values: tuple

    def __post_init__(self):
        if not len(self.shapes) == len(self.indices) == len(self.values):
            raise DimensionError("need one shape, index array and value array per source")
        for i, (shape, idx, vals) in enumerate(zip(self.shapes, self.indices, self.values), start=1):
            idx, size = np.asarray(idx), math.prod(shape)
            if idx.ndim != 1 or np.shape(vals) != idx.shape:
                raise DimensionError(f"source {i}: need a 1-D index array and one value per index")
            if idx.size and not (0 <= idx[0] and idx[-1] < size and np.all(idx[1:] > idx[:-1])):
                raise ContractViolationError(f"source {i}: indices must strictly increase within [0, {size})")

    @classmethod
    def from_dense(cls, mats, lam: float = 0.0) -> "SparseParts":
        """The parts of an iterable of matrices, keeping the entries with
        |m_ij| > lam (lam = 0 keeps the nonzeros; NaN is above no threshold).
        Each matrix is released before the next is drawn, so a generator of
        them never holds two dense matrices at once."""
        shapes, indices, values = [], [], []
        for m in mats:
            m = np.asarray(m, dtype=np.float64)
            if m.ndim != 2:
                raise DimensionError(f"a sparse part must be a matrix, got ndim={m.ndim}")
            # |m| > lam without a float temporary the size of m
            idx = np.flatnonzero((m > lam) | (m < -lam))
            shapes.append(m.shape)
            indices.append(idx)
            values.append(m.take(idx))
            del m
        return cls(tuple(shapes), tuple(indices), tuple(values))

    def __len__(self) -> int:
        return len(self.shapes)

    def __getitem__(self, i: int) -> np.ndarray:
        m = np.zeros(self.shapes[i])
        m.put(self.indices[i], self.values[i])
        return m

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @property
    def support_sizes(self) -> list:
        return [idx.size for idx in self.indices]


@dataclass(frozen=True)
class FactorEstimate:
    """Shared factor u_g plus per-source factors v_g, u_l, v_l: source i is
    represented as u_g v_g[i]^T + u_l[i] v_l[i]^T.  u_l is one float64
    stack (N, n1, r2), converted once on construction (a list of matrices is
    accepted); v_g and v_l stay lists, as their rows follow each source's width."""

    u_g: np.ndarray
    v_g: list
    u_l: np.ndarray
    v_l: list

    def __post_init__(self):
        n = len(self.v_g)
        if n == 0 or len(self.u_l) != n or len(self.v_l) != n:
            raise DimensionError("need at least one source, each with v_g, u_l and v_l")
        if any(np.ndim(a) != 2 for a in (self.u_g, *self.v_g, *self.u_l, *self.v_l)):
            raise DimensionError("every factor must be a matrix")
        (n1, r1), r2 = self.u_g.shape, self.u_l[0].shape[1]
        for i, (vg, ul, vl) in enumerate(zip(self.v_g, self.u_l, self.v_l), start=1):
            if ul.shape != (n1, r2) or vg.shape[1] != r1 or vl.shape != (vg.shape[0], r2):
                shapes = f"u_l {ul.shape}, v_g {vg.shape}, v_l {vl.shape}"
                raise DimensionError(f"source {i}: {shapes} do not fit u_g {(n1, r1)}")
        object.__setattr__(self, "u_l", np.asarray(self.u_l, dtype=np.float64))

    def joint(self) -> tuple:
        """Every source's joint factors: a new (N, n1, r1 + r2) stack of
        [u_g u_l[i]] and the list of [v_g[i] v_l[i]]."""
        u = np.concatenate((np.broadcast_to(self.u_g, self.u_l.shape[:-1] + (self.r1,)), self.u_l), axis=-1)
        return u, [np.hstack(pair) for pair in zip(self.v_g, self.v_l)]

    @staticmethod
    def from_joint(u: np.ndarray, v: list, r1: int) -> "FactorEstimate":
        """The inverse of joint(): the estimate whose factors are views of
        the stack u and the list v split at column r1, u_g read off source 0."""
        v_g, v_l = [vi[:, :r1] for vi in v], [vi[:, r1:] for vi in v]
        return FactorEstimate(u_g=u[0, :, :r1], v_g=v_g, u_l=u[..., r1:], v_l=v_l)

    def check_fits(self, shapes: list, what: str):
        """Raise DimensionError, naming what, unless source i reconstructs
        to an array of shape shapes[i]."""
        got = [(self.u_g.shape[0], vg.shape[0]) for vg in self.v_g]
        if got != shapes:
            raise DimensionError(f"{what}: factors reconstruct to shapes {got}, expected {shapes}")

    @property
    def n_sources(self) -> int:
        return len(self.v_g)

    @property
    def r1(self) -> int:
        return self.u_g.shape[1]

    @property
    def r2(self) -> int:
        return self.u_l.shape[2]

    def reconstruction(self, i: int) -> np.ndarray:
        return self.u_g @ self.v_g[i].T + self.u_l[i] @ self.v_l[i].T

    def cross_orthogonality(self) -> float:
        """Worst |u_g^T u_l[i]| entry across sources."""
        return linf(self.u_g.T @ self.u_l)


@dataclass(frozen=True)
class GroundTruth(FactorEstimate):
    """True factors plus the sparse noise s[i] of every source, held as
    SparseParts: a list of matrices is converted once on construction, and
    parts already in support form are kept as they are; s[i] builds a new
    dense matrix on each read."""

    s: SparseParts

    def __post_init__(self):
        super().__post_init__()
        if not isinstance(self.s, SparseParts):
            object.__setattr__(self, "s", SparseParts.from_dense(self.s))
        self.check_fits(list(self.s.shapes), "ground truth vs its sparse noise")


@dataclass(frozen=True)
class ObservationSet:
    """The N observed matrices, stored as finite float64 2-D arrays (as
    as_matrix converts them), plus the rank targets used to factor them.
    The ranks must fit every source: r1 + r2 <= n1 and r1 + r2 <= each
    source's column count.  The matrices stay a list, since their widths
    may differ.

    The problem the solvers fit is the observations less a sparse part,
    none on construction and one set by less(s).  Solvers read source i's
    problem matrix through problem_matrix(i) and its Gram stack, the
    (N, n1, n1) array grams, built from those matrices one at a time."""

    matrices: list
    r1: int
    r2: int
    sparse: SparseParts | None = field(default=None, init=False)

    def __post_init__(self):
        object.__setattr__(self, "matrices", [as_matrix(m) for m in self.matrices])
        if not self.matrices:
            raise DimensionError("need at least one observation")
        n1 = self.matrices[0].shape[0]
        for m in self.matrices:
            if m.shape[0] != n1:
                raise DimensionError("all observations must share the row count")
        if self.r1 < 0 or self.r2 < 0:
            raise DimensionError("rank targets must be nonnegative")
        if self.r1 + self.r2 > n1:
            raise DimensionError("need r1 + r2 <= n1 for u_g to stay orthogonal to u_l")
        n2 = min(m.shape[1] for m in self.matrices)
        if self.r1 + self.r2 > n2:
            raise DimensionError(f"need r1 + r2 <= {n2}, the narrowest source's width")

    def less(self, s: SparseParts) -> "ObservationSet":
        """The problem M less s: these observations, shared as they are
        (not checked again), with s as the sparse part, in place of any this
        set holds.  Raises DimensionError unless s has one part per source,
        of that source's shape."""
        shapes = tuple(m.shape for m in self.matrices)
        if tuple(s.shapes) != shapes:
            raise DimensionError(f"sparse part has shapes {tuple(s.shapes)}, expected {shapes}")
        problem = object.__new__(ObservationSet)
        problem.__dict__.update(matrices=self.matrices, r1=self.r1, r2=self.r2, sparse=s)
        return problem

    def problem_matrix(self, i: int) -> np.ndarray:
        """Source i's problem matrix: M_i itself without a sparse part, else
        a new copy of M_i, laid out like it, whose entries on the part's
        support are m_ij - s_ij (built on each call)."""
        m = self.matrices[i]
        if self.sparse is None:
            return m
        idx = self.sparse.indices[i]
        c = m.copy(order="K")
        c.put(idx, m.take(idx) - self.sparse.values[i])
        return c

    @property
    def n_sources(self) -> int:
        return len(self.matrices)

    @property
    def n1(self) -> int:
        return self.matrices[0].shape[0]

    @cached_property
    def grams(self) -> np.ndarray:
        """The stack of C_i C_i^T, C_i = problem_matrix(i), built on first
        use one source at a time, read-only; overflow raises ContractViolationError."""
        grams = np.empty((self.n_sources, self.n1, self.n1))
        for i, g in enumerate(grams):
            c = self.problem_matrix(i)
            np.matmul(c, c.T, out=g)
        grams = as_stack(grams)
        grams.flags.writeable = False
        return grams


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
    mats = [gt.reconstruction(i) + gt.s[i] for i in range(gt.n_sources)]
    return ObservationSet(matrices=mats, r1=gt.r1, r2=gt.r2)


def measure_sparsity(s) -> float:
    """Smallest alpha such that every column of s has at most alpha*n1 nonzero
    entries and every row at most alpha*n2."""
    s = as_matrix(s)
    return _sparsity(s.shape, SparseParts.from_dense([s]).indices[0])


def _sparsity(shape: tuple, idx: np.ndarray) -> float:
    # measure_sparsity of the matrix of this shape whose nonzero entries sit
    # at the C-order flat indices idx, counted per row and column
    n1, n2 = shape
    rows, cols = np.divmod(idx, n2)
    col_frac = float(np.bincount(cols).max(initial=0)) / n1
    row_frac = float(np.bincount(rows).max(initial=0)) / n2
    return max(col_frac, row_frac)


def measure_incoherence(u) -> float:
    """mu such that max_i ||e_i^T u||_2 = mu * sqrt(r) / sqrt(n) for u (n, r)."""
    return _incoherence(check_orthonormal(as_matrix(u), INCOHERENCE_ORTHO_TOL))


def _incoherence(u) -> float:
    # measure_incoherence, the largest over a stack, of columns already checked
    # orthonormal; the largest row norm is the root of the largest squared one
    n, r = u.shape[-2:]
    return math.sqrt((u * u).sum(-1).max()) * math.sqrt(n) / math.sqrt(r) if r else 0.0


def measure_misalignment(u_l) -> float:
    """theta = 1 - lambda_max of the averaged projector onto the local spans
    of u_l, a stack (N, n1, r2) or a list of equal-shaped matrices.

    theta = 0 means some direction is shared by every local subspace; larger
    theta means the local subspaces point different ways, which is what lets
    the shared component be told apart from the local ones.  One SVD of the
    stack gives the bases; their projectors are summed one at a time.
    """
    if not len(u_l):
        raise DimensionError("need at least one local factor")
    avg = sum(map(projector, column_basis(u_l))) / len(u_l)
    top = float(np.linalg.eigvalsh(avg)[-1])
    return min(max(1.0 - top, 0.0), 1.0)


def identifiability_report(gt: GroundTruth) -> IdentifiabilityReport:
    """Measure the constants that govern recoverability of the decomposition.

    alpha is the worst sparsity over sources, mu the worst incoherence over
    the singular-vector factors of every low-rank product, theta the local
    subspace misalignment, sigma_max/sigma_min the extreme nonzero singular
    values across all low-rank components.  No product u v^T is formed:
    with thin QRs u = Q_u R_u, v = Q_v R_v (neither need be orthonormal),
    its singular triplets are those of the core R_u R_v^T, with the vectors
    mapped back through Q_u and Q_v.  Each part works on the (N, r, r) core
    stack; only v's QR and factor stay per source, as v follows its width.
    """
    alpha = max(map(_sparsity, gt.s.shapes, gt.s.indices), default=0.0)
    mus, sigmas = [], []
    for u, vs in ((gt.u_g, gt.v_g), (gt.u_l, gt.v_l)):
        n1, rank = u.shape[-2:]
        if rank > min(n1, *(v.shape[0] for v in vs)):
            raise DimensionError(f"rank {rank} out of range for n1 = {n1} and the narrowest source")
        q_u, r_u = np.linalg.qr(u)
        qr_v = [np.linalg.qr(v) for v in vs]
        core = truncated_svd(r_u @ np.swapaxes([r_v for _, r_v in qr_v], -1, -2), rank)
        mus.append(_incoherence(check_orthonormal(q_u @ core.u)))
        mus.extend(_incoherence(check_orthonormal(q_v @ c_v)) for (q_v, _), c_v in zip(qr_v, core.v))
        sigmas.append(core.sigma.ravel())
    sigmas = np.concatenate(sigmas)
    sigma_max = float(sigmas.max(initial=0.0))
    nonzero = sigmas[sigmas > RANK_RTOL * max(sigma_max, 1.0)]
    return IdentifiabilityReport(
        alpha=alpha,
        mu=max(mus),
        theta=measure_misalignment(gt.u_l),
        sigma_max=sigma_max,
        sigma_min=float(nonzero.min()) if nonzero.size else 0.0,
    )
