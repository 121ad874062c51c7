"""Shared instance builders for the test suite."""

import numpy as np
import pytest

from tcmf import FactorEstimate, truncated_svd


def orth(a):
    """Orthonormal basis with a deterministic sign convention."""
    q, r = np.linalg.qr(a)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d


class TinyInstance:
    """Noiseless joint+individual instance with equal nonzero singular values.

    All nonzero singular values equal `scale`, so gradient descent contracts
    every mode at the same rate and both backends hit machine precision well
    inside the documented iteration budgets.  n2 is one width for every
    source or a sequence of per-source widths (n is then its length).
    """

    def __init__(self, seed=3, n=3, n1=10, n2=20, r1=2, r2=2, scale=3.0):
        rng = np.random.default_rng(seed)
        self.r1 = r1
        self.r2 = r2
        self.u_g = orth(rng.standard_normal((n1, r1)))
        self.v_g = []
        self.u_l = []
        self.v_l = []
        self.mats = []
        widths = [n2] * n if np.isscalar(n2) else list(n2)
        for width in widths:
            ul = rng.standard_normal((n1, r2))
            ul = orth(ul - self.u_g @ (self.u_g.T @ ul))
            ul = orth(ul - self.u_g @ (self.u_g.T @ ul))
            v_all = orth(rng.standard_normal((width, r1 + r2))) * scale
            self.v_g.append(v_all[:, :r1].copy())
            self.v_l.append(v_all[:, r1:].copy())
            self.u_l.append(ul)
            self.mats.append(self.u_g @ v_all[:, :r1].T + ul @ v_all[:, r1:].T)

    @property
    def n_sources(self):
        return len(self.mats)

    def exact_estimate(self) -> FactorEstimate:
        return FactorEstimate(
            u_g=self.u_g.copy(),
            v_g=[v.copy() for v in self.v_g],
            u_l=[u.copy() for u in self.u_l],
            v_l=[v.copy() for v in self.v_l],
        )

    def product_error(self, est: FactorEstimate) -> float:
        return max(
            float(np.max(np.abs(est.reconstruction(i) - self.mats[i])))
            for i in range(self.n_sources)
        )


@pytest.fixture(scope="session")
def tiny():
    return TinyInstance()


@pytest.fixture(scope="session")
def uneven():
    return TinyInstance(seed=8, n1=12, n2=[30, 45, 20, 38])


def random_estimate(rng, n1, n2_list, r1, r2) -> FactorEstimate:
    """Unstructured factors; nothing orthonormal, nothing orthogonal."""
    return FactorEstimate(
        u_g=rng.standard_normal((n1, r1)),
        v_g=[rng.standard_normal((n2, r1)) for n2 in n2_list],
        u_l=[rng.standard_normal((n1, r2)) for _ in n2_list],
        v_l=[rng.standard_normal((n2, r2)) for n2 in n2_list],
    )


def svd_spectral_init(mats, r1, r2) -> FactorEstimate:
    """The spectral start as dense SVDs: u_g from the column-wise
    concatenation of the sources, u_l[i] from source i deflated against u_g,
    and v = M^T u."""
    u_g = truncated_svd(np.hstack(mats), r1).u
    u_l = [truncated_svd(m - u_g @ (u_g.T @ m), r2).u for m in mats]
    return FactorEstimate(
        u_g=u_g,
        v_g=[m.T @ u_g for m in mats],
        u_l=u_l,
        v_l=[m.T @ ul for m, ul in zip(mats, u_l)],
    )
