import numpy as np
import pytest

from tcmf import (
    JimfRequest,
    PerpcaParams,
    generalized_retraction,
    perpca_gradient,
    perpca_solve,
    spectral_init,
)
from tcmf.errors import ConfigurationError, ContractViolationError, DimensionError, SingularityError
from tcmf.numerics import linf
from tcmf.perpca import _lambda_max

from conftest import orth


def test_params_validation():
    PerpcaParams(step_size=0.0, iterations=0)
    with pytest.raises(ConfigurationError):
        PerpcaParams(step_size=-0.1)
    with pytest.raises(ConfigurationError):
        PerpcaParams(iterations=-5)


def test_retraction_identity_on_orthonormal():
    rng = np.random.default_rng(0)
    u = orth(rng.standard_normal((7, 3)))
    out = generalized_retraction(u, np.zeros_like(u))
    assert np.allclose(out, u, atol=1e-12)


def test_retraction_replaces_basis():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    out = generalized_retraction(e1, e2 - e1)
    assert np.allclose(out, e2, atol=1e-12)


def test_retraction_output_orthonormal():
    rng = np.random.default_rng(1)
    for _ in range(10):
        u = rng.standard_normal((8, 3))
        v = rng.standard_normal((8, 3))
        out = generalized_retraction(u, v)
        assert linf(out.T @ out - np.eye(3)) < 1e-8


def test_retraction_errors():
    with pytest.raises(DimensionError):
        generalized_retraction(np.eye(3), np.eye(2))
    u = np.ones((4, 2))
    with pytest.raises(SingularityError):
        generalized_retraction(u, -u)


def test_gradient_zero_when_bases_span_data(tiny):
    est = tiny.exact_estimate()
    s = tiny.mats[0] @ tiny.mats[0].T
    g = perpca_gradient(est.u_g, est.u_l[0], s)
    assert linf(g) < 1e-10


def test_gradient_zero_on_zero_data():
    rng = np.random.default_rng(2)
    u_g = orth(rng.standard_normal((6, 2)))
    u_l = orth(rng.standard_normal((6, 1)) - u_g @ (u_g.T @ rng.standard_normal((6, 1))))
    g = perpca_gradient(u_g, u_l, np.zeros((6, 6)))
    assert linf(g) == 0.0


def test_gradient_lives_in_orthogonal_complement(tiny):
    rng = np.random.default_rng(3)
    u_g = orth(rng.standard_normal((10, 2)))
    raw = rng.standard_normal((10, 2))
    u_l = orth(raw - u_g @ (u_g.T @ raw))
    s = tiny.mats[0] @ tiny.mats[0].T
    g = perpca_gradient(u_g, u_l, s)
    joint = np.hstack((u_g, u_l))
    p = joint @ joint.T
    assert linf(g - (np.eye(10) - p) @ g) < 1e-8


def test_solve_tiny_instance_reaches_tolerance(tiny):
    req = JimfRequest(matrices=tuple(tiny.mats), r1=2, r2=2)
    est = perpca_solve(req, PerpcaParams(step_size=0.1, iterations=2000))
    assert tiny.product_error(est) <= 1e-3
    assert est.cross_orthogonality() < 1e-10


def test_solve_zero_iterations_returns_corrected_init(tiny):
    req = JimfRequest(matrices=tuple(tiny.mats), r1=2, r2=2)
    est = perpca_solve(req, PerpcaParams(step_size=0.1, iterations=0))
    start = spectral_init(tiny.mats, 2, 2)
    assert linf(est.u_g - start.u_g) < 1e-10
    assert est.cross_orthogonality() < 1e-10


def test_solve_zero_step_keeps_shared_basis(tiny):
    req = JimfRequest(matrices=tuple(tiny.mats), r1=2, r2=2)
    seen = []
    perpca_solve(req, PerpcaParams(step_size=0.0, iterations=10),
                 callback=lambda tau, u_g, u_l: seen.append(u_g.copy()))
    start = spectral_init(tiny.mats, 2, 2)
    for u_g in seen:
        assert linf(u_g - start.u_g) < 1e-12


def test_solve_orthogonality_after_every_iteration(tiny):
    req = JimfRequest(matrices=tuple(tiny.mats), r1=2, r2=2)
    worst_self = []
    worst_cross = []

    def cb(tau, u_g, u_l):
        worst_self.append(linf(u_g.T @ u_g - np.eye(2)))
        for ul in u_l:
            worst_self.append(linf(ul.T @ ul - np.eye(2)))
            worst_cross.append(linf(u_g.T @ ul))

    est = perpca_solve(req, PerpcaParams(step_size=0.1, iterations=300), callback=cb)
    assert len(worst_cross) == 300 * 3
    assert max(worst_self) < 1e-6
    assert max(worst_cross) < 1e-6
    assert est.cross_orthogonality() < 1e-10


def test_solve_warm_start_from_hmf_factors(tiny):
    # near-orthonormal warm starts from the other backend must be accepted
    from tcmf import HmfParams, hmf_solve

    req = JimfRequest(matrices=tuple(tiny.mats), r1=2, r2=2)
    rough = hmf_solve(req, HmfParams(step_size=0.01, iterations=50, beta=1e-5))
    req2 = JimfRequest(matrices=tuple(tiny.mats), r1=2, r2=2, warm_start=rough)
    est = perpca_solve(req2, PerpcaParams(step_size=0.1, iterations=500))
    assert tiny.product_error(est) <= 1e-3


def test_retraction_stack_matches_slices_bitwise():
    rng = np.random.default_rng(4)
    u = rng.standard_normal((5, 8, 3))
    v = rng.standard_normal((5, 8, 3))
    out = generalized_retraction(u, v)
    assert out.shape == u.shape
    for i in range(5):
        assert np.array_equal(out[i], generalized_retraction(u[i], v[i]))


def test_retraction_stack_checks_every_slice():
    rng = np.random.default_rng(5)
    u = rng.standard_normal((4, 6, 2))
    v = np.zeros_like(u)
    v[1] = -u[1]  # u + v vanishes in one slice only
    with pytest.raises(SingularityError):
        generalized_retraction(u, v)
    v = np.zeros_like(u)
    v[3, 0, 0] = np.inf
    with pytest.raises(ContractViolationError):
        generalized_retraction(u, v)
    with pytest.raises(DimensionError):
        generalized_retraction(u, v[:3])


def test_gradient_stack_matches_slices_bitwise(tiny):
    est = tiny.exact_estimate()
    rng = np.random.default_rng(6)
    u_l = np.stack([orth(rng.standard_normal((10, 2))) for _ in range(3)])
    covs = np.stack([m @ m.T for m in tiny.mats])
    out = perpca_gradient(est.u_g, u_l, covs)
    assert out.shape == (3, 10, 4)
    for i in range(3):
        assert np.array_equal(out[i], perpca_gradient(est.u_g, u_l[i], covs[i]))


def test_solve_matches_per_source_reference(uneven):
    # the loop over sources the solver replaced, built from the public
    # per-source primitives; the arithmetic is the same, so bits must match
    req = JimfRequest(matrices=tuple(uneven.mats), r1=2, r2=2)
    params = PerpcaParams(step_size=0.1, iterations=5)
    seen = []
    perpca_solve(req, params, callback=lambda tau, u_g, u_l: seen.append((u_g, u_l)))

    start = spectral_init(uneven.mats, 2, 2)
    u_g = orth(start.u_g)
    u_l = [orth(ul - u_g @ (u_g.T @ ul)) for ul in start.u_l]
    covs = [m @ m.T for m in uneven.mats]
    eta = params.step_size / max(_lambda_max(c) for c in covs)
    for got_g, got_l in seen:
        acc = np.zeros_like(u_g)
        for i, c in enumerate(covs):
            grad = perpca_gradient(u_g, u_l[i], c)
            acc += u_g + eta * grad[:, :2]
            u_l[i] = generalized_retraction(u_l[i], eta * grad[:, 2:])
        u_g = generalized_retraction(u_g, acc / len(covs) - u_g)
        u_l = [generalized_retraction(ul, -u_g @ (u_g.T @ ul)) for ul in u_l]
        assert np.array_equal(got_g, u_g)
        for a, b in zip(got_l, u_l):
            assert np.array_equal(a, b)
