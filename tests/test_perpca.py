import numpy as np
import pytest

from tcmf import (
    ObservationSet,
    PerpcaParams,
    generalized_retraction,
    perpca_gradient,
    perpca_solve,
    renormalize,
    spectral_init,
)
from tcmf.errors import ConfigurationError, ContractViolationError, DimensionError, SingularityError
from tcmf import perpca
from tcmf.numerics import PSD_MIN_EIG, linf, sign_fixed_qr
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
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    est = perpca_solve(obs, PerpcaParams(step_size=0.1, iterations=2000))
    assert tiny.product_error(est) <= 1e-3
    assert est.cross_orthogonality() < 1e-10


def test_solve_zero_iterations_returns_corrected_init(tiny):
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    est = perpca_solve(obs, PerpcaParams(step_size=0.1, iterations=0))
    start = spectral_init(obs)
    assert linf(est.u_g - start.u_g) < 1e-10
    assert est.cross_orthogonality() < 1e-10


def test_solve_zero_step_keeps_shared_basis(tiny):
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    seen = []
    perpca_solve(obs, PerpcaParams(step_size=0.0, iterations=10),
                 callback=lambda tau, u_g, u_l: seen.append(u_g.copy()))
    start = spectral_init(obs)
    for u_g in seen:
        assert linf(u_g - start.u_g) < 1e-12


def test_solve_orthogonality_after_every_iteration(tiny):
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    worst_self = []
    worst_cross = []

    def cb(tau, u_g, u_l):
        worst_self.append(linf(u_g.T @ u_g - np.eye(2)))
        for ul in u_l:
            worst_self.append(linf(ul.T @ ul - np.eye(2)))
            worst_cross.append(linf(u_g.T @ ul))

    est = perpca_solve(obs, PerpcaParams(step_size=0.1, iterations=300), callback=cb)
    assert len(worst_cross) == 300 * 3
    assert max(worst_self) < 1e-6
    assert max(worst_cross) < 1e-6
    assert est.cross_orthogonality() < 1e-10


def test_solve_warm_start_from_hmf_factors(tiny):
    # near-orthonormal warm starts from the other backend must be accepted
    from tcmf import HmfParams, hmf_solve

    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    rough = hmf_solve(obs, HmfParams(step_size=0.01, iterations=50, beta=1e-5))
    est = perpca_solve(obs, PerpcaParams(step_size=0.1, iterations=500), warm_start=rough)
    assert tiny.product_error(est) <= 1e-3


def test_solve_rejects_non_finite_loop_inputs(tiny):
    # the loop's kernels check nothing; a NaN warm start or covariances that
    # overflow are rejected before the first step, whatever the budget
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    est = tiny.exact_estimate()
    est.u_g[3, 1] = np.nan
    with pytest.raises(ContractViolationError):
        perpca_solve(obs, PerpcaParams(iterations=1), warm_start=est)
    huge = ObservationSet(matrices=[m * 1e160 for m in tiny.mats], r1=2, r2=2)
    with np.errstate(all="ignore"):
        with pytest.raises(ContractViolationError):
            perpca_solve(huge, PerpcaParams(iterations=1), warm_start=tiny.exact_estimate())
        with pytest.raises(ContractViolationError):
            perpca_solve(huge, PerpcaParams(iterations=0), warm_start=tiny.exact_estimate())


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
    nan_u = u.copy()
    nan_u[2, 4, 1] = np.nan
    with pytest.raises(ContractViolationError):
        generalized_retraction(nan_u, np.zeros_like(u))
    # finite entries whose Gram matrix overflows to Inf
    huge_u = u.copy()
    huge_u[0] *= 1e200
    with np.errstate(over="ignore"), pytest.raises(ContractViolationError):
        generalized_retraction(huge_u, np.zeros_like(u))
    with pytest.raises(DimensionError):
        generalized_retraction(u, v[:3])


def test_gradient_rejects_non_finite_and_non_matrix_input(tiny):
    u_g = tiny.exact_estimate().u_g
    u_l = orth(np.random.default_rng(7).standard_normal((10, 2)))
    cov = tiny.mats[0] @ tiny.mats[0].T
    for k in range(3):
        args = [u_g, u_l, cov]
        bad = args[k].copy()
        bad[1, 0] = np.nan
        args[k] = bad
        with pytest.raises(ContractViolationError):
            perpca_gradient(*args)
        args[k] = bad[:, 0]
        with pytest.raises(DimensionError):
            perpca_gradient(*args)


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
    # per-source primitives and the rank rule; the arithmetic is the same,
    # so bits must match
    obs = ObservationSet(matrices=uneven.mats, r1=2, r2=2)
    params = PerpcaParams(step_size=0.1, iterations=5)
    seen = []
    perpca_solve(obs, params, callback=lambda tau, u_g, u_l: seen.append((u_g, u_l)))

    def orthonormalize(x):
        q, r = sign_fixed_qr(x)
        assert np.all(np.diag(r) ** 2 > PSD_MIN_EIG)
        return q

    start = spectral_init(ObservationSet(matrices=uneven.mats, r1=2, r2=2))
    u_g = orth(start.u_g)
    u_l = [orth(ul - u_g @ (u_g.T @ ul)) for ul in start.u_l]
    covs = [m @ m.T for m in uneven.mats]
    eta = params.step_size / max(_lambda_max(c) for c in covs)
    assert len(seen) == 5
    for got_g, got_l in seen:
        acc = np.zeros_like(u_g)
        steps = []
        for i, c in enumerate(covs):
            grad = perpca_gradient(u_g, u_l[i], c)
            acc += u_g + eta * grad[:, :2]
            steps.append(u_l[i] + eta * grad[:, 2:])
        u_g = orthonormalize(acc / len(covs))
        u_l = [orthonormalize(x - u_g @ (u_g.T @ x)) for x in steps]
        assert np.array_equal(got_g, u_g)
        for a, b in zip(got_l, u_l):
            assert np.array_equal(a, b)


def _recorded_solve(monkeypatch, obs, params):
    # the objectives perpca_solve records and copies of the bases its
    # callback sees, one per iteration
    recorded, bases = [], []

    class Recording(perpca.ObjectiveTrace):
        def record(self, obj):
            recorded.append(obj)
            super().record(obj)

    monkeypatch.setattr(perpca, "ObjectiveTrace", Recording)
    perpca_solve(obs, params,
                 callback=lambda tau, u_g, u_l: bases.append((u_g.copy(), [u.copy() for u in u_l])))
    return recorded, bases


@pytest.mark.parametrize("instance,r1,r2", [
    ("tiny", 2, 2), ("uneven", 2, 2), ("tiny", 0, 2), ("tiny", 2, 0), ("uneven", 2, 1),
])
def test_solve_tracks_the_polar_retraction_subspaces(request, monkeypatch, instance, r1, r2):
    # the QR steps keep the spans of the three generalized polar retractions
    # (local step, shared step, deflation) they replaced, so the projectors
    # and the objective agree to round-off in every iteration
    mats = request.getfixturevalue(instance).mats
    obs = ObservationSet(matrices=mats, r1=r1, r2=r2)
    params = PerpcaParams(step_size=0.1, iterations=50)
    recorded, bases = _recorded_solve(monkeypatch, obs, params)

    start = renormalize(spectral_init(obs))
    u_g, u_l = start.u_g, np.stack(start.u_l)
    covs = np.stack([m @ m.T for m in mats])
    eta = params.step_size / max(_lambda_max(c) for c in covs)
    total = np.trace(covs, axis1=-2, axis2=-1).sum()
    assert len(recorded) == len(bases) == 50
    for obj, (got_g, got_l) in zip(recorded, bases):
        grad = perpca_gradient(u_g, u_l, covs)
        cand = u_g + eta * grad[..., :r1]
        u_l = generalized_retraction(u_l, eta * grad[..., r1:])
        u_g = generalized_retraction(u_g, cand.mean(axis=0) - u_g)
        u_l = generalized_retraction(u_l, -u_g @ (u_g.T @ u_l))
        want = total - np.sum(u_g * (covs @ u_g)) - np.sum(u_l * (covs @ u_l))
        assert linf(got_g @ got_g.T - u_g @ u_g.T) < 1e-10
        for a, b in zip(got_l, u_l):
            assert linf(a @ a.T - b @ b.T) < 1e-10
        assert abs(obj - want) < 1e-10


def test_orthonormalize_rejects_a_rank_deficient_slice():
    rng = np.random.default_rng(9)
    stack = rng.standard_normal((3, 7, 3))
    q = perpca._orthonormalize(stack)
    assert linf(q.swapaxes(-1, -2) @ q - np.eye(3)) < 1e-12
    stack[1, :, 2] = stack[1, :, 0]
    with pytest.raises(SingularityError):
        perpca._orthonormalize(stack)


def test_solve_loop_takes_no_eigendecomposition(tiny, monkeypatch):
    # the retraction is two QR steps; a loop that slides back to eigh (three
    # Gram-stack eigh calls per iteration with the polar retraction) fails
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    start = spectral_init(obs)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    perpca_solve(obs, PerpcaParams(step_size=0.1, iterations=20), warm_start=start)
    assert calls == []


@pytest.mark.parametrize("instance", ["tiny", "uneven"])
def test_objective_is_the_variance_outside_the_bases(request, monkeypatch, instance):
    # the solver records trace(S_i) - sum(U_i * S_i U_i); rebuild the
    # projector form sum_i trace(K_i S_i K_i) from the bases it reports.
    # r2 = 1 leaves one local direction of every source outside the fit, so
    # the objective stays far from zero and a relative check means something
    mats = request.getfixturevalue(instance).mats
    obs = ObservationSet(matrices=mats, r1=2, r2=1)
    recorded, bases = _recorded_solve(monkeypatch, obs, PerpcaParams(step_size=0.1, iterations=30))
    assert len(recorded) == len(bases) == 30
    for obj, (u_g, u_l) in zip(recorded, bases):
        want = 0.0
        for m, ul in zip(mats, u_l):
            k = np.eye(m.shape[0]) - u_g @ u_g.T - ul @ ul.T
            want += np.trace(k @ m @ m.T @ k)
        assert want > 1.0
        assert obj == pytest.approx(want, rel=1e-10, abs=0.0)
