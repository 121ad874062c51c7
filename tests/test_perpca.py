import numpy as np
import pytest

from tcmf import ObservationSet, PerpcaParams, perpca_solve, renormalize, spectral_init
from tcmf.errors import ConfigurationError, ContractViolationError, DivergenceError, SingularityError
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
    # NaN fails every comparison; it used to reach the solve and fail there
    # as an overflowed objective
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigurationError, match="step_size must be nonnegative and finite"):
            PerpcaParams(step_size=bad)


def _gradient(u_g, u_l, s):
    # perpca._gradient at the joint basis [u_g u_l]; u_g is shared by every
    # slice of a stack u_l, and s is a matrix or a stack
    joint = np.concatenate((np.broadcast_to(u_g, u_l.shape[:-1] + u_g.shape[-1:]), u_l), axis=-1)
    return perpca._gradient(joint, s @ joint)


def test_gradient_zero_when_bases_span_data(tiny):
    est = tiny.exact_estimate()
    s = tiny.mats[0] @ tiny.mats[0].T
    g = _gradient(est.u_g, est.u_l[0], s)
    assert linf(g) < 1e-10


def test_gradient_zero_on_zero_data():
    rng = np.random.default_rng(2)
    u_g = orth(rng.standard_normal((6, 2)))
    u_l = orth(rng.standard_normal((6, 1)) - u_g @ (u_g.T @ rng.standard_normal((6, 1))))
    g = _gradient(u_g, u_l, np.zeros((6, 6)))
    assert linf(g) == 0.0


def test_gradient_lives_in_orthogonal_complement(tiny):
    rng = np.random.default_rng(3)
    u_g = orth(rng.standard_normal((10, 2)))
    raw = rng.standard_normal((10, 2))
    u_l = orth(raw - u_g @ (u_g.T @ raw))
    s = tiny.mats[0] @ tiny.mats[0].T
    g = _gradient(u_g, u_l, s)
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


@pytest.mark.parametrize("scale", [1e-8, 1e8])
def test_solve_start_is_scale_free(tiny, scale):
    # the start's Cholesky QR keeps only the spans and its rank rule is
    # relative, so a scaled warm start gives the unscaled estimate
    from tcmf import FactorEstimate, HmfParams, hmf_solve

    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    rough = hmf_solve(obs, HmfParams(step_size=0.01, iterations=20, beta=1e-5))
    scaled = FactorEstimate(u_g=rough.u_g * scale, v_g=rough.v_g, u_l=rough.u_l * scale, v_l=rough.v_l)
    params = PerpcaParams(step_size=0.1, iterations=30)
    want, got = perpca_solve(obs, params, warm_start=rough), perpca_solve(obs, params, warm_start=scaled)
    for a, b in zip([want.u_g, want.u_l, *want.v_g, *want.v_l], [got.u_g, got.u_l, *got.v_g, *got.v_l]):
        assert linf(a - b) < 1e-12


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


def test_gradient_stack_matches_slices_bitwise(tiny):
    est = tiny.exact_estimate()
    rng = np.random.default_rng(6)
    u_l = np.stack([orth(rng.standard_normal((10, 2))) for _ in range(3)])
    covs = np.stack([m @ m.T for m in tiny.mats])
    out = _gradient(est.u_g, u_l, covs)
    assert out.shape == (3, 10, 4)
    for i in range(3):
        assert np.array_equal(out[i], _gradient(est.u_g, u_l[i], covs[i]))


def test_solve_matches_per_source_reference(uneven):
    # the loop over sources the solver replaced, one source at a time: each
    # joint basis [u_g u_l[i]] steps along its own perpca._gradient, the
    # shared columns become their average accumulated in source order, and
    # every slice takes its own Cholesky QR under the rank rule; the
    # arithmetic is the same, so bits must match
    obs = ObservationSet(matrices=uneven.mats, r1=2, r2=2)
    params = PerpcaParams(step_size=0.1, iterations=5)
    seen = []
    perpca_solve(obs, params, callback=lambda tau, u_g, u_l: seen.append((u_g, u_l)))

    def orthonormalize(x):
        chol = np.linalg.cholesky(x.T @ x)
        assert np.all(np.diag(chol) ** 2 > PSD_MIN_EIG)
        return x @ np.linalg.inv(chol).T

    # the start is each source's Cholesky QR of [u_g u_l[i]], as every round's
    start = spectral_init(ObservationSet(matrices=uneven.mats, r1=2, r2=2))
    joints = [orthonormalize(np.hstack((start.u_g, ul))) for ul in start.u_l]
    covs = [m @ m.T for m in uneven.mats]
    eta = params.step_size / max(_lambda_max(c) for c in covs)
    assert len(seen) == 5
    for got_g, got_l in seen:
        steps = [j + eta * perpca._gradient(j, c @ j) for j, c in zip(joints, covs)]
        acc = np.zeros_like(start.u_g)
        for x in steps:
            acc += x[:, :2]
        for x in steps:
            x[:, :2] = acc / len(steps)
        joints = [orthonormalize(x) for x in steps]
        assert np.array_equal(got_g, joints[0][:, :2])
        for a, j in zip(got_l, joints):
            assert np.array_equal(a, j[:, 2:])


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


def _polar(u, v):
    # the generalized polar retraction (u + v) ((u + v)^T (u + v))^{-1/2}, slice by slice
    w = u + v
    lam, q = np.linalg.eigh(w.swapaxes(-1, -2) @ w)
    return w @ (q / np.sqrt(lam)[..., None, :]) @ q.swapaxes(-1, -2)


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
        grad = _gradient(u_g, u_l, covs)
        cand = u_g + eta * grad[..., :r1]
        u_l = _polar(u_l, eta * grad[..., r1:])
        u_g = _polar(u_g, cand.mean(axis=0) - u_g)
        u_l = _polar(u_l, -u_g @ (u_g.T @ u_l))
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


def test_solve_rank_loss_is_divergence_naming_the_round(tiny, monkeypatch):
    # a stepped basis that loses column rank ends the solve as divergence:
    # round 3's gradient drives every column onto the first one
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    real = perpca._gradient
    rounds = []

    def collapsing(joint, stacked):
        rounds.append(None)
        if len(rounds) == 3:
            return 1e30 * np.repeat(joint[..., :1], joint.shape[-1], axis=-1)
        return real(joint, stacked)

    monkeypatch.setattr(perpca, "_gradient", collapsing)
    with pytest.raises(DivergenceError, match="stepped basis lost column rank at inner iteration 3$") as info:
        perpca_solve(obs, PerpcaParams(step_size=0.1, iterations=10))
    assert len(info.value.objective_trace) == 2
    assert isinstance(info.value.__context__, SingularityError)


def test_solve_loop_takes_no_eigendecomposition(tiny, monkeypatch):
    # the retraction is one Cholesky QR; a loop that slides back to eigh (three
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


def _ill_conditioned(rng, shape, cond):
    # matrices of the given shape whose singular values span [1/cond, 1]
    *lead, n, r = shape
    u = np.linalg.qr(rng.standard_normal((*lead, n, r)))[0]
    w = np.linalg.qr(rng.standard_normal((*lead, r, r)))[0]
    return (u * np.logspace(0, -np.log10(cond), r)) @ w


@pytest.mark.parametrize("shape,cond", [
    ((9, 4), None), ((5, 9, 4), None), ((9, 0), None), ((5, 9, 0), None), ((5, 9, 4), 1e3),
], ids=["matrix", "stack", "no_columns", "stack_no_columns", "cond_1e3"])
def test_orthonormalize_matches_sign_fixed_qr(shape, cond):
    # Cholesky QR's factor equals the sign-fixed Householder one up to
    # round-off that grows as cond(x)^2 times the unit round-off; the loop's
    # steps have cond(x) near 1
    rng = np.random.default_rng(11)
    x = rng.standard_normal(shape) if cond is None else _ill_conditioned(rng, shape, cond)
    tol = 1e-12 if cond is None else cond**2 * 1e-14
    q = perpca._orthonormalize(x)
    assert q.shape == x.shape
    assert linf(q - sign_fixed_qr(x)[0]) < tol


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("step", [1e160, 1e300])
def test_solve_step_that_overflows_diverges_at_its_iteration(step):
    # a step this long overflows the stepped basis's Gram matrix in the first
    # round: that is divergence, named at its round, not a rank-deficient
    # basis, and no numpy warning comes before it
    rng = np.random.default_rng(13)
    obs = ObservationSet(matrices=[rng.standard_normal((10, 24)) for _ in range(3)], r1=2, r2=2)
    with pytest.raises(DivergenceError, match="at inner iteration 1$") as info:
        perpca_solve(obs, PerpcaParams(step_size=step, iterations=5))
    assert info.value.objective_trace == [np.inf]


def test_solve_loop_takes_one_cholesky_and_no_qr_per_iteration(tiny, monkeypatch):
    # the start and every round orthonormalize the whole joint stack with one
    # Cholesky factorization, and no QR is taken anywhere
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    counts = {}

    def counting(name):
        real = getattr(np.linalg, name)

        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, wrapped)

    counting("qr")
    counting("cholesky")
    for iterations in (5, 50):
        counts.clear()
        rounds = []
        perpca_solve(obs, PerpcaParams(step_size=0.1, iterations=iterations),
                     callback=lambda tau, u_g, u_l: rounds.append(tau))
        assert len(rounds) == iterations
        assert counts["cholesky"] == iterations + 1
        assert "qr" not in counts


def test_lambda_max_runs_every_slice_at_once():
    # the batched power steps give each slice's own estimate: the stack's
    # value is the largest per-slice one, a zero slice reads 0, and on a
    # clear eigengap twenty steps reach the top eigenvalue
    rng = np.random.default_rng(14)
    basis = np.linalg.qr(rng.standard_normal((4, 8, 8)))[0]
    eig = np.array([5.0, 9.0, 3.0, 7.0])[:, None] * np.geomspace(1.0, 0.01, 8)
    covs = (basis * eig[:, None, :]) @ basis.swapaxes(-1, -2)
    per_slice = [_lambda_max(c) for c in covs]
    assert _lambda_max(covs) == max(per_slice)
    assert _lambda_max(covs) == pytest.approx(9.0, rel=1e-6)
    covs[1] = 0.0
    assert _lambda_max(covs[1]) == 0.0
    assert _lambda_max(covs) == max(per_slice[:1] + per_slice[2:])
    assert _lambda_max(np.zeros((3, 5, 5))) == 0.0
