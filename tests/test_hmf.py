import numpy as np
import pytest

import tcmf
from tcmf import (
    FactorEstimate,
    HmfParams,
    ObservationSet,
    hmf_correct,
    hmf_gradients,
    hmf_objective,
    hmf_solve,
    spectral_init,
)
from tcmf.errors import ConfigurationError, ContractViolationError, DivergenceError, SingularityError
from tcmf.jimf import ObjectiveTrace
from tcmf.numerics import linf

from conftest import TinyInstance, orth, random_estimate, svd_spectral_init


def test_params_validation():
    HmfParams(step_size=0.0, iterations=0)  # boundary values allowed
    with pytest.raises(ConfigurationError):
        HmfParams(step_size=-1.0)
    with pytest.raises(ConfigurationError):
        HmfParams(iterations=-1)
    with pytest.raises(ConfigurationError):
        HmfParams(beta=-1e-6)
    # NaN fails every comparison; a NaN step used to reach the solve and fail
    # there as a SingularityError
    for field in ("step_size", "beta"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigurationError, match=f"{field} must be nonnegative and finite"):
                HmfParams(**{field: bad})


def test_objective_zero_at_exact_factors(tiny):
    assert hmf_objective(tiny.exact_estimate(), tiny.mats, 1e-5) == pytest.approx(0.0, abs=1e-20)


def test_objective_zero_factors_closed_form():
    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((5, 7)) for _ in range(3)]
    n1, r1, r2, beta = 5, 2, 1, 0.3
    est = FactorEstimate(
        u_g=np.zeros((n1, r1)),
        v_g=[np.zeros((7, r1)) for _ in mats],
        u_l=[np.zeros((n1, r2)) for _ in mats],
        v_l=[np.zeros((7, r2)) for _ in mats],
    )
    expected = 0.5 * sum(np.sum(m * m) for m in mats) + (beta / 2) * len(mats) * (r1 + r2)
    assert hmf_objective(est, mats, beta) == pytest.approx(expected)


def test_objective_column_scaling_raises_regularizer(tiny):
    beta = 1e-3
    exact = tiny.exact_estimate()
    c = 1.7
    scaled = FactorEstimate(u_g=c * exact.u_g, v_g=exact.v_g,
                            u_l=exact.u_l, v_l=exact.v_l)
    # reconstruction changes too, so compare regularizer-only objectives
    reg_gap = (hmf_objective(scaled, [scaled.reconstruction(i) for i in range(3)], beta)
               - hmf_objective(exact, [exact.reconstruction(i) for i in range(3)], beta))
    n, r1 = 3, 2
    assert reg_gap == pytest.approx((beta / 2) * n * r1 * (c**2 - 1.0) ** 2)


def fd_gradient(est, i, mat, beta, block, h=1e-5):
    """Central finite differences of the source-i objective in one block."""

    def source_objective(e):
        err = e.u_g @ e.v_g[i].T + e.u_l[i] @ e.v_l[i].T - mat
        reg = (np.linalg.norm(e.u_g.T @ e.u_g - np.eye(e.r1)) ** 2
               + np.linalg.norm(e.u_l[i].T @ e.u_l[i] - np.eye(e.r2)) ** 2)
        return 0.5 * np.sum(err * err) + (beta / 2) * reg

    def rebuild(arr):
        parts = dict(u_g=est.u_g, v_g=list(est.v_g), u_l=list(est.u_l), v_l=list(est.v_l))
        if block == "u_g":
            parts["u_g"] = arr
        else:
            parts[block] = list(parts[block])
            parts[block][i] = arr
        return FactorEstimate(**parts)

    base = est.u_g if block == "u_g" else getattr(est, block)[i]
    grad = np.zeros_like(base)
    for idx in np.ndindex(base.shape):
        plus = base.copy()
        plus[idx] += h
        minus = base.copy()
        minus[idx] -= h
        grad[idx] = (source_objective(rebuild(plus)) - source_objective(rebuild(minus))) / (2 * h)
    return grad


@pytest.mark.parametrize("shape", [(6, 8, 1, 1), (10, 12, 2, 2), (7, 9, 3, 1)])
def test_gradients_match_finite_differences(shape):
    n1, n2, r1, r2 = shape
    rng = np.random.default_rng(42)
    beta = 0.01
    for _ in range(5):
        mat = rng.standard_normal((n1, n2))
        est = random_estimate(rng, n1, [n2], r1, r2)
        grads = hmf_gradients(est, 0, mat, beta)
        for block, g in zip(("u_g", "v_g", "u_l", "v_l"), grads):
            fd = fd_gradient(est, 0, mat, beta, block)
            denom = max(linf(fd), 1.0)
            assert linf(g - fd) / denom < 1e-4, block


def test_gradients_vanish_at_optimum(tiny):
    grads = hmf_gradients(tiny.exact_estimate(), 0, tiny.mats[0], 1e-5)
    for g in grads:
        assert linf(g) < 1e-10


def test_gradient_beta_zero_closed_form():
    rng = np.random.default_rng(1)
    est = random_estimate(rng, 5, [8], 1, 1)
    mat = rng.standard_normal((5, 8))
    g_u_g = hmf_gradients(est, 0, mat, 0.0)[0]
    # the kernel forms E v from the joint factors u = [u_g u_l], v = [v_g v_l];
    # at beta = 0 the penalty adds exactly nothing to that product
    u, v = np.hstack((est.u_g, est.u_l[0])), np.hstack((est.v_g[0], est.v_l[0]))
    assert np.array_equal(g_u_g, ((u @ v.T - mat) @ v)[:, :1])
    # the split form u_g v_g^T + u_l v_l^T - M rounds one entry of E 1 ulp
    # apart from the joint product u v^T - M, so E v_g agrees to 1 ulp
    e = est.reconstruction(0) - mat
    np.testing.assert_array_max_ulp(g_u_g, e @ est.v_g[0], maxulp=1)


def test_correct_noop_when_already_orthogonal():
    u_g = np.zeros((6, 2))
    u_g[0, 0] = u_g[1, 1] = 1.0
    u_l = np.zeros((6, 1))
    u_l[3, 0] = 1.0  # disjoint support, exactly orthogonal
    rng = np.random.default_rng(2)
    est = FactorEstimate(u_g=u_g, v_g=[rng.standard_normal((9, 2))],
                         u_l=[u_l], v_l=[rng.standard_normal((9, 1))])
    out = hmf_correct(est, 0)
    assert np.array_equal(out.u_l[0], u_l)
    assert np.array_equal(out.v_g[0], est.v_g[0])


def test_correct_preserves_reconstruction():
    rng = np.random.default_rng(3)
    for _ in range(100):
        est = random_estimate(rng, 5, [6], 1, 1)
        out = hmf_correct(est, 0)
        assert linf(out.reconstruction(0) - est.reconstruction(0)) < 1e-10
        assert linf(out.u_g.T @ out.u_l[0]) < 1e-10


def test_correct_fully_aligned_gives_zero_local():
    rng = np.random.default_rng(4)
    u = orth(rng.standard_normal((6, 2)))
    est = FactorEstimate(u_g=u, v_g=[rng.standard_normal((7, 2))],
                         u_l=[u.copy()], v_l=[rng.standard_normal((7, 2))])
    out = hmf_correct(est, 0)
    assert linf(out.u_l[0]) < 1e-12


def test_solve_tiny_instance_reaches_tolerance(tiny):
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    est = hmf_solve(obs, HmfParams(step_size=0.01, iterations=2000, beta=1e-5))
    assert tiny.product_error(est) <= 1e-3


def test_solve_zero_iterations_returns_corrected_init(tiny):
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    est = hmf_solve(obs, HmfParams(step_size=0.01, iterations=0, beta=1e-5))
    start = spectral_init(obs)
    for i in range(3):
        assert linf(est.reconstruction(i) - start.reconstruction(i)) < 1e-10
    assert est.cross_orthogonality() < 1e-10


def test_solve_zero_step_keeps_objective_constant(tiny):
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    trace = []
    hmf_solve(obs, HmfParams(step_size=0.0, iterations=25, beta=1e-5), objective_out=trace)
    assert len(trace) == 25
    assert max(abs(t - trace[0]) for t in trace) < 1e-9


def test_solve_objective_nonincreasing(tiny):
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    trace = []
    hmf_solve(obs, HmfParams(step_size=0.01, iterations=300, beta=1e-5), objective_out=trace)
    rises = np.diff(np.asarray(trace))
    assert rises.max(initial=0.0) <= 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "step, reason, length, cause",
    [
        (100.0, "objective overflowed", 10, None),
        # the step overflows the shared factor, so the Gram matrix the
        # correction factors is not finite: the next objective is inf
        (8.0, "objective overflowed", 14, ContractViolationError),
        (0.25, "objective rose for 50 consecutive iterations", 51, None),
        (0.5, "shared factor lost column rank", 31, SingularityError),
    ],
    ids=["overflow", "gram_overflow", "rising", "collapse"],
)
def test_solve_divergence_carries_trace(tiny, step, reason, length, cause):
    # these runs diverge from an exact optimum through round-off, so they
    # start from the dense-SVD spectral start whose round-off they pin
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    start = svd_spectral_init(tiny.mats, 2, 2)
    out = []
    with pytest.raises(DivergenceError, match=reason) as info:
        hmf_solve(obs, HmfParams(step_size=step, iterations=500, beta=1e-5), start, objective_out=out)
    trace = info.value.objective_trace
    assert trace == out
    assert len(trace) == length
    assert str(info.value).endswith(f" at inner iteration {len(trace)}")
    if cause is None:
        assert info.value.__context__ is None
    else:
        assert type(info.value.__context__) is cause


def test_solve_rejects_a_start_whose_shared_factor_lost_rank(tiny):
    # a rank loss in a basis the loop made is divergence; in the start it is
    # bad input, found by the correction before the first round
    start = tiny.exact_estimate()
    u_g = start.u_g.copy()
    u_g[:, 1] = u_g[:, 0]
    start = FactorEstimate(u_g=u_g, v_g=start.v_g, u_l=start.u_l, v_l=start.v_l)
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    out = []
    with pytest.raises(SingularityError, match="lost column rank"):
        hmf_solve(obs, HmfParams(step_size=0.01, iterations=5), start, objective_out=out)
    assert out == []


def test_solve_loop_takes_one_cholesky_and_no_svd_or_solve_per_iteration(tiny, monkeypatch):
    # every correction factors the shared Gram matrix once for all sources:
    # the start's and one per round, plus the start's local rank check; no SVD
    # rank check or LU solve per round
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    counts = {}

    def counting(name):
        real = getattr(np.linalg, name)

        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, wrapped)

    for name in ("svd", "solve", "cholesky"):
        counting(name)
    seen = {}
    for iterations in (5, 50):
        counts.clear()
        trace = []
        hmf_solve(obs, HmfParams(step_size=0.01, iterations=iterations), objective_out=trace)
        assert len(trace) == iterations
        assert counts.get("cholesky", 0) == iterations + 2
        seen[iterations] = counts.get("svd", 0), counts.get("solve", 0)
    assert seen[5] == seen[50]


def reference_solve(mats, iterations, eta, beta):
    """The solver's arithmetic one source at a time: the same row-space
    bases q_i, then the public per-source correction, objective and
    gradient on the compressed data M_i q_i and coordinates q_i^T [v_g v_l]."""
    start = spectral_init(ObservationSet(matrices=mats, r1=2, r2=2))
    v = [np.hstack((vg, vl)) for vg, vl in zip(start.v_g, start.v_l)]
    bases = [np.linalg.qr(np.hstack((m.T, vi)))[0] for m, vi in zip(mats, v)]
    mats_q = [m @ q for m, q in zip(mats, bases)]
    z = [q.T @ vi for q, vi in zip(bases, v)]
    est = FactorEstimate(u_g=start.u_g, v_g=[zi[:, :2] for zi in z], u_l=start.u_l, v_l=[zi[:, 2:] for zi in z])
    objectives = []
    for _ in range(iterations):
        for i in range(len(mats)):
            est = hmf_correct(est, i)
        objectives.append(hmf_objective(est, mats_q, beta))
        acc = np.zeros_like(est.u_g)
        v_g, u_l, v_l = [], [], []
        for i, m in enumerate(mats_q):
            g_u_g, g_v_g, g_u_l, g_v_l = hmf_gradients(est, i, m, beta)
            acc += est.u_g - eta * g_u_g
            v_g.append(est.v_g[i] - eta * g_v_g)
            u_l.append(est.u_l[i] - eta * g_u_l)
            v_l.append(est.v_l[i] - eta * g_v_l)
        est = FactorEstimate(u_g=acc / len(mats), v_g=v_g, u_l=u_l, v_l=v_l)
    for i in range(len(mats)):
        est = hmf_correct(est, i)
    v = [q @ np.hstack((vg, vl)) for q, vg, vl in zip(bases, est.v_g, est.v_l)]
    ref = FactorEstimate(u_g=est.u_g, v_g=[vi[:, :2] for vi in v], u_l=est.u_l, v_l=[vi[:, 2:] for vi in v])
    return ref, objectives


@pytest.mark.parametrize("instance", ["tiny", "uneven"])
def test_solve_matches_per_source_reference(request, instance):
    mats = request.getfixturevalue(instance).mats
    params = HmfParams(step_size=0.01, iterations=5, beta=1e-3)
    trace = []
    est = hmf_solve(ObservationSet(matrices=mats, r1=2, r2=2), params, objective_out=trace)
    ref, ref_trace = reference_solve(mats, 5, params.step_size, params.beta)
    # the same arithmetic per source, so the same bits: every source of both
    # instances has k_i = n1 + r1 + r2 row-space columns, so none is padded
    pairs = [(est.u_g, ref.u_g)]
    for name in ("v_g", "u_l", "v_l"):
        pairs += zip(getattr(est, name), getattr(ref, name))
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert trace == ref_trace


def full_width_solve(obs, params, start):
    """The loop on the full-width data, as it ran before the row-space
    coordinates: the data and v zero-padded to (N, ., max n2), the split
    objective and gradient blocks, u_g averaged over the sources, and the
    shared stopping rule."""
    mats, r1, r2, n = obs.matrices, obs.r1, obs.r2, obs.n_sources
    widths = [m.shape[1] for m in mats]
    m_all = np.zeros((n, obs.n1, max(widths)))
    v_g = np.zeros((n, max(widths), r1))
    v_l = np.zeros((n, max(widths), r2))
    for i, width in enumerate(widths):
        m_all[i, :, :width] = mats[i]
        v_g[i, :width] = start.v_g[i]
        v_l[i, :width] = start.v_l[i]
    u_g, u_l = start.u_g, start.u_l
    eta, beta = params.step_size, params.beta

    def correct(u_g, v_g, u_l, v_l):
        if r1 == 0 or r2 == 0:
            return u_l, v_g
        g = np.linalg.solve(u_g.T @ u_g, u_g.T @ u_l)
        return u_l - u_g @ g, v_g + v_l @ g.swapaxes(-1, -2)

    trace = ObjectiveTrace(scale=0.5 * sum(np.sum(m * m) for m in mats))
    for _ in range(params.iterations):
        u_l, v_g = correct(u_g, v_g, u_l, v_l)
        gram_g = u_g.T @ u_g - np.eye(r1)
        gram_l = u_l.swapaxes(-1, -2) @ u_l - np.eye(r2)
        e = u_g @ v_g.swapaxes(-1, -2) + u_l @ v_l.swapaxes(-1, -2) - m_all
        reg = np.sum(gram_g**2) + np.sum(gram_l**2, axis=(-2, -1))
        objs = 0.5 * np.sum(e * e, axis=(-2, -1)) + 0.5 * beta * reg
        stop = trace.record(sum(objs.tolist()))
        e_t = e.swapaxes(-1, -2)
        u_g, v_g, u_l, v_l = (
            (u_g - eta * (e @ v_g + 2.0 * beta * (u_g @ gram_g))).sum(axis=0) / n,
            v_g - eta * (e_t @ u_g),
            u_l - eta * (e @ v_l + 2.0 * beta * (u_l @ gram_l)),
            v_l - eta * (e_t @ u_l),
        )
        if stop:
            break
    u_l, v_g = correct(u_g, v_g, u_l, v_l)
    products = [u_g @ v_g[i, :w].T + u_l[i] @ v_l[i, :w].T for i, w in enumerate(widths)]
    return products, trace.values


@pytest.mark.parametrize(
    "n1, widths, r1, r2",
    [
        (10, [20, 20, 20], 2, 2),  # tiny
        (12, [30, 45, 20, 38], 2, 2),  # uneven
        (10, [12, 8, 13], 2, 2),  # tall: every n2 < n1 + r1 + r2, so each q_i is square
        (10, [20, 20, 20], 0, 2),
        (10, [20, 20, 20], 2, 0),
    ],
    ids=["tiny", "uneven", "tall", "r1=0", "r2=0"],
)
def test_solve_matches_full_width_loop(n1, widths, r1, r2):
    # the row-space coordinates are exact: only round-off separates the loops
    # planted ranks 2 and 2, so a rank-zero edge leaves a residual to fit;
    # the start is perturbed off the spectral one, which fits those edges
    inst = TinyInstance(seed=11, n1=n1, n2=widths)
    obs = ObservationSet(matrices=inst.mats, r1=r1, r2=r2)
    start = spectral_init(obs)
    rng = np.random.default_rng(12)

    def jitter(a):
        return a + 0.1 * rng.standard_normal(a.shape)

    start = FactorEstimate(
        u_g=jitter(start.u_g),
        v_g=[jitter(v) for v in start.v_g],
        u_l=jitter(start.u_l),
        v_l=[jitter(v) for v in start.v_l],
    )
    params = HmfParams(step_size=0.02, iterations=100, beta=1e-3)
    trace = []
    est = hmf_solve(obs, params, start, objective_out=trace)
    products, ref_trace = full_width_solve(obs, params, start)
    assert len(trace) == params.iterations
    for i, want in enumerate(products):
        assert linf(est.reconstruction(i) - want) <= 1e-12 * linf(want)
    assert trace == pytest.approx(ref_trace, rel=1e-12)


def test_solve_loop_width_is_the_row_space_not_n2(monkeypatch):
    # desk shape: 10 sources of 15 x 100 at r1 = r2 = 3 run on 21 columns
    inst = TinyInstance(seed=2, n=10, n1=15, n2=100, r1=3, r2=3)
    obs = ObservationSet(matrices=inst.mats, r1=3, r2=3)
    real = tcmf.hmf._terms
    widths = []

    def recording_terms(u, v, m, *args):
        widths.append(m.shape[-1])
        return real(u, v, m, *args)

    monkeypatch.setattr(tcmf.hmf, "_terms", recording_terms)
    hmf_solve(obs, HmfParams(step_size=5e-3, iterations=5))
    assert widths == [min(100, 15 + 3 + 3)] * 5
