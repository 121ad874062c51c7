import numpy as np
import pytest

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
from tcmf.errors import ConfigurationError, DivergenceError
from tcmf.numerics import linf

from conftest import orth, random_estimate, svd_spectral_init


def test_params_validation():
    HmfParams(step_size=0.0, iterations=0)  # boundary values allowed
    with pytest.raises(ConfigurationError):
        HmfParams(step_size=-1.0)
    with pytest.raises(ConfigurationError):
        HmfParams(iterations=-1)
    with pytest.raises(ConfigurationError):
        HmfParams(beta=-1e-6)


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
    e = est.reconstruction(0) - mat
    assert np.array_equal(g_u_g, e @ est.v_g[0])


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
    "step, reason, length",
    [
        (50.0, "objective overflowed", 11),
        (0.25, "objective rose for 50 consecutive iterations", 51),
        (1.0, "shared factor collapsed while the objective grew", 22),
        # the Gram matrix of the exploded shared factor is singular
        (0.325, "shared factor collapsed while the objective grew", 48),
    ],
    ids=["overflow", "rising", "collapse", "singular"],
)
def test_solve_divergence_carries_trace(tiny, step, reason, length):
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


def reference_solve(mats, iterations, eta, beta):
    """The per-source loop the batched solver replaced, built from the
    public per-source correction and gradient."""
    est = spectral_init(ObservationSet(matrices=mats, r1=2, r2=2))
    objectives = []
    for _ in range(iterations):
        for i in range(len(mats)):
            est = hmf_correct(est, i)
        objectives.append(hmf_objective(est, mats, beta))
        acc = np.zeros_like(est.u_g)
        v_g, u_l, v_l = [], [], []
        for i, m in enumerate(mats):
            g_u_g, g_v_g, g_u_l, g_v_l = hmf_gradients(est, i, m, beta)
            acc += est.u_g - eta * g_u_g
            v_g.append(est.v_g[i] - eta * g_v_g)
            u_l.append(est.u_l[i] - eta * g_u_l)
            v_l.append(est.v_l[i] - eta * g_v_l)
        est = FactorEstimate(u_g=acc / len(mats), v_g=v_g, u_l=u_l, v_l=v_l)
    for i in range(len(mats)):
        est = hmf_correct(est, i)
    return est, objectives


@pytest.mark.parametrize("instance", ["tiny", "uneven"])
def test_solve_matches_per_source_reference(request, instance):
    mats = request.getfixturevalue(instance).mats
    params = HmfParams(step_size=0.01, iterations=5, beta=1e-3)
    trace = []
    est = hmf_solve(ObservationSet(matrices=mats, r1=2, r2=2), params, objective_out=trace)
    ref, ref_trace = reference_solve(mats, 5, params.step_size, params.beta)
    # equal widths: the same arithmetic per source, so the same bits; the
    # zero padding of narrower sources may regroup a BLAS sum
    tol = 0.0 if instance == "tiny" else 1e-12
    pairs = [(est.u_g, ref.u_g)]
    for name in ("v_g", "u_l", "v_l"):
        pairs += zip(getattr(est, name), getattr(ref, name))
    for got, want in pairs:
        assert got.shape == want.shape
        assert linf(got - want) <= tol * max(1.0, linf(want))
    assert trace == pytest.approx(ref_trace, rel=1e-13)
