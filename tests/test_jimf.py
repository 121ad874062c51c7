import numpy as np
import pytest

from tcmf import (
    FactorEstimate,
    HmfParams,
    JimfRequest,
    PerpcaParams,
    check_epsilon_optimality,
    hmf_solve,
    kkt_residuals,
    perpca_solve,
    renormalize,
    solve,
    spectral_init,
    truncated_svd,
)
from tcmf.errors import ConfigurationError, DimensionError, DivergenceError, SingularityError
from tcmf.jimf import DIVERGENCE_WINDOW, ObjectiveTrace
from tcmf.numerics import linf

from conftest import TinyInstance, orth, random_estimate


def test_request_validation(tiny):
    with pytest.raises(DimensionError):
        JimfRequest(matrices=tuple(tiny.mats), r1=-1, r2=2)
    with pytest.raises(DimensionError):
        JimfRequest(matrices=tuple(tiny.mats), r1=2, r2=-1)
    with pytest.raises(TypeError):
        JimfRequest(tuple(tiny.mats), 2, 2)  # keyword-only, no placeholder defaults
    with pytest.raises(TypeError):
        JimfRequest(r1=2, r2=2)


@pytest.mark.parametrize("params", [None, object(), {"step_size": 1.0}, "hmf"],
                         ids=["none", "object", "dict", "name"])
def test_solve_rejects_non_params(tiny, params):
    req = JimfRequest(matrices=tuple(tiny.mats), r1=2, r2=2)
    with pytest.raises(ConfigurationError, match="HmfParams or PerpcaParams"):
        solve(req, params)


def test_objective_trace_divergence_rule():
    out = []
    trace = ObjectiveTrace(out)
    # one rise short of the window, then a fall resets the count
    for k in range(DIVERGENCE_WINDOW):
        trace.record(float(k))
    trace.record(0.5)
    with pytest.raises(DivergenceError) as info:
        for k in range(DIVERGENCE_WINDOW):
            trace.record(1.5 + k)
    length = 2 * DIVERGENCE_WINDOW + 1
    assert len(out) == length
    assert info.value.objective_trace == out
    assert str(info.value) == (
        f"objective rose for {DIVERGENCE_WINDOW} consecutive iterations at inner iteration {length}"
    )


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_objective_trace_rejects_non_finite(bad):
    trace = ObjectiveTrace()
    trace.record(1.0)
    with pytest.raises(DivergenceError, match="^objective overflowed at inner iteration 2$") as info:
        trace.record(bad)
    assert info.value.objective_trace[0] == 1.0
    assert len(info.value.objective_trace) == 2


def test_factor_estimate_shapes_and_products(tiny):
    est = tiny.exact_estimate()
    assert est.n_sources == 3 and est.r1 == 2 and est.r2 == 2
    recs = est.reconstructions()
    for i in range(3):
        assert np.array_equal(recs[i], est.reconstruction(i))
        assert np.allclose(recs[i], tiny.mats[i])
    assert est.cross_orthogonality() < 1e-10


def test_spectral_init_single_source_matches_svd():
    rng = np.random.default_rng(5)
    m = orth(rng.standard_normal((10, 2))) @ rng.standard_normal((20, 2)).T
    est = spectral_init([m], 2, 0)
    assert np.array_equal(est.u_g, truncated_svd(m, 2).u)
    assert est.u_l[0].shape == (10, 0)


def test_spectral_init_deflation_orthogonality(tiny):
    est = spectral_init(tiny.mats, tiny.r1, tiny.r2)
    assert est.cross_orthogonality() <= 1e-8
    for i in range(3):
        assert np.allclose(est.u_l[i].T @ est.u_l[i], np.eye(2), atol=1e-10)


def test_spectral_init_rejects_zero_matrices():
    with pytest.raises(SingularityError):
        spectral_init([np.zeros((5, 8)), np.zeros((5, 8))], 1, 1)


@pytest.mark.parametrize("params", [
    HmfParams(step_size=0.01, iterations=20, beta=1e-3),
    PerpcaParams(step_size=0.1, iterations=20),
], ids=["hmf", "perpca"])
def test_solve_runs_the_backend_its_params_name(tiny, params):
    req = JimfRequest(matrices=tuple(tiny.mats), r1=2, r2=2)
    backend = hmf_solve if isinstance(params, HmfParams) else perpca_solve
    got, want = solve(req, params), backend(req, params)
    for i in range(3):
        assert np.array_equal(got.reconstruction(i), want.reconstruction(i))


HMF_LONG = HmfParams(step_size=0.01, iterations=2000, beta=1e-5)
PERPCA_LONG = PerpcaParams(step_size=0.1, iterations=1500)
# the params type picks the backend; ids keep the names these cases had
# when the backend was a separate argument
BACKEND_IDS = ["hmf-params0", "perpca-params1"]


def assert_source_shapes(est, mats, r1, r2):
    # every per-source factor has its own source's rows: padding is trimmed
    assert est.u_g.shape == (mats[0].shape[0], r1)
    for i, m in enumerate(mats):
        assert est.v_g[i].shape == (m.shape[1], r1)
        assert est.u_l[i].shape == (m.shape[0], r2)
        assert est.v_l[i].shape == (m.shape[1], r2)


@pytest.mark.parametrize("params,instance", [
    pytest.param(HMF_LONG, "tiny", id="hmf-params0"),
    pytest.param(PERPCA_LONG, "tiny", id="perpca-params1"),
    pytest.param(HMF_LONG, "uneven", id="hmf-uneven"),
    pytest.param(PERPCA_LONG, "uneven", id="perpca-uneven"),
])
def test_solve_recovers_noiseless_products(request, params, instance):
    inst = request.getfixturevalue(instance)
    req = JimfRequest(matrices=tuple(inst.mats), r1=2, r2=2)
    est = solve(req, params)
    assert_source_shapes(est, inst.mats, 2, 2)
    assert inst.product_error(est) <= 1e-3
    assert est.cross_orthogonality() <= 1e-8
    for rec in est.reconstructions():
        assert np.isfinite(rec).all()


@pytest.mark.parametrize("params", [HMF_LONG, PERPCA_LONG], ids=BACKEND_IDS)
@pytest.mark.parametrize("r1,r2", [(0, 2), (2, 0)])
def test_solve_multi_source_rank_zero_edges(params, r1, r2):
    inst = TinyInstance(seed=9, n=4, n1=10, n2=[20, 26, 20, 17], r1=r1, r2=r2)
    req = JimfRequest(matrices=tuple(inst.mats), r1=r1, r2=r2)
    est = solve(req, params)
    assert_source_shapes(est, inst.mats, r1, r2)
    assert inst.product_error(est) <= 1e-3
    assert est.cross_orthogonality() <= 1e-8


@pytest.mark.parametrize("params", [HMF_LONG, PERPCA_LONG], ids=BACKEND_IDS)
def test_solve_rank_zero_gives_zero_reconstructions(params):
    rng = np.random.default_rng(31)
    mats = tuple(rng.standard_normal((8, n2)) for n2 in (12, 9, 15))
    est = solve(JimfRequest(matrices=mats, r1=0, r2=0), params)
    assert_source_shapes(est, mats, 0, 0)
    for i, m in enumerate(mats):
        assert np.array_equal(est.reconstruction(i), np.zeros_like(m))


@pytest.mark.parametrize("params", [
    HmfParams(step_size=0.01, iterations=2000, beta=1e-5),
    PerpcaParams(step_size=0.1, iterations=1500),
], ids=BACKEND_IDS)
def test_solve_single_source_reduces_to_svd(params):
    rng = np.random.default_rng(11)
    m = orth(rng.standard_normal((10, 2))) @ (orth(rng.standard_normal((20, 2))) * 3.0).T
    req = JimfRequest(matrices=(m,), r1=2, r2=0)
    est = solve(req, params)
    oracle = truncated_svd(m, 2).reconstruct()
    assert linf(est.reconstruction(0) - oracle) <= 1e-6


@pytest.mark.parametrize("params", [
    HmfParams(step_size=0.01, iterations=200, beta=1e-5),
    PerpcaParams(step_size=0.1, iterations=200),
], ids=BACKEND_IDS)
def test_solve_warm_start_at_optimum_is_fixed_point(tiny, params):
    exact = tiny.exact_estimate()
    req = JimfRequest(matrices=tuple(tiny.mats), r1=2, r2=2, warm_start=exact)
    est = solve(req, params)
    for i in range(3):
        assert linf(est.reconstruction(i) - exact.reconstruction(i)) <= 1e-8


@pytest.mark.parametrize("params", [
    HmfParams(step_size=0.01, iterations=50, beta=1e-5),
    PerpcaParams(step_size=0.1, iterations=50),
], ids=BACKEND_IDS)
def test_solve_invariant_under_common_sign_flip(tiny, params):
    start = spectral_init(tiny.mats, 2, 2)
    flipped = FactorEstimate(
        u_g=start.u_g * np.array([-1.0, 1.0]),
        v_g=[v * np.array([-1.0, 1.0]) for v in start.v_g],
        u_l=[u.copy() for u in start.u_l],
        v_l=[v.copy() for v in start.v_l],
    )
    req = dict(matrices=tuple(tiny.mats), r1=2, r2=2)
    a = solve(JimfRequest(**req, warm_start=start), params)
    b = solve(JimfRequest(**req, warm_start=flipped), params)
    for i in range(3):
        assert linf(a.reconstruction(i) - b.reconstruction(i)) < 1e-10


def test_solve_reconstruction_rank_bounded():
    rng = np.random.default_rng(17)
    mats = tuple(rng.standard_normal((9, 14)) for _ in range(2))  # full rank data
    req = JimfRequest(matrices=mats, r1=2, r2=1)
    est = solve(req, HmfParams(step_size=1e-3, iterations=40, beta=1e-5))
    for rec in est.reconstructions():
        s = np.linalg.svd(rec, compute_uv=False)
        assert np.sum(s > 1e-8 * s[0]) <= 3


def test_epsilon_optimality_identity_and_perturbation(tiny):
    exact = tiny.exact_estimate()
    assert check_epsilon_optimality(exact, exact, 0.0)
    eps = 1e-2
    # bump one coefficient so the source-0 product moves by exactly 2*eps
    v_l = [v.copy() for v in exact.v_l]
    v_l[0][0, 0] += 2 * eps / abs(exact.u_l[0][:, 0]).max()
    cand = FactorEstimate(u_g=exact.u_g, v_g=exact.v_g, u_l=exact.u_l, v_l=v_l)
    gap = max(linf(cand.reconstruction(i) - exact.reconstruction(i)) for i in range(3))
    assert gap > eps
    assert not check_epsilon_optimality(cand, exact, eps)
    assert check_epsilon_optimality(cand, exact, gap)  # monotone in epsilon


def test_epsilon_optimality_sign_flip_compares_products(tiny):
    exact = tiny.exact_estimate()
    flipped = FactorEstimate(
        u_g=-exact.u_g,
        v_g=[-v for v in exact.v_g],
        u_l=[u.copy() for u in exact.u_l],
        v_l=[v.copy() for v in exact.v_l],
    )
    assert check_epsilon_optimality(flipped, exact, 1e-12)


def test_renormalize_preserves_products():
    rng = np.random.default_rng(23)
    est = random_estimate(rng, 8, [12, 12], 2, 2)
    fixed = renormalize(est)
    for i in range(2):
        assert linf(fixed.reconstruction(i) - est.reconstruction(i)) < 1e-10
    assert np.allclose(fixed.u_g.T @ fixed.u_g, np.eye(2), atol=1e-10)
    for ul in fixed.u_l:
        assert np.allclose(ul.T @ ul, np.eye(2), atol=1e-10)
    assert fixed.cross_orthogonality() < 1e-10


def test_kkt_residuals_exact_factors(tiny):
    rep = kkt_residuals(tiny.exact_estimate(), tiny.mats)
    assert rep.max_residual() < 1e-8


def test_kkt_residuals_random_estimate_positive(tiny):
    rng = np.random.default_rng(29)
    est = random_estimate(rng, 10, [20, 20, 20], 2, 2)
    rep = kkt_residuals(est, tiny.mats)
    assert min(rep.r_vg, rep.r_vl, rep.r_ug, rep.r_ul) > 0.0
