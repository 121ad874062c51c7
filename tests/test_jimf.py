import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import tcmf
from tcmf import (
    FactorEstimate,
    HmfParams,
    ObservationSet,
    PerpcaParams,
    hmf_gradients,
    hmf_solve,
    kkt_residuals,
    perpca_solve,
    renormalize,
    solve,
    spectral_init,
    truncated_svd,
)
from tcmf.errors import (
    ConfigurationError,
    ContractViolationError,
    DimensionError,
    DivergenceError,
    SingularityError,
)
from tcmf.io import load_estimates, save_estimates
from tcmf.jimf import DIVERGENCE_WINDOW, FLOOR_RTOL, STOP_RTOL, ObjectiveTrace
from tcmf.numerics import linf

from conftest import TinyInstance, orth, random_estimate, svd_spectral_init


def test_request_validation(tiny, uneven):
    # the problem handed to solve checks its rank targets against n1
    with pytest.raises(DimensionError):
        ObservationSet(matrices=tiny.mats, r1=-1, r2=2)
    with pytest.raises(DimensionError):
        ObservationSet(matrices=tiny.mats, r1=2, r2=-1)
    with pytest.raises(DimensionError, match="r1 \\+ r2 <= n1"):
        ObservationSet(matrices=uneven.mats, r1=7, r2=6)
    obs = ObservationSet(matrices=uneven.mats, r1=7, r2=5)  # r1 + r2 == n1 == 12
    assert (obs.n1, obs.r1 + obs.r2) == (12, 12)


@pytest.mark.parametrize("params", [None, object(), {"step_size": 1.0}, "hmf"],
                         ids=["none", "object", "dict", "name"])
def test_solve_rejects_non_params(tiny, params):
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    with pytest.raises(ConfigurationError, match="HmfParams or PerpcaParams"):
        solve(obs, params)


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


def test_objective_trace_stops_on_a_small_relative_decrease():
    trace = ObjectiveTrace(scale=1e6)
    assert trace.record(1.0 + 2.5 * STOP_RTOL) is False  # the first value has nothing to compare with
    assert trace.record(1.0 + 2.5 * STOP_RTOL) is True  # no decrease at all
    assert trace.record(1.0 + 2.0 * STOP_RTOL) is True  # a decrease of half the tolerance
    assert trace.record(1.0) is False  # a decrease of twice the tolerance
    assert trace.record(1.0 - 1e-3) is False  # a larger decrease
    assert trace.record(1.0) is False  # a rise


def test_objective_trace_runs_on_at_the_floor():
    # values at FLOOR_RTOL * scale and below are round-off of an exact fit
    floor = FLOOR_RTOL * 1e6
    trace = ObjectiveTrace(scale=1e6)
    assert [trace.record(v) for v in (floor, floor, 0.5 * floor, 0.5 * floor, 0.0, 0.0)] == [False] * 6
    assert trace.record(0.0) is False
    above = ObjectiveTrace(scale=1e6)
    above.record(2.0 * floor)
    assert above.record(2.0 * floor) is True


def test_objective_trace_counts_only_its_own_values_in_a_reused_list():
    # a list that already holds another solve's values: the first new value
    # neither counts as a rise nor stops, and errors name this trace's iteration
    out = [0.0]
    trace = ObjectiveTrace(out, scale=1.0)
    assert trace.record(0.0) is False
    for k in range(1, DIVERGENCE_WINDOW):
        trace.record(float(k))
    with pytest.raises(DivergenceError) as info:
        trace.record(float(DIVERGENCE_WINDOW))
    assert info.value.objective_trace == out
    assert len(out) == DIVERGENCE_WINDOW + 2
    assert str(info.value) == (
        f"objective rose for {DIVERGENCE_WINDOW} consecutive iterations"
        f" at inner iteration {DIVERGENCE_WINDOW + 1}"
    )


def test_hmf_solve_reusing_objective_out_fails_as_a_fresh_list_does(tiny):
    # the second solve diverges; the error names its own iteration and
    # carries the whole list
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    diverging = HmfParams(step_size=50.0, iterations=500, beta=1e-5)
    fresh = []
    with pytest.raises(DivergenceError) as alone:
        hmf_solve(obs, diverging, objective_out=fresh)
    out = []
    hmf_solve(obs, HmfParams(step_size=1e-3, iterations=40, beta=1e-5), objective_out=out)
    first = list(out)
    with pytest.raises(DivergenceError) as reused:
        hmf_solve(obs, diverging, objective_out=out)
    assert str(reused.value) == str(alone.value)
    assert reused.value.objective_trace == out == first + fresh


def _iterations_used(obs, params, warm_start=None):
    # the estimate and the values one solve records, counted as the
    # benchmark's tracer counts them
    if isinstance(params, HmfParams):
        out = []
        return hmf_solve(obs, params, warm_start, objective_out=out), len(out)
    calls = []
    est = perpca_solve(obs, params, warm_start, callback=lambda *args: calls.append(args[0]))
    assert calls == list(range(1, len(calls) + 1))
    return est, len(calls)


# backend -> params(step, cap), step a multiple of the backend's usual step
BACKEND_PARAMS = {
    "hmf": lambda step, cap: HmfParams(step_size=0.01 * step, iterations=cap, beta=1e-5),
    "perpca": lambda step, cap: PerpcaParams(step_size=0.1 * step, iterations=cap),
}


@pytest.mark.parametrize("backend", list(BACKEND_PARAMS))
def test_exactly_fitted_solve_runs_its_whole_budget(tiny, backend):
    # the objective is round-off below the floor from the first iteration
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    assert _iterations_used(obs, BACKEND_PARAMS[backend](1.0, 300))[1] == 300


@pytest.mark.parametrize("backend", list(BACKEND_PARAMS))
@pytest.mark.parametrize("step,r1,r2", [(0.0, 2, 1), (1.0, 0, 0)], ids=["zero_step", "zero_ranks"])
def test_solve_that_cannot_move_stops_at_its_second_iteration(tiny, backend, step, r1, r2):
    # r2 = 1 leaves a local direction of every source outside the fit, so
    # the objective stays far above the floor
    obs = ObservationSet(matrices=tiny.mats, r1=r1, r2=r2)
    assert _iterations_used(obs, BACKEND_PARAMS[backend](step, 300))[1] == 2


@pytest.mark.parametrize("backend", list(BACKEND_PARAMS))
def test_solve_records_no_more_values_than_its_cap(tiny, uneven, backend):
    for inst in (tiny, uneven):
        obs = ObservationSet(matrices=inst.mats, r1=2, r2=2)
        for cap in (0, 1, 2, 7):
            assert _iterations_used(obs, BACKEND_PARAMS[backend](1.0, cap))[1] == cap
    # the zero cap still returns the corrected start
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    est, used = _iterations_used(obs, BACKEND_PARAMS[backend](1.0, 0))
    start = spectral_init(obs)
    assert used == 0
    for i in range(3):
        assert linf(est.reconstruction(i) - start.reconstruction(i)) < 1e-10
    assert est.cross_orthogonality() < 1e-10


@pytest.mark.parametrize("backend,tol", [("perpca", 1e-6), ("hmf", 1e-5)])
def test_early_stop_lands_where_a_longer_solve_does(uneven, monkeypatch, backend, tol):
    # uneven plus a little noise: the fit is no longer exact, so the solve
    # converges to a positive objective and stops on the rule well inside
    # its cap; a negative tolerance never stops, so the comparison solve
    # runs the whole of a budget 5x the iterations used.  hmf's unscaled
    # step contracts more slowly, so its stop leaves more of the gap
    rng = np.random.default_rng(1)
    mats = [m + 1e-2 * rng.standard_normal(m.shape) for m in uneven.mats]
    obs = ObservationSet(matrices=mats, r1=2, r2=2)
    cap = 5000
    est, used = _iterations_used(obs, BACKEND_PARAMS[backend](1.0, cap))
    assert 2 < used < cap // 2
    monkeypatch.setattr(tcmf.jimf, "STOP_RTOL", -1.0)
    longer, longer_used = _iterations_used(obs, BACKEND_PARAMS[backend](1.0, 5 * used))
    assert longer_used == 5 * used
    projectors = [(e.u_g @ e.u_g.T, [ul @ ul.T for ul in e.u_l]) for e in (est, longer)]
    (g_a, l_a), (g_b, l_b) = projectors
    assert linf(g_a - g_b) < tol
    assert max(linf(a - b) for a, b in zip(l_a, l_b)) < tol


def test_tracer_hooks_count_inner_iterations(tiny):
    # perfbench/tracer.py counts inner iterations through the objective_out
    # argument of hmf_solve and the callback argument of perpca_solve
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    with tracer_mod.Tracer(tcmf) as tracer:
        tcmf.solve(obs, HmfParams(iterations=7))
        tcmf.solve(obs, PerpcaParams(iterations=9))
    assert tracer.counters["hmf.inner_iters"] == 7
    assert tracer.counters["perpca.inner_iters"] == 9


def test_factor_estimate_shapes_and_products(tiny):
    est = tiny.exact_estimate()
    assert est.n_sources == 3 and est.r1 == 2 and est.r2 == 2
    recs = [est.reconstruction(i) for i in range(est.n_sources)]
    for i in range(3):
        assert np.array_equal(recs[i], est.reconstruction(i))
        assert np.allclose(recs[i], tiny.mats[i])
    assert est.cross_orthogonality() < 1e-10


def test_spectral_init_single_source_matches_svd():
    rng = np.random.default_rng(5)
    m = orth(rng.standard_normal((10, 2))) @ rng.standard_normal((20, 2)).T
    est = spectral_init(ObservationSet(matrices=[m], r1=2, r2=0))
    assert np.allclose(est.u_g, truncated_svd(m, 2).u, rtol=0, atol=1e-12)
    assert est.u_l[0].shape == (10, 0)


def test_spectral_init_deflation_orthogonality(tiny):
    est = spectral_init(ObservationSet(matrices=tiny.mats, r1=tiny.r1, r2=tiny.r2))
    assert est.cross_orthogonality() <= 1e-8
    for i in range(3):
        assert np.allclose(est.u_l[i].T @ est.u_l[i], np.eye(2), atol=1e-10)


@pytest.mark.parametrize("r1,r2", [(-1, 1), (1, -1), (6, 0), (2, 3)])
def test_spectral_init_rejects_rank_targets_outside_the_rows(r1, r2):
    rng = np.random.default_rng(19)
    mats = [rng.standard_normal((4, 10)) for _ in range(2)]
    with pytest.raises(DimensionError):
        spectral_init(ObservationSet(matrices=mats, r1=r1, r2=r2))


def test_spectral_init_rejects_zero_matrices():
    with pytest.raises(SingularityError):
        spectral_init(ObservationSet(matrices=[np.zeros((5, 8)), np.zeros((5, 8))], r1=1, r2=1))


@pytest.mark.parametrize("params", [HmfParams(iterations=1), PerpcaParams(iterations=1)], ids=["hmf", "perpca"])
def test_overflowing_gram_stack_is_a_contract_violation(tiny, params):
    # finite data whose Gram matrices M_i M_i^T overflow reaches eigh as Inf,
    # which fails with an untyped LinAlgError unless rejected first
    mats = [m * 1e155 for m in tiny.mats]
    with np.errstate(all="ignore"):
        with pytest.raises(ContractViolationError):
            spectral_init(ObservationSet(matrices=mats, r1=2, r2=2))
        with pytest.raises(ContractViolationError):
            solve(ObservationSet(matrices=mats, r1=2, r2=2), params)


def _spans(est):
    return ([est.u_g @ est.u_g.T] + [ul @ ul.T for ul in est.u_l]
            + [est.reconstruction(i) for i in range(est.n_sources)])


@pytest.mark.parametrize("instance", ["tiny", "uneven"])
def test_spectral_init_spans_match_svd_route(request, instance):
    # these instances have repeated singular values, so only the spans and
    # the reconstructions are unique, not the bases
    mats = request.getfixturevalue(instance).mats
    got, want = spectral_init(ObservationSet(matrices=mats, r1=2, r2=2)), svd_spectral_init(mats, 2, 2)
    for a, b in zip(_spans(got), _spans(want)):
        assert np.allclose(a, b, rtol=0, atol=1e-10)


def test_spectral_init_factors_match_svd_route_at_wide_shape():
    gt = tcmf.generate(tcmf.SynthConfig(20, 100, 1000, 3, 3, noise_prob=0.01, noise_magnitude=100.0, seed=0))
    mats = tcmf.assemble_observations(gt).matrices
    got, want = spectral_init(ObservationSet(matrices=mats, r1=3, r2=3)), svd_spectral_init(mats, 3, 3)
    assert np.allclose(got.u_g, want.u_g, rtol=0, atol=1e-10)
    for name in ("v_g", "u_l", "v_l"):
        for a, b in zip(getattr(got, name), getattr(want, name)):
            assert np.allclose(a, b, rtol=0, atol=1e-10)


@pytest.mark.parametrize("scale", [0.0, 1e-3, 1.0, 1e3])
def test_spectral_init_rank_check_is_relative(scale):
    rng = np.random.default_rng(41)
    a, b = rng.standard_normal((15, 1)), rng.standard_normal((100, 1))
    with pytest.raises(SingularityError, match="rank below r1"):
        spectral_init(ObservationSet(matrices=[scale * a @ b.T, 2 * scale * a @ b.T], r1=2, r2=0))


def test_spectral_init_accepts_small_but_genuine_second_direction():
    rng = np.random.default_rng(43)
    u, v = orth(rng.standard_normal((15, 2))), orth(rng.standard_normal((100, 2)))
    m = (u * [1.0, 1e-7]) @ v.T
    est = spectral_init(ObservationSet(matrices=[m], r1=2, r2=0))
    assert np.linalg.norm(m.T @ est.u_g, axis=0) == pytest.approx([1.0, 1e-7], rel=1e-6)


@pytest.mark.parametrize("params", [
    HmfParams(step_size=0.01, iterations=20, beta=1e-3),
    PerpcaParams(step_size=0.1, iterations=20),
], ids=["hmf", "perpca"])
def test_solve_runs_the_backend_its_params_name(tiny, params):
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    backend = hmf_solve if isinstance(params, HmfParams) else perpca_solve
    got, want = solve(obs, params), backend(obs, params)
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
    obs = ObservationSet(matrices=inst.mats, r1=2, r2=2)
    est = solve(obs, params)
    assert_source_shapes(est, inst.mats, 2, 2)
    assert inst.product_error(est) <= 1e-3
    assert est.cross_orthogonality() <= 1e-8
    for rec in [est.reconstruction(i) for i in range(est.n_sources)]:
        assert np.isfinite(rec).all()


@pytest.mark.parametrize("params", [HMF_LONG, PERPCA_LONG], ids=BACKEND_IDS)
@pytest.mark.parametrize("r1,r2", [(0, 2), (2, 0)])
def test_solve_multi_source_rank_zero_edges(params, r1, r2):
    inst = TinyInstance(seed=9, n=4, n1=10, n2=[20, 26, 20, 17], r1=r1, r2=r2)
    obs = ObservationSet(matrices=inst.mats, r1=r1, r2=r2)
    est = solve(obs, params)
    assert_source_shapes(est, inst.mats, r1, r2)
    assert inst.product_error(est) <= 1e-3
    assert est.cross_orthogonality() <= 1e-8


@pytest.mark.parametrize("params", [HMF_LONG, PERPCA_LONG], ids=BACKEND_IDS)
def test_solve_rank_zero_gives_zero_reconstructions(params):
    rng = np.random.default_rng(31)
    mats = tuple(rng.standard_normal((8, n2)) for n2 in (12, 9, 15))
    est = solve(ObservationSet(matrices=mats, r1=0, r2=0), params)
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
    obs = ObservationSet(matrices=[m], r1=2, r2=0)
    est = solve(obs, params)
    oracle = truncated_svd(m, 2).reconstruct()
    assert linf(est.reconstruction(0) - oracle) <= 1e-6


@pytest.mark.parametrize("params", [
    HmfParams(step_size=0.01, iterations=200, beta=1e-5),
    PerpcaParams(step_size=0.1, iterations=200),
], ids=BACKEND_IDS)
def test_solve_warm_start_at_optimum_is_fixed_point(tiny, params):
    exact = tiny.exact_estimate()
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    est = solve(obs, params, warm_start=exact)
    for i in range(3):
        assert linf(est.reconstruction(i) - exact.reconstruction(i)) <= 1e-8


@pytest.mark.parametrize("params", [
    HmfParams(step_size=0.01, iterations=50, beta=1e-5),
    PerpcaParams(step_size=0.1, iterations=50),
], ids=BACKEND_IDS)
def test_solve_invariant_under_common_sign_flip(tiny, params):
    start = spectral_init(ObservationSet(matrices=tiny.mats, r1=2, r2=2))
    flipped = FactorEstimate(
        u_g=start.u_g * np.array([-1.0, 1.0]),
        v_g=[v * np.array([-1.0, 1.0]) for v in start.v_g],
        u_l=[u.copy() for u in start.u_l],
        v_l=[v.copy() for v in start.v_l],
    )
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    a = solve(obs, params, warm_start=start)
    b = solve(obs, params, warm_start=flipped)
    for i in range(3):
        assert linf(a.reconstruction(i) - b.reconstruction(i)) < 1e-10


def test_solve_reconstruction_rank_bounded():
    rng = np.random.default_rng(17)
    mats = tuple(rng.standard_normal((9, 14)) for _ in range(2))  # full rank data
    obs = ObservationSet(matrices=mats, r1=2, r2=1)
    est = solve(obs, HmfParams(step_size=1e-3, iterations=40, beta=1e-5))
    for rec in [est.reconstruction(i) for i in range(est.n_sources)]:
        s = np.linalg.svd(rec, compute_uv=False)
        assert np.sum(s > 1e-8 * s[0]) <= 3


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


@pytest.mark.parametrize("instance,start", [
    ("tiny", "spectral"), ("uneven", "spectral"), ("tiny", "random"), ("uneven", "random"),
])
def test_kkt_residuals_are_the_beta_zero_gradient_norms(request, instance, start):
    # the KKT report and hmf_gradients share one kernel, so each block agrees bit for bit
    inst = request.getfixturevalue(instance)
    if start == "spectral":
        est = spectral_init(ObservationSet(matrices=inst.mats, r1=2, r2=2))
    else:
        rng = np.random.default_rng(31)
        est = random_estimate(rng, inst.mats[0].shape[0], [m.shape[1] for m in inst.mats], 2, 2)
    rep = kkt_residuals(est, inst.mats)
    fixed = renormalize(est)
    grads = [hmf_gradients(fixed, i, m, 0.0) for i, m in enumerate(inst.mats)]
    shared = grads[0][0]
    for g in grads[1:]:
        shared = shared + g[0]
    assert rep.r_vg == float(np.linalg.norm(shared))
    assert rep.r_ug == max(float(np.linalg.norm(g[1])) for g in grads)
    assert rep.r_vl == max(float(np.linalg.norm(g[2])) for g in grads)
    assert rep.r_ul == max(float(np.linalg.norm(g[3])) for g in grads)


@pytest.mark.parametrize("entry,params", [
    (solve, HmfParams(step_size=0.01, iterations=5, beta=1e-5)),
    (solve, PerpcaParams(step_size=0.1, iterations=5)),
    (hmf_solve, HmfParams(step_size=0.01, iterations=5, beta=1e-5)),
    (perpca_solve, PerpcaParams(step_size=0.1, iterations=5)),
], ids=["hmf", "perpca", "hmf_solve", "perpca_solve"])
@pytest.mark.parametrize("n1,widths,r1,r2", [
    (10, [20, 20, 20], 2, 1),  # local rank
    (10, [20, 20, 20], 1, 2),  # shared rank
    (12, [20, 20, 20], 2, 2),  # rows
    (10, [20, 21, 20], 2, 2),  # one source's width
    (10, [20, 20], 2, 2),  # source count
], ids=["r2", "r1", "n1", "width", "sources"])
def test_solve_rejects_misshaped_warm_start(tiny, entry, params, n1, widths, r1, r2):
    # solve and both backends called directly check a warm start the same way
    warm = random_estimate(np.random.default_rng(37), n1, widths, r1, r2)
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    with pytest.raises(DimensionError, match="warm start"):
        entry(obs, params, warm_start=warm)


@pytest.mark.parametrize("params", [
    HmfParams(iterations=0),
    HmfParams(iterations=1),
    PerpcaParams(iterations=0),
    PerpcaParams(iterations=1),
], ids=["hmf-0", "hmf-1", "perpca-0", "perpca-1"])
@pytest.mark.parametrize("factor", ["u_g", "u_l", "v_g", "v_l"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_solve_rejects_non_finite_warm_start(tiny, params, factor, bad):
    # one check, where the warm start enters, so both backends fail alike at any budget
    warm = tiny.exact_estimate()
    entries = getattr(warm, factor)
    (entries if factor == "u_g" else entries[1])[3, 1] = bad
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    with pytest.raises(ContractViolationError, match="warm start"):
        solve(obs, params, warm_start=warm)


@pytest.mark.parametrize("entry,params", [
    (solve, HmfParams(iterations=5)),
    (solve, PerpcaParams(iterations=5)),
    (hmf_solve, HmfParams(iterations=5)),
    (perpca_solve, PerpcaParams(iterations=5)),
], ids=["hmf", "perpca", "hmf_solve", "perpca_solve"])
def test_both_backends_reject_the_same_bad_starts(tiny, entry, params):
    # a finite start whose shared or local factors lack full column rank, or
    # whose Gram matrices overflow, is bad input on either backend, never rebased
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    exact = tiny.exact_estimate()
    u_g = exact.u_g.copy()
    u_g[:, 1] = u_g[:, 0]
    with pytest.raises(SingularityError):
        entry(obs, params, warm_start=FactorEstimate(u_g=u_g, v_g=exact.v_g, u_l=exact.u_l, v_l=exact.v_l))
    u_l = exact.u_l.copy()
    u_l[..., 1] = u_l[..., 0]
    with pytest.raises(SingularityError, match="lost column rank"):
        entry(obs, params, warm_start=FactorEstimate(u_g=exact.u_g, v_g=exact.v_g, u_l=u_l, v_l=exact.v_l))
    huge = FactorEstimate(u_g=exact.u_g * 1e160, v_g=exact.v_g, u_l=exact.u_l * 1e160, v_l=exact.v_l)
    with pytest.raises(ContractViolationError):
        entry(obs, params, warm_start=huge)
    huge_local = FactorEstimate(u_g=exact.u_g, v_g=exact.v_g, u_l=exact.u_l * 1e160, v_l=exact.v_l)
    with pytest.raises(ContractViolationError):
        entry(obs, params, warm_start=huge_local)


def _estimates(obs, tmp_path):
    # every producer of a FactorEstimate, on the problem obs
    start = spectral_init(obs)
    save_estimates(tmp_path, start, tcmf.SparseParts.from_dense(obs.matrices))
    cfg = tcmf.SynthConfig(obs.n_sources, obs.n1, 20, obs.r1, obs.r2, noise_prob=0.0, noise_magnitude=1.0, seed=0)
    return {
        "spectral_init": start,
        "hmf_solve": hmf_solve(obs, HmfParams(iterations=2)),
        "perpca_solve": perpca_solve(obs, PerpcaParams(iterations=2)),
        "renormalize": renormalize(start),
        "hmf_correct": tcmf.hmf_correct(start, 0),
        "generate": tcmf.generate(cfg),
        "load_estimates": load_estimates(tmp_path, obs.n_sources)[0],
    }


@pytest.mark.parametrize("instance", ["tiny", "uneven"])
@pytest.mark.parametrize("r1,r2", [(2, 2), (2, 0), (0, 2)])
def test_local_bases_are_one_stack_and_solves_copy_the_warm_start(request, tmp_path, instance, r1, r2):
    inst = request.getfixturevalue(instance)
    obs = ObservationSet(matrices=inst.mats, r1=r1, r2=r2)
    for name, est in _estimates(obs, tmp_path).items():
        assert isinstance(est.u_l, np.ndarray), name
        assert est.u_l.dtype == np.float64, name
        assert est.u_l.shape == (obs.n_sources, obs.n1, r2), name
    warm = spectral_init(obs)
    warm_arrays = [warm.u_g, warm.u_l, *warm.v_g, *warm.v_l]
    for params in (HmfParams(iterations=0), HmfParams(iterations=1), PerpcaParams(iterations=0)):
        est = solve(obs, params, warm_start=warm)
        for a in (est.u_g, est.u_l, *est.v_g, *est.v_l):
            assert not any(np.shares_memory(a, b) for b in warm_arrays), params


@pytest.mark.parametrize("params", [HmfParams(iterations=2), PerpcaParams(iterations=2)], ids=["hmf", "perpca"])
def test_fresh_solve_converts_no_matrix_twice(tiny, monkeypatch, params):
    # the problem's matrices were converted when it was built; the spectral
    # start reads them, and their Gram stack, from it
    obs = ObservationSet(matrices=tiny.mats, r1=2, r2=2)
    real = tcmf.numerics.as_matrix
    calls = []

    def counting_as_matrix(a):
        calls.append(1)
        return real(a)

    for name, module in list(sys.modules.items()):
        if (name == "tcmf" or name.startswith("tcmf.")) and getattr(module, "as_matrix", None) is real:
            monkeypatch.setattr(module, "as_matrix", counting_as_matrix)
    solve(obs, params)
    assert calls == []
