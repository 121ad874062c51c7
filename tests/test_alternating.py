import functools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tcmf import (
    GroundTruth,
    HmfParams,
    LambdaSchedule,
    ObservationSet,
    PerpcaParams,
    SparseParts,
    SynthConfig,
    TcmfConfig,
    assemble_observations,
    generate,
    hard_threshold,
    identifiability_report,
    initial_lambda,
    rpca_baseline,
    run,
)
from tcmf import alternating, perpca
from tcmf.errors import ConfigurationError, DivergenceError
from tcmf.metrics import LOG_FLOOR
from tcmf.numerics import linf
from tcmf.thresholding import _threshold

from conftest import orth


TINY_PARAMS = HmfParams(step_size=0.01, iterations=800, beta=1e-5)


def tiny_cfg(lambda1, epochs=5, params=TINY_PARAMS, rho=0.5, **kw):
    return TcmfConfig(
        schedule=LambdaSchedule(lambda1=lambda1, rho=rho, epsilon=1e-3),
        epochs=epochs,
        params=params,
        **kw,
    )


def test_config_validation(tiny):
    with pytest.raises(ConfigurationError):
        tiny_cfg(lambda1=1.0, epochs=0)
    with pytest.raises(ConfigurationError):
        tiny_cfg(lambda1=1.0, warm_start_policy="psychic")


@pytest.mark.parametrize("params", [None, "hmf"], ids=["none", "name"])
def test_run_rejects_non_params_before_any_epoch(tiny, monkeypatch, params):
    traces_seen = []
    monkeypatch.setattr(alternating, "EpochTrace",
                        lambda **kw: traces_seen.append(kw))
    obs = ObservationSet(matrices=tuple(tiny.mats), r1=2, r2=2)
    with pytest.raises(ConfigurationError, match="HmfParams or PerpcaParams"):
        run(obs, tiny_cfg(lambda1=1.0, params=params))
    assert traces_seen == []


def test_noiseless_first_epoch_thresholds_everything(tiny):
    obs = ObservationSet(matrices=tuple(tiny.mats), r1=2, r2=2)
    lam1 = initial_lambda(obs, "data_driven")
    est, s_hat, traces = run(obs, tiny_cfg(lam1, epochs=1))
    assert all(n == 0 for n in s_hat.support_sizes)
    assert tiny.product_error(est) <= 1e-3
    assert len(traces) == 1
    assert traces[0].linf_s is None and traces[0].support_violations is None
    assert traces[0].wall_ms >= 0.0


def test_lambda_trace_follows_recurrence(tiny):
    obs = ObservationSet(matrices=tuple(tiny.mats), r1=2, r2=2)
    cfg = tiny_cfg(initial_lambda(obs, "data_driven"), epochs=6)
    _, _, traces = run(obs, cfg)
    assert traces[0].lam == cfg.schedule.lambda1
    for prev, cur in zip(traces, traces[1:]):
        assert cur.lam == cfg.schedule.rho * prev.lam + cfg.schedule.epsilon


def test_run_is_deterministic(tiny):
    obs = ObservationSet(matrices=tuple(tiny.mats), r1=2, r2=2)
    cfg = tiny_cfg(initial_lambda(obs, "data_driven"), epochs=3)
    est_a, s_a, tr_a = run(obs, cfg)
    est_b, s_b, tr_b = run(obs, cfg)
    assert np.array_equal(est_a.u_g, est_b.u_g)
    for x, y in zip(s_a, s_b):
        assert np.array_equal(x, y)
    for a, b in zip(tr_a, tr_b):
        assert a.lam == b.lam and a.epoch == b.epoch


def test_run_records_metrics_with_ground_truth():
    gt = generate(SynthConfig(n_sources=3, n1=10, n2=24, r1=2, r2=2,
                              noise_prob=0.03, noise_magnitude=40.0, seed=5))
    obs = assemble_observations(gt)
    rep = identifiability_report(gt)
    lam1 = initial_lambda(obs, "theoretical", rep)
    # rho slow enough that the inner solver outruns the threshold decay,
    # the regime where the 2*lambda envelope is guaranteed
    cfg = tiny_cfg(lam1, epochs=8, rho=0.9,
                   params=HmfParams(step_size=5e-3, iterations=250, beta=1e-5))
    est, s_hat, traces = run(obs, cfg, gt=gt)
    assert len(traces) == 8
    for t in traces:
        assert t.linf_s is not None and t.linf_s >= 0.0
        assert t.support_violations == 0
        assert t.linf_s <= 2.0 * t.lam
    # sparse estimates sharpen as the threshold decays
    assert traces[-1].linf_s < traces[0].linf_s


def test_run_scores_every_epoch_through_the_module_binding(monkeypatch):
    # the benchmark's tracer wraps recovery_errors where alternating binds it;
    # its metrics.recovery_errors.* and thresholding.kept_on_support_frac read
    # a constant zero if run stops calling that name.  Its hook reads s_hat
    # as the second positional argument and sums s_hat.support_sizes, which
    # must count the nonzero entries of each epoch's dense sparse part
    gt = generate(SynthConfig(n_sources=3, n1=10, n2=24, r1=2, r2=2,
                              noise_prob=0.03, noise_magnitude=40.0, seed=5))
    obs = assemble_observations(gt)
    cfg = tiny_cfg(initial_lambda(obs, "theoretical", identifiability_report(gt)), epochs=4, rho=0.9,
                   params=HmfParams(step_size=5e-3, iterations=20, beta=1e-5))
    calls = []
    real = alternating.recovery_errors

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(alternating, "recovery_errors", counting)
    _, s_hat, _ = run(obs, cfg, gt)
    assert len(calls) == cfg.epochs
    assert all(len(args) == 3 and kwargs == {} and args[2] is gt for args, kwargs in calls)
    assert calls[-1][0][1] is s_hat
    for args, _ in calls:
        assert args[1].support_sizes == [int(np.count_nonzero(s)) for s in args[1]]
    assert sum(s_hat.support_sizes) > 0
    calls.clear()
    run(obs, cfg)
    assert calls == []


sparse_values = st.sampled_from([0.0, -0.0, 1.5, -2.0, 1e-300])


@st.composite
def sparse_pairs(draw):
    # per source, a true sparse part (sometimes empty) and an estimate that
    # is a strided or transposed view, as from_dense reads it
    n1 = draw(st.integers(1, 5))
    true_s, est_s = [], []
    for width in draw(st.lists(st.integers(1, 7), min_size=1, max_size=4)):
        empty = draw(st.booleans())
        true_s.append(np.zeros((n1, width)) if empty else draw(hnp.arrays(np.float64, (n1, width), elements=sparse_values)))
        if draw(st.booleans()):
            est_s.append(draw(hnp.arrays(np.float64, (n1, 2 * width), elements=sparse_values))[:, ::2])
        else:
            est_s.append(draw(hnp.arrays(np.float64, (width, n1), elements=sparse_values)).T)
    return true_s, SparseParts.from_dense(est_s)


@given(sparse_pairs())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_support_violations_read_on_the_true_support_count_the_dense_mask(pair):
    # counted on the two supports alone, the estimate's and the truth's
    true_s, s_hat = pair
    dense = sum(int(np.count_nonzero((e != 0.0) & (t == 0.0))) for e, t in zip(s_hat, true_s))
    assert alternating._support_violations(s_hat, SparseParts.from_dense(true_s)) == dense


def test_run_fresh_spectral_policy(tiny):
    obs = ObservationSet(matrices=tuple(tiny.mats), r1=2, r2=2)
    cfg = tiny_cfg(initial_lambda(obs, "data_driven"), epochs=3,
                   warm_start_policy="fresh_spectral")
    est, _, _ = run(obs, cfg)
    assert tiny.product_error(est) <= 1e-3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_divergence_attaches_partial_traces(tiny):
    obs = ObservationSet(matrices=tuple(tiny.mats), r1=2, r2=2)
    cfg = tiny_cfg(initial_lambda(obs, "data_driven"), epochs=4,
                   params=HmfParams(step_size=80.0, iterations=300, beta=1e-5))
    with pytest.raises(DivergenceError) as info:
        run(obs, cfg)
    assert isinstance(info.value.epoch_traces, list)
    assert info.value.objective_trace is not None


def test_rho_increase_never_adds_violations():
    # slower threshold decay keeps the sparse estimate conservative
    for seed in range(5):
        gt = generate(SynthConfig(n_sources=3, n1=12, n2=30, r1=2, r2=2,
                                  noise_prob=0.02, noise_magnitude=50.0, seed=seed))
        obs = assemble_observations(gt)
        rep = identifiability_report(gt)
        lam1 = initial_lambda(obs, "theoretical", rep)
        by_rho = {}
        for rho in (0.8, 0.9):
            cfg = TcmfConfig(
                schedule=LambdaSchedule(lambda1=lam1, rho=rho, epsilon=1e-3),
                epochs=6,
                params=HmfParams(step_size=5e-3, iterations=150, beta=1e-5),
            )
            _, _, traces = run(obs, cfg, gt=gt)
            by_rho[rho] = [t.support_violations for t in traces]
        for slow, fast in zip(by_rho[0.9], by_rho[0.8]):
            assert slow <= fast


def test_rpca_baseline_noiseless_low_rank():
    rng = np.random.default_rng(11)
    m = orth(rng.standard_normal((10, 2))) @ (orth(rng.standard_normal((20, 2))) * 3.0).T
    sched = LambdaSchedule(lambda1=float(np.max(np.abs(m))), rho=0.5, epsilon=1e-3)
    low, sparse = rpca_baseline(m, 2, sched, epochs=5)
    assert np.count_nonzero(sparse) == 0
    assert linf(low - m) < 1e-10


def test_rpca_baseline_diagonal_spikes_residual_decays():
    m = np.diag([100.0, -100.0, 100.0, -100.0, 100.0, -100.0])
    sched = LambdaSchedule(lambda1=100.0, rho=0.5, epsilon=1e-3)
    resid = []
    for epochs in (1, 4, 10):
        low, sparse = rpca_baseline(m, 1, sched, epochs=epochs)
        resid.append(linf(m - low - sparse))
    assert resid[2] < resid[0]
    assert resid[2] < 1e-8


def test_rpca_baseline_epoch_validation():
    with pytest.raises(ConfigurationError):
        rpca_baseline(np.ones((3, 3)), 1, LambdaSchedule(1.0, 0.5, 0.0), epochs=0)


@pytest.mark.parametrize("params", [
    HmfParams(step_size=5e-3, iterations=20, beta=1e-5),
    PerpcaParams(step_size=0.1, iterations=20),
], ids=["hmf", "perpca"])
def test_spectral_work_stays_at_the_size_of_the_answer(monkeypatch, params):
    # every SVD of a run, identifiability report included, decomposes an
    # operand with at most r1 + r2 rows or columns: no dense n1 x n2 (or
    # n1 x N n2) matrix is ever decomposed
    gt = generate(SynthConfig(n_sources=3, n1=12, n2=40, r1=2, r2=2,
                              noise_prob=0.02, noise_magnitude=50.0, seed=4))
    obs = assemble_observations(gt)
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    lam1 = initial_lambda(obs, "theoretical", identifiability_report(gt))
    run(obs, tiny_cfg(lam1, epochs=2, params=params, warm_start_policy="fresh_spectral"), gt)
    assert shapes
    assert max(min(shape[-2:]) for shape in shapes) <= obs.r1 + obs.r2


def _wide_instance(r1=2):
    # few wide sources, where the full-size stacks dominate a run's memory
    gt = generate(SynthConfig(n_sources=4, n1=20, n2=2000, r1=r1, r2=2,
                              noise_prob=0.01, noise_magnitude=100.0, seed=3))
    obs = assemble_observations(gt)
    return gt, obs, initial_lambda(obs, "theoretical", identifiability_report(gt))


def _traced_peak_over_data(obs, cfg, gt):
    # the traced peak of run above what was loaded, in data-sizes
    data_bytes = sum(m.nbytes for m in obs.matrices)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run(obs, cfg, gt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / data_bytes


@pytest.mark.parametrize("policy", ["fresh_spectral", "carry_forward"])
def test_run_holds_one_epochs_stacks_at_a_time(policy):
    # beside the data and the truth, an epoch needs its cleaned data through
    # the solve, then two scoring work arrays of one source each: about 1.5
    # data-sizes here, where a source is a quarter of the data.  A loop that
    # builds a dense sparse part to score it peaks at about 1.74; one that
    # holds it through the solve, at about 2.6; one that keeps the last
    # epoch's stacks and a list of reconstructions, at 4.5 or more
    gt, obs, lam1 = _wide_instance()
    cfg = tiny_cfg(lam1, epochs=3, rho=0.9, params=PerpcaParams(step_size=0.1, iterations=5),
                   warm_start_policy=policy)
    assert _traced_peak_over_data(obs, cfg, gt) <= 2.0


@pytest.mark.parametrize("with_truth", [True, False], ids=["truth", "no_truth"])
@pytest.mark.parametrize("policy", ["fresh_spectral", "carry_forward"])
def test_run_holds_one_data_sized_stack_beside_the_data(policy, with_truth):
    # an epoch holds its sparse part as its support, so its solve holds one
    # data-sized stack, the cleaned data, and no dense part is built: about
    # 1.5 data-sizes on these ten small sources.  A loop that holds the
    # dense sparse part beside the cleaned data reads 2.66 or more
    gt = generate(SynthConfig(n_sources=10, n1=20, n2=800, r1=2, r2=2,
                              noise_prob=0.01, noise_magnitude=100.0, seed=3))
    obs = assemble_observations(gt)
    cfg = tiny_cfg(initial_lambda(obs, "theoretical", identifiability_report(gt)), epochs=3, rho=0.9,
                   params=PerpcaParams(step_size=0.1, iterations=5), warm_start_policy=policy)
    assert _traced_peak_over_data(obs, cfg, gt if with_truth else None) <= 2.0


def _with_signed_zeros(a, rng):
    # a C-ordered copy of a with three entries set to +0.0 and three to -0.0
    a = np.array(a, order="C")
    picks = rng.choice(a.size, size=6, replace=False)
    a.reshape(-1)[picks] = [0.0, 0.0, 0.0, -0.0, -0.0, -0.0]
    return a


def test_support_form_gives_the_dense_threshold_bit_for_bit(uneven):
    # _split's cleaned matrix, and the sparse part its support gives, read
    # back dense, against the dense
    # m - _threshold(r, lam) and _threshold(r, lam): values, signed zeros and
    # the memory layout the solve's Gram stack reads
    rng = np.random.default_rng(11)
    cases = []
    for m in uneven.mats:
        m = _with_signed_zeros(m, rng)
        low = rng.standard_normal((m.shape[0], 2)) @ rng.standard_normal((2, m.shape[1]))
        r = _with_signed_zeros(m - low, rng)
        lam = float(np.median(np.abs(r)))
        cases += [(m, r, lam), (m, m, lam)]  # a later epoch, and the first, where r is m
    m, r, lam = cases[0]
    f = np.asfortranarray(m)
    cases += [(f, f, lam), (f, r, lam)]
    away_from_zero = r + np.where(np.signbit(r), -1.0, 1.0)
    cases += [(m, r, float(np.max(np.abs(r)))), (m, r, 1e300), (m, away_from_zero, 0.5)]
    sizes = []
    for m, r, lam in cases:
        cleaned, idx, vals = alternating._split(m, r, lam)
        sizes.append(idx.size)
        s = SparseParts((m.shape,), (idx,), (vals,))[0]
        want_s = _threshold(r, lam)
        want_cleaned = m - want_s
        for got, want in ((s, want_s), (cleaned, want_cleaned)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        assert cleaned.flags.f_contiguous == want_cleaned.flags.f_contiguous
    assert sizes[-3:] == [0, 0, m.size]  # two empty supports and a full one


@pytest.mark.parametrize("with_truth", [True, False], ids=["truth", "no_truth"])
def test_run_builds_the_dense_sparse_part_only_where_it_is_read(monkeypatch, with_truth):
    # run takes one path with or without ground truth: it returns the same
    # SparseParts either way, bit for bit, the supports of the last epoch's
    # threshold.  Neither run nor its scoring reads a dense sparse part:
    # only the caller does.  wall_ms still spans thresholding and solve
    gt = generate(SynthConfig(n_sources=3, n1=10, n2=24, r1=2, r2=2,
                              noise_prob=0.03, noise_magnitude=40.0, seed=5))
    obs = assemble_observations(gt)
    cfg = tiny_cfg(initial_lambda(obs, "theoretical", identifiability_report(gt)), epochs=4, rho=0.9,
                   params=HmfParams(step_size=5e-3, iterations=20, beta=1e-5))
    split_starts, solves = [], []
    split, solve = alternating._split, alternating.solve

    def timed_split(*args):
        split_starts.append(time.perf_counter())
        return split(*args)

    def timed_solve(problem, params, warm):
        est = solve(problem, params, warm)
        solves.append((problem, est, time.perf_counter()))
        return est

    dense_reads = []
    read = SparseParts.__getitem__

    def counting_read(parts, i):
        dense_reads.append(i)
        return read(parts, i)

    monkeypatch.setattr(SparseParts, "__getitem__", counting_read)
    _, other, _ = run(obs, cfg, None if with_truth else gt)
    monkeypatch.setattr(alternating, "_split", timed_split)
    monkeypatch.setattr(alternating, "solve", timed_solve)
    _, s_hat, traces = run(obs, cfg, gt if with_truth else None)
    assert dense_reads == []
    assert isinstance(s_hat, SparseParts) and s_hat.shapes == other.shapes
    for a, b in zip(s_hat.indices + s_hat.values, other.indices + other.values, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))
    last_fit = solves[-2][1]
    for i, m in enumerate(obs.matrices):
        want = hard_threshold(m - last_fit.reconstruction(i), traces[-1].lam)
        assert np.array_equal(s_hat[i], want)
        assert np.array_equal(solves[-1][0].matrices[i], m - want)
    n = obs.n_sources
    for epoch, t in enumerate(traces):
        assert t.wall_ms / 1e3 >= solves[epoch][2] - split_starts[epoch * n]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_run_records_overflowed_errors_without_warnings():
    # epoch 2 ends with shared entries near 1e186, so its squared errors
    # overflow to inf; epoch 3 then diverges and only DivergenceError must
    # surface
    gt, obs, lam1 = _wide_instance(r1=1)
    cfg = tiny_cfg(lam1, epochs=3, rho=0.9, params=HmfParams(step_size=5e-3, iterations=5, beta=1e-5))
    with pytest.raises(DivergenceError) as info:
        run(obs, cfg, gt)
    traces = info.value.epoch_traces
    assert len(traces) == 2
    assert traces[1].log_g == np.inf
    assert str(info.value).startswith("objective overflowed")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "params",
    [HmfParams(step_size=3e-3, iterations=5, beta=1e-5), HmfParams(step_size=5e-3, iterations=8, beta=1e-5)],
    ids=["step3e-3x5", "step5e-3x8"],
)
def test_rank_loss_in_a_diverging_run_is_divergence(params):
    # the shared factor explodes until it loses column rank.  This used to
    # escape as a bare SingularityError, "invalid data" to the CLI: at
    # 3e-3 x 5 from the correction after the loop, which no rule guarded, and
    # at 5e-3 x 8 from one inside it, before the objective had grown a
    # millionfold within the solve
    gt, obs, lam1 = _wide_instance()
    cfg = tiny_cfg(lam1, epochs=3, rho=0.9, params=params)
    with pytest.raises(DivergenceError, match="shared factor lost column rank") as info:
        run(obs, cfg, gt)
    assert info.value.objective_trace


# Final (lam, log_g, log_l, log_s) on criterion 12's instance, one row per
# backend and warm-start policy.  A change that moves results on purpose
# updates these literals and says so in CHANGES.md.
SAME_OUTPUTS = {
    ("hmf", "carry_forward"):
        (3.740356508365746, 0.9278890020628083, 0.9627806604611939, -0.08701871821103914),
    ("perpca", "carry_forward"):
        (3.740356508365746, -1.6491054160904584, -1.3394980570852952, -0.6142377496264433),
    ("perpca", "fresh_spectral"):
        (3.740356508365746, 0.49757368203375046, 0.46337733281339377, -0.5489196179124539),
}
SAME_OUTPUTS_PARAMS = {
    "hmf": HmfParams(step_size=5e-3, iterations=200, beta=1e-5),
    "perpca": PerpcaParams(step_size=0.1, iterations=200),
}


@pytest.mark.parametrize("backend,policy", list(SAME_OUTPUTS), ids=[f"{b}/{p}" for b, p in SAME_OUTPUTS])
def test_run_results_stay_the_same(backend, policy):
    gt = generate(SynthConfig(n_sources=3, n1=10, n2=24, r1=2, r2=2,
                              noise_prob=0.02, noise_magnitude=50.0, seed=4))
    obs = assemble_observations(gt)
    lam1 = initial_lambda(obs, "theoretical", identifiability_report(gt))
    cfg = TcmfConfig(schedule=LambdaSchedule(lambda1=lam1, rho=0.9, epsilon=1e-3), epochs=6,
                     params=SAME_OUTPUTS_PARAMS[backend], warm_start_policy=policy)
    _, _, traces = run(obs, cfg, gt)
    final = traces[-1]
    got = (final.lam, final.log_g, final.log_l, final.log_s)
    np.testing.assert_allclose(got, SAME_OUTPUTS[backend, policy], rtol=1e-9, atol=0)
    assert final.support_violations == 0


# Final (log_g, log_l, log_s) of the desk perpca run at seed 0 when every
# epoch ran its whole budget of 300 iterations (6,000 in all).
DESK_FULL_BUDGET_FINALS = (-5.893797, -5.235646, -4.056900)


def test_desk_perpca_stops_each_solve_on_the_rule(monkeypatch):
    # the desk workload: 10 sources of 15 x 100, r1 = r2 = 3, spikes of 100,
    # theoretical lambda1, step 0.1 x 300 x 20 epochs.  The stopping rule
    # ends the inner solves after about 3,160 iterations; a loop that runs
    # every budget again (6,000) fails the count, and one that stops too
    # early moves the finals
    gt = generate(SynthConfig(n_sources=10, n1=15, n2=100, r1=3, r2=3,
                              noise_prob=0.01, noise_magnitude=100.0, seed=0))
    obs = assemble_observations(gt)
    lam1 = initial_lambda(obs, "theoretical", identifiability_report(gt))
    calls = []
    solve = perpca.perpca_solve

    def counting_solve(*args, **kwargs):
        return solve(*args, **kwargs, callback=lambda *cb: calls.append(1))

    monkeypatch.setattr(perpca, "perpca_solve", counting_solve)
    cfg = TcmfConfig(schedule=LambdaSchedule(lambda1=lam1, rho=0.9, epsilon=1e-3), epochs=20,
                     params=PerpcaParams(step_size=0.1, iterations=300))
    _, _, traces = run(obs, cfg, gt)
    assert len(traces) == 20
    assert len(calls) <= 3300
    final = traces[-1]
    got = (final.log_g, final.log_l, final.log_s)
    np.testing.assert_allclose(got, DESK_FULL_BUDGET_FINALS, rtol=0, atol=1e-3)
    assert max(t.support_violations for t in traces) == 0


# The north star's edge cases, on both backends: no shared part, no local
# part, and sources of unequal widths.  One draw of 4 sources of 12 rows is
# cut to these widths for each rank pair.
EDGE_WIDTHS = (30, 45, 20, 38)
EDGE_RANKS = [(0, 3), (3, 0), (2, 2)]
EDGE_PARAMS = {
    "hmf": HmfParams(step_size=5e-3, iterations=100, beta=1e-5),
    "perpca": PerpcaParams(step_size=0.1, iterations=100),
}
LOG_NAMES = ("log_g", "log_l", "log_s")


@functools.cache
def _edge_traces(backend, r1, r2, seed, c=1.0):
    # the epoch traces of 15 epochs on the cut draw with v and s scaled by c,
    # so the data scales by c, and so do the theoretical lambda1 and epsilon
    gt = generate(SynthConfig(n_sources=4, n1=12, n2=max(EDGE_WIDTHS), r1=r1, r2=r2,
                              noise_prob=0.02, noise_magnitude=50.0, seed=seed))
    gt = GroundTruth(u_g=gt.u_g, u_l=gt.u_l,
                     v_g=[c * v[:w] for v, w in zip(gt.v_g, EDGE_WIDTHS)],
                     v_l=[c * v[:w] for v, w in zip(gt.v_l, EDGE_WIDTHS)],
                     s=[c * s[:, :w] for s, w in zip(gt.s, EDGE_WIDTHS)])
    obs = assemble_observations(gt)
    lam1 = initial_lambda(obs, "theoretical", identifiability_report(gt))
    cfg = TcmfConfig(schedule=LambdaSchedule(lambda1=lam1, rho=0.9, epsilon=1e-3 * c), epochs=15,
                     params=EDGE_PARAMS[backend])
    return tuple(run(obs, cfg, gt)[2])


def _unfloored(trace):
    # the log errors of a trace that are not the floor of a part that is
    # exactly zero (the shared part at r1 = 0, the local one at r2 = 0)
    return [name for name in LOG_NAMES if getattr(trace, name) > np.log10(LOG_FLOOR)]


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("r1, r2", EDGE_RANKS, ids=[f"r{a}{b}" for a, b in EDGE_RANKS])
@pytest.mark.parametrize("backend", ["hmf", "perpca"])
def test_run_recovers_edge_cases(backend, r1, r2, seed):
    # measured: the worst linf_s is 0.12 of 2 lambda, the smallest fall 0.90 decade
    traces = _edge_traces(backend, r1, r2, seed)
    assert len(traces) == 15
    for t in traces:
        assert t.support_violations == 0
        assert t.linf_s <= 2.0 * t.lam
    first, last = traces[0], traces[-1]
    assert _unfloored(first)
    for name in _unfloored(first):
        assert getattr(last, name) <= getattr(first, name) - 0.5, name


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("r1, r2", EDGE_RANKS, ids=[f"r{a}{b}" for a, b in EDGE_RANKS])
@pytest.mark.parametrize("c", [1e-2, 1e2])
@pytest.mark.parametrize("backend", [
    "perpca",
    # ROADMAP item 3: hmf's absolute step is not scale-free.  At x1e2 it
    # diverges in epoch 1, at x1e-2 it ends 0.07-2.9 decades off
    pytest.param("hmf", marks=pytest.mark.xfail(strict=True, reason="hmf is not scale-equivariant (ROADMAP item 3)")),
])
def test_run_is_scale_equivariant_on_edge_cases(backend, c, r1, r2, seed):
    # data scaled by c, with lambda1 and epsilon, scales every error by c: each
    # squared-error log moves by 2 log10(c) in every epoch
    base = _edge_traces(backend, r1, r2, seed)
    scaled = _edge_traces(backend, r1, r2, seed, c)
    assert len(scaled) == len(base)
    for t, t_c in zip(base, scaled):
        assert t_c.support_violations == 0
        for name in _unfloored(t):
            assert abs(getattr(t_c, name) - getattr(t, name) - 2.0 * np.log10(c)) <= 0.01, name
