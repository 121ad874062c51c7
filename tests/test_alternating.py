import numpy as np
import pytest

from tcmf import (
    HmfParams,
    LambdaSchedule,
    ObservationSet,
    SynthConfig,
    TcmfConfig,
    assemble_observations,
    generate,
    identifiability_report,
    initial_lambda,
    rpca_baseline,
    run,
)
from tcmf import alternating
from tcmf.errors import ConfigurationError, DivergenceError
from tcmf.numerics import linf

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
    for x, y in zip(s_a.s, s_b.s):
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
