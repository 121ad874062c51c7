"""Acceptance gate: twelve scripted checks, one test per criterion.

Each test ends with a single printed PASS line carrying the measured
quantities; run with -v for the per-criterion pass/fail listing or -s to see
the numbers.  The desk-scale fixtures are shared across criteria 1-4, so the
whole module stays well inside the stated runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from tcmf import (
    HmfParams,
    LambdaSchedule,
    ObservationSet,
    PerpcaParams,
    SynthConfig,
    TcmfConfig,
    assemble_observations,
    generate,
    hard_threshold,
    hmf_correct,
    hmf_gradients,
    identifiability_report,
    kkt_residuals,
    measure_misalignment,
    next_lambda,
    perpca_solve,
    renormalize,
    rpca_baseline,
    run,
    solve,
)
from tcmf.cli import EXIT_OK, main
from tcmf.numerics import linf
from tcmf.thresholding import initial_lambda

from conftest import orth, random_estimate
from test_hmf import fd_gradient

DESK_SEEDS = (0, 1, 2)
SLOPE_WINDOW = (math.log10(0.9) - 0.3, -0.005)


def desk_config(seed):
    return SynthConfig(n_sources=10, n1=15, n2=100, r1=3, r2=3,
                       noise_prob=0.01, noise_magnitude=100.0, seed=seed)


def desk_params():
    return HmfParams(step_size=5e-3, iterations=300, beta=1e-5)


@pytest.fixture(scope="module")
def desk():
    """Criteria 1-4 share these three seeded desk-scale runs."""
    out = {"runs": {}}
    start = time.time()
    for seed in DESK_SEEDS:
        gt = generate(desk_config(seed))
        obs = assemble_observations(gt)
        lam1 = initial_lambda(obs, "theoretical", identifiability_report(gt))
        cfg = TcmfConfig(schedule=LambdaSchedule(lambda1=lam1, rho=0.9, epsilon=1e-3),
                         epochs=20, params=desk_params())
        _, _, traces = run(obs, cfg, gt)
        out["runs"][seed] = (gt, obs, traces)
    out["elapsed"] = time.time() - start
    return out


@pytest.fixture(scope="module")
def no_denoising_baseline(desk):
    """Single factorization, threshold too large to keep anything."""
    gt, obs, _ = desk["runs"][0]
    huge = 10.0 * max(linf(m) for m in obs.matrices)
    cfg = TcmfConfig(
        schedule=LambdaSchedule(lambda1=huge, rho=0.9, epsilon=1e-3),
        epochs=1,
        params=HmfParams(step_size=5e-5, iterations=2000, beta=1e-5),
    )
    start = time.time()
    _, s_hat, traces = run(obs, cfg, gt)
    return s_hat, traces, time.time() - start


@pytest.fixture(scope="module")
def tiny_solutions(tiny):
    req = ObservationSet(matrices=tiny.mats, r1=tiny.r1, r2=tiny.r2)
    hmf = solve(req, HmfParams(step_size=0.01, iterations=2000, beta=1e-5))
    perpca = solve(req, PerpcaParams(step_size=0.1, iterations=2000))
    return {"hmf": hmf, "perpca": perpca}


def fit_slope(traces, field, lo=2, hi=15):
    xs = [t.epoch for t in traces if lo <= t.epoch <= hi]
    ys = [math.log10(getattr(t, field)) for t in traces if lo <= t.epoch <= hi]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    return (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
            / sum((x - xbar) ** 2 for x in xs))


def test_criterion_01_support_containment(desk):
    worst = 0
    for seed in DESK_SEEDS:
        _, _, traces = desk["runs"][seed]
        assert len(traces) == 20
        for t in traces:
            assert t.support_violations == 0
            worst = max(worst, t.support_violations)
    assert desk["elapsed"] <= 120.0
    print(f"criterion 1 PASS: 0 support violations over 3 seeds x 20 epochs "
          f"({desk['elapsed']:.1f}s)")


def test_criterion_02_sparse_error_within_twice_lambda(desk):
    margin = math.inf
    for seed in DESK_SEEDS:
        _, _, traces = desk["runs"][seed]
        for t in traces:
            assert t.linf_s <= 2.0 * t.lam
            margin = min(margin, 2.0 * t.lam - t.linf_s)
    print(f"criterion 2 PASS: linf_s <= 2*lambda at every epoch, min slack {margin:.3e}")


def test_criterion_03_linear_convergence_slopes(desk):
    lo, hi = SLOPE_WINDOW
    slopes = {}
    for seed in DESK_SEEDS:
        _, _, traces = desk["runs"][seed]
        for field in ("linf_s", "linf_g", "linf_l"):
            s = fit_slope(traces, field)
            assert lo <= s <= hi, f"seed {seed} {field} slope {s} outside [{lo}, {hi}]"
            slopes[(seed, field)] = s
    shown = ", ".join(f"{v:.3f}" for (sd, f), v in slopes.items() if f == "linf_s")
    print(f"criterion 3 PASS: all slopes in [{lo:.3f}, {hi}] (linf_s: {shown})")


def test_criterion_04_denoising_gap(desk, no_denoising_baseline):
    _, _, tcmf_traces = desk["runs"][0]
    s_hat, base_traces, elapsed = no_denoising_baseline
    assert all(np.count_nonzero(s) == 0 for s in s_hat)
    final = tcmf_traces[-1]
    base = base_traces[-1]
    assert final.log_s <= -1.0
    gap_g = base.log_g - final.log_g
    gap_l = base.log_l - final.log_l
    assert gap_g >= 3.0
    assert gap_l >= 3.0
    assert elapsed <= 180.0
    print(f"criterion 4 PASS: final log_s {final.log_s:.2f} <= -1, gaps "
          f"g={gap_g:.2f}, l={gap_l:.2f} decades (baseline {elapsed:.1f}s)")


def test_criterion_05_gradients_match_finite_differences():
    shapes = [(6, 8, 1, 1), (10, 12, 2, 2), (7, 9, 3, 1)]
    points = (7, 7, 6)
    rng = np.random.default_rng(2024)
    beta = 0.01
    worst = 0.0
    for (n1, n2, r1, r2), count in zip(shapes, points):
        for _ in range(count):
            mat = rng.standard_normal((n1, n2))
            est = random_estimate(rng, n1, [n2], r1, r2)
            grads = hmf_gradients(est, 0, mat, beta)
            for block, g in zip(("u_g", "v_g", "u_l", "v_l"), grads):
                fd = fd_gradient(est, 0, mat, beta, block)
                rel = linf(g - fd) / max(linf(fd), 1.0)
                worst = max(worst, rel)
    assert worst < 1e-4
    print(f"criterion 5 PASS: max relative gradient error {worst:.3e} over 20 points")


def test_criterion_06_correction_preserves_reconstruction():
    rng = np.random.default_rng(77)
    worst_move = 0.0
    worst_cross = 0.0
    for _ in range(100):
        n1 = int(rng.integers(4, 13))
        n2 = int(rng.integers(5, 15))
        r1 = int(rng.integers(1, 4))
        r2 = int(rng.integers(1, 4))
        est = random_estimate(rng, n1, [n2], r1, r2)
        before = est.reconstruction(0)
        fixed = hmf_correct(est, 0)
        worst_move = max(worst_move, linf(fixed.reconstruction(0) - before))
        worst_cross = max(worst_cross, linf(fixed.u_g.T @ fixed.u_l[0]))
    assert worst_move < 1e-10
    assert worst_cross < 1e-10
    print(f"criterion 6 PASS: 100 instances, max reconstruction move {worst_move:.3e}, "
          f"max cross product {worst_cross:.3e}")


def test_criterion_07_orthogonality_every_iteration(tiny):
    self_errs = []
    cross_errs = []

    def record(tau, u_g, u_l):
        self_errs.append(linf(u_g.T @ u_g - np.eye(tiny.r1)))
        for ul in u_l:
            self_errs.append(linf(ul.T @ ul - np.eye(tiny.r2)))
            cross_errs.append(linf(u_g.T @ ul))

    req = ObservationSet(matrices=tiny.mats, r1=tiny.r1, r2=tiny.r2)
    est = perpca_solve(req, PerpcaParams(step_size=0.1, iterations=300), callback=record)
    assert len(cross_errs) == 300 * tiny.n_sources
    assert max(self_errs) < 1e-6
    assert max(cross_errs) < 1e-6
    final = max(linf(est.u_g.T @ ul) for ul in est.u_l)
    assert final < 1e-10
    print(f"criterion 7 PASS: per-iteration self {max(self_errs):.3e}, "
          f"cross {max(cross_errs):.3e}, final cross {final:.3e}")


def test_criterion_08_single_source_reduces_to_svd():
    rng = np.random.default_rng(6)
    u = orth(rng.standard_normal((10, 2)))
    v = orth(rng.standard_normal((20, 2))) * 3.0
    m = u @ v.T
    obs = ObservationSet(matrices=[m], r1=2, r2=0)
    lam1 = initial_lambda(obs, "data_driven")
    sched = LambdaSchedule(lambda1=lam1, rho=0.5, epsilon=1e-3)
    params = HmfParams(step_size=0.01, iterations=2000, beta=1e-5)
    est, s_hat, _ = run(obs, TcmfConfig(schedule=sched, epochs=5, params=params))
    low, sparse = rpca_baseline(m, 2, sched, 5)
    assert np.count_nonzero(sparse) == 0
    assert all(np.count_nonzero(s) == 0 for s in s_hat)
    gap = linf(est.reconstruction(0) - low)
    assert gap <= 1e-4
    print(f"criterion 8 PASS: factorization vs truncated-SVD baseline gap {gap:.3e}")


def test_criterion_09_backends_agree(tiny, tiny_solutions):
    gap = max(
        linf(tiny_solutions["hmf"].reconstruction(i)
             - tiny_solutions["perpca"].reconstruction(i))
        for i in range(tiny.n_sources)
    )
    assert gap <= 2e-3
    print(f"criterion 9 PASS: hmf vs perpca reconstruction gap {gap:.3e}")


def test_criterion_10_kkt_residuals(tiny, tiny_solutions):
    worst = 0.0
    for backend in ("hmf", "perpca"):
        report = kkt_residuals(renormalize(tiny_solutions[backend]), tiny.mats)
        for field in ("r_vg", "r_vl", "r_ug", "r_ul", "r_orth"):
            worst = max(worst, getattr(report, field))
    assert worst < 1e-4
    print(f"criterion 10 PASS: max KKT residual {worst:.3e} across both backends")


def test_criterion_11_definitional_suite():
    # boundary semantics: magnitudes equal to the threshold are removed
    out = hard_threshold(np.array([[0.5, -2.0], [1.0, 3.0]]), 1.0)
    assert np.array_equal(out, np.array([[0.0, -2.0], [0.0, 3.0]]))

    # two sources at +/- angle from a shared axis: theta = sin(angle)^2
    worst = 0.0
    for angle in (math.pi / 12, math.pi / 6, math.pi / 4):
        u1 = np.array([[math.cos(angle)], [math.sin(angle)]])
        u2 = np.array([[math.cos(angle)], [-math.sin(angle)]])
        worst = max(worst, abs(measure_misalignment([u1, u2]) - math.sin(angle) ** 2))
    assert worst < 1e-10

    # the threshold recurrence is evaluated exactly, not approximately
    sched = LambdaSchedule(lambda1=7.0, rho=0.6, epsilon=1e-3)
    lam = sched.lambda1
    for _ in range(10):
        stepped = next_lambda(sched, lam)
        assert stepped == sched.rho * lam + sched.epsilon
        lam = stepped
    print(f"criterion 11 PASS: threshold boundary, misalignment closed form "
          f"(max err {worst:.3e}), exact recurrence")


def test_criterion_12_byte_identical_traces(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "n_sources = 3\nn1 = 10\nn2 = 24\nr1 = 2\nr2 = 2\n"
        "noise_prob = 0.02\nnoise_magnitude = 50.0\nseed = 4\n"
        "lambda1_mode = theoretical\nrho = 0.9\nepsilon = 1e-3\nepochs = 6\n"
        "backend = hmf\nstep_size = 5e-3\ninner_iterations = 200\nbeta = 1e-5\n"
        "warm_start = carry_forward\n"
    )
    data = tmp_path / "data"
    assert main(["synth", "--config", str(cfg), "--out", str(data)]) == EXIT_OK
    t1 = tmp_path / "a.csv"
    t2 = tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg), "--data", str(data), "--out", str(t1)]) == EXIT_OK
    assert main(["run", "--config", str(cfg), "--data", str(data), "--out", str(t2)]) == EXIT_OK
    b1 = t1.read_bytes()
    assert b1 == t2.read_bytes()
    assert len(b1) > 0
    print(f"criterion 12 PASS: two runs produced byte-identical traces ({len(b1)} bytes)")
