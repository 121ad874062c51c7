import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tcmf import (
    IdentifiabilityReport,
    LambdaSchedule,
    ObservationSet,
    hard_threshold,
    initial_lambda,
    next_lambda,
)
from tcmf.errors import ConfigurationError

finite_matrices = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
lambdas = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def test_hard_threshold_boundary_zeroed():
    x = np.array([[0.5, -2.0], [1.0, 3.0]])
    out = hard_threshold(x, 1.0)
    assert np.array_equal(out, np.array([[0.0, -2.0], [0.0, 3.0]]))


def test_hard_threshold_lambda_zero_keeps_nonzeros():
    x = np.array([[0.0, -0.25], [1e-300, 2.0]])
    out = hard_threshold(x, 0.0)
    assert np.array_equal(out, x)


def test_hard_threshold_max_entry_zeroes_everything():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 7))
    out = hard_threshold(x, np.max(np.abs(x)))
    assert np.count_nonzero(out) == 0


@given(finite_matrices, lambdas)
@settings(max_examples=200, deadline=None)
def test_hard_threshold_idempotent(x, lam):
    once = hard_threshold(x, lam)
    assert np.array_equal(hard_threshold(once, lam), once)


@given(finite_matrices, lambdas, lambdas)
@settings(max_examples=200, deadline=None)
def test_hard_threshold_support_monotone(x, a, b):
    lo, hi = min(a, b), max(a, b)
    sup_hi = hard_threshold(x, hi) != 0
    sup_lo = hard_threshold(x, lo) != 0
    assert np.all(sup_lo | ~sup_hi)


@given(finite_matrices, lambdas)
@settings(max_examples=200, deadline=None)
def test_hard_threshold_removal_bounded(x, lam):
    out = hard_threshold(x, lam)
    if x.size:
        assert np.max(np.abs(x - out)) <= lam


def test_lambda_schedule_validation():
    LambdaSchedule(lambda1=1.0, rho=0.5, epsilon=0.1)
    with pytest.raises(ConfigurationError):
        LambdaSchedule(lambda1=0.0, rho=0.5, epsilon=0.0)
    with pytest.raises(ConfigurationError):
        LambdaSchedule(lambda1=1.0, rho=1.0, epsilon=0.0)
    with pytest.raises(ConfigurationError):
        LambdaSchedule(lambda1=1.0, rho=0.5, epsilon=-0.1)
    with pytest.raises(ConfigurationError):
        # violates rho < 1 - epsilon/lambda1
        LambdaSchedule(lambda1=1.0, rho=0.95, epsilon=0.1)


@pytest.mark.parametrize("field", ["lambda1", "rho", "epsilon"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_lambda_schedule_rejects_non_finite_fields(field, value):
    # a NaN fails every comparison, so each check must be one NaN cannot pass
    fields = {"lambda1": 5.0, "rho": 0.9, "epsilon": 1e-3, field: value}
    with pytest.raises(ConfigurationError):
        LambdaSchedule(**fields)


def test_next_lambda_arithmetic():
    assert next_lambda(LambdaSchedule(1.0, 0.5, 0.1), 1.0) == pytest.approx(0.6)
    assert next_lambda(LambdaSchedule(1.0, 0.9, 0.0), 1.0) == pytest.approx(0.9)


def test_next_lambda_fixed_point():
    sched = LambdaSchedule(lambda1=5.0, rho=0.7, epsilon=0.3)
    star = sched.epsilon / (1.0 - sched.rho)
    assert next_lambda(sched, star) == pytest.approx(star)


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=0.05, max_value=0.9),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_lambda_sequence_decreases_to_fixed_point(lam1, rho, eps):
    star = eps / (1.0 - rho)
    if lam1 <= star or rho >= 1.0 - eps / lam1:
        return  # schedule invalid or starts at/below the fixed point
    sched = LambdaSchedule(lambda1=lam1, rho=rho, epsilon=eps)
    lam = lam1
    tol = 1e-9 * max(1.0, star)  # one-ulp slack once the iterate reaches the fixed point
    for _ in range(50):
        nxt = next_lambda(sched, lam)
        assert star - tol <= nxt <= lam + tol
        lam = nxt


def obs_with(mats, r1=1, r2=1):
    return ObservationSet(matrices=tuple(mats), r1=r1, r2=r2)


def test_initial_lambda_theoretical_formula():
    obs = obs_with([np.zeros((15, 1000))], r1=3, r2=3)
    rep = IdentifiabilityReport(alpha=0.0, mu=1.0, theta=0.5,
                                sigma_max=10.0, sigma_min=1.0)
    lam = initial_lambda(obs, "theoretical", rep)
    assert lam == pytest.approx(10.0 * 1.0 * 6 / np.sqrt(15 * 1000))


def test_initial_lambda_theoretical_requires_report():
    obs = obs_with([np.ones((3, 4))])
    with pytest.raises(ConfigurationError):
        initial_lambda(obs, "theoretical", None)


def test_initial_lambda_data_driven():
    m = np.zeros((4, 5))
    m[2, 3] = -100.0
    assert initial_lambda(obs_with([m]), "data_driven") == 100.0


def test_initial_lambda_rejects_zero_data():
    obs = obs_with([np.zeros((4, 5))])
    with pytest.raises(ConfigurationError):
        initial_lambda(obs, "data_driven")


def test_initial_lambda_unknown_mode():
    with pytest.raises(ConfigurationError):
        initial_lambda(obs_with([np.ones((2, 2))]), "guess")
