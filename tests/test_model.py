import numpy as np
import pytest

from tcmf import (
    GroundTruth,
    ObservationSet,
    SynthConfig,
    assemble_observations,
    generate,
    identifiability_report,
    measure_incoherence,
    measure_misalignment,
    measure_sparsity,
)
from tcmf.errors import ConfigurationError, ContractViolationError, DimensionError, SingularityError

from conftest import orth


def small_cfg(**overrides):
    base = dict(n_sources=4, n1=12, n2=30, r1=2, r2=2,
                noise_prob=0.05, noise_magnitude=10.0, seed=7)
    base.update(overrides)
    return SynthConfig(**base)


def test_synth_config_validation():
    with pytest.raises(DimensionError):
        small_cfg(n1=0)
    with pytest.raises(DimensionError):
        small_cfg(r1=-1)
    with pytest.raises(DimensionError):
        small_cfg(r1=10, r2=10)  # r1 + r2 > min(n1, n2)
    with pytest.raises(ConfigurationError):
        small_cfg(noise_prob=1.5)
    with pytest.raises(ConfigurationError):
        small_cfg(noise_magnitude=0.0)


def test_generate_zero_noise_prob_gives_zero_sparse():
    gt = generate(small_cfg(noise_prob=0.0))
    for s in gt.s:
        assert np.count_nonzero(s) == 0


def test_generate_orthogonality_and_orthonormality():
    gt = generate(small_cfg(n1=15, r1=3, r2=3))
    for ul in gt.u_l:
        assert np.max(np.abs(gt.u_g.T @ ul)) < 1e-10
        assert np.allclose(ul.T @ ul, np.eye(3), atol=1e-10)
    assert np.allclose(gt.u_g.T @ gt.u_g, np.eye(3), atol=1e-10)


def test_generate_nonzero_fraction_tracks_probability():
    gt = generate(SynthConfig(n_sources=100, n1=15, n2=1000, r1=3, r2=3,
                              noise_prob=0.01, noise_magnitude=100.0, seed=11))
    frac = np.mean([np.count_nonzero(s) / s.size for s in gt.s])
    assert 0.008 <= frac <= 0.012


def test_generate_noise_values_are_plus_minus_magnitude():
    gt = generate(small_cfg(noise_prob=0.2, noise_magnitude=10.0))
    vals = np.concatenate([s[s != 0] for s in gt.s])
    assert vals.size > 0
    assert set(np.unique(np.abs(vals))) == {10.0}
    # both signs occur
    assert (vals > 0).any() and (vals < 0).any()


def test_generate_is_deterministic():
    a = generate(small_cfg())
    b = generate(small_cfg())
    assert np.array_equal(a.u_g, b.u_g)
    for x, y in zip(a.s, b.s):
        assert np.array_equal(x, y)
    for x, y in zip(a.v_l, b.v_l):
        assert np.array_equal(x, y)


def test_assemble_observations_matches_components():
    gt = generate(small_cfg())
    obs = assemble_observations(gt)
    assert obs.n_sources == 4 and obs.r1 == 2
    for i, m in enumerate(obs.matrices):
        resid = m - gt.low_rank(i) - gt.s[i]
        assert np.max(np.abs(resid)) == 0.0


def test_assemble_zero_factors_gives_zero():
    z = np.zeros
    gt = GroundTruth(u_g=z((5, 2)), v_g=[z((8, 2))], u_l=[z((5, 1))],
                     v_l=[z((8, 1))], s=[z((5, 8))])
    obs = assemble_observations(gt)
    assert np.count_nonzero(obs.matrices[0]) == 0


def test_assemble_noiseless_rank_bound():
    gt = generate(small_cfg(noise_prob=0.0))
    obs = assemble_observations(gt)
    for m in obs.matrices:
        assert np.linalg.matrix_rank(m, tol=1e-8) <= 4


def test_observation_set_requires_matching_rows():
    with pytest.raises(DimensionError):
        ObservationSet(matrices=(np.zeros((3, 4)), np.zeros((5, 4))), r1=1, r2=1)


def test_measure_sparsity_examples():
    assert measure_sparsity(np.zeros((4, 6))) == 0.0
    assert measure_sparsity(np.ones((4, 6))) == 1.0
    perm = np.eye(4)[[2, 0, 3, 1]]
    assert measure_sparsity(perm) == 0.25


def test_measure_sparsity_tolerance_parameter():
    s = np.array([[1e-13, 0.0], [0.5, 0.0]])
    assert measure_sparsity(s) == 1.0  # strict |x| > 0 by default
    assert measure_sparsity(s, tol=1e-12) == 0.5


def test_measure_incoherence_examples():
    ones = np.full((16, 1), 0.25)
    assert measure_incoherence(ones) == pytest.approx(1.0)
    e1 = np.zeros((4, 1))
    e1[0, 0] = 1.0
    assert measure_incoherence(e1) == pytest.approx(2.0)


def test_measure_incoherence_matches_row_scan():
    rng = np.random.default_rng(9)
    u = orth(rng.standard_normal((8, 8)))[:, :2]
    n, r = u.shape
    brute = max(np.linalg.norm(u[i]) for i in range(n)) * np.sqrt(n) / np.sqrt(r)
    assert measure_incoherence(u) == pytest.approx(brute)


def test_measure_incoherence_rejects_non_orthonormal():
    with pytest.raises(ContractViolationError):
        measure_incoherence(np.ones((4, 2)))


@pytest.mark.parametrize("angle", [np.pi / 12, np.pi / 6, np.pi / 4])
def test_measure_misalignment_two_source_closed_form(angle):
    u1 = np.array([[np.cos(angle)], [np.sin(angle)]])
    u2 = np.array([[np.cos(angle)], [-np.sin(angle)]])
    theta = measure_misalignment([u1, u2])
    assert abs(theta - np.sin(angle) ** 2) < 1e-10


def test_measure_misalignment_axes_and_identical():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert measure_misalignment([e1, e2]) == pytest.approx(0.5)
    assert measure_misalignment([e1, e1, e1]) == pytest.approx(0.0, abs=1e-12)


def test_measure_misalignment_range():
    rng = np.random.default_rng(13)
    for _ in range(10):
        us = [rng.standard_normal((6, 2)) for _ in range(3)]
        theta = measure_misalignment(us)
        assert 0.0 <= theta <= 1.0


def test_measure_misalignment_rank_deficient_member():
    with pytest.raises(SingularityError):
        measure_misalignment([np.ones((4, 2))])


def test_identifiability_report_noiseless():
    gt = generate(small_cfg(noise_prob=0.0))
    rep = identifiability_report(gt)
    assert rep.alpha == 0.0
    assert 0.0 <= rep.theta <= 1.0
    assert rep.sigma_min <= rep.sigma_max
    assert rep.mu >= 1.0  # incoherence is always at least 1


def test_identifiability_report_alpha_recount():
    gt = generate(small_cfg(noise_prob=0.05))
    rep = identifiability_report(gt)
    assert rep.alpha == max(measure_sparsity(s) for s in gt.s)


def test_identifiability_report_single_source_theta_zero():
    gt = generate(small_cfg(n_sources=1))
    rep = identifiability_report(gt)
    assert rep.theta == pytest.approx(0.0, abs=1e-12)
