import functools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tcmf import (
    FactorEstimate,
    GroundTruth,
    IdentifiabilityReport,
    ObservationSet,
    SparseParts,
    SynthConfig,
    ThinSVD,
    assemble_observations,
    generate,
    hard_threshold,
    hmf_correct,
    identifiability_report,
    measure_incoherence,
    measure_misalignment,
    measure_sparsity,
    projection_onto,
    spectral_init,
    truncated_svd,
)
from tcmf.errors import ConfigurationError, ContractViolationError, DimensionError, SingularityError

from conftest import TinyInstance, orth


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
    for magnitude in (0.0, np.nan, np.inf):  # with noise_prob 0, NaN would pass silently
        with pytest.raises(ConfigurationError, match="noise_magnitude"):
            small_cfg(noise_magnitude=magnitude, noise_prob=0.0)
    with pytest.raises(ConfigurationError, match="seed"):
        small_cfg(seed=-1)


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
        resid = m - gt.reconstruction(i) - gt.s[i]
        assert np.max(np.abs(resid)) == 0.0


def test_ground_truth_is_a_factor_estimate():
    gt = generate(small_cfg(r2=3))
    assert isinstance(gt, FactorEstimate)
    assert (gt.n_sources, gt.r1, gt.r2) == (4, 2, 3)
    for i in range(gt.n_sources):
        want = gt.u_g @ gt.v_g[i].T + gt.u_l[i] @ gt.v_l[i].T
        assert np.array_equal(gt.reconstruction(i), want)


@pytest.mark.parametrize("instance", ["tiny", "uneven"])
@pytest.mark.parametrize("r1,r2", [(2, 2), (2, 0), (0, 2)])
def test_joint_layout_round_trips(request, instance, r1, r2):
    obs = ObservationSet(matrices=request.getfixturevalue(instance).mats, r1=r1, r2=r2)
    est = spectral_init(obs)
    factors = lambda e: [e.u_g, e.u_l, *e.v_g, *e.v_l]
    before = [a.copy() for a in factors(est)]
    u, v = est.joint()
    assert u.shape == (obs.n_sources, obs.n1, r1 + r2)
    assert [vi.shape for vi in v] == [(m.shape[1], r1 + r2) for m in obs.matrices]
    back = FactorEstimate.from_joint(u, v, r1)
    assert all(np.array_equal(a, b) for a, b in zip(factors(back), before, strict=True))
    # joint() returns new arrays: writing into them leaves the estimate as it was
    u += 1.0
    for vi in v:
        vi += 1.0
    assert all(np.array_equal(a, b) for a, b in zip(factors(est), before, strict=True))


def test_correct_keeps_a_ground_truth_a_ground_truth():
    gt = generate(small_cfg(r2=3))
    fixed = hmf_correct(gt, 1)
    assert isinstance(fixed, GroundTruth)
    assert fixed.s is gt.s
    for i in (0, 2, 3):
        assert np.array_equal(fixed.u_l[i], gt.u_l[i])
        assert np.array_equal(fixed.v_g[i], gt.v_g[i])


def _factor_parts(**overrides):
    # one consistent two-source set: n1 = 5, widths 8 and 6, r1 = 2, r2 = 1
    z = np.zeros
    parts = dict(u_g=z((5, 2)), v_g=[z((8, 2)), z((6, 2))], u_l=[z((5, 1)), z((5, 1))],
                 v_l=[z((8, 1)), z((6, 1))])
    parts.update(overrides)
    return parts


@pytest.mark.parametrize("overrides", [
    dict(v_g=[], u_l=[], v_l=[]),
    dict(v_l=[np.zeros((8, 1))]),
    dict(u_g=np.zeros((4, 2))),
    dict(u_l=[np.zeros((5, 1)), np.zeros((5, 2))]),
    dict(v_g=[np.zeros((8, 2)), np.zeros((6, 3))]),
    dict(v_l=[np.zeros((8, 1)), np.zeros((7, 1))]),
    dict(u_g=np.zeros(5)),
], ids=["no_sources", "list_lengths", "u_g_rows", "u_l_rank", "v_g_rank", "v_l_rows", "u_g_1d"])
def test_factor_estimate_rejects_inconsistent_shapes(overrides):
    FactorEstimate(**_factor_parts())
    with pytest.raises(DimensionError):
        FactorEstimate(**_factor_parts(**overrides))


def test_ground_truth_checks_sparse_part_shapes():
    GroundTruth(**_factor_parts(), s=[np.zeros((5, 8)), np.zeros((5, 6))])
    z = np.zeros
    for s in ([z((5, 8)), z((5, 7))], [z((6, 8)), z((6, 6))], [z((5, 8))]):
        with pytest.raises(DimensionError):
            GroundTruth(**_factor_parts(), s=s)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_observation_set_rejects_non_finite_entries(bad):
    m = np.ones((3, 4))
    m[1, 2] = bad
    with pytest.raises(ContractViolationError):
        ObservationSet(matrices=[np.ones((3, 4)), m], r1=1, r2=1)


@pytest.mark.parametrize("shape", [(3,), (2, 3, 4)], ids=["1d", "3d"])
def test_observation_set_rejects_non_matrices(shape):
    with pytest.raises(DimensionError):
        ObservationSet(matrices=[np.ones(shape)], r1=1, r2=0)


def test_observation_set_rejects_ranks_wider_than_a_source():
    # r1 + r2 fits n1 = 10 but not the 2 columns of each source
    mats = [np.random.default_rng(i).standard_normal((10, 2)) for i in range(3)]
    with pytest.raises(DimensionError):
        ObservationSet(matrices=mats, r1=1, r2=3)
    with pytest.raises(DimensionError):
        spectral_init(ObservationSet(matrices=mats, r1=1, r2=3))
    # the narrowest source decides
    with pytest.raises(DimensionError):
        ObservationSet(matrices=[np.ones((10, 5)), np.ones((10, 3))], r1=2, r2=2)
    assert ObservationSet(matrices=[np.ones((10, 5)), np.ones((10, 4))], r1=2, r2=2).n_sources == 2


def test_observation_set_stores_float64_arrays():
    obs = ObservationSet(matrices=([[1, 2, 3], [4, 5, 6]], np.arange(4).reshape(2, 2)), r1=1, r2=1)
    assert isinstance(obs.matrices, list)
    for m in obs.matrices:
        assert isinstance(m, np.ndarray) and m.dtype == np.float64
    assert np.array_equal(obs.matrices[0], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert obs.n1 == 2


def test_measure_sparsity_examples():
    assert measure_sparsity(np.zeros((4, 6))) == 0.0
    assert measure_sparsity(np.ones((4, 6))) == 1.0
    perm = np.eye(4)[[2, 0, 3, 1]]
    assert measure_sparsity(perm) == 0.25
    # any entry other than an exact zero counts
    assert measure_sparsity(np.array([[1e-13, 0.0], [0.5, 0.0]])) == 1.0


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


def dense_identifiability(gt):
    """alpha, theta, mu, sigma_max and sigma_min, with mu and sigma from a
    full SVD of every dense product."""
    mus, sigmas = [], []
    for i in range(gt.n_sources):
        for u, v in ((gt.u_g, gt.v_g[i]), (gt.u_l[i], gt.v_l[i])):
            svd = truncated_svd(u @ v.T, u.shape[1])
            mus += [measure_incoherence(svd.u), measure_incoherence(svd.v)]
            sigmas += svd.sigma.tolist()
    alpha = max(measure_sparsity(s) for s in gt.s)
    return alpha, measure_misalignment(gt.u_l), max(mus), max(sigmas), min(sigmas)


@pytest.mark.parametrize("u_scale", [1.0, 3.0], ids=["orthonormal", "scaled"])
def test_identifiability_report_matches_dense_products(u_scale):
    gt = generate(small_cfg(n_sources=5, n1=20, n2=60, r1=3, r2=2))
    gt = GroundTruth(u_g=u_scale * gt.u_g, v_g=gt.v_g, u_l=[u_scale * u for u in gt.u_l],
                     v_l=gt.v_l, s=gt.s)
    got = identifiability_report(gt)
    alpha, theta, mu, sigma_max, sigma_min = dense_identifiability(gt)
    assert (got.alpha, got.theta) == (alpha, theta)
    assert got.mu == pytest.approx(mu, rel=1e-10)
    assert got.sigma_max == pytest.approx(sigma_max, rel=1e-10)
    assert got.sigma_min == pytest.approx(sigma_min, rel=1e-10)


def test_identifiability_report_rejects_rank_above_the_product_size():
    # one source, and one narrow source beside a wide one, whose cores
    # could not share a stack
    for widths in ([2], [4, 2]):
        gt = GroundTruth(u_g=np.eye(3), v_g=[np.ones((w, 3)) for w in widths],
                         u_l=[np.zeros((3, 0))] * len(widths), v_l=[np.zeros((w, 0)) for w in widths],
                         s=[np.zeros((3, w)) for w in widths])
        with pytest.raises(DimensionError, match="out of range"):
            identifiability_report(gt)


def test_identifiability_report_single_source_theta_zero():
    gt = generate(small_cfg(n_sources=1))
    rep = identifiability_report(gt)
    assert rep.theta == pytest.approx(0.0, abs=1e-12)


def per_source_report(gt):
    """The report as a loop over sources: per product, a QR of each factor,
    truncated_svd of the core, ThinSVD of the mapped factors and
    measure_incoherence of each; theta from a sum of projection_onto."""
    mus, sigmas = [], []
    for i in range(gt.n_sources):
        for u, v in ((gt.u_g, gt.v_g[i]), (gt.u_l[i], gt.v_l[i])):
            if u.shape[1] == 0:
                continue
            (q_u, r_u), (q_v, r_v) = np.linalg.qr(u), np.linalg.qr(v)
            core = truncated_svd(r_u @ r_v.T, u.shape[1])
            svd = ThinSVD(u=q_u @ core.u, sigma=core.sigma, v=q_v @ core.v)
            mus += [measure_incoherence(svd.u), measure_incoherence(svd.v)]
            sigmas += svd.sigma.tolist()
    avg = sum(projection_onto(u) for u in gt.u_l) / gt.n_sources
    theta = min(max(1.0 - float(np.linalg.eigvalsh((avg + avg.T) / 2.0)[-1]), 0.0), 1.0)
    sigma_max = max(sigmas, default=0.0)
    nonzero = [s for s in sigmas if s > 1e-12 * max(sigma_max, 1.0)]
    return IdentifiabilityReport(alpha=max(measure_sparsity(s) for s in gt.s), mu=max(mus, default=0.0),
                                 theta=theta, sigma_max=sigma_max, sigma_min=min(nonzero, default=0.0))


def _spiked_truth(inst, scale=1.0):
    # the instance's factors, u scaled, plus a few spikes per source
    rng = np.random.default_rng(1)
    s = [np.where(rng.random(m.shape) < 0.05, 10.0, 0.0) for m in inst.mats]
    return GroundTruth(u_g=scale * inst.u_g, v_g=inst.v_g, u_l=[scale * u for u in inst.u_l], v_l=inst.v_l, s=s)


@pytest.mark.parametrize("case", ["tiny", "uneven", "r1_zero", "r2_zero", "single", "scaled"])
def test_identifiability_report_equals_the_per_source_loop_bit_for_bit(request, case):
    # every field sets lambda1 and so every later bit of a run: the stacked
    # report must equal the loop over sources exactly, unequal widths included
    inst = {
        "tiny": lambda: request.getfixturevalue("tiny"),
        "uneven": lambda: request.getfixturevalue("uneven"),
        "r1_zero": lambda: TinyInstance(seed=5, r1=0, r2=3),
        "r2_zero": lambda: TinyInstance(seed=6, r1=3, r2=0),
        "single": lambda: TinyInstance(seed=7, n=1),
        "scaled": lambda: TinyInstance(seed=9, n=5, n1=20, n2=[60, 41, 60, 33, 50], r1=3, r2=2),
    }[case]()
    gt = _spiked_truth(inst, scale=3.0 if case == "scaled" else 1.0)
    got = identifiability_report(gt)
    assert got == per_source_report(gt)
    assert got.alpha > 0.0 and got.mu >= 1.0 and got.sigma_max > 0.0


def _recorded_lapack_calls(monkeypatch, gt):
    calls = {"svd": 0, "qr": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def recording(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    identifiability_report(gt)
    monkeypatch.undo()
    return calls


def test_identifiability_report_decomposes_stacks_not_sources(monkeypatch):
    # the cores, the left factors and the local bases are decomposed as
    # stacks: the SVD count does not grow with N, and the QR count grows by
    # the two per-source QRs of v_g[i] and v_l[i] only
    small, large = (_recorded_lapack_calls(monkeypatch, generate(small_cfg(n_sources=n))) for n in (2, 8))
    assert small["svd"] == large["svd"]
    assert large["qr"] - small["qr"] <= 2 * (8 - 2)


def test_identifiability_report_stays_within_the_data_size():
    # theta sums the per-source projectors one at a time: on tall sources
    # the report never holds an (N, n1, n1) stack of them
    gt = generate(SynthConfig(n_sources=8, n1=200, n2=50, r1=3, r2=3,
                              noise_prob=0.01, noise_magnitude=10.0, seed=2))
    tracemalloc.start()
    try:
        identifiability_report(gt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < gt.n_sources * gt.u_g.shape[0] ** 2 * 8


part_values = st.sampled_from([0.0, -0.0, 1.5, -2.0, 5e-324, 1e300])
full_values = st.sampled_from([1.5, -2.0, 5e-324, 1e300])


@st.composite
def dense_parts(draw):
    # per source, a matrix of one row count and its own width (zero-size,
    # all zeros, full or mixed), C-ordered, Fortran-ordered or a strided view
    n1 = draw(st.integers(0, 5))
    mats = []
    for width in draw(st.lists(st.integers(0, 7), min_size=1, max_size=4)):
        kind = draw(st.sampled_from(["zeros", "full", "mixed"]))
        if kind == "zeros":
            mats.append(np.zeros((n1, width)))
            continue
        values = full_values if kind == "full" else part_values
        layout = draw(st.sampled_from(["c", "fortran", "strided"]))
        if layout == "strided":
            mats.append(draw(hnp.arrays(np.float64, (n1, 2 * width), elements=values))[:, ::2])
        else:
            m = draw(hnp.arrays(np.float64, (n1, width), elements=values))
            mats.append(np.asfortranarray(m) if layout == "fortran" else m)
    return mats


# thresholds on both sides of every entry of part_values, and the ones no
# comparison passes (NaN) or every finite entry passes (-inf)
thresholds = st.sampled_from([0.0, -0.0, 1.0, 1.5, 2.0, 1e300, -1.0, np.inf, -np.inf, np.nan])


@given(dense_parts(), thresholds)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_sparse_parts_round_trip_bit_for_bit(mats, lam):
    # dense -> support at lam -> dense gives np.where(|m| > lam, m, 0.0) bit
    # for bit, signed zeros included, in a new C-ordered array per read, and
    # so does hard_threshold; at lam = 0 that is each matrix, with -0.0
    # read back as +0.0
    parts = SparseParts.from_dense(mats, lam)
    assert len(parts) == len(mats)
    assert parts.support_sizes == [int(np.count_nonzero(np.abs(m) > lam)) for m in mats]
    for idx in parts.indices:
        assert np.all(np.diff(idx) > 0)
    for back, m in zip(parts, mats, strict=True):
        want = np.where(np.abs(m) > lam, m, 0.0)
        for got in (back, hard_threshold(m, lam)):
            assert got.shape == m.shape and got.dtype == np.float64 and got.flags.c_contiguous
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    first = parts[0]
    first += 1.0
    assert parts[0] is not first and np.array_equal(parts[0], np.where(np.abs(mats[0]) > lam, mats[0], 0.0))
    if lam == 0.0:
        assert parts.support_sizes == [int(np.count_nonzero(m)) for m in mats]


def test_from_dense_holds_one_matrix_of_an_iterable_at_a_time():
    # four sparse 1000 x 1000 matrices drawn from a map: each is released
    # before the next is made, and the mask costs no float temporary
    n = 1000
    tracemalloc.start()
    try:
        parts = SparseParts.from_dense(map(functools.partial(np.eye, n, n), range(4)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parts.support_sizes == [n, n - 1, n - 2, n - 3]
    assert peak < 1.5 * n * n * 8


gram_values = st.sampled_from([0.0, -0.0, 1.5, -2.0, 5e-324, 1e150])


@st.composite
def problems_less_parts(draw):
    # sources of one row count and their own widths, C- or Fortran-ordered,
    # each with a random support whose values may be signed zeros; no entry
    # is large enough for a Gram matrix to overflow
    n1 = draw(st.integers(1, 5))
    mats, indices, values = [], [], []
    for width in draw(st.lists(st.integers(0, 7), min_size=1, max_size=4)):
        m = draw(hnp.arrays(np.float64, (n1, width), elements=gram_values))
        mats.append(np.asfortranarray(m) if draw(st.booleans()) else m)
        idx = np.array(sorted(draw(st.sets(st.integers(0, max(m.size - 1, 0)), max_size=m.size))), dtype=np.intp)
        indices.append(idx)
        values.append(draw(hnp.arrays(np.float64, idx.shape, elements=gram_values)))
    return mats, SparseParts(tuple(m.shape for m in mats), tuple(indices), tuple(values))


@given(problems_less_parts())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_problem_matrices_are_the_data_less_the_part_bit_for_bit(case):
    # each problem matrix is m - s[i], values and sign bits, laid out like m
    # and new on each read, and the Gram stack built source by source equals
    # the stack of per-source products c c^T bit for bit
    mats, parts = case
    obs = ObservationSet(mats, r1=0, r2=0)
    assert obs.problem_matrix(0) is obs.matrices[0]
    problem = obs.less(parts)
    assert problem.matrices is obs.matrices and problem.sparse is parts
    cleaned = [problem.problem_matrix(i) for i in range(problem.n_sources)]
    for c, m, s in zip(cleaned, mats, parts, strict=True):
        want = m - s
        assert c.shape == want.shape and c is not m
        assert np.array_equal(c.view(np.uint64), want.view(np.uint64))
        assert (c.flags.c_contiguous, c.flags.f_contiguous) == (m.flags.c_contiguous, m.flags.f_contiguous)
    want_grams = np.stack([c @ c.T for c in cleaned])
    assert np.array_equal(problem.grams.view(np.uint64), want_grams.view(np.uint64))
    assert not problem.grams.flags.writeable


def test_less_checks_the_part_fits_and_replaces_any_held():
    obs = ObservationSet([np.ones((2, 3)), np.ones((2, 4))], r1=1, r2=0)
    parts = SparseParts.from_dense([np.eye(2, 3), np.zeros((2, 4))])
    for bad in (SparseParts.from_dense([np.eye(2, 3)]), SparseParts.from_dense([np.eye(2, 3), np.eye(2, 3)])):
        with pytest.raises(DimensionError):
            obs.less(bad)
    twice = obs.less(SparseParts.from_dense([np.ones((2, 3)), np.ones((2, 4))])).less(parts)
    assert np.array_equal(twice.problem_matrix(0), np.ones((2, 3)) - np.eye(2, 3))
    assert twice.problem_matrix(1) is not obs.matrices[1]
    assert np.array_equal(twice.grams, obs.less(parts).grams)


@pytest.mark.parametrize("idx, vals, error", [
    (np.array([[0, 1]]), np.array([[1.0, 2.0]]), DimensionError),
    (np.array([0, 4, 5]), np.array([7.0]), DimensionError),  # np.put would repeat 7.0
    (np.array([4, 1]), np.array([1.0, 2.0]), ContractViolationError),
    (np.array([2, 2]), np.array([1.0, 2.0]), ContractViolationError),
    (np.array([0, 6]), np.array([1.0, 2.0]), ContractViolationError),
    (np.array([-1, 0]), np.array([1.0, 2.0]), ContractViolationError),
], ids=["2d_indices", "too_few_values", "unsorted", "repeated", "past_the_end", "negative"])
def test_sparse_parts_check_their_supports(idx, vals, error):
    # a 2x3 source's support must be 1-D, one value per index, and strictly
    # increasing within [0, 6): an unsorted or repeated true support made
    # _support_violations count -1, and an index past the end failed on read
    with pytest.raises(error):
        SparseParts(((2, 3),), (idx,), (vals,))
    # non-finite values pass: a diverging epoch thresholds overflowed residuals
    parts = SparseParts(((2, 3), (2, 0)), (np.array([0, 5]), np.array([], dtype=np.intp)),
                        (np.array([np.inf, np.nan]), np.array([])))
    assert parts.support_sizes == [2, 0]


def test_ground_truth_holds_its_noise_as_supports():
    # a list of matrices is converted once; parts already in support form
    # are kept as they are, as hmf_correct's replace() passes them on
    gt = generate(small_cfg())
    assert isinstance(gt.s, SparseParts)
    assert replace(gt, v_g=gt.v_g).s is gt.s
    dense = list(gt.s)
    again = GroundTruth(u_g=gt.u_g, v_g=gt.v_g, u_l=gt.u_l, v_l=gt.v_l, s=dense)
    assert all(np.array_equal(a, b) for a, b in zip(again.s, dense, strict=True))
    with pytest.raises(DimensionError):
        GroundTruth(u_g=gt.u_g, v_g=gt.v_g, u_l=gt.u_l, v_l=gt.v_l, s=[np.zeros(3)] * gt.n_sources)
