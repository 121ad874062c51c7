import math
import tracemalloc

import numpy as np
import pytest

from tcmf import (
    FactorEstimate,
    GroundTruth,
    RecoveryErrors,
    SparseEstimate,
    generate,
    recovery_errors,
    SynthConfig,
)
from tcmf.errors import DimensionError
from tcmf.numerics import linf

from conftest import random_estimate


def gt_and_exact_estimate(seed=7):
    gt = generate(SynthConfig(n_sources=3, n1=8, n2=12, r1=2, r2=1,
                              noise_prob=0.1, noise_magnitude=5.0, seed=seed))
    est = FactorEstimate(u_g=gt.u_g, v_g=list(gt.v_g), u_l=list(gt.u_l),
                         v_l=list(gt.v_l))
    s_hat = SparseEstimate.from_matrices([s.copy() for s in gt.s])
    return gt, est, s_hat


def test_exact_estimate_floors_logs():
    gt, est, s_hat = gt_and_exact_estimate()
    errs = recovery_errors(est, s_hat, gt)
    assert errs.linf_g == errs.linf_l == errs.linf_s == 0.0
    assert errs.log_g == errs.log_l == errs.log_s == -16.0


def test_single_sparse_entry_off_by_delta():
    gt, est, s_hat = gt_and_exact_estimate()
    delta = 0.125
    bumped = [s.copy() for s in s_hat.s]
    bumped[1][0, 0] += delta
    errs = recovery_errors(est, SparseEstimate.from_matrices(bumped), gt)
    n = gt.n_sources
    assert errs.linf_s == pytest.approx(delta / n)
    # the squared-Frobenius log for the sparse part carries no 1/N
    assert errs.log_s == pytest.approx(math.log10(delta**2))
    assert errs.linf_g == 0.0 and errs.log_g == -16.0


def test_global_error_averages_over_sources():
    gt, est, s_hat = gt_and_exact_estimate()
    delta = 0.5
    v_g = [v.copy() for v in est.v_g]
    v_g[0][0, 0] += delta / abs(gt.u_g[:, 0]).max()
    bumped = FactorEstimate(u_g=est.u_g, v_g=v_g, u_l=est.u_l, v_l=est.v_l)
    errs = recovery_errors(bumped, s_hat, gt)
    assert errs.linf_g == pytest.approx(delta / gt.n_sources)
    # per-source squared error enters log_g with a 1/N average
    gap = bumped.u_g @ v_g[0].T - gt.u_g @ gt.v_g[0].T
    assert errs.log_g == pytest.approx(math.log10(np.sum(gap * gap) / gt.n_sources))


def test_recovery_errors_source_count_mismatch():
    gt, est, s_hat = gt_and_exact_estimate()
    short = SparseEstimate.from_matrices(s_hat.s[:2])
    with pytest.raises(DimensionError):
        recovery_errors(est, short, gt)


def test_recovery_errors_reject_a_sparse_part_that_would_broadcast():
    # a (1, n2) row broadcasts against the (n1, n2) truth and used to be
    # scored as if it were the whole sparse part
    gt, est, s_hat = gt_and_exact_estimate()
    rows = [s.copy() for s in s_hat.s]
    rows[1] = rows[1][:1]
    with pytest.raises(DimensionError, match="sparse parts do not match the ground truth shapes"):
        recovery_errors(est, SparseEstimate.from_matrices(rows), gt)


def test_recovery_errors_reject_factors_of_the_wrong_width():
    # source 2's coefficient factors lack a row, so its products are one
    # column short of the truth: a typed error, not numpy's ValueError
    gt, est, s_hat = gt_and_exact_estimate()
    short = FactorEstimate(u_g=est.u_g, v_g=[est.v_g[0], est.v_g[1][:-1], est.v_g[2]], u_l=est.u_l,
                           v_l=[est.v_l[0], est.v_l[1][:-1], est.v_l[2]])
    with pytest.raises(DimensionError, match="estimates vs the ground truth"):
        recovery_errors(short, s_hat, gt)


def test_recovery_errors_permutation_invariant():
    gt, est, s_hat = gt_and_exact_estimate()
    rng = np.random.default_rng(0)
    for i, s in enumerate(s_hat.s):
        s[rng.integers(s.shape[0]), rng.integers(s.shape[1])] += 0.3 * (i + 1)
    base = recovery_errors(est, SparseEstimate.from_matrices(s_hat.s), gt)
    perm = [2, 0, 1]
    gt_p = GroundTruth(u_g=gt.u_g, v_g=[gt.v_g[i] for i in perm],
                       u_l=[gt.u_l[i] for i in perm], v_l=[gt.v_l[i] for i in perm],
                       s=[gt.s[i] for i in perm])
    est_p = FactorEstimate(u_g=est.u_g, v_g=[est.v_g[i] for i in perm],
                           u_l=[est.u_l[i] for i in perm], v_l=[est.v_l[i] for i in perm])
    s_p = SparseEstimate.from_matrices([s_hat.s[i] for i in perm])
    permuted = recovery_errors(est_p, s_p, gt_p)
    for field in ("linf_g", "linf_l", "linf_s", "log_g", "log_l", "log_s"):
        assert getattr(permuted, field) == pytest.approx(getattr(base, field), rel=1e-12)


def reference_recovery_errors(est, s_hat, gt):
    """recovery_errors as plain per-source arithmetic on fresh arrays."""
    n = gt.n_sources
    linf_g = linf_l = linf_s = 0.0
    sq_g = sq_l = sq_s = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            dg = est.u_g @ est.v_g[i].T - gt.u_g @ gt.v_g[i].T
            dl = est.u_l[i] @ est.v_l[i].T - gt.u_l[i] @ gt.v_l[i].T
            ds = s_hat.s[i] - gt.s[i]
            linf_g += linf(dg)
            linf_l += linf(dl)
            linf_s += linf(ds)
            sq_g += float(np.sum(dg * dg))
            sq_l += float(np.sum(dl * dl))
            sq_s += float(np.sum(ds * ds))
        floored = [float(np.log10(max(x, 1e-16))) for x in (sq_g / n, sq_l / n, sq_s)]
    return RecoveryErrors(linf_g / n, linf_l / n, linf_s / n, *floored)


def sparse_noise(rng, shape, prob=0.1, magnitude=10.0):
    return np.where(rng.random(shape) < prob, magnitude * rng.standard_normal(shape), 0.0)


def problem(truth, seed, scale=1.0, exact=False):
    # ground truth from truth's factors plus sparse noise; an estimate near
    # it (or equal to it), built from views of joint stacks as the solvers
    # return it, and a sparse estimate that moves, adds and drops entries
    rng = np.random.default_rng(seed)
    widths = [v.shape[0] for v in truth.v_g]
    gt = GroundTruth(u_g=truth.u_g, v_g=truth.v_g, u_l=truth.u_l, v_l=truth.v_l,
                     s=[sparse_noise(rng, (truth.u_g.shape[0], w)) for w in widths])
    u, v = gt.joint()
    if not exact:
        with np.errstate(over="ignore"):
            u = scale * (u + 1e-3 * rng.standard_normal(u.shape))
            v = [scale * (vi + 1e-3 * rng.standard_normal(vi.shape)) for vi in v]
    est = FactorEstimate.from_joint(u, v, gt.r1)
    s = [si.copy() if exact else np.where(rng.random(si.shape) < 0.05, 0.0, si + sparse_noise(rng, si.shape))
         for si in gt.s]
    return est, SparseEstimate.from_matrices(s), gt


def same_bits(got, want):
    for field in ("linf_g", "linf_l", "linf_s", "log_g", "log_l", "log_s"):
        a, b = getattr(got, field), getattr(want, field)
        assert a == b or (math.isnan(a) and math.isnan(b)), (field, a, b)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("instance,r1,r2", [
    ("tiny", 2, 2), ("uneven", 2, 2), ("uneven", 0, 2), ("uneven", 2, 0),
])
@pytest.mark.parametrize("case,scale", [
    ("near", 1.0), ("exact", 1.0), ("overflow", 1e200), ("infinite", np.inf),
])
def test_recovery_errors_match_the_per_source_formula_bit_for_bit(request, instance, r1, r2, case, scale):
    # the work arrays change where the differences live, never a bit of the
    # result: not for unequal widths, empty factors, an exact estimate (logs
    # at the -16 floor) or one scaled until its errors overflow to inf, or,
    # with infinite factors, to nan
    inst = request.getfixturevalue(instance)
    truth = random_estimate(np.random.default_rng(11), inst.u_g.shape[0], [m.shape[1] for m in inst.mats], r1, r2)
    if (r1, r2) == (inst.r1, inst.r2):
        truth = inst.exact_estimate()
    est, s_hat, gt = problem(truth, seed=5, scale=scale, exact=case == "exact")
    got = recovery_errors(est, s_hat, gt)
    same_bits(got, reference_recovery_errors(est, s_hat, gt))
    low_rank = [(got.linf_g, got.log_g)] * (r1 > 0) + [(got.linf_l, got.log_l)] * (r2 > 0)
    if case == "exact":
        assert (got.log_g, got.log_l, got.log_s) == (-16.0, -16.0, -16.0)
    if case == "overflow":
        assert all(field == np.inf for fields in low_rank for field in fields)
    if case == "infinite":
        assert all(math.isnan(field) for fields in low_rank for field in fields)


@pytest.mark.parametrize("seed", range(8))
def test_recovery_errors_match_the_per_source_formula_on_mid_sized_sources(seed):
    # a log10 hides most last-bit moves of a squared sum; at this size a
    # reordered sum (vdot, einsum, one joint product) shows in most seeds
    truth = random_estimate(np.random.default_rng(seed), 50, [300, 200, 257], 2, 2)
    est, s_hat, gt = problem(truth, seed=seed)
    same_bits(recovery_errors(est, s_hat, gt), reference_recovery_errors(est, s_hat, gt))


def test_recovery_errors_work_in_two_source_sized_arrays():
    # the parent formula's temporaries peaked at 5 source-sized arrays
    gt = generate(SynthConfig(n_sources=4, n1=20, n2=2000, r1=2, r2=2,
                              noise_prob=0.01, noise_magnitude=100.0, seed=3))
    est, s_hat, gt = problem(gt, seed=1)
    source_bytes = gt.s[0].nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        recovery_errors(est, s_hat, gt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before) / source_bytes <= 2.2
