import math

import numpy as np
import pytest

from tcmf import (
    FactorEstimate,
    GroundTruth,
    SparseEstimate,
    generate,
    recovery_errors,
    SynthConfig,
)
from tcmf.errors import DimensionError


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
