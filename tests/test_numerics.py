import numpy as np
import pytest

from tcmf import FactorEstimate, ThinSVD, projection_onto, truncated_svd
from tcmf.errors import ContractViolationError, DimensionError, SingularityError
from tcmf import hmf_correct, perpca
from tcmf.numerics import _inv_cholesky, as_matrix, linf, sign_fixed_qr, top_eigenvectors

from conftest import orth


def test_as_matrix_rejects_nan_and_wrong_ndim():
    with pytest.raises(ContractViolationError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ContractViolationError):
        as_matrix([[np.inf]])
    with pytest.raises(DimensionError):
        as_matrix([1.0, 2.0])


def test_linf_basics():
    assert linf(np.array([[1.0, -3.0], [2.0, 0.0]])) == 3.0
    assert linf(np.zeros((0, 4))) == 0.0


def test_truncated_svd_diagonal():
    out = truncated_svd(np.array([[2.0, 0.0], [0.0, 0.0]]), 1)
    assert np.allclose(out.sigma, [2.0])
    # sign convention: largest-magnitude entry of each left vector positive
    assert np.allclose(out.u, [[1.0], [0.0]])
    assert np.allclose(out.v, [[1.0], [0.0]])


def test_truncated_svd_identity():
    out = truncated_svd(np.eye(3), 3)
    assert np.allclose(out.sigma, [1.0, 1.0, 1.0])
    assert np.allclose(out.reconstruct(), np.eye(3), atol=1e-12)


def test_truncated_svd_recovers_known_rank():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((10, 3))
    b = rng.standard_normal((6, 3))
    m = a @ b.T
    out = truncated_svd(m, 3)
    assert np.linalg.norm(out.reconstruct() - m) < 1e-8


def test_truncated_svd_k_out_of_range():
    m = np.zeros((3, 4))
    with pytest.raises(DimensionError):
        truncated_svd(m, 4)
    with pytest.raises(DimensionError):
        truncated_svd(m, -1)


@pytest.mark.parametrize("k", [5, -1])
def test_top_eigenvectors_k_out_of_range(k):
    with pytest.raises(DimensionError):
        top_eigenvectors(np.eye(3), k)


def test_truncated_svd_k_zero_gives_empty_factors():
    out = truncated_svd(np.ones((3, 4)), 0)
    assert out.u.shape == (3, 0)
    assert out.sigma.shape == (0,)
    assert np.allclose(out.reconstruct(), np.zeros((3, 4)))


def test_truncated_svd_eckart_young_sanity():
    rng = np.random.default_rng(1)
    for _ in range(5):
        m = rng.standard_normal((8, 12))
        s_full = np.linalg.svd(m, compute_uv=False)
        for k in (1, 3, 5):
            out = truncated_svd(m, k)
            err = np.linalg.norm(out.reconstruct() - m)
            # Frobenius error of the best rank-k approximation
            assert err <= np.sqrt((s_full[k:] ** 2).sum()) + 1e-8


def test_truncated_svd_sign_is_deterministic():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((7, 5))
    a = truncated_svd(m, 3)
    b = truncated_svd(m.copy(), 3)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.v, b.v)
    for j in range(3):
        col = a.u[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_thinsvd_validates_parts():
    u = np.array([[1.0], [0.0]])
    v = np.array([[1.0], [0.0], [0.0]])
    ThinSVD(u=u, sigma=np.array([2.0]), v=v)
    with pytest.raises(ContractViolationError):
        ThinSVD(u=2.0 * u, sigma=np.array([1.0]), v=v)
    with pytest.raises(ContractViolationError):
        ThinSVD(u=np.eye(2), sigma=np.array([1.0, 2.0]), v=np.eye(2))
    with pytest.raises(ContractViolationError):
        ThinSVD(u=np.eye(2), sigma=np.array([1.0, -0.5]), v=np.eye(2))
    with pytest.raises(DimensionError):
        ThinSVD(u=u, sigma=np.array([1.0, 1.0]), v=v)


def test_sign_fixed_qr_stack_matches_slices_bitwise():
    rng = np.random.default_rng(12)
    stack = rng.standard_normal((4, 9, 3))
    q, r = sign_fixed_qr(stack)
    assert q.shape == stack.shape and r.shape == (4, 3, 3)
    for i in range(4):
        q_i, r_i = sign_fixed_qr(stack[i])
        assert np.array_equal(q[i], q_i)
        assert np.array_equal(r[i], r_i)
        assert np.all(np.diag(r_i) >= 0.0)
        assert np.allclose(q_i @ r_i, stack[i], rtol=0, atol=1e-12)
    assert sign_fixed_qr(np.zeros((4, 9, 0)))[0].shape == (4, 9, 0)


def test_projection_onto_axis_vector():
    p = projection_onto(np.array([[1.0], [0.0], [0.0]]))
    assert np.allclose(p, np.diag([1.0, 0.0, 0.0]))


def test_projection_onto_orthonormal_is_uut():
    rng = np.random.default_rng(3)
    u = orth(rng.standard_normal((6, 2)))
    assert np.allclose(projection_onto(u), u @ u.T, atol=1e-12)


def test_projection_onto_ones_column():
    p = projection_onto(np.array([[1.0], [1.0]]))
    assert np.allclose(p, np.full((2, 2), 0.5))


def test_projection_properties():
    rng = np.random.default_rng(4)
    u = rng.standard_normal((8, 3))
    p = projection_onto(u)
    assert np.allclose(p, p.T, atol=1e-10)
    assert np.allclose(p @ p, p, atol=1e-10)
    assert np.allclose(p @ u, u, atol=1e-10)


def test_projection_rank_deficient_rejected():
    u = np.ones((4, 2))  # two identical columns
    with pytest.raises(SingularityError):
        projection_onto(u)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_rank_rule_reads_the_same_at_every_scale(scale):
    # one rule for both loops: perpca's bases are orthonormal, but hmf's
    # shared factor carries the data's scale, so the verdict must not move
    # with it.  A full-rank stack passes; a duplicated column raises
    rng = np.random.default_rng(9)
    stack = scale * rng.standard_normal((3, 7, 3))
    gram = stack.swapaxes(-1, -2) @ stack
    inv = _inv_cholesky(gram)
    assert linf(inv @ gram @ inv.swapaxes(-1, -2) - np.eye(3)) < 1e-12
    q = perpca._orthonormalize(stack)
    assert linf(q.swapaxes(-1, -2) @ q - np.eye(3)) < 1e-12
    est = FactorEstimate(u_g=stack[0, :, :2], v_g=[rng.standard_normal((5, 2))],
                         u_l=[stack[1, :, :1]], v_l=[rng.standard_normal((5, 1))])
    out = hmf_correct(est, 0)
    assert linf(out.u_g.T @ out.u_l[0]) < 1e-12 * scale**2
    stack[1, :, 2] = stack[1, :, 0]
    with pytest.raises(SingularityError):
        _inv_cholesky(stack.swapaxes(-1, -2) @ stack)
    with pytest.raises(SingularityError):
        perpca._orthonormalize(stack)
    with pytest.raises(SingularityError):
        hmf_correct(FactorEstimate(u_g=stack[1, :, ::2], v_g=est.v_g, u_l=est.u_l, v_l=est.v_l), 0)


def test_rank_rule_overflow_is_its_own_error():
    # the loops turn a Gram matrix that is not finite into an inf objective
    gram = np.eye(2)
    gram[1, 0] = np.inf
    with pytest.raises(ContractViolationError, match="Gram matrix is not finite"):
        _inv_cholesky(gram)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_hmf_correct_rejects_a_shared_factor_that_is_not_finite(bad):
    # hmf_correct is public: its input is bad data, never a bare OverflowError
    rng = np.random.default_rng(10)
    u_g = rng.standard_normal((6, 2))
    u_g[3, 1] = bad
    est = FactorEstimate(u_g=u_g, v_g=[rng.standard_normal((5, 2))],
                         u_l=[rng.standard_normal((6, 1))], v_l=[rng.standard_normal((5, 1))])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ContractViolationError):
        hmf_correct(est, 0)


def test_truncated_svd_stack_matches_slices_bitwise():
    rng = np.random.default_rng(14)
    stack = rng.standard_normal((5, 4, 6))
    out = truncated_svd(stack, 3)
    assert (out.u.shape, out.sigma.shape, out.v.shape) == ((5, 4, 3), (5, 3), (5, 6, 3))
    for i in range(5):
        one = truncated_svd(stack[i], 3)
        assert np.array_equal(out.u[i], one.u)
        assert np.array_equal(out.sigma[i], one.sigma)
        assert np.array_equal(out.v[i], one.v)
        assert np.array_equal(out.reconstruct()[i], one.reconstruct())
    assert truncated_svd(stack, 0).u.shape == (5, 4, 0)


def test_projection_onto_stack_matches_slices_bitwise():
    rng = np.random.default_rng(15)
    stack = rng.standard_normal((4, 7, 2))
    p = projection_onto(stack)
    assert p.shape == (4, 7, 7)
    for i in range(4):
        assert np.array_equal(p[i], projection_onto(stack[i]))
    assert np.array_equal(projection_onto(np.zeros((3, 5, 0))), np.zeros((3, 5, 5)))


def test_stacks_with_one_bad_slice_still_raise():
    rng = np.random.default_rng(16)
    stack = rng.standard_normal((3, 6, 2))
    with pytest.raises(DimensionError, match="out of range"):
        truncated_svd(stack, 3)
    bad = stack.copy()
    bad[1, 2, 0] = np.nan
    for f in (lambda a: truncated_svd(a, 1), projection_onto):
        with pytest.raises(ContractViolationError):
            f(bad)
    bad = stack.copy()
    bad[2, :, 1] = 2.0 * bad[2, :, 0]  # rank-deficient last slice
    with pytest.raises(SingularityError):
        projection_onto(bad)


def test_thinsvd_validates_every_slice_of_a_stack():
    u = np.stack([np.eye(3)[:, :2]] * 3)
    v = np.stack([np.eye(4)[:, :2]] * 3)
    sigma = np.array([[2.0, 1.0]] * 3)
    ThinSVD(u=u, sigma=sigma, v=v)
    bad = u.copy()
    bad[2] *= 1.5
    with pytest.raises(ContractViolationError):
        ThinSVD(u=bad, sigma=sigma, v=v)
    rising = sigma.copy()
    rising[1] = [1.0, 2.0]
    with pytest.raises(ContractViolationError):
        ThinSVD(u=u, sigma=rising, v=v)
    with pytest.raises(DimensionError):
        ThinSVD(u=u, sigma=sigma[:2], v=v)
    with pytest.raises(DimensionError):
        ThinSVD(u=u[0], sigma=sigma, v=v)
