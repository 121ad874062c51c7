import numpy as np
import pytest

from tcmf import ThinSVD, inv_sqrt_psd, projection_onto, truncated_svd
from tcmf.errors import ContractViolationError, DimensionError, SingularityError
from tcmf.numerics import as_matrix, linf, sign_fixed_qr, top_eigenvectors

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


def test_inv_sqrt_psd_identity_and_diagonal():
    assert np.allclose(inv_sqrt_psd(np.eye(3)), np.eye(3))
    out = inv_sqrt_psd(np.diag([4.0, 9.0]))
    assert np.allclose(out, np.diag([0.5, 1.0 / 3.0]))


def test_inv_sqrt_psd_random_spd():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4))
    spd = a.T @ a + 0.1 * np.eye(4)
    b = inv_sqrt_psd(spd)
    assert np.allclose(b @ spd @ b, np.eye(4), atol=1e-8)
    assert linf(b @ spd - spd @ b) < 1e-8
    assert np.allclose(b, b.T, atol=1e-10)


def test_inv_sqrt_psd_rejects_bad_input():
    with pytest.raises(ContractViolationError):
        inv_sqrt_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(SingularityError):
        inv_sqrt_psd(np.zeros((2, 2)))


def spd_stack(rng, count, n):
    a = rng.standard_normal((count, n, n))
    return a.swapaxes(-1, -2) @ a + 0.1 * np.eye(n)


def test_inv_sqrt_psd_stack_matches_slices_bitwise():
    stack = spd_stack(np.random.default_rng(6), 5, 4)
    out = inv_sqrt_psd(stack)
    assert out.shape == stack.shape
    for got, a in zip(out, stack):
        assert np.array_equal(got, inv_sqrt_psd(a))


def test_inv_sqrt_psd_stack_checks_every_slice():
    rng = np.random.default_rng(7)
    stack = spd_stack(rng, 4, 3)
    singular = stack.copy()
    singular[2] = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(SingularityError):
        inv_sqrt_psd(singular)
    asymmetric = stack.copy()
    asymmetric[3, 0, 1] += 1e-3
    with pytest.raises(ContractViolationError):
        inv_sqrt_psd(asymmetric)
    with pytest.raises(ContractViolationError):
        inv_sqrt_psd(np.where(np.arange(4)[:, None, None] == 1, np.nan, stack))


def test_inv_sqrt_psd_empty_stack_slices():
    assert inv_sqrt_psd(np.zeros((3, 0, 0))).shape == (3, 0, 0)
