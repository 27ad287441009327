import numpy as np
import pytest

from helpers import svd_product
from witnessforge.formats import matrix_from_json, matrix_to_json
from witnessforge.linalg import (
    complex_svd,
    fix_global_phase,
    partial_transpose,
    vectorize,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def random_hermitian(d, rng):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2


def test_vectorize_maximally_entangled():
    v = vectorize(I2 / np.sqrt(2))
    assert np.allclose(v, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_vectorize_sigma_x():
    v = vectorize(SX / np.sqrt(2))
    assert np.allclose(v, np.array([0, 1, 1, 0]) / np.sqrt(2))


def test_vectorize_rejects_nonsquare():
    with pytest.raises(ValueError):
        vectorize(np.ones((2, 3)))


def test_hs_inner_matches_vector_inner():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.trace(a.conj().T @ b) == pytest.approx(
        np.vdot(vectorize(a), vectorize(b)), abs=1e-12)


def test_partial_transpose_product_state_real_b():
    rng = np.random.default_rng(2)
    rho_a = random_hermitian(3, rng)
    rho_b = random_hermitian(3, rng).real.astype(complex)
    rho = np.kron(rho_a, rho_b)
    assert np.allclose(partial_transpose(rho, 3, 3, "B"), rho, atol=1e-12)


def test_partial_transpose_bell_state():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    pt = partial_transpose(np.outer(v, v.conj()), 2, 2, "B")
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert np.allclose(pt, swap / 2, atol=1e-14)
    assert np.allclose(np.sort(np.linalg.eigvalsh(pt)),
                       [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_involution_and_conservation():
    rng = np.random.default_rng(3)
    for dims in [(2, 3), (3, 3), (4, 2)]:
        d = dims[0] * dims[1]
        h = random_hermitian(d, rng)
        for sub in ("A", "B"):
            pt = partial_transpose(h, *dims, sub)
            assert np.allclose(partial_transpose(pt, *dims, sub), h, atol=1e-14)
            assert np.trace(pt) == pytest.approx(np.trace(h), abs=1e-13)
            assert np.abs(pt - pt.conj().T).max() < 1e-13


def test_partial_transpose_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_transpose(np.eye(6), 2, 2, "B")


def test_hermitian_eig_isotropic_pt():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    pt = partial_transpose(np.outer(v, v.conj()), 2, 2, "B")
    w = np.linalg.eigvalsh(pt)
    assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_svd_maximally_entangled():
    for d in (2, 3, 5):
        res = complex_svd(np.eye(d, dtype=complex) / np.sqrt(d))
        assert np.allclose(res.sigma, np.full(d, 1 / np.sqrt(d)), atol=1e-12)


def test_svd_schmidt_two():
    psi = np.zeros((4, 4), dtype=complex)
    psi[0, 0] = psi[1, 1] = 1 / np.sqrt(2)
    res = complex_svd(psi)
    assert np.allclose(res.sigma, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0],
                       atol=1e-12)


def test_svd_reconstruction_and_unitarity():
    rng = np.random.default_rng(6)
    for d in (2, 5, 8):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        res = complex_svd(m)
        assert np.abs(svd_product(res) - m).max() < 1e-10
        assert np.abs(res.x.conj().T @ res.x - np.eye(d)).max() < 1e-10
        assert np.abs(res.y.conj().T @ res.y - np.eye(d)).max() < 1e-10
        assert np.all(np.diff(res.sigma) <= 1e-14)


def test_singular_values_match_gram_eigenvalues():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    res = complex_svd(m)
    gram_eigs = np.sort(np.linalg.eigvalsh(m.conj().T @ m))[::-1]
    assert np.allclose(res.sigma, np.sqrt(np.clip(gram_eigs, 0, None)),
                       atol=1e-9)


def test_vectorization_identity():
    # (A (x) B) |Psi>> = |A Psi B^T>>
    rng = np.random.default_rng(8)
    for d in (2, 4):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        psi = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        lhs = np.kron(a, b) @ vectorize(psi)
        rhs = vectorize(a @ psi @ b.T)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_fix_global_phase():
    v = np.array([0.0, -1j, 1.0])
    out = fix_global_phase(v)
    assert out[1].real > 0 and abs(out[1].imag) < 1e-15
    assert np.abs(np.abs(out) - np.abs(v)).max() < 1e-15


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    back = matrix_from_json(matrix_to_json(m))
    assert np.array_equal(back, m)
