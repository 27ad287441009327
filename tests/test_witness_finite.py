import math

import numpy as np
import pytest

from depolarized_family import DepolarizedFamily
from witnessforge.linalg import complex_svd, hermitian_eig, vectorize
from witnessforge.states import (
    maximally_entangled_operator,
    random_product_state,
    random_state_operator,
    schmidt_operator,
)
from witnessforge.witness_finite import (
    build_witness,
    depolarized_expectation,
    depolarized_state,
    detection_threshold,
    evaluate_witness,
    min_eigvec_operator,
    min_pt_eigenvalue,
    quorum_decompose,
)


def witness_for(psi):
    return build_witness(min_eigvec_operator(psi))


def test_depolarized_extremes():
    psi = maximally_entangled_operator(3)
    assert np.allclose(depolarized_state(psi, 0.0).matrix, np.eye(9) / 9)
    pure = depolarized_state(psi, 1.0)
    v = vectorize(psi)
    assert np.allclose(pure.matrix, np.outer(v, v.conj()), atol=1e-14)


def test_depolarized_qubit_spectrum():
    rho = depolarized_state(maximally_entangled_operator(2), 0.5)
    assert np.allclose(np.sort(np.linalg.eigvalsh(rho.matrix)),
                       [0.125, 0.125, 0.125, 0.625], atol=1e-12)


def test_depolarized_validates():
    rho = depolarized_state(maximally_entangled_operator(4), 0.7)
    rho.validate()
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)


def test_depolarized_rejects_bad_inputs():
    psi = maximally_entangled_operator(2)
    with pytest.raises(ValueError):
        depolarized_state(psi, 1.2)
    with pytest.raises(ValueError):
        depolarized_state(2 * psi, 0.5)
    with pytest.raises(ValueError):
        DepolarizedFamily(psi, -0.1)


def test_min_pt_eigenvalue_maximally_entangled():
    for d in (2, 3, 5):
        psi = maximally_entangled_operator(d)
        for p in (0.0, 0.4, 1.0):
            expected = -p / d + (1 - p) / d**2
            assert min_pt_eigenvalue(psi, p) == pytest.approx(expected, abs=1e-14)


def test_min_pt_eigenvalue_against_dense_solver():
    psi = maximally_entangled_operator(3)
    rho = depolarized_state(psi, 0.5)
    w, _ = hermitian_eig(rho.partial_transpose())
    assert w[0] == pytest.approx(-1.0 / 9.0, abs=1e-12)
    assert min_pt_eigenvalue(psi, 0.5) == pytest.approx(w[0], abs=1e-9)


def test_min_pt_eigenvalue_no_noise_positive():
    psi = maximally_entangled_operator(4)
    assert min_pt_eigenvalue(psi, 0.0) == pytest.approx(1.0 / 16.0)


def test_min_eigvec_operator_qubit():
    abar = min_eigvec_operator(maximally_entangled_operator(2))
    v = vectorize(abar)
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert np.abs(np.abs(np.vdot(singlet, v)) - 1.0) < 1e-12
    # global-phase convention: first nonzero component real positive
    assert np.allclose(v, singlet, atol=1e-12)


def test_min_eigvec_operator_schmidt_two():
    psi = schmidt_operator([1, 1], 5)
    v = vectorize(min_eigvec_operator(psi))
    expected = np.zeros(25)
    expected[1] = 1 / np.sqrt(2)
    expected[5] = -1 / np.sqrt(2)
    assert np.allclose(v, expected, atol=1e-12)


def test_min_eigvec_operator_is_pt_eigenvector():
    rng = np.random.default_rng(21)
    for _ in range(5):
        psi = random_state_operator(4, rng)
        v = vectorize(min_eigvec_operator(psi))
        for p in (0.0, 0.3, 0.8):
            pt = depolarized_state(psi, p).partial_transpose()
            lam = min_pt_eigenvalue(psi, p)
            assert np.abs(pt @ v - lam * v).max() < 1e-9


def test_min_eigvec_operator_rejects_product_state():
    psi = np.zeros((3, 3), dtype=complex)
    psi[0, 0] = 1.0
    with pytest.raises(ValueError):
        min_eigvec_operator(psi)


def test_witness_qubit_spectrum_and_trace():
    w = witness_for(maximally_entangled_operator(2))
    assert np.allclose(np.sort(np.linalg.eigvalsh(w)),
                       [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert np.trace(w).real == pytest.approx(1.0, abs=1e-12)


def test_witness_rank_four_all_dims():
    rng = np.random.default_rng(22)
    for d in range(2, 9):
        w = witness_for(random_state_operator(d, rng))
        assert np.linalg.matrix_rank(w, tol=1e-9, hermitian=True) == 4


def test_witness_expectation_equals_min_eigenvalue():
    rng = np.random.default_rng(23)
    for d in (2, 3, 5):
        psi = random_state_operator(d, rng)
        w = witness_for(psi)
        for p in (0.0, 0.3, 1.0):
            val = evaluate_witness(w, depolarized_state(psi, p))
            assert val == pytest.approx(min_pt_eigenvalue(psi, p), abs=1e-9)


def test_witness_independent_of_mixing_weight():
    # the construction consumes only Psi, never p
    psi = random_state_operator(4, np.random.default_rng(24))
    w1 = witness_for(psi)
    w2 = witness_for(psi)
    assert np.array_equal(w1, w2)


def test_evaluate_witness_maximally_mixed():
    for d in (2, 4):
        psi = maximally_entangled_operator(d)
        w = witness_for(psi)
        val = evaluate_witness(w, depolarized_state(psi, 0.0))
        assert val == pytest.approx(1.0 / d**2, abs=1e-12)


def test_evaluate_witness_closed_form_d3():
    psi = maximally_entangled_operator(3)
    val = evaluate_witness(witness_for(psi), depolarized_state(psi, 0.3))
    assert val == pytest.approx(-0.3 / 3 + 0.7 / 9, abs=1e-12)
    assert val == pytest.approx(-1.0 / 45.0, abs=1e-12)


def test_evaluate_witness_dimension_mismatch():
    w = witness_for(maximally_entangled_operator(2))
    with pytest.raises(ValueError):
        evaluate_witness(w, depolarized_state(maximally_entangled_operator(3), 0.5))


def test_witness_nonnegative_on_product_states():
    rng = np.random.default_rng(25)
    for d in (2, 3, 5):
        w = witness_for(random_state_operator(d, rng))
        for _ in range(1000):
            v = random_product_state(d, d, rng)
            val = np.real(np.vdot(v, w @ v))
            assert val >= -1e-9


def test_detection_threshold_values():
    for d in range(2, 9):
        psi = maximally_entangled_operator(d)
        assert detection_threshold(psi) == pytest.approx(1.0 / (d + 1), abs=1e-12)
        psi2 = schmidt_operator([1, 1], d) if d >= 2 else None
        assert detection_threshold(psi2) == pytest.approx(2.0 / (d**2 + 2),
                                                          abs=1e-12)
    assert detection_threshold(maximally_entangled_operator(3)) == \
        pytest.approx(0.25, abs=1e-14)


def test_threshold_matches_sign_flip():
    rng = np.random.default_rng(26)
    for d in (2, 4):
        psi = random_state_operator(d, rng)
        w = witness_for(psi)
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            val = evaluate_witness(w, depolarized_state(psi, mid))
            if val >= 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(detection_threshold(psi),
                                                abs=1e-10)


DENSE_ORACLE_CASES = {
    "max-d2": lambda: maximally_entangled_operator(2),
    "max-d3": lambda: maximally_entangled_operator(3),
    "schmidt-d16": lambda: schmidt_operator([0.8, 0.5, 0.3, 0.1], 16),
    "max-d32": lambda: maximally_entangled_operator(32),
    "random-d5": lambda: random_state_operator(5, np.random.default_rng(31)),
}


@pytest.mark.parametrize("case", DENSE_ORACLE_CASES)
def test_depolarized_expectation_matches_dense_oracle(case):
    psi = DENSE_ORACLE_CASES[case]()
    a = min_eigvec_operator(psi)
    w = build_witness(a)
    line = depolarized_expectation(a, psi)
    for p in (0.0, detection_threshold(psi), 0.37, 1.0):
        dense = evaluate_witness(w, depolarized_state(psi, p))
        assert abs(line(p) - dense) <= 1e-13


@pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
def test_depolarized_expectation_rejects_bad_mixing_weight(p):
    psi = maximally_entangled_operator(3)
    line = depolarized_expectation(min_eigvec_operator(psi), psi)
    with pytest.raises(ValueError, match=r"mixing weight p=.* outside \[0, 1\]"):
        line(p)


def test_evaluate_witness_rejects_non_hermitian_witness():
    psi = maximally_entangled_operator(3)
    w = witness_for(psi)
    v = vectorize(psi)
    rho = depolarized_state(psi, 0.5)
    imaginary_trace = w + 1j * np.eye(9) / 9
    # traceless, so only the |Psi>> part of rho picks up the imaginary part
    imaginary_pure = w + 1j * (np.outer(v, v.conj()) - np.eye(9) / 9)
    for bad in (imaginary_trace, imaginary_pure):
        with pytest.raises(ValueError, match="imaginary part"):
            evaluate_witness(bad, rho)


def test_depolarized_expectation_rejects_dimension_mismatch():
    a = min_eigvec_operator(maximally_entangled_operator(2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        depolarized_expectation(a, maximally_entangled_operator(3))


def test_depolarized_expectation_rejects_unnormalized_operator():
    psi = maximally_entangled_operator(3)
    with pytest.raises(ValueError, match="not normalized"):
        depolarized_expectation(2 * min_eigvec_operator(psi), psi)


@pytest.mark.parametrize("call", [
    lambda op: min_pt_eigenvalue(op, 0.5),
    detection_threshold,
    min_eigvec_operator,
    quorum_decompose,
    lambda op: depolarized_state(op, 0.5),
    lambda op: depolarized_expectation(op, op),
], ids=["min_pt_eigenvalue", "detection_threshold", "min_eigvec_operator",
        "quorum_decompose", "depolarized_state", "depolarized_expectation"])
def test_one_dimensional_input_is_rejected(call):
    # d = 1 has one Schmidt coefficient: no second one to read
    with pytest.raises(ValueError, match="needs d >= 2"):
        call(np.ones((1, 1)))


def test_schmidt_operator_rejects_non_finite_coefficients():
    for bad in ([math.inf, 1.0], [math.nan, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            schmidt_operator(bad, 4)


def test_pt_spectrum_structure():
    # every PT eigenvalue is p s_i^2 + c or +/- p s_i s_j + c
    rng = np.random.default_rng(27)
    for d in (3, 5, 6):
        psi = random_state_operator(d, rng)
        s = complex_svd(psi).sigma
        for p in (0.2, 0.7):
            c = (1 - p) / d**2
            expected = [p * s[i] ** 2 + c for i in range(d)]
            for i in range(d):
                for j in range(i + 1, d):
                    expected.extend([p * s[i] * s[j] + c, -p * s[i] * s[j] + c])
            numeric, _ = hermitian_eig(depolarized_state(psi, p).partial_transpose())
            assert np.abs(np.sort(expected) - numeric).max() < 1e-9


def test_quorum_qubit_matches_singlet_pt():
    psi = maximally_entangled_operator(2)
    decomp = quorum_decompose(psi)
    w = witness_for(psi)
    assert np.abs(decomp.reconstruct() - w).max() < 1e-12
    # the three non-trivial local factors are the Pauli matrices themselves
    paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]])]
    for term, pauli in zip(decomp.pauli_terms, paulis):
        assert np.abs(term.local_b - pauli).max() < 1e-12


def test_quorum_reconstruction_random_d5():
    psi = random_state_operator(5, np.random.default_rng(28))
    decomp = quorum_decompose(psi)
    w = witness_for(psi)
    assert np.abs(decomp.reconstruct() - w).max() < 1e-10


def test_quorum_shape_and_hermiticity():
    rng = np.random.default_rng(29)
    for d in (2, 3, 6):
        decomp = quorum_decompose(random_state_operator(d, rng))
        assert len(decomp.pauli_terms) == 3
        assert len(decomp.terms) == 4
        for term in decomp.terms:
            assert np.abs(term.local_a - term.local_a.conj().T).max() < 1e-12
            assert np.abs(term.local_b - term.local_b.conj().T).max() < 1e-12
            # local observables stay in a dimension-independent bounded set
            assert np.abs(np.linalg.eigvalsh(term.local_a)).max() < 0.5 + 1e-12
            assert np.abs(np.linalg.eigvalsh(term.local_b)).max() < 1.0 + 1e-12


def test_quorum_identity_term_is_projector_like():
    decomp = quorum_decompose(random_state_operator(4, np.random.default_rng(30)))
    eigs = np.sort(np.linalg.eigvalsh(decomp.identity_term.local_b))
    # embedded rank-2 projector on the second subsystem
    assert np.allclose(eigs[-2:], [1.0, 1.0], atol=1e-12)
    assert np.abs(eigs[:-2]).max() < 1e-12


def test_quorum_rejects_product_state():
    psi = np.zeros((4, 4), dtype=complex)
    psi[0, 0] = 1.0
    with pytest.raises(ValueError):
        quorum_decompose(psi)
