"""Property tests of the finite-dimensional witness on random pure states.

The examples are derandomized and few, so the suite stays deterministic
and fast.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import build_witness
from witnessforge.linalg import complex_svd
from witnessforge.witness_finite import (
    depolarized_expectation,
    depolarized_state,
    detection_threshold,
    evaluate_witness,
    min_eigvec_operator,
)

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None,
                             max_examples=50, database=None)

_parts = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def _complex_array(draw, shape):
    re_im = draw(arrays(np.float64, (2,) + shape, elements=_parts))
    return re_im[0] + 1j * re_im[1]


@st.composite
def entangled_psi(draw):
    """A normalized d x d pure-state operator, d <= 4, of Schmidt rank >= 2."""
    d = draw(st.integers(2, 4))
    m = _complex_array(draw, (d, d))
    norm = np.linalg.norm(m)
    assume(norm > 1e-3)
    psi = m / norm
    # away from product states, where no witness exists
    assume(complex_svd(psi).sigma[1] > 1e-3)
    return psi


@st.composite
def psi_and_product_vector(draw):
    psi = draw(entangled_psi())
    d = psi.shape[0]
    a, b = _complex_array(draw, (d,)), _complex_array(draw, (d,))
    assume(np.linalg.norm(a) > 1e-3 and np.linalg.norm(b) > 1e-3)
    return psi, np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))


def witness_for(psi):
    return build_witness(min_eigvec_operator(complex_svd(psi)))


@PROPERTY_SETTINGS
@given(entangled_psi(), st.floats(0.0, 1.0))
def test_two_trace_line_equals_dense_oracle(psi, p):
    a = min_eigvec_operator(complex_svd(psi))
    dense = evaluate_witness(build_witness(a), depolarized_state(psi, p))
    assert abs(depolarized_expectation(a, psi)(p) - dense) <= 1e-13


@PROPERTY_SETTINGS
@given(psi_and_product_vector())
def test_witness_nonnegative_on_product_vectors(case):
    psi, v = case
    assert np.vdot(v, witness_for(psi) @ v).real >= -1e-12


@PROPERTY_SETTINGS
@given(entangled_psi())
def test_witness_vanishes_at_detection_threshold(psi):
    line = depolarized_expectation(min_eigvec_operator(complex_svd(psi)), psi)
    assert abs(line(detection_threshold(complex_svd(psi)))) <= 1e-12
