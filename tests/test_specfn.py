import math

import numpy as np
import pytest

from kummer_oracle import chf, pattern_functions
from witnessforge.specfn import (
    f00,
    f01,
    f11,
    oscillator_psi,
    oscillator_psi_table,
)

# reference values computed with mpmath.hyp1f1 at 40 digits
CHF_REFERENCE = [
    (1.0, 0.5, -0.98, -0.066765456375446279212),
    (1.0, 0.5, -2.0, -0.27997614913081785136),
    (2.0, 1.5, -18.0, -0.00093764794455501073361),
    (2.0, 0.5, -32.0, 0.00087017339154661090076),
    (-0.5, 0.5, 7.25, -131.71726937146547836),
    (1.0, 0.5, -200.0, -0.0025189885714712089441),
]


def test_chf_at_zero():
    for a, b in [(1.0, 0.5), (2.0, 1.5), (-0.3, 2.0)]:
        assert chf(a, b, 0.0) == 1.0


def test_chf_exponential_identity():
    for z in np.linspace(-20, 20, 9):
        assert chf(1.0, 1.0, float(z)) == pytest.approx(math.exp(z), rel=1e-13)


def test_chf_rejects_polar_b():
    for b in (0.0, -1.0, -5.0):
        with pytest.raises(ValueError):
            chf(1.0, b, 0.3)


def test_chf_rejects_huge_argument():
    with pytest.raises(ValueError):
        chf(1.0, 0.5, -2e4)


def test_chf_overflow_fails_fast():
    from witnessforge.linalg import ConvergenceError
    with pytest.raises(ConvergenceError):
        chf(1.0, 1.0, 800.0)


def test_chf_against_plain_taylor_sum():
    # independent oracle: direct 200-term Taylor series at a mild argument
    z = -0.98
    term, acc = 1.0, 1.0
    for k in range(200):
        term *= (1.0 + k) / ((0.5 + k) * (k + 1.0)) * z
        acc += term
    assert chf(1.0, 0.5, z) == pytest.approx(acc, rel=1e-12)
    assert chf(1.0, 0.5, z) == pytest.approx(
        math.exp(z) * chf(-0.5, 0.5, -z), rel=1e-12)


@pytest.mark.parametrize("a,b,z,expected", CHF_REFERENCE)
def test_chf_reference_values(a, b, z, expected):
    assert chf(a, b, z) == pytest.approx(expected, rel=1e-12)


def test_chf_kummer_transformation_grid():
    for a, b in [(1.0, 0.5), (2.0, 1.5), (2.0, 0.5), (0.3, 1.7)]:
        for z in np.linspace(-50, 50, 21):
            z = float(z)
            lhs = chf(a, b, z)
            rhs = math.exp(z) * chf(b - a, b, -z)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-300)


def test_chf_contiguous_recurrence_in_a():
    # (b-a) M(a-1,b,z) + (2a-b+z) M(a,b,z) - a M(a+1,b,z) = 0
    rng = np.random.default_rng(11)
    for _ in range(40):
        a = float(rng.uniform(0.3, 3.0))
        b = float(rng.uniform(0.4, 3.0))
        z = float(rng.uniform(-20.0, 20.0))
        terms = [(b - a) * chf(a - 1, b, z),
                 (2 * a - b + z) * chf(a, b, z),
                 -a * chf(a + 1, b, z)]
        scale = max(abs(t) for t in terms)
        assert abs(sum(terms)) <= 1e-8 * scale


def test_oscillator_vacuum_distribution():
    xs = np.linspace(-8, 8, 4001)
    psi0 = oscillator_psi(0, xs)
    assert np.allclose(psi0**2, np.sqrt(2 / np.pi) * np.exp(-2 * xs**2),
                       atol=1e-14)
    assert np.trapezoid(psi0**2, xs) == pytest.approx(1.0, abs=1e-12)


def test_oscillator_psi1_odd():
    assert oscillator_psi(1, 0.0) == 0.0


def test_oscillator_fock1_variance():
    # Var(x) of the n = 1 state is (2n+1)/4 = 3/4
    xs = np.linspace(-10, 10, 8001)
    psi1 = oscillator_psi(1, xs)
    assert np.trapezoid(xs**2 * psi1**2, xs) == pytest.approx(0.75, abs=1e-10)


def test_oscillator_orthonormality():
    xs = np.linspace(-12, 12, 12001)
    table = oscillator_psi_table(10, xs)
    overlaps = np.trapezoid(table[:, None, :] * table[None, :, :], xs, axis=-1)
    assert np.abs(overlaps - np.eye(11)).max() < 1e-10


def test_oscillator_guard_rails():
    with pytest.raises(ValueError):
        oscillator_psi(-1, 0.0)
    with pytest.raises(ValueError):
        oscillator_psi_table(10**6, np.array([0.0]))


def test_f_values_at_origin():
    assert f00(0.0) == pytest.approx(2.0, abs=1e-14)
    assert f01(0.0) == pytest.approx(0.0, abs=1e-14)
    assert f11(0.0) == pytest.approx(-2.0, abs=1e-14)


def test_f_closed_forms_match_kummer_oracle():
    xs = np.concatenate([np.linspace(-25, 25, 5001),
                         [0.0, 1e-300, -1e-300, 1e-12, -1e-12]])
    oracle = pattern_functions(xs)
    for f, ref, tol in zip((f00, f01, f11), oracle, (1e-14, 1e-12, 2e-11)):
        assert np.max(np.abs(f(xs) - ref)) <= tol


def test_f_reference_values_at_ten():
    # frozen mpmath evaluations of the closed forms
    assert f00(10.0) == pytest.approx(-0.00503797714294241789, rel=1e-10)
    assert f01(10.0) == pytest.approx(-0.000507644001701236871, rel=1e-10)
    assert f11(10.0) == pytest.approx(-0.00511490289108231954, rel=1e-10)


def test_f_bounded_and_decaying():
    xs = np.linspace(-10, 10, 401)
    for f in (f00, f01, f11):
        vals = f(xs)
        assert np.all(np.isfinite(vals))
        assert abs(float(f(10.0))) < 1.0
        assert abs(float(f(10.0))) < abs(float(f(1.0)))


def test_pattern_function_biorthogonality():
    # each pattern function must pick out exactly one density-matrix element:
    # int psi_n^2 f00 = delta_n0, int psi_n^2 f11 = delta_n1,
    # int psi_p psi_{p+1} f01 = delta_p0
    xs = np.linspace(-9, 9, 18001)
    table = oscillator_psi_table(7, xs)
    v00 = f00(xs)
    v11 = f11(xs)
    v01 = f01(xs)
    for n in range(7):
        g00 = np.trapezoid(table[n] ** 2 * v00, xs)
        g11 = np.trapezoid(table[n] ** 2 * v11, xs)
        assert g00 == pytest.approx(1.0 if n == 0 else 0.0, abs=1e-9)
        assert g11 == pytest.approx(1.0 if n == 1 else 0.0, abs=1e-9)
    for p in range(6):
        j = np.trapezoid(table[p] * table[p + 1] * v01, xs)
        assert j == pytest.approx(1.0 if p == 0 else 0.0, abs=1e-9)
