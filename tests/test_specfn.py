import math

import numpy as np
import pytest

from kummer_oracle import chf, pattern_functions
from quadrature_pdf_oracle import oscillator_psi
from witnessforge import specfn
from witnessforge.specfn import SWITCH, oscillator_psi_table

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
    v00, v01, v11 = specfn.pattern_functions(0.0)
    assert v00 == pytest.approx(2.0, abs=1e-14)
    assert v01 == pytest.approx(0.0, abs=1e-14)
    assert v11 == pytest.approx(-2.0, abs=1e-14)


def test_f_closed_forms_match_kummer_oracle():
    xs = np.concatenate([np.linspace(-25, 25, 5001),
                         [0.0, 1e-300, -1e-300, 1e-12, -1e-12]])
    oracle = pattern_functions(xs)
    for v, ref, tol in zip(specfn.pattern_functions(xs), oracle,
                           (1e-14, 1e-12, 2e-11)):
        assert np.max(np.abs(v - ref)) <= tol


def test_f_reference_values_at_ten():
    # frozen mpmath evaluations of the closed forms
    v00, v01, v11 = specfn.pattern_functions(10.0)
    assert v00 == pytest.approx(-0.00503797714294241789, rel=1e-10)
    assert v01 == pytest.approx(-0.000507644001701236871, rel=1e-10)
    assert v11 == pytest.approx(-0.00511490289108231954, rel=1e-10)


# frozen mpmath evaluations of the Kummer forms at 40 digits:
# (x, f00, f01, f11)
LARGE_X_REFERENCE = [
    (1e2, -0.0000500037504688320497121, -5.00075014065782173156e-7,
     -0.0000500112523443243849191),
    (1e3, -5.0000037500046875082e-7, -5.00000750001406253281e-10,
     -5.00001125002343755742e-7),
    (1e4, -5.00000003750000046875e-9, -5.00000007500000140625e-13,
     -5.00000011250000234375e-9),
    (1e6, -5.00000000000375e-13, -5.0000000000075e-19,
     -5.00000000001125e-13),
]

# the same just below and just above z = sqrt(2) x = SWITCH
SWITCH_REFERENCE = [
    (7.07106781186547, -0.0101538875039411360906,
     -0.00145830968058856055112, -0.0104697257803420350776),
    (7.07106781186548, -0.0101538875039411075954,
     -0.00145830968058855437966, -0.0104697257803420047905),
]

# frozen mpmath values of Dawson's integral D(z) = z M(1, 3/2; -z^2)
DAWSON_REFERENCE = [
    (1e-300, 1.00000000000000002506e-300),
    (1e-8, 9.99999999999999954256e-9),
    (0.5, 0.424436383502022295934),
    (0.924138873, 0.541044224635181698473),
    (2.0, 0.301340388923791966035),
    (5.0, 0.102134074424276835439),
    (9.99, 0.0503046682368452458008),
    (12.0, 0.0418128764539882603179),
    (1e8, 5.00000000000000025e-9),
]


def dawson(z):
    """D(z) read back from the pattern functions: D/z = f01/(4x) - f00/2."""
    x = np.asarray(z, dtype=float) / math.sqrt(2.0)
    v00, v01, _ = specfn.pattern_functions(x)
    return z * (v01 / (4.0 * x) - v00 / 2.0)


@pytest.mark.parametrize("x,e00,e01,e11", LARGE_X_REFERENCE)
def test_f_reference_values_at_large_x(x, e00, e01, e11):
    for sign in (1.0, -1.0):
        v00, v01, v11 = specfn.pattern_functions(sign * x)
        assert v00 == pytest.approx(e00, rel=1e-13)
        assert v01 == pytest.approx(sign * e01, rel=1e-13)
        assert v11 == pytest.approx(e11, rel=1e-13)


def test_f_reference_values_at_the_switch():
    below, above = SWITCH_REFERENCE
    assert math.sqrt(2.0) * below[0] < SWITCH <= math.sqrt(2.0) * above[0]
    for x, *expected in SWITCH_REFERENCE:
        for v, e in zip(specfn.pattern_functions(x), expected):
            assert v == pytest.approx(e, rel=1e-12)


@pytest.mark.parametrize("z,expected", DAWSON_REFERENCE)
def test_dawson_reference_values(z, expected):
    assert dawson(z) == pytest.approx(expected, rel=2e-15)


def test_dawson_against_scipy():
    from scipy.special import dawsn
    z = np.concatenate([np.linspace(1e-3, 14.0, 3001),
                        np.logspace(-300, 8, 200)])
    assert np.max(np.abs(dawson(z) / dawsn(z) - 1.0)) <= 2e-14


def test_f_scalar_input():
    for x in (0.3, -2.5, 9.0, 1e-300, -1e-300):
        values = specfn.pattern_functions(x)
        batch = specfn.pattern_functions(np.array([x, 0.0]))
        for v, b in zip(values, batch):
            assert np.ndim(v) == 0
            assert v == b[0]
        assert np.ndim(specfn.pattern_functions(np.array(x))[0]) == 0
    v00, v01, _ = specfn.pattern_functions(1e-300)
    _, w01, w11 = specfn.pattern_functions(-1e-300)
    assert v00 == 2.0 and w11 == -2.0
    assert v01 == pytest.approx(8e-300, rel=1e-15)
    assert w01 == pytest.approx(-8e-300, rel=1e-15)


def test_f_shape_and_chunking():
    # several chunks of points, about 8 % of them past the switch
    rng = np.random.default_rng(7)
    xs = rng.normal(0.0, 4.0, size=(3, 7000))
    values = specfn.pattern_functions(xs)
    picks = np.r_[0:40, 8180:8200, 16380:16390, 20990:21000]
    one_by_one = [specfn.pattern_functions(x) for x in xs.ravel()[picks]]
    for i, v in enumerate(values):
        assert v.shape == xs.shape
        assert np.array_equal(v.ravel()[picks], [p[i] for p in one_by_one])
    assert [v.shape for v in specfn.pattern_functions(np.empty(0))] == [(0,)] * 3


def test_f_on_interval_edges():
    # z = sqrt(2) x on every edge of the polynomial intervals, SWITCH included
    edges = np.linspace(0.0, SWITCH, 65)
    xs = np.concatenate([edges, np.nextafter(edges, 0.0),
                         np.nextafter(edges, SWITCH + 1.0)]) / math.sqrt(2.0)
    oracle = pattern_functions(xs)
    for v, ref, tol in zip(specfn.pattern_functions(xs), oracle,
                           (1e-14, 1e-12, 2e-11)):
        assert np.max(np.abs(v - ref)) <= tol


def gathered_near(x, z):
    """specfn._near as it gathered the whole (22, n) coefficient block of
    the points' intervals before the Horner steps."""
    u = z * specfn._SCALE
    k = np.minimum(u.astype(np.intp) >> 1, specfn._INTERVALS - 1)
    t = u - (2 * k + 1)
    coeffs = np.take(specfn._POLY, k, axis=1)
    g = specfn._horner(coeffs[:len(specfn.G_POLY)], t)
    q = specfn._horner(coeffs[len(specfn.G_POLY):], t)
    m1 = q - g
    return 2.0 * m1, 4.0 * x * q, 2.0 + 4.0 * (z * z - 1.0) * m1


@pytest.mark.parametrize("points", ["dense-z-grid", "random"])
def test_per_row_coefficient_reads_keep_the_gathered_bits(monkeypatch,
                                                          points):
    if points == "dense-z-grid":
        # every interval of z in [0, 10), both signs of x
        z = np.arange(0.0, SWITCH, 1e-4)
        xs = np.concatenate([z, -z]) / math.sqrt(2.0)
    else:
        rng = np.random.default_rng(19)
        xs = rng.normal(0.0, 3.0, size=50_000)
    values = specfn.pattern_functions(xs)
    monkeypatch.setattr(specfn, "_near", gathered_near)
    for v, ref in zip(values, specfn.pattern_functions(xs)):
        assert np.array_equal(v, ref)


def test_f_limits_at_infinity_and_nan():
    xs = np.array([np.inf, -np.inf, np.nan, 0.5, 1e300, -1e300])
    for v in specfn.pattern_functions(xs):
        assert np.all(v[:2] == 0.0)
        assert np.isnan(v[2]) and np.isfinite(v[3])
        assert np.all(np.abs(v[4:]) < 1e-300)
    assert np.isnan(specfn.pattern_functions(np.nan)[1])

def test_f_bounded_and_decaying():
    xs = np.linspace(-10, 10, 401)
    at_ten = specfn.pattern_functions(10.0)
    at_one = specfn.pattern_functions(1.0)
    for vals, ten, one in zip(specfn.pattern_functions(xs), at_ten, at_one):
        assert np.all(np.isfinite(vals))
        assert abs(float(ten)) < 1.0
        assert abs(float(ten)) < abs(float(one))


def test_pattern_function_biorthogonality():
    # each pattern function must pick out exactly one density-matrix element:
    # int psi_n^2 f00 = delta_n0, int psi_n^2 f11 = delta_n1,
    # int psi_p psi_{p+1} f01 = delta_p0
    xs = np.linspace(-9, 9, 18001)
    table = oscillator_psi_table(7, xs)
    v00, v01, v11 = specfn.pattern_functions(xs)
    for n in range(7):
        g00 = np.trapezoid(table[n] ** 2 * v00, xs)
        g11 = np.trapezoid(table[n] ** 2 * v11, xs)
        assert g00 == pytest.approx(1.0 if n == 0 else 0.0, abs=1e-9)
        assert g11 == pytest.approx(1.0 if n == 1 else 0.0, abs=1e-9)
    for p in range(6):
        j = np.trapezoid(table[p] * table[p + 1] * v01, xs)
        assert j == pytest.approx(1.0 if p == 0 else 0.0, abs=1e-9)
