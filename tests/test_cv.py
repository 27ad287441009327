import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from beam_splitter_oracle import (
    beam_splitter,
    beam_splitter_unitary,
    block_sum_mode_variance,
    embed,
    quadrature_operator,
    squeezing_witness,
)
from gaussian_oracle import twb_mean_photons
from helpers import (
    difference_blocks,
    partial_transpose,
    pt_spectrum_analytic,
    validate,
)
from noise_channel_oracle import (
    apply_gaussian_noise,
    block_gaussian_noise,
    cv_witness_expectation,
    gaussian_noise_blocks,
    noise_truncation,
)
from witnessforge import cv
from witnessforge.cv import (
    DifferenceBlocks,
    FockTruncation,
    TruncationError,
    cv_witness,
    gauss_separability_threshold,
    gauss_witness_expectation,
    phase_witness_expectation,
    sum_mode_variance,
    twb_state,
    twin_beam_blocks,
)
from witnessforge.witness_finite import evaluate_witness


def gauss_expectation_closed_form(x, kappa):
    """Independent oracle for Tr[R_kappa W], cross-checked below against the
    generator-exponential channel; zero of the numerator sits at x/(1+x)."""
    numerator = (1 - x * x) * kappa**2 + (1 + x * x) * kappa - x
    denominator = (1 + kappa) ** 2 - x * x * kappa**2
    return (1 - x * x) * numerator / denominator**2


def noise_superop_expm(dim, kappa):
    """Oracle: matrix exponential of the truncated diffusion generator."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    ad = a.conj().T
    eye = np.eye(dim, dtype=complex)
    anti = ad @ a + a @ ad
    gen = (np.kron(a, ad.T) + np.kron(ad, a.T)
           - 0.5 * (np.kron(anti, eye) + np.kron(eye, anti.T)))
    return expm(kappa * gen)


def test_truncation_for_twb():
    tr = FockTruncation.for_twb(0.5)
    tail = twb_state(0.5, tr).trace_deficit
    assert tail == pytest.approx(0.5 ** (2 * (tr.n_max + 1)))
    assert tail < 1e-10
    assert 0.5 ** (2 * tr.n_max) >= 1e-10  # minimality
    assert FockTruncation.for_twb(0.0).n_max == 1
    with pytest.raises(ValueError):
        FockTruncation.for_twb(1.0)


def test_twb_rejects_oversized_truncation():
    with pytest.raises(ValueError):
        twb_state(0.99, FockTruncation.for_twb(0.99))


def test_twb_vacuum_limit():
    tr = FockTruncation(4)
    rho = twb_state(0.0, tr)
    assert rho.matrix[0, 0] == pytest.approx(1.0)
    assert np.abs(rho.matrix).sum() == pytest.approx(1.0)


def test_twb_elements_and_mean_photons():
    x = 0.5
    tr = FockTruncation.for_twb(x)
    rho = twb_state(x, tr)
    d = tr.dim
    assert rho.matrix[0, 0].real == pytest.approx(0.75, abs=1e-14)
    assert rho.matrix[d + 1, 0].real == pytest.approx(0.375, abs=1e-14)
    assert twb_mean_photons(x) == pytest.approx(2.0 / 3.0, abs=1e-14)
    n = np.arange(d)
    numeric_nbar = 2 * float(np.real(np.diag(rho.reduced(0))) @ n)
    assert numeric_nbar == pytest.approx(twb_mean_photons(x), abs=1e-8)
    assert np.trace(rho.matrix).real == pytest.approx(1.0 - rho.trace_deficit,
                                                      abs=1e-14)
    validate(rho)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(x=st.floats(0.0, 0.9), n_max=st.integers(1, 24),
       gamma_t=st.one_of(st.floats(0.0, 1e3), st.just(math.inf)))
def test_twin_beam_blocks_are_the_dense_phase_noisy_twin_beam(x, n_max,
                                                              gamma_t):
    # the dense matrix is (1 - x^2) x^(p+q) exp(-gamma_t (p - q)^2) at
    # (|pp>, <qq|) and zero elsewhere, with the neglected weight x^(2d) as
    # its deficit, and the dense matrix gives the blocks back
    d = n_max + 1
    assume(x ** (2 * d) < 1e-3)
    blocks = twin_beam_blocks(x, FockTruncation(n_max), gamma_t)
    rho = blocks.density()
    p, q = np.indices((d, d))
    square = (p - q) ** 2
    decay = np.ones((d, d))
    off = square > 0
    decay[off] = np.exp(-gamma_t * square[off])
    expected = np.zeros((d * d, d * d))
    diagonal = np.arange(d) * (d + 1)
    expected[np.ix_(diagonal, diagonal)] = (1 - x * x) * x ** (p + q) * decay
    np.testing.assert_allclose(rho.matrix, expected, rtol=1e-14, atol=0)
    assert rho.trace_deficit == x ** (2 * d)
    back = difference_blocks(rho)
    assert back.trace_deficit == blocks.trace_deficit
    assert len(back.blocks) == d
    for got, want in zip(back.blocks, blocks.blocks):
        assert np.array_equal(got, want)


def test_phase_noisy_reduces_to_twb():
    tr = FockTruncation.for_twb(0.4)
    assert np.allclose(twin_beam_blocks(0.4, tr, 0.0).density().matrix,
                       twb_state(0.4, tr).matrix, atol=1e-14)


def test_phase_noisy_strong_dephasing_is_diagonal():
    tr = FockTruncation.for_twb(0.4)
    rho = twin_beam_blocks(0.4, tr, 2000.0).density()
    off = rho.matrix - np.diag(np.diag(rho.matrix))
    assert np.abs(off).max() == 0.0
    assert np.trace(rho.matrix).real == pytest.approx(1.0 - rho.trace_deficit,
                                                      abs=1e-14)


def test_phase_noisy_fully_dephased_limit():
    x = 0.5
    tr = FockTruncation.for_twb(x)
    rho = twin_beam_blocks(x, tr, math.inf).density()
    d = tr.dim
    diag_idx = np.arange(d) * d + np.arange(d)
    expected = np.zeros((d * d, d * d))
    expected[diag_idx, diag_idx] = (1 - x * x) * x ** (2 * np.arange(d))
    assert np.array_equal(rho.matrix, expected)
    assert evaluate_witness(cv_witness(tr), rho) == 0.0
    assert phase_witness_expectation(x, math.inf) == 0.0


@pytest.mark.parametrize("gamma_t", [math.nan, -1.0])
def test_phase_noise_rejects_bad_strength(gamma_t):
    tr = FockTruncation.for_twb(0.5)
    with pytest.raises(ValueError, match="gamma_t"):
        twin_beam_blocks(0.5, tr, gamma_t).density()
    with pytest.raises(ValueError, match="gamma_t"):
        phase_witness_expectation(0.5, gamma_t)


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf, -0.1])
def test_noise_rejects_non_finite_kappa(kappa):
    rho = twb_state(0.5, FockTruncation.for_twb(0.5))
    blocks = twin_beam_blocks(0.5, FockTruncation.for_twb(0.5))
    calls = [lambda: gaussian_noise_blocks(4, kappa),
             lambda: apply_gaussian_noise(rho, kappa),
             lambda: block_gaussian_noise(blocks, kappa),
             lambda: gauss_witness_expectation(0.5, kappa),
             lambda: noise_truncation(0.5, kappa)]
    for call in calls:
        with pytest.raises(ValueError,
                           match="kappa must be finite and non-negative"):
            call()


def test_phase_noisy_element_and_support():
    x, gt = 0.5, 1.0
    tr = FockTruncation.for_twb(x)
    rho = twin_beam_blocks(x, tr, gt).density()
    d = tr.dim
    assert rho.matrix[d + 1, 0].real == pytest.approx(0.375 * math.exp(-1.0),
                                                      abs=1e-14)
    mask = np.zeros((d * d, d * d), dtype=bool)
    diag_idx = np.arange(d) * d + np.arange(d)
    mask[np.ix_(diag_idx, diag_idx)] = True
    assert np.all(rho.matrix[~mask] == 0.0)


def test_pt_spectrum_matches_dense_solver():
    n_max = 15
    for x in (0.0, 0.3, 0.6):
        for gt in (0.0, 1.0, math.inf):
            rho = twin_beam_blocks(x, FockTruncation(n_max), gt).density()
            numeric = np.linalg.eigvalsh(partial_transpose(
                rho.matrix, n_max + 1, n_max + 1))
            analytic = pt_spectrum_analytic(x, gt, n_max)
            assert np.abs(numeric - analytic).max() < 1e-9


def test_pt_min_eigenvalue_matches_dense_solver():
    rho = twin_beam_blocks(0.5, FockTruncation(20), 0.8).density()
    numeric = np.linalg.eigvalsh(partial_transpose(rho.matrix, 21, 21))
    assert numeric[0] == pytest.approx(phase_witness_expectation(0.5, 0.8),
                                       abs=1e-9)


def test_cv_witness_structure():
    tr = FockTruncation(6)
    w = cv_witness(tr)
    assert np.trace(w).real == pytest.approx(1.0)
    eigs = np.sort(np.linalg.eigvalsh(w))
    nonzero = eigs[np.abs(eigs) > 1e-12]
    assert np.allclose(np.sort(nonzero), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert np.linalg.matrix_rank(w, tol=1e-9, hermitian=True) == 4
    vac = np.zeros((tr.dim**2, tr.dim**2), dtype=complex)
    vac[0, 0] = 1.0
    assert abs(np.trace(w @ vac)) < 1e-14


def test_cv_witness_on_twb():
    for x in (0.2, 0.5, 0.8):
        tr = FockTruncation.for_twb(x)
        val = evaluate_witness(cv_witness(tr), twb_state(x, tr))
        assert val == pytest.approx(-(1 - x * x) * x, abs=1e-12)
        assert val < 0


def test_phase_expectation_grid():
    for x in np.linspace(0.1, 0.7, 4):
        tr = FockTruncation.for_twb(float(x))
        w = cv_witness(tr)
        for gt in (0.0, 0.5, 3.0):
            numeric = evaluate_witness(
                w, twin_beam_blocks(float(x), tr, gt).density())
            analytic = phase_witness_expectation(float(x), gt)
            assert numeric == pytest.approx(analytic, abs=1e-9)
            assert analytic < 0


def test_phase_expectation_vacuum_boundary():
    assert phase_witness_expectation(0.0, 2.0) == 0.0


def test_noise_channel_identity_at_zero():
    tr = FockTruncation.for_twb(0.3)
    rho = twb_state(0.3, tr)
    out = apply_gaussian_noise(rho, 0.0, tr)
    assert np.array_equal(out.matrix, rho.matrix)


def test_noise_channel_vacuum_survival():
    # oracle: radial integral of the displaced-vacuum overlap, plus the
    # closed form 1/(1+kappa)
    kappa = 0.55
    blocks = gaussian_noise_blocks(10, kappa)
    survival = blocks[0][0, 0]
    oracle, _ = quad(lambda r: (2 / kappa) * r * np.exp(-r * r / kappa)
                     * np.exp(-r * r), 0, np.inf)
    assert survival == pytest.approx(oracle, abs=1e-12)
    assert survival == pytest.approx(1 / (1 + kappa), abs=1e-12)


def _with_vacuum_b(populations):
    """Block state sum_n p(n) |n><n| (x) |0><0|: mode b in vacuum."""
    d = len(populations)
    blocks = [np.zeros((d - j, d - j)) for j in range(d)]
    blocks[0][:, 0] = populations
    return DifferenceBlocks(tuple(blocks))


def _mode_a_populations(state):
    return state.blocks[0].sum(axis=1)


def test_noise_channel_adds_kappa_photons():
    kappa = 0.4
    dim = 30
    populations = np.zeros(dim)
    populations[2] = 1.0  # two-photon Fock state
    out = _mode_a_populations(
        block_gaussian_noise(_with_vacuum_b(populations), kappa))
    mean = float(np.arange(dim) @ out)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    assert mean == pytest.approx(2.0 + kappa, abs=1e-9)


def test_noise_blocks_match_generator_exponential():
    # cross-validation against an independent realization of the channel
    dim = 24
    for kappa in (0.3, 0.9):
        blocks = gaussian_noise_blocks(dim, kappa)
        superop = noise_superop_expm(dim, kappa)
        for k in range(6):
            for mi in range(6 - k):
                for pi in range(6 - k):
                    m, n, p, q = mi + k, mi, pi + k, pi
                    oracle = superop[m * dim + n, p * dim + q].real
                    assert blocks[k][mi, pi] == pytest.approx(oracle, abs=1e-11)


def test_noise_channel_two_mode_properties():
    for x, kappa in [(0.5, 0.4), (0.3, 0.65)]:
        base_tr = FockTruncation.for_twb(x)
        tr = noise_truncation(x, kappa)
        rho = twb_state(x, base_tr)
        out = apply_gaussian_noise(rho, kappa, tr)
        assert np.abs(out.matrix - out.matrix.conj().T).max() < 1e-12
        eigs = np.linalg.eigvalsh(out.matrix)
        assert eigs[0] > -1e-9
        leak = out.trace_deficit - rho.trace_deficit
        assert 0.0 <= leak <= 10 * rho.trace_deficit


@pytest.mark.parametrize("x, kappa", [(0.5, 0.4), (0.3, 0.65)])
def test_block_channel_matches_dense_oracle(x, kappa):
    base_tr = FockTruncation.for_twb(x)
    tr = noise_truncation(x, kappa)
    dense = apply_gaussian_noise(twb_state(x, base_tr), kappa, tr)
    out = block_gaussian_noise(twin_beam_blocks(x, base_tr), kappa, tr)
    assert out.dim == tr.dim
    assert np.abs(out.density().matrix - dense.matrix).max() <= 1e-15
    assert out.trace_deficit == pytest.approx(dense.trace_deficit, abs=1e-15)


def test_block_channel_at_zero_kappa_only_pads():
    base_tr = FockTruncation.for_twb(0.4)
    state = twin_beam_blocks(0.4, base_tr, 0.7)
    tr = FockTruncation(base_tr.n_max + 3)
    out = block_gaussian_noise(state, 0.0, tr)
    assert out.trace_deficit == state.trace_deficit
    assert np.array_equal(out.density().matrix, apply_gaussian_noise(
        state.density(), 0.0, tr).matrix)
    for j, block in enumerate(out.blocks):
        kept = block[: state.dim - j, : state.dim - j]
        if j < state.dim:
            assert np.array_equal(kept, state.blocks[j])
        assert np.count_nonzero(block) == np.count_nonzero(kept)


def test_block_witness_matches_dense_trace():
    x = 0.5
    tr = FockTruncation.for_twb(x)
    states = [twin_beam_blocks(x, tr), twin_beam_blocks(x, tr, 1.0),
              block_gaussian_noise(twin_beam_blocks(x, tr), 0.4,
                                  noise_truncation(x, 0.4))]
    for state in states:
        dense = evaluate_witness(cv_witness(FockTruncation(state.dim - 1)),
                                 state.density())
        assert cv_witness_expectation(state) == pytest.approx(dense, abs=1e-15)


def test_noise_channel_leakage_guard():
    tr_small = FockTruncation(3)
    for make, channel in ((twb_state, apply_gaussian_noise),
                          (twin_beam_blocks, block_gaussian_noise)):
        rho = make(0.6, FockTruncation.for_twb(0.6))
        with pytest.raises(ValueError):
            channel(rho, 0.5, tr_small)  # target smaller than input
        cramped = make(0.5, FockTruncation.for_twb(0.5))
        with pytest.raises(TruncationError):
            channel(cramped, 2.0)  # no headroom for the noise


def test_noise_channel_checks_size_before_allocating(monkeypatch):
    rho = twb_state(0.1, FockTruncation.for_twb(0.1))
    blocks = twin_beam_blocks(0.1, FockTruncation.for_twb(0.1))
    monkeypatch.setattr(cv, "MAX_TWO_MODE_LEVELS", 8)
    assert apply_gaussian_noise(rho, 0.05, FockTruncation(7)).dim_a == 8
    assert block_gaussian_noise(blocks, 0.05, FockTruncation(7)).dim == 8
    with pytest.raises(ValueError, match="exceeds the supported scale"):
        apply_gaussian_noise(rho, 0.05, FockTruncation(8))
    with pytest.raises(ValueError, match="exceeds the supported scale"):
        block_gaussian_noise(blocks, 0.05, FockTruncation(8))


def test_gauss_expectation_routes_agree():
    x = 0.5
    base_tr = FockTruncation.for_twb(x)
    tr = FockTruncation(base_tr.n_max + 8)
    rho = twb_state(x, base_tr)
    w = cv_witness(tr)
    for kappa in (0.1, 0.4, 0.9):
        dense = evaluate_witness(w, apply_gaussian_noise(rho, kappa, tr))
        series = gauss_witness_expectation(x, kappa)
        closed = gauss_expectation_closed_form(x, kappa)
        assert series == pytest.approx(closed, abs=1e-12)
        assert dense == pytest.approx(series, abs=1e-9)


def test_gauss_expectation_no_noise():
    for x in (0.2, 0.7):
        assert gauss_witness_expectation(x, 0.0) == pytest.approx(
            -(1 - x * x) * x, abs=1e-14)


def test_gauss_expectation_vacuum_is_thermal_product():
    # x = 0: each mode is a thermal state of mean photon number kappa, and
    # only the |01><01| + |10><10| part of the witness survives
    for kappa in (0.2, 0.5):
        assert gauss_witness_expectation(0.0, kappa) == pytest.approx(
            kappa / (1 + kappa) ** 3, rel=1e-14)


def test_gauss_expectation_large_kappa_stays_finite():
    # the expectation falls off like 1/kappa^2; kappa^2 alone overflows
    assert gauss_witness_expectation(0.5, 1e100) == pytest.approx(1e-200,
                                                                  rel=1e-12)
    assert gauss_witness_expectation(0.5, 1e300) == 0.0


def test_dense_channel_witness_changes_sign_at_kappa_star():
    # the dense channel route is independent of the closed form, so this is
    # the located crossing
    for x in (0.3, 0.5, 0.7):
        base_tr = FockTruncation.for_twb(x)
        kappa_star = gauss_separability_threshold(x).kappa_star
        signs = []
        for kappa in (kappa_star - 1e-3, kappa_star + 1e-3):
            tr = noise_truncation(x, kappa)
            rho = apply_gaussian_noise(twb_state(x, base_tr), kappa, tr)
            signs.append(np.sign(evaluate_witness(cv_witness(tr), rho)))
        assert signs == [-1.0, 1.0]


def test_gauss_expectation_closed_form_tracks_expm_oracle():
    # keeps the frozen rational oracle itself honest
    x, kappa = 0.5, 0.4
    dim = 32
    superop = noise_superop_expm(dim, kappa)
    c = math.sqrt(1 - x * x) * x ** np.arange(dim)

    def elem(m1, n1, m2, n2):
        total = 0.0
        for p in range(dim):
            for q in range(dim):
                total += c[p] * c[q] * (superop[m1 * dim + n1, p * dim + q]
                                        * superop[m2 * dim + n2, p * dim + q]).real
        return total

    brute = 0.5 * (elem(0, 0, 1, 1) + elem(1, 1, 0, 0)
                   - elem(0, 1, 0, 1) - elem(1, 0, 1, 0))
    assert brute == pytest.approx(gauss_expectation_closed_form(x, kappa),
                                  abs=1e-10)


def test_gauss_threshold_location():
    for x in (0.3, 0.5, 0.7):
        th = gauss_separability_threshold(x)
        assert th.kappa_star == pytest.approx(x / (1 + x), abs=2e-6)
        assert th.stated_reference == pytest.approx(
            1 - 0.5 * (1 - x) / (1 + x), abs=1e-14)
        # the witness flips sign exactly there
        assert gauss_witness_expectation(x, th.kappa_star - 1e-4) < 0
        assert gauss_witness_expectation(x, th.kappa_star + 1e-4) > 0


def test_gauss_threshold_monotone_in_x():
    stars = [gauss_separability_threshold(float(x)).kappa_star
             for x in np.linspace(0.1, 0.9, 9)]
    assert np.all(np.diff(stars) > 0)


def test_beam_splitter_matches_dense_exponential():
    d = 6
    t = 0.37
    theta = math.acos(math.sqrt(t))
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1).astype(complex)
    gen = theta * (np.kron(a.conj().T, a) - np.kron(a, a.conj().T))
    assert np.abs(expm(gen) - beam_splitter_unitary(d, t)).max() < 1e-12


def test_beam_splitter_identity_and_vacuum():
    tr = FockTruncation(5)
    rho = twb_state(0.3, FockTruncation(5))
    out = beam_splitter(rho, 1.0)
    assert np.array_equal(out.matrix, rho.matrix)
    vac = twb_state(0.0, tr)
    out = beam_splitter(vac, 0.5)
    assert out.matrix[0, 0].real == pytest.approx(1.0, abs=1e-12)


def test_beam_splitter_single_photon_splits():
    u = beam_splitter_unitary(3, 0.5)
    vec = np.zeros(9)
    vec[3] = 1.0  # |1 0>
    out = u @ vec
    assert out[3] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert out[1] == pytest.approx(-1 / math.sqrt(2), abs=1e-12)
    assert np.abs(np.delete(out, [1, 3])).max() < 1e-12


def test_beam_splitter_preserves_trace_and_spectrum():
    tr = FockTruncation.for_twb(0.4)
    rho = twin_beam_blocks(0.4, tr, 0.5).density()
    out = beam_splitter(rho, 0.31)
    assert np.trace(out.matrix).real == pytest.approx(
        np.trace(rho.matrix).real, abs=1e-12)
    assert np.abs(np.linalg.eigvalsh(out.matrix)
                  - np.linalg.eigvalsh(rho.matrix)).max() < 1e-10


def test_squeezing_witness_vacuum():
    vac = np.zeros((5, 5), dtype=complex)
    vac[0, 0] = 1.0
    assert squeezing_witness(vac) == pytest.approx(0.0, abs=1e-14)


def test_squeezing_witness_twb_sum_mode():
    x = 0.5
    tr = FockTruncation.for_twb(x)
    rho = twb_state(x, tr)
    big = FockTruncation(2 * tr.n_max + 2)
    mixed = beam_splitter(embed(rho, big), 0.5)
    witness = squeezing_witness(mixed.reduced(1))
    assert witness + 0.25 == pytest.approx(0.25 * (1 - x) / (1 + x), abs=1e-8)
    assert witness == pytest.approx(-1.0 / 6.0, abs=1e-8)
    # the other output port carries the amplified quadrature
    assert squeezing_witness(mixed.reduced(0)) > 0


def test_squeezing_witness_thermalized_vacuum_positive():
    dim = 20
    vac = np.zeros(dim)
    vac[0] = 1.0
    thermal = np.diag(_mode_a_populations(
        block_gaussian_noise(_with_vacuum_b(vac), 0.3)))
    assert squeezing_witness(thermal) == pytest.approx(0.15, abs=1e-9)


def test_squeezing_witness_rejects_unnormalized():
    bad = np.eye(4, dtype=complex) * 0.2
    with pytest.raises(ValueError):
        squeezing_witness(bad)


def sum_mode_closed_form(x, kappa, t):
    """Var(sqrt(T) X_b - sqrt(1-T) X_a) of the twin beam after amplitude
    noise: cosh(2r)/4 - sqrt(T(1-T)) sinh(2r)/2 + kappa/2."""
    return (0.25 * (1 + x * x - 4 * math.sqrt(t * (1 - t)) * x) / (1 - x * x)
            + kappa / 2)


def _noisy_twb(x, kappa):
    base = twin_beam_blocks(x, FockTruncation.for_twb(x))
    if kappa == 0:
        return base
    return block_gaussian_noise(base, kappa, noise_truncation(x, kappa))


# the dense oracle costs O(d^6) in the truncation d, so x stays <= 0.5
DENSE_POINTS = [(0.5, 0.0, 0.5), (0.3, 0.1, 0.31), (0.4, 0.0, 1.0),
                (0.4, 0.0, 0.0)]


@pytest.mark.parametrize("x, kappa, t", DENSE_POINTS)
def test_sum_mode_variance_matches_dense_splitter(x, kappa, t):
    rho = _noisy_twb(x, kappa)
    # |nn> scatters to single-mode level 2n on the splitter: double the room
    mixed = beam_splitter(embed(rho.density(), FockTruncation(2 * rho.dim - 1)),
                          t)
    dense = squeezing_witness(mixed.reduced(1)) + 0.25
    assert block_sum_mode_variance(rho, t) == pytest.approx(dense, abs=1e-8)


@pytest.mark.parametrize("x, kappa, t", DENSE_POINTS + [(0.5, 0.4, 0.5),
                                                         (0.7, 0.2, 0.31)])
def test_sum_mode_variance_closed_form(x, kappa, t):
    # the block moments differ from the closed form by the truncation only
    closed = sum_mode_closed_form(x, kappa, t)
    assert block_sum_mode_variance(_noisy_twb(x, kappa), t) == pytest.approx(
        closed, abs=1e-8)
    assert sum_mode_variance(x, kappa, t) == pytest.approx(closed, rel=1e-14)


@pytest.mark.parametrize("x, kappa, t", [
    (1.0, 0.0, 0.5), (-0.1, 0.0, 0.5), (math.nan, 0.0, 0.5),
    (0.5, math.nan, 0.5), (0.5, math.inf, 0.5), (0.5, -0.1, 0.5),
    (0.5, 0.0, 1.5), (0.5, 0.0, -0.1), (0.5, 0.0, math.nan)])
def test_closed_form_sum_mode_variance_rejects_bad_input(x, kappa, t):
    with pytest.raises(ValueError):
        sum_mode_variance(x, kappa, t)


def _exact_twin_beam_values(x, kappa):
    """Witness and sum-mode variances at T = 0, 1/2, 1 of the noisy twin
    beam, in exact rational arithmetic on the binary values of x, kappa."""
    x, kappa = Fraction(x), Fraction(kappa)
    one_minus_x2 = 1 - x * x
    numerator = one_minus_x2 * kappa ** 2 + (1 + x * x) * kappa - x
    q = (1 + kappa) ** 2 - x * x * kappa ** 2
    witness = one_minus_x2 * numerator / q ** 2
    # sqrt(T(1-T)) is 0 at T = 0, 1 and exactly 1/2 at T = 1/2
    variance = {t: (1 + x * x - 4 * s * x) / (4 * one_minus_x2) + kappa / 2
                for t, s in ((0.0, 0), (0.5, Fraction(1, 2)), (1.0, 0))}
    return witness, variance


@pytest.mark.parametrize("x", [1 - 2.0 ** -30, 1 - 1e-12])
@pytest.mark.parametrize("kappa", [0.0, 0.2])
def test_closed_forms_keep_relative_accuracy_near_x_one(x, kappa):
    witness, variance = _exact_twin_beam_values(x, kappa)

    def rel(value, exact):
        return abs(Fraction(value) - exact) / abs(exact)

    assert rel(gauss_witness_expectation(x, kappa), witness) <= 1e-15
    if kappa == 0.0:
        assert rel(phase_witness_expectation(x, 0.0), witness) <= 1e-15
    for t, exact in variance.items():
        assert rel(sum_mode_variance(x, kappa, t), exact) <= 1e-15


def test_sum_mode_variance_rejects_bad_input():
    rho = twin_beam_blocks(0.3, FockTruncation.for_twb(0.3))
    half = DifferenceBlocks(tuple(0.5 * block for block in rho.blocks))
    with pytest.raises(ValueError, match="truncation is insufficient"):
        block_sum_mode_variance(half, 0.5)
    for t in (1.5, math.nan):
        with pytest.raises(ValueError, match="transmissivity"):
            block_sum_mode_variance(rho, t)


def test_sum_mode_variance_matches_dense_moments():
    # asymmetric populations and a complex B_1 tell the two modes and the
    # two halves of the coherence apart, which the twin beams cannot
    d = 3
    state = DifferenceBlocks((
        np.array([[0.4, 0.1, 0.05], [0.2, 0.1, 0.0], [0.03, 0.02, 0.1]]),
        np.array([[0.1 + 0.05j, 0.02 - 0.01j], [0.03j, 0.01]]),
        np.array([[0.02 - 0.01j]])))
    rho = state.density().matrix
    x_op = quadrature_operator(d + 1)
    x_sq = (x_op @ x_op)[:d, :d]  # the top level keeps its a a^dag term
    x_op = x_op[:d, :d]
    eye = np.eye(d)

    def moment(op):
        return np.trace(rho @ op).real

    mean_a, mean_b = moment(np.kron(x_op, eye)), moment(np.kron(eye, x_op))
    var_a = moment(np.kron(x_sq, eye)) - mean_a ** 2
    var_b = moment(np.kron(eye, x_sq)) - mean_b ** 2
    cov = moment(np.kron(x_op, x_op)) - mean_a * mean_b
    for t in (0.0, 0.31, 0.5, 1.0):
        dense = (t * var_b + (1 - t) * var_a
                 - 2 * math.sqrt(t * (1 - t)) * cov)
        assert block_sum_mode_variance(state, t) == pytest.approx(dense,
                                                                  abs=1e-15)


def test_quadrature_operator_vacuum_variance():
    x_op = quadrature_operator(8)
    vac = np.zeros(8)
    vac[0] = 1.0
    assert vac @ (x_op @ x_op) @ vac == pytest.approx(0.25)


def test_gaussian_noise_adds_half_kappa_to_quadrature_variance():
    # the convention criterion 9's half-quantum shift rests on
    trunc = FockTruncation(30)
    d = trunc.dim
    x_a = np.kron(quadrature_operator(d), np.eye(d))
    for kappa in (0.1, 0.3):
        rho = apply_gaussian_noise(twb_state(0.0, trunc), kappa, trunc).matrix
        mean = np.trace(rho @ x_a).real
        var = np.trace(rho @ x_a @ x_a).real - mean**2
        assert var == pytest.approx(0.25 + kappa / 2, abs=1e-9)
