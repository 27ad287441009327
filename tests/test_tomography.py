import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

from helpers import (
    batch_rows_from_csv,
    difference_blocks,
    twin_beam_batch,
    validate,
)
from noise_channel_oracle import apply_gaussian_noise, noise_truncation
from quadrature_pdf_oracle import joint_quadrature_pdf
from sampler_oracle import (
    conditional_rows,
    draw,
    full_draw_blocks,
    homodyne_draw,
    marginal_rows,
    one_shot_columns,
    twin_beam_draw,
    twin_beam_quadratures,
    with_full_draws,
)
from witnessforge import tomography
from witnessforge.cv import (
    DifferenceBlocks,
    FockTruncation,
    cv_witness,
    gauss_witness_expectation,
    phase_witness_expectation,
    twb_state,
    twin_beam_blocks,
)
from witnessforge.formats import batch_to_csv
from witnessforge.specfn import pattern_functions
from witnessforge.states import BipartiteDensity, random_state_operator
from witnessforge.tomography import (
    BLOCK_SIZE,
    HomodyneBatch,
    _sample_columns,
    _SamplerTables,
    _weighted_columns,
    mc_estimate_witness,
    sample_homodyne,
    stream_twin_beam,
    witness_kernel,
)
from witnessforge.witness_finite import depolarized_state, evaluate_witness


def vacuum_state(n_max=3):
    d = n_max + 1
    m = np.zeros((d * d, d * d), dtype=complex)
    m[0, 0] = 1.0
    return BipartiteDensity(d, d, m)


def general_d3_state():
    # the coherence |00><01| lies off the index-difference blocks
    d = 3
    vec = np.zeros(d * d, dtype=complex)
    vec[0] = 1.0
    vec[d + 1] = np.exp(1j * np.pi / 5)
    vec[1] = 0.5
    vec /= np.linalg.norm(vec)
    return BipartiteDensity(d, d, np.outer(vec, vec.conj()))


def rotated_twb(x, theta):
    """Twin beam after the local phase e^{i theta a^dag a} on mode A."""
    base = twb_state(x, FockTruncation.for_twb(x))
    d = base.dim_a
    phases = np.kron(np.exp(1j * theta * np.arange(d)), np.ones(d))
    return BipartiteDensity(d, d, base.matrix * np.outer(phases,
                                                         phases.conj()))


def grid_integral_2d(xs, pdf):
    return np.trapezoid(np.trapezoid(pdf, xs, axis=1), xs)


def test_pdf_vacuum_is_gaussian_product():
    xs, pdf = joint_quadrature_pdf(vacuum_state(), 0.3, 1.1)
    marginal = np.sqrt(2 / np.pi) * np.exp(-2 * xs**2)
    assert np.abs(pdf - np.outer(marginal, marginal)).max() < 1e-13
    assert grid_integral_2d(xs, pdf) == pytest.approx(1.0, abs=1e-6)


def test_pdf_normalizes_to_trace():
    x = 0.5
    tr = FockTruncation.for_twb(x)
    rho = twin_beam_blocks(x, tr, 0.7).density()
    xs, pdf = joint_quadrature_pdf(rho, 1.2, 0.4)
    assert grid_integral_2d(xs, pdf) == pytest.approx(
        np.trace(rho.matrix).real, abs=1e-6)


def test_pdf_twb_difference_quadrature_variance():
    # at phi1 = phi2 = 0 the difference quadrature of the twin beam has
    # variance (1-x)/(2(1+x))
    x = 0.5
    rho = twb_state(x, FockTruncation.for_twb(x))
    xs, pdf = joint_quadrature_pdf(rho, 0.0, 0.0, cells=400)
    diff2 = (xs[:, None] - xs[None, :]) ** 2
    var = np.trapezoid(np.trapezoid(pdf * diff2, xs, axis=1), xs)
    assert var == pytest.approx(0.5 * (1 - x) / (1 + x), abs=1e-6)
    assert np.abs(pdf - pdf.T).max() < 1e-12


def test_pdf_phase_independent_for_dephased_state():
    tr = FockTruncation.for_twb(0.4)
    rho = twin_beam_blocks(0.4, tr, 2000.0).density()
    xs = np.linspace(-4, 4, 201)
    _, p1 = joint_quadrature_pdf(rho, 0.0, 0.0, xs=xs)
    _, p2 = joint_quadrature_pdf(rho, 1.0, 2.5, xs=xs)
    assert np.abs(p1 - p2).max() < 1e-13


def test_pdf_rejects_invalid_state():
    d = 3
    m = np.zeros((d * d, d * d), dtype=complex)
    m[0, 0] = 1.4
    m[4, 4] = -0.4  # negative population: not a density operator
    bad = BipartiteDensity(d, d, m)
    with pytest.raises(ValueError):
        joint_quadrature_pdf(bad, 0.0, 0.0)


def test_kernel_value_at_origin():
    assert witness_kernel(0.0, 0.0, 0.0, 0.0) == pytest.approx(-4.0, abs=1e-12)


def test_kernel_depends_on_phase_sum_only():
    rng = np.random.default_rng(41)
    for _ in range(100):
        x1, x2 = rng.normal(size=2)
        phi1, phi2 = rng.uniform(0, np.pi, size=2)
        # canonical reshuffle (phi1 + phi2, 0) follows the identical floating
        # path through cos(phi1 + phi2), so equality is exact
        assert witness_kernel(x1, phi1, x2, phi2) == witness_kernel(
            x1, phi1 + phi2, x2, 0.0)
        delta = rng.uniform(-1, 1)
        shifted = witness_kernel(x1, phi1 + delta, x2, phi2 - delta)
        assert shifted == pytest.approx(witness_kernel(x1, phi1, x2, phi2),
                                        abs=2e-13)


def test_kernel_cosine_term_vanishes_at_right_angle():
    x1, x2 = 0.7, -0.4
    val = witness_kernel(x1, np.pi / 4, x2, np.pi / 4)
    a00, _, a11 = pattern_functions(x1)
    b00, _, b11 = pattern_functions(x2)
    expected = 0.5 * (a00 * b11 + a11 * b00)
    assert val == pytest.approx(float(expected), abs=1e-12)


def test_sampling_is_deterministic_and_worker_independent():
    rho = twb_state(0.5, FockTruncation.for_twb(0.5))
    a = sample_homodyne(rho, 3000, seed=99)
    b = sample_homodyne(rho, 3000, seed=99)
    c = sample_homodyne(rho, 3000, seed=99, workers=4)
    for lhs, rhs in [(a, b), (a, c)]:
        assert np.array_equal(lhs.phi1, rhs.phi1)
        assert np.array_equal(lhs.x1, rhs.x1)
        assert np.array_equal(lhs.phi2, rhs.phi2)
        assert np.array_equal(lhs.x2, rhs.x2)
    d = sample_homodyne(rho, 3000, seed=100)
    assert not np.array_equal(a.x1, d.x1)


def test_sampling_block_prefix_property():
    rho = twb_state(0.3, FockTruncation.for_twb(0.3))
    small = sample_homodyne(rho, 1000, seed=5)
    large = sample_homodyne(rho, 2500, seed=5)
    assert np.array_equal(small.x2, large.x2[:1000])


def test_sampled_phases_uniform():
    rho = vacuum_state()
    batch = sample_homodyne(rho, 100_000, seed=17)
    assert batch.phi1.min() >= 0.0 and batch.phi1.max() < np.pi
    for phases in (batch.phi1, batch.phi2):
        counts, _ = np.histogram(phases, bins=16, range=(0, np.pi))
        stat = np.sum((counts - len(phases) / 16) ** 2 / (len(phases) / 16))
        assert stat < chi2.ppf(0.99, 15)


def test_vacuum_quadrature_variance():
    batch = sample_homodyne(vacuum_state(), 100_000, seed=23)
    var = np.var(batch.x1)
    se = 0.25 * math.sqrt(2.0 / (len(batch) - 1))
    assert abs(var - 0.25) < 5 * se


def test_vacuum_estimate_unbiased():
    est = mc_estimate_witness(sample_homodyne(vacuum_state(), 100_000, seed=29))
    assert abs(est.mean) <= 3.5 * est.std_error
    assert est.std_error > 0


def test_twb_estimate_unbiased():
    x = 0.5
    tr = FockTruncation.for_twb(x)
    rho = twb_state(x, tr)
    est = mc_estimate_witness(sample_homodyne(rho, 100_000, seed=31))
    direct = evaluate_witness(cv_witness(tr), rho)
    assert abs(est.mean - direct) <= 3.5 * est.std_error


def test_phase_noisy_estimate_unbiased():
    x, gt = 0.5, 1.0
    tr = FockTruncation.for_twb(x)
    rho = twin_beam_blocks(x, tr, gt).density()
    est = mc_estimate_witness(sample_homodyne(rho, 100_000, seed=37))
    direct = evaluate_witness(cv_witness(tr), rho)
    assert abs(est.mean - direct) <= 3.5 * est.std_error


def test_gauss_noisy_estimate_unbiased():
    x, kappa = 0.5, 0.4
    tr = noise_truncation(x, kappa)
    rho = apply_gaussian_noise(twb_state(x, FockTruncation.for_twb(x)),
                               kappa, tr)
    est = mc_estimate_witness(sample_homodyne(rho, 100_000, seed=43))
    direct = evaluate_witness(cv_witness(tr), rho)
    assert abs(est.mean - direct) <= 3.5 * est.std_error


def test_complex_block_path():
    # difference-block support with genuinely complex coherences: a twin-beam
    # style superposition with a nontrivial relative phase
    d = 4
    vec = np.zeros(d * d, dtype=complex)
    for n, amp in enumerate((0.8, 0.5 * np.exp(1j * 0.9), 0.33)):
        vec[n * d + n] = amp
    vec /= np.linalg.norm(vec)
    rho = BipartiteDensity(d, d, np.outer(vec, vec.conj()))
    validate(rho)
    est = mc_estimate_witness(sample_homodyne(rho, 40_000, seed=61))
    direct = evaluate_witness(cv_witness(FockTruncation(d - 1)), rho)
    assert abs(est.mean - direct) <= 4 * est.std_error


def test_general_fallback_path_complex_state():
    # a state with coherences off the index-difference blocks takes its pair
    # weights from the mode-2 conditional operator C(s)
    d = 3
    vec = np.zeros(d * d, dtype=complex)
    vec[0] = 1.0
    vec[d + 1] = np.exp(1j * np.pi / 5)
    vec[1] = 0.5
    vec /= np.linalg.norm(vec)
    rho = BipartiteDensity(d, d, np.outer(vec, vec.conj()))
    validate(rho)
    est = mc_estimate_witness(sample_homodyne(rho, 40_000, seed=47))
    direct = evaluate_witness(cv_witness(FockTruncation(d - 1)), rho)
    assert abs(est.mean - direct) <= 4 * est.std_error


def test_std_error_scaling():
    rho = twb_state(0.5, FockTruncation.for_twb(0.5))
    errs = []
    for n in (2000, 20_000):
        est = mc_estimate_witness(sample_homodyne(rho, n, seed=53))
        errs.append(est.std_error)
    ratio = errs[0] / errs[1]
    assert ratio == pytest.approx(math.sqrt(10), rel=0.2)


def test_batch_validation():
    good = np.zeros(4)
    with pytest.raises(ValueError):
        HomodyneBatch(phi1=np.array([]), x1=np.array([]), phi2=np.array([]),
                      x2=np.array([]))
    with pytest.raises(ValueError):
        HomodyneBatch(phi1=np.array([3.5]), x1=np.array([0.0]),
                      phi2=np.array([0.1]), x2=np.array([0.0]))
    with pytest.raises(ValueError):
        HomodyneBatch(phi1=good, x1=good, phi2=good, x2=np.zeros(3))
    bad_phase = np.array([0.1, np.nan, 0.2, 0.3])
    for phi1, phi2 in [(bad_phase, good), (good, bad_phase)]:
        with pytest.raises(ValueError, match="phases"):
            HomodyneBatch(phi1=phi1, x1=good, phi2=phi2, x2=good)
    for bad in (np.nan, np.inf, -np.inf):
        bad_x = np.array([0.0, bad, 0.0, 0.0])
        for x1, x2 in [(bad_x, good), (good, bad_x)]:
            with pytest.raises(ValueError, match="finite"):
                HomodyneBatch(phi1=good, x1=x1, phi2=good, x2=x2)


def test_sample_count_guard():
    with pytest.raises(ValueError):
        sample_homodyne(vacuum_state(), 0, seed=1)


@pytest.mark.parametrize("n, seed, workers, match", [
    (0, 1, 1, "sample count"), (-3, 1, 1, "sample count"),
    (10, -1, 1, "seed"), (10, 1, 0, "workers")])
def test_sampler_checks_its_counts_before_the_tables(n, seed, workers, match,
                                                     monkeypatch):
    # a bad count raises its own error before the table build and the
    # eigenvalue check run
    def no_build(rho):
        raise AssertionError("the tables were built")

    monkeypatch.setattr(tomography._SamplerTables, "build", no_build)
    with pytest.raises(ValueError, match=match):
        sample_homodyne(twb_state(0.3, FockTruncation(3)), n, seed=seed,
                        workers=workers)


def test_batch_csv_roundtrip(tmp_path):
    rho = twb_state(0.3, FockTruncation.for_twb(0.3))
    batch = sample_homodyne(rho, 500, seed=59)
    path = tmp_path / "batch.csv"
    batch_to_csv(path, [batch])
    data = batch_rows_from_csv(path)
    assert np.array_equal(data["phi1"], batch.phi1)
    assert np.array_equal(data["x1"], batch.x1)
    assert np.array_equal(data["phi2"], batch.phi2)
    assert np.array_equal(data["x2"], batch.x2)


def _hermitian_pair_state(d, i, k, population, coherence):
    """population (|i><i| + |k><k|) + coherence (|i><k| + |k><i|) on the flat
    two-mode index; not positive once coherence exceeds population."""
    m = np.zeros((d * d, d * d), dtype=complex)
    m[i, i] = m[k, k] = population
    m[i, k] = m[k, i] = coherence
    return BipartiteDensity(d, d, m)


@pytest.mark.parametrize("i, k, block", [(0, 4, True), (0, 1, False)],
                         ids=["blocks", "general"])
def test_sampler_rejects_negative_conditional_density(i, k, block):
    # |00><11| keeps the index-difference support, |00><01| breaks it; both
    # states have a valid reduced state, so only the conditional stage's
    # negativity check can catch them
    bad = _hermitian_pair_state(3, i, k, 0.5, 2.0)
    assert (difference_blocks(bad) is not None) is block
    assert _SamplerTables.build(bad).conserving is block
    with pytest.raises(ValueError, match="conditional quadrature density"):
        sample_homodyne(bad, 1000, seed=3)


def test_sampler_rejects_unequal_mode_dimensions():
    # both modes are sampled on one grid with one table of d levels
    rho = BipartiteDensity(2, 3, np.eye(6) / 6)
    with pytest.raises(ValueError, match="dim_a=2 and dim_b=3"):
        sample_homodyne(rho, 10, 1)


def complex_block_state():
    """The state of test_complex_block_path."""
    d = 4
    vec = np.zeros(d * d, dtype=complex)
    for n, amp in enumerate((0.8, 0.5 * np.exp(1j * 0.9), 0.33)):
        vec[n * d + n] = amp
    vec /= np.linalg.norm(vec)
    return BipartiteDensity(d, d, np.outer(vec, vec.conj()))


def asymmetric_block_state():
    """Blocks with B_0 != B_0^T and complex coherences: the conjugate half
    must take B_j.conj() at the same (i, l), which the symmetric twin beams
    cannot tell from B_j.conj().T."""
    return DifferenceBlocks((
        np.array([[0.4, 0.1, 0.05], [0.2, 0.1, 0.0], [0.03, 0.02, 0.1]]),
        np.array([[0.1 + 0.05j, 0.02 - 0.01j], [0.03j, 0.01]]),
        np.array([[0.02 - 0.01j]])))


@pytest.mark.parametrize("make_state", [
    lambda: rotated_twb(0.5, 1.1), complex_block_state,
    lambda: asymmetric_block_state().density()],
    ids=["rotated-twb", "complex-block-path", "asymmetric"])
def test_difference_blocks_round_trip_bitwise(make_state):
    # the blocks hold the lower triangle (n >= n'), which comes back
    # bitwise; the upper one is its conjugate, so it can differ from rho
    # only by rho's own Hermiticity defect (nonzero for the rotated twin
    # beam, whose complex products round asymmetrically)
    rho = make_state()
    state = difference_blocks(rho)
    dense = state.density().matrix
    assert np.array_equal(np.tril(dense), np.tril(rho.matrix))
    defect = np.abs(rho.matrix - rho.matrix.conj().T).max()
    assert np.abs(dense - rho.matrix).max() <= defect
    assert state.blocks[0].sum().real == pytest.approx(
        np.trace(rho.matrix).real, abs=1e-15)


def test_difference_blocks_layout():
    state = asymmetric_block_state()
    m = state.density().matrix
    d = state.dim
    assert np.array_equal(m, m.conj().T)
    for j, block in enumerate(state.blocks):
        for i in range(d - j):
            for l in range(d - j):
                assert m[(i + j) * d + l + j, i * d + l] == block[i, l]
    for got, want in zip(difference_blocks(state.density()).blocks,
                         state.blocks):
        assert np.array_equal(got, want)
    assert difference_blocks(twb_state(0.5, FockTruncation(6))).blocks[1] \
        .dtype == np.float64


def test_difference_blocks_need_the_support():
    psi = random_state_operator(3, np.random.default_rng(5))
    for rho in (general_d3_state(), depolarized_state(psi, 0.8)):
        assert difference_blocks(rho) is None


@pytest.mark.parametrize("make_state", [
    general_d3_state, lambda: twb_state(0.5, FockTruncation.for_twb(0.5))],
    ids=["general-d3", "twb"])
def test_sampling_prefix_ends_mid_chunk(make_state):
    rho = make_state()
    small = sample_homodyne(rho, 3000, seed=7)
    large = sample_homodyne(rho, 5000, seed=7)
    for name in ("phi1", "x1", "phi2", "x2"):
        assert np.array_equal(getattr(small, name),
                              getattr(large, name)[:3000])


@pytest.mark.parametrize("make_state", [
    general_d3_state, lambda: twb_state(0.5, FockTruncation.for_twb(0.5))],
    ids=["general-d3", "twb"])
def test_two_block_sampling_worker_independent(make_state):
    rho = make_state()
    n = BLOCK_SIZE + 1000
    serial = sample_homodyne(rho, n, seed=11, workers=1)
    other = sample_homodyne(rho, n, seed=11, workers=2)
    for name in ("phi1", "x1", "phi2", "x2"):
        assert np.array_equal(getattr(serial, name), getattr(other, name))


@pytest.mark.parametrize("rho", [general_d3_state(), rotated_twb(0.5, 1.1)],
                         ids=["general-d3", "rotated-twb"])
def test_table_node_density_matches_joint_pdf(rho):
    tables = _SamplerTables.build(rho)
    nodes = tables.nodes
    rng = np.random.default_rng(13)
    index = rng.integers(0, nodes.size, size=6)
    phi1 = rng.uniform(0, np.pi, size=6)
    phi2 = rng.uniform(0, np.pi, size=6)
    rows = conditional_rows(rho, tables, nodes[index], phi1, phi2)
    density = rows[:, :nodes.size]
    cdf, total = rows[:, nodes.size:-1], rows[:, -1:]
    for s in range(6):
        _, pdf = joint_quadrature_pdf(rho, phi1[s], phi2[s], xs=nodes)
        assert np.abs(density[s] - pdf[index[s]]).max() < 1e-12
    # the CDF columns are the cumulative Simpson masses of the density rows,
    # held as minus the mass still to come over the upper half of the cells
    simpson = tables.delta / 3.0 * (density[:, 0:-2:2]
                                    + 4.0 * density[:, 1:-1:2]
                                    + density[:, 2::2])
    half = simpson.shape[1] // 2
    from_left = np.hstack([cdf[:, :half], total + cdf[:, half:]])
    assert np.abs(from_left - np.cumsum(simpson, axis=1)).max() < 1e-12
    assert np.abs(total[:, 0] - simpson.sum(axis=1)).max() < 1e-12


def test_inverse_cdf_resolves_both_tails():
    # both densities are even in the sampled quadrature, so the inverse CDF
    # is odd: x(1 - u) = -x(u), with 1 - u exact for these u.  Each tail is
    # accumulated from its own end, so this holds to rounding even where the
    # tail mass is 1e-9 of the total
    u = np.array([2.0 ** -30, 2.0 ** -23, 2.0 ** -13, 0.375])
    vacuum = _SamplerTables.build(vacuum_state())
    shared = marginal_rows(vacuum_state(), vacuum, np.zeros(4))
    twin = twb_state(0.5, FockTruncation.for_twb(0.5))
    twb = _SamplerTables.build(twin)
    # at x1 = 0 only even Fock levels contribute to the conditional
    per_sample = conditional_rows(twin, twb, np.zeros(4), np.full(4, 0.3),
                                  np.full(4, 1.2))
    for tables, rows in [(vacuum, shared), (twb, per_sample)]:
        low = draw(tables, rows, u)
        high = draw(tables, rows, 1.0 - u)
        assert low.min() < -2.0
        assert np.abs(low + high).max() < 1e-12


# -- the exact Gaussian sampler of the twin-beam families ---------------------

TWIN_X = 0.5
TWIN_FAMILIES = [({}, "twb"), ({"gamma_t": 1.0}, "phase"),
                 ({"kappa": 0.4}, "gauss")]


def twin_law_batch(x, n, seed, gamma_t=0.0, kappa=0.0, workers=1):
    """The twin beam's law drawn into one batch by the oracle's block loop,
    whose draws are full-length arrays and whose outcomes are the
    out-of-place expression, after the arguments are checked as the
    stream checks them and the worker count as ``sample_homodyne`` does."""
    tomography._twin_beam_law(x, gamma_t, kappa)
    tomography._check_counts(n, seed, workers)
    return HomodyneBatch(*full_draw_blocks(
        n, seed, twin_beam_draw(gamma_t), twin_beam_quadratures(x, kappa),
        tomography._KERNEL_CHUNK))


def twin_family_state(gamma_t=0.0, kappa=0.0):
    base = FockTruncation.for_twb(TWIN_X)
    if kappa:
        return apply_gaussian_noise(twb_state(TWIN_X, base), kappa,
                                    noise_truncation(TWIN_X, kappa))
    return twin_beam_blocks(TWIN_X, base, gamma_t).density()


def twin_closed_form(gamma_t=0.0, kappa=0.0):
    if kappa:
        return gauss_witness_expectation(TWIN_X, kappa)
    return phase_witness_expectation(TWIN_X, gamma_t)


CHI_EDGES = np.array([-5.0, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0,
                      5.0])
CHI_STEP = 0.125


def bin_probabilities(rho, phase_nodes=16):
    """Probability of each (x1, x2) bin of CHI_EDGES under the Fock-space
    density, averaged over phi1, phi2 uniform on [0, pi).

    These states depend on the phases through cos(phi1 + phi2) only, and
    phi1 + phi2 folded onto [0, pi] has density 2 s / pi^2, so a
    Gauss-Legendre rule in s averages them.  Each bin is integrated with
    Simpson's rule on nodes CHI_STEP apart.
    """
    xs = np.arange(CHI_EDGES[0], CHI_EDGES[-1] + CHI_STEP / 2, CHI_STEP)
    weights = np.zeros((CHI_EDGES.size - 1, xs.size))
    for b, (lo, hi) in enumerate(zip(CHI_EDGES[:-1], CHI_EDGES[1:])):
        i, j = np.searchsorted(xs, [lo, hi])
        simpson = np.ones(j - i + 1)
        simpson[1:-1:2] = 4.0
        simpson[2:-1:2] = 2.0
        weights[b, i:j + 1] = CHI_STEP / 3.0 * simpson
    t, w = np.polynomial.legendre.leggauss(phase_nodes)
    s = 0.5 * math.pi * (t + 1.0)
    w = w * s / math.pi
    pdf = sum(wk * joint_quadrature_pdf(rho, sk, 0.0, xs=xs)[1]
              for sk, wk in zip(s, w))
    return weights @ pdf @ weights.T


@pytest.mark.parametrize("noise", [f[0] for f in TWIN_FAMILIES],
                         ids=[f[1] for f in TWIN_FAMILIES])
def test_twin_beam_sampler_matches_fock_density(noise):
    n = 200_000
    batch = twin_beam_batch(TWIN_X, n, seed=1, **noise)
    counts, _, _ = np.histogram2d(batch.x1, batch.x2,
                                  bins=[CHI_EDGES, CHI_EDGES])
    binned = n * bin_probabilities(twin_family_state(**noise))
    assert binned.sum() == pytest.approx(n, rel=1e-8)
    # bins expecting fewer than 5 counts are pooled into one
    keep = binned >= 5.0
    observed, expected = counts[keep], binned[keep]
    if not keep.all():
        observed = np.append(observed, counts[~keep].sum())
        expected = np.append(expected, binned[~keep].sum())
    stat = np.sum((observed - expected) ** 2 / expected)
    assert stat < chi2.ppf(0.999, observed.size - 1)


@pytest.mark.parametrize("noise", [f[0] for f in TWIN_FAMILIES]
                         + [{"gamma_t": math.inf}],
                         ids=[f[1] for f in TWIN_FAMILIES] + ["dephased"])
def test_twin_beam_estimate_matches_closed_form(noise):
    est = mc_estimate_witness(twin_beam_batch(TWIN_X, 1_000_000, seed=2,
                                              **noise))
    assert est.std_error > 0
    assert abs(est.mean - twin_closed_form(**noise)) <= 4 * est.std_error


def test_twin_beam_sampler_worker_independent_and_prefix():
    n = 2 * BLOCK_SIZE + 1000
    for noise in ({"gamma_t": 0.7, "kappa": 0.1}, {"gamma_t": math.inf}):
        serial = twin_beam_batch(TWIN_X, n, seed=11, **noise)
        short = twin_beam_batch(TWIN_X, BLOCK_SIZE + 333, seed=11, **noise)
        # three blocks drawn into one batch at two and at three workers
        for workers in (2, 3):
            other = twin_law_batch(TWIN_X, n, seed=11, workers=workers,
                                   **noise)
            for name in ("phi1", "x1", "phi2", "x2"):
                assert np.array_equal(getattr(serial, name),
                                      getattr(other, name))
        for name in ("phi1", "x1", "phi2", "x2"):
            assert np.array_equal(getattr(short, name),
                                  getattr(serial, name)[:BLOCK_SIZE + 333])


def test_twin_beam_sampler_edges():
    # x = 0 is the vacuum: uncorrelated quadratures of variance 1/4
    vacuum = twin_beam_batch(0.0, 100_000, seed=19)
    se = 0.25 * math.sqrt(2.0 / (len(vacuum) - 1))
    assert abs(np.var(vacuum.x1) - 0.25) < 5 * se
    assert abs(np.corrcoef(vacuum.x1, vacuum.x2)[0, 1]) < 5 / math.sqrt(1e5)
    # a single sample, the fully dephased law, and a huge finite gamma_t
    for gamma_t in (0.0, math.inf, 1e308):
        one = twin_beam_batch(TWIN_X, 1, seed=5, gamma_t=gamma_t)
        assert len(one) == 1 and np.isfinite(one.x2).all()


@pytest.mark.parametrize("kwargs, match", [
    ({"gamma_t": math.nan}, "gamma_t"),
    ({"gamma_t": -1.0}, "gamma_t"),
    ({"kappa": math.nan}, "kappa"),
    ({"kappa": math.inf}, "kappa"),
    ({"kappa": -math.inf}, "kappa"),
    ({"x": 1.0}, "outside"),
    ({"x": -0.1}, "outside"),
    ({"x": math.nan}, "outside"),
    ({"n": 0}, "sample count"),
    ({"workers": 0}, "workers"),
])
def test_twin_beam_sampler_rejects_bad_inputs(kwargs, match):
    args = {"x": TWIN_X, "n": 10, "seed": 1, **kwargs}
    # the stream takes no worker count; the block loop checks it
    samplers = ((twin_law_batch,) if "workers" in kwargs
                else (twin_law_batch, stream_twin_beam))
    for sampler in samplers:
        with pytest.raises(ValueError, match=match):
            sampler(**args)


# -- bounded working memory ---------------------------------------------------

def one_shot_kernel(x1, phi1, x2, phi2):
    """The witness kernel as one whole-array expression."""
    phase = np.cos(phi1 + phi2)
    a00, a01, a11 = pattern_functions(x1)
    b00, b01, b11 = pattern_functions(x2)
    return 0.5 * (a00 * b11 + a11 * b00 - 2.0 * phase * a01 * b01)


@pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 16385])
def test_chunked_kernel_is_the_one_shot_expression(n):
    # the chunks are 8192 points; far tails take the series branch
    rng = np.random.default_rng(n)
    x1, x2 = 2.0 * rng.standard_normal((2, n))
    x1[::97] *= 20.0
    phi1, phi2 = math.pi * rng.random((2, n))
    values = witness_kernel(x1, phi1, x2, phi2)
    assert values.shape == (n,)
    assert np.array_equal(values, one_shot_kernel(x1, phi1, x2, phi2))


def test_estimate_keeps_the_bits_of_mean_and_std():
    batch = twin_beam_batch(TWIN_X, 20_000, seed=3, gamma_t=0.5)
    values = one_shot_kernel(batch.x1, batch.phi1, batch.x2, batch.phi2)
    est = mc_estimate_witness(batch)
    assert est.mean == float(np.mean(values))
    assert est.std_error == float(np.std(values, ddof=1)
                                  / math.sqrt(values.size))


def test_one_sample_estimate_has_no_standard_error():
    est = mc_estimate_witness(twin_beam_batch(TWIN_X, 1, seed=3))
    assert est.std_error is None and est.n_samples == 1
    assert math.isfinite(est.mean)


def test_estimate_kurtosis_is_the_fourth_over_the_squared_second_moment():
    batch = twin_beam_batch(TWIN_X, 2 ** 17, seed=3)
    deviations = one_shot_kernel(batch.x1, batch.phi1, batch.x2, batch.phi2)
    deviations -= np.mean(deviations)
    expected = np.mean(deviations ** 4) / np.mean(deviations ** 2) ** 2
    kurtosis = mc_estimate_witness(batch).kurtosis
    assert kurtosis == pytest.approx(expected, rel=1e-12)
    assert 2.0 < kurtosis < 4.0


def test_estimate_kurtosis_near_x_one_is_of_the_order_of_n():
    # heavy tails: a few samples carry the spread, so z_score means little
    n = 100_000
    est = mc_estimate_witness(twin_beam_batch(1.0 - 1e-8, n, seed=3))
    assert est.kurtosis > n / 10


def test_estimate_kurtosis_is_none_without_spread(monkeypatch):
    assert mc_estimate_witness(twin_beam_batch(TWIN_X, 1, seed=3)).kurtosis \
        is None
    # the mean of three 0.1 rounds up, so the deviations are equal, not zero
    monkeypatch.setattr(tomography, "witness_kernel",
                        lambda *args: np.full(3, 0.1))
    est = mc_estimate_witness(twin_beam_batch(TWIN_X, 3, seed=3))
    assert est.mean != 0.1 and est.kurtosis is None


def traced_peak(run):
    """Peak traced allocation, in bytes, of one call of run()."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sampler", [
    lambda n: sample_homodyne(twb_state(0.3, FockTruncation(3)), n, seed=5)],
    ids=["homodyne"])
def test_sampler_memory_is_the_batch_plus_a_constant(sampler):
    # full blocks draw into the 32 n-byte batch itself: beyond it the
    # sampler holds one chunk's temporaries, whatever n is; the first call
    # is left untraced
    sampler(1000)
    extra = [traced_peak(lambda: sampler(n)) - 32 * n
             for n in (2 ** 17, 2 ** 18)]
    assert max(extra) < 0.75 * 2 ** 20, extra
    assert abs(extra[1] - extra[0]) < 0.5e6, extra


SHORT_BLOCK_STATES = {
    "rotated-twb": lambda: rotated_twb(0.5, 1.1),
    "depolarized-d4": lambda: depolarized_state(
        random_state_operator(4, np.random.default_rng(7)), 0.8),
    "depolarized-d8": lambda: depolarized_state(
        random_state_operator(8, np.random.default_rng(7)), 0.8),
    "twb-x0.7": lambda: twb_state(0.7, FockTruncation.for_twb(0.7)),
}


@pytest.mark.parametrize("state, n, bound_mib", [
    ("rotated-twb", 2 ** 15, 2.25), ("depolarized-d4", 2 ** 14, 1.5),
    ("twin-beam", 40_000, 1.0), ("depolarized-d8", 2 ** 13, 4.0),
    ("twb-x0.7", 2 ** 13, 3.5)])
def test_short_block_memory_is_the_batch_plus_a_constant(state, n,
                                                         bound_mib):
    # a short block draws into its slice of the batch, skipping the words of
    # the uniforms it does not use, and reads gathered table rows in
    # cache-sized slices; the twin beam's stream, copied into a batch, holds
    # one row of the normals z1 and one piece; sample_homodyne forms its
    # conditional features one sample block at a time, within a fixed byte
    # budget, so its peak no longer grows with the map's rows (289 at
    # d = 17, 1016 for a general state at d = 8 and 561 for the twin beam
    # at d = 33, whose features of a whole chunk took 2.26, 7.9 and
    # 4.4 MiB)
    if state == "twin-beam":
        def sampler(m):
            return twin_beam_batch(TWIN_X, m, seed=5)
    else:
        rho = SHORT_BLOCK_STATES[state]()

        def sampler(m):
            return sample_homodyne(rho, m, seed=5)
    sampler(1000)
    extra = traced_peak(lambda: sampler(n)) - 32 * n
    assert extra < bound_mib * 2 ** 20, extra


def test_streamed_twin_beam_memory_is_a_constant():
    # the stream holds one block-length row of the normals z1 (0.5 MiB),
    # one piece of 8192 samples with its phase-noise draws (0.25 MiB) and a
    # piece's temporaries, whatever n is, and never a block of samples
    def drain(n):
        for _ in stream_twin_beam(TWIN_X, n, seed=5, gamma_t=1.0):
            pass

    drain(1000)
    peaks = [traced_peak(lambda: drain(n)) for n in (2 ** 17, 2 ** 18)]
    assert max(peaks) < 1.0 * 2 ** 20, peaks
    assert abs(peaks[1] - peaks[0]) < 0.1e6, peaks


def test_estimate_memory_is_the_values_plus_a_constant():
    extra = []
    for n in (2 ** 17, 2 ** 18):
        batch = twin_beam_batch(TWIN_X, n, seed=6)
        extra.append(traced_peak(lambda: mc_estimate_witness(batch)) - 8 * n)
    assert max(extra) < 1.6e6 and abs(extra[1] - extra[0]) < 0.5e6, extra


def assert_same_batch(batch, expected):
    for name in ("phi1", "x1", "phi2", "x2"):
        assert np.array_equal(getattr(batch, name), getattr(expected, name))


ORACLE_SIZES = [1, 1000, BLOCK_SIZE, 2 * BLOCK_SIZE + 1017]


@pytest.mark.parametrize("gamma_t, kappa", [
    (0.0, 0.0), (0.7, 0.0), (math.inf, 0.0), (0.3, 0.2), (0.0, 0.2),
    (0.7, 0.2), (math.inf, 0.2)],
    ids=["twb", "phase", "dephased", "phase-gauss", "gauss",
         "phase-0.7-gauss", "dephased-gauss"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_twin_beam_draws_into_the_batch_with_the_full_draw_bits(
        n, workers, gamma_t, kappa):
    # the oracle draws at full length and forms the outcomes out of place,
    # so this pins the stream's draws, each piece drawn where it lies in
    # its block's stream, and the in-place formula
    expected = HomodyneBatch(*full_draw_blocks(
        n, 13, twin_beam_draw(gamma_t), twin_beam_quadratures(TWIN_X, kappa),
        tomography._KERNEL_CHUNK))
    assert_same_batch(twin_law_batch(TWIN_X, n, seed=13, gamma_t=gamma_t,
                                     kappa=kappa, workers=workers), expected)
    assert_same_batch(twin_beam_batch(TWIN_X, n, seed=13, gamma_t=gamma_t,
                                      kappa=kappa), expected)


@pytest.mark.parametrize("gamma_t, kappa", [
    (0.0, 0.0), (0.7, 0.0), (math.inf, 0.0), (0.0, 0.2), (0.7, 0.2),
    (math.inf, 0.2)],
    ids=["twb", "phase", "dephased", "gauss", "phase-gauss",
         "dephased-gauss"])
@pytest.mark.parametrize("n", [1, 8191, 8192, 8193, BLOCK_SIZE - 1,
                               BLOCK_SIZE + 1, 3 * BLOCK_SIZE + 1017])
def test_streamed_pieces_are_the_full_draw_batch(n, gamma_t, kappa):
    # the pieces, concatenated, are the oracle's batch bit for bit: phi1
    # and phi2 from generators moved ahead to their place, z1 held, z2 and
    # theta drawn piece by piece, and the short block's draws
    expected = full_draw_blocks(
        n, 13, twin_beam_draw(gamma_t), twin_beam_quadratures(TWIN_X, kappa),
        tomography._KERNEL_CHUNK)
    assert_same_batch(twin_beam_batch(TWIN_X, n, seed=13, gamma_t=gamma_t,
                                      kappa=kappa), HomodyneBatch(*expected))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_streamed_twin_beam_blocks_are_the_batch(n, workers):
    # drawn into one reused buffer, the pieces of at most 8192 samples keep
    # the bits of the slices of the batch drawn at any worker count
    batch = twin_law_batch(TWIN_X, n, seed=8, gamma_t=0.7, workers=workers)
    blocks = stream_twin_beam(TWIN_X, n, seed=8, gamma_t=0.7)
    start, buffers = 0, set()
    for block in blocks:
        assert 0 < len(block) <= tomography._KERNEL_CHUNK
        buffers.add((block.phi1.ctypes.data, block.phi2.ctypes.data,
                     block.x2.ctypes.data))
        for name in ("phi1", "x1", "phi2", "x2"):
            assert np.array_equal(getattr(block, name),
                                  getattr(batch, name)[start:start
                                                       + len(block)])
        start += len(block)
    assert start == n
    assert len(buffers) == 1


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_homodyne_draws_into_the_batch_with_the_full_draw_bits(
        monkeypatch, n, workers):
    rho = twb_state(0.3, FockTruncation(3))
    batch = sample_homodyne(rho, n, seed=14, workers=workers)
    monkeypatch.setattr(tomography, "_sample_blocks",
                        with_full_draws(homodyne_draw))
    assert_same_batch(batch, sample_homodyne(rho, n, seed=14,
                                             workers=workers))


@pytest.mark.parametrize("sampler", [
    lambda n, w: twin_law_batch(TWIN_X, n, seed=9, kappa=0.2, workers=w),
    lambda n, w: sample_homodyne(rotated_twb(0.5, 1.1), n, seed=9,
                                 workers=w)],
    ids=["twin-beam", "homodyne"])
def test_batch_rows_are_contiguous_and_three_blocks_worker_independent(
        sampler):
    n = 2 * BLOCK_SIZE + 1017
    serial = sampler(n, 1)
    other = sampler(n, 2)
    for name in ("phi1", "x1", "phi2", "x2"):
        row = getattr(other, name)
        assert row.dtype == np.float64 and row.flags.c_contiguous
        assert np.array_equal(getattr(serial, name), row)


def test_no_sampler_starts_a_thread(monkeypatch):
    # blocks are drawn on the calling thread whatever the worker count, with
    # the bits of a one-worker run
    n = 2 * BLOCK_SIZE + 1017
    rho = twb_state(0.3, FockTruncation(3))
    noise = {"gamma_t": 0.7, "kappa": 0.2}
    homodyne = sample_homodyne(rho, n, seed=21)
    twin = twin_beam_batch(TWIN_X, n, seed=21, **noise)

    def refuse(thread):
        raise AssertionError(f"a sampler started {thread}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert_same_batch(sample_homodyne(rho, n, seed=21, workers=4), homodyne)
    assert_same_batch(twin_law_batch(TWIN_X, n, seed=21, workers=3,
                                     **noise), twin)
    start = 0
    for block in stream_twin_beam(TWIN_X, n, seed=21, **noise):
        stop = start + len(block)
        assert_same_batch(block, HomodyneBatch(twin.phi1[start:stop],
                                               twin.x1[start:stop],
                                               twin.phi2[start:stop],
                                               twin.x2[start:stop]))
        start = stop
    assert start == n


@pytest.mark.parametrize("rho", [rotated_twb(0.5, 1.1), general_d3_state()],
                         ids=["rotated-twb", "general-d3"])
def test_shared_column_reads_are_the_gathered_reads(rho):
    # the total and the first probe are one column for every draw; reading
    # it once gives the bits of the per-row gather, and so do the draws
    tables = _SamplerTables.build(rho)
    rng = np.random.default_rng(17)
    n = 1000
    phi1, phi2 = math.pi * rng.random((2, n))
    u1, u2 = rng.random((2, n))
    x1 = tables.draw_marginal(phi1, u1)
    g = tables.nodes.size
    shared_columns = (g + g // 2, g + g // 4 - 1)
    reads = [(tables.pair_weights(x1, phi1, phi2), u2)]
    if tables.shared is None:
        reads.append((tables.marginal_weights(phi1), u1))
    assert len(reads) == 1 + (difference_blocks(rho) is None)
    for weights, u in reads:
        column = _weighted_columns(weights, tables.pairs)

        def gathered(k):
            return column(np.broadcast_to(k, (n,)))

        for k in shared_columns:
            assert np.array_equal(column(k), gathered(k))
        draws = [_sample_columns(c, u, tables.nodes, tables.delta)
                 for c in (column, gathered)]
        assert np.array_equal(draws[0], draws[1])


@pytest.mark.parametrize("count", [1, 1000, BLOCK_SIZE - 1])
def test_skipped_uniforms_leave_the_prefix_of_the_full_draws(count):
    # Generator.random takes one 64-bit word per double, so advancing the
    # bit generator past the unused words leaves it where the full-length
    # draw would; short blocks rely on this
    full = np.random.default_rng(23)
    expected = [full.random(BLOCK_SIZE) for _ in range(2)]
    rng = np.random.default_rng(23)
    for want in expected:
        out = np.empty(count)
        rng.random(out=out)
        rng.bit_generator.advance(BLOCK_SIZE - count)
        assert np.array_equal(out, want[:count])
    assert np.array_equal(rng.standard_normal(8), full.standard_normal(8))


@pytest.mark.parametrize("rows", [1, 991, 992, 993, 1000, 1024])
def test_sliced_column_reads_are_the_one_shot_reads(rows):
    # at d = 17 (33 table rows) a slice of gathered table rows holds 992 rows
    tables = _SamplerTables.build(rotated_twb(0.5, 1.1))
    assert tables.pairs.shape[0] == 33
    width = tables.pairs.shape[1]
    rng = np.random.default_rng(rows)
    x1 = 2.0 * rng.standard_normal(rows)
    phi1, phi2 = math.pi * rng.random((2, rows))
    weights = tables.pair_weights(x1, phi1, phi2)
    sliced = _weighted_columns(weights, tables.pairs)
    one_shot = one_shot_columns(weights, tables.pairs)
    for k in (rng.integers(0, width, rows), np.full(rows, width - 1),
              width // 2):
        assert np.array_equal(sliced(k), one_shot(k))
    u = rng.random(rows)
    draws = [_sample_columns(c, u, tables.nodes, tables.delta)
             for c in (sliced, one_shot)]
    assert np.array_equal(draws[0], draws[1])
