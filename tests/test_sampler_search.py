"""The Fock-space sampler's table search against its formed density rows,
its cell inversion, and its per-state positivity check.

``sample_homodyne`` never forms a sample's density row V @ table: it reads
the few columns of its table of the 2d - 1 pair products of m - M = 0 and 1
that its binary search visits, V the pair weights reduced onto those rows by
the Hermite recurrence.  These tests check that recurrence, compare the
reduced rows and the search with the formed rows W @ table of both stages
on the table of all pair products (``sampler_oracle``, whose pair weights
come from rho alone), the marginal rows of that table with those of the
phase-coefficient rows of rho_A, the table CDFs of the twin beam with its
Gaussian law, the Newton inversion of a cell with the bisection oracle,
the conditional's weights, formed one sample block at a time, with the
chunk-wide form they replaced, and check the eigenvalue bound that
replaced the scan of each row's node densities.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cell_inversion_oracle import cell_integral, invert_cells_by_bisection
from gaussian_oracle import (
    twb_conditional_cdf,
    twb_covariance,
    twb_marginal_cdf,
)
from helpers import difference_blocks
from noise_channel_oracle import apply_gaussian_noise, noise_truncation
from sampler_oracle import (
    conditional_rows,
    draw,
    marginal_rows,
    one_buffer_pair_weights,
    phase_coefficient_rows,
)
from test_tomography import (
    _hermitian_pair_state,
    asymmetric_block_state,
    complex_block_state,
    general_d3_state,
    rotated_twb,
    vacuum_state,
)
from witnessforge import tomography
from witnessforge.cv import (
    FockTruncation,
    twb_state,
    twin_beam_blocks,
)
from witnessforge.specfn import oscillator_psi_table
from witnessforge.states import BipartiteDensity, random_state_operator
from witnessforge.tomography import (
    _invert_cells,
    _SamplerTables,
    sample_homodyne,
)
from witnessforge.witness_finite import depolarized_state

EDGE_U = np.array([2.0 ** -30, 1.0 - 2.0 ** -30])


def draw_inputs(tables, n, seed):
    """x1 drawn from the marginal as the sampler draws it, phases, and
    uniforms that include both extremes."""
    rng = np.random.default_rng(seed)
    phi1, phi2 = rng.uniform(0, math.pi, (2, n))
    x1 = tables.draw_marginal(phi1, rng.random(n))
    u = np.concatenate([EDGE_U, rng.random(n - 2)])
    return x1, phi1, phi2, u


BACKWARD = 1e-13


def assert_same_draw(tables, rows, searched, u):
    """searched equals the draw from the formed rows to 1e-12, or lies
    between the formed draws at u -+ BACKWARD.

    The two routes sum each CDF entry in another order.  Where the density
    at a draw is small against the terms of that sum, as deep in a tail,
    the rounding moves the draw by more than 1e-12, but never by more than
    a change of BACKWARD (a fraction of the total mass) in u.
    """
    formed = draw(tables, rows, u)
    close = np.abs(searched - formed) <= 1e-12
    low = draw(tables, rows, u - BACKWARD) - 1e-12
    high = draw(tables, rows, u + BACKWARD) + 1e-12
    assert np.all(close | ((low <= searched) & (searched <= high)))


def cdf_at(tables, rows, x):
    """The CDF of formed rows at x from their node densities alone: the
    Simpson masses of the cells before x plus the integral of the quadratic
    through the three nodes of x's cell."""
    nodes, delta = tables.nodes, tables.delta
    pdf = np.broadcast_to(rows, (x.size, rows.shape[-1]))[:, :nodes.size]
    masses = delta / 3.0 * (pdf[:, 0:-2:2] + 4.0 * pdf[:, 1:-1:2]
                            + pdf[:, 2::2])
    before = np.hstack([np.zeros((x.size, 1)), np.cumsum(masses, axis=1)])
    cell = np.clip(((x - nodes[0]) // (2.0 * delta)).astype(int), 0,
                   masses.shape[1] - 1)
    t = (x - nodes[2 * cell]) / delta
    take = np.arange(x.size)
    p0, p1, p2 = (pdf[take, 2 * cell + i] for i in range(3))
    inside = (p0 * (t ** 3 / 6 - 0.75 * t ** 2 + t)
              + p1 * (t ** 2 - t ** 3 / 3)
              + p2 * (t ** 3 / 6 - 0.25 * t ** 2))
    return before[take, cell] + delta * inside, before[:, -1]


def assert_search_matches_rows(rho, tables, x1, phi1, phi2, u):
    for rows, searched in [
            (conditional_rows(rho, tables, x1, phi1, phi2),
             tables.draw_conditional(x1, phi1, phi2, u)),
            (marginal_rows(rho, tables, phi1),
             tables.draw_marginal(phi1, u))]:
        assert_same_draw(tables, rows, searched, u)
        # and it inverts the CDF of the node densities
        cdf, total = cdf_at(tables, rows, searched)
        assert np.all(np.abs(cdf - u * total) <= 1e-12 * total)


def mixed_state():
    """0.7 of the d = 4 twin beam at x = 0.3 after the local phase
    e^{1.1 i a^dag a} plus 0.3 of a random pure state: its conditional has
    modes with b = 0 and modes with b != 0."""
    base = twb_state(0.3, FockTruncation(3))
    d = base.dim_a
    phases = np.kron(np.exp(1.1j * np.arange(d)), np.ones(d))
    rotated = base.matrix * np.outer(phases, phases.conj())
    rng = np.random.default_rng(19)
    vec = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    vec /= np.linalg.norm(vec)
    return BipartiteDensity(d, d, 0.7 * rotated
                            + 0.3 * np.outer(vec, vec.conj()))


def test_mixed_state_has_both_kinds_of_mode():
    tables = _SamplerTables.build(mixed_state())
    b = {b for _, blocks in tables.groups for _, b, _ in blocks}
    assert 0 in b and len(b) > 1 and not tables.conserving


@pytest.mark.parametrize("make_state", [
    general_d3_state, lambda: twb_state(0.5, FockTruncation.for_twb(0.5)),
    lambda: rotated_twb(0.5, 1.1), complex_block_state,
    lambda: asymmetric_block_state().density(), mixed_state],
    ids=["general-d3", "twb", "rotated-twb", "complex-block", "asymmetric",
         "mixed"])
def test_search_matches_formed_rows(make_state):
    rho = make_state()
    tables = _SamplerTables.build(rho)
    assert_search_matches_rows(rho, tables, *draw_inputs(tables, 300, 3))


def assert_marginal_matches_phase_coefficient_rows(rho, tables, phi1):
    # the marginal as pair weights on the pair table against the marginal
    # as one row per phase coefficient of rho_A: the same density, summed
    # in another order
    oracle = phase_coefficient_rows(rho, tables, phi1)
    rows = marginal_rows(rho, tables, phi1)
    assert np.all(np.abs(rows - oracle) <= 1e-15 * oracle[:, -1:])


def test_general_d3_marginal_is_per_sample():
    # the marginal half of the comparison above is only a per-sample search
    # when the reduced state has coherences
    rho = general_d3_state()
    tables = _SamplerTables.build(rho)
    assert tables.shared is None
    assert_marginal_matches_phase_coefficient_rows(
        rho, tables, np.linspace(0.0, 3.1, 64))


@pytest.mark.parametrize("make_state, shared", [
    (vacuum_state, True),
    (lambda: twb_state(0.5, FockTruncation.for_twb(0.5)), True),
    (lambda: rotated_twb(0.5, 1.1), True),
    (lambda: twin_beam_blocks(0.5, FockTruncation.for_twb(0.5),
                              math.inf).density(), True),
    (general_d3_state, False),
    (lambda: depolarized_state(
        random_state_operator(3, np.random.default_rng(23)), 0.8), False)],
    ids=["vacuum", "twb", "rotated-twb", "dephased", "general-d3",
         "depolarized-d3"])
def test_marginal_row_is_shared_exactly_when_rho_a_is_diagonal(make_state,
                                                                shared):
    rho = make_state()
    reduced = rho.reduced(0)
    assert bool(np.all(reduced == np.diag(np.diag(reduced)))) is shared
    tables = _SamplerTables.build(rho)
    assert (tables.shared is not None) is shared
    if shared:
        # the phase weights of a diagonal rho_A are those of the j = 0
        # pairs at every phi1, so the per-sample rows are the shared row
        phi1 = np.linspace(0.0, 3.0, 7)
        per_sample = marginal_rows(rho, tables, phi1)
        assert np.abs(per_sample - tables.shared).max() \
            <= 1e-15 * tables.shared[-1]


@pytest.mark.parametrize("make_state", [
    general_d3_state, lambda: rotated_twb(0.5, 1.1)],
    ids=["general-d3", "rotated-twb"])
def test_sampler_forms_no_rows_and_no_complex_products(make_state,
                                                        monkeypatch):
    rho = make_state()
    expected = sample_homodyne(rho, 3000, seed=21)
    block_product = tomography._fixed_rows
    calls = []

    def real_block_product(a, b, out=None):
        # every matrix product is a real product of phase features with a
        # map, at most 2d - 1 columns wide
        assert not np.iscomplexobj(a) and not np.iscomplexobj(b)
        assert b.shape[1] <= 2 * rho.dim_a - 1
        calls.append(b.shape)
        return block_product(a, b, out)

    monkeypatch.setattr(tomography, "_fixed_rows", real_block_product)
    tracemalloc.start()
    try:
        batch = sample_homodyne(rho, 3000, seed=21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(batch.x1, expected.x1)
    assert np.array_equal(batch.x2, expected.x2)
    # the products went through the guard, so it checked them: per chunk,
    # the conditional's one product per sample block of its features, and
    # the marginal's one product when it weighs the table
    tables = _SamplerTables.build(rho)
    samples = tables.feature_buffer().shape[1]
    chunks = range(0, 3000, tomography._CHUNK)
    assert len(calls) == sum(
        -(-min(tomography._CHUNK, 3000 - start) // samples)
        + (tables.shared is None) for start in chunks)
    # no chunk of density rows as wide as the table was formed: with the
    # table build, the block of uniforms and the batch, the whole call
    # allocates less than one
    width = tables.pairs.shape[1]
    assert peak < tomography._CHUNK * width * 8


@pytest.mark.parametrize("make_state", [
    lambda: depolarized_state(
        random_state_operator(3, np.random.default_rng(7)), 0.8),
    lambda: depolarized_state(
        random_state_operator(4, np.random.default_rng(7)), 0.8),
    lambda: depolarized_state(
        random_state_operator(8, np.random.default_rng(7)), 0.8),
    lambda: rotated_twb(0.5, 1.1),
    lambda: twb_state(0.7, FockTruncation.for_twb(0.7))],
    ids=["depolarized-d3", "depolarized-d4", "depolarized-d8", "rotated-twb",
         "twb-x0.7"])
@pytest.mark.parametrize("n", [1, 1000, 1024, 3001])
def test_blocked_features_have_the_one_buffer_bits(make_state, n):
    # the features are formed and multiplied one sample block at a time;
    # each product with the map keeps its row count and each feature its
    # two operands, so the weights of every chunk keep the bits of the
    # chunk-wide buffer, at the sampler's block size and at the smallest
    tables = _SamplerTables.build(make_state())
    rng = np.random.default_rng(n)
    x1 = 2.0 * rng.standard_normal(n)
    phi1, phi2 = math.pi * rng.random((2, n))
    rows = tables.conditional.shape[0]
    buffers = [tables.feature_buffer(),
               np.empty((rows, tomography._block_rows(tables.conditional)))]
    assert 8 * buffers[0].size <= tomography._FEATURE_BYTES
    for start in range(0, n, tomography._CHUNK):
        chunk = [a[start:start + tomography._CHUNK] for a in (x1, phi1, phi2)]
        expected = one_buffer_pair_weights(tables, *chunk)
        for buffer in buffers:
            assert np.array_equal(tables.pair_weights(*chunk, buffer),
                                  expected)


@pytest.mark.parametrize("make_state", [
    general_d3_state, lambda: rotated_twb(0.5, 1.1)],
    ids=["general-d3", "rotated-twb"])
def test_one_sample_is_the_first_of_a_longer_run(make_state):
    # a 1-row chunk: x1 padded to the full chunk, a Newton inversion of one
    # cell
    rho = make_state()
    one = sample_homodyne(rho, 1, seed=29)
    longer = sample_homodyne(rho, 3000, seed=29)
    for name in ("phi1", "x1", "phi2", "x2"):
        assert np.array_equal(getattr(one, name), getattr(longer, name)[:1])


# -- the reduced table --------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 4, 17, 40])
def test_recurrence_rebuilds_every_pair_product(d):
    # every psi_m psi_M with m - M >= 2 is C times the products of
    # m - M = 0 and 1, on a grid well past every sampling window
    recurrence = tomography._pair_recurrence(d)
    assert recurrence.shape == (d * (d + 1) // 2 - (2 * d - 1), 2 * d - 1)
    assert np.all(np.abs(recurrence) <= 1.0)
    psi = oscillator_psi_table(d - 1, np.linspace(-9.0, 9.0, 3601))
    basis = np.vstack([psi * psi, psi[1:] * psi[:-1]])
    products = np.vstack([psi[j:] * psi[:d - j] for j in range(d)])
    miss = np.abs(recurrence @ basis - products[2 * d - 1:])
    assert miss.max(initial=0.0) <= 1e-15


def assert_reduced_rows_match_pair_rows(rho, tables, x1, phi1, phi2,
                                        elements=None):
    """The rows the sampler reads, its reduced weights times its table of
    2d - 1 rows, equal the formed rows of the pair table to 1e-14 of each
    row's total, in both stages."""
    stages = [(tables.pair_weights(x1, phi1, phi2),
               conditional_rows(rho, tables, x1, phi1, phi2, elements))]
    if tables.shared is None:
        stages.append((tables.marginal_weights(phi1),
                       marginal_rows(rho, tables, phi1)))
    for weights, rows in stages:
        assert weights.shape == (x1.size, 2 * tables.d - 1)
        assert np.all(np.abs(weights @ tables.pairs - rows)
                      <= 1e-14 * rows[:, -1:])


@pytest.mark.parametrize("make_state", [
    lambda: depolarized_state(
        random_state_operator(3, np.random.default_rng(7)), 0.8),
    lambda: depolarized_state(
        random_state_operator(4, np.random.default_rng(7)), 0.8),
    lambda: rotated_twb(0.5, 1.1),
    lambda: apply_gaussian_noise(twb_state(0.5, FockTruncation.for_twb(0.5)),
                                 0.4, noise_truncation(0.5, 0.4)),
    mixed_state],
    ids=["depolarized-d3", "depolarized-d4", "rotated-twb", "gauss-0.4",
         "mixed"])
def test_reduced_rows_match_pair_rows(make_state):
    rho = make_state()
    tables = _SamplerTables.build(rho)
    x1, phi1, phi2, _ = draw_inputs(tables, 200, 5)
    assert_reduced_rows_match_pair_rows(rho, tables, x1, phi1, phi2)


class TwinBeamBlocks:
    """What the table build reads of the twin beam at x, from its
    index-difference blocks: the mode dimensions, the reduced states,
    diagonal with the row sums of the populations B_0, and the elements
    R_j[k, l, M] = rho_{k(M+j), lM}, which are B_j[l, M] at k = l + j and
    0 elsewhere.  At x = 0.9 (d = 110) the dense state would take
    2.3 GB."""

    def __init__(self, x):
        self.blocks = twin_beam_blocks(x, FockTruncation.for_twb(x))
        self.dim_a = self.dim_b = self.blocks.dim

    def reduced(self, mode):
        return np.diag(self.blocks.blocks[0].sum(axis=1 - mode)
                       ).astype(complex)

    def elements(self, j):
        d = self.dim_a
        r = np.zeros((d, d, d - j), dtype=complex)
        low = np.arange(d - j)
        r[low + j, low] = self.blocks.blocks[j]
        return r


def test_reduced_rows_match_pair_rows_at_d_110(monkeypatch):
    # 219 table rows stand for 6105 pair products
    rho = TwinBeamBlocks(0.9)
    monkeypatch.setattr(tomography, "_conditional_elements",
                        lambda state, j: state.elements(j))
    tables = _SamplerTables.build(rho)
    assert tables.pairs.shape[0] == 219 and tables.shared is not None
    x1, phi1, phi2, _ = draw_inputs(tables, 200, 5)
    assert_reduced_rows_match_pair_rows(rho, tables, x1, phi1, phi2,
                                        rho.elements)


# -- the exact law ------------------------------------------------------------

def table_cdf(column):
    """The CDF at the cell ends over the total, read from the
    ``[density | cdf | total]`` rows through ``column`` as a draw reads
    them, one row per sample."""
    g = 2 * tomography.CELLS + 1
    half = tomography.CELLS // 2
    total = np.atleast_1d(column(g + tomography.CELLS))
    cdf = np.array([column(g + c) for c in range(tomography.CELLS)]).T
    cdf = np.atleast_2d(cdf)
    cdf[:, half:] += total[:, None]
    return cdf / total[:, None]


@pytest.mark.parametrize("x, bound", [(0.5, 2e-6), (0.7, 1.5e-5)])
def test_twin_beam_tables_follow_the_gaussian_law(x, bound):
    # The Kolmogorov distance between the table CDF and Phi, largest over
    # the cell ends, for the shared marginal row and for the conditionals
    # at x1 in {0, +-1, +-2.5} sigma and six phase sums.  Measured:
    # marginal 3.0e-10 and 4.4e-7, conditionals 1.37e-6 and 1.16e-5 (at
    # x1 = +-2.5 sigma) for x = 0.5 and 0.7, against the asserted 2e-6 and
    # 1.5e-5; the Simpson part is below 4e-8.  At x = 0.5 the rest is the
    # truncated state: the conditional distance stays 1.37e-6 for every
    # window half-width L from 4 to 7.  At x = 0.7 it is the window, which
    # quadrature_span sets to L = 4.20: with L = 5 the distances fall to
    # 1.79e-6 and 2.5e-9.  x = 0.9 is left out: its window L = 6.88 leaves
    # 1.1e-4 of the conditional's mass at x1 = 2.5 sigma outside, and the
    # sampler draws the law conditioned on the window.
    tables = _SamplerTables.build(twb_state(x, FockTruncation.for_twb(x)))
    ends = tables.nodes[2::2]
    marginal = table_cdf(tables.shared.__getitem__)
    assert np.abs(marginal - twb_marginal_cdf(x, ends)).max() <= bound
    sigma = math.sqrt(twb_covariance(x, 0.0)[0])
    sums, x1 = (a.ravel() for a in np.meshgrid(
        [0.0, 1.0, 2.0, 3.0, 4.5, 6.0], np.array([0.0, 1.0, -1.0, 2.5, -2.5])
        * sigma))
    phi1 = 0.3 * sums
    column = tomography._weighted_columns(
        tables.pair_weights(x1, phi1, sums - phi1), tables.pairs)
    exact = twb_conditional_cdf(x, sums[:, None], x1[:, None], ends)
    assert np.abs(table_cdf(column) - exact).max() <= bound


# -- the cell inversion -------------------------------------------------------

def assert_inverts(p0, p1, p2, residual):
    """_invert_cells returns t in [0, 2] with |F(t) - residual| <=
    1e-15 max(F(2), 1e-300), and raises no warning; returns t."""
    p0, p1, p2, residual = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (p0, p1, p2, residual)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = _invert_cells(p0, p1, p2, residual)
    full = cell_integral(p0, p1, p2, 2.0)
    assert np.all((t >= 0.0) & (t <= 2.0))
    miss = np.abs(cell_integral(p0, p1, p2, t) - residual)
    assert np.all(miss <= 1e-15 * np.maximum(full, 1e-300))
    return t


def conditional_cells(seed, states=20, rows=8):
    """Node densities (p0, p1, p2) of every cell of conditional rows of
    random states of rank 1 or 2 with d <= 4, whose densities come close
    to zero, at random x1 and phases."""
    rng = np.random.default_rng(seed)
    cells = []
    for k in range(states):
        d = int(rng.integers(2, 5))
        g = rng.normal(size=(d * d, int(rng.integers(1, 3)))).astype(complex)
        if k % 2:
            g += 1j * rng.normal(size=g.shape)
        g /= np.linalg.norm(g)
        rho = BipartiteDensity(d, d, g @ g.conj().T)
        tables = _SamplerTables.build(rho)
        phi1, phi2 = rng.uniform(0, math.pi, (2, rows))
        x1 = rng.uniform(-2.5, 2.5, rows)
        pdf = conditional_rows(rho, tables, x1, phi1,
                               phi2)[:, :tables.nodes.size]
        cells.append(np.stack([pdf[:, 0:-2:2], pdf[:, 1:-1:2],
                               pdf[:, 2::2]]).reshape(3, -1))
    return np.hstack(cells)


@pytest.mark.parametrize("seed", [41, 42])
def test_newton_inversion_against_bisection_on_random_cells(seed):
    p0, p1, p2 = conditional_cells(seed)
    full = cell_integral(p0, p1, p2, 2.0)
    # where the cell's density stays well away from zero, both solve the
    # same strictly increasing cubic: the oracle to 2^-42 in t
    smooth = np.minimum(np.minimum(p0, p1), p2) >= 0.01 * np.maximum(
        np.maximum(p0, p1), p2)
    assert smooth.mean() > 0.5
    rng = np.random.default_rng(seed)
    for residual in (rng.random(p0.size) * full, 0.0 * full, full):
        t = assert_inverts(p0, p1, p2, residual)
        oracle = invert_cells_by_bisection(p0, p1, p2, residual)
        assert np.all(np.abs(t - oracle)[smooth] <= 2.0 ** -41)


@pytest.mark.parametrize("p0, p1, p2", [
    (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.0, 1.0, 0.0), (0.0, 1.0, 4.0),
    (4.0, 1.0, 0.0), (1.0, 0.0, 1.0), (-1e-12, 0.5, 1.0), (1.0, 0.5, -1e-12),
    (3e-300, 2e-300, 1e-300)],
    ids=["zero", "constant", "zero-ends", "zero-left", "zero-right",
         "zero-middle", "negative-left", "negative-right", "subnormal-scale"])
def test_newton_inversion_on_edge_cells(p0, p1, p2):
    # both ends, residuals down to 1e-20 of the cell, and uniform ones;
    # next to a zero of the density Newton converges only linearly
    full = cell_integral(p0, p1, p2, 2.0)
    fraction = np.concatenate([[0.0, 1.0], 10.0 ** -np.arange(1.0, 21.0),
                               np.random.default_rng(3).random(20000)])
    t = assert_inverts(p0, p1, p2, fraction * full)
    oracle = invert_cells_by_bisection(p0, p1, p2, fraction[:2] * full)
    if full > 0.0 and min(p0, p1, p2) >= 0.0:
        # a nondecreasing cubic: both ends are exact
        assert np.array_equal(t[:2], [0.0, 2.0])
    if min(p0, p2) > 0.0:
        # F has a slope at both ends, so the oracle resolves them too
        assert np.abs(t[:2] - oracle).max() <= 2.0 ** -42


def test_newton_inversion_of_a_constant_cell_is_exact():
    residual = np.random.default_rng(5).random(1000) * 2.0
    t = assert_inverts(1.0, 1.0, 1.0, residual)
    assert np.array_equal(t, residual)
    oracle = invert_cells_by_bisection(1.0, 1.0, 1.0, residual)
    assert np.abs(t - oracle).max() <= 2.0 ** -42


# -- property: random small states --------------------------------------------

_parts = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def random_density(draw, d_max):
    """The Gram matrix of a random complex d^2 x rank factor, d <= d_max,
    normalized to trace 1."""
    d = draw(st.integers(2, d_max))
    rank = draw(st.integers(1, d * d))
    re_im = draw(arrays(np.float64, (2, d * d, rank), elements=_parts))
    g = re_im[0] + 1j * re_im[1]
    norm = np.linalg.norm(g)
    assume(norm > 1e-3)
    g /= norm
    return d, g @ g.conj().T


@st.composite
def small_states(draw):
    """A random two-mode density operator with d <= 3 and rank <= d^2."""
    d, matrix = random_density(draw, 3)
    return BipartiteDensity(d, d, matrix)


def assert_random_state_draws(rho, seed):
    tables = _SamplerTables.build(rho)
    x1, phi1, phi2, u = draw_inputs(tables, 40, seed)
    assert_search_matches_rows(rho, tables, x1, phi1, phi2, u)
    assert_marginal_matches_phase_coefficient_rows(rho, tables, phi1)
    # the CDF read from the left is non-decreasing and ends at the total;
    # at a node x1 the conditional's total is the marginal density there
    g = tables.nodes.size
    index = np.arange(100, 1000, 100)
    rows = conditional_rows(rho, tables, tables.nodes[index], phi1[:9],
                            phi2[:9])
    marginal = marginal_rows(rho, tables, phi1[:9])
    for table in (rows, marginal):
        cdf, total = table[:, g:-1], table[:, -1:]
        half = cdf.shape[1] // 2
        from_left = np.hstack([cdf[:, :half], total + cdf[:, half:]])
        assert np.all(np.diff(from_left, axis=1) >= -1e-15)
        assert np.array_equal(from_left[:, -1:], total)
    assert np.abs(rows[:, -1] - marginal[np.arange(9), index]).max() < 1e-9
    assert np.abs(marginal[:, -1] - np.trace(rho.matrix).real).max() < 1e-9


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(small_states(), st.integers(0, 2 ** 32 - 1))
def test_search_matches_formed_rows_on_random_states(rho, seed):
    assert_random_state_draws(rho, seed)


@st.composite
def phase_covariant_states(draw):
    """A random state with d <= 4 pinched onto n - m = n' - m': the
    average over the phase rotations e^{i theta (n - m)}, which keeps it
    positive semidefinite with trace 1."""
    d, matrix = random_density(draw, 4)
    sector = np.subtract.outer(np.arange(d), np.arange(d)).ravel()
    matrix[sector[:, None] != sector[None, :]] = 0.0
    return BipartiteDensity(d, d, matrix)


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(phase_covariant_states(), st.integers(0, 2 ** 32 - 1))
def test_search_matches_formed_rows_on_phase_covariant_states(rho, seed):
    # states whose conditional has only the modes b = 0
    assert difference_blocks(rho) is not None
    assert _SamplerTables.build(rho).conserving
    assert_random_state_draws(rho, seed)


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(phase_covariant_states(), st.integers(0, 2 ** 32 - 1))
def test_reduced_rows_match_pair_rows_on_phase_covariant_states(rho, seed):
    tables = _SamplerTables.build(rho)
    x1, phi1, phi2, _ = draw_inputs(tables, 40, seed)
    assert_reduced_rows_match_pair_rows(rho, tables, x1, phi1, phi2)


# -- the per-state positivity check -------------------------------------------

def squared_norm_bound(d):
    """M = max over the default grid of sum_n psi_n(x)^2."""
    nodes = _SamplerTables.build(twb_state(0.0, FockTruncation(d - 1))).nodes
    return float(np.max(np.sum(oscillator_psi_table(d - 1, nodes) ** 2,
                               axis=0)))


@pytest.mark.parametrize("i, k", [(0, 4), (3, 7), (1, 5), (0, 1)],
                         ids=["sector-0", "sector+1", "sector-1", "general"])
def test_positivity_bound_is_lambda_min_times_m_squared(i, k):
    # population p on two flat levels with coherence c has eigenvalues
    # p +- c and a valid reduced state, so only the eigenvalue bound of rho
    # can reject it: p - c = -1.1e-10 / M^2 is just past the bound,
    # -0.9e-10 / M^2 just inside it
    m = squared_norm_bound(3)
    bad = _hermitian_pair_state(3, i, k, 0.5, 0.5 + 1.1e-10 / m ** 2)
    _SamplerTables.build(bad)
    with pytest.raises(ValueError, match="conditional quadrature density"):
        sample_homodyne(bad, 100, seed=3)
    inside = _hermitian_pair_state(3, i, k, 0.5, 0.5 + 0.9e-10 / m ** 2)
    assert np.isfinite(sample_homodyne(inside, 100, seed=3).x2).all()


def test_positivity_check_covers_the_marginal():
    # rho has lambda_min = -eps, inside the bound of rho, and its reduced
    # state has -3 eps on |1>, which the bound lambda_min(rho_A) M rejects
    # just past -1e-10 and accepts just inside it.  With the coherence
    # between |0> and |2> the marginal is drawn per sample; without it
    # rho_A is diagonal and its row is shared.  The table build checks no
    # population, so on both paths the bound alone decides
    d = 3
    m = squared_norm_bound(d)
    for coherent in (True, False):
        for eps, rejected in ((1.1e-10 / (3 * m), True),
                              (0.9e-10 / (3 * m), False)):
            assert eps * m * m < 1e-10
            vec = np.zeros(d * d)
            vec[0] = vec[2 * d] = math.sqrt(0.5)
            matrix = np.outer(vec, vec).astype(complex)
            if not coherent:
                matrix = np.diag(np.diag(matrix))
            for level in range(d):
                matrix[d + level, d + level] = -eps
            rho = BipartiteDensity(d, d, matrix)
            assert (_SamplerTables.build(rho).shared is None) is coherent
            if rejected:
                with pytest.raises(ValueError,
                                   match="conditional quadrature density"):
                    sample_homodyne(rho, 100, seed=3)
            else:
                assert np.isfinite(
                    sample_homodyne(rho, 100, seed=3).x1).all()


@pytest.mark.parametrize("make_state", [
    lambda: rotated_twb(0.5, 1.1),
    lambda: twin_beam_blocks(0.5, FockTruncation.for_twb(0.5),
                             math.inf).density(),
    lambda: apply_gaussian_noise(twb_state(0.5, FockTruncation.for_twb(0.5)),
                                 0.4, noise_truncation(0.5, 0.4))],
    ids=["rotated-twb", "dephased", "gauss-0.4"])
def test_valid_truncated_states_pass_the_check(make_state):
    # the rotated twin beam carries a Hermiticity defect, the others are
    # truncated; their smallest eigenvalues are rounding noise
    batch = sample_homodyne(make_state(), 3000, seed=13)
    assert np.isfinite(batch.x1).all() and np.isfinite(batch.x2).all()
