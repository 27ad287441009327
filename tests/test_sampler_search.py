"""The Fock-space sampler's table search against its formed density rows,
and its per-state positivity check.

``sample_homodyne`` never forms a sample's density row W @ table: it reads
the few table columns its binary search visits.  These tests compare that
search with the draw from the formed rows (``conditional_rows``,
``marginal_rows``), and check the eigenvalue bound that replaced the scan
of each row's node densities.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from noise_channel_oracle import apply_gaussian_noise, noise_truncation
from test_tomography import (
    _hermitian_pair_state,
    asymmetric_block_state,
    complex_block_state,
    general_d3_state,
    rotated_twb,
)
from witnessforge import tomography
from witnessforge.cv import FockTruncation, phase_noisy_twb, twb_state
from witnessforge.specfn import oscillator_psi_table
from witnessforge.states import BipartiteDensity
from witnessforge.tomography import _SamplerTables, sample_homodyne

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
    formed = tables.draw(rows, u)
    close = np.abs(searched - formed) <= 1e-12
    low = tables.draw(rows, u - BACKWARD) - 1e-12
    high = tables.draw(rows, u + BACKWARD) + 1e-12
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


def assert_search_matches_rows(tables, x1, phi1, phi2, u):
    for rows, searched in [
            (tables.conditional_rows(x1, phi1, phi2),
             tables.draw_conditional(x1, phi1, phi2, u)),
            (tables.marginal_rows(phi1), tables.draw_marginal(phi1, u))]:
        assert_same_draw(tables, rows, searched, u)
        # and it inverts the CDF of the node densities
        cdf, total = cdf_at(tables, rows, searched)
        assert np.all(np.abs(cdf - u * total) <= 1e-12 * total)


@pytest.mark.parametrize("make_state", [
    general_d3_state, lambda: twb_state(0.5, FockTruncation.for_twb(0.5)),
    lambda: rotated_twb(0.5, 1.1), complex_block_state,
    lambda: asymmetric_block_state().density()],
    ids=["general-d3", "twb", "rotated-twb", "complex-block", "asymmetric"])
def test_search_matches_formed_rows(make_state):
    tables = _SamplerTables.build(make_state())
    assert_search_matches_rows(tables, *draw_inputs(tables, 300, 3))


def test_general_d3_marginal_is_per_sample():
    # the marginal half of the comparison above is only a per-sample search
    # when the reduced state has coherences
    assert _SamplerTables.build(general_d3_state()) \
        .marginal.ndim == 2


def _raise(*args, **kwargs):
    raise AssertionError("the sampler formed a density row")


@pytest.mark.parametrize("make_state", [
    general_d3_state, lambda: rotated_twb(0.5, 1.1)],
    ids=["general-d3", "rotated-twb"])
def test_sampler_forms_no_rows_and_no_complex_products(make_state,
                                                        monkeypatch):
    rho = make_state()
    expected = sample_homodyne(rho, 3000, seed=21)
    block_product = tomography._fixed_rows

    def real_block_product(a, b):
        # every remaining matrix product is a real block product, at most
        # d columns wide
        assert not np.iscomplexobj(a) and not np.iscomplexobj(b)
        assert b.shape[1] <= rho.dim_a
        return block_product(a, b)

    monkeypatch.setattr(_SamplerTables, "conditional_rows", _raise)
    monkeypatch.setattr(_SamplerTables, "marginal_rows", _raise)
    monkeypatch.setattr(tomography, "_fixed_rows", real_block_product)
    batch = sample_homodyne(rho, 3000, seed=21)
    assert np.array_equal(batch.x1, expected.x1)
    assert np.array_equal(batch.x2, expected.x2)


# -- property: random small states --------------------------------------------

_parts = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def small_states(draw):
    """A random two-mode density operator with d <= 3 and rank <= d^2."""
    d = draw(st.integers(2, 3))
    rank = draw(st.integers(1, d * d))
    re_im = draw(arrays(np.float64, (2, d * d, rank), elements=_parts))
    g = re_im[0] + 1j * re_im[1]
    norm = np.linalg.norm(g)
    assume(norm > 1e-3)
    g /= norm
    return BipartiteDensity(d, d, g @ g.conj().T)


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(small_states(), st.integers(0, 2 ** 32 - 1))
def test_search_matches_formed_rows_on_random_states(rho, seed):
    tables = _SamplerTables.build(rho)
    x1, phi1, phi2, u = draw_inputs(tables, 40, seed)
    assert_search_matches_rows(tables, x1, phi1, phi2, u)
    # the CDF read from the left is non-decreasing and ends at the total;
    # at a node x1 the conditional's total is the marginal density there
    g = tables.nodes.size
    index = np.arange(100, 1000, 100)
    rows = tables.conditional_rows(tables.nodes[index], phi1[:9], phi2[:9])
    marginal = np.broadcast_to(tables.marginal_rows(phi1[:9]),
                               (9, rows.shape[1]))
    for table in (rows, marginal):
        cdf, total = table[:, g:-1], table[:, -1:]
        half = cdf.shape[1] // 2
        from_left = np.hstack([cdf[:, :half], total + cdf[:, half:]])
        assert np.all(np.diff(from_left, axis=1) >= -1e-15)
        assert np.array_equal(from_left[:, -1:], total)
    assert np.abs(rows[:, -1] - marginal[np.arange(9), index]).max() < 1e-9
    assert np.abs(marginal[:, -1] - rho.trace()).max() < 1e-9


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
    # just past -1e-10 and accepts just inside it; the coherence between
    # |0> and |2> keeps the reduced state off the diagonal path that checks
    # populations
    d = 3
    m = squared_norm_bound(d)
    for eps, rejected in ((1.1e-10 / (3 * m), True),
                          (0.9e-10 / (3 * m), False)):
        assert eps * m * m < 1e-10
        vec = np.zeros(d * d)
        vec[0] = vec[2 * d] = math.sqrt(0.5)
        matrix = np.outer(vec, vec).astype(complex)
        for level in range(d):
            matrix[d + level, d + level] = -eps
        rho = BipartiteDensity(d, d, matrix)
        assert _SamplerTables.build(rho).marginal.ndim == 2
        if rejected:
            with pytest.raises(ValueError,
                               match="conditional quadrature density"):
                sample_homodyne(rho, 100, seed=3)
        else:
            assert np.isfinite(sample_homodyne(rho, 100, seed=3).x1).all()


@pytest.mark.parametrize("make_state", [
    lambda: rotated_twb(0.5, 1.1),
    lambda: phase_noisy_twb(0.5, math.inf, FockTruncation.for_twb(0.5)),
    lambda: apply_gaussian_noise(twb_state(0.5, FockTruncation.for_twb(0.5)),
                                 0.4, noise_truncation(0.5, 0.4))],
    ids=["rotated-twb", "dephased", "gauss-0.4"])
def test_valid_truncated_states_pass_the_check(make_state):
    # the rotated twin beam carries a Hermiticity defect, the others are
    # truncated; their smallest eigenvalues are rounding noise
    batch = sample_homodyne(make_state(), 3000, seed=13)
    assert np.isfinite(batch.x1).all() and np.isfinite(batch.x2).all()
