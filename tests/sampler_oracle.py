"""Oracles for the samplers' block loop and table search.

``witnessforge.tomography._sample_blocks`` draws a full block straight into
its slice of the batch.  This module keeps the loop it replaced, which drew
every array of a block at full length on its own and then copied, with the
draws of both samplers in that form, and the twin beam's outcomes as the
out-of-place expression that its in-place quadratures replaced.

``witnessforge.tomography.sample_homodyne`` never forms a sample's density
row V @ table: it reads the few table columns its binary search visits,
gathering the table rows of a read in cache-sized slices.  Its table holds
only the 2d - 1 pair products psi_m psi_M of m - M = 0 and 1, and V are
the pair weights W reduced onto them by the Hermite recurrence.  This
module keeps the routes the tests compare against: the table of all
d(d+1)/2 pair products that the sampler read before, the formed rows
W @ table of both stages on it, the read that gathers every row at once,
a draw from formed rows through the same search, and the mode-1 marginal
rows built as the sampler once built them, from one row per phase
coefficient (1, cos j phi1, sin j phi1) of rho_A.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from witnessforge.specfn import oscillator_psi_table
from witnessforge.tomography import (
    BLOCK_SIZE,
    CELLS,
    HomodyneBatch,
    _sample_columns,
    _with_cdf,
)


def full_draw_blocks(n: int, seed: int, workers: int, draw, quadratures,
                     piece: int) -> HomodyneBatch:
    """The block loop with full-length draws: block b draws phi1, phi2 and
    then ``draw(rng)``, each a new array of BLOCK_SIZE, copies its phases
    into the batch and writes the (x1, x2) that ``quadratures`` returns
    for each piece of at most ``piece`` samples."""
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    out = np.empty((4, n))

    def block(b):
        rng = np.random.default_rng(children[b])
        phi1 = math.pi * rng.random(BLOCK_SIZE)
        phi2 = math.pi * rng.random(BLOCK_SIZE)
        draws = draw(rng)
        rows = out[:, b * BLOCK_SIZE:(b + 1) * BLOCK_SIZE]
        count = rows.shape[1]
        rows[0] = phi1[:count]
        rows[2] = phi2[:count]
        for start in range(0, count, piece):
            part = slice(start, min(start + piece, count))
            rows[1, part], rows[3, part] = quadratures(
                phi1[part], phi2[part], *(a[part] for a in draws))

    if workers == 1 or n_blocks == 1:
        for b in range(n_blocks):
            block(b)
    else:
        with ThreadPoolExecutor(max_workers=min(workers, n_blocks)) as pool:
            list(pool.map(block, range(n_blocks)))
    return HomodyneBatch(phi1=out[0], x1=out[1], phi2=out[2], x2=out[3])


def homodyne_draw(rng):
    """The uniforms of ``sample_homodyne``, one array each."""
    return rng.random(BLOCK_SIZE), rng.random(BLOCK_SIZE)


def twin_beam_draw(gamma_t: float):
    """The draws of ``sample_twin_beam`` at phase diffusion gamma_t: two
    standard normals, then the mixture phase theta unless gamma_t = 0."""
    spread = math.sqrt(2.0) * math.sqrt(gamma_t)

    def draw(rng):
        z = (rng.standard_normal(BLOCK_SIZE), rng.standard_normal(BLOCK_SIZE))
        if gamma_t == 0.0:
            return z
        if gamma_t == math.inf:
            return (*z, 2.0 * math.pi * rng.random(BLOCK_SIZE))
        return (*z, spread * rng.standard_normal(BLOCK_SIZE))
    return draw


def twin_beam_quadratures(x: float, kappa: float):
    """The outcomes of ``sample_twin_beam`` as one out-of-place expression
    per piece: x1 = sqrt(V) z1 and
    x2 = Cov/V x1 + sqrt((V - Cov)(V + Cov)/V) z2."""
    var = (1.0 + x * x) / (4.0 * (1.0 - x * x)) + 0.5 * kappa
    amplitude = x / (2.0 * (1.0 - x * x))

    def quadratures(phi1, phi2, z1, z2, theta=0.0):
        cov = amplitude * np.cos(phi1 + phi2 + theta)
        x1 = math.sqrt(var) * z1
        x2 = cov / var * x1 + np.sqrt((var - cov) * (var + cov) / var) * z2
        return x1, x2
    return quadratures


def with_full_draws(draw, quadratures=None):
    """A stand-in for ``tomography._sample_blocks`` that runs
    :func:`full_draw_blocks` with draw(rng), at the sampler's piece size.
    Its quadratures are the given out-of-place ones, or else the
    sampler's own, which overwrite copies of the piece's draws."""
    def blocks(n, seed, workers, _draw, in_place, piece):
        def own(phi1, phi2, first, second, *further):
            first, second = first.copy(), second.copy()
            in_place(phi1, phi2, first, second, *further)
            return first, second
        return full_draw_blocks(n, seed, workers, draw, quadratures or own,
                                piece)
    return blocks


def one_shot_columns(weights: np.ndarray, table: np.ndarray):
    """The column accessor of ``weights @ table`` that gathers the table
    rows of an index-array read in one piece."""
    columns = table.T

    def column(k):
        if np.ndim(k) == 0:
            return np.einsum("np,p->n", weights, columns[k])
        return np.einsum("np,np->n", weights, columns[k])
    return column


def pair_table(tables) -> np.ndarray:
    """The ``[density | cdf | total]`` table of every pair product
    psi_m psi_M (m >= M), d(d+1)/2 rows ordered by j = m - M and then M,
    on the sampler's grid."""
    d = tables.d
    psi = oscillator_psi_table(d - 1, tables.nodes)
    table = np.empty((d * (d + 1) // 2, 3 * CELLS + 2))
    start = 0
    for j in range(d):
        np.multiply(psi[j:], psi[:d - j],
                    out=table[start:start + d - j, :2 * CELLS + 1])
        start += d - j
    return _with_cdf(table, tables.delta)


def marginal_rows(tables, phi1: np.ndarray) -> np.ndarray:
    """The formed ``[density | cdf | total]`` rows of the phi1 marginal on
    the pair table: one shared row if rho_A is diagonal, else one row per
    phase, with the pair weights c_j Re[rho_A[m, M] e^{ij phi1}]."""
    table = pair_table(tables)
    if tables.shared is not None:
        return tables.reduced_pairs.real @ table
    turn = np.exp(1j * np.multiply.outer(phi1, tables.pair_j))
    return (tables.reduced_pairs * turn).real @ table


def conditional_weights(tables, x1: np.ndarray, phi1: np.ndarray,
                        phi2: np.ndarray) -> np.ndarray:
    """The pair weights W(s) of the conditional at the sampled x1, in
    complex arithmetic: c_j Re[e^{ij(phi1+phi2)} (a_j(s) B_j)_l] on the
    index-difference blocks, with a_j(s)_i = psi_{i+j}(x1) psi_i(x1), and
    c_j Re[C(s)[m, M] e^{ij phi2}] from the mode-2 conditional operator
    C(s) = sum_kl u1_k conj(u1_l) rho_{km, lM} otherwise."""
    d = tables.d
    psi1 = oscillator_psi_table(d - 1, x1)
    if tables.diff is not None:
        parts = []
        for j, block in enumerate(tables.diff.blocks):
            turn = (2.0 if j else 1.0) * np.exp(1j * j * (phi1 + phi2))
            a_j = (psi1[j:] * psi1[:d - j]).T
            parts.append((turn[:, None] * (a_j @ block)).real)
        return np.hstack(parts)
    u1 = psi1.T * np.exp(1j * np.multiply.outer(phi1, np.arange(d)))
    outer = np.einsum("nk,nl->nkl", u1, u1.conj()).reshape(x1.size, -1)
    turn = np.exp(1j * np.multiply.outer(phi2, tables.pair_j))
    return (outer @ tables.cond * turn).real


def conditional_rows(tables, x1: np.ndarray, phi1: np.ndarray,
                     phi2: np.ndarray) -> np.ndarray:
    """The formed rows of the conditional at the sampled x1: its pair
    weights times the pair table."""
    return conditional_weights(tables, x1, phi1, phi2) @ pair_table(tables)


def draw(tables, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sample from formed rows, one shared row of shape (width,) or one row
    per draw of shape (n, width), through the sampler's search."""
    if rows.ndim == 1:
        column = rows.__getitem__
    else:
        take = np.arange(rows.shape[0])

        def column(k):
            return rows[take, k]
    return _sample_columns(column, u, tables.nodes, tables.delta)


def phase_coefficient_rows(rho, tables, phi1: np.ndarray) -> np.ndarray:
    """The marginal rows from the phase coefficients of rho_A: with
    c_j(x) = sum_n rho_A[n + j, n] psi_{n+j}(x) psi_n(x), the density is
    sum_n rho_A[n, n] psi_n^2 + sum_j (2 Re c_j cos j phi1 - 2 Im c_j
    sin j phi1), one tabulated row per term."""
    d = tables.d
    psi = oscillator_psi_table(d - 1, tables.nodes)
    reduced = rho.reduced(0)
    rows = [np.real(np.diag(reduced)) @ (psi * psi)]
    for j in range(1, d):
        cj = np.einsum("n,ng,ng->g", np.diag(reduced, -j), psi[j:],
                       psi[:d - j])
        rows.append(2.0 * cj.real)
        rows.append(-2.0 * cj.imag)
    angles = phi1[:, None] * np.arange(1, d)[None, :]
    weights = np.empty((phi1.size, 2 * d - 1))
    weights[:, 0] = 1.0
    weights[:, 1::2] = np.cos(angles)
    weights[:, 2::2] = np.sin(angles)
    table = np.empty((len(rows), 3 * CELLS + 2))
    table[:, :2 * CELLS + 1] = rows
    return weights @ _with_cdf(table, tables.delta)
