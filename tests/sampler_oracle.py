"""Oracles for the samplers' block loop and table search.

``witnessforge.tomography._sample_blocks`` draws a full block straight
into its slice of the batch, and ``stream_twin_beam`` draws each piece of
a block where it lies in the block's stream.  This module keeps the loop
they replaced, which drew every array of a block at full length on its
own and then copied, with the draws of both samplers in that form, and
the twin beam's outcomes as the out-of-place expression that its in-place
quadratures replaced.  The tests draw the twin beam's law into a batch
with this loop alone.

``witnessforge.tomography.sample_homodyne`` never forms a sample's density
row V @ table: it reads the few table columns its binary search visits,
gathering the table rows of a read in cache-sized slices.  Its table holds
only the 2d - 1 pair products psi_m psi_M of m - M = 0 and 1, and V are
the pair weights W reduced onto them by the Hermite recurrence.  This
module keeps the routes the tests compare against: the table of all
d(d+1)/2 pair products, the formed rows W @ table of both stages on it
with W computed from rho alone (rho_A for the marginal, the mode-2
conditional operator for the conditional), the read that gathers every
row at once, a draw from formed rows through the same search, and the
mode-1 marginal rows built from one row per phase coefficient
(1, cos j phi1, sin j phi1) of rho_A.

``_SamplerTables.pair_weights`` forms the conditional's phase features one
block of samples at a time in a buffer of a fixed byte budget.  This
module keeps the one-buffer form it replaced, which stacked the features
of a whole chunk, block by block of the map, and took one product per
chunk.
"""

from __future__ import annotations

import math

import numpy as np

from witnessforge.specfn import oscillator_psi_table
from witnessforge.tomography import (
    _CHUNK,
    _ONE_THREAD,
    BLOCK_SIZE,
    CELLS,
    _padded,
    _phase_powers,
    _sample_columns,
    _with_cdf,
)


def full_draw_blocks(n: int, seed: int, draw, quadratures,
                     piece: int) -> np.ndarray:
    """The block loop with full-length draws: block b draws phi1, phi2 and
    then ``draw(rng)``, each a new array of BLOCK_SIZE, copies its phases
    into the (4, n) rows phi1, x1, phi2, x2 and writes the (x1, x2) that
    ``quadratures`` returns for each piece of at most ``piece`` samples."""
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    out = np.empty((4, n))
    for b in range(n_blocks):
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
    return out


def homodyne_draw(rng):
    """The uniforms of ``sample_homodyne``, one array each."""
    return rng.random(BLOCK_SIZE), rng.random(BLOCK_SIZE)


def twin_beam_draw(gamma_t: float):
    """The draws of ``stream_twin_beam`` at phase diffusion gamma_t: two
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
    """The outcomes of ``stream_twin_beam`` as one out-of-place expression
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


def with_full_draws(draw):
    """A stand-in for ``tomography._sample_blocks`` that runs
    :func:`full_draw_blocks` with draw(rng), at the sampler's piece size,
    and the sampler's own quadratures, which overwrite copies of the
    piece's draws."""
    def blocks(n, seed, in_place, piece):
        def own(phi1, phi2, first, second, *further):
            first, second = first.copy(), second.copy()
            in_place(phi1, phi2, first, second, *further)
            return first, second
        return full_draw_blocks(n, seed, draw, own, piece)
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


def _pairs(d: int):
    """j = m - M and M of every pair (m, M), m >= M, by j and then M."""
    j = np.concatenate([np.full(d - k, k) for k in range(d)])
    low = np.concatenate([np.arange(d - k) for k in range(d)])
    return j, low


def marginal_rows(rho, tables, phi1: np.ndarray) -> np.ndarray:
    """The formed ``[density | cdf | total]`` rows of the phi1 marginal on
    the pair table, one per phase, from rho_A alone: the pair weights
    c_j Re[rho_A[m, M] e^{ij phi1}]."""
    j, low = _pairs(tables.d)
    coef = np.where(j, 2.0, 1.0) * rho.reduced(0)[low + j, low]
    turn = np.exp(1j * np.multiply.outer(phi1, j))
    return (coef * turn).real @ pair_table(tables)


def dense_elements(rho):
    """The reader j -> R_j of a dense state, R_j[k, l, M] =
    rho_{k(M+j), lM}, by plain indexing of the matrix."""
    d = rho.dim_a
    matrix = rho.matrix.reshape(d, d, d, d)

    def elements(j):
        low = np.arange(d - j)
        return matrix[:, low + j, :, low].transpose(1, 2, 0)
    return elements


def conditional_weights(rho, tables, x1: np.ndarray, phi1: np.ndarray,
                        phi2: np.ndarray, elements=None) -> np.ndarray:
    """The pair weights W(s) of the conditional at the sampled x1, in
    complex arithmetic from rho alone: c_j Re[C(s)[m, M] e^{ij phi2}] with
    the mode-2 conditional operator C(s)[m, M] = sum_kl u1_k conj(u1_l)
    rho_{km, lM}, u1_k = psi_k(x1) e^{ik phi1}.  rho is read through
    ``elements`` (default :func:`dense_elements`), and only the (k, l)
    with a nonzero element enter each sum."""
    d = tables.d
    elements = elements or dense_elements(rho)
    u1 = oscillator_psi_table(d - 1, x1).T * np.exp(
        1j * np.multiply.outer(phi1, np.arange(d)))
    parts = []
    for j in range(d):
        r = elements(j)
        k, l = np.nonzero(np.any(r, axis=2))
        c = (u1[:, k] * u1[:, l].conj()) @ r[k, l]
        turn = (2.0 if j else 1.0) * np.exp(1j * j * phi2)
        parts.append((turn[:, None] * c).real)
    return np.hstack(parts)


def conditional_rows(rho, tables, x1: np.ndarray, phi1: np.ndarray,
                     phi2: np.ndarray, elements=None) -> np.ndarray:
    """The formed rows of the conditional at the sampled x1: its pair
    weights times the pair table."""
    return conditional_weights(rho, tables, x1, phi1, phi2,
                               elements) @ pair_table(tables)


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


def one_buffer_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for an operand a of exactly _CHUNK rows, in row blocks of the
    power-of-two size that the sampler's products keep (the largest with
    at most _ONE_THREAD multiply-adds)."""
    assert a.shape[0] == _CHUNK
    rows = _CHUNK
    while rows > 1 and rows * b.size > _ONE_THREAD:
        rows //= 2
    out = np.empty((_CHUNK, b.shape[1]))
    for start in range(0, _CHUNK, rows):
        np.matmul(a[start:start + rows], b, out=out[start:start + rows])
    return out


def one_buffer_pair_weights(tables, x1: np.ndarray, phi1: np.ndarray,
                            phi2: np.ndarray) -> np.ndarray:
    """The conditional's table weights of at most _CHUNK samples with the
    features of the whole padded chunk in one (rows, _CHUNK) buffer: each
    group of row blocks of one |a| forms its pair products in its first
    block, multiplies them by the cosine or sine of each further block's
    mode into that block, then by its first block's own; one product with
    the map follows."""
    d = tables.d
    n = x1.size
    x1, phi1, phi2 = (_padded(a) for a in (x1, phi1, phi2))
    psi1 = oscillator_psi_table(d - 1, x1)
    theta = _phase_powers(phi1 + phi2, d)
    spin = None if tables.conserving else _phase_powers(phi2, 2 * d - 1)

    def mixed(turns, a, b):
        if (a, b) not in turns:
            turns[a, b] = ((theta[a] if a >= 0 else theta[-a].conj())
                           * (spin[b] if b > 0 else spin[-b].conj()))
        return turns[a, b]

    features = np.empty((tables.conditional.shape[0], _CHUNK))
    row = 0
    for k, blocks in tables.groups:
        width = d - k
        products = features[row:row + width]
        np.multiply(psi1[k:], psi1[:width], out=products)
        turns = {}
        for a, b, sine in blocks[1:]:
            row += width
            turn = mixed(turns, a, b) if b else theta[a]
            np.multiply(products, turn.imag if sine else turn.real,
                        out=features[row:row + width])
        row += width
        a, b, sine = blocks[0]
        if a or b:
            turn = mixed(turns, a, b) if b else theta[a]
            products *= turn.imag if sine else turn.real
    return one_buffer_product(features.T, tables.conditional)[:n]
