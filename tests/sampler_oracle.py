"""Oracles for the samplers' block loop and table search.

``witnessforge.tomography._sample_blocks`` draws a full block straight into
its slice of the batch.  This module keeps the loop it replaced, which drew
every array of a block at full length on its own and then copied, with the
draws of both samplers in that form.

``witnessforge.tomography.sample_homodyne`` never forms a sample's density
row W @ table: it reads the few table columns its binary search visits.
This module keeps the routes the tests compare against: the formed rows of
both stages, a draw from formed rows through the same search, and the
mode-1 marginal rows built as the sampler once built them, from one row per
phase coefficient (1, cos j phi1, sin j phi1) of rho_A.
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
    _CHUNK,
    _sample_columns,
    _with_cdf,
)


def full_draw_blocks(n: int, seed: int, workers: int, draw,
                     quadratures) -> HomodyneBatch:
    """The block loop with full-length draws: block b draws phi1, phi2 and
    then ``draw(rng)``, each a new array of BLOCK_SIZE, copies its phases
    into the batch and writes the quadratures of each piece of _CHUNK."""
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
        for start in range(0, count, _CHUNK):
            piece = slice(start, min(start + _CHUNK, count))
            rows[1, piece], rows[3, piece] = quadratures(
                phi1[piece], phi2[piece], *(a[piece] for a in draws))

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


def with_full_draws(draw):
    """A stand-in for ``tomography._sample_blocks`` that runs the sampler's
    own quadratures through :func:`full_draw_blocks` with draw(rng)."""
    def blocks(n, seed, workers, _draw, quadratures):
        return full_draw_blocks(n, seed, workers, draw, quadratures)
    return blocks


def marginal_rows(tables, phi1: np.ndarray) -> np.ndarray:
    """The formed ``[density | cdf | total]`` rows of the phi1 marginal:
    the shared row if the table has one, else one row per phase."""
    if tables.shared is not None:
        return tables.shared
    return tables.phase_weights(tables.reduced_pairs, phi1) @ tables.pairs


def conditional_rows(tables, x1: np.ndarray, phi1: np.ndarray,
                     phi2: np.ndarray) -> np.ndarray:
    """The formed rows of the conditional at the sampled x1."""
    return tables.pair_weights(x1, phi1, phi2) @ tables.pairs


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
