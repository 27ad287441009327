"""Formed-row oracle for the Fock-space sampler's table search.

``witnessforge.tomography.sample_homodyne`` never forms a sample's density
row W @ table: it reads the few table columns its binary search visits.
This module keeps the routes the tests compare against: the formed rows of
both stages, a draw from formed rows through the same search, and the
mode-1 marginal rows built as the sampler once built them, from one row per
phase coefficient (1, cos j phi1, sin j phi1) of rho_A.
"""

from __future__ import annotations

import numpy as np

from witnessforge.specfn import oscillator_psi_table
from witnessforge.tomography import CELLS, _sample_columns, _with_cdf


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
