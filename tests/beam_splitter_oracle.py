"""Fock-space oracles for the sum-mode squeezing test.

The library takes the sum-mode variance of the noisy twin beam from its
closed form (``witnessforge.cv.sum_mode_variance``).  This module keeps two
independent routes the tests compare against.  :func:`block_sum_mode_variance`
reads the variance off the first and second quadrature moments of a state
kept as index-difference blocks.  The splitter route zero-pads the two-mode
state into a larger truncation, conjugates it with the splitter unitary and
takes the single-mode X variance of one output port; the unitary conserves
total photon number, so the conjugation runs sector by sector, O(d^5) in
time.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg import expm

from witnessforge.cv import DifferenceBlocks, FockTruncation
from witnessforge.states import BipartiteDensity


def _destroy(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def quadrature_operator(dim: int) -> np.ndarray:
    """X = (a^dag + a)/2 on the truncated Fock space."""
    a = _destroy(dim)
    return (a + a.conj().T) / 2


def embed(rho: BipartiteDensity, trunc: FockTruncation) -> BipartiteDensity:
    """Zero-pad a two-mode state into a larger truncation."""
    d_in, d = rho.dim_a, trunc.dim
    if d < d_in:
        raise ValueError(f"target truncation {d - 1} smaller than input {d_in - 1}")
    big = np.zeros((d, d, d, d), dtype=complex)
    big[:d_in, :d_in, :d_in, :d_in] = rho.matrix.reshape(d_in, d_in, d_in, d_in)
    return BipartiteDensity(dim_a=d, dim_b=d, matrix=big.reshape(d * d, d * d),
                            trace_deficit=rho.trace_deficit)


@functools.lru_cache(maxsize=4)
def _sectors(dim: int, transmissivity: float) -> tuple:
    """Per total photon number s: the flat indices n1 * dim + (s - n1) of the
    sector and the splitter unitary's block on them, from the matrix
    exponential of the exactly antisymmetric generator block.

    Cached, because a test splits many states at one (dim, transmissivity);
    the arrays are read-only so that no caller can alter the cached blocks.
    """
    theta = math.acos(math.sqrt(transmissivity))
    sectors = []
    for s in range(2 * dim - 1):
        n1 = np.arange(max(0, s - dim + 1), min(s, dim - 1) + 1)
        hop = theta * np.sqrt((n1[:-1] + 1.0) * (s - n1[:-1]))
        gen = np.diag(hop, -1) - np.diag(hop, 1)
        flat, block = n1 * dim + (s - n1), expm(gen)
        flat.flags.writeable = block.flags.writeable = False
        sectors.append((flat, block))
    return tuple(sectors)


def beam_splitter_unitary(dim: int, transmissivity: float) -> np.ndarray:
    """U = exp[theta (a^dag b - a b^dag)], theta = arccos(sqrt(transmissivity)),
    on the truncated two-mode space.

    The generator conserves total photon number, so U is assembled sector by
    sector from small matrix exponentials of exactly antisymmetric blocks;
    the result is orthogonal (real unitary) to machine precision.

    Note that a Fock state |n n> scatters to single-mode levels up to 2n, so
    callers should :func:`embed` states with significant weight at level n
    into a truncation of at least 2n before splitting.
    """
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity={transmissivity} outside [0, 1]")
    u = np.zeros((dim * dim, dim * dim))
    for flat, block in _sectors(dim, transmissivity):
        u[np.ix_(flat, flat)] = block
    return u


def beam_splitter(rho: BipartiteDensity, transmissivity: float) -> BipartiteDensity:
    """Mix the two modes on a beam splitter of the given transmissivity.

    Conjugation by the exact unitary of :func:`beam_splitter_unitary`
    preserves trace and spectrum exactly.  rho is permuted once into
    total-photon-number order, where U is block diagonal; each sector's
    block then acts on its rows and on its columns, and the result is
    permuted back.
    """
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity={transmissivity} outside [0, 1]")
    if transmissivity == 1.0:
        return BipartiteDensity(dim_a=rho.dim_a, dim_b=rho.dim_b,
                                matrix=rho.matrix.copy(),
                                trace_deficit=rho.trace_deficit)
    d = rho.dim_a
    if rho.dim_b != d:
        raise ValueError("expected equal mode dimensions")
    sectors = _sectors(d, transmissivity)
    order = np.concatenate([flat for flat, _ in sectors])
    m = rho.matrix[np.ix_(order, order)]
    start = 0
    for flat, block in sectors:
        rows = slice(start, start + flat.size)
        m[rows] = block @ m[rows]
        m[:, rows] = m[:, rows] @ block.T
        start += flat.size
    back = np.argsort(order)
    return BipartiteDensity(dim_a=d, dim_b=d, matrix=m[np.ix_(back, back)],
                            trace_deficit=rho.trace_deficit)


def squeezing_witness(rho_single: np.ndarray, trace_tol: float = 1e-6) -> float:
    """Fluctuation witness Var(X) - 1/4 of a single-mode state.

    A negative value certifies sub-vacuum fluctuations of X = (a^dag + a)/2.
    For a Gaussian two-mode input mixed on a balanced beam splitter this is
    equivalent to entanglement of the input.
    """
    rho = np.asarray(rho_single, dtype=complex)
    d = rho.shape[0]
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(
            f"single-mode state trace {tr} deviates from 1 beyond {trace_tol}; "
            "truncation is insufficient")
    x_op = quadrature_operator(d)
    mean = float(np.trace(x_op @ rho).real)
    second = float(np.trace(x_op @ x_op @ rho).real)
    return second - mean * mean - 0.25


def block_sum_mode_variance(state: DifferenceBlocks,
                            transmissivity: float) -> float:
    """Var(sqrt(T) X_b - sqrt(1-T) X_a) of a two-mode state.

    This is the variance of X on output port b of the beam splitter
    U = exp[theta (a^dag b - a b^dag)], cos(theta) = sqrt(T), taken in the
    Heisenberg picture: only the first and second quadrature moments of the
    state enter, on its own truncation.  At T = 1/2 a value below the vacuum
    1/4 certifies entanglement of a Gaussian input (sum-mode criterion,
    Duan et al., PRL 84, 2722 (2000)).

    On the index-difference support both reduced states are diagonal, so
    <X> = 0 and Var X = sum_n p(n) (2n+1)/4 over the row (mode a) or column
    (mode b) sums p of B_0; the top level keeps its a a^dag term.  The
    correlation <X_a X_b> = Re <a b>/2 = Re sum sqrt((i+1)(l+1)) B_1[i, l] / 2.

    Raises:
        ValueError: T outside [0, 1] or NaN, or |Tr rho - 1| > 1e-6 (the
            truncation is insufficient).
    """
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity={transmissivity} outside [0, 1]")
    tr = state.trace()
    if abs(tr - 1.0) > 1e-6:
        raise ValueError(f"state trace {tr} deviates from 1 beyond 1e-6; "
                         "truncation is insufficient")
    populations = state.blocks[0].real
    level = (2.0 * np.arange(state.dim) + 1.0) / 4.0
    var_a = float(populations.sum(axis=1) @ level)
    var_b = float(populations.sum(axis=0) @ level)
    root = np.sqrt(np.arange(1.0, state.dim))
    cov = 0.5 * float(np.sum(np.outer(root, root) * state.blocks[1]).real)
    t = transmissivity
    return float(t * var_b + (1.0 - t) * var_a
                 - 2.0 * math.sqrt(t * (1.0 - t)) * cov)
