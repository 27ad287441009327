"""Dense beam-splitter oracle for the sum-mode squeezing test.

The library takes the sum-mode variance from the input's quadrature
moments (``witnessforge.cv.sum_mode_variance``).  This module keeps the
independent route the tests compare against: zero-pad the two-mode state
into a larger truncation, conjugate it with the sector-by-sector splitter
unitary, and take the single-mode X variance of one output port.  The
conjugation is dense (d^2) x (d^2) algebra, O(d^6) in time.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from witnessforge.cv import FockTruncation
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
    theta = math.acos(math.sqrt(transmissivity))
    u = np.zeros((dim * dim, dim * dim))
    for s in range(2 * dim - 1):
        n1 = np.arange(max(0, s - dim + 1), min(s, dim - 1) + 1)
        hop = theta * np.sqrt((n1[:-1] + 1.0) * (s - n1[:-1]))
        gen = np.diag(hop, -1) - np.diag(hop, 1)
        block = expm(gen)
        flat = n1 * dim + (s - n1)
        u[np.ix_(flat, flat)] = block
    return u


def beam_splitter(rho: BipartiteDensity, transmissivity: float) -> BipartiteDensity:
    """Mix the two modes on a beam splitter of the given transmissivity.

    Conjugation by the exact unitary of :func:`beam_splitter_unitary`
    preserves trace and spectrum exactly.
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
    u = beam_splitter_unitary(d, transmissivity)
    matrix = u @ rho.matrix @ u.T
    return BipartiteDensity(dim_a=d, dim_b=d, matrix=matrix,
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
