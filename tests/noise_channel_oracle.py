"""Fock-space oracle for the two-mode Gaussian displacement-noise channel.

The library takes the noisy twin beam's witness, threshold and sum-mode
variance from their closed forms (``witnessforge.cv``).  This module keeps
the numerical route the tests compare against: the single-mode channel
blocks from a radial quadrature of the displacement matrix elements, the
padding search that sizes the truncation for a twin beam
(:func:`noise_truncation`), and two ways of applying the channel to both
modes.  :func:`block_gaussian_noise` maps the index-difference blocks of a
twin-beam state one by one; :func:`apply_gaussian_noise` embeds the dense
(d^2) x (d^2) density into the target truncation and contracts the
single-mode channel blocks over each mode of the rank-4 density tensor,
O(d^5) in time, for any two-mode state.  :func:`cv_witness_expectation`
reads the witness off the blocks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from witnessforge import cv
from witnessforge.cv import DifferenceBlocks, FockTruncation, TruncationError
from witnessforge.states import BipartiteDensity

_NOISE_EPS = 1e-14   # radial cutoff: exp(-R^2/kappa) = _NOISE_EPS
_LEAK_FACTOR = 10.0  # noise_truncation keeps the leakage under this many tail bounds
MAX_LEAKAGE = 1e-6   # the channel fails once more weight than this leaks


def _radial_rule(kappa: float, dim: int):
    """Gauss-Legendre nodes/weights for (2/kappa) int_0^R dr r e^{-r^2/kappa},
    with R chosen so the discarded tail of the Gaussian weight is _NOISE_EPS.

    The rule has max(64, 2 dim + 48) nodes, enough for the oscillating
    displacement elements of a dim-level table.
    """
    r_max = math.sqrt(kappa * math.log(1.0 / _NOISE_EPS))
    nodes, weights = np.polynomial.legendre.leggauss(max(64, 2 * dim + 48))
    r = 0.5 * r_max * (nodes + 1.0)
    w = 0.5 * r_max * weights * (2.0 / kappa) * r * np.exp(-r * r / kappa)
    return r, w


def _displacement_table(dim: int, radii: np.ndarray) -> np.ndarray:
    """Real matrix elements <m|D(r)|n> for 0 <= m, n < dim at each radius.

    Built columnwise by the normalized associated-Laguerre recurrence, which
    stays bounded for indices well beyond the dimensions used here.
    Returns an array of shape (dim, dim, len(radii)).
    """
    r = np.asarray(radii, dtype=float)
    u = r * r
    table = np.zeros((dim, dim, r.size))
    log_r = np.log(r)
    for alpha in range(dim):
        # g_n tracks sqrt(n!/(n+alpha)!) L_n^(alpha)(u); start from the
        # coherent-state column <alpha|D(r)|0> = e^{-u/2} r^alpha / sqrt(alpha!)
        prefactor = np.exp(alpha * log_r - 0.5 * gammaln(alpha + 1.0) - 0.5 * u)
        g_prev = np.zeros_like(u)
        g = np.ones_like(u)
        table[alpha, 0] = prefactor
        for n in range(0, dim - alpha - 1):
            g_next = ((2 * n + alpha + 1 - u) * g
                      - math.sqrt(n * (n + alpha)) * g_prev) \
                / math.sqrt((n + 1) * (n + 1 + alpha))
            g_prev, g = g, g_next
            table[alpha + n + 1, n + 1] = prefactor * g
    lower = np.tril_indices(dim, k=-1)
    signs = (-1.0) ** (lower[0] - lower[1])
    table[lower[1], lower[0]] = signs[:, None] * table[lower]
    return table


def gaussian_noise_blocks(dim: int, kappa: float) -> dict:
    """Superoperator blocks of the Gaussian displacement noise channel.

    The channel averages D(alpha) rho D(alpha)^dag over a complex Gaussian of
    variance kappa.  It conserves the index difference m - n, so the matrix
    splits into blocks: blocks[k][m-k-index, p-k-index] = <m|G(|p><p-k|)|m-k>
    for k >= 0 (negative k reuses the same blocks by symmetry).
    """
    cv._check_kappa(kappa)
    r, w = _radial_rule(kappa, dim)
    d_table = _displacement_table(dim, r)
    blocks = {}
    for k in range(dim):
        upper = d_table[k:, k:, :]
        lower = d_table[: dim - k, : dim - k, :]
        blocks[k] = np.einsum("mpi,mpi,i->mp", upper, lower, w)
    return blocks


def noise_truncation(x: float, kappa: float,
                     tol: float = 1e-10) -> FockTruncation:
    """Truncation for applying Gaussian noise of variance kappa to a twin
    beam, padded so the predicted channel leakage stays below
    _LEAK_FACTOR times the twin beam's tail x^(2 (n_max + 1)) at
    ``FockTruncation.for_twb(x, tol)``.

    The channel's upward tail from Fock level p is much heavier than the
    twin-beam tail itself, so the padding is sized from the actual per-level
    survival probabilities rather than a fixed number of extra levels.
    """
    cv._check_kappa(kappa)
    base = FockTruncation.for_twb(x, tol)
    if kappa == 0.0:
        return base
    target = _LEAK_FACTOR * max(x ** (2 * base.dim), 1e-14)
    weights = (1.0 - x * x) * x ** (2 * np.arange(base.dim))
    for pad in range(8, 301, 4):
        dim = base.dim + pad
        r, w = _radial_rule(kappa, dim)
        d_table = _displacement_table(dim, r)
        survival = np.einsum("mpi,mpi,i->p",
                             d_table[:, : base.dim, :],
                             d_table[:, : base.dim, :], w)
        leak = 2.0 * float(weights @ (1.0 - survival))
        if leak <= target:
            return FockTruncation(dim - 1)
    raise TruncationError(
        f"no truncation below n_max={base.dim + 300} keeps the channel "
        f"leakage under {target:.3e} for x={x}, kappa={kappa}")


def block_gaussian_noise(state: DifferenceBlocks, kappa: float,
                         trunc: FockTruncation | None = None
                         ) -> DifferenceBlocks:
    """Apply the Gaussian displacement-noise channel to both modes.

    The channel keeps each mode's index difference, so it maps every block
    on its own: B_j -> G_j B_j G_j^T with G_j = gaussian_noise_blocks(d,
    kappa)[j], after B_j is zero-padded to the target truncation.  The
    channel pushes population upward, and whatever escapes past n_max is
    reported as additional trace deficit.  kappa = 0 only pads.

    Raises:
        ValueError: if the target truncation is smaller than the input's or
            has more than ``cv.MAX_TWO_MODE_LEVELS`` levels per mode.
        TruncationError: if the leaked weight exceeds ``MAX_LEAKAGE``.
    """
    cv._check_kappa(kappa)
    d_in = state.dim
    d = trunc.dim if trunc is not None else d_in
    if d < d_in:
        raise ValueError(f"target truncation {d - 1} smaller than input {d_in - 1}")
    cv._check_levels(d)
    padded = ([np.pad(block, (0, d - d_in)) for block in state.blocks]
              + [np.zeros((d - j, d - j)) for j in range(d_in, d)])
    if kappa == 0.0:
        return DifferenceBlocks(tuple(padded), state.trace_deficit)
    g = gaussian_noise_blocks(d, kappa)
    blocks = tuple(g[j] @ block @ g[j].T for j, block in enumerate(padded))
    leak = float(state.blocks[0].sum().real) - float(blocks[0].sum().real)
    if leak > MAX_LEAKAGE:
        raise TruncationError(
            f"channel leaked {leak:.3e} of the trace past n_max={d - 1} "
            f"(threshold {MAX_LEAKAGE:.1e}); increase the truncation")
    return DifferenceBlocks(blocks, state.trace_deficit + max(leak, 0.0))


def cv_witness_expectation(state: DifferenceBlocks) -> float:
    """Tr[rho W] for the witness of :func:`cv_witness`, read off the blocks:
    (B_0[0, 1] + B_0[1, 0])/2 - Re B_1[0, 0], since rho_{11,00} = B_1[0, 0]."""
    b0, b1 = state.blocks[0], state.blocks[1]
    return float(0.5 * (b0[0, 1] + b0[1, 0]).real - b1[0, 0].real)


def _apply_blocks_mode(t: np.ndarray, blocks: dict, axis_pair: tuple) -> np.ndarray:
    """Contract the channel blocks over one mode of a rank-4 density tensor."""
    d = t.shape[axis_pair[0]]
    moved = np.moveaxis(t, axis_pair, (0, 1))
    out = np.zeros_like(moved)
    idx = np.arange(d)
    for k in range(d):
        rows = idx[k:]
        gathered = moved[rows, rows - k]
        out[rows, rows - k] = np.einsum("mp,p...->m...", blocks[k], gathered)
        if k > 0:
            gathered = moved[rows - k, rows]
            out[rows - k, rows] = np.einsum("mp,p...->m...", blocks[k], gathered)
    return np.moveaxis(out, (0, 1), axis_pair)


def apply_gaussian_noise(rho: BipartiteDensity, kappa: float,
                         trunc: FockTruncation | None = None) -> BipartiteDensity:
    """Apply the Gaussian displacement-noise channel to both modes.

    The input is embedded into the (possibly larger) target truncation first;
    the channel pushes population upward, and whatever escapes past n_max is
    reported as additional trace deficit.  kappa = 0 is the identity.

    Raises:
        ValueError: if the target truncation has more than
            ``cv.MAX_TWO_MODE_LEVELS`` levels per mode (checked before the
            dense arrays are allocated).
        TruncationError: if the leaked weight exceeds ``MAX_LEAKAGE``.
    """
    cv._check_kappa(kappa)
    d_in = rho.dim_a
    if rho.dim_b != d_in:
        raise ValueError("expected equal mode dimensions")
    d = trunc.dim if trunc is not None else d_in
    if d < d_in:
        raise ValueError(f"target truncation {d - 1} smaller than input {d_in - 1}")
    cv._check_levels(d)
    big = np.zeros((d * d, d * d), dtype=complex)
    t_in = rho.matrix.reshape(d_in, d_in, d_in, d_in)
    t_big = big.reshape(d, d, d, d)
    t_big[:d_in, :d_in, :d_in, :d_in] = t_in
    if kappa == 0.0:
        return BipartiteDensity(dim_a=d, dim_b=d, matrix=big,
                                trace_deficit=rho.trace_deficit)
    blocks = gaussian_noise_blocks(d, kappa)
    t_out = _apply_blocks_mode(t_big, blocks, (0, 2))
    t_out = _apply_blocks_mode(t_out, blocks, (1, 3))
    matrix = t_out.reshape(d * d, d * d)
    matrix = (matrix + matrix.conj().T) / 2
    leak = float(np.trace(rho.matrix).real) - float(np.trace(matrix).real)
    if leak > MAX_LEAKAGE:
        raise TruncationError(
            f"channel leaked {leak:.3e} of the trace past n_max={d - 1} "
            f"(threshold {MAX_LEAKAGE:.1e}); increase the truncation")
    return BipartiteDensity(dim_a=d, dim_b=d, matrix=matrix,
                            trace_deficit=rho.trace_deficit + max(leak, 0.0))
