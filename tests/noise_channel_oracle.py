"""Dense oracle for the two-mode Gaussian displacement-noise channel.

The library maps the index-difference blocks of a twin-beam state one by
one (``witnessforge.cv.apply_gaussian_noise``).  This module keeps the
independent route the tests compare against: embed the dense (d^2) x (d^2)
density into the target truncation and contract the single-mode channel
blocks over each mode of the rank-4 density tensor, O(d^5) in time.  It
takes any two-mode state, not only those with the block support.
"""

from __future__ import annotations

import numpy as np

from witnessforge import cv
from witnessforge.cv import FockTruncation, TruncationError, gaussian_noise_blocks
from witnessforge.states import BipartiteDensity


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
        TruncationError: if the leaked weight exceeds ``cv.MAX_LEAKAGE``.
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
    leak = rho.trace() - float(np.trace(matrix).real)
    if leak > cv.MAX_LEAKAGE:
        raise TruncationError(
            f"channel leaked {leak:.3e} of the trace past n_max={d - 1} "
            f"(threshold {cv.MAX_LEAKAGE:.1e}); increase the truncation")
    return BipartiteDensity(dim_a=d, dim_b=d, matrix=matrix,
                            trace_deficit=rho.trace_deficit + max(leak, 0.0))
