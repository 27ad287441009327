"""Bipartite density operators and common state constructions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_complex_matrix


@dataclass
class BipartiteDensity:
    """Density operator on H_A (x) H_B with recorded subsystem dimensions.

    ``trace_deficit`` records the weight lost to Fock-space truncation
    (exactly 0 for genuinely finite-dimensional states).  Truncated states
    are deliberately not renormalized; tests and reports account for the
    recorded deficit instead.
    """

    dim_a: int
    dim_b: int
    matrix: np.ndarray
    trace_deficit: float = 0.0

    def __post_init__(self):
        self.matrix = as_complex_matrix(self.matrix)
        d = self.dim_a * self.dim_b
        if self.matrix.shape != (d, d):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match "
                f"dims ({self.dim_a}, {self.dim_b})")

    def reduced(self, mode: int) -> np.ndarray:
        """Partial trace keeping subsystem ``mode`` (0 = A, 1 = B)."""
        t = self.matrix.reshape(self.dim_a, self.dim_b, self.dim_a, self.dim_b)
        if mode == 0:
            return np.einsum("ijkj->ik", t)
        if mode == 1:
            return np.einsum("ijil->jl", t)
        raise ValueError(f"mode must be 0 or 1, got {mode}")


def maximally_entangled_operator(d: int) -> np.ndarray:
    """Operator I/sqrt(d), whose vectorization is the maximally entangled state."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    return np.eye(d, dtype=complex) / np.sqrt(d)


def schmidt_operator(coeffs, d: int) -> np.ndarray:
    """Diagonal pure-state operator with the given Schmidt coefficients.

    Coefficients are normalized to unit Hilbert-Schmidt norm; any finite,
    non-negative coefficients that are not all zero are accepted.
    """
    c = np.asarray(coeffs, dtype=float)
    if not np.all(np.isfinite(c)):
        raise ValueError("Schmidt coefficients must be finite")
    if c.size > d:
        raise ValueError(f"{c.size} coefficients do not fit in dimension {d}")
    if np.any(c < 0):
        raise ValueError("Schmidt coefficients must be non-negative")
    scale = c.max(initial=0.0)
    if scale == 0:
        raise ValueError("all Schmidt coefficients are zero")
    # scaled first, so that no square overflows or underflows
    c = c / scale
    psi = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(psi[: c.size, : c.size], c / np.linalg.norm(c))
    return psi


def random_state_operator(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random pure-state operator: complex Gaussian entries, unit HS norm."""
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return m / np.linalg.norm(m)
