"""Bipartite density operators and common state constructions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    HERMITIAN_TOL,
    as_complex_matrix,
    hermiticity_defect,
    partial_transpose,
)

PSD_TOL = 1e-10


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

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def partial_transpose(self, subsystem: str = "B") -> np.ndarray:
        return partial_transpose(self.matrix, self.dim_a, self.dim_b, subsystem)

    def reduced(self, mode: int) -> np.ndarray:
        """Partial trace keeping subsystem ``mode`` (0 = A, 1 = B)."""
        t = self.matrix.reshape(self.dim_a, self.dim_b, self.dim_a, self.dim_b)
        if mode == 0:
            return np.einsum("ijkj->ik", t)
        if mode == 1:
            return np.einsum("ijil->jl", t)
        raise ValueError(f"mode must be 0 or 1, got {mode}")

    def validate(self, herm_tol: float = HERMITIAN_TOL,
                 psd_tol: float = PSD_TOL) -> "BipartiteDensity":
        """Check Hermiticity, trace window and positivity; raise on failure."""
        defect = hermiticity_defect(self.matrix)
        if defect > herm_tol:
            raise ValueError(f"density not Hermitian: defect {defect:.3e}")
        tr = np.trace(self.matrix)
        if abs(tr.imag) > herm_tol:
            raise ValueError(f"density trace not real: {tr}")
        lo = 1.0 - self.trace_deficit - 1e-12
        if not (lo <= tr.real <= 1.0 + 1e-12):
            raise ValueError(
                f"trace {tr.real} outside [{lo}, 1] for recorded "
                f"deficit {self.trace_deficit:.3e}")
        w = np.linalg.eigvalsh((self.matrix + self.matrix.conj().T) / 2)
        if w[0] < -psd_tol:
            raise ValueError(f"density has negative eigenvalue {w[0]:.3e}")
        return self


def maximally_entangled_operator(d: int) -> np.ndarray:
    """Operator I/sqrt(d), whose vectorization is the maximally entangled state."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    return np.eye(d, dtype=complex) / np.sqrt(d)


def schmidt_operator(coeffs, d: int) -> np.ndarray:
    """Diagonal pure-state operator with the given Schmidt coefficients.

    Coefficients are normalized to unit Hilbert-Schmidt norm.
    """
    c = np.asarray(coeffs, dtype=float)
    if not np.all(np.isfinite(c)):
        raise ValueError("Schmidt coefficients must be finite")
    if c.size > d:
        raise ValueError(f"{c.size} coefficients do not fit in dimension {d}")
    if np.any(c < 0):
        raise ValueError("Schmidt coefficients must be non-negative")
    norm = np.linalg.norm(c)
    if norm == 0:
        raise ValueError("all Schmidt coefficients are zero")
    psi = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(psi[: c.size, : c.size], c / norm)
    return psi


def random_state_operator(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random pure-state operator: complex Gaussian entries, unit HS norm."""
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return m / np.linalg.norm(m)


def random_product_state(dim_a: int, dim_b: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Haar-random product vector |a>|b> via normalized complex Gaussians."""
    a = rng.standard_normal(dim_a) + 1j * rng.standard_normal(dim_a)
    b = rng.standard_normal(dim_b) + 1j * rng.standard_normal(dim_b)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    return np.kron(a, b)
