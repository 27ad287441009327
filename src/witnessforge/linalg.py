"""Dense complex linear algebra for bipartite quantum operators.

Index convention used throughout the package: the composite basis state
|i> (x) |j> of H_A (x) H_B sits at row/column i * dim_b + j (row-major).
All matrices are dense complex128 ndarrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

class ConvergenceError(RuntimeError):
    """A numerical routine failed to reach its target tolerance."""


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def require_square(m: np.ndarray) -> int:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m.shape[0]


def vectorize(a: np.ndarray) -> np.ndarray:
    """Map a square operator A to the vector with component (i*d + j) = A_ij.

    This realizes the operator/state correspondence |A>> = sum_ij A_ij |i>|j>.
    """
    m = as_complex_matrix(a)
    require_square(m)
    return m.reshape(-1)


def partial_transpose(m: np.ndarray, dim_a: int, dim_b: int,
                      subsystem: str = "B") -> np.ndarray:
    """Transpose the indices of one subsystem of a bipartite operator.

    The operation is involutive and preserves trace and Hermiticity.
    """
    m = as_complex_matrix(m)
    d = dim_a * dim_b
    if m.shape != (d, d):
        raise ValueError(
            f"matrix shape {m.shape} does not match dims ({dim_a}, {dim_b})")
    t = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if subsystem == "B":
        t = t.transpose(0, 3, 2, 1)
    elif subsystem == "A":
        t = t.transpose(2, 1, 0, 3)
    else:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return t.reshape(d, d)


@dataclass(frozen=True)
class SvdResult:
    """Decomposition m = x @ diag(sigma) @ y^dagger with unitary x, y."""

    x: np.ndarray
    sigma: np.ndarray
    y: np.ndarray


def complex_svd(m: np.ndarray) -> SvdResult:
    """Singular value decomposition of a square complex matrix.

    Singular values come sorted decreasingly; x and y are unitary with
    m = x @ diag(sigma) @ y^dagger.
    """
    m = as_complex_matrix(m)
    require_square(m)
    try:
        u, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    return SvdResult(x=u, sigma=s, y=vh.conj().T)


def fix_global_phase(v: np.ndarray) -> np.ndarray:
    """Rescale a vector so its first nonzero component is real positive."""
    v = np.asarray(v, dtype=complex)
    flat = v.reshape(-1)
    nz = np.flatnonzero(np.abs(flat) > 1e-14)
    if nz.size == 0:
        return v.copy()
    pivot = flat[nz[0]]
    return v * (abs(pivot) / pivot)
