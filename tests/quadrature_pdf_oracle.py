"""Dense oracle for the homodyne sampler's quadrature densities.

``witnessforge.tomography.sample_homodyne`` never forms a density row: it
reads a few entries of each from per-state tables.  This module keeps the
direct route the tests compare against: contract the dense two-mode state
with the oscillator wavefunctions at both phases on a grid, and check that
the result is real and non-negative.
"""

from __future__ import annotations

import numpy as np

from witnessforge.specfn import oscillator_psi_table
from witnessforge.states import BipartiteDensity
from witnessforge.tomography import PDF_NEGATIVITY_TOL, quadrature_span


def joint_quadrature_pdf(rho: BipartiteDensity, phi1: float, phi2: float,
                         xs: np.ndarray | None = None, cells: int = 256):
    """Joint quadrature density p(x1, x2 | phi1, phi2) on a grid.

    Returns (xs, pdf) with pdf[i, j] = p(xs[i], xs[j]).  The density must be
    non-negative to -1e-10 and integrate to trace(rho); violations signal an
    invalid state or a failing truncation and raise ValueError.
    """
    if rho.dim_a != rho.dim_b:
        raise ValueError("expected equal mode dimensions")
    d = rho.dim_a
    if xs is None:
        span = quadrature_span(rho)
        xs = np.linspace(-span, span, 2 * cells + 1)
    xs = np.asarray(xs, dtype=float)
    psi = oscillator_psi_table(d - 1, xs)
    n = np.arange(d)
    u1 = psi * np.exp(1j * n * phi1)[:, None]
    u2 = psi * np.exp(1j * n * phi2)[:, None]
    t = rho.matrix.reshape(d, d, d, d)
    c1 = np.einsum("ng,Ng,nmNM->gmM", u1, u1.conj(), t, optimize=True)
    pdf = np.einsum("gmM,mh,Mh->gh", c1, u2, u2.conj(), optimize=True)
    if np.abs(pdf.imag).max() > PDF_NEGATIVITY_TOL:
        raise ValueError("joint quadrature density is not real")
    pdf = pdf.real
    if pdf.min() < -PDF_NEGATIVITY_TOL:
        raise ValueError(
            f"joint quadrature density reaches {pdf.min():.3e} < -1e-10; "
            "the state is invalid or the truncation failed")
    return xs, pdf


def oscillator_psi(n: int, x):
    """Single oscillator eigenfunction psi_n(x); see oscillator_psi_table."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return oscillator_psi_table(n, x)[n]
