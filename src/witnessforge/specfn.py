"""Scalar special functions for the tomography kernels.

Quadrature convention everywhere: X_phi = (a^dag e^{i phi} + a e^{-i phi})/2,
so the vacuum quadrature distribution is sqrt(2/pi) exp(-2 x^2) with
variance 1/4.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import dawsn

MAX_OSCILLATOR_INDEX = 4096


def _dawson_terms(x):
    """z = sqrt(2)|x|, D/z with its limit 1 at z = 0, and
    M1 = M(1, 1/2; -z^2) = 1 - 2 z D, where D is Dawson's integral D(z)."""
    x = np.asarray(x, dtype=float)
    z = math.sqrt(2.0) * np.abs(x)
    d = dawsn(z)
    d_over_z = np.divide(d, z, out=np.ones_like(z), where=z > 0.0)
    return z, d_over_z, 1.0 - 2.0 * z * d


def f00(x):
    """Pattern function reconstructing the |0><0| population from homodyne
    outcomes: 2 M(1, 1/2; -2 x^2) = 2 (1 - 2 z D(z)), z = sqrt(2)|x|."""
    _, _, m1 = _dawson_terms(x)
    return 2.0 * m1


def f01(x):
    """Pattern function reconstructing the 0-1 Fock coherence:
    8 x M(2, 3/2; -2 x^2) = 4 x (D(z)/z + 1 - 2 z D(z)), normalized so that
    the weighted overlap integral of psi_0 psi_1 equals exactly 1."""
    x = np.asarray(x, dtype=float)
    _, d_over_z, m1 = _dawson_terms(x)
    return 4.0 * x * (d_over_z + m1)


def f11(x):
    """Pattern function reconstructing the |1><1| population:
    2 [M(1, 1/2; -2 x^2) - 2 M(2, 1/2; -2 x^2)] = 2 (1 + 2 (z^2 - 1) M1),
    by the contiguous relation M(2, 1/2; -u) = (3/2 - u) M1 - 1/2.

    Cancellation in M1 makes the absolute error grow like x^2 times the
    double-precision epsilon: against mpmath it is at most 8e-12 for
    |x| <= 25 and 1.5e-7 at |x| = 1e4."""
    z, _, m1 = _dawson_terms(x)
    return 2.0 * (1.0 + 2.0 * (z * z - 1.0) * m1)


def oscillator_psi_table(n_max: int, x) -> np.ndarray:
    """Harmonic-oscillator position wavefunctions psi_0..psi_n_max at x.

    Uses the stable three-term recurrence on Hermite functions (never raw
    Hermite polynomials), with the scaling fixed by the vacuum variance 1/4:
    psi_0(x)^2 = sqrt(2/pi) exp(-2 x^2).

    Returns an array of shape (n_max + 1,) + shape(x).
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if n_max > MAX_OSCILLATOR_INDEX:
        raise ValueError(
            f"n={n_max} exceeds the supported maximum {MAX_OSCILLATOR_INDEX}")
    x = np.asarray(x, dtype=float)
    q = math.sqrt(2.0) * x
    table = np.empty((n_max + 1,) + x.shape, dtype=float)
    table[0] = (2.0 / math.pi) ** 0.25 * np.exp(-x * x)
    if n_max >= 1:
        table[1] = math.sqrt(2.0) * q * table[0]
    for n in range(2, n_max + 1):
        table[n] = (math.sqrt(2.0 / n) * q * table[n - 1]
                    - math.sqrt((n - 1) / n) * table[n - 2])
    return table


def oscillator_psi(n: int, x):
    """Single oscillator eigenfunction psi_n(x); see oscillator_psi_table."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return oscillator_psi_table(n, x)[n]
