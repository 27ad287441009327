"""Scalar special functions for the tomography kernels.

Quadrature convention everywhere: X_phi = (a^dag e^{i phi} + a e^{-i phi})/2,
so the vacuum quadrature distribution is sqrt(2/pi) exp(-2 x^2) with
variance 1/4.
"""

from __future__ import annotations

import math

import numpy as np

from ._dawson_poly import G_POLY, Q_POLY, SWITCH

MAX_OSCILLATOR_INDEX = 4096

_CHUNK = 8192  # points per pass: every temporary is one 64 KiB array
# g + i q: one Horner recurrence evaluates both fits
_POLY = G_POLY + 1j * Q_POLY
_INTERVALS = G_POLY.shape[1]
_SCALE = 2 * _INTERVALS / SWITCH  # z -> 2k + 1 + t on interval k

# Above z = SWITCH, with w = 1/(2 z^2) = 1/(4 x^2) and (2k-1)!! = _ODD[k-1],
# from the asymptotic series of Dawson's integral (DLMF 7.12; Cody,
# Math. Comp. 24, 171 (1970)):
#   f00 = -2 sum_{k>=1} (2k-1)!! w^k
#   f01 = -(1/x) sum_{k>=1} (2k-1)!! 2k w^k
#   f11 = -2 sum_{k>=1} (2k-1)!! (2k-1) w^k
# so that no leading term cancels.  16 terms reach double precision there.
_K = np.arange(1.0, 17.0)
_ODD = np.cumprod(2.0 * _K - 1.0)
_SERIES_F00 = -2.0 * _ODD
_SERIES_F01 = -2.0 * _K * _ODD
_SERIES_F11 = -2.0 * _ODD * (2.0 * _K - 1.0)


def _horner(coeffs, t):
    """sum_j coeffs[j] t^j; each coeffs[j] is a scalar or has t's shape."""
    p = np.zeros_like(t)
    for c in coeffs[::-1]:
        p *= t
        p += c
    return p


def _near(x, z, out):
    """f00, f01, f11 into the rows of out for z = sqrt(2)|x| < SWITCH,
    from the interpolating polynomials of z's interval, evaluated in t in
    [-1, 1], of g = D(z)/z and q = g + M1 = f01/(4x), where
    M1 = M(1, 1/2; -z^2) = 1 - 2 z D.  q has its own fit because g + M1
    cancels as z grows.

    Both run as one Horner recurrence on g + i q, reading one complex
    coefficient row per step.  t is real, so each complex product rounds
    its real and imaginary parts as the real products would, and the
    recurrence starts from the top row, which is _horner's 0 t + c exactly
    since no coefficient is zero: g and q keep the bits of two real
    _horner evaluations."""
    u = z * _SCALE
    k = np.minimum(u.astype(np.intp) >> 1, _INTERVALS - 1)
    t = (u - (2 * k + 1)).astype(complex)
    p = _POLY[-1].take(k)
    for row in _POLY[-2::-1]:
        p *= t
        p += row.take(k)
    g, q = p.real, p.imag
    m1 = q - g
    f00, f01, f11 = out
    np.multiply(2.0, m1, out=f00)
    np.multiply(4.0, x, out=f01)
    f01 *= q
    # 2 + 4 (z^2 - 1) M1, each operation in the order written
    np.multiply(z, z, out=f11)
    f11 -= 1.0
    f11 *= 4.0
    f11 *= m1
    f11 += 2.0


def _far(x):
    """f00, f01, f11 for z >= SWITCH (or NaN), from their series in w."""
    w = (0.5 / x) ** 2
    return (w * _horner(_SERIES_F00, w), w / x * _horner(_SERIES_F01, w),
            w * _horner(_SERIES_F11, w))


def pattern_functions(x):
    """The pattern functions (f00(x), f01(x), f11(x)), each of x's shape.

    With z = sqrt(2)|x|, Dawson's integral D(z) and
    M1 = M(1, 1/2; -2 x^2) = 1 - 2 z D(z):

    - f00 = 2 M1 reconstructs the |0><0| population from homodyne outcomes;
    - f01 = 8 x M(2, 3/2; -2 x^2) = 4 x (D(z)/z + M1) reconstructs the 0-1
      Fock coherence, normalized so that the weighted overlap integral of
      psi_0 psi_1 equals exactly 1;
    - f11 = 2 [M1 - 2 M(2, 1/2; -2 x^2)] = 2 (1 + 2 (z^2 - 1) M1)
      reconstructs the |1><1| population, by the contiguous relation
      M(2, 1/2; -u) = (3/2 - u) M1 - 1/2.

    Dawson's integral is evaluated once per point and shared by all three:
    from piecewise polynomials of D(z)/z and f01/(4x) below z = 10, and from
    each function's own asymptotic series above.  At x = +-inf all three
    are 0; NaN propagates.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    out = np.empty((3, flat.size))
    for start in range(0, flat.size, _CHUNK):
        xs = flat[start:start + _CHUNK]
        block = out[:, start:start + _CHUNK]
        z = math.sqrt(2.0) * np.abs(xs)
        near = z < SWITCH  # False for NaN, whose series stays NaN
        if near.all():
            _near(xs, z, block)
        else:
            far = ~near
            part = np.empty((3, np.count_nonzero(near)))
            _near(xs[near], z[near], part)
            block[:, near] = part
            block[:, far] = _far(xs[far])
    return tuple(f.reshape(x.shape)[()] for f in out)


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

