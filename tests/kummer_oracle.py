"""Kummer-series oracle for the pattern functions.

The library evaluates f00, f01 and f11 through Dawson's integral.  This
module keeps the independent route the tests compare against: Kummer's
M(a, b, z) by its Taylor series, evaluated for negative arguments through
the Kummer transformation and, past ``_ASYMPTOTIC_CUTOFF``, by its
large-argument expansion.
"""

from __future__ import annotations

import math

import numpy as np

from witnessforge.linalg import ConvergenceError

_MAX_TERMS = 10_000
_ASYMPTOTIC_CUTOFF = 600.0


def _series_1f1(a: float, b: float, z, rel_tol: float = 1e-16):
    """Taylor series of Kummer's M(a, b, z), vectorized over z >= 0.

    Terms follow t_{k+1} = t_k * (a+k) z / ((b+k)(k+1)); the sum stops once
    two consecutive terms fall below rel_tol relative to the accumulated sum.
    """
    z = np.asarray(z, dtype=float)
    acc = np.ones_like(z)
    term = np.ones_like(z)
    small_streak = 0
    with np.errstate(over="ignore"):  # overflow is detected and raised below
        for k in range(_MAX_TERMS):
            term = term * ((a + k) / ((b + k) * (k + 1))) * z
            acc = acc + term
            if not np.all(np.isfinite(acc)):
                raise ConvergenceError(
                    f"confluent hypergeometric series overflowed for a={a}, "
                    f"b={b}, |z| up to {float(np.max(np.abs(z)))}")
            if np.all(np.abs(term) <= rel_tol * np.maximum(np.abs(acc), 1e-300)):
                small_streak += 1
                if small_streak >= 2:
                    return acc
            else:
                small_streak = 0
    raise ConvergenceError(
        f"confluent hypergeometric series did not converge for a={a}, b={b}")


def _asymptotic_1f1_neg(a: float, b: float, u: float) -> float:
    """Large-argument form of M(a, b, -u) for u >> 1 (exponentially small
    e^{-u} contribution dropped)."""
    try:
        prefactor = math.gamma(b) / math.gamma(b - a)
    except ValueError:  # gamma pole: the algebraic branch vanishes
        return 0.0
    total = 1.0
    term = 1.0
    for k in range(60):
        term *= (a + k) * (a - b + 1 + k) / ((k + 1) * u)
        if abs(term) < 1e-17 * abs(total):
            break
        total += term
    return prefactor * u ** (-a) * total


def chf(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric (Kummer) function M(a, b, z) for real input.

    For negative arguments the series is evaluated through the Kummer
    transformation M(a, b, z) = e^z M(b-a, b, -z), which keeps every term
    of the transformed series on one sign scale and avoids the catastrophic
    cancellation of the directly alternating series.

    Raises:
        ValueError: if b is zero or a negative integer, or |z| > 1e4.
        ConvergenceError: if the series fails to converge.
    """
    if b <= 0 and float(b).is_integer():
        raise ValueError(f"b={b} is a non-positive integer (pole of M)")
    if abs(z) > 1e4:
        raise ValueError(f"|z|={abs(z)} exceeds the supported range 1e4")
    if z == 0.0:
        return 1.0
    if z < 0:
        u = -z
        if u > _ASYMPTOTIC_CUTOFF:
            return _asymptotic_1f1_neg(a, b, u)
        return math.exp(z) * float(_series_1f1(b - a, b, u))
    return float(_series_1f1(a, b, z))


def _chf_neg_vec(a: float, b: float, u: np.ndarray) -> np.ndarray:
    """Vectorized M(a, b, -u) for u >= 0 (Kummer-transformed path)."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    big = u > _ASYMPTOTIC_CUTOFF
    if np.any(big):
        out[big] = [_asymptotic_1f1_neg(a, b, ui) for ui in u[big]]
    rest = ~big
    if np.any(rest):
        out[rest] = np.exp(-u[rest]) * _series_1f1(b - a, b, u[rest])
    return out


def pattern_functions(x):
    """f00, f01 and f11 at x from their Kummer-function definitions:
    2 M(1, 1/2; -2x^2), 8x M(2, 3/2; -2x^2) and
    2 [M(1, 1/2; -2x^2) - 2 M(2, 1/2; -2x^2)]."""
    x = np.asarray(x, dtype=float)
    u = 2.0 * x * x
    m1 = _chf_neg_vec(1.0, 0.5, u)
    return (2.0 * m1,
            8.0 * x * _chf_neg_vec(2.0, 1.5, u),
            2.0 * (m1 - 2.0 * _chf_neg_vec(2.0, 0.5, u)))
