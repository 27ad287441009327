"""Generate ``src/witnessforge/_dawson_poly.py``, the polynomial
coefficients that ``witnessforge.specfn`` evaluates below z = 10.

Two even, entire functions of z = sqrt(2)|x| are fitted:

    g(z) = D(z)/z = M(1, 3/2; -z^2)         (D is Dawson's integral)
    q(z) = g + 1 - 2 z D = 2 M(2, 3/2; -z^2) = f01(x) / (4x).

Fitting g rather than D keeps the relative accuracy of D as z -> 0.  q is
fitted as well because forming it from g cancels: near z = 10, q ~ -1/(2z^4)
is the difference of two terms of size 1/(2z^2), which would cost f01 and
f11 up to 1.5e-11 of relative accuracy.

[0, SWITCH] is cut into N_INTERVALS equal intervals; on interval k,
z = (2k + 1 + t) SWITCH / (2 N_INTERVALS) with t in [-1, 1].  Each function
is interpolated at the DEGREE + 1 Chebyshev nodes of t in 50-digit
arithmetic, then rewritten in powers of t for Horner evaluation.

Requires mpmath, which the package does not depend on; the ``tools`` extra
installs it (``pip install -e .[tools]``).  Run from the repository root:

    python tools/dawson_coefficients.py > src/witnessforge/_dawson_poly.py

It also prints, on stderr, the largest error of each fit evaluated in
double precision from the rounded coefficients, against mpmath at 41
points of each interval: relative for g, absolute for q (which has a zero).
"""

from __future__ import annotations

import sys
import textwrap

import mpmath as mp

N_INTERVALS = 64
DEGREE = 10
SWITCH = 10
mp.mp.dps = 50


def g(z):
    return mp.hyp1f1(1, mp.mpf(3) / 2, -z * z)


def q(z):
    return 2 * mp.hyp1f1(2, mp.mpf(3) / 2, -z * z)


def interval_monomials(f, k: int) -> list:
    """Coefficients in powers of t of the Chebyshev interpolant of f on
    interval k."""
    n = DEGREE + 1
    half = mp.mpf(SWITCH) / (2 * N_INTERVALS)
    angles = [mp.pi * (j + mp.mpf(1) / 2) / n for j in range(n)]
    values = [f(half * (2 * k + 1 + mp.cos(a))) for a in angles]
    cheb = [sum(v * mp.cos(m * a) for v, a in zip(values, angles))
            * (1 if m == 0 else 2) / n for m in range(n)]
    # T_m in powers of t: T_0 = 1, T_1 = t, T_{m+1} = 2t T_m - T_{m-1}
    mono = [mp.mpf(0)] * n
    prev, cur = [mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]
    for m in range(n):
        for j, c in enumerate(prev if m == 0 else cur):
            mono[j] += cheb[m] * c
        if m >= 1:
            nxt = [mp.mpf(0)] + [2 * c for c in cur]
            for j, c in enumerate(prev):
                nxt[j] -= c
            prev, cur = cur, nxt
    return [float(c) for c in mono]


def max_error(f, table: list, relative: bool) -> float:
    worst = 0.0
    for k, coeffs in enumerate(table):
        for i in range(41):
            t = -1.0 + i / 20
            p = 0.0
            for c in reversed(coeffs):
                p = p * t + c
            z = (2 * k + 1 + mp.mpf(t)) * mp.mpf(SWITCH) / (2 * N_INTERVALS)
            exact = f(z)
            err = abs(p - exact) / (abs(exact) if relative else 1)
            worst = max(worst, float(err))
    return worst


def literal(name: str, table: list) -> str:
    lines = [f"{name} = np.array(["]
    for j in range(DEGREE + 1):
        body = ", ".join(repr(row[j]) for row in table)
        lines.append(f"    [  # t^{j}")
        lines.append(textwrap.fill(body, width=79, initial_indent=" " * 8,
                                   subsequent_indent=" " * 8))
        lines.append("    ],")
    lines.append("])")
    return "\n".join(lines)


def main() -> None:
    g_table = [interval_monomials(g, k) for k in range(N_INTERVALS)]
    q_table = [interval_monomials(q, k) for k in range(N_INTERVALS)]
    print(f'''"""Polynomial coefficients of g(z) = D(z)/z, D being Dawson's integral, and
of q(z) = 2 M(2, 3/2; -z^2) on [0, {SWITCH}].

Generated by ``tools/dawson_coefficients.py``; do not edit.  On interval k
of {N_INTERVALS}, z = (2k + 1 + t) * {SWITCH} / {2 * N_INTERVALS} with t in [-1, 1]; row j of
each array holds the t^j coefficient of every interval.
"""

import numpy as np

SWITCH = {float(SWITCH)!r}

{literal("G_POLY", g_table)}

{literal("Q_POLY", q_table)}''')
    print(f"max relative error of g: {max_error(g, g_table, True):.2e}",
          file=sys.stderr)
    print(f"max absolute error of q: {max_error(q, q_table, False):.2e}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
