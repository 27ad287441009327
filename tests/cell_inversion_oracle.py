"""Bisection oracle for the sampler's cell inversion.

``witnessforge.tomography._invert_cells`` solves the Simpson cubic of one
grid cell by a few safeguarded Newton steps.  This module keeps the
independent route the tests compare against: 42 steps of plain vectorized
bisection on [0, 2], which is unconditionally robust.  Every midpoint
lo + step is a dyadic number of at most 43 bits, so it is exact, and the
result lies within 2^-42 of a point where the cubic crosses the residual.
"""

from __future__ import annotations

import numpy as np


def cell_integral(p0, p1, p2, t):
    """F(t) = int_0^t of the quadratic through (0, p0), (1, p1), (2, p2)."""
    a = p0
    b = p1 - 0.75 * p0 - 0.25 * p2
    c = (p0 - 2.0 * p1 + p2) / 6.0
    return t * (a + t * (b + t * c))


def invert_cells_by_bisection(p0, p1, p2, residual, n_steps: int = 42):
    """Solve for t in [0, 2] with F(t) = residual by bisection."""
    a = p0
    b = p1 - 0.75 * p0 - 0.25 * p2
    c = (p0 - 2.0 * p1 + p2) / 6.0
    lo = np.zeros_like(residual)
    step = 1.0
    for _ in range(n_steps):
        t = lo + step
        lo = np.where(t * (a + t * (b + t * c)) > residual, lo, t)
        step *= 0.5
    return lo + step
