"""Closed forms of the Gaussian twin beam that only the tests read: its mean
photon number, criterion 9's PPT oracle from its covariance matrix, and
the Gaussian law of its quadratures at fixed phases."""

import numpy as np
from scipy.special import ndtr


def twb_mean_photons(x: float) -> float:
    """Average total photon number 2 x^2 / (1 - x^2) of the twin beam."""
    return 2.0 * x * x / (1.0 - x * x)


def _min_pt_symplectic_eigenvalue(x, kappa):
    """Smallest symplectic eigenvalue of the partially transposed covariance
    matrix of a twin beam under displacement noise kappa, built directly in
    the (X_a, P_a, X_b, P_b) ordering with vacuum variance 1/4."""
    c, s = (1 + x * x) / (1 - x * x), 2 * x / (1 - x * x)
    cov = 0.25 * np.array([[c, 0, s, 0], [0, c, 0, -s],
                           [s, 0, c, 0], [0, -s, 0, c]])
    cov += 0.5 * kappa * np.eye(4)
    flip = np.diag([1.0, 1.0, 1.0, -1.0])        # P_b -> -P_b
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    return float(np.abs(np.linalg.eigvals(1j * omega @ flip @ cov @ flip)).min())


def _ppt_boundary(x):
    """kappa at which the smallest PT symplectic eigenvalue reaches the
    vacuum value 1/4 (Simon, PRL 84, 2726 (2000)), by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _min_pt_symplectic_eigenvalue(x, mid) < 0.25:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def twb_covariance(x: float, phase_sum):
    """Var and Cov of the twin beam's quadratures (x1, x2) at local
    oscillator phases of sum phase_sum: Var = (1 + x^2)/(4(1 - x^2)) and
    Cov = x cos(phase_sum)/(2(1 - x^2)), vacuum variance 1/4.  This is the
    law that ``stream_twin_beam`` draws without noise."""
    var = (1.0 + x * x) / (4.0 * (1.0 - x * x))
    return var, x * np.cos(phase_sum) / (2.0 * (1.0 - x * x))


def twb_marginal_cdf(x: float, t):
    """CDF at t of either quadrature of the twin beam, N(0, Var)."""
    var, _ = twb_covariance(x, 0.0)
    return ndtr(np.asarray(t) / np.sqrt(var))


def twb_conditional_cdf(x: float, phase_sum, x1, t):
    """CDF at t of x2 given x1 for the twin beam at phases of sum
    phase_sum: N(Cov/Var x1, Var - Cov^2/Var)."""
    var, cov = twb_covariance(x, phase_sum)
    mean = cov / var * x1
    return ndtr((np.asarray(t) - mean) / np.sqrt(var - cov * cov / var))
