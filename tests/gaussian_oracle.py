"""Closed forms of the Gaussian twin beam that only the tests read: its mean
photon number, and criterion 9's PPT oracle from its covariance matrix."""

import numpy as np


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
