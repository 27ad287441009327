"""Checks, samplers and readers that only the tests call.

The library's commands and samplers never need them, so they live here:
the density-operator check ``validate``, Haar-random product vectors, the
quorum's weighted sum of products, the product of an SVD's factors, the
report writer's oracle, the batch CSV reader and the analytic
partial-transpose spectrum of the phase-noisy twin beam.
"""

from __future__ import annotations

import json

import numpy as np

TOL = 1e-10


def validate(rho):
    """Check Hermiticity, trace window and positivity of a
    ``BipartiteDensity`` to TOL; raise ValueError on failure, else return
    rho."""
    defect = float(np.abs(rho.matrix - rho.matrix.conj().T).max())
    if defect > TOL:
        raise ValueError(f"density not Hermitian: defect {defect:.3e}")
    tr = np.trace(rho.matrix)
    if abs(tr.imag) > TOL:
        raise ValueError(f"density trace not real: {tr}")
    lo = 1.0 - rho.trace_deficit - 1e-12
    if not (lo <= tr.real <= 1.0 + 1e-12):
        raise ValueError(
            f"trace {tr.real} outside [{lo}, 1] for recorded "
            f"deficit {rho.trace_deficit:.3e}")
    w = np.linalg.eigvalsh((rho.matrix + rho.matrix.conj().T) / 2)
    if w[0] < -TOL:
        raise ValueError(f"density has negative eigenvalue {w[0]:.3e}")
    return rho


def random_product_state(dim_a: int, dim_b: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Haar-random product vector |a>|b> via normalized complex Gaussians."""
    a = rng.standard_normal(dim_a) + 1j * rng.standard_normal(dim_a)
    b = rng.standard_normal(dim_b) + 1j * rng.standard_normal(dim_b)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    return np.kron(a, b)


def reconstruct(decomposition) -> np.ndarray:
    """The weighted sum of the products of a ``QuorumDecomposition``, which
    is the witness matrix."""
    total = None
    for t in decomposition.terms:
        contrib = t.coefficient * np.kron(t.local_a, t.local_b)
        total = contrib if total is None else total + contrib
    return total


def svd_product(svd) -> np.ndarray:
    """x @ diag(sigma) @ y^dagger of a ``linalg.SvdResult``: the matrix
    it decomposes."""
    return (svd.x * svd.sigma) @ svd.y.conj().T


def report_oracle(payload: dict, text: str) -> str:
    """The bytes ``json.dumps`` gives for the report ``formats.dump_report``
    wrote as text: the payload plus the timestamp read back from the
    text."""
    body = dict(payload)
    body["timestamp"] = json.loads(text)["timestamp"]
    return json.dumps(body, indent=2, sort_keys=True, allow_nan=False) + "\n"


def batch_rows_from_csv(path: str) -> np.ndarray:
    """The rows of a batch file as a 1-d array with fields phi1, x1, phi2
    and x2; ``genfromtxt`` alone would squeeze a one-row file to 0-d."""
    return np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))


def pt_spectrum_analytic(x: float, gamma_t: float, n_max: int) -> np.ndarray:
    """All (n_max+1)^2 PT eigenvalues of the truncated phase-noisy twin beam,
    sorted ascending: (1-x^2) x^(2n) of the eigenvector |nn>, and
    +/- (1-x^2) x^(n+m) exp(-gamma_t (n-m)^2) of (|nm> +/- |mn>)/sqrt(2)
    for n < m."""
    diagonal = (1.0 - x * x) * x ** (2 * np.arange(n_max + 1))
    # the exponential only off the diagonal: gamma_t = inf gives exact zeros
    # there instead of exp(-inf * 0) = NaN on it
    n, m = np.triu_indices(n_max + 1, 1)
    pair = (1.0 - x * x) * x ** (n + m) * np.exp(-gamma_t * (n - m) ** 2)
    return np.sort(np.concatenate([diagonal, pair, -pair]))
