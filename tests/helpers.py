"""Checks, samplers and readers that only the tests call.

The library's commands and samplers never need them, so they live here:
the density-operator check ``validate``, Haar-random product vectors, the
quorum's weighted sum of products, the dense d x d route to the witness's
eigenvector operator and quorum, the product of an SVD's factors, the
report writer's oracle, the batch CSV reader, the analytic
partial-transpose spectrum of the phase-noisy twin beam and the
index-difference blocks of a dense state.
"""

from __future__ import annotations

import json

import numpy as np

from witnessforge.cv import DifferenceBlocks, _block_index
from witnessforge.linalg import fix_global_phase

TOL = 1e-10
PAULI = {
    "t": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


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
    terms = decomposition.terms
    d_a, d_b = terms[0].local_a.shape[0], terms[0].local_b.shape[0]
    # kron(a, b)[(i, j), (k, l)] = a[i, k] b[j, l], summed in one array
    total = np.zeros((d_a, d_b, d_a, d_b), dtype=complex)
    for t in terms:
        total += np.multiply.outer(t.coefficient * t.local_a,
                                   t.local_b).transpose(0, 2, 1, 3)
    return total.reshape(d_a * d_b, d_a * d_b)


def _embed_two_level(op2: np.ndarray, d: int) -> np.ndarray:
    """The d x d matrix op2 (+) 0."""
    out = np.zeros((d, d), dtype=complex)
    out[:2, :2] = op2
    return out


def dense_eigvec_operator(svd) -> np.ndarray:
    """A = X B Y^T of a ``linalg.SvdResult`` Psi = X Sigma Y^dagger, with B
    the d x d unit-norm antisymmetric matrix on the two leading Schmidt
    modes, by d x d products and with the global phase fixed: the dense
    oracle of ``witness_finite.min_eigvec_operator``."""
    d = svd.sigma.size
    core = _embed_two_level(
        np.array([[0, 1], [-1, 0]], dtype=complex) / np.sqrt(2.0), d)
    return fix_global_phase(svd.x @ core @ svd.y.T)


def dense_quorum_locals(svd) -> list:
    """(local_a, local_b) of the t, x, y, z quorum terms by d x d products:
    with s_alpha = Y* (sigma_alpha (+) 0) Y^T and Q = X Y^T s_y / sqrt(2),
    local_a = Q s_alpha Q^dagger, made Hermitian, and local_b = s_alpha.
    The dense oracle of ``witness_finite.quorum_decompose``."""
    d = svd.sigma.size

    def embedded(axis):
        return svd.y.conj() @ _embed_two_level(PAULI[axis], d) @ svd.y.T

    q = svd.x @ svd.y.T @ embedded("y") / np.sqrt(2.0)
    pairs = []
    for axis in "txyz":
        s_alpha = embedded(axis)
        local_a = q @ s_alpha @ q.conj().T
        pairs.append(((local_a + local_a.conj().T) / 2, s_alpha))
    return pairs


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


def difference_blocks(rho) -> DifferenceBlocks | None:
    """The index-difference blocks of a dense state, or None if rho has
    an element off n - n' = m - m'.  The blocks are real when rho is."""
    d = rho.dim_a
    if rho.dim_b != d:
        return None
    m = rho.matrix
    index = [_block_index(d, j) for j in range(d)]
    off = np.ones(m.shape, dtype=bool)
    for rows, cols in index:
        off[rows, cols] = off[cols, rows] = False
    if np.any(m[off]):
        return None
    real = not np.any(m.imag)
    return DifferenceBlocks(tuple(m[rows, cols].real if real
                                  else m[rows, cols]
                                  for rows, cols in index), rho.trace_deficit)
