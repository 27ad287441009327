"""Witness construction for depolarized bipartite states in finite dimension.

For the family R(p) = p |Psi>><<Psi| + (1-p)/d^2 I, the partial transpose
has minimum eigenvalue -p s1 s2 + (1-p)/d^2, where s1 >= s2 are the two
largest singular values of Psi.  The corresponding eigenvector does not
depend on p, so a single witness detects the whole family; it decomposes
into one projector-like product term plus three local product observables.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .linalg import (
    SvdResult,
    as_complex_matrix,
    fix_global_phase,
    partial_transpose,
    require_square,
    vectorize,
)
from .states import BipartiteDensity

SCHMIDT_RANK_TOL = 1e-12
NORMALIZATION_TOL = 1e-10
BOUNDARY_TOL = 1e-12

_SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _check_unit_norm(d: int, norm: float) -> None:
    if d < 2:
        raise ValueError(f"dimension d={d}: a bipartite witness needs d >= 2")
    if abs(norm - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"operator not normalized: Hilbert-Schmidt norm {norm}")


def _check_normalized(op: np.ndarray) -> np.ndarray:
    """A unit-norm d x d operator with d >= 2, as a complex matrix."""
    op = as_complex_matrix(op)
    _check_unit_norm(require_square(op), np.linalg.norm(op))
    return op


def _schmidt_coefficients(svd: SvdResult) -> np.ndarray:
    """The singular values of a unit-norm d x d operator with d >= 2, whose
    Hilbert-Schmidt norm is theirs."""
    s = svd.sigma
    _check_unit_norm(s.size, np.linalg.norm(s))
    return s


def _check_mixing_weight(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight p={p} outside [0, 1]")


def depolarized_state(psi: np.ndarray, p: float) -> BipartiteDensity:
    """R = p |Psi>><<Psi| + (1-p)/d^2 I on H (x) H."""
    psi = _check_normalized(psi)
    _check_mixing_weight(p)
    d = psi.shape[0]
    v = vectorize(psi)
    matrix = p * np.outer(v, v.conj()) + (1.0 - p) / d**2 * np.eye(d * d)
    return BipartiteDensity(dim_a=d, dim_b=d, matrix=matrix)


def min_pt_eigenvalue(svd: SvdResult, p: float) -> float:
    """Closed-form minimum eigenvalue of the partial transpose of R(p), from
    the SVD of Psi (``complex_svd(psi)``)."""
    s = _schmidt_coefficients(svd)
    return float(-p * s[0] * s[1] + (1.0 - p) / s.size**2)


def _antisymmetric_core(d: int) -> np.ndarray:
    """Unit-norm antisymmetric seed supported on the top two Schmidt modes."""
    core = np.zeros((d, d), dtype=complex)
    core[0, 1] = 1.0 / np.sqrt(2.0)
    core[1, 0] = -1.0 / np.sqrt(2.0)
    return core


def min_eigvec_operator(svd: SvdResult) -> np.ndarray:
    """Operator A whose vectorization is the minimal-PT-eigenvalue eigenvector,
    from the SVD Psi = X Sigma Y^dagger of Psi (``complex_svd(psi)``).

    A = X B Y^T with B the unit-norm antisymmetric matrix on the two largest
    Schmidt modes; vectorize(A) is an eigenvector of PT(R(p)) with eigenvalue
    min_pt_eigenvalue(svd, p) for every p.  The global phase is fixed so the
    first nonzero component of vectorize(A) is real positive.
    """
    s = _schmidt_coefficients(svd)
    if s[1] <= SCHMIDT_RANK_TOL:
        raise ValueError(
            "Schmidt rank < 2: a product state carries no entanglement to witness")
    abar = svd.x @ _antisymmetric_core(s.size) @ svd.y.T
    return fix_global_phase(abar)


def build_witness(eigvec_op: np.ndarray) -> np.ndarray:
    """Dense witness W = PT(|A>><<A|) from a unit-norm eigenvector operator A.

    The (d^2 x d^2) result is Hermitian with rank 4 and does not depend on
    the mixing weight p of the family it detects.  The commands never form
    it: :func:`depolarized_expectation` reads the traces they need from A.
    """
    a = _check_normalized(eigvec_op)
    d = a.shape[0]
    v = vectorize(a)
    return partial_transpose(np.outer(v, v.conj()), d, d, subsystem="B")


def evaluate_witness(w, rho) -> float:
    """Tr[W rho]; the imaginary part must vanish to 1e-10."""
    wm = as_complex_matrix(w)
    rm = rho.matrix if isinstance(rho, BipartiteDensity) else as_complex_matrix(rho)
    if wm.shape != rm.shape:
        raise ValueError(f"dimension mismatch: {wm.shape} vs {rm.shape}")
    val = np.sum(wm * rm.T)  # Tr[W rho] without forming the product
    if abs(val.imag) > 1e-10:
        raise ValueError(f"Tr[W rho] has imaginary part {val.imag:.3e}; "
                         "inputs are not both Hermitian")
    return float(val.real)


def depolarized_expectation(eigvec_op: np.ndarray,
                            psi: np.ndarray) -> Callable[[float], float]:
    """Tr[W R(p)] as a function of the mixing weight p of the family R(p),
    for the witness W = PT(|A>><<A|) of the eigenvector operator A.

    Tr[W R(p)] = p <<Psi|W|Psi>> + (1-p) Tr W / d^2 is a straight line in p.
    Both traces are read from A in O(d^3), without forming W: the partial
    transpose keeps the trace, so Tr W = |A|^2, and <<Psi|W|Psi>> is the
    Hilbert-Schmidt inner product <Psi A^T, A Psi^T>, which is real for any
    A and Psi.  The returned function rejects p outside [0, 1] as
    :func:`depolarized_state` does.
    """
    a = _check_normalized(eigvec_op)
    psi = _check_normalized(psi)
    if a.shape != psi.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {psi.shape}")
    d = psi.shape[0]
    pure = float(np.vdot(psi @ a.T, a @ psi.T).real)
    flat = float(np.vdot(a, a).real) / d**2

    def expectation(p: float) -> float:
        _check_mixing_weight(p)
        return p * pure + (1.0 - p) * flat

    return expectation


def detection_threshold(svd: SvdResult) -> float:
    """Mixing weight p* above which the witness turns negative, from the SVD
    of Psi (``complex_svd(psi)``).

    p* = 1 / (1 + d^2 s1 s2); at p = p* the expectation is exactly zero and
    the witness is inconclusive.
    """
    s = _schmidt_coefficients(svd)
    if s[1] <= SCHMIDT_RANK_TOL:
        raise ValueError("Schmidt rank < 2: no detection threshold exists")
    return float(1.0 / (1.0 + s.size**2 * s[0] * s[1]))


@dataclass(frozen=True)
class QuorumTerm:
    coefficient: float
    local_a: np.ndarray
    local_b: np.ndarray


@dataclass(frozen=True)
class QuorumDecomposition:
    """Product decomposition of the witness into local measurements.

    ``pauli_terms`` holds exactly three product observables; together with
    the designated projector-like ``identity_term`` their weighted sum
    reconstructs the witness matrix exactly.
    """

    identity_term: QuorumTerm
    pauli_terms: tuple

    @property
    def terms(self) -> tuple:
        return (self.identity_term,) + self.pauli_terms


def _embed_two_level(op2: np.ndarray, d: int) -> np.ndarray:
    out = np.zeros((d, d), dtype=complex)
    out[:2, :2] = op2
    return out


def quorum_decompose(svd: SvdResult) -> QuorumDecomposition:
    """Decompose the witness for Psi into three local observables plus a
    projector-like term, from the SVD Psi = X Sigma Y^dagger
    (``complex_svd(psi)``).

    With X' = X Y^T and the embedded two-level operators
    s_alpha = Y* (sigma_alpha (+) 0) Y^T, the witness takes the form
    W = 1/2 sum_alpha (Q s_alpha Q^dagger) (x) s_alpha over alpha in
    {t, x, y, z}, where Q = X' s_y / sqrt(2) and s_t is the rank-2 projector
    onto the two-level subspace.  Only the x, y, z terms require measuring
    a non-trivial observable on the second subsystem.
    """
    s = _schmidt_coefficients(svd)
    if s[1] <= SCHMIDT_RANK_TOL:
        raise ValueError("Schmidt rank < 2: nothing to decompose")
    d = s.size
    y_conj = svd.y.conj()
    xprime = svd.x @ svd.y.T

    def embedded(op2):
        return y_conj @ _embed_two_level(op2, d) @ svd.y.T

    s_t = embedded(np.eye(2, dtype=complex))
    q = xprime @ embedded(_SIGMA["y"]) / np.sqrt(2.0)

    def local_pair(s_alpha):
        local_a = q @ s_alpha @ q.conj().T
        return QuorumTerm(0.5, (local_a + local_a.conj().T) / 2, s_alpha)

    identity_term = local_pair(s_t)
    pauli_terms = tuple(local_pair(embedded(_SIGMA[axis])) for axis in "xyz")
    return QuorumDecomposition(identity_term=identity_term,
                               pauli_terms=pauli_terms)
