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
    require_square,
)
from .states import BipartiteDensity

SCHMIDT_RANK_TOL = 1e-12
NORMALIZATION_TOL = 1e-10
BOUNDARY_TOL = 1e-12

_SIGMA = {
    "t": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# the unit-norm antisymmetric (singlet) matrix on the two leading modes
_SINGLET = np.array([[0, 1], [-1, 0]], dtype=complex) / np.sqrt(2.0)


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
    v = psi.reshape(-1)
    matrix = p * np.outer(v, v.conj()) + (1.0 - p) / d**2 * np.eye(d * d)
    return BipartiteDensity(dim_a=d, dim_b=d, matrix=matrix)


def min_pt_eigenvalue(svd: SvdResult, p: float) -> float:
    """Closed-form minimum eigenvalue of the partial transpose of R(p), from
    the SVD of Psi (``complex_svd(psi)``)."""
    s = _schmidt_coefficients(svd)
    return float(-p * s[0] * s[1] + (1.0 - p) / s.size**2)


def _leading_pairs(svd: SvdResult,
                   message: str) -> tuple[np.ndarray, np.ndarray]:
    """The two leading Schmidt vectors X2 = X[:, :2] and Y2 = Y[:, :2] of a
    unit-norm Psi = X Sigma Y^dagger; ValueError(message) if Psi has
    Schmidt rank < 2, which leaves no entanglement to witness."""
    s = _schmidt_coefficients(svd)
    if s[1] <= SCHMIDT_RANK_TOL:
        raise ValueError(message)
    return svd.x[:, :2], svd.y[:, :2]


def min_eigvec_operator(svd: SvdResult) -> np.ndarray:
    """Operator A whose vectorization is the minimal-PT-eigenvalue eigenvector,
    from the SVD Psi = X Sigma Y^dagger of Psi (``complex_svd(psi)``).

    A = X2 S Y2^T with S = [[0, 1], [-1, 0]]/sqrt(2) the unit-norm
    antisymmetric matrix on the two largest Schmidt modes; |A>> =
    A.reshape(-1) is an eigenvector of PT(R(p)) with eigenvalue
    min_pt_eigenvalue(svd, p) for every p.  The global phase is fixed so
    the first nonzero component of |A>> is real positive.
    """
    x2, y2 = _leading_pairs(svd, "Schmidt rank < 2: a product state carries "
                                 "no entanglement to witness")
    return fix_global_phase(x2 @ _SINGLET @ y2.T)


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
    _leading_pairs(svd, "Schmidt rank < 2: no detection threshold exists")
    s = svd.sigma
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


def quorum_decompose(svd: SvdResult) -> QuorumDecomposition:
    """Decompose the witness for Psi into three local observables plus a
    projector-like term, from the SVD Psi = X Sigma Y^dagger
    (``complex_svd(psi)``).

    The witness is the two-qubit one embedded by the two leading Schmidt
    pairs X2 = X[:, :2] and Y2 = Y[:, :2]: W = 1/2 sum_alpha
    X2 (s_y s_alpha s_y / 2) X2^dagger (x) Y2* s_alpha Y2^T over alpha in
    {t, x, y, z}, where s_t is the 2 x 2 identity (so the t term's second
    factor is the rank-2 projector onto the two-level subspace) and
    s_y s_alpha s_y = +s_alpha for t and y, -s_alpha for x and z.  Only the
    x, y, z terms require measuring a non-trivial observable on the second
    subsystem.
    """
    x2, y2 = _leading_pairs(svd, "Schmidt rank < 2: nothing to decompose")

    def local_pair(axis):
        flipped = _SIGMA["y"] @ _SIGMA[axis] @ _SIGMA["y"] / 2
        local_a = x2 @ flipped @ x2.conj().T
        local_b = y2.conj() @ _SIGMA[axis] @ y2.T
        return QuorumTerm(0.5, (local_a + local_a.conj().T) / 2, local_b)

    return QuorumDecomposition(identity_term=local_pair("t"),
                               pauli_terms=tuple(map(local_pair, "xyz")))
