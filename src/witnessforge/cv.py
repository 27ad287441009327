"""Twin-beam states on a truncated two-mode Fock space, their noisy
relatives, and the continuous-variable witness.

The paper's three twin-beam families (plain, phase-diffused and
Gauss-noisy) are Gaussian, and the witness expectation, the separability
threshold and the sum-mode variance of each are given here in closed form.
The Fock-space states live on levels 0..n_max per mode and are kept as
their index-difference blocks (:class:`DifferenceBlocks`); their dense
views feed the homodyne sampler, which takes any two-mode state, and the
tests.  Truncated states are not renormalized; the neglected weight is
carried as ``trace_deficit`` metadata.  Quadrature convention:
X = (a^dag + a)/2 with vacuum variance 1/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import BipartiteDensity


class TruncationError(RuntimeError):
    """Population leaked past the configured Fock truncation."""


@dataclass(frozen=True)
class FockTruncation:
    """Highest retained Fock index per mode.  The weight a state loses to
    the truncation is carried by the state, as its ``trace_deficit``."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")

    @property
    def dim(self) -> int:
        return self.n_max + 1

    @classmethod
    def for_twb(cls, x: float, tol: float = 1e-10) -> "FockTruncation":
        """Smallest truncation with x^(2(n_max+1)) < tol."""
        if not 0.0 <= x < 1.0:
            raise ValueError(f"twin-beam parameter x={x} outside [0, 1)")
        if not 0.0 < tol < 1.0:
            raise ValueError("tol must be finite and in (0, 1)")
        if x == 0.0:
            return cls(n_max=1)
        n_max = max(1, math.ceil(math.log(tol) / (2.0 * math.log(x))) - 1)
        while x ** (2 * (n_max + 1)) >= tol:
            n_max += 1
        return cls(n_max=n_max)


MAX_TWO_MODE_LEVELS = 128  # levels per mode; one dense copy past this is not desk scale


def _check_levels(dim: int):
    if dim > MAX_TWO_MODE_LEVELS:
        raise ValueError(
            f"two-mode truncation with {dim} levels per mode exceeds the "
            f"supported scale ({MAX_TWO_MODE_LEVELS}); pick a smaller "
            "truncation")


def _check_twb_params(x: float, trunc: FockTruncation):
    if not 0.0 <= x < 1.0:
        raise ValueError(f"twin-beam parameter x={x} outside [0, 1)")
    _check_levels(trunc.dim)
    tail = x ** (2 * trunc.dim)
    if tail >= 1e-3:
        raise TruncationError(
            f"truncation n_max={trunc.n_max} keeps only {1 - tail:.6f} of the "
            f"state weight for x={x}")
    return tail


def _check_gamma_t(gamma_t: float):
    if math.isnan(gamma_t) or gamma_t < 0:
        raise ValueError(f"gamma_t must be non-negative (inf allowed), "
                         f"got {gamma_t}")


def _check_kappa(kappa: float):
    if not (math.isfinite(kappa) and kappa >= 0):
        raise ValueError(f"kappa must be finite and non-negative, got {kappa}")


# -- index-difference blocks --------------------------------------------------

def _block_index(d: int, j: int):
    """Flat (row, column) positions of B_j[i, l] in the (d^2, d^2) matrix."""
    i, l = np.indices((d - j, d - j))
    return (i + j) * d + l + j, i * d + l


@dataclass(frozen=True)
class DifferenceBlocks:
    """A two-mode state supported on n - n' = m - m', kept as its blocks
    B_j[i, l] = rho_{(i+j)(l+j), il} for j = 0..d-1.

    B_j is (d-j) x (d-j).  The elements with n - n' = -j are conj(B_j[i, l])
    by Hermiticity, and B_0 holds the joint populations.  The twin beam, its
    phase-diffused and Gauss-noisy relatives and every output of a
    phase-covariant channel have this support; their blocks hold about d^3/3
    numbers where the dense matrix holds d^4.  ``trace_deficit`` is the
    weight lost to truncation, as on :class:`BipartiteDensity`.
    """

    blocks: tuple
    trace_deficit: float = 0.0

    @property
    def dim(self) -> int:
        return self.blocks[0].shape[0]

    def density(self) -> BipartiteDensity:
        """The dense (d^2, d^2) matrix, after checking its size."""
        d = self.dim
        _check_levels(d)
        m = np.zeros((d * d, d * d), dtype=complex)
        for j, block in enumerate(self.blocks):
            rows, cols = _block_index(d, j)
            m[cols, rows] = block.conj()
            m[rows, cols] = block  # the only write at j = 0
        return BipartiteDensity(dim_a=d, dim_b=d, matrix=m,
                                trace_deficit=self.trace_deficit)


def twin_beam_blocks(x: float, trunc: FockTruncation,
                     gamma_t: float = 0.0) -> DifferenceBlocks:
    """Twin beam with amplitudes sqrt(1-x^2) x^n on |nn>, after phase
    diffusion of strength gamma_t on both modes.

    Every block is diagonal: B_j[i, i] = (1-x^2) x^(2i+j) exp(-gamma_t j^2)
    is the coherence between |i+j, i+j> and |ii>.
    """
    _check_gamma_t(gamma_t)
    tail = _check_twb_params(x, trunc)
    d = trunc.dim
    n = np.arange(d)
    # the decay only off j = 0: gamma_t = inf gives exact zeros there
    # instead of inf * 0 = NaN at j = 0
    decay = np.ones(d)
    decay[1:] = np.exp(-gamma_t * n[1:] ** 2)
    blocks = tuple(np.diag((1.0 - x * x) * x ** (2 * n[: d - j] + j) * decay[j])
                   for j in range(d))
    return DifferenceBlocks(blocks, tail)


def twb_state(x: float, trunc: FockTruncation) -> BipartiteDensity:
    """Twin-beam (two-mode squeezed vacuum): amplitudes sqrt(1-x^2) x^n on |nn>."""
    return twin_beam_blocks(x, trunc).density()


# -- the continuous-variable witness ----------------------------------------

def cv_witness(trunc: FockTruncation) -> np.ndarray:
    """Witness (|01><01| + |10><10| - |00><11| - |11><00|)/2 embedded in the
    truncated two-mode space.

    Equals the partial transpose of the projector onto (|01> - |10>)/sqrt(2);
    nonzero eigenvalues are {1/2, 1/2, 1/2, -1/2} (rank 4).
    """
    d = trunc.dim
    if d < 2:
        raise ValueError("cv witness needs n_max >= 1")
    w = np.zeros((d * d, d * d), dtype=complex)
    i00, i01, i10, i11 = 0, 1, d, d + 1
    w[i01, i01] = 0.5
    w[i10, i10] = 0.5
    w[i00, i11] = -0.5
    w[i11, i00] = -0.5
    return w


def phase_witness_expectation(x: float, gamma_t: float) -> float:
    """Closed-form Tr[R(t) W] = -(1-x^2) x exp(-gamma_t) for the phase-noisy
    twin beam: negative for every x in (0,1), so phase noise alone never
    destroys the entanglement.  It is the minimum PT eigenvalue, attained at
    (n, m) = (0, 1).  1 - x^2 is taken as (1 - x)(1 + x), which keeps its
    relative accuracy as x -> 1."""
    if not 0.0 <= x < 1.0:
        raise ValueError(f"x={x} outside [0, 1)")
    _check_gamma_t(gamma_t)
    return -(1.0 - x) * (1.0 + x) * x * math.exp(-gamma_t)


# -- witness expectation under amplitude noise -------------------------------

def gauss_witness_expectation(x: float, kappa: float) -> float:
    """Tr[R_kappa W] for the twin beam sent through Gaussian amplitude noise
    on both modes, in closed form:

        (1 - x^2) N / Q^2,  N = (1 - x^2) kappa^2 + (1 + x^2) kappa - x,
                            Q = (1 + kappa)^2 - x^2 kappa^2.

    At x = 0 this is kappa / (1 + kappa)^3, the witness on a product of two
    thermal states; at kappa = 0 it is -(1 - x^2) x.  N and Q are evaluated
    scaled by (1 + kappa)^-2, so a large finite kappa cannot overflow them,
    and 1 - x^2 as (1 - x)(1 + x), which keeps its relative accuracy as
    x -> 1.
    """
    if not 0.0 <= x < 1.0:
        raise ValueError(f"x={x} outside [0, 1)")
    _check_kappa(kappa)
    c = 1.0 / (1.0 + kappa)
    s = kappa * c
    one_minus_x2 = (1.0 - x) * (1.0 + x)
    numerator = one_minus_x2 * s * s + (1.0 + x * x) * s * c - x * c * c
    q = 1.0 - x * x * s * s
    return one_minus_x2 * c * c * numerator / (q * q)


@dataclass(frozen=True)
class GaussThreshold:
    """Noise strength at which the witness expectation changes sign.

    ``kappa_star = x/(1+x)`` is the positive root of the numerator of
    :func:`gauss_witness_expectation`.  ``stated_reference`` is not the
    crossing: it holds the stated reference 1 - (1-x)/(2(1+x)), which is
    written for a noise parameter one half quantum above this module's
    kappa and so equals x/(1+x) + 1/2, i.e. kappa_star + 1/2.
    """

    kappa_star: float
    stated_reference: float


def gauss_separability_threshold(x: float) -> GaussThreshold:
    """Closed-form sign change kappa_star = x/(1+x) of the witness
    expectation in kappa."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"x={x} outside (0, 1)")
    stated = 1.0 - 0.5 * (1.0 - x) / (1.0 + x)
    return GaussThreshold(kappa_star=x / (1.0 + x), stated_reference=stated)


# -- the sum-mode squeezing test ---------------------------------------------

def sum_mode_variance(x: float, kappa: float, transmissivity: float) -> float:
    """Var(sqrt(T) X_b - sqrt(1-T) X_a) of the twin beam after Gaussian
    displacement noise kappa on both modes, in closed form:

        ((1-x)^2 + 2 x (sqrt(T) - sqrt(1-T))^2) / (4 (1-x)(1+x)) + kappa/2.

    This is the variance of X on output port b of the beam splitter
    U = exp[theta (a^dag b - a b^dag)], cos(theta) = sqrt(T), and equals
    (1 + x^2 - 4 sqrt(T(1-T)) x) / (4 (1 - x^2)) + kappa/2 written without
    the cancellation of that numerator as x -> 1.  At T = 1/2 it is
    (1-x)/(4(1+x)) + kappa/2, and a value below the vacuum 1/4 certifies
    entanglement of a Gaussian input (sum-mode criterion, Duan et al.,
    PRL 84, 2722 (2000)).

    Raises:
        ValueError: x outside [0, 1), kappa not finite and non-negative,
            or T outside [0, 1] or NaN.
    """
    if not 0.0 <= x < 1.0:
        raise ValueError(f"x={x} outside [0, 1)")
    _check_kappa(kappa)
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity={transmissivity} outside [0, 1]")
    split = math.sqrt(transmissivity) - math.sqrt(1.0 - transmissivity)
    numerator = (1.0 - x) ** 2 + 2.0 * x * split * split
    return numerator / (4.0 * (1.0 - x) * (1.0 + x)) + 0.5 * kappa
