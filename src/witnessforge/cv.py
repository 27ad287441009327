"""Twin-beam states on a truncated two-mode Fock space, their noisy
relatives, and the continuous-variable witness.

States live on Fock levels 0..n_max per mode.  The twin-beam family is
supported on n - n' = m - m' and is kept as its index-difference blocks
(:class:`DifferenceBlocks`); the noise channel, the witness and the
sum-mode variance act on those blocks.  Truncated states are not
renormalized; the neglected weight is carried as ``trace_deficit``
metadata.  Quadrature convention: X = (a^dag + a)/2 with vacuum variance
1/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .states import BipartiteDensity, WitnessOperator

_NOISE_EPS = 1e-14   # radial cutoff: exp(-R^2/kappa) = _NOISE_EPS
_LEAK_FACTOR = 10.0  # noise_truncation keeps the leakage under this many tail bounds
MAX_LEAKAGE = 1e-6   # apply_gaussian_noise fails once more weight than this leaks


class TruncationError(RuntimeError):
    """Population leaked past the configured Fock truncation."""


@dataclass(frozen=True)
class FockTruncation:
    """Highest retained Fock index plus the guaranteed neglected weight."""

    n_max: int
    tail_bound: float = 0.0

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be non-negative")

    @property
    def dim(self) -> int:
        return self.n_max + 1

    def padded(self, extra: int = 8) -> "FockTruncation":
        """Same guarantee with extra headroom levels (used before applying
        channels that push population upward)."""
        return FockTruncation(self.n_max + extra, self.tail_bound)

    @classmethod
    def for_twb(cls, x: float, tol: float = 1e-10) -> "FockTruncation":
        """Smallest truncation with x^(2(n_max+1)) < tol."""
        if not 0.0 <= x < 1.0:
            raise ValueError(f"twin-beam parameter x={x} outside [0, 1)")
        if not 0.0 < tol < 1.0:
            raise ValueError("tol must be finite and in (0, 1)")
        if x == 0.0:
            return cls(n_max=1, tail_bound=0.0)
        n_max = max(1, math.ceil(math.log(tol) / (2.0 * math.log(x))) - 1)
        while x ** (2 * (n_max + 1)) >= tol:
            n_max += 1
        return cls(n_max=n_max, tail_bound=x ** (2 * (n_max + 1)))


def twb_mean_photons(x: float) -> float:
    """Average total photon number 2 x^2 / (1 - x^2) of the twin beam."""
    return 2.0 * x * x / (1.0 - x * x)


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

    def trace(self) -> float:
        return float(self.blocks[0].sum().real)

    @classmethod
    def of(cls, rho: BipartiteDensity) -> "DifferenceBlocks | None":
        """The blocks of rho, or None if rho has an element off
        n - n' = m - m'.  The blocks are real when rho is."""
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
        return cls(tuple(m[rows, cols].real if real else m[rows, cols]
                         for rows, cols in index), rho.trace_deficit)

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


def phase_noisy_twb(x: float, gamma_t: float,
                    trunc: FockTruncation) -> BipartiteDensity:
    """Twin beam after phase diffusion of strength gamma_t on both modes.

    Matrix elements (1-x^2) x^(p+q) exp(-gamma_t (p-q)^2) at (|pp>, <qq|);
    everything outside those positions is exactly zero.
    """
    return twin_beam_blocks(x, trunc, gamma_t).density()


# -- analytic partial-transpose spectrum of the phase-noisy twin beam -------

def pt_eigenvalue_diagonal(x: float, n: int, n_max: int | None = None) -> float:
    """PT eigenvalue (1-x^2) x^(2n) of the eigenvector |nn>."""
    if n < 0 or (n_max is not None and n > n_max):
        raise ValueError(f"index n={n} outside truncation")
    return (1.0 - x * x) * x ** (2 * n)


def pt_eigenvalue_pair(x: float, gamma_t: float, n: int, m: int,
                       sign: int = -1, n_max: int | None = None) -> float:
    """PT eigenvalue +/- (1-x^2) x^(n+m) exp(-gamma_t (n-m)^2) of the
    eigenvectors (|nm> +/- |mn>)/sqrt(2), n != m."""
    if n == m:
        raise ValueError("pair eigenvalues require n != m")
    if min(n, m) < 0 or (n_max is not None and max(n, m) > n_max):
        raise ValueError(f"indices ({n}, {m}) outside truncation")
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    return sign * (1.0 - x * x) * x ** (n + m) * math.exp(-gamma_t * (n - m) ** 2)


def pt_min_eigenvalue(x: float, gamma_t: float) -> float:
    """Minimum PT eigenvalue -(1-x^2) x exp(-gamma_t), attained at (n,m)=(0,1)."""
    return -(1.0 - x * x) * x * math.exp(-gamma_t)


def pt_spectrum_analytic(x: float, gamma_t: float, n_max: int) -> np.ndarray:
    """All (n_max+1)^2 PT eigenvalues of the truncated phase-noisy twin beam,
    sorted ascending."""
    vals = [pt_eigenvalue_diagonal(x, n) for n in range(n_max + 1)]
    for n in range(n_max + 1):
        for m in range(n + 1, n_max + 1):
            lam = (1.0 - x * x) * x ** (n + m) * math.exp(-gamma_t * (n - m) ** 2)
            vals.extend([lam, -lam])
    return np.sort(np.asarray(vals))


# -- the continuous-variable witness ----------------------------------------

def cv_witness(trunc: FockTruncation) -> WitnessOperator:
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
    return WitnessOperator(matrix=w, normalization=1.0,
                           provenance=f"fock-01-singlet(n_max={trunc.n_max})")


def cv_witness_expectation(state: DifferenceBlocks) -> float:
    """Tr[rho W] for the witness of :func:`cv_witness`, read off the blocks:
    (B_0[0, 1] + B_0[1, 0])/2 - Re B_1[0, 0], since rho_{11,00} = B_1[0, 0]."""
    b0, b1 = state.blocks[0], state.blocks[1]
    return float(0.5 * (b0[0, 1] + b0[1, 0]).real - b1[0, 0].real)


def phase_witness_expectation(x: float, gamma_t: float) -> float:
    """Closed-form Tr[R(t) W] = -(1-x^2) x exp(-gamma_t) for the phase-noisy
    twin beam: negative for every x in (0,1), so phase noise alone never
    destroys the entanglement."""
    if not 0.0 <= x < 1.0:
        raise ValueError(f"x={x} outside [0, 1)")
    _check_gamma_t(gamma_t)
    return pt_min_eigenvalue(x, gamma_t)


# -- Gaussian displacement noise ---------------------------------------------

def _radial_rule(kappa: float, dim: int):
    """Gauss-Legendre nodes/weights for (2/kappa) int_0^R dr r e^{-r^2/kappa},
    with R chosen so the discarded tail of the Gaussian weight is _NOISE_EPS.

    The rule has max(64, 2 dim + 48) nodes, enough for the oscillating
    displacement elements of a dim-level table.
    """
    r_max = math.sqrt(kappa * math.log(1.0 / _NOISE_EPS))
    nodes, weights = np.polynomial.legendre.leggauss(max(64, 2 * dim + 48))
    r = 0.5 * r_max * (nodes + 1.0)
    w = 0.5 * r_max * weights * (2.0 / kappa) * r * np.exp(-r * r / kappa)
    return r, w


def _displacement_table(dim: int, radii: np.ndarray) -> np.ndarray:
    """Real matrix elements <m|D(r)|n> for 0 <= m, n < dim at each radius.

    Built columnwise by the normalized associated-Laguerre recurrence, which
    stays bounded for indices well beyond the dimensions used here.
    Returns an array of shape (dim, dim, len(radii)).
    """
    r = np.asarray(radii, dtype=float)
    u = r * r
    table = np.zeros((dim, dim, r.size))
    log_r = np.log(r)
    for alpha in range(dim):
        # g_n tracks sqrt(n!/(n+alpha)!) L_n^(alpha)(u); start from the
        # coherent-state column <alpha|D(r)|0> = e^{-u/2} r^alpha / sqrt(alpha!)
        prefactor = np.exp(alpha * log_r - 0.5 * gammaln(alpha + 1.0) - 0.5 * u)
        g_prev = np.zeros_like(u)
        g = np.ones_like(u)
        table[alpha, 0] = prefactor
        for n in range(0, dim - alpha - 1):
            g_next = ((2 * n + alpha + 1 - u) * g
                      - math.sqrt(n * (n + alpha)) * g_prev) \
                / math.sqrt((n + 1) * (n + 1 + alpha))
            g_prev, g = g, g_next
            table[alpha + n + 1, n + 1] = prefactor * g
    lower = np.tril_indices(dim, k=-1)
    signs = (-1.0) ** (lower[0] - lower[1])
    table[lower[1], lower[0]] = signs[:, None] * table[lower]
    return table


def gaussian_noise_blocks(dim: int, kappa: float) -> dict:
    """Superoperator blocks of the Gaussian displacement noise channel.

    The channel averages D(alpha) rho D(alpha)^dag over a complex Gaussian of
    variance kappa.  It conserves the index difference m - n, so the matrix
    splits into blocks: blocks[k][m-k-index, p-k-index] = <m|G(|p><p-k|)|m-k>
    for k >= 0 (negative k reuses the same blocks by symmetry).
    """
    _check_kappa(kappa)
    r, w = _radial_rule(kappa, dim)
    d_table = _displacement_table(dim, r)
    blocks = {}
    for k in range(dim):
        upper = d_table[k:, k:, :]
        lower = d_table[: dim - k, : dim - k, :]
        blocks[k] = np.einsum("mpi,mpi,i->mp", upper, lower, w)
    return blocks


def noise_truncation(x: float, kappa: float,
                     tol: float = 1e-10) -> FockTruncation:
    """Truncation for applying Gaussian noise of variance kappa to a twin
    beam, padded so the predicted channel leakage stays below
    _LEAK_FACTOR * tail_bound.

    The channel's upward tail from Fock level p is much heavier than the
    twin-beam tail itself, so the padding is sized from the actual per-level
    survival probabilities rather than a fixed number of extra levels.
    """
    _check_kappa(kappa)
    base = FockTruncation.for_twb(x, tol)
    if kappa == 0.0:
        return base
    target = _LEAK_FACTOR * max(base.tail_bound, 1e-14)
    weights = (1.0 - x * x) * x ** (2 * np.arange(base.dim))
    for pad in range(8, 301, 4):
        dim = base.dim + pad
        r, w = _radial_rule(kappa, dim)
        d_table = _displacement_table(dim, r)
        survival = np.einsum("mpi,mpi,i->p",
                             d_table[:, : base.dim, :],
                             d_table[:, : base.dim, :], w)
        leak = 2.0 * float(weights @ (1.0 - survival))
        if leak <= target:
            return FockTruncation(dim - 1, base.tail_bound)
    raise TruncationError(
        f"no truncation below n_max={base.dim + 300} keeps the channel "
        f"leakage under {target:.3e} for x={x}, kappa={kappa}")


def apply_gaussian_noise(state: DifferenceBlocks, kappa: float,
                         trunc: FockTruncation | None = None
                         ) -> DifferenceBlocks:
    """Apply the Gaussian displacement-noise channel to both modes.

    The channel keeps each mode's index difference, so it maps every block
    on its own: B_j -> G_j B_j G_j^T with G_j = gaussian_noise_blocks(d,
    kappa)[j], after B_j is zero-padded to the target truncation.  The
    channel pushes population upward, and whatever escapes past n_max is
    reported as additional trace deficit.  kappa = 0 only pads.

    Raises:
        ValueError: if the target truncation is smaller than the input's or
            has more than ``MAX_TWO_MODE_LEVELS`` levels per mode.
        TruncationError: if the leaked weight exceeds ``MAX_LEAKAGE``.
    """
    _check_kappa(kappa)
    d_in = state.dim
    d = trunc.dim if trunc is not None else d_in
    if d < d_in:
        raise ValueError(f"target truncation {d - 1} smaller than input {d_in - 1}")
    _check_levels(d)
    padded = ([np.pad(block, (0, d - d_in)) for block in state.blocks]
              + [np.zeros((d - j, d - j)) for j in range(d_in, d)])
    if kappa == 0.0:
        return DifferenceBlocks(tuple(padded), state.trace_deficit)
    g = gaussian_noise_blocks(d, kappa)
    blocks = tuple(g[j] @ block @ g[j].T for j, block in enumerate(padded))
    leak = state.trace() - float(blocks[0].sum().real)
    if leak > MAX_LEAKAGE:
        raise TruncationError(
            f"channel leaked {leak:.3e} of the trace past n_max={d - 1} "
            f"(threshold {MAX_LEAKAGE:.1e}); increase the truncation")
    return DifferenceBlocks(blocks, state.trace_deficit + max(leak, 0.0))


# -- witness expectation under amplitude noise -------------------------------

def gauss_witness_expectation(x: float, kappa: float) -> float:
    """Tr[R_kappa W] for the twin beam sent through Gaussian amplitude noise
    on both modes, in closed form:

        (1 - x^2) N / Q^2,  N = (1 - x^2) kappa^2 + (1 + x^2) kappa - x,
                            Q = (1 + kappa)^2 - x^2 kappa^2.

    At x = 0 this is kappa / (1 + kappa)^3, the witness on a product of two
    thermal states; at kappa = 0 it is -(1 - x^2) x.  N and Q are evaluated
    scaled by (1 + kappa)^-2, so a large finite kappa cannot overflow them.
    """
    if not 0.0 <= x < 1.0:
        raise ValueError(f"x={x} outside [0, 1)")
    _check_kappa(kappa)
    c = 1.0 / (1.0 + kappa)
    s = kappa * c
    numerator = (1.0 - x * x) * s * s + (1.0 + x * x) * s * c - x * c * c
    q = 1.0 - x * x * s * s
    return (1.0 - x * x) * c * c * numerator / (q * q)


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

def sum_mode_variance(state: DifferenceBlocks, transmissivity: float) -> float:
    """Var(sqrt(T) X_b - sqrt(1-T) X_a) of a two-mode state.

    This is the variance of X on output port b of the beam splitter
    U = exp[theta (a^dag b - a b^dag)], cos(theta) = sqrt(T), taken in the
    Heisenberg picture: only the first and second quadrature moments of the
    state enter, on its own truncation.  At T = 1/2 a value below the vacuum
    1/4 certifies entanglement of a Gaussian input (sum-mode criterion,
    Duan et al., PRL 84, 2722 (2000)).

    On the index-difference support both reduced states are diagonal, so
    <X> = 0 and Var X = sum_n p(n) (2n+1)/4 over the row (mode a) or column
    (mode b) sums p of B_0; the top level keeps its a a^dag term.  The
    correlation <X_a X_b> = Re <a b>/2 = Re sum sqrt((i+1)(l+1)) B_1[i, l] / 2.

    Raises:
        ValueError: T outside [0, 1] or NaN, or |Tr rho - 1| > 1e-6 (the
            truncation is insufficient).
    """
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity={transmissivity} outside [0, 1]")
    tr = state.trace()
    if abs(tr - 1.0) > 1e-6:
        raise ValueError(f"state trace {tr} deviates from 1 beyond 1e-6; "
                         "truncation is insufficient")
    populations = state.blocks[0].real
    level = (2.0 * np.arange(state.dim) + 1.0) / 4.0
    var_a = float(populations.sum(axis=1) @ level)
    var_b = float(populations.sum(axis=0) @ level)
    root = np.sqrt(np.arange(1.0, state.dim))
    cov = 0.5 * float(np.sum(np.outer(root, root) * state.blocks[1]).real)
    t = transmissivity
    return float(t * var_b + (1.0 - t) * var_a
                 - 2.0 * math.sqrt(t * (1.0 - t)) * cov)
