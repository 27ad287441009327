"""Twin-beam states on a truncated two-mode Fock space, their noisy
relatives, and the continuous-variable witness.

States live on Fock levels 0..n_max per mode.  Truncated states are not
renormalized; the neglected weight is carried as ``trace_deficit`` metadata
on the returned density.  Quadrature convention: X = (a^dag + a)/2 with
vacuum variance 1/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

from .states import BipartiteDensity, WitnessOperator

_NOISE_EPS = 1e-14  # radial cutoff: exp(-R^2/kappa) = _NOISE_EPS


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
        if x == 0.0:
            return cls(n_max=1, tail_bound=0.0)
        n_max = max(1, math.ceil(math.log(tol) / (2.0 * math.log(x))) - 1)
        while x ** (2 * (n_max + 1)) >= tol:
            n_max += 1
        return cls(n_max=n_max, tail_bound=x ** (2 * (n_max + 1)))


def twb_mean_photons(x: float) -> float:
    """Average total photon number 2 x^2 / (1 - x^2) of the twin beam."""
    return 2.0 * x * x / (1.0 - x * x)


MAX_TWO_MODE_LEVELS = 128  # dense (dim^2)^2 storage past this is not desk scale


def _check_twb_params(x: float, trunc: FockTruncation):
    if not 0.0 <= x < 1.0:
        raise ValueError(f"twin-beam parameter x={x} outside [0, 1)")
    if trunc.dim > MAX_TWO_MODE_LEVELS:
        raise ValueError(
            f"dense two-mode representation with {trunc.dim} levels per mode "
            f"exceeds the supported scale ({MAX_TWO_MODE_LEVELS}); pick a "
            "smaller truncation")
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


def twb_state(x: float, trunc: FockTruncation) -> BipartiteDensity:
    """Twin-beam (two-mode squeezed vacuum): amplitudes sqrt(1-x^2) x^n on |nn>."""
    tail = _check_twb_params(x, trunc)
    d = trunc.dim
    amps = math.sqrt(1.0 - x * x) * x ** np.arange(d)
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * d + np.arange(d)] = amps
    return BipartiteDensity(dim_a=d, dim_b=d, matrix=np.outer(v, v.conj()),
                            trace_deficit=tail)


def phase_noisy_twb(x: float, gamma_t: float,
                    trunc: FockTruncation) -> BipartiteDensity:
    """Twin beam after phase diffusion of strength gamma_t on both modes.

    Matrix elements (1-x^2) x^(p+q) exp(-gamma_t (p-q)^2) at (|pp>, <qq|);
    everything outside those positions is exactly zero.
    """
    _check_gamma_t(gamma_t)
    tail = _check_twb_params(x, trunc)
    d = trunc.dim
    n = np.arange(d)
    # exp(-gamma_t k^2) only off the diagonal: gamma_t = inf gives the fully
    # dephased (diagonal) state instead of inf * 0 = NaN at k = 0
    sq = (n[:, None] - n[None, :]) ** 2
    off = sq > 0
    decay = np.ones((d, d))
    decay[off] = np.exp(-gamma_t * sq[off])
    weights = (1.0 - x * x) * x ** (n[:, None] + n[None, :]) * decay
    matrix = np.zeros((d * d, d * d), dtype=complex)
    diag_idx = n * d + n
    matrix[np.ix_(diag_idx, diag_idx)] = weights
    return BipartiteDensity(dim_a=d, dim_b=d, matrix=matrix,
                            trace_deficit=tail)


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


def phase_witness_expectation(x: float, gamma_t: float) -> float:
    """Closed-form Tr[R(t) W] = -(1-x^2) x exp(-gamma_t) for the phase-noisy
    twin beam: negative for every x in (0,1), so phase noise alone never
    destroys the entanglement."""
    if not 0.0 <= x < 1.0:
        raise ValueError(f"x={x} outside [0, 1)")
    _check_gamma_t(gamma_t)
    return pt_min_eigenvalue(x, gamma_t)


# -- Gaussian displacement noise ---------------------------------------------

def _radial_rule(kappa: float, n_nodes: int):
    """Gauss-Legendre nodes/weights for (2/kappa) int_0^R dr r e^{-r^2/kappa},
    with R chosen so the discarded tail of the Gaussian weight is _NOISE_EPS."""
    r_max = math.sqrt(kappa * math.log(1.0 / _NOISE_EPS))
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
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


def gaussian_noise_blocks(dim: int, kappa: float,
                          n_nodes: int | None = None) -> dict:
    """Superoperator blocks of the Gaussian displacement noise channel.

    The channel averages D(alpha) rho D(alpha)^dag over a complex Gaussian of
    variance kappa.  It conserves the index difference m - n, so the matrix
    splits into blocks: blocks[k][m-k-index, p-k-index] = <m|G(|p><p-k|)|m-k>
    for k >= 0 (negative k reuses the same blocks by symmetry).
    """
    _check_kappa(kappa)
    if n_nodes is None:
        n_nodes = max(64, 2 * dim + 48)
    r, w = _radial_rule(kappa, n_nodes)
    d_table = _displacement_table(dim, r)
    blocks = {}
    for k in range(dim):
        upper = d_table[k:, k:, :]
        lower = d_table[: dim - k, : dim - k, :]
        blocks[k] = np.einsum("mpi,mpi,i->mp", upper, lower, w)
    return blocks


def single_mode_gaussian_noise(rho: np.ndarray, kappa: float,
                               blocks: dict | None = None) -> np.ndarray:
    """Apply the displacement-noise channel to a single-mode density matrix."""
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    if kappa == 0.0:
        return rho.copy()
    if blocks is None:
        blocks = gaussian_noise_blocks(d, kappa)
    out = np.zeros_like(rho)
    idx = np.arange(d)
    for k in range(d):
        present = idx[k:]
        out[present, present - k] = blocks[k] @ rho[present, present - k]
        if k > 0:
            out[present - k, present] = blocks[k] @ rho[present - k, present]
    return out


def _apply_blocks_mode(t: np.ndarray, blocks: dict, axis_pair: tuple) -> np.ndarray:
    """Contract the channel blocks over one mode of a rank-4 density tensor."""
    d = t.shape[axis_pair[0]]
    moved = np.moveaxis(t, axis_pair, (0, 1))
    out = np.zeros_like(moved)
    idx = np.arange(d)
    for k in range(d):
        rows = idx[k:]
        gathered = moved[rows, rows - k]
        out[rows, rows - k] = np.einsum("mp,p...->m...", blocks[k], gathered)
        if k > 0:
            gathered = moved[rows - k, rows]
            out[rows - k, rows] = np.einsum("mp,p...->m...", blocks[k], gathered)
    return np.moveaxis(out, (0, 1), axis_pair)


def noise_truncation(x: float, kappa: float, tol: float = 1e-10,
                     leak_factor: float = 10.0) -> FockTruncation:
    """Truncation for applying Gaussian noise of variance kappa to a twin
    beam, padded so the predicted channel leakage stays below
    leak_factor * tail_bound.

    The channel's upward tail from Fock level p is much heavier than the
    twin-beam tail itself, so the padding is sized from the actual per-level
    survival probabilities rather than a fixed number of extra levels.
    """
    _check_kappa(kappa)
    base = FockTruncation.for_twb(x, tol)
    if kappa == 0.0:
        return base
    target = leak_factor * max(base.tail_bound, 1e-14)
    weights = (1.0 - x * x) * x ** (2 * np.arange(base.dim))
    for pad in range(8, 301, 4):
        dim = base.dim + pad
        r, w = _radial_rule(kappa, max(64, 2 * dim + 48))
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


def apply_gaussian_noise(rho: BipartiteDensity, kappa: float,
                         trunc: FockTruncation | None = None,
                         max_leakage: float = 1e-6) -> BipartiteDensity:
    """Apply the Gaussian displacement-noise channel to both modes.

    The input is embedded into the (possibly larger) target truncation first;
    the channel pushes population upward, and whatever escapes past n_max is
    reported as additional trace deficit.  kappa = 0 is the identity.

    Raises:
        TruncationError: if the leaked weight exceeds ``max_leakage``.
    """
    _check_kappa(kappa)
    d_in = rho.dim_a
    if rho.dim_b != d_in:
        raise ValueError("expected equal mode dimensions")
    d = trunc.dim if trunc is not None else d_in
    if d < d_in:
        raise ValueError(f"target truncation {d - 1} smaller than input {d_in - 1}")
    big = np.zeros((d * d, d * d), dtype=complex)
    t_in = rho.matrix.reshape(d_in, d_in, d_in, d_in)
    t_big = big.reshape(d, d, d, d)
    t_big[:d_in, :d_in, :d_in, :d_in] = t_in
    if kappa == 0.0:
        return BipartiteDensity(dim_a=d, dim_b=d, matrix=big,
                                trace_deficit=rho.trace_deficit)
    blocks = gaussian_noise_blocks(d, kappa)
    t_out = _apply_blocks_mode(t_big, blocks, (0, 2))
    t_out = _apply_blocks_mode(t_out, blocks, (1, 3))
    matrix = t_out.reshape(d * d, d * d)
    matrix = (matrix + matrix.conj().T) / 2
    leak = rho.trace() - float(np.trace(matrix).real)
    if leak > max_leakage:
        raise TruncationError(
            f"channel leaked {leak:.3e} of the trace past n_max={d - 1} "
            f"(threshold {max_leakage:.1e}); increase the truncation")
    return BipartiteDensity(dim_a=d, dim_b=d, matrix=matrix,
                            trace_deficit=rho.trace_deficit + max(leak, 0.0))


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
    :func:`gauss_witness_expectation`.  ``analytic_comparator`` is not the
    crossing: it holds the stated reference 1 - (1-x)/(2(1+x)), which is
    written for a noise parameter one half quantum above this module's
    kappa and so equals x/(1+x) + 1/2, i.e. kappa_star + 1/2.
    """

    kappa_star: float
    analytic_comparator: float


def gauss_separability_threshold(x: float) -> GaussThreshold:
    """Closed-form sign change kappa_star = x/(1+x) of the witness
    expectation in kappa."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"x={x} outside (0, 1)")
    comparator = 1.0 - 0.5 * (1.0 - x) / (1.0 + x)
    return GaussThreshold(kappa_star=x / (1.0 + x),
                          analytic_comparator=comparator)


# -- beam splitter and the squeezing test ------------------------------------

def _destroy(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def quadrature_operator(dim: int) -> np.ndarray:
    """X = (a^dag + a)/2 on the truncated Fock space."""
    a = _destroy(dim)
    return (a + a.conj().T) / 2


def embed(rho: BipartiteDensity, trunc: FockTruncation) -> BipartiteDensity:
    """Zero-pad a two-mode state into a larger truncation."""
    d_in, d = rho.dim_a, trunc.dim
    if d < d_in:
        raise ValueError(f"target truncation {d - 1} smaller than input {d_in - 1}")
    big = np.zeros((d, d, d, d), dtype=complex)
    big[:d_in, :d_in, :d_in, :d_in] = rho.matrix.reshape(d_in, d_in, d_in, d_in)
    return BipartiteDensity(dim_a=d, dim_b=d, matrix=big.reshape(d * d, d * d),
                            trace_deficit=rho.trace_deficit)


def beam_splitter_unitary(dim: int, transmissivity: float) -> np.ndarray:
    """U = exp[theta (a^dag b - a b^dag)], theta = arccos(sqrt(transmissivity)),
    on the truncated two-mode space.

    The generator conserves total photon number, so U is assembled sector by
    sector from small matrix exponentials of exactly antisymmetric blocks;
    the result is orthogonal (real unitary) to machine precision.

    Note that a Fock state |n n> scatters to single-mode levels up to 2n, so
    callers should :func:`embed` states with significant weight at level n
    into a truncation of at least 2n before splitting.
    """
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity={transmissivity} outside [0, 1]")
    theta = math.acos(math.sqrt(transmissivity))
    u = np.zeros((dim * dim, dim * dim))
    for s in range(2 * dim - 1):
        n1 = np.arange(max(0, s - dim + 1), min(s, dim - 1) + 1)
        hop = theta * np.sqrt((n1[:-1] + 1.0) * (s - n1[:-1]))
        gen = np.diag(hop, -1) - np.diag(hop, 1)
        block = expm(gen)
        flat = n1 * dim + (s - n1)
        u[np.ix_(flat, flat)] = block
    return u


def beam_splitter(rho: BipartiteDensity, transmissivity: float) -> BipartiteDensity:
    """Mix the two modes on a beam splitter of the given transmissivity.

    Conjugation by the exact unitary of :func:`beam_splitter_unitary`
    preserves trace and spectrum exactly.
    """
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity={transmissivity} outside [0, 1]")
    if transmissivity == 1.0:
        return BipartiteDensity(dim_a=rho.dim_a, dim_b=rho.dim_b,
                                matrix=rho.matrix.copy(),
                                trace_deficit=rho.trace_deficit)
    d = rho.dim_a
    if rho.dim_b != d:
        raise ValueError("expected equal mode dimensions")
    u = beam_splitter_unitary(d, transmissivity)
    matrix = u @ rho.matrix @ u.T
    return BipartiteDensity(dim_a=d, dim_b=d, matrix=matrix,
                            trace_deficit=rho.trace_deficit)


def squeezing_witness(rho_single: np.ndarray, trace_tol: float = 1e-6) -> float:
    """Fluctuation witness Var(X) - 1/4 of a single-mode state.

    A negative value certifies sub-vacuum fluctuations of X = (a^dag + a)/2.
    For a Gaussian two-mode input mixed on a balanced beam splitter this is
    equivalent to entanglement of the input.
    """
    rho = np.asarray(rho_single, dtype=complex)
    d = rho.shape[0]
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(
            f"single-mode state trace {tr} deviates from 1 beyond {trace_tol}; "
            "truncation is insufficient")
    x_op = quadrature_operator(d)
    mean = float(np.trace(x_op @ rho).real)
    second = float(np.trace(x_op @ x_op @ rho).real)
    return second - mean * mean - 0.25
