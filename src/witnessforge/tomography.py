"""Simulated two-mode homodyne detection and Monte Carlo witness estimation.

Sampling model: for each shot the local oscillator phases (phi1, phi2) are
drawn independently and uniformly on [0, pi), then the quadrature outcomes
(x1, x2) are drawn from the joint distribution

    p(x1, x2 | phi1, phi2) = sum rho_{nm,n'm'} psi_n(x1) psi_n'(x1)
        e^{i(n-n') phi1} psi_m(x2) psi_m'(x2) e^{i(m-m') phi2}.

Averaging the witness kernel over such samples estimates Tr[rho W]; the
uniform phase draws absorb the d(phi)/pi measures of the estimator rule.

``sample_homodyne`` draws from this density for any two-mode state in the
Fock basis.  ``sample_twin_beam`` draws from the closed-form Gaussian law
of the twin beam and its phase- and displacement-noisy relatives.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cv import _check_gamma_t, _check_kappa
from .specfn import _CHUNK as _KERNEL_CHUNK
from .specfn import oscillator_psi_table, pattern_functions
from .states import BipartiteDensity

BLOCK_SIZE = 65536          # determinism unit: one RNG substream per block
CELLS = 512                 # Simpson cells of the sampling grid; a power
                            # of two, which the cell search relies on
_CHUNK = 1024               # samples per draw; rows of the block products
PDF_NEGATIVITY_TOL = 1e-10
_NEWTON_STEPS = 5           # safeguarded Newton steps every cell inversion
                            # takes; those still short of rounding go on
_NEWTON_STEP_LIMIT = 64     # alone, up to this many steps in all
_READ_BYTES = 1 << 18       # bytes of gathered table rows per einsum of
                            # a column read
_ONE_THREAD = 1 << 18       # m n k of the largest product OpenBLAS runs on
                            # one thread (65536 times its gemm threshold 4)


@dataclass
class HomodyneBatch:
    """Joint homodyne samples (phi1, x1, phi2, x2)."""

    phi1: np.ndarray
    x1: np.ndarray
    phi2: np.ndarray
    x2: np.ndarray

    def __post_init__(self):
        sizes = {len(self.phi1), len(self.x1), len(self.phi2), len(self.x2)}
        if len(sizes) != 1:
            raise ValueError("sample arrays have mismatched lengths")
        if len(self.phi1) == 0:
            raise ValueError("batch must contain at least one sample")
        for phi in (self.phi1, self.phi2):
            # written so that NaN fails the test too
            if not (phi.min() >= 0.0 and phi.max() < math.pi):
                raise ValueError("phases must lie in [0, pi)")
        if not (np.all(np.isfinite(self.x1)) and np.all(np.isfinite(self.x2))):
            raise ValueError("quadratures must be finite")

    def __len__(self) -> int:
        return len(self.phi1)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error and the kurtosis m4 / m2^2
    of the values (central moments).  One sample has no spread, so its
    standard error is None; the kurtosis is None then and when every
    value is equal.  The standard error is trustworthy only when n is
    much larger than the kurtosis."""

    mean: float
    std_error: float | None
    n_samples: int
    kurtosis: float | None = None


def witness_kernel(x1, phi1, x2, phi2, out: np.ndarray | None = None):
    """Homodyne estimator kernel whose sample average converges to Tr[rho W]
    for the two-mode witness W = (|01><01| + |10><10| - |00><11| - |11><00|)/2.

    Depends on the phases only through phi1 + phi2.  The kernel is
    elementwise, so it is evaluated specfn._CHUNK points at a time into
    one values array: its temporaries do not grow with the input.  That
    array is out, a C-contiguous float array of the broadcast shape, when
    it is given, and then out is returned.
    """
    args = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                 for a in (x1, phi1, x2, phi2)))
    x1, phi1, x2, phi2 = (a.reshape(-1) for a in args)
    if out is None:
        values = np.empty(x1.size)
    elif (out.shape != args[0].shape or out.dtype != np.float64
          or not out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous float array of the "
                         "samples' shape")
    else:
        values = out.reshape(-1)
    for start in range(0, values.size, _KERNEL_CHUNK):
        sl = slice(start, start + _KERNEL_CHUNK)
        phase = np.add(phi1[sl], phi2[sl])
        np.cos(phase, out=phase)
        a00, a01, a11 = pattern_functions(x1[sl])
        b00, b01, b11 = pattern_functions(x2[sl])
        # 0.5 (a00 b11 + a11 b00 - 2 cos a01 b01) in place, each operation
        # in the order written
        a00 *= b11
        a11 *= b00
        a00 += a11
        phase *= 2.0
        phase *= a01
        phase *= b01
        a00 -= phase
        np.multiply(0.5, a00, out=values[sl])
    return values.reshape(args[0].shape)[()] if out is None else out


def mc_estimate_witness(batch: HomodyneBatch) -> McEstimate:
    """Sample mean, standard error and kurtosis of the witness kernel over
    a batch (see :func:`mc_estimate_values`)."""
    return mc_estimate_values(
        witness_kernel(batch.x1, batch.phi1, batch.x2, batch.phi2))


def mc_estimate_values(values: np.ndarray) -> McEstimate:
    """Sample mean, standard error and kurtosis of witness-kernel values,
    a 1-D float array that this overwrites.  A caller that scores its
    samples block by block into one values array (as ``tomo-estimate``
    does) gets the estimate of :func:`mc_estimate_witness` on the whole
    batch without holding the batch.

    The deviations are squared in place in the values array, which gives
    the bits of ``np.std(values, ddof=1)`` without its second array; the
    sum of their squares, one dot product, gives the fourth moment.  They
    are first scaled exactly, by a power of two, to a largest of [1/2, 1),
    so that deviations near 1e-300 keep their squares.
    """
    n = len(values)
    mean = float(np.mean(values))
    if n == 1:
        return McEstimate(mean=mean, std_error=None, n_samples=n)
    # a mean that rounds off equal values leaves equal nonzero deviations
    low, high = values.min(), values.max()
    constant = low == high
    values -= mean
    # rounding is monotonic, so these are the extreme deviations
    e = int(np.frexp(max(high - mean, mean - low))[1])  # no abs array
    np.ldexp(values, -e, out=values)
    values *= values
    squares = float(np.sum(values))
    std_error = math.ldexp(np.sqrt(squares / (n - 1)) / math.sqrt(n), e)
    kurtosis = None
    if squares > 0.0 and not constant:
        # einsum's own loop: a BLAS dot of this length wakes its threads,
        # which cost milliseconds of CPU per call
        fourth = float(np.einsum("i,i->", values, values))
        kurtosis = fourth / squares * (n / squares)
    return McEstimate(mean=mean, std_error=std_error, n_samples=n,
                      kurtosis=kurtosis)


# -- sampling window ----------------------------------------------------------

def mean_photons_per_mode(rho: BipartiteDensity) -> float:
    """Largest single-mode mean photon number of the two modes."""
    n_a = np.arange(rho.dim_a)
    n_b = np.arange(rho.dim_b)
    mean_a = float(np.real(np.diag(rho.reduced(0))) @ n_a)
    mean_b = float(np.real(np.diag(rho.reduced(1))) @ n_b)
    return max(mean_a, mean_b)


def quadrature_span(rho: BipartiteDensity) -> float:
    """Half-width L of the sampling window [-L, L]."""
    return max(4.0, 3.0 * math.sqrt(mean_photons_per_mode(rho) + 1.0))


# -- exact per-sample inverse-CDF sampling ------------------------------------

def _with_cdf(table: np.ndarray, delta: float) -> np.ndarray:
    """Fill the CDF columns of a table whose first 2 CELLS + 1 columns hold
    density rows, in place, so that each row reads ``[rows | cdf | total]``;
    return the table.

    With m_c the Simpson mass of node pair [2c, 2c+2], cdf[c] is the mass up
    to the end of cell c over the lower half of the cells, and minus the mass
    after cell c over the upper half; total is the mass of all cells.  Each
    tail is thus accumulated from its own end, so a weighted sum of rows
    resolves small tail masses to rounding relative to themselves rather
    than to the total.  The map is linear, so a weighted sum of table rows
    is the table of the weighted density: the sampler builds it once per
    state.
    """
    g = 2 * CELLS + 1
    rows = table[:, :g]
    cells = np.multiply(rows[:, 1:-1:2], 4.0)
    cells += rows[:, 0:-2:2]
    cells += rows[:, 2::2]
    cells *= delta / 3.0
    half = CELLS // 2
    lower = np.cumsum(cells[:, :half], axis=1, out=table[:, g:g + half])
    # minus the mass after each upper cell, accumulated from the last cell
    # over the negated masses: (-a) + (-b) is -(a + b) to the bit
    upper = table[:, g + half:-1]
    cells = np.negative(cells[:, half:], out=cells[:, half:])
    np.cumsum(cells[:, :0:-1], axis=1, out=upper[:, -2::-1])
    upper[:, -1] = 0.0
    # minus the upper half's mass is upper[0] plus the first negated cell
    np.subtract(lower[:, -1], upper[:, 0] + cells[:, 0], out=table[:, -1])
    return table


def _fixed_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for an operand a of exactly _CHUNK rows (see
    :meth:`_SamplerTables.pair_weights`), in row blocks of one fixed
    power-of-two size, each small enough that OpenBLAS runs it on one
    thread: a woken second thread spins for milliseconds of CPU after the
    product ends."""
    assert a.shape[0] == _CHUNK
    rows = _CHUNK
    while rows > 1 and rows * b.size > _ONE_THREAD:
        rows //= 2
    out = np.empty((_CHUNK, b.shape[1]))
    for start in range(0, _CHUNK, rows):
        np.matmul(a[start:start + rows], b, out=out[start:start + rows])
    return out


def _padded(values: np.ndarray) -> np.ndarray:
    """values, at most _CHUNK of them, followed by zeros up to _CHUNK."""
    if values.size == _CHUNK:
        return values
    out = np.zeros(_CHUNK)
    out[:values.size] = values
    return out


@functools.lru_cache(maxsize=None)
def _pair_recurrence(d: int) -> np.ndarray:
    """The (d(d+1)/2 - (2d-1), 2d-1) matrix C with psi_m psi_M =
    sum_k C[(m, M), k] b_k for every pair m = M + j, j >= 2, in the pair
    order (by j, then M), where the basis b is psi_k^2 (k < d) and then
    psi_{k+1} psi_k (k < d - 1), the pairs of j = 0 and 1.

    Each psi_m psi_M is a polynomial of degree m + M times e^{-2x^2}, and
    the 2d - 1 basis products span those of degree <= 2d - 2.  The
    coefficients follow from 2x psi_n = sqrt(n+1) psi_{n+1} + sqrt(n)
    psi_{n-1}, applied to 2x psi_{m-1} psi_M both ways:

        sqrt(m) psi_m psi_M = sqrt(M+1) psi_{m-1} psi_{M+1}
            + sqrt(M) psi_{m-1} psi_{M-1} - sqrt(m-1) psi_{m-2} psi_M,

    pairs of difference j - 2, j and j - 2 with smaller M, so the rows
    are filled in pair order.  Built once per d and kept read-only.
    """
    basis = 2 * d - 1
    starts = np.concatenate([[0], np.cumsum(np.arange(d, 0, -1))])
    coef = np.zeros((starts[-1], basis))
    coef[np.arange(basis), np.arange(basis)] = 1.0

    def row(m, low):
        return coef[starts[m - low] + low]

    for j in range(2, d):
        for low in range(d - j):
            m = low + j
            c = math.sqrt(low + 1) * row(m - 1, low + 1)
            if low:
                c += math.sqrt(low) * row(m - 1, low - 1)
            c -= math.sqrt(m - 1) * row(m - 2, low)
            row(m, low)[:] = c / math.sqrt(m)
    recurrence = coef[basis:]
    recurrence.flags.writeable = False
    return recurrence


def _phase_powers(angle: np.ndarray, d: int) -> np.ndarray:
    """The (d, n) array of e^{ij angle}, j = 0 .. d-1, by one complex
    exponential and a product per row: d cosines and sines per sample cost
    more than the products that use them, and a cumulative product along
    the short axis costs five times these (at d = 17)."""
    turn = np.empty((d, angle.size), dtype=complex)
    turn[0] = 1.0
    if d > 1:
        turn[1] = np.exp(1j * angle)
        for j in range(2, d):
            np.multiply(turn[j - 1], turn[1], out=turn[j])
    return turn


def _newton_step(t, lo, hi, a, b, c, residual):
    """One safeguarded Newton step of :func:`_invert_cells`: returns the
    new t, the bracket updated at the old t and F(t) - residual there."""
    f = t * (a + t * (b + t * c)) - residual
    lo = np.where(f <= 0.0, t, lo)
    hi = np.where(f >= 0.0, t, hi)
    step = t - f / (a + t * (2.0 * b + 3.0 * t * c))
    inside = (lo <= step) & (step <= hi)
    return np.where(inside, step, 0.5 * (lo + hi)), lo, hi, f


def _invert_cells(p0, p1, p2, residual) -> np.ndarray:
    """Solve for t in [0, 2] with int_0^t quad(p0,p1,p2) = residual / delta.

    The integrated quadratic interpolant is the cubic
    F(t) = t (a + t (b + t c)), with derivative a + t (2b + 3tc).  From the
    linear guess t = 2 residual / F(2), clamped to [0, 2], Newton steps run
    inside a bracket [lo, hi] with F(lo) <= residual <= F(hi): a step that
    leaves the bracket is replaced by its midpoint.  The bounds are
    inclusive, so a converged t (F(t) = residual, where the bracket closes
    on t) stays put.  A zero cell or a zero derivative gives a NaN step,
    which also takes the midpoint.

    Every entry takes _NEWTON_STEPS steps.  Next to a zero of the density,
    where F is flat, Newton converges only linearly, so an entry whose
    |F(t) - residual| is still above 2^-50 |F(2)| goes on alone until it
    is not, until a step leaves t unchanged, or until _NEWTON_STEP_LIMIT
    steps.  That error in F is below the rounding of the residual itself,
    a difference of CDF entries.  Each entry's steps depend on that entry
    alone, and every operation is elementwise, so each t is the same
    whatever else the call holds.
    """
    a = p0
    b = p1 - 0.75 * p0 - 0.25 * p2
    c = (p0 - 2.0 * p1 + p2) / 6.0
    lo = np.zeros_like(residual)
    hi = np.full_like(residual, 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        half = a + 2.0 * (b + 2.0 * c)
        t = np.clip(residual / half, 0.0, 2.0)
        for _ in range(_NEWTON_STEPS):
            t, lo, hi, _ = _newton_step(t, lo, hi, a, b, c, residual)
        tol = 2.0 ** -49 * np.abs(half)
        slow = np.flatnonzero(
            np.abs(t * (a + t * (b + t * c)) - residual) > tol)
        if slow.size:
            t_s, lo_s, hi_s, a_s, b_s, c_s, r_s, tol_s = (
                v[slow] for v in (t, lo, hi, a, b, c, residual, tol))
            moving = np.ones(slow.size, dtype=bool)
            for _ in range(_NEWTON_STEP_LIMIT - _NEWTON_STEPS):
                step, lo_s, hi_s, f_s = _newton_step(t_s, lo_s, hi_s,
                                                     a_s, b_s, c_s, r_s)
                moving &= (np.abs(f_s) > tol_s) & (step != t_s)
                if not moving.any():
                    break
                t_s = np.where(moving, step, t_s)
            t[slow] = t_s
    return t


def _weighted_columns(weights: np.ndarray, table: np.ndarray):
    """Column accessor of the rows ``weights @ table`` that never forms
    them: column k[i] of row i is the dot product of weights[i] with
    column k[i] of the table.  Each is a row-wise einsum, which rounds a
    row the same way whatever the number of rows.  An int k, a column
    that every row reads, is read once rather than gathered per row, with
    the same bits.  The table holds the 2d - 1 rows of the reduced
    weights (33 at d = 17), so each read is a dot product of that length.
    An index array k gathers its table rows in slices of at most
    _READ_BYTES (992 rows at d = 17, a whole chunk at d <= 4, 149 rows at
    d = 110), so each read stays in cache instead of allocating a
    chunk-sized gather."""
    columns = table.T
    rows = max(1, _READ_BYTES // (8 * columns.shape[1]))

    def column(k):
        if np.ndim(k) == 0:
            return np.einsum("np,p->n", weights, columns[k])
        out = np.empty(k.size)
        for start in range(0, k.size, rows):
            part = slice(start, start + rows)
            np.einsum("np,np->n", weights[part], columns[k[part]],
                      out=out[part])
        return out
    return column


def _sample_columns(column, u: np.ndarray, nodes: np.ndarray,
                    delta: float) -> np.ndarray:
    """Draw one outcome per entry of u by inverse CDF from
    ``[density | cdf | total]`` rows (see :func:`_with_cdf`) read through
    ``column(k)``, which returns entry k[i] of row i for an index array k
    and entry k of every row for an int k.

    A binary search of log2(cells) steps finds the first cell whose CDF is
    not below its target, u * total on the lower half of the cells and
    (u - 1) * total on the upper half, where cdf holds minus the mass after
    each cell; the draw is inverted inside that cell.  The cell count is a
    power of two, so the search is branchless: at each step size, from
    cells/2 down to 1, it probes lo + step - 1 and moves lo past the probe
    when that CDF entry is below its target.  The last cell always
    qualifies, as its cdf is 0 and u < 1, so the search stays in range.
    Each draw reads about a dozen entries of its row, not all of it; the
    total and the first probe are the same column for every draw, so lo
    stays an int until the first move and those two are shared reads.
    """
    g = nodes.size
    cells = g // 2
    half = cells // 2
    total = column(g + cells)
    if np.any(total <= 0.0):
        raise ValueError("quadrature density has vanishing total mass")
    below_target = u * total
    above_target = (u - 1.0) * total
    lo = 0
    below = 0.0                    # cdf[lo - 1], or 0 while lo = 0
    step = half
    while step:
        probe = lo + (step - 1)
        cdf = column(g + probe)
        right = cdf < np.where(probe < half, below_target, above_target)
        lo += right * step
        below = np.where(right, cdf, below)
        step //= 2
    target = np.where(lo > half, above_target, below_target)
    t = _invert_cells(column(2 * lo), column(2 * lo + 1), column(2 * lo + 2),
                      (target - below) / delta)
    return nodes[2 * lo] + t * delta


def _conditional_elements(rho, j: int) -> np.ndarray:
    """The (d, d, d - j) array R[n, n', M] = rho_{n(M+j), n'M}: the
    elements of rho whose mode-2 pair (M + j, M) has difference j, as a
    view.  The table build reads rho through this alone."""
    d = rho.dim_a
    return np.diagonal(rho.matrix.reshape(d, d, d, d)[:, j:, :, :d - j],
                       axis1=1, axis2=3)


def _conditional_map(rho, d: int, expand: np.ndarray):
    """The real map of the conditional's phase features and its row
    blocks (see :meth:`_SamplerTables.pair_weights`).

    With a = n - n' the index difference of mode 1 and j = m - M that of
    mode 2, the element rho_{nm, n'M} enters the pair weight W_(j,M) at
    the phase a theta + b phi2, theta = phi1 + phi2 and b = j - a.  Each
    (a, b) is a mode.  Its blocks are R_{a,j}[p, M] = rho_{n(M+j), n'M}
    over the pairs p of mode 1 of difference a, whose map rows are
    c_j Re R_{a,j} G_j (the cosine part) and -c_j Im R_{a,j} G_j (the
    sine part), G_j the rows of [I; C] of the pairs of difference j.  A
    part whose R is all zero is dropped, and so is the sine part of mode
    (0, 0), whose phase is 0.  The blocks are grouped by |a|, mode b = 0
    first, so that one pair-product row block serves each group.  Returns
    the map and the groups, each as (|a|, the (a, b, sine) of its row
    blocks in order).
    """
    # every pair (n, n') of mode 1, by a = n - n' and then by n'
    high, low = np.divmod(np.argsort(np.subtract.outer(
        np.arange(d), np.arange(d)), axis=None, kind="stable"), d)
    widths = d - np.abs(np.arange(1 - d, d))
    starts = np.cumsum(widths) - widths
    # sums over the real and over the imaginary entries of a row
    parts = np.tile(np.eye(2), (d, 1))
    found, first = [], 0
    for j in range(d):
        elements = _conditional_elements(rho, j)[high, low]
        # whether each a has a nonzero real and a nonzero imaginary part
        live = np.add.reduceat(np.abs(elements.view(float))
                               @ parts[:2 * (d - j)], starts).T != 0.0
        live[1, d - 1] &= j > 0
        # c_j G_j: the rows of [I; C] of the pairs of difference j, times
        # c_j, a power of two, which changes no rounding
        rows = (2.0 if j else 1.0) * expand[first:first + d - j]
        first += d - j
        for sine, i in zip(*np.nonzero(live)):
            block = elements[starts[i]:starts[i] + widths[i]]
            a = int(i) - (d - 1)
            found.append(((abs(a), a != j, a, j - a, int(sine)),
                          (np.negative(block.imag) if sine else block.real)
                          @ rows))
    found.sort(key=lambda entry: entry[0])
    groups = tuple((k, tuple(key[2:] for key, _ in group)) for k, group
                   in itertools.groupby(found, lambda entry: entry[0][0]))
    return np.concatenate([rows for _, rows in found]
                          or [np.zeros((0, 2 * d - 1))]), groups


@dataclass
class _SamplerTables:
    """Everything precomputed once per (state, grid) for the sampling loop.

    Both densities the sampler draws from are linear in real weights W of
    the pair products psi_m psi_M (m >= M, ordered by j = m - M, then M).
    Every pair product is a fixed real combination of the 2d - 1 of j = 0
    and 1 (see :func:`_pair_recurrence`), so the table holds only those
    rows, as one ``[density | cdf | total]`` table from :func:`_with_cdf`,
    and each density row is V @ table with V = W [I; C].  Both stages form
    V the same way: real phase features of the sample, times a real map
    built once per state with [I; C] folded in.  Stage 1 weighs the table
    for the mode-1 marginal at phi1, whose row is formed once when only
    its phase-free mode survives; stage 2 for the mode-2 conditional at
    the sampled x1.  The table is stored column by column, so the entries
    a draw reads are contiguous.
    """

    d: int
    nodes: np.ndarray
    delta: float
    pairs: np.ndarray           # (2d - 1, G + cells + 1) rows of the pair
                                # products of j = 0 and 1
    marginal: np.ndarray        # (rows, 2d - 1) map of the marginal's
                                # features
    marginal_rows: np.ndarray   # j, or d + j for a sine row, of each row
                                # of marginal
    shared: np.ndarray | None   # the marginal row if only j = 0 survives
    conditional: np.ndarray     # (rows, 2d - 1) map of the conditional's
                                # features
    groups: tuple               # (|a|, its (a, b, sine) row blocks) of
                                # conditional, in row order
    conserving: bool            # whether every mode has b = 0, which holds
                                # exactly when rho conserves n - m

    @classmethod
    def build(cls, rho: BipartiteDensity):
        d = rho.dim_a
        span = quadrature_span(rho)
        nodes = np.linspace(-span, span, 2 * CELLS + 1)
        delta = nodes[1] - nodes[0]
        psi_nodes = oscillator_psi_table(d - 1, nodes)
        pairs = np.empty((2 * d - 1, 3 * CELLS + 2), order="F")
        np.multiply(psi_nodes, psi_nodes, out=pairs[:d, :2 * CELLS + 1])
        np.multiply(psi_nodes[1:], psi_nodes[:-1],
                    out=pairs[d:, :2 * CELLS + 1])
        _with_cdf(pairs, delta)
        # [I; C], whose rows map each pair weight to the table weights
        expand = np.vstack([np.eye(2 * d - 1), _pair_recurrence(d)])
        # the marginal's pair weights are c_j Re[rho_A[m, M] e^{ij phi1}],
        # so each j has a cosine row c_j Re rho_A[m, M] G_j and a sine row
        # -c_j Im rho_A[m, M] G_j; rows that are all zero are dropped
        reduced = rho.reduced(0)
        j, low = np.nonzero(np.add.outer(np.arange(d), np.arange(d)) < d)
        weights = (np.where(j, 2.0, 1.0) * reduced[low + j, low])[:, None]
        marginal = np.concatenate([
            np.add.reduceat(part * expand, np.flatnonzero(low == 0))
            for part in (weights.real, -weights.imag)])
        live = np.any(marginal, axis=1)
        live[d] = False
        shared = (np.real(np.diag(reduced)) @ pairs[:d]
                  if not live[1:].any() else None)
        conditional, groups = _conditional_map(rho, d, expand)
        conserving = all(b == 0 for _, blocks in groups for _, b, _ in blocks)
        return cls(d=d, nodes=nodes, delta=delta, pairs=pairs,
                   marginal=marginal[live],
                   marginal_rows=np.flatnonzero(live), shared=shared,
                   conditional=conditional, groups=groups,
                   conserving=conserving)

    # ---- stage 1: x1 from the phi1 marginal, the density of rho_A ----
    def marginal_weights(self, phi1: np.ndarray) -> np.ndarray:
        """The table weights of the marginal at at most _CHUNK phases:
        the features cos j phi1 and sin j phi1 of its surviving modes,
        padded with zeros to _CHUNK rows, times its map."""
        turn = _phase_powers(_padded(phi1), self.d)
        features = np.concatenate([turn.real, turn.imag])[self.marginal_rows]
        return _fixed_rows(features.T, self.marginal)[:phi1.size]

    def draw_marginal(self, phi1: np.ndarray, u: np.ndarray) -> np.ndarray:
        if self.shared is not None:
            column = self.shared.__getitem__
        else:
            column = _weighted_columns(self.marginal_weights(phi1),
                                       self.pairs)
        return _sample_columns(column, u, self.nodes, self.delta)

    # ---- stage 2: x2 from the conditional at the sampled x1 ----
    def pair_weights(self, x1: np.ndarray, phi1: np.ndarray,
                     phi2: np.ndarray, out: np.ndarray | None = None
                     ) -> np.ndarray:
        """Table weights V(s) of the conditional density of at most _CHUNK
        samples.

        Its pair weights are W_(j,M)(s) = c_j Re sum_{n,n'} psi_n(x1)
        psi_n'(x1) e^{i(a phi1 + j phi2)} rho_{n(M+j), n'M} with a = n - n',
        c_0 = 1 and c_j = 2.  The phase is a theta + b phi2 with
        theta = phi1 + phi2 and b = j - a, so with P_k(s) the pair products
        psi_{p+k}(x1) psi_p(x1), p < d - k,

            V(s) = sum_(a,b) P_|a|(s) cos(a theta + b phi2) c_j Re R_{a,j} G_j
                   + P_|a|(s) sin(a theta + b phi2) (-c_j Im R_{a,j} G_j),

        which is one real product: the features, stacked in a
        (rows, _CHUNK) array (out, if given, else a new one), times the
        map (see :func:`_conditional_map`).  Each group of row blocks of
        one |a| forms P_|a| once, in its first block.  A state that
        conserves n - m has only the modes b = 0, whose phases are the
        powers of e^{i theta} alone.
        """
        d = self.d
        n = x1.size
        # BLAS may round a row differently depending on how many rows the
        # call holds, so the samples are padded with zeros to _CHUNK once:
        # every product then has that row count, and each row the same bits
        # whatever the sample count, which keeps a shorter run a bitwise
        # prefix of a longer one
        x1, phi1, phi2 = (_padded(a) for a in (x1, phi1, phi2))
        psi1 = oscillator_psi_table(d - 1, x1)
        theta = _phase_powers(phi1 + phi2, d)
        spin = None if self.conserving else _phase_powers(phi2, 2 * d - 1)

        def mixed(turns, a, b):
            # e^{i(a theta + b phi2)} of a mode with b != 0, formed once per
            # group, in turns
            if (a, b) not in turns:
                turns[a, b] = ((theta[a] if a >= 0 else theta[-a].conj())
                               * (spin[b] if b > 0 else spin[-b].conj()))
            return turns[a, b]

        features = (np.empty((self.conditional.shape[0], _CHUNK))
                    if out is None else out)
        row = 0
        for k, blocks in self.groups:
            width = d - k
            products = features[row:row + width]
            np.multiply(psi1[k:], psi1[:width], out=products)
            turns = {}
            for a, b, sine in blocks[1:]:
                row += width
                turn = mixed(turns, a, b) if b else theta[a]
                np.multiply(products, turn.imag if sine else turn.real,
                            out=features[row:row + width])
            row += width
            a, b, sine = blocks[0]
            if a or b:
                turn = mixed(turns, a, b) if b else theta[a]
                products *= turn.imag if sine else turn.real
        return _fixed_rows(features.T, self.conditional)[:n]

    def draw_conditional(self, x1: np.ndarray, phi1: np.ndarray,
                         phi2: np.ndarray, u: np.ndarray,
                         weights: np.ndarray | None = None) -> np.ndarray:
        column = _weighted_columns(
            self.pair_weights(x1, phi1, phi2, weights), self.pairs)
        return _sample_columns(column, u, self.nodes, self.delta)


def _check_positive(rho: BipartiteDensity, tables: _SamplerTables) -> None:
    """Reject a state whose quadrature densities can fall below -1e-10
    on the grid.

    p(x1, x2) = <v|rho|v> with |v|^2 = |psi(x1)|^2 |psi(x2)|^2, where
    |psi(x)|^2 = sum_n psi_n(x)^2 <= M on the grid, so p >= lambda_min(rho)
    M^2; likewise the phi1 marginal is >= lambda_min(rho_A) M.  One
    eigenvalue check per state bounds every density row the sampler could
    draw.  M is read from the sampler's tables, whose first d rows are
    psi_n^2 on the grid.  When every mode of the conditional has b = 0,
    rho conserves n - m, so its spectrum is that of its blocks of fixed
    n - m.
    """
    d = rho.dim_a
    # the sectors of fixed n - m if rho conserves n - m, else all of rho
    diff = np.subtract.outer(np.arange(d), np.arange(d)).ravel()
    sectors = ([diff == j for j in range(1 - d, d)] if tables.conserving
               else [slice(None)])
    lowest = min(np.linalg.eigvalsh(rho.matrix[k][:, k])[0] for k in sectors)
    m = float(np.max(np.sum(tables.pairs[:d, :2 * CELLS + 1], axis=0)))
    floor = min(lowest * m * m, np.linalg.eigvalsh(rho.reduced(0))[0] * m)
    if floor < -PDF_NEGATIVITY_TOL:
        raise ValueError(
            f"marginal or conditional quadrature density can reach "
            f"{floor:.3e}; the state is invalid or the truncation failed")


def _uniform_prefix(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill out with the first out.size of BLOCK_SIZE uniforms on [0, 1)
    and leave rng where the full draw would.  ``Generator.random`` takes
    exactly one 64-bit word per double, so the unused draws are skipped by
    advancing the bit generator past their words."""
    rng.random(out=out)
    rng.bit_generator.advance(BLOCK_SIZE - out.size)


def _block_runner(n: int, seed: int, workers: int, draw, quadratures,
                  piece: int):
    """Check the arguments of a blocked sampler and return the block
    count, the worker count it uses and run(jobs), which draws each block
    b of the (b, rows) jobs into its rows (see :func:`_sample_blocks`)."""
    if n < 1:
        raise ValueError("sample count must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    workers = min(workers, n_blocks)

    def fill(b, rows):
        rng = np.random.default_rng(children[b])
        count = rows.shape[1]
        phi1, first, phi2, second = rows
        _uniform_prefix(rng, phi1)
        phi1 *= math.pi
        _uniform_prefix(rng, phi2)
        phi2 *= math.pi
        further = draw(rng, first, second)
        for start in range(0, count, piece):
            part = slice(start, min(start + piece, count))
            quadratures(phi1[part], phi2[part], first[part], second[part],
                        *(a[part] for a in further))

    def run(jobs):
        if workers == 1:
            for b, rows in jobs:
                fill(b, rows)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(lambda job: fill(*job), jobs))

    return n_blocks, workers, run


def _sample_blocks(n: int, seed: int, workers: int, draw, quadratures,
                   piece: int) -> HomodyneBatch:
    """Run a sampler over fixed blocks of BLOCK_SIZE samples.

    Block b gets its own generator from the b-th child of
    ``SeedSequence(seed)``.  It draws phi1 and phi2 uniform on [0, pi),
    then calls ``draw(rng, first, second)``, which fills the two per-sample
    draws, of the block's sample count, and returns any further ones at
    full block length.  Each draw leaves the generator where a draw of
    BLOCK_SIZE values would, so every block takes the same words.
    Then ``quadratures(phi1, phi2, first, second, *further)`` overwrites
    first and second with (x1, x2), in pieces of at most ``piece``
    samples, a size each sampler chooses.  So the output is bitwise the
    same for any worker count (workers > 1 runs blocks in a thread pool),
    and a shorter run is a prefix of a longer one as long as
    ``quadratures`` computes each sample independently of how many it is
    given.

    The batch is one (4, n) array, allocated once, whose C-contiguous rows
    are phi1, x1, phi2 and x2.  Every block draws straight into its own
    slice of it, the two per-sample draws into the x1 and x2 rows, which
    the quadratures of each piece then overwrite.  A short last block
    draws only the uniforms it keeps and skips the rest of each
    full-length draw (see :func:`_uniform_prefix`), so its draws are
    prefixes of the full block's.  Besides the batch a worker holds the
    further draws of one block and the temporaries of one piece, whatever
    n is.
    """
    n_blocks, _, run = _block_runner(n, seed, workers, draw, quadratures,
                                     piece)
    out = np.empty((4, n))
    run([(b, out[:, b * BLOCK_SIZE:(b + 1) * BLOCK_SIZE])
         for b in range(n_blocks)])
    return HomodyneBatch(*out)


def _stream_blocks(n: int, seed: int, workers: int, draw, quadratures,
                   piece: int):
    """The blocks of the batch of :func:`_sample_blocks` with the same
    arguments, in order, as :class:`HomodyneBatch` views of at most
    BLOCK_SIZE samples with the bits of their slices of the batch.

    The arguments are checked before this returns; nothing is drawn until
    the first block is requested.  Each block is drawn into one of
    ``workers`` reused (4, BLOCK_SIZE) buffers, ``workers`` blocks at a
    time, so a view is valid only until the next one is requested and at
    most that many buffers are alive.
    """
    n_blocks, workers, run = _block_runner(n, seed, workers, draw,
                                           quadratures, piece)

    def blocks():
        buffers = np.empty((workers, 4, min(n, BLOCK_SIZE)))
        for first in range(0, n_blocks, workers):
            jobs = [(b, buffer[:, :n - b * BLOCK_SIZE])
                    for b, buffer in zip(range(first, n_blocks), buffers)]
            run(jobs)
            for _, rows in jobs:
                yield HomodyneBatch(*rows)
    return blocks()

def sample_homodyne(rho: BipartiteDensity, n: int, seed: int,
                    workers: int = 1) -> HomodyneBatch:
    """Draw n joint homodyne samples from a two-mode state whose modes
    have equal dimension (a ValueError otherwise).

    Outcomes are drawn per sample by inverse CDF: x1 from the phi1 marginal,
    then x2 from the conditional at the sampled x1, both tabulated on a fixed
    grid of 2*CELLS+1 nodes over [-L, L] (:func:`quadrature_span`) and
    integrated cell-wise with Simpson weights.  The draws follow the law
    conditioned on that window.  Against the twin beam's exact Gaussian law
    the table CDFs are off by at most 1.4e-6 at x = 0.5 and 1.2e-5 at
    x = 0.7 (the Simpson part is below 4e-8, the rest is the truncated
    state); at x = 0.9 the window leaves 1.1e-4 of a conditional's mass
    outside it, and the distance is that large.

    Every state takes one path.  Both densities are linear in a few real
    pair weights W, one per product psi_m psi_M with m >= M.  Each such
    product is a fixed real combination of the 2d - 1 products of
    m - M = 0 and 1 (Hermite three-term recurrence), so the sampler
    tabulates only those and their cumulative Simpson cell masses (each
    tail accumulated from its own end) once per state, in one table for
    both stages, and maps W to the weights V = W [I; C] of its rows.  A
    draw never forms its row V @ [products | cell CDFs]: a binary search
    over the cells reads one CDF entry per step as the dot product of V
    with one table column, then the three node densities of the cell it
    lands in, and safeguarded Newton steps invert that cell's Simpson
    cubic to 2^-50 of the cell's mass.  Both stages form V as real phase
    features of the sample times a real map built once per state: the
    marginal's features are cos j phi1 and sin j phi1, and its row is
    formed once and shared by every draw when rho_A is diagonal; the
    conditional's are the pair products at x1 times the cosine and sine
    of each phase mode of rho (see :meth:`_SamplerTables.pair_weights`).
    rho is checked once: a ValueError is raised if its smallest eigenvalue
    lets a quadrature density on the grid fall below -1e-10.

    Samples are organized in fixed blocks of 65536 with one spawned RNG
    substream per block, so the result is bitwise reproducible and
    independent of the worker count; workers > 1 parallelizes over blocks.
    Every block draws its phases and uniforms straight into its slice of
    the batch (a short last block skips the words of the uniforms it does
    not use), and each chunk of _CHUNK = 1024 samples overwrites its
    uniforms with its outcomes.  Each worker writes the conditional's
    features of every chunk into one buffer that it allocates once per
    call, and table columns are read in slices of cache size, so the
    working memory is the 32 n bytes of the batch plus the table and one
    chunk's temporaries per worker.
    Every value of a sample is computed row by row (the BLAS products at
    one fixed row count, with the samples of a short chunk padded once to
    that count, and in row blocks small enough for one BLAS thread), so a
    shorter run is a bitwise prefix of a longer one.
    """
    if not isinstance(rho, BipartiteDensity):
        raise TypeError("rho must be a BipartiteDensity")
    if rho.dim_a != rho.dim_b:
        raise ValueError(f"the two modes need equal dimensions, got "
                         f"dim_a={rho.dim_a} and dim_b={rho.dim_b}")
    tables = _SamplerTables.build(rho)
    _check_positive(rho, tables)

    # one buffer of conditional features per worker thread for the whole
    # call
    local = threading.local()

    def draw(rng, u1, u2):
        _uniform_prefix(rng, u1)
        _uniform_prefix(rng, u2)
        return ()

    def quadratures(phi1, phi2, u1, u2):
        if not hasattr(local, "weights"):
            local.weights = np.empty((tables.conditional.shape[0], _CHUNK))
        x1 = tables.draw_marginal(phi1, u1)
        u2[:] = tables.draw_conditional(x1, phi1, phi2, u2, local.weights)
        u1[:] = x1

    return _sample_blocks(n, seed, workers, draw, quadratures, _CHUNK)


def sample_twin_beam(x: float, n: int, seed: int, gamma_t: float = 0.0,
                     kappa: float = 0.0, workers: int = 1,
                     stream: bool = False):
    """Draw n joint homodyne samples from the twin beam with amplitudes
    sqrt(1-x^2) x^n on |nn>, after phase diffusion gamma_t and Gaussian
    displacement noise kappa on both modes, from their exact law.

    At fixed phases the twin beam is Gaussian: (x1, x2) is bivariate normal
    with mean 0, Var x1 = Var x2 = V = (1 + x^2)/(4(1 - x^2)) + kappa/2 and
    Cov = x cos(phi1 + phi2 + theta)/(2(1 - x^2)).  Displacement noise only
    adds kappa/2 to each variance.  Phase diffusion multiplies the
    coherence between |pp> and |qq> by exp(-gamma_t (p - q)^2), which makes
    the state a mixture over theta ~ N(0, 2 gamma_t) (theta = 0 without
    phase noise, uniform on [0, 2 pi) at gamma_t = inf).  Each sample is
    x1 = sqrt(V) z1, x2 = (Cov/V) x1 + sqrt(V - Cov^2/V) z2 for standard
    normal z1, z2; V - |Cov| >= (1 - x)/(4(1 + x)) > 0 keeps the root real.
    V^2 must be finite in float64, so a kappa above about 2.68e154 raises
    ValueError before anything is drawn.

    No Fock truncation enters.  Blocks, seeding, worker independence and
    the memory bound are those of :func:`sample_homodyne`, but the draws
    differ from it; a short block also holds one block-length row of
    normals.  The outcomes are formed in pieces of specfn._CHUNK = 8192
    samples, in place over the normals in the batch rows, with the
    operations of the expressions above in their order, so each piece's
    temporaries are three arrays of its length.

    With ``stream``, nothing is drawn before this returns: the result is an
    iterator of the batch's blocks in order, each a :class:`HomodyneBatch`
    of at most BLOCK_SIZE samples with the bits of its slice of the batch,
    drawn into one of ``workers`` reused buffers and valid until the next
    block is requested (see :func:`_stream_blocks`).  A consumer that
    reads each sample once then holds 32 bytes a sample of one block per
    worker instead of the 32 n-byte batch.
    """
    if not 0.0 <= x < 1.0:
        raise ValueError(f"twin-beam parameter x={x} outside [0, 1)")
    _check_gamma_t(gamma_t)
    _check_kappa(kappa)
    var = (1.0 + x * x) / (4.0 * (1.0 - x * x)) + 0.5 * kappa
    if not math.isfinite(var * var):
        raise ValueError(f"kappa={kappa}: the quadrature variance has no "
                         "finite square; kappa must lie below 2.68e154")
    amplitude = x / (2.0 * (1.0 - x * x))
    # sqrt(2) sqrt(gamma_t) stays finite for every finite gamma_t
    spread = math.sqrt(2.0) * math.sqrt(gamma_t)

    def draw(rng, z1, z2):
        if z1.size == BLOCK_SIZE:
            rng.standard_normal(out=z1)
            rng.standard_normal(out=z2)
        else:
            # a normal takes a variable number of words, so a short block
            # cannot skip the unused ones: it draws both at full length
            # through one reused row
            row = np.empty(BLOCK_SIZE)
            for z in (z1, z2):
                rng.standard_normal(out=row)
                z[:] = row[:z.size]
        if gamma_t == 0.0:
            return ()
        if gamma_t == math.inf:
            theta = rng.random(BLOCK_SIZE)
            theta *= 2.0 * math.pi
        else:
            theta = rng.standard_normal(BLOCK_SIZE)
            theta *= spread
        return (theta,)

    def quadratures(phi1, phi2, z1, z2, theta=None):
        # x1 = sqrt(V) z1 and x2 = Cov/V x1 + sqrt((V - Cov)(V + Cov)/V) z2
        # over z1 and z2 in place; each product and sum has the operands of
        # the expression, so the bits are the same (phi1 + phi2 >= 0, so
        # adding a zero theta would change nothing)
        cov = np.add(phi1, phi2)
        if theta is not None:
            cov += theta
        np.cos(cov, out=cov)
        cov *= amplitude
        z1 *= math.sqrt(var)
        root = np.subtract(var, cov)
        root *= var + cov
        root /= var
        z2 *= np.sqrt(root, out=root)
        cov /= var
        cov *= z1
        z2 += cov

    sample = _stream_blocks if stream else _sample_blocks
    return sample(n, seed, workers, draw, quadratures, _KERNEL_CHUNK)
