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

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cv import DifferenceBlocks, _check_gamma_t, _check_kappa
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
    """Monte Carlo mean with its standard error; one sample has no spread,
    so its standard error is None."""

    mean: float
    std_error: float | None
    n_samples: int


def witness_kernel(x1, phi1, x2, phi2):
    """Homodyne estimator kernel whose sample average converges to Tr[rho W]
    for the two-mode witness W = (|01><01| + |10><10| - |00><11| - |11><00|)/2.

    Depends on the phases only through phi1 + phi2.  The kernel is
    elementwise, so it is evaluated specfn._CHUNK points at a time into
    one values array: its temporaries do not grow with the input.
    """
    args = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                 for a in (x1, phi1, x2, phi2)))
    x1, phi1, x2, phi2 = (a.reshape(-1) for a in args)
    values = np.empty(x1.size)
    for start in range(0, values.size, _KERNEL_CHUNK):
        sl = slice(start, start + _KERNEL_CHUNK)
        phase = np.cos(phi1[sl] + phi2[sl])
        a00, a01, a11 = pattern_functions(x1[sl])
        b00, b01, b11 = pattern_functions(x2[sl])
        values[sl] = 0.5 * (a00 * b11 + a11 * b00 - 2.0 * phase * a01 * b01)
    return values.reshape(args[0].shape)[()]


def mc_estimate_witness(batch: HomodyneBatch) -> McEstimate:
    """Sample mean and standard error of the witness kernel over a batch.

    The deviations are squared in place in the values array, which gives
    the bits of ``np.std(values, ddof=1)`` without its second array.
    """
    values = witness_kernel(batch.x1, batch.phi1, batch.x2, batch.phi2)
    n = len(values)
    mean = float(np.mean(values))
    if n == 1:
        return McEstimate(mean=mean, std_error=None, n_samples=n)
    values -= mean
    values *= values
    std_error = float(np.sqrt(np.sum(values) / (n - 1)) / math.sqrt(n))
    return McEstimate(mean=mean, std_error=std_error, n_samples=n)


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
    :meth:`_SamplerTables.pair_weights`)."""
    assert a.shape[0] == _CHUNK
    return a @ b


def _phase_powers(angle: np.ndarray, d: int,
                  factor: float = 1.0) -> np.ndarray:
    """The (d, n) array of 1 and factor e^{ij angle}, j = 1 .. d-1, by one
    complex exponential and a cumulative product: d cosines and sines per
    sample cost more than the products that use them."""
    turn = np.empty((d, angle.size), dtype=complex)
    turn[0] = 1.0
    turn[1:] = np.exp(1j * angle)
    turn[1] *= factor
    return np.cumprod(turn, axis=0)


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
    the same bits."""
    columns = table.T

    def column(k):
        if np.ndim(k) == 0:
            return np.einsum("np,p->n", weights, columns[k])
        return np.einsum("np,np->n", weights, columns[k])
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


@dataclass
class _SamplerTables:
    """Everything precomputed once per (state, grid) for the sampling loop.

    Both densities the sampler draws from are linear in real weights W of
    the pair products psi_m psi_M (m >= M, ordered by j = m - M, then M), so
    each row is one product W @ table with the one ``[density | cdf |
    total]`` table of those products from :func:`_with_cdf`.  Stage 1 weighs
    them for the mode-1 marginal at phi1, whose row is formed once from the
    j = 0 products when rho_A is diagonal; stage 2 with the pair weights
    W(s) of the mode-2 conditional operator at the sampled x1.  The table
    is stored column by column, so the entries a draw reads are contiguous.
    """

    d: int
    nodes: np.ndarray
    delta: float
    pairs: np.ndarray           # (d(d+1)/2, G + cells + 1) pair-product rows
    pair_j: np.ndarray          # index difference m - M of each pair
    reduced_pairs: np.ndarray   # c_j rho_A[m, M] of each pair
    shared: np.ndarray | None   # the marginal row if rho_A is diagonal
    diff: DifferenceBlocks | None
    block_parts: tuple          # contiguous (B_j.real, B_j.imag or None) per j
    cond: np.ndarray | None     # (d^2, d(d+1)/2) map c_j C(s)[m, M] =
                                # (u1 x conj(u1)) @ cond, for states without
                                # blocks

    @classmethod
    def build(cls, rho: BipartiteDensity):
        d = rho.dim_a
        span = quadrature_span(rho)
        nodes = np.linspace(-span, span, 2 * CELLS + 1)
        delta = nodes[1] - nodes[0]
        psi_nodes = oscillator_psi_table(d - 1, nodes)
        pair_j = np.concatenate([np.full(d - j, j) for j in range(d)])
        pair_m = np.concatenate([np.arange(j, d) for j in range(d)])
        # c_0 = 1 and c_j = 2 count the pair (m, M) and its transpose; a
        # power of two, so folding it in changes no bits
        scale = np.where(pair_j == 0, 1.0, 2.0)
        pairs = np.empty((pair_j.size, 3 * CELLS + 2), order="F")
        start = 0
        for j in range(d):
            np.multiply(psi_nodes[j:], psi_nodes[: d - j],
                        out=pairs[start:start + d - j, :2 * CELLS + 1])
            start += d - j
        _with_cdf(pairs, delta)
        reduced = rho.reduced(0)
        diagonal = np.abs(reduced - np.diag(np.diag(reduced))).max() <= 1e-14
        shared = np.real(np.diag(reduced)) @ pairs[:d] if diagonal else None
        diff = DifferenceBlocks.of(rho)
        block_parts = ()
        cond = None
        if diff is not None:
            block_parts = tuple(
                (np.ascontiguousarray(block.real),
                 np.ascontiguousarray(block.imag)
                 if j > 0 and np.iscomplexobj(block) else None)
                for j, block in enumerate(diff.blocks))
        else:
            # C(s)[m, M] = sum_kl u1_k conj(u1_l) rho_{km, lM}
            t_cond = (rho.matrix.reshape(d, d, d, d).transpose(0, 2, 1, 3)
                      .reshape(d * d, d * d))
            cond = t_cond[:, pair_m * d + pair_m - pair_j] * scale
        return cls(d=d, nodes=nodes, delta=delta, pairs=pairs, pair_j=pair_j,
                   reduced_pairs=reduced[pair_m, pair_m - pair_j] * scale,
                   shared=shared, diff=diff, block_parts=block_parts,
                   cond=cond)

    def phase_weights(self, coef: np.ndarray,
                      angle: np.ndarray) -> np.ndarray:
        """Re[coef e^{ij angle}] per pair (j = m - M) and angle: the pair
        weights of a density sum C[m, M] psi_m psi_M e^{i(m-M) angle} with
        Hermitian C, from coef = c_j C[m, M] over the pairs m >= M alone."""
        return (coef * _phase_powers(angle, self.d)[self.pair_j].T).real

    # ---- stage 1: x1 from the phi1 marginal, the density of rho_A ----
    def draw_marginal(self, phi1: np.ndarray, u: np.ndarray) -> np.ndarray:
        if self.shared is not None:
            column = self.shared.__getitem__
        else:
            column = _weighted_columns(
                self.phase_weights(self.reduced_pairs, phi1), self.pairs)
        return _sample_columns(column, u, self.nodes, self.delta)

    # ---- stage 2: x2 from the conditional at the sampled x1 ----
    def pair_weights(self, x1: np.ndarray, phi1: np.ndarray,
                     phi2: np.ndarray) -> np.ndarray:
        """Real weights W(s) of the pair rows in the conditional density.

        On the index-difference support (see :class:`cv.DifferenceBlocks`)
        they factor into one small matrix product per difference j: with
        B_j[i, l] = rho_{(i+j)(l+j), il} and a_j(s)_i = psi_{i+j}(x1) psi_i(x1),

            W_(j,l)(s) = c_j Re[e^{ij(phi1+phi2)} (a_j(s) B_j)_l],

        c_0 = 1 and c_j = 2, where the cosine and sine of j(phi1+phi2) fold
        into W, so real and complex blocks share one pair table.  a_j(s) is
        real, so the products with the real and imaginary parts of B_j run
        as real products, each written straight into its columns of W.
        Any other state takes W from the mode-2 conditional operator C(s),
        which is Hermitian: W_(j,l)(s) = c_j Re[C(s)[m, M] e^{ij phi2}]
        over the pairs m = M + j alone, one row-wise einsum (d <= 4 in
        practice).
        """
        d = self.d
        n = x1.size
        if self.diff is None:
            psi1 = oscillator_psi_table(d - 1, x1)
            u1 = (psi1 * _phase_powers(phi1, d)).T
            outer = (u1[:, :, None] * u1.conj()[:, None, :]).reshape(n, -1)
            return self.phase_weights(
                np.einsum("nk,kl->nl", outer, self.cond), phi2)
        # BLAS may round a row differently depending on how many rows the
        # call holds, so x1 is padded with zeros to _CHUNK once: every block
        # product then has that row count, and each row the same bits
        # whatever the sample count, which keeps a shorter run a bitwise
        # prefix of a longer one
        padded = np.zeros(_CHUNK)
        padded[:n] = x1
        psi1 = oscillator_psi_table(d - 1, padded)
        # 1 and 2 e^{ij(phi1+phi2)}
        turn = _phase_powers(phi1 + phi2, d, 2.0)[:, :, None]
        weights = np.empty((n, self.pair_j.size))
        col = 0
        for j, (re, im) in enumerate(self.block_parts):
            a_j = (psi1[j:] * psi1[: d - j]).T
            out = weights[:, col:col + d - j]
            col += d - j
            product = _fixed_rows(a_j, re)[:n]
            if im is None:
                np.multiply(turn[j].real, product, out=out)
            else:
                product *= turn[j].real
                rest = _fixed_rows(a_j, im)[:n]
                rest *= turn[j].imag
                np.subtract(product, rest, out=out)
        return weights

    def draw_conditional(self, x1: np.ndarray, phi1: np.ndarray,
                         phi2: np.ndarray, u: np.ndarray) -> np.ndarray:
        column = _weighted_columns(self.pair_weights(x1, phi1, phi2),
                                   self.pairs)
        return _sample_columns(column, u, self.nodes, self.delta)


def _check_positive(rho: BipartiteDensity, nodes: np.ndarray,
                    sectors: bool) -> None:
    """Reject a state whose quadrature densities can fall below -1e-10
    on the grid.

    p(x1, x2) = <v|rho|v> with |v|^2 = |psi(x1)|^2 |psi(x2)|^2, where
    |psi(x)|^2 = sum_n psi_n(x)^2 <= M on the grid, so p >= lambda_min(rho)
    M^2; likewise the phi1 marginal is >= lambda_min(rho_A) M.  One
    eigenvalue check per state bounds every density row the sampler could
    draw.  A state on the index-difference support conserves n - m, so
    with ``sectors`` its spectrum is that of its blocks of fixed n - m.
    """
    d = rho.dim_a
    if sectors:
        diff = np.subtract.outer(np.arange(d), np.arange(d)).ravel()
        lowest = min(np.linalg.eigvalsh(rho.matrix[np.ix_(k, k)])[0]
                     for k in (np.flatnonzero(diff == j)
                               for j in range(1 - d, d)))
    else:
        lowest = np.linalg.eigvalsh(rho.matrix)[0]
    psi = oscillator_psi_table(d - 1, nodes)
    m = float(np.max(np.sum(psi * psi, axis=0)))
    floor = min(lowest * m * m, np.linalg.eigvalsh(rho.reduced(0))[0] * m)
    if floor < -PDF_NEGATIVITY_TOL:
        raise ValueError(
            f"marginal or conditional quadrature density can reach "
            f"{floor:.3e}; the state is invalid or the truncation failed")


def _sample_blocks(n: int, seed: int, workers: int, draw,
                   quadratures) -> HomodyneBatch:
    """Run a sampler over fixed blocks of BLOCK_SIZE samples.

    Block b gets its own generator from the b-th child of
    ``SeedSequence(seed)``.  It draws phi1 and phi2 uniform on [0, pi),
    then calls ``draw(rng, first, second)``, which fills the two per-sample
    draws and returns any further ones, every one at full block length.
    Then ``quadratures(phi1, phi2, first, second, *further)`` turns pieces
    of at most _CHUNK samples into (x1, x2).  So the output is bitwise the
    same for any worker count (workers > 1 runs blocks in a thread pool),
    and a shorter run is a prefix of a longer one as long as
    ``quadratures`` computes each sample independently of how many it is
    given.

    The batch is one (4, n) array, allocated once, whose C-contiguous rows
    are phi1, x1, phi2 and x2.  A full block draws straight into its own
    slice of it, the two per-sample draws into the x1 and x2 rows, which
    the quadratures of each piece then overwrite; a short last block draws
    into one (4, BLOCK_SIZE) scratch array and copies its phases over.
    Besides the batch a worker holds the further draws of one block and
    the temporaries of one piece, whatever n is.
    """
    if n < 1:
        raise ValueError("sample count must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    out = np.empty((4, n))

    def block(b):
        rng = np.random.default_rng(children[b])
        rows = out[:, b * BLOCK_SIZE:(b + 1) * BLOCK_SIZE]
        count = rows.shape[1]
        full = count == BLOCK_SIZE
        phi1, first, phi2, second = (rows if full
                                     else np.empty((4, BLOCK_SIZE)))
        rng.random(out=phi1)
        phi1 *= math.pi
        rng.random(out=phi2)
        phi2 *= math.pi
        further = draw(rng, first, second)
        if not full:
            rows[0] = phi1[:count]
            rows[2] = phi2[:count]
        for start in range(0, count, _CHUNK):
            piece = slice(start, min(start + _CHUNK, count))
            rows[1, piece], rows[3, piece] = quadratures(
                phi1[piece], phi2[piece], first[piece], second[piece],
                *(a[piece] for a in further))

    if workers == 1 or n_blocks == 1:
        for b in range(n_blocks):
            block(b)
    else:
        with ThreadPoolExecutor(max_workers=min(workers, n_blocks)) as pool:
            list(pool.map(block, range(n_blocks)))
    return HomodyneBatch(phi1=out[0], x1=out[1], phi2=out[2], x2=out[3])


def sample_homodyne(rho: BipartiteDensity, n: int, seed: int,
                    workers: int = 1) -> HomodyneBatch:
    """Draw n joint homodyne samples from a two-mode state.

    Outcomes are drawn per sample by inverse CDF: x1 from the phi1 marginal,
    then x2 from the conditional at the sampled x1, both tabulated on a fixed
    grid of 2*CELLS+1 nodes over [-L, L] and integrated cell-wise with
    Simpson weights (grid CDF error well below 1e-6 at the default size).

    Every state takes one path.  Both densities are linear in a few real
    pair weights W, one per product psi_m psi_M with m >= M, so the sampler
    tabulates those products and their cumulative Simpson cell masses (each
    tail accumulated from its own end) once per state, in one table for
    both stages.  A draw never forms its row W @ [products | cell CDFs]: a
    binary search over the cells reads one CDF entry per step as the dot
    product of W with one table column, then the three node densities of
    the cell it lands in, and safeguarded Newton steps invert that cell's
    Simpson cubic to 2^-50 of the cell's mass.  The marginal's W is
    c_j Re[rho_A[m, M] e^{ij phi1}], formed once into a row that every draw
    shares when rho_A is diagonal; the conditional's comes from the
    index-difference blocks when rho has that support, and from the
    Hermitian mode-2 conditional operator C(s) otherwise, of which only the
    entries m >= M are formed.  rho is checked once: a ValueError is raised
    if its smallest eigenvalue lets a quadrature density on the grid fall
    below -1e-10.

    Samples are organized in fixed blocks of 65536 with one spawned RNG
    substream per block, so the result is bitwise reproducible and
    independent of the worker count; workers > 1 parallelizes over blocks.
    A full block draws its phases and uniforms straight into its slice of
    the batch, and each chunk of _CHUNK = 1024 samples overwrites its
    uniforms with its outcomes, so the working memory is the 32 n bytes of
    the batch plus one chunk's temporaries per worker (and one block of
    scratch draws for a short last block).
    Every value of a sample is computed row by row (the BLAS block products
    at one fixed row count, with x1 of a short chunk padded once to that
    count), so a shorter run is a bitwise prefix of a longer one.
    """
    if not isinstance(rho, BipartiteDensity):
        raise TypeError("rho must be a BipartiteDensity")
    tables = _SamplerTables.build(rho)
    _check_positive(rho, tables.nodes, tables.diff is not None)

    def draw(rng, u1, u2):
        rng.random(out=u1)
        rng.random(out=u2)
        return ()

    def quadratures(phi1, phi2, u1, u2):
        x1 = tables.draw_marginal(phi1, u1)
        return x1, tables.draw_conditional(x1, phi1, phi2, u2)

    return _sample_blocks(n, seed, workers, draw, quadratures)


def sample_twin_beam(x: float, n: int, seed: int, gamma_t: float = 0.0,
                     kappa: float = 0.0, workers: int = 1) -> HomodyneBatch:
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

    No Fock truncation enters.  Blocks, chunks, seeding, worker
    independence and the memory bound are those of
    :func:`sample_homodyne`, but the draws differ from it.
    """
    if not 0.0 <= x < 1.0:
        raise ValueError(f"twin-beam parameter x={x} outside [0, 1)")
    _check_gamma_t(gamma_t)
    _check_kappa(kappa)
    var = (1.0 + x * x) / (4.0 * (1.0 - x * x)) + 0.5 * kappa
    amplitude = x / (2.0 * (1.0 - x * x))
    # sqrt(2) sqrt(gamma_t) stays finite for every finite gamma_t
    spread = math.sqrt(2.0) * math.sqrt(gamma_t)

    def draw(rng, z1, z2):
        rng.standard_normal(out=z1)
        rng.standard_normal(out=z2)
        if gamma_t == 0.0:
            return ()
        if gamma_t == math.inf:
            theta = rng.random(BLOCK_SIZE)
            theta *= 2.0 * math.pi
        else:
            theta = rng.standard_normal(BLOCK_SIZE)
            theta *= spread
        return (theta,)

    def quadratures(phi1, phi2, z1, z2, theta=0.0):
        cov = amplitude * np.cos(phi1 + phi2 + theta)
        x1 = math.sqrt(var) * z1
        x2 = cov / var * x1 + np.sqrt((var - cov) * (var + cov) / var) * z2
        return x1, x2

    return _sample_blocks(n, seed, workers, draw, quadratures)
