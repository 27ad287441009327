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
from .specfn import oscillator_psi_table, pattern_functions
from .states import BipartiteDensity

BLOCK_SIZE = 65536          # determinism unit: one RNG substream per block
CELLS = 512                 # Simpson cells of the sampling grid
_CHUNK = 2048               # samples per draw; rows of the block products
PDF_NEGATIVITY_TOL = 1e-10


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
    """Monte Carlo mean with its standard error."""

    mean: float
    std_error: float
    n_samples: int


def witness_kernel(x1, phi1, x2, phi2):
    """Homodyne estimator kernel whose sample average converges to Tr[rho W]
    for the two-mode witness W = (|01><01| + |10><10| - |00><11| - |11><00|)/2.

    Depends on the phases only through phi1 + phi2.
    """
    phase = np.cos(np.asarray(phi1, dtype=float) + np.asarray(phi2, dtype=float))
    a00, a01, a11 = pattern_functions(x1)
    b00, b01, b11 = pattern_functions(x2)
    return 0.5 * (a00 * b11 + a11 * b00 - 2.0 * phase * a01 * b01)


def mc_estimate_witness(batch: HomodyneBatch) -> McEstimate:
    """Sample mean and standard error of the witness kernel over a batch."""
    values = witness_kernel(batch.x1, batch.phi1, batch.x2, batch.phi2)
    n = len(values)
    mean = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
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

def _with_cdf(rows: np.ndarray, delta: float) -> np.ndarray:
    """Append CDF columns to density rows along the last axis:
    ``[rows | cdf | total]``.

    With m_c the Simpson mass of node pair [2c, 2c+2], cdf[c] is the mass up
    to the end of cell c over the lower half of the cells, and minus the mass
    after cell c over the upper half; total is the mass of all cells.  Each
    tail is thus accumulated from its own end, so a weighted sum of rows
    resolves small tail masses to rounding relative to themselves rather
    than to the total.  The map is linear, so a weighted sum of table rows
    is the table of the weighted density: the sampler builds it once per
    state.
    """
    cells = delta / 3.0 * (rows[..., 0:-2:2] + 4.0 * rows[..., 1:-1:2]
                           + rows[..., 2::2])
    half = cells.shape[-1] // 2
    lower = np.cumsum(cells[..., :half], axis=-1)
    after = np.cumsum(cells[..., :half - 1:-1], axis=-1)[..., ::-1]
    upper = np.zeros_like(after)
    upper[..., :-1] = -after[..., 1:]
    total = lower[..., -1:] + after[..., :1]
    return np.concatenate([rows, lower, upper, total], axis=-1)


def _fixed_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b evaluated at exactly _CHUNK rows of a.

    BLAS may round a row differently depending on how many rows the call
    holds, so a short chunk is padded with zero rows.  Every row then has
    the same bits whatever the sample count, which keeps a shorter run a
    bitwise prefix of a longer one.
    """
    padded = np.zeros((_CHUNK, a.shape[1]), dtype=a.dtype)
    padded[: a.shape[0]] = a
    return (padded @ b)[: a.shape[0]]


def _invert_cells(p0, p1, p2, residual, n_steps: int = 42) -> np.ndarray:
    """Solve for t in [0, 2] with int_0^t quad(p0,p1,p2) = residual / delta.

    The integrated quadratic interpolant is the cubic t (a + t (b + t c));
    plain vectorized bisection is unconditionally robust and bitwise
    deterministic.  Every midpoint lo + step is a dyadic number of at most
    43 bits, so it is exact.
    """
    a = p0
    b = p1 - 0.75 * p0 - 0.25 * p2
    c = (p0 - 2.0 * p1 + p2) / 6.0
    lo = np.zeros_like(residual)
    step = 1.0
    for _ in range(n_steps):
        t = lo + step
        lo = np.where(t * (a + t * (b + t * c)) > residual, lo, t)
        step *= 0.5
    return lo + step


def _row_columns(rows: np.ndarray):
    """Column accessor of ``[density | cdf | total]`` rows (see
    :func:`_with_cdf`): one shared row of shape (width,), or one row per
    draw of shape (n, width)."""
    if rows.ndim == 1:
        return rows.__getitem__
    take = np.arange(rows.shape[0])
    return lambda k: rows[take, k]


def _weighted_columns(weights: np.ndarray, table: np.ndarray):
    """Column accessor of the rows ``weights @ table`` that never forms
    them: column k[i] of row i is the dot product of weights[i] with
    column k[i] of the table.  Each is a row-wise einsum, which rounds a
    row the same way whatever the number of rows."""
    columns = table.T
    return lambda k: np.einsum("np,np->n", weights, columns[k])


def _sample_columns(column, u: np.ndarray, nodes: np.ndarray,
                    delta: float) -> np.ndarray:
    """Draw one outcome per entry of u by inverse CDF from
    ``[density | cdf | total]`` rows (see :func:`_with_cdf`) read through
    ``column(k)``, which returns entry k[i] of row i for an index array k.

    A binary search of ceil(log2 cells) steps finds the first cell whose
    CDF is not below its target, u * total on the lower half of the cells
    and (u - 1) * total on the upper half, where cdf holds minus the mass
    after each cell; the draw is inverted inside that cell.  The last cell
    always qualifies, as its cdf is 0 and u < 1, so the search stays in
    range.  Each draw reads about a dozen entries of its row, not all of it.
    """
    g = nodes.size
    cells = g // 2
    half = cells // 2
    total = column(np.full(u.size, g + cells))
    if np.any(total <= 0.0):
        raise ValueError("quadrature density has vanishing total mass")
    below_target = u * total
    above_target = (u - 1.0) * total
    lo = np.zeros(u.size, dtype=np.intp)
    hi = np.full(u.size, cells - 1)
    below = np.zeros(u.size)       # cdf[lo - 1], or 0 while lo = 0
    for _ in range((cells - 1).bit_length()):
        mid = (lo + hi) // 2
        cdf = column(g + mid)
        right = cdf < np.where(mid < half, below_target, above_target)
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)
        below = np.where(right, cdf, below)
    target = np.where(lo > half, above_target, below_target)
    t = _invert_cells(column(2 * lo), column(2 * lo + 1), column(2 * lo + 2),
                      (target - below) / delta)
    return nodes[2 * lo] + t * delta


@dataclass
class _SamplerTables:
    """Everything precomputed once per (state, grid) for the sampling loop.

    Each density row the sampler draws from is linear in a few real weights,
    so it is one product W @ table with a ``[density | cdf | total]`` table
    from :func:`_with_cdf`.  Stage 1 weighs the phase-coefficient rows of the
    mode-1 marginal; stage 2 weighs the pair products psi_m psi_M (m >= M,
    ordered by j = m - M, then M) with the pair weights W(s) of the mode-2
    conditional operator at the sampled x1.  The tables are stored column
    by column, so the entries a draw reads are contiguous.
    """

    d: int
    nodes: np.ndarray
    delta: float
    marginal: np.ndarray        # shared row if the reduced state is diagonal,
                                # else (2d-1, G + cells + 1) phase-coefficient
                                # rows
    pairs: np.ndarray           # (d(d+1)/2, G + cells + 1) pair-product rows
    diff: DifferenceBlocks | None
    t_cond: np.ndarray | None   # (d^2, d^2) map C(s) = (u1 x conj(u1)) @ t_cond,
                                # for states without blocks
    pair_j: np.ndarray          # index difference m - M of each pair
    upper: np.ndarray           # flat index m*d + M of C[m, M] for each pair
    lower: np.ndarray           # flat index M*d + m

    @classmethod
    def build(cls, rho: BipartiteDensity):
        d = rho.dim_a
        span = quadrature_span(rho)
        nodes = np.linspace(-span, span, 2 * CELLS + 1)
        delta = nodes[1] - nodes[0]
        psi_nodes = oscillator_psi_table(d - 1, nodes)
        reduced = rho.reduced(0)
        off = reduced - np.diag(np.diag(reduced))
        if np.abs(off).max() <= 1e-14:
            diag = np.real(np.diag(reduced))
            if diag.min() < -PDF_NEGATIVITY_TOL:
                raise ValueError("reduced state has negative populations")
            marginal = np.clip(diag, 0.0, None) @ (psi_nodes * psi_nodes)
        else:
            rows = [np.real(np.diag(reduced)) @ (psi_nodes * psi_nodes)]
            for j in range(1, d):
                cj = np.einsum("n,ng,ng->g", np.diag(reduced, -j),
                               psi_nodes[j:], psi_nodes[:d - j])
                rows.append(2.0 * cj.real)
                rows.append(-2.0 * cj.imag)
            marginal = np.vstack(rows)
        pair_j = np.concatenate([np.full(d - j, j) for j in range(d)])
        pair_m = np.concatenate([np.arange(j, d) for j in range(d)])
        pairs = np.vstack([psi_nodes[j:] * psi_nodes[: d - j]
                           for j in range(d)])
        diff = DifferenceBlocks.of(rho)
        t_cond = (None if diff is not None
                  else rho.matrix.reshape(d, d, d, d).transpose(0, 2, 1, 3)
                  .reshape(d * d, d * d))
        return cls(d=d, nodes=nodes, delta=delta,
                   marginal=np.asfortranarray(_with_cdf(marginal, delta)),
                   pairs=np.asfortranarray(_with_cdf(pairs, delta)),
                   diff=diff, t_cond=t_cond, pair_j=pair_j,
                   upper=pair_m * d + pair_m - pair_j,
                   lower=(pair_m - pair_j) * d + pair_m)

    # ---- stage 1: x1 from the phi1 marginal ----
    def marginal_weights(self, phi1: np.ndarray) -> np.ndarray:
        """Weights (1, cos j phi1, sin j phi1, ...) of the marginal rows."""
        j = np.arange(1, self.d)
        angles = phi1[:, None] * j[None, :]
        weights = np.empty((phi1.size, 2 * self.d - 1))
        weights[:, 0] = 1.0
        weights[:, 1::2] = np.cos(angles)
        weights[:, 2::2] = np.sin(angles)
        return weights

    def marginal_rows(self, phi1: np.ndarray) -> np.ndarray:
        """The formed rows that :meth:`draw_marginal` reads from."""
        if self.marginal.ndim == 1:
            return self.marginal
        return self.marginal_weights(phi1) @ self.marginal

    def draw_marginal(self, phi1: np.ndarray, u: np.ndarray) -> np.ndarray:
        if self.marginal.ndim == 1:
            column = _row_columns(self.marginal)
        else:
            column = _weighted_columns(self.marginal_weights(phi1),
                                       self.marginal)
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
        as real products.  Any other state takes W from the mode-2
        conditional operator C(s), a row-wise einsum (d <= 4 in practice).
        """
        d = self.d
        psi1 = oscillator_psi_table(d - 1, x1)
        if self.diff is not None:
            # 2 e^{ij(phi1+phi2)} by repeated products: d cosines and sines
            # per sample cost more than the block products
            turn = np.ones((x1.size, d), dtype=complex)
            turn[:, 1:] = np.exp(1j * (phi1 + phi2))[:, None]
            turn = np.cumprod(turn, axis=1)
            turn[:, 1:] *= 2.0
            weights = np.empty((x1.size, self.pair_j.size))
            col = 0
            for j, block in enumerate(self.diff.blocks):
                a_j = (psi1[j:] * psi1[: d - j]).T
                cols = slice(col, col + d - j)
                col += d - j
                weights[:, cols] = turn[:, j, None].real * _fixed_rows(
                    a_j, np.ascontiguousarray(block.real))
                if np.iscomplexobj(block) and j > 0:
                    weights[:, cols] -= turn[:, j, None].imag * _fixed_rows(
                        a_j, np.ascontiguousarray(block.imag))
            return weights
        u1 = psi1.T * np.exp(1j * np.outer(phi1, np.arange(d)))
        outer = (u1[:, :, None] * u1.conj()[:, None, :]).reshape(x1.size, -1)
        c = np.einsum("nk,kl->nl", outer, self.t_cond)
        turn = np.exp(1j * np.outer(phi2, self.pair_j))
        weights = (c[:, self.upper] * turn).real \
            + (c[:, self.lower] * turn.conj()).real
        weights[:, self.pair_j == 0] *= 0.5
        return weights

    def conditional_rows(self, x1: np.ndarray, phi1: np.ndarray,
                         phi2: np.ndarray) -> np.ndarray:
        """The formed rows that :meth:`draw_conditional` reads from."""
        return self.pair_weights(x1, phi1, phi2) @ self.pairs

    def draw_conditional(self, x1: np.ndarray, phi1: np.ndarray,
                         phi2: np.ndarray, u: np.ndarray) -> np.ndarray:
        column = _weighted_columns(self.pair_weights(x1, phi1, phi2),
                                   self.pairs)
        return _sample_columns(column, u, self.nodes, self.delta)

    def draw(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Sample from formed ``[density | cdf | total]`` rows."""
        return _sample_columns(_row_columns(rows), u, self.nodes, self.delta)


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
    ``SeedSequence(seed)``.  It draws phi1 and phi2 uniform on [0, pi), then
    the arrays ``draw(rng)``, every one at full block length, and cuts them
    all to the block's count before ``quadratures(phi1, phi2, *draws)``
    turns them into (x1, x2).  So the output is bitwise the same for any
    worker count (workers > 1 runs blocks in a thread pool), and a shorter
    run is a prefix of a longer one as long as ``quadratures`` computes
    each sample independently of how many it is given.
    """
    if n < 1:
        raise ValueError("sample count must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    counts = [min(BLOCK_SIZE, n - b * BLOCK_SIZE) for b in range(n_blocks)]

    def block(b):
        rng = np.random.default_rng(children[b])
        phi1 = math.pi * rng.random(BLOCK_SIZE)
        phi2 = math.pi * rng.random(BLOCK_SIZE)
        phi1, phi2, *rest = (a[:counts[b]] for a in (phi1, phi2, *draw(rng)))
        return (phi1, phi2, *quadratures(phi1, phi2, *rest))

    if workers == 1 or n_blocks == 1:
        parts = [block(b) for b in range(n_blocks)]
    else:
        with ThreadPoolExecutor(max_workers=min(workers, n_blocks)) as pool:
            parts = list(pool.map(block, range(n_blocks)))
    phi1, phi2, x1, x2 = (np.concatenate([p[i] for p in parts])
                          for i in range(4))
    return HomodyneBatch(phi1=phi1, x1=x1, phi2=phi2, x2=x2)


def sample_homodyne(rho: BipartiteDensity, n: int, seed: int,
                    workers: int = 1) -> HomodyneBatch:
    """Draw n joint homodyne samples from a two-mode state.

    Outcomes are drawn per sample by inverse CDF: x1 from the phi1 marginal,
    then x2 from the conditional at the sampled x1, both tabulated on a fixed
    grid of 2*CELLS+1 nodes over [-L, L] and integrated cell-wise with
    Simpson weights (grid CDF error well below 1e-6 at the default size).

    Every state takes one path.  A density row is linear in a few real pair
    weights W(s), one per product psi_m psi_M with m >= M, so the sampler
    tabulates those products and their cumulative Simpson cell masses (each
    tail accumulated from its own end) once per state.  A draw never forms
    its row W @ [products | cell CDFs]: a binary search over the cells reads
    one CDF entry per step as the dot product of W with one table column,
    then the three node densities of the cell it lands in.  W comes from the
    index-difference blocks when rho has that support, and from the mode-2
    conditional operator C(s) otherwise.  rho is checked once: a ValueError
    is raised if its smallest eigenvalue lets a quadrature density on the
    grid fall below -1e-10.

    Samples are organized in fixed blocks of 65536 with one spawned RNG
    substream per block, so the result is bitwise reproducible and
    independent of the worker count; workers > 1 parallelizes over blocks.
    Every value of a sample is computed row by row (the BLAS block products
    at one fixed row count, padding a short chunk with zero rows), so a
    shorter run is a bitwise prefix of a longer one.
    """
    if not isinstance(rho, BipartiteDensity):
        raise TypeError("rho must be a BipartiteDensity")
    tables = _SamplerTables.build(rho)
    _check_positive(rho, tables.nodes, tables.diff is not None)

    def draw(rng):
        return rng.random(BLOCK_SIZE), rng.random(BLOCK_SIZE)

    def quadratures(phi1, phi2, u1, u2):
        x1 = np.empty(phi1.size)
        x2 = np.empty(phi1.size)
        for start in range(0, phi1.size, _CHUNK):
            sl = slice(start, start + _CHUNK)
            x1[sl] = tables.draw_marginal(phi1[sl], u1[sl])
            x2[sl] = tables.draw_conditional(x1[sl], phi1[sl], phi2[sl],
                                             u2[sl])
        return x1, x2

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

    No Fock truncation enters.  Blocks, seeding and worker independence are
    those of :func:`sample_homodyne`, but the draws differ from it.
    """
    if not 0.0 <= x < 1.0:
        raise ValueError(f"twin-beam parameter x={x} outside [0, 1)")
    _check_gamma_t(gamma_t)
    _check_kappa(kappa)
    var = (1.0 + x * x) / (4.0 * (1.0 - x * x)) + 0.5 * kappa
    amplitude = x / (2.0 * (1.0 - x * x))
    # sqrt(2) sqrt(gamma_t) stays finite for every finite gamma_t
    spread = math.sqrt(2.0) * math.sqrt(gamma_t)

    def draw(rng):
        z = (rng.standard_normal(BLOCK_SIZE), rng.standard_normal(BLOCK_SIZE))
        if gamma_t == 0.0:
            return z
        if gamma_t == math.inf:
            return (*z, 2.0 * math.pi * rng.random(BLOCK_SIZE))
        return (*z, spread * rng.standard_normal(BLOCK_SIZE))

    def quadratures(phi1, phi2, z1, z2, theta=0.0):
        cov = amplitude * np.cos(phi1 + phi2 + theta)
        x1 = math.sqrt(var) * z1
        x2 = cov / var * x1 + np.sqrt((var - cov) * (var + cov) / var) * z2
        return x1, x2

    return _sample_blocks(n, seed, workers, draw, quadratures)
