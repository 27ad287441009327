"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible under pytest -s) and
then asserts, so the pytest outcome matches the printed verdict.

Criterion 9 states its amplitude-noise thresholds for a noise parameter
that counts one extra half quantum of quadrature variance; the test
converts them to this package's kappa (the channel adds kappa/2 to Var X,
vacuum variance 1/4) and checks the converted values against the PPT
boundary of the Gaussian covariance matrix before comparing them with the
located witness sign change.
"""

import json
import math
import re
from pathlib import Path

import numpy as np

from beam_splitter_oracle import beam_splitter, embed, squeezing_witness
from gaussian_oracle import (
    _min_pt_symplectic_eigenvalue,
    _ppt_boundary,
    twb_mean_photons,
)
from helpers import pt_spectrum_analytic, random_product_state, reconstruct
from noise_channel_oracle import (
    apply_gaussian_noise,
    block_gaussian_noise,
    noise_truncation,
)
from witnessforge.cli import main as cli_main
from witnessforge.cv import (
    FockTruncation,
    cv_witness,
    gauss_separability_threshold,
    gauss_witness_expectation,
    phase_noisy_twb,
    twb_state,
    twin_beam_blocks,
)
from witnessforge.linalg import complex_svd
from witnessforge.states import (
    maximally_entangled_operator,
    random_state_operator,
    schmidt_operator,
)
from witnessforge.tomography import (
    mc_estimate_witness,
    sample_homodyne,
    witness_kernel,
)
from witnessforge.witness_finite import (
    build_witness,
    depolarized_state,
    detection_threshold,
    evaluate_witness,
    min_eigvec_operator,
    min_pt_eigenvalue,
    quorum_decompose,
)

SEED = 20240917


def _report(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{tag}] criterion {num:2d}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def _bisect_threshold(psi, iters=60):
    witness = build_witness(min_eigvec_operator(complex_svd(psi)))
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        val = evaluate_witness(witness, depolarized_state(psi, mid))
        if val >= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _random_psis():
    rng = np.random.default_rng(SEED)
    psis = []
    for d in (2, 3, 4, 5, 6):
        psis.extend(random_state_operator(d, rng) for _ in range(10))
    return psis


def test_criterion_01_maximally_entangled_threshold():
    ok = True
    worst = 0.0
    for d in range(2, 9):
        psi = maximally_entangled_operator(d)
        witness = build_witness(min_eigvec_operator(complex_svd(psi)))
        p_star = 1.0 / (d + 1)
        below = evaluate_witness(witness, depolarized_state(psi, p_star - 1e-3))
        above = evaluate_witness(witness, depolarized_state(psi, p_star + 1e-3))
        ok &= below > 0 and above < 0
        for p in np.linspace(0.0, 1.0, 21):
            if abs(p - p_star) < 1e-6:  # expectation is exactly 0 there
                continue
            val = evaluate_witness(witness, depolarized_state(psi, float(p)))
            ok &= (val < 0) == (p > p_star)
        dev = abs(_bisect_threshold(psi) - p_star)
        worst = max(worst, dev)
        ok &= dev <= 1e-10
    _report(1, "maximally entangled: negative iff p > 1/(d+1), threshold to "
               "1e-10 (d = 2..8)", ok, f"max bisection dev {worst:.2e}")


def test_criterion_02_schmidt_rank_two_threshold():
    ok = True
    worst = 0.0
    for d in range(3, 9):
        psi = schmidt_operator([1.0, 1.0], d)
        p_star = 2.0 / (d**2 + 2)
        dev = abs(_bisect_threshold(psi) - p_star)
        worst = max(worst, dev)
        ok &= dev <= 1e-10
        ok &= abs(detection_threshold(complex_svd(psi)) - p_star) <= 1e-12
    _report(2, "Schmidt-rank-2 threshold = 2/(d^2+2) to 1e-10 (d = 3..8)",
            ok, f"max dev {worst:.2e}")


def test_criterion_03_analytic_vs_numeric_spectrum():
    ok = True
    worst = 0.0
    for psi in _random_psis():
        for p in (0.2, 0.7):
            numeric = np.linalg.eigvalsh(
                depolarized_state(psi, p).partial_transpose())
            dev = abs(numeric[0] - min_pt_eigenvalue(complex_svd(psi), p))
            worst = max(worst, dev)
            ok &= dev <= 1e-9
    _report(3, "min PT eigenvalue matches -p s1 s2 + (1-p)/d^2 to 1e-9 "
               "(50 random states, p in {0.2, 0.7})", ok,
            f"max dev {worst:.2e}")


def _all_case_psis():
    cases = [maximally_entangled_operator(d) for d in range(2, 9)]
    cases += [schmidt_operator([1.0, 1.0], d) for d in range(3, 9)]
    cases += _random_psis()
    return cases


def test_criterion_04_witness_rank_four():
    ranks = {np.linalg.matrix_rank(
                 build_witness(min_eigvec_operator(complex_svd(psi))),
                 tol=1e-9, hermitian=True)
             for psi in _all_case_psis()}
    _report(4, "witness rank = 4 for every case of criteria 1-3",
            ranks == {4}, f"observed ranks {sorted(ranks)}")


def test_criterion_05_quorum_reconstruction():
    ok = True
    worst = 0.0
    for psi in _all_case_psis():
        svd = complex_svd(psi)
        witness = build_witness(min_eigvec_operator(svd))
        decomp = quorum_decompose(svd)
        dev = float(np.abs(reconstruct(decomp) - witness).max())
        worst = max(worst, dev)
        ok &= dev <= 1e-10
        ok &= len(decomp.pauli_terms) == 3
    _report(5, "quorum rebuilds the witness to 1e-10 with exactly 3 "
               "non-identity product terms", ok, f"max dev {worst:.2e}")


def test_criterion_06_positivity_on_product_states():
    rng = np.random.default_rng(SEED + 1)
    worst = np.inf
    for psi in (maximally_entangled_operator(4),
                random_state_operator(5, rng)):
        d = psi.shape[0]
        witness = build_witness(min_eigvec_operator(complex_svd(psi)))
        vectors = np.stack([random_product_state(d, d, rng)
                            for _ in range(10_000)])
        values = np.einsum("sd,de,se->s", vectors.conj(), witness,
                           vectors).real
        worst = min(worst, float(values.min()))
    _report(6, "10^4 random product states give <ab|W|ab> >= -1e-9",
            worst >= -1e-9, f"min value {worst:.2e}")


def test_criterion_07_phase_noise_expectation():
    trunc = FockTruncation(25)
    witness = cv_witness(trunc)
    ok = True
    worst = 0.0
    for x in np.linspace(0.05, 0.8, 20):
        for gt in np.linspace(0.0, 10.0, 20):
            numeric = evaluate_witness(
                witness, phase_noisy_twb(float(x), float(gt), trunc))
            analytic = -(1 - x * x) * x * math.exp(-gt)
            worst = max(worst, abs(numeric - analytic))
            ok &= abs(numeric - analytic) <= 1e-8 and numeric < 0
    _report(7, "phase noise: Tr[R(t)W] = -(1-x^2) x e^(-gamma t) to 1e-8 and "
               "always negative (20x20 grid, N=25)", ok,
            f"max dev {worst:.2e}")


def test_criterion_08_cv_pt_spectrum():
    n_max, x = 15, 0.5
    ok = True
    worst = 0.0
    for gt in (0.0, 1.0):
        rho = phase_noisy_twb(x, gt, FockTruncation(n_max))
        numeric = np.linalg.eigvalsh(rho.partial_transpose())
        dev = float(np.abs(numeric - pt_spectrum_analytic(x, gt, n_max)).max())
        worst = max(worst, dev)
        ok &= dev <= 1e-9
    _report(8, "full PT spectrum matches the closed form elementwise to 1e-9 "
               "(N=15, x=0.5, gamma t in {0,1})", ok, f"max dev {worst:.2e}")


# The stated threshold formulas count one extra half quantum of variance:
# 1 - (1-x)/(2(1+x)) = x/(1+x) + 1/2.  Subtracting it gives this package's
# kappa, in which the channel adds kappa/2 to Var X (vacuum variance 1/4).
HALF_QUANTUM = 0.5


def test_criterion_09_gauss_threshold_reference_values():
    """Amplitude-noise threshold against the stated reference formulas.

    The stated exact form 1 - (1-x)/(2(1+x)) and large-nbar form
    1 - 1/(4 nbar) are written for a noise parameter one half quantum above
    this package's kappa.  Shifted down by HALF_QUANTUM, the exact form must
    equal the PPT boundary of the Gaussian covariance matrix to 1e-9 (the
    large-nbar form to its 2 % tolerance), and the located witness sign
    change must match the converted reference.  At the literal stated kappa
    the PT symplectic eigenvalue exceeds 1/4, so that point is separable and
    cannot be the crossing.
    """
    stated_large = 1.0 - 1.0 / (4.0 * twb_mean_photons(0.99))
    rel_tol = 0.02 * (stated_large - HALF_QUANTUM)
    # (x, stated kappa, tolerance against the PPT boundary, against located)
    cases = [(x, 1.0 - 0.5 * (1.0 - x) / (1.0 + x), 1e-9, 1e-3)
             for x in (0.3, 0.5, 0.7)]
    cases.append((0.99, stated_large, rel_tol, rel_tol))
    lines = []
    ok = True
    for x, stated, ppt_tol, located_tol in cases:
        reference = stated - HALF_QUANTUM
        boundary = _ppt_boundary(x)
        located = gauss_separability_threshold(x).kappa_star
        nu_stated = _min_pt_symplectic_eigenvalue(x, stated)
        ok &= abs(reference - boundary) <= ppt_tol
        ok &= nu_stated > 0.25
        ok &= abs(located - reference) <= located_tol
        lines.append(f"x={x}: located {located:.6f}, reference {reference:.6f}, "
                     f"PPT {boundary:.6f}, nu~ at stated {nu_stated:.4f}")
    _report(9, "amplitude-noise threshold matches the stated reference "
               "formulas, shifted by a half quantum, and the PPT boundary",
            ok, "; ".join(lines))


def _tomo_states():
    x = 0.5
    tr = FockTruncation.for_twb(x)
    yield "twb(0.5)", twb_state(x, tr), tr
    yield "phase(0.5,1)", phase_noisy_twb(x, 1.0, tr), tr
    tr_g = noise_truncation(x, 0.4)
    rho_g = apply_gaussian_noise(twb_state(x, tr), 0.4, tr_g)
    yield "gauss(0.5,0.4)", rho_g, tr_g


def test_criterion_10_tomographic_unbiasedness():
    ok = True
    details = []
    last_batch_errs = None
    for label, rho, tr in _tomo_states():
        direct = evaluate_witness(cv_witness(tr), rho)
        errs = {}
        for n in (10_000, 100_000, 1_000_000):
            est = mc_estimate_witness(sample_homodyne(rho, n, seed=SEED))
            errs[n] = est.std_error
            if n == 1_000_000:
                z = (est.mean - direct) / est.std_error
                ok &= abs(z) <= 3.0
                details.append(f"{label}: z={z:+.2f}")
        last_batch_errs = errs
    for n_lo, n_hi in ((10_000, 100_000), (100_000, 1_000_000)):
        ratio = last_batch_errs[n_lo] / last_batch_errs[n_hi] / math.sqrt(10)
        ok &= 0.8 <= ratio <= 1.2
        details.append(f"SE ratio {n_lo}->{n_hi}: {ratio:.3f}x sqrt(10)")
    _report(10, "MC estimate within 3 std errors of the direct trace at "
                "n=1e6; std error scales as 1/sqrt(n) within 20%", ok,
            "; ".join(details))


def test_criterion_11_kernel_phase_sum_property():
    rng = np.random.default_rng(SEED + 2)
    ok = True
    for _ in range(100):
        x1, x2 = rng.normal(scale=1.5, size=2)
        phi1, phi2 = rng.uniform(0, np.pi, size=2)
        ok &= witness_kernel(x1, phi1, x2, phi2) == witness_kernel(
            x1, phi1 + phi2, x2, 0.0)
    _report(11, "kernel depends on the phases only through phi1 + phi2 "
                "(exact equality, 100 tuples)", ok)


def test_criterion_12_beam_splitter_consistency():
    x = 0.5
    base = FockTruncation.for_twb(x)
    channel_trunc = FockTruncation(base.n_max + 12, base.tail_bound)
    bs_trunc = FockTruncation(40)
    ok = True
    details = []
    for kappa in (0.0, 0.05, 0.15, 0.25, 0.30, 0.3333, 0.37, 0.45, 0.55, 0.65):
        blocks = twin_beam_blocks(x, base)
        if kappa > 0:
            blocks = block_gaussian_noise(blocks, kappa, channel_trunc)
        mixed = beam_splitter(embed(blocks.density(), bs_trunc), 0.5)
        squeeze = squeezing_witness(mixed.reduced(1))
        direct = gauss_witness_expectation(x, kappa)
        agree = (squeeze < 0) == (direct < 0)
        ok &= agree
        if kappa == 0.0:
            var_dev = abs((squeeze + 0.25) - 1.0 / 12.0)
            ok &= var_dev <= 1e-6
            details.append(f"variance dev at kappa=0: {var_dev:.2e}")
        if not agree:
            details.append(f"disagree at kappa={kappa}")
    _report(12, "squeezing after the splitter iff Tr[R_k W] < 0 on a grid "
                "through the crossing; sum-mode variance 1/12 at kappa=0",
            ok, "; ".join(details))


def _strip_timestamp(text):
    return re.sub(r'^\s*"timestamp": .*\n', "", text, flags=re.M)


def test_criterion_13_determinism(tmp_path, capsys):
    rho = twb_state(0.5, FockTruncation.for_twb(0.5))
    runs = [sample_homodyne(rho, 20_000, seed=SEED) for _ in range(2)]
    ok = all(np.array_equal(getattr(runs[0], f), getattr(runs[1], f))
             for f in ("phi1", "x1", "phi2", "x2"))
    e0, e1 = (mc_estimate_witness(r) for r in runs)
    ok &= (e0.mean == e1.mean) and (e0.std_error == e1.std_error)

    reports = []
    for name in ("a.json", "b.json"):
        path = str(tmp_path / name)
        code = cli_main(["tomo-estimate", "--x", "0.5", "--gammat", "1",
                         "--samples", "20000", "--seed", str(SEED),
                         "--output", path])
        ok &= code == 0
        reports.append(_strip_timestamp(Path(path).read_text()))
    ok &= reports[0] == reports[1]
    payload = json.loads(reports[0])
    ok &= payload["seed"] == SEED

    for name in ("c.json", "d.json"):
        path = str(tmp_path / name)
        code = cli_main(["finite-witness", "--dim", "5", "--max-entangled",
                         "--p", "0.4", "--output", path])
        ok &= code == 0
        reports.append(_strip_timestamp(Path(path).read_text()))
    ok &= reports[2] == reports[3]
    capsys.readouterr()  # drop CLI stdout so the verdict line stays visible
    _report(13, "seeded pipeline reruns are bitwise identical "
                "(sampler, estimator, CLI reports modulo timestamp)", ok)
