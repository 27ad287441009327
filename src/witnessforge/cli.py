"""Command-line front end: build witnesses, scan thresholds, run tomography.

Exit codes: 0 success, 2 precondition violation (bad flags or inputs),
3 numerical failure (non-convergence).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import cv, tomography, witness_finite
from .formats import (
    batch_to_csv,
    dump_report,
    load_report,
    matrix_from_json,
    matrix_to_json,
    write_csv,
)
from .linalg import ConvergenceError, complex_svd
from .states import maximally_entangled_operator, schmidt_operator

BOUNDARY_TOL = 1e-12
MAX_GRID_POINTS = 100_000
# finite-witness at d = 256, one process: 0.8-0.9 s of CPU and a 130 MB
# peak on a 2-core Xeon, mostly the quorum's 16 d^2 report numbers; d = 512
# takes 1.7-2.4 s and 418 MB
MAX_DIM = 256


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("WITNESSFORGE_SEED", "0")
    if env.isdecimal():
        return int(env)
    raise ValueError(f"WITNESSFORGE_SEED={env!r}: not a non-negative integer")


def _load_psi(args) -> np.ndarray:
    if args.dim > MAX_DIM:
        raise ValueError(f"--dim {args.dim} exceeds the limit of {MAX_DIM}")
    given = [bool(args.max_entangled), args.schmidt is not None,
             args.psi_file is not None]
    if sum(given) != 1:
        raise ValueError(
            "specify exactly one of --max-entangled, --schmidt, --psi-file")
    if args.max_entangled:
        return maximally_entangled_operator(args.dim)
    if args.schmidt is not None:
        coeffs = [float(s) for s in args.schmidt.split(",")]
        psi = schmidt_operator(coeffs, args.dim)
        # the sum of squares is ratio * scale^2, read in log10 so that no
        # square of a finite coefficient overflows or underflows
        scale = max(coeffs)
        ratio = math.fsum((c / scale) ** 2 for c in coeffs)
        log_total = math.log10(ratio) + 2 * math.log10(scale)
        if abs(log_total) > math.log10(1 + 1e-12):
            exponent = math.floor(log_total)
            total = (f"{ratio * scale * scale:.6g}" if abs(exponent) < 300
                     else f"{10 ** (log_total - exponent):.6g}e{exponent:+d}")
            print(f"note: normalizing Schmidt coefficients (sum of squares "
                  f"was {total})", file=sys.stderr)
        return psi
    payload = load_report(args.psi_file)
    psi = matrix_from_json(payload["psi"])
    if psi.shape[0] != args.dim:
        raise ValueError(
            f"--dim {args.dim} does not match psi file dimension {psi.shape[0]}")
    return psi


def _gamma_t_field(gamma_t):
    """gamma_t as a report value: strict JSON has no infinity."""
    return "inf" if gamma_t == math.inf else gamma_t


def _require_output(args, what: str) -> None:
    """Check, before any work, that a command writing a CSV has its path."""
    if args.output is None:
        raise ValueError(f"{what} requires --output for the CSV")


def _emit(args, payload: dict) -> None:
    text = dump_report(payload, path=args.output)
    if args.output is None:
        sys.stdout.write(text)


def _quorum_payload(decomp) -> dict:
    terms = []
    for term in decomp.terms:
        terms.append({
            "coeff": float(term.coefficient),
            "local_a": matrix_to_json(term.local_a),
            "local_b": matrix_to_json(term.local_b),
        })
    return {"terms": terms}


def _witness_report(psi: np.ndarray, p: float) -> dict:
    svd = complex_svd(psi)
    abar = witness_finite.min_eigvec_operator(svd)
    trace_wr = witness_finite.depolarized_expectation(abar, psi)(p)
    lam = witness_finite.min_pt_eigenvalue(svd, p)
    return {
        "d": int(psi.shape[0]),
        "p": p,
        "sigma": [float(s) for s in svd.sigma],
        "lambda_min": lam,
        "trace_wr": trace_wr,
        "entangled": bool(trace_wr < -BOUNDARY_TOL),
        "boundary": bool(abs(trace_wr) <= BOUNDARY_TOL),
        "p_threshold": witness_finite.detection_threshold(svd),
        "quorum": _quorum_payload(witness_finite.quorum_decompose(svd)),
    }


def cmd_finite_witness(args) -> None:
    psi = _load_psi(args)
    report = _witness_report(psi, args.p)
    report["config"] = {"command": "finite-witness", "dim": args.dim,
                        "p": args.p, "psi": _psi_config(args)}
    _emit(args, report)


def _psi_config(args) -> dict:
    if args.max_entangled:
        return {"kind": "max-entangled"}
    if args.schmidt is not None:
        return {"kind": "schmidt", "coefficients": args.schmidt}
    return {"kind": "file", "path": args.psi_file}


def cmd_finite_scan(args) -> None:
    _require_output(args, "finite-scan")
    psi = _load_psi(args)
    svd = complex_svd(psi)
    abar = witness_finite.min_eigvec_operator(svd)
    trace_wr = witness_finite.depolarized_expectation(abar, psi)
    rows = []
    for p in _parse_grid(args.scan_p).tolist():
        val = trace_wr(p)
        rows.append((p, val, bool(val < -BOUNDARY_TOL)))
    write_csv(args.output, ["p", "trace_wr", "entangled"], rows)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if trace_wr(mid) < 0 else (mid, hi)
    summary = {
        "config": {"command": "finite-scan", "dim": args.dim,
                   "scan_p": args.scan_p, "psi": _psi_config(args)},
        "csv": args.output,
        "p_threshold_bisection": 0.5 * (lo + hi),
        "p_threshold_closed_form": witness_finite.detection_threshold(svd),
    }
    sys.stdout.write(dump_report(summary))


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(tok) for tok in spec.split(":"))
    except ValueError as exc:
        raise ValueError(f"bad grid spec {spec!r}; expected start:stop:step") from exc
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"bad grid spec {spec!r}: start, stop and step must "
                         "be finite")
    if step <= 0 or stop < start:
        raise ValueError(f"bad grid spec {spec!r}")
    intervals = (stop - start) / step  # inf if the quotient overflows
    if not intervals <= MAX_GRID_POINTS - 1:
        raise ValueError(f"bad grid spec {spec!r}: more than "
                         f"{MAX_GRID_POINTS} points")
    return start + step * np.arange(int(round(intervals)) + 1)


def cmd_cv_phase(args) -> None:
    expectation = cv.phase_witness_expectation(args.x, args.gammat)
    report = {
        "config": {"command": "cv-phase", "x": args.x,
                   "gamma_t": _gamma_t_field(args.gammat)},
        "x": args.x,
        "gamma_t": _gamma_t_field(args.gammat),
        "expectation": expectation,
        "entangled": bool(expectation < -BOUNDARY_TOL),
    }
    _emit(args, report)


def cmd_cv_gauss(args) -> None:
    if (args.kappa is None) == (args.scan_kappa is None):
        raise ValueError("give one of --kappa / --scan-kappa")
    if args.scan_kappa is None:
        expectation = cv.gauss_witness_expectation(args.x, args.kappa)
        report = {
            "config": {"command": "cv-gauss", "x": args.x,
                       "kappa": args.kappa},
            "x": args.x,
            "kappa": args.kappa,
            "expectation": expectation,
            "entangled": bool(expectation < -BOUNDARY_TOL),
        }
        _emit(args, report)
        return
    _require_output(args, "--scan-kappa")
    grid = _parse_grid(args.scan_kappa)
    # first, so that an x it rejects exits before any CSV is written
    threshold = cv.gauss_separability_threshold(args.x)
    rows = []
    for kappa in grid:
        val = cv.gauss_witness_expectation(args.x, float(kappa))
        rows.append((float(kappa), val, bool(val < -BOUNDARY_TOL)))
    write_csv(args.output, ["kappa", "expectation", "entangled"], rows)
    summary = {
        "config": {"command": "cv-gauss", "x": args.x,
                   "scan_kappa": args.scan_kappa},
        "csv": args.output,
        "kappa_star": threshold.kappa_star,
        "stated_reference": threshold.stated_reference,
    }
    sys.stdout.write(dump_report(summary))


def cmd_gauss_scan(args) -> None:
    _require_output(args, "gauss-scan")
    grid = _parse_grid(args.scan_x)
    rows = []
    for x in grid:
        th = cv.gauss_separability_threshold(float(x))
        rows.append((float(x), th.kappa_star, th.stated_reference))
    write_csv(args.output, ["x", "kappa_star", "stated_reference"], rows)
    summary = {
        "config": {"command": "gauss-scan", "scan_x": args.scan_x},
        "csv": args.output,
        "points": len(rows),
    }
    sys.stdout.write(dump_report(summary))


def cmd_tomo_estimate(args) -> None:
    if args.kappa is not None and args.gammat is not None:
        raise ValueError("give at most one of --gammat / --kappa")
    seed = _resolve_seed(args)
    gamma_t = 0.0 if args.gammat is None else args.gammat
    kappa = 0.0 if args.kappa is None else args.kappa
    if args.kappa is not None:
        label = f"gauss-twb(x={args.x},kappa={args.kappa})"
    elif args.gammat is not None:
        label = f"phase-twb(x={args.x},gamma_t={args.gammat})"
    else:
        label = f"twb(x={args.x})"
    direct = (cv.gauss_witness_expectation(args.x, kappa)
              if args.kappa is not None
              else cv.phase_witness_expectation(args.x, gamma_t))
    # checks every argument and draws nothing yet, so a refused run
    # allocates nothing large
    blocks = tomography.sample_twin_beam(args.x, args.samples, seed,
                                         gamma_t=gamma_t, kappa=kappa,
                                         workers=args.workers, stream=True)
    values = np.empty(args.samples)

    def scored():
        # each block's kernel values go to its slice of values
        start = 0
        for block in blocks:
            stop = start + len(block)
            tomography.witness_kernel(block.x1, block.phi1, block.x2,
                                      block.phi2, out=values[start:stop])
            start = stop
            yield block

    if args.batch_csv is None:
        for _ in scored():
            pass
    else:
        # opens the file before the first block is drawn
        batch_to_csv(args.batch_csv, scored())
    estimate = tomography.mc_estimate_values(values)
    # one sample, or samples without spread, cannot be compared with direct
    z = (estimate.mean - direct) / estimate.std_error \
        if estimate.std_error else None
    report = {
        "config": {"command": "tomo-estimate", "x": args.x,
                   "gamma_t": _gamma_t_field(args.gammat), "kappa": args.kappa,
                   "samples": args.samples, "seed": seed,
                   "workers": args.workers, "state": label},
        "n_samples": estimate.n_samples,
        "seed": seed,
        "mean": estimate.mean,
        "std_error": estimate.std_error,
        "kurtosis": estimate.kurtosis,
        "direct_value": direct,
        "z_score": z,
    }
    if args.batch_csv is not None:
        report["batch_csv"] = args.batch_csv
    _emit(args, report)


def cmd_bs_squeeze(args) -> None:
    direct = cv.gauss_witness_expectation(args.x, args.kappa)
    variance = cv.sum_mode_variance(args.x, args.kappa, args.transmissivity)
    squeeze = variance - 0.25
    report = {
        "config": {"command": "bs-squeeze", "x": args.x, "kappa": args.kappa,
                   "transmissivity": args.transmissivity},
        "x": args.x,
        "kappa": args.kappa,
        "transmissivity": args.transmissivity,
        "sum_mode_variance": variance,
        "squeeze_witness": squeeze,
        "squeezed": bool(squeeze < -BOUNDARY_TOL),
        "witness_expectation": direct,
        "consistent": bool((squeeze < -BOUNDARY_TOL) == (direct < -BOUNDARY_TOL)),
    }
    _emit(args, report)


def _add_psi_flags(sub):
    sub.add_argument("--dim", type=int, required=True, help="subsystem dimension d")
    sub.add_argument("--max-entangled", action="store_true",
                     help="use the maximally entangled state")
    sub.add_argument("--schmidt", type=str, default=None,
                     help="comma-separated Schmidt coefficients")
    sub.add_argument("--psi-file", type=str, default=None,
                     help="JSON file with a 'psi' matrix payload")


def _add_x_flag(sub):
    sub.add_argument("--x", type=float, required=True,
                     help="twin-beam parameter in [0, 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="witnessforge",
        description="Entanglement witnesses for depolarized and noisy "
                    "twin-beam states")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", type=str, default=None,
                        help="report path (default: stdout; scans: CSV path)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("finite-witness", help="single witness report")
    _add_psi_flags(p)
    p.add_argument("--p", type=float, required=True, help="mixing weight")
    p.set_defaults(func=cmd_finite_witness)

    p = add_parser("finite-scan", help="scan the mixing weight")
    _add_psi_flags(p)
    p.add_argument("--scan-p", type=str, default="0:1:0.02",
                   help="grid start:stop:step")
    p.set_defaults(func=cmd_finite_scan)

    p = add_parser("cv-phase", help="phase-noisy twin beam expectation")
    _add_x_flag(p)
    p.add_argument("--gammat", type=float, required=True)
    p.set_defaults(func=cmd_cv_phase)

    p = add_parser("cv-gauss", help="amplitude-noisy twin beam expectation")
    _add_x_flag(p)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--scan-kappa", type=str, default=None,
                   help="grid start:stop:step")
    p.set_defaults(func=cmd_cv_gauss)

    p = add_parser("gauss-scan", help="noise threshold per twin-beam parameter")
    p.add_argument("--scan-x", type=str, required=True, help="grid start:stop:step")
    p.set_defaults(func=cmd_gauss_scan)

    p = add_parser("tomo-estimate", help="Monte Carlo witness estimate")
    _add_x_flag(p)
    p.add_argument("--gammat", type=float, default=None)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--samples", type=int, required=True,
                   help="sample count n; the report's z_score is meaningful "
                        "only when n is much larger than its kurtosis")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--batch-csv", type=str, default=None,
                   help="also export the raw samples")
    p.set_defaults(func=cmd_tomo_estimate)

    p = add_parser("bs-squeeze", help="beam-splitter squeezing witness")
    _add_x_flag(p)
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--transmissivity", type=float, default=0.5)
    p.set_defaults(func=cmd_bs_squeeze)
    return parser


# one parser per process, built on the first call of main (not at import);
# each command looks up what it calls when it runs, so rebinding a name of
# this module after that still takes effect
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError, KeyError, MemoryError) as exc:
        # numpy's MemoryError names the size and shape it could not allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
