"""The benchmark's workloads: inputs generated from a seed, the jobs that
run them against the library, and the checks on every job's output.

Each workload is one closed loop in one process: a pass runs its jobs in a
fixed order, each job starting after the previous one ends.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from witnessforge import cli, cv, states, tomography, witness_finite

from .layers import JOB_SPAN

TWIN_SAMPLES = 2 ** 17
GENERAL_SAMPLES = {3: 2 ** 14, 4: 2 ** 14}
ROTATED_SAMPLES = 2 ** 15
X = 0.5
SIGMA_LIMIT = 4.0


class CheckFailed(Exception):
    """A job's output disagrees with its reference."""


@dataclass
class Job:
    """One operation of a pass: run() produces an output, check() judges it.

    ``group`` names the end-to-end metric the job's time adds to.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    group: str | None = None
    samples: int = 0


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    inputs: dict = field(default_factory=dict)


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float                # CPU time of the process, all threads
    job_s: dict[str, float]
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def call_cli(argv: list[str]) -> CliResult:
    """Run ``witnessforge <argv>`` in this process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code=code, stdout=out.getvalue(), stderr=err.getvalue())


def run_pass(jobs: list[Job], tracer=None) -> PassResult:
    """Run every job once; a job that raises or fails its check counts as a
    failed operation and the pass goes on."""
    job_s = {}
    failures = []
    start = time.perf_counter()
    cpu_start = time.process_time()
    for job in jobs:
        span = None
        if tracer is not None:
            tracer.job += 1
            span = tracer.open(JOB_SPAN)
        t0 = time.perf_counter()
        try:
            output = job.run()
        except Exception:  # one broken job must not stop the measurement
            output = None
            failures.append(f"{job.name}: {traceback.format_exc(limit=3)}")
        finally:
            job_s[job.name] = time.perf_counter() - t0
            if span is not None:
                tracer.close(span)
        if output is None:
            continue
        try:
            job.check(output)
        except (CheckFailed, KeyError, ValueError, TypeError, AttributeError,
                OSError) as exc:
            failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
    return PassResult(wall_s=time.perf_counter() - start,
                      cpu_s=time.process_time() - cpu_start, job_s=job_s,
                      attempted=len(jobs), failures=failures)


# -- checks ------------------------------------------------------------------

def _close(name: str, value: float, reference: float, tol: float) -> None:
    if not abs(value - reference) <= tol:
        raise CheckFailed(f"{name} = {value!r}, expected {reference!r} "
                          f"within {tol:g}")


def report(result: CliResult) -> dict:
    """The JSON report of a CLI job that must have exited 0."""
    if result.code != 0:
        raise CheckFailed(f"exit code {result.code}: {result.stderr.strip()}")
    return json.loads(result.stdout)


def check_estimate(mean: float, std_error: float, direct: float) -> None:
    if not std_error > 0.0:
        raise CheckFailed(f"std_error = {std_error!r}")
    if not abs(mean - direct) <= SIGMA_LIMIT * std_error:
        raise CheckFailed(
            f"estimate {mean!r} is {abs(mean - direct) / std_error:.2f} "
            f"standard errors from Tr[rho W] = {direct!r}")


def gauss_expectation_closed_form(x: float, kappa: float) -> float:
    """Tr[R_kappa W] of the twin beam under Gaussian noise (rational form)."""
    numerator = (1 - x * x) * kappa ** 2 + (1 + x * x) * kappa - x
    denominator = (1 + kappa) ** 2 - x * x * kappa ** 2
    return (1 - x * x) * numerator / denominator ** 2


def check_tomo_report(expected_direct: float) -> Callable[[CliResult], None]:
    def check(result: CliResult) -> None:
        rep = report(result)
        _close("direct_value", rep["direct_value"], expected_direct, 1e-6)
        check_estimate(rep["mean"], rep["std_error"], rep["direct_value"])
    return check


def check_finite_scan(result: CliResult) -> None:
    rep = report(result)
    _close("p_threshold_bisection", rep["p_threshold_bisection"],
           rep["p_threshold_closed_form"], 1e-9)


def check_finite_witness(result: CliResult) -> None:
    rep = report(result)
    _close("trace_wr", rep["trace_wr"], rep["lambda_min"], 1e-12)


def check_cv_phase(x: float, gamma_t: float) -> Callable[[CliResult], None]:
    def check(result: CliResult) -> None:
        rep = report(result)
        _close("expectation", rep["expectation"],
               -(1 - x * x) * x * math.exp(-gamma_t), 1e-9)
    return check


def check_kappa_star(kappa_star: float, x: float) -> None:
    _close(f"kappa_star(x={x})", kappa_star, x / (1 + x), 1e-5)


def check_cv_gauss(x: float) -> Callable[[CliResult], None]:
    def check(result: CliResult) -> None:
        check_kappa_star(report(result)["kappa_star"], x)
    return check


def check_gauss_scan(csv_path: Path, xs: np.ndarray
                     ) -> Callable[[CliResult], None]:
    def check(result: CliResult) -> None:
        report(result)
        with open(csv_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(xs):
            raise CheckFailed(f"{len(rows)} rows for {len(xs)} grid points")
        for row, x in zip(rows, xs):
            _close("x", float(row["x"]), x, 1e-12)
            check_kappa_star(float(row["kappa_star"]), float(row["x"]))
    return check


def check_bs_squeeze(x: float, kappa: float) -> Callable[[CliResult], None]:
    def check(result: CliResult) -> None:
        rep = report(result)
        if rep["consistent"] is not True:
            raise CheckFailed("squeezing and witness verdicts disagree")
        _close("sum_mode_variance", rep["sum_mode_variance"],
               0.25 * ((1 - x) / (1 + x) + 2 * kappa), 1e-6)
    return check


def check_mc_estimate(direct: float) -> Callable[[Any], None]:
    def check(estimate) -> None:
        check_estimate(estimate.mean, estimate.std_error, direct)
    return check


# -- workloads ---------------------------------------------------------------

def _seed_rng(seed: int, workload: str) -> np.random.Generator:
    key = [seed] + [ord(c) for c in workload]
    return np.random.default_rng(np.random.SeedSequence(key))


def _sampling_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


def tomo_twin(seed: int, workdir: Path) -> Workload:
    """Three tomo-estimate jobs through the CLI on the states it serves."""
    rng = _seed_rng(seed, "tomo-twin")
    batch_csv = workdir / "batch.csv"
    specs = [
        ("tomo-estimate twb", [], -(1 - X * X) * X, None),
        ("tomo-estimate phase+csv", ["--gammat", "1", "--batch-csv",
                                     str(batch_csv)],
         -(1 - X * X) * X * math.exp(-1.0), None),
        ("tomo-estimate gauss", ["--kappa", "0.2"],
         gauss_expectation_closed_form(X, 0.2), "tomo_gauss_s"),
    ]
    jobs = []
    for name, extra, direct, group in specs:
        argv = (["tomo-estimate", "--x", str(X), "--samples",
                 str(TWIN_SAMPLES), "--seed", str(_sampling_seed(rng)),
                 "--workers", "1"] + extra)
        jobs.append(Job(name=name, run=lambda argv=argv: call_cli(argv),
                        check=check_tomo_report(direct), group=group,
                        samples=TWIN_SAMPLES))
    return Workload("tomo-twin", jobs)


def _rotated_twb(theta: float) -> tuple[states.BipartiteDensity, cv.FockTruncation]:
    """Twin beam after the local phase e^{i theta a^dag a} on mode A."""
    trunc = cv.FockTruncation.for_twb(X)
    base = cv.twb_state(X, trunc)
    d = trunc.dim
    phases = np.kron(np.exp(1j * theta * np.arange(d)), np.ones(d))
    matrix = base.matrix * np.outer(phases, phases.conj())
    rho = states.BipartiteDensity(dim_a=d, dim_b=d, matrix=matrix,
                                  trace_deficit=base.trace_deficit)
    return rho, trunc


def _estimate_job(name: str, rho, trunc, samples: int, seed: int) -> Job:
    direct = witness_finite.evaluate_witness(cv.cv_witness(trunc), rho)

    def run():
        batch = tomography.sample_homodyne(rho, samples, seed, workers=1)
        return tomography.mc_estimate_witness(batch)

    return Job(name=name, run=run, check=check_mc_estimate(direct),
               samples=samples)


def tomo_general(seed: int, workdir: Path) -> Workload:
    """Library sampling of states the CLI never builds."""
    rng = _seed_rng(seed, "tomo-general")
    jobs = []
    inputs = {}
    for d, samples in GENERAL_SAMPLES.items():
        psi = states.random_state_operator(d, rng)
        rho = witness_finite.depolarized_state(psi, 0.8)
        jobs.append(_estimate_job(f"depolarized d={d}", rho,
                                  cv.FockTruncation(d - 1), samples,
                                  _sampling_seed(rng)))
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    inputs["theta"] = theta
    rho, trunc = _rotated_twb(theta)
    jobs.append(_estimate_job("rotated twb", rho, trunc, ROTATED_SAMPLES,
                              _sampling_seed(rng)))
    return Workload("tomo-general", jobs, inputs)


def scans(seed: int, workdir: Path) -> Workload:
    """The CLI commands that do not sample.  Their inputs are fixed, so the
    seed does not change them."""
    scan_csv = str(workdir / "scan.csv")
    gauss_csv = workdir / "gauss.csv"
    x_grid = 0.1 + 0.1 * np.arange(9)
    specs = [
        ("finite-scan d=3", ["finite-scan", "--dim", "3", "--max-entangled",
                             "--output", scan_csv],
         check_finite_scan, "finite_s"),
        ("finite-scan d=16", ["finite-scan", "--dim", "16", "--schmidt",
                              "0.8,0.5,0.3,0.1", "--output", scan_csv],
         check_finite_scan, "finite_s"),
        ("finite-scan d=32", ["finite-scan", "--dim", "32", "--max-entangled",
                              "--output", scan_csv],
         check_finite_scan, "finite_s"),
        ("finite-witness d=16", ["finite-witness", "--dim", "16",
                                 "--max-entangled", "--p", "0.3"],
         check_finite_witness, "finite_s"),
        ("cv-phase", ["cv-phase", "--x", str(X), "--gammat", "1"],
         check_cv_phase(X, 1.0), "cv_scan_s"),
        ("cv-gauss scan", ["cv-gauss", "--x", str(X), "--scan-kappa",
                           "0:1.2:0.01", "--output", scan_csv],
         check_cv_gauss(X), "cv_scan_s"),
        ("gauss-scan", ["gauss-scan", "--scan-x", "0.1:0.9:0.1", "--output",
                        str(gauss_csv)],
         check_gauss_scan(gauss_csv, x_grid), "cv_scan_s"),
        ("bs-squeeze kappa=0.2", ["bs-squeeze", "--x", str(X), "--kappa",
                                  "0.2"],
         check_bs_squeeze(X, 0.2), "bs_squeeze_s"),
        ("bs-squeeze kappa=0.4", ["bs-squeeze", "--x", str(X), "--kappa",
                                  "0.4"],
         check_bs_squeeze(X, 0.4), "bs_squeeze_s"),
    ]
    jobs = [Job(name=name, run=lambda argv=argv: call_cli(argv), check=check,
                group=group)
            for name, argv, check, group in specs]
    return Workload("scans", jobs)


WORKLOADS = {"tomo-twin": tomo_twin, "tomo-general": tomo_general,
             "scans": scans}
