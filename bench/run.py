"""End-to-end and per-layer benchmark of witnessforge.

Run from the repository root; it imports the package from ``src/``:

    python3 bench/run.py --workload tomo-twin --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times whole passes of the workload untraced; with
``--trace 1`` it adds one traced pass and reports the per-layer metrics.  The last line of stdout is the result object; the line
before it is the full report (every end-to-end metric with its sample count,
the environment and any failures), also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchlib import SPEC

SETUP_REPEATS = 9
MIN_PASSES = 2
OUT_DIR = ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time; passes are never cut short")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the package, build the inputs and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


# -- environment -------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, package_dir: Path, seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (KeyError, TypeError, ValueError):
        blas = {}
    digest = hashlib.sha256()
    for path in sorted(package_dir.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(),
                 "thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}},
        "git_commit": _git_commit(root),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


# -- measuring ---------------------------------------------------------------

def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_setup(args) -> float:
    """CPU seconds for a fresh interpreter to import the package and build
    the workload's inputs.  CPU time, like ``cpu_s``, because wall time on
    a shared VM drifts by 10-30 % over minutes, partly from hypervisor
    steal, which CPU time does not count."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = _children_cpu_s()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return _children_cpu_s() - start


def measure(jobs, seconds: float, tracer=None):
    """Run untraced passes for about ``seconds``, at least MIN_PASSES of
    them, and no pass is cut short; then, with a tracer, one traced pass.

    Every untraced pass is timed, the first (cold) one too, since a CLI user
    pays the cold start on every command.  The traced pass runs warm.
    """
    from benchlib import layers, workloads

    plain = []
    start = time.perf_counter()
    while True:
        plain.append(workloads.run_pass(jobs))
        elapsed = time.perf_counter() - start
        if (len(plain) >= MIN_PASSES
                and elapsed + plain[-1].wall_s > seconds):
            break
    if tracer is None:
        return plain, None, []
    with layers.installed(tracer) as absent:
        result = workloads.run_pass(jobs, tracer)
    return plain, result, absent


def _metric(value, unit, n=None) -> dict:
    out = {"value": value, "unit": unit}
    if n is not None:
        out["n"] = n
    return out


def end_to_end(jobs, plain, setup) -> dict:
    med = statistics.median
    n = len(plain)
    metrics = {
        "setup_s": _metric(med(setup), "s", len(setup)),
        "wall_s": _metric(med(p.wall_s for p in plain), "s", n),
        "cpu_s": _metric(med(p.cpu_s for p in plain), "s", n),
        "cold_wall_s": _metric(plain[0].wall_s, "s", 1),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    samples = sum(job.samples for job in jobs)
    if samples:
        metrics["samples_per_s"] = _metric(
            med(samples / p.wall_s for p in plain), "1/s", n)
    for group in dict.fromkeys(job.group for job in jobs if job.group):
        members = [job.name for job in jobs if job.group == group]
        metrics[group] = _metric(
            med(sum(p.job_s[m] for m in members) for p in plain), "s", n)
    return metrics


def per_layer(plain, traced, tracer) -> tuple[dict, float]:
    """Per-layer metrics of the traced pass, and the share of its wall time
    that the summed self times account for."""
    from benchlib import layers

    values = layers.layer_metrics(tracer.spans, tracer.counters)
    values["trace.wall_s"] = traced.wall_s
    # against the warm untraced passes, as the traced pass runs warm; in CPU
    # time, as the wrappers cost milliseconds and wall time drifts by seconds
    values["trace.overhead_s"] = (
        traced.cpu_s - statistics.median(p.cpu_s for p in plain[1:]))
    covered = sum(v for k, v in values.items()
                  if k.endswith(".self_s")) / traced.wall_s
    return ({name: _metric(values[name], unit)
             for name, unit in layers.UNITS.items()}, covered)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    package_dir = root / "src" / "witnessforge"
    if not (package_dir / "__init__.py").is_file():
        print("bench: src/witnessforge not found; run from the repository "
              "root", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, str(nproc))
    sys.path.insert(0, str(root / "src"))
    import witnessforge

    if Path(witnessforge.__file__).resolve().parent != package_dir.resolve():
        print(f"bench: imported witnessforge from {witnessforge.__file__}, "
              f"not from {package_dir}", file=sys.stderr)
        return 2
    from benchlib import spans, workloads

    out_dir = root / OUT_DIR
    workdir = out_dir / "work" / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    if args.setup_only:
        return 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    try:
        setup = [time_setup(args) for _ in range(SETUP_REPEATS)]
        plain, traced, absent = measure(workload.jobs, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + ([traced] if traced else [])
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    e2e = end_to_end(workload.jobs, plain, setup)
    e2e["error_rate"] = _metric(len(failures) / attempted, "1", attempted)
    full = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(root, package_dir, args.seed),
        "inputs": workload.inputs,
        "end_to_end": e2e,
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:20],
    }
    if tracer is not None:
        metrics, covered = per_layer(plain, traced, tracer)
        full.update(per_layer=metrics, absent=absent,
                    hook_errors=dict(tracer.hook_errors),
                    self_time_coverage=covered)
        tracer.dump(results / f"{tag}-spans.jsonl")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]]["value"],
                               "unit": m["unit"]} for m in SPEC["end_to_end"]}
    (results / f"{tag}.json").write_text(json.dumps(full, indent=2) + "\n",
                                         encoding="utf-8")
    print(json.dumps(full))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
