"""Print the CPU time of each stage of ``sample_homodyne`` on the states of
the benchmark's tomo-general workload: depolarized random states at d = 3
and 4 (p = 0.8) and the twin beam at x = 0.5 after a local phase rotation,
and on the plain twin beam at x = 0.5 (d = 17, real blocks), then of each
stage of a ``tomo-estimate`` run at 2^17 samples.

The table build (the table plus both stages' maps) and the positivity
check are timed per call; the marginal draw, the conditional's reduced
weights (the weights of the 2d - 1 table rows: its phase features times
its map), the conditional draw (cell search and inversion) and the
inversion alone per chunk of ``tomography._CHUNK`` (1024) samples.  The
marginal draw includes its weights from the phase features of phi1 when
rho_A has coherences; otherwise it reads the shared row.  Each stage
prints its median CPU and wall time and their ratio: a ratio well above 1
is a BLAS product that woke OpenBLAS's second thread, which then spins.
Each state prints the read width, the number of table entries a column
read sums, the bytes of the table, the number of phase modes (a, b) of
its conditional and the shapes of the conditional's and the marginal's
maps.  The
``tomo-estimate`` stages are those of the benchmark's tomo-twin workload
at x = 0.5: ``sample_twin_beam`` without noise, with phase noise
gamma_t = 1 and with Gauss noise kappa = 0.2, then on the phase-noisy
batch ``pattern_functions`` of x1, ``witness_kernel`` (which holds two
``pattern_functions`` calls), ``mc_estimate_witness`` (which holds the
kernel) and ``formats.batch_to_csv``, split into the formatting of the
cells and the rest, the compaction of each chunk and its write.  Wall and
CPU time drift by tens of percent between runs on a shared VM, so the
stages are interleaved and repeated and the medians of each are printed.

Then the minor page faults of one untraced ``sample_homodyne`` call on
each state, the mean over repeated calls of this process's
``getrusage`` count.  Each call's batch is kept until the next one is
drawn, as by a caller that uses it.  A temporary that glibc serves by
mmap, or from heap pages it trimmed after the last call, is faulted in
again, so this count shows whether the sampler's cost depends on what
the process allocated and freed before.

Then the traced peak allocation of one table build on each state, of one
call of ``sample_homodyne`` on each state at the benchmark's sample counts
and on the d = 4 twin beam, of ``sample_twin_beam`` without and with phase
noise and of ``mc_estimate_witness`` at 2^17 samples, each with the part
beyond the batch (32 bytes a sample) or the kernel values (8 bytes a
sample), of ``formats.batch_to_csv`` on 2^17 rows, and of the in-process
``tomo-estimate`` command at 2^17 samples with phase noise, without and
with ``--batch-csv``, with the part beyond its kernel values: it streams
its samples block by block and never holds the batch.  Peaks are in MiB.
Run from the repository root:

    PYTHONPATH=src python tools/sampler_stages.py [repeats]
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import sys
import tempfile
import time
import tracemalloc

import numpy as np

from witnessforge import cli, formats
from witnessforge import tomography as tm
from witnessforge.cv import FockTruncation, twb_state
from witnessforge.formats import batch_to_csv
from witnessforge.specfn import pattern_functions
from witnessforge.states import BipartiteDensity, random_state_operator
from witnessforge.witness_finite import depolarized_state


def states(rng):
    for d in (3, 4):
        yield f"depolarized d={d}", depolarized_state(
            random_state_operator(d, rng), 0.8)
    base = twb_state(0.5, FockTruncation.for_twb(0.5))
    d = base.dim_a
    phases = np.kron(np.exp(1.1j * np.arange(d)), np.ones(d))
    yield "rotated twb", BipartiteDensity(
        d, d, base.matrix * np.outer(phases, phases.conj()))
    yield "twb", base


def stages(rho, rng):
    n = tm._CHUNK
    tables = tm._SamplerTables.build(rho)
    phi1, phi2 = math.pi * rng.random((2, n))
    u1, u2 = rng.random((2, n))
    x1 = tables.draw_marginal(phi1, u1)
    # the sampler's buffer of conditional features, which every chunk of a
    # call reuses
    buffer = np.empty((tables.conditional.shape[0], n))
    weights = tables.pair_weights(x1, phi1, phi2, buffer)
    cells = []
    invert = tm._invert_cells
    tm._invert_cells = lambda *args: cells.append(args) or invert(*args)
    try:
        tables.draw_conditional(x1, phi1, phi2, u2)
    finally:
        tm._invert_cells = invert
    conditional = tm._weighted_columns(weights, tables.pairs)
    return {
        "table + map build (per call)": lambda: tm._SamplerTables.build(rho),
        "positivity check (per call)": lambda: tm._check_positive(rho, tables),
        "marginal draw": lambda: tables.draw_marginal(phi1, u1),
        "reduced weights": lambda: tables.pair_weights(x1, phi1, phi2,
                                                       buffer),
        "conditional search + inversion": lambda: tm._sample_columns(
            conditional, u2, tables.nodes, tables.delta),
        "inversion alone": lambda: invert(*cells[0]),
    }


def estimate_stages(path: str) -> dict:
    """The stages of ``tomo-estimate`` at TWIN_SAMPLES samples; the export
    writes to path."""
    n = TWIN_SAMPLES
    timed = {f"sample_twin_beam {label}": (
        lambda noise=noise: tm.sample_twin_beam(0.5, n, seed=1, **noise))
        for label, noise in TWIN_NOISE.items()}
    batch = tm.sample_twin_beam(0.5, n, seed=1, gamma_t=1.0)
    columns = (batch.phi1, batch.x1, batch.phi2, batch.x2)
    block = np.empty((formats.CHUNK_ROWS, 4))
    cells = np.empty((4 * formats.CHUNK_ROWS, 5), dtype=formats._WORD)

    def formatting():
        # the loop of batch_to_csv without the separators, the compaction
        # and the write
        for start in range(0, n, formats.CHUNK_ROWS):
            rows = min(formats.CHUNK_ROWS, n - start)
            np.stack([col[start:start + rows] for col in columns], axis=1,
                     out=block[:rows])
            formats._format_cells(block[:rows].ravel(), cells[:4 * rows])

    timed.update({
        "pattern_functions (x1)": lambda: pattern_functions(batch.x1),
        "witness_kernel": lambda: tm.witness_kernel(
            batch.x1, batch.phi1, batch.x2, batch.phi2),
        "mc_estimate_witness": lambda: tm.mc_estimate_witness(batch),
        "batch_to_csv": lambda: batch_to_csv(path, batch),
        "batch_to_csv formatting": formatting,
    })
    return timed


def median_ms(timed: dict, repeats: int) -> dict:
    """The median CPU and wall time of each stage in ms, the stages
    interleaved."""
    times = {stage: ([], []) for stage in timed}
    for _ in range(repeats):
        for stage, run in timed.items():
            wall, cpu = time.perf_counter(), time.process_time()
            run()
            times[stage][0].append(time.process_time() - cpu)
            times[stage][1].append(time.perf_counter() - wall)
    return {stage: (1e3 * np.median(cpu), 1e3 * np.median(wall))
            for stage, (cpu, wall) in times.items()}


def print_medians(medians: dict) -> None:
    print(f"  {'stage':32s} {'CPU ms':>8s} {'wall ms':>8s} {'CPU/wall':>8s}")
    for stage, (cpu, wall) in medians.items():
        print(f"  {stage:32s} {cpu:8.3f} {wall:8.3f} {cpu / wall:8.2f}")


# sample counts of the benchmark's tomography workloads, and the rotated
# twin beam's for the plain one
STATE_SAMPLES = {"depolarized d=3": 2 ** 14, "depolarized d=4": 2 ** 14,
                 "rotated twb": 2 ** 15, "twb": 2 ** 15}
TWIN_SAMPLES = 2 ** 17
TWIN_NOISE = {"none": {}, "gamma_t = 1": {"gamma_t": 1.0},
              "kappa = 0.2": {"kappa": 0.2}}
MIB = 2 ** 20


def traced_peak(run) -> float:
    """Peak traced allocation of one call of run(), in MiB."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def report(name: str, run, beyond: str = "", per_sample: int = 0,
           n: int = 0) -> None:
    """Print the traced peak of run(), and the part beyond its batch or
    values of per_sample bytes a sample."""
    peak = traced_peak(run)
    line = f"  {name:42s} {peak:7.2f}"
    if beyond:
        line += f"  beyond the {beyond}: {peak - per_sample * n / MIB:.2f}"
    print(line)


def memory(rng) -> None:
    print("traced peak per call, MiB:")
    for name, rho in states(rng):
        report(f"_SamplerTables.build {name}",
               lambda: tm._SamplerTables.build(rho))
        n = STATE_SAMPLES[name]
        report(f"sample_homodyne {name} n = {n}",
               lambda: tm.sample_homodyne(rho, n, seed=1), "batch", 32, n)
    n = TWIN_SAMPLES
    small = twb_state(0.3, FockTruncation(3))
    tm.sample_homodyne(small, 1000, seed=1)
    report(f"sample_homodyne twb d=4 n = {n}",
           lambda: tm.sample_homodyne(small, n, seed=1), "batch", 32, n)
    for gamma_t in (0.0, 1.0):
        report(f"sample_twin_beam gamma_t = {gamma_t:g} n = {n}",
               lambda: tm.sample_twin_beam(0.5, n, seed=1, gamma_t=gamma_t),
               "batch", 32, n)
    batch = tm.sample_twin_beam(0.5, n, seed=1, gamma_t=1.0)
    report(f"mc_estimate_witness n = {n}",
           lambda: tm.mc_estimate_witness(batch), "values", 8, n)
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "batch.csv")
        # the first export builds the digit tables; the peak is a later one
        batch_to_csv(path, tm.HomodyneBatch(*(row[:1] for row in (
            batch.phi1, batch.x1, batch.phi2, batch.x2))))
        report(f"batch_to_csv {n} rows", lambda: batch_to_csv(path, batch))
        # the command draws, scores and exports one block at a time, so
        # beyond its kernel values it holds one block's buffer (2 MiB)
        argv = ["tomo-estimate", "--x", "0.5", "--gammat", "1", "--samples",
                str(n), "--seed", "1"]
        for label, extra in (("", []), (" --batch-csv", ["--batch-csv",
                                                         path])):
            report(f"tomo-estimate{label} n = {n}",
                   lambda: quiet(cli.main, argv + extra), "values", 8, n)


def quiet(run, *args):
    """run(*args) with its stdout dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return run(*args)


def faults(rng, repeats: int) -> None:
    print(f"minor page faults per sample_homodyne call, mean of {repeats}:")
    for name, rho in states(rng):
        n = STATE_SAMPLES[name]
        batch = tm.sample_homodyne(rho, n, seed=1)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(repeats):
            batch = tm.sample_homodyne(rho, n, seed=1)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        label = f"{name} n = {n}"
        print(f"  {label:42s} {(after - before) / repeats:7.0f}")


def main(repeats: int = 30) -> None:
    rng = np.random.default_rng(7)
    for name, rho in states(rng):
        tables = tm._SamplerTables.build(rho)
        modes = {block[:2] for _, blocks in tables.groups for block in blocks}
        print(f"{name} (d = {rho.dim_a}): read width "
              f"{tables.pairs.shape[0]}, table {tables.pairs.nbytes} B, "
              f"{len(modes)} conditional modes, conditional map "
              f"{tables.conditional.shape}, marginal map "
              f"{tables.marginal.shape}; medians over {repeats}:")
        print_medians(median_ms(stages(rho, rng), repeats))
    with tempfile.TemporaryDirectory() as folder:
        medians = median_ms(
            estimate_stages(os.path.join(folder, "batch.csv")), repeats)
    medians["batch_to_csv compaction + write"] = tuple(
        whole - part for whole, part in zip(
            medians["batch_to_csv"], medians["batch_to_csv formatting"]))
    print(f"tomo-estimate at n = {TWIN_SAMPLES}, medians over {repeats}:")
    print_medians(medians)
    faults(np.random.default_rng(7), repeats)
    memory(np.random.default_rng(7))


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:]))
