"""Print the CPU time of each stage of ``sample_homodyne`` on the states of
the benchmark's tomo-general workload: depolarized random states at d = 3
and 4 (p = 0.8) and the twin beam at x = 0.5 after a local phase rotation.

Table build and positivity check are timed per call; the marginal draw, the
pair weights, the conditional draw (cell search and inversion) and the
inversion alone per chunk of ``tomography._CHUNK`` (1024) samples.  The
marginal draw includes its pair weights from the phase powers of phi1 when
rho_A has coherences; otherwise it reads the shared row.  Wall and CPU
time drift by tens of percent between runs on a shared VM, so the stages
are interleaved and repeated and the median of each is printed.

Then the traced peak allocation of one table build on each state, of one
call of ``sample_homodyne`` on each state at the benchmark's sample counts
and on the d = 4 twin beam, of ``sample_twin_beam`` without and with phase
noise and of ``mc_estimate_witness`` at 2^17 samples, each with the part
beyond the batch (32 bytes a sample) or the kernel values (8 bytes a
sample), and of ``formats.batch_to_csv`` on 2^17 rows.  Peaks are in MiB.
Run from the repository root:

    PYTHONPATH=src python tools/sampler_stages.py [repeats]
"""

from __future__ import annotations

import math
import os
import sys
import tempfile
import time
import tracemalloc

import numpy as np

from witnessforge import tomography as tm
from witnessforge.cv import FockTruncation, twb_state
from witnessforge.formats import batch_to_csv
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


def stages(rho, rng):
    n = tm._CHUNK
    tables = tm._SamplerTables.build(rho)
    phi1, phi2 = math.pi * rng.random((2, n))
    u1, u2 = rng.random((2, n))
    x1 = tables.draw_marginal(phi1, u1)
    weights = tables.pair_weights(x1, phi1, phi2)
    cells = []
    invert = tm._invert_cells
    tm._invert_cells = lambda *args: cells.append(args) or invert(*args)
    try:
        tables.draw_conditional(x1, phi1, phi2, u2)
    finally:
        tm._invert_cells = invert
    conditional = tm._weighted_columns(weights, tables.pairs)
    return {
        "table build (per call)": lambda: tm._SamplerTables.build(rho),
        "positivity check (per call)": lambda: tm._check_positive(
            rho, tables.nodes, tables.diff is not None),
        "marginal draw": lambda: tables.draw_marginal(phi1, u1),
        "pair weights": lambda: tables.pair_weights(x1, phi1, phi2),
        "conditional search + inversion": lambda: tm._sample_columns(
            conditional, u2, tables.nodes, tables.delta),
        "inversion alone": lambda: invert(*cells[0]),
    }


# sample counts of the benchmark's tomography workloads
STATE_SAMPLES = {"depolarized d=3": 2 ** 14, "depolarized d=4": 2 ** 14,
                 "rotated twb": 2 ** 15}
TWIN_SAMPLES = 2 ** 17
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


def main(repeats: int = 30) -> None:
    rng = np.random.default_rng(7)
    for name, rho in states(rng):
        timed = stages(rho, rng)
        times = {stage: [] for stage in timed}
        for _ in range(repeats):
            for stage, run in timed.items():
                start = time.process_time()
                run()
                times[stage].append(time.process_time() - start)
        print(f"{name} (d = {rho.dim_a}), median CPU ms over {repeats}:")
        for stage, values in times.items():
            print(f"  {stage:32s} {1e3 * np.median(values):8.3f}")
    memory(np.random.default_rng(7))


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:]))
