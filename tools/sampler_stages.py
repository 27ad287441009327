"""Print the CPU time of each stage of ``sample_homodyne`` on the states of
the benchmark's tomo-general workload: depolarized random states at d = 3
and 4 (p = 0.8) and the twin beam at x = 0.5 after a local phase rotation.

Table build and positivity check are timed per call; the marginal draw, the
pair weights, the conditional draw (cell search and inversion) and the
inversion alone per chunk of 2048 samples.  Wall and CPU time drift by
tens of percent between runs on a shared VM, so the stages are interleaved
and repeated and the median of each is printed.  Run from the repository
root:

    PYTHONPATH=src python tools/sampler_stages.py [repeats]
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np

from witnessforge import tomography as tm
from witnessforge.cv import FockTruncation, twb_state
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


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:]))
