"""Which library bindings the traced run wraps, and the per-layer metrics
computed from the spans and counters they record.

Each wrapper replaces a name in the module that *calls* it, because that is
the binding a call looks up: ``cli`` imports ``write_csv`` into its own
namespace, ``tomography`` imports ``f00`` and ``oscillator_psi_table``, and
calls inside one module (``gauss_separability_threshold`` calling
``gauss_witness_expectation``) go through that module's global.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter
from contextlib import contextmanager

import numpy as np

from . import SPEC
from .spans import Tracer, self_times

JOB_SPAN = "bench.job"


def _count_exit(counters, args, result):
    if result != 0:
        counters["cli.main.nonzero_exit"] += 1


def _count_csv_bytes(counters, args, result):
    counters["formats.bytes_written"] += os.path.getsize(args["path"])


def _count_report_bytes(counters, args, result):
    if args["path"] is not None:
        counters["formats.bytes_written"] += len(result.encode("utf-8"))


def _count_samples(counters, args, result):
    counters["tomography.sample_homodyne.samples"] += int(args["n"])


def _count_points(counters, args, result):
    counters["specfn.pattern.points"] += int(np.size(args["x"]))


def _count_psi_values(counters, args, result):
    counters["specfn.oscillator_psi_table.values"] += int(np.size(result))


def _count_n_max(counters, args, result):
    key = "cv.noise_truncation.n_max"
    counters[key] = max(counters[key], result.n_max)


def _count_bs_bytes(counters, args, result):
    # one dense (d^2 x d^2) complex matrix, the size the splitter conjugates
    counters["cv.beam_splitter.bytes"] += 16 * args["rho"].dim_a ** 4


def _count_depolarized_bytes(counters, args, result):
    counters["witness_finite.depolarized_state.bytes"] += result.matrix.nbytes


# (module holding the binding, attribute, span name, self-time metric, hook)
BINDINGS = (
    ("cli", "main", "cli.main", "cli.main.self_s", _count_exit),
    ("cli", "write_csv", "formats.write_csv", "formats.write_csv.self_s",
     _count_csv_bytes),
    ("cli", "batch_to_csv", "formats.batch_to_csv",
     "formats.write_csv.self_s", None),
    ("formats", "write_csv", "formats.write_csv", "formats.write_csv.self_s",
     _count_csv_bytes),
    ("cli", "dump_report", "formats.dump_report",
     "formats.dump_report.self_s", _count_report_bytes),
    ("cli", "complex_svd", "linalg.complex_svd", "linalg.complex_svd.self_s",
     None),
    ("tomography", "sample_homodyne", "tomography.sample_homodyne",
     "tomography.sample_homodyne.self_s", _count_samples),
    ("tomography", "mc_estimate_witness", "tomography.mc_estimate_witness",
     "tomography.mc_estimate_witness.self_s", None),
    ("tomography", "witness_kernel", "tomography.witness_kernel",
     "tomography.witness_kernel.self_s", None),
    ("tomography", "f00", "specfn.f00", "specfn.pattern.self_s",
     _count_points),
    ("tomography", "f01", "specfn.f01", "specfn.pattern.self_s",
     _count_points),
    ("tomography", "f11", "specfn.f11", "specfn.pattern.self_s",
     _count_points),
    ("tomography", "oscillator_psi_table", "specfn.oscillator_psi_table",
     "specfn.oscillator_psi_table.self_s", _count_psi_values),
    ("cv", "twb_state", "cv.twb_state", "cv.states.self_s", None),
    ("cv", "phase_noisy_twb", "cv.phase_noisy_twb", "cv.states.self_s", None),
    ("cv", "cv_witness", "cv.cv_witness", "cv.states.self_s", None),
    ("cv", "noise_truncation", "cv.noise_truncation",
     "cv.noise_truncation.self_s", _count_n_max),
    ("cv", "apply_gaussian_noise", "cv.apply_gaussian_noise",
     "cv.apply_gaussian_noise.self_s", None),
    ("cv", "gaussian_noise_blocks", "cv.gaussian_noise_blocks",
     "cv.gaussian_noise_blocks.self_s", None),
    ("cv", "embed", "cv.embed", "cv.embed.self_s", None),
    ("cv", "beam_splitter", "cv.beam_splitter", "cv.beam_splitter.self_s",
     _count_bs_bytes),
    ("cv", "beam_splitter_unitary", "cv.beam_splitter_unitary",
     "cv.beam_splitter_unitary.self_s", None),
    ("cv", "gauss_witness_expectation", "cv.gauss_witness_expectation",
     "cv.gauss_witness_expectation.self_s", None),
    ("cv", "gauss_separability_threshold", "cv.gauss_separability_threshold",
     "cv.gauss_separability_threshold.self_s", None),
    ("witness_finite", "depolarized_state", "witness_finite.depolarized_state",
     "witness_finite.depolarized_state.self_s", _count_depolarized_bytes),
    ("witness_finite", "evaluate_witness", "witness_finite.evaluate_witness",
     "witness_finite.evaluate_witness.self_s", None),
    ("witness_finite", "quorum_decompose", "witness_finite.quorum_decompose",
     "witness_finite.quorum_decompose.self_s", None),
    ("witness_finite", "min_eigvec_operator",
     "witness_finite.min_eigvec_operator", "witness_finite.construct.self_s",
     None),
    ("witness_finite", "build_witness", "witness_finite.build_witness",
     "witness_finite.construct.self_s", None),
    ("witness_finite", "min_pt_eigenvalue", "witness_finite.min_pt_eigenvalue",
     "witness_finite.construct.self_s", None),
    ("witness_finite", "detection_threshold",
     "witness_finite.detection_threshold", "witness_finite.construct.self_s",
     None),
    ("witness_finite", "complex_svd", "linalg.complex_svd",
     "linalg.complex_svd.self_s", None),
    ("witness_finite", "partial_transpose", "linalg.partial_transpose",
     "linalg.partial_transpose.self_s", None),
)

SELF_METRIC = {span: metric for _, _, span, metric, _ in BINDINGS}
SELF_METRIC[JOB_SPAN] = "bench.job.self_s"

UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def self_metric_of(metric: str) -> str:
    """The self-time metric a metric belongs to: ``cli.main.calls`` and
    ``cli.main.nonzero_exit`` belong to ``cli.main.self_s``."""
    return metric.rsplit(".", 1)[0] + ".self_s"


@contextmanager
def installed(tracer: Tracer):
    """Wrap every binding in BINDINGS for the duration of the block.

    Yields the names of the per-layer metrics of a layer none of whose
    bindings exist, so a public name that the library dropped is reported,
    not fatal.  The original bindings are restored on exit.
    """
    patched = []
    present = set()
    for module_name, attr, span, metric, hook in BINDINGS:
        try:
            module = importlib.import_module(f"witnessforge.{module_name}")
        except ImportError:
            continue
        original = getattr(module, attr, None)
        if not callable(original):
            continue
        setattr(module, attr, tracer.wrap(original, span, hook))
        patched.append((module, attr, original))
        present.add(metric)
    wrapped = {metric for _, _, _, metric, _ in BINDINGS}
    absent = [name for name in UNITS
              if self_metric_of(name) in wrapped and self_metric_of(name) not in present]
    try:
        yield absent
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def layer_metrics(spans, counters: dict) -> dict[str, float]:
    """Per-layer values of one traced pass (``trace.*`` excepted).

    The ``.self_s`` values of all spans, ``bench.job.self_s`` included, add
    up to the time the job spans cover.
    """
    values = dict.fromkeys(UNITS, 0.0)
    selfs = self_times(spans)
    calls = Counter()
    for span in spans:
        values[SELF_METRIC[span.name]] += selfs[span.id]
        calls[SELF_METRIC[span.name]] += 1
    for name in UNITS:
        if name.endswith(".calls"):
            values[name] = float(calls[self_metric_of(name)])
    values.update(counters)
    samples = values["tomography.sample_homodyne.samples"]
    if samples:
        values["tomography.sample_homodyne.us_per_sample"] = (
            1e6 * values["tomography.sample_homodyne.self_s"] / samples)
    roots = {s.id for s in spans if s.name == "cv.gauss_separability_threshold"}
    if roots:
        evals = sum(1 for s in spans if s.name == "cv.gauss_witness_expectation"
                    and s.parent in roots)
        values["cv.gauss_separability_threshold.evals_per_root"] = (
            evals / len(roots))
    return values
