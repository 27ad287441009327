"""Tests of the benchmark's own machinery: wrappers pass results through,
self time is computed right, and bad outputs count as failed operations."""

import json

import numpy as np
import pytest

import run
from benchlib import layers, workloads
from benchlib.spans import Span, Tracer, self_times
from witnessforge import cv, tomography


def test_traced_sampler_is_bitwise_equal_to_untraced():
    rho = cv.twb_state(0.5, cv.FockTruncation.for_twb(0.5))
    original = tomography.sample_homodyne
    plain = tomography.sample_homodyne(rho, 2 ** 12, 5)
    tracer = Tracer()
    with layers.installed(tracer) as absent:
        traced = tomography.sample_homodyne(rho, 2 ** 12, 5)
        estimate = tomography.mc_estimate_witness(traced)
    assert "tomography.sample_homodyne.self_s" not in absent
    assert tomography.sample_homodyne is original
    for name in ("phi1", "x1", "phi2", "x2"):
        assert np.array_equal(getattr(plain, name), getattr(traced, name))
    assert estimate == tomography.mc_estimate_witness(plain)
    assert "tomography.sample_homodyne" in {s.name for s in tracer.spans}


def test_self_time_of_nested_spans():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 1),
        Span(1, "a", 1.0, 4.0, 0, 1),
        Span(2, "a.inner", 2.0, 3.0, 1, 1),
        Span(3, "b", 5.0, 6.5, 0, 1),
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 3.0 - 1.5)
    assert got[1] == pytest.approx(2.0)
    assert got[2] == pytest.approx(1.0)
    assert got[3] == pytest.approx(1.5)


def test_layer_self_times_add_up_to_job_time():
    spans = [
        Span(0, layers.JOB_SPAN, 0.0, 5.0, None, 1),
        Span(1, "cli.main", 0.5, 4.5, 0, 1),
        Span(2, "cv.gauss_separability_threshold", 1.0, 3.0, 1, 1),
        Span(3, "cv.gauss_witness_expectation", 1.0, 1.5, 2, 1),
        Span(4, "cv.gauss_witness_expectation", 2.0, 2.5, 2, 1),
        Span(5, "cv.gauss_witness_expectation", 3.5, 4.0, 1, 1),
    ]
    values = layers.layer_metrics(spans, {})
    total = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert total == pytest.approx(5.0)
    assert values["cv.gauss_witness_expectation.calls"] == 3
    assert values["cv.gauss_separability_threshold.evals_per_root"] == 2
    assert values["cli.main.self_s"] == pytest.approx(1.5)


def test_removed_binding_is_absent_not_fatal(monkeypatch):
    monkeypatch.delattr(cv, "gaussian_noise_blocks", raising=False)
    with layers.installed(Tracer()) as absent:
        pass
    assert "cv.gaussian_noise_blocks.self_s" in absent


def _fake_cli(code, payload):
    result = workloads.CliResult(code, json.dumps(payload), "")
    return lambda: result


def test_wrong_kappa_star_is_a_failed_operation():
    good = workloads.Job("good", _fake_cli(0, {"kappa_star": 1 / 3}),
                         workloads.check_cv_gauss(0.5))
    bad = workloads.Job("bad", _fake_cli(0, {"kappa_star": 5 / 6}),
                        workloads.check_cv_gauss(0.5))
    result = workloads.run_pass([good, bad])
    assert result.attempted == 2
    assert len(result.failures) == 1 and result.failures[0].startswith("bad")


def test_nonzero_exit_is_a_failed_operation():
    faked = workloads.Job("faked", _fake_cli(3, {}),
                          workloads.check_finite_scan)
    real = workloads.Job(
        "real", lambda: workloads.call_cli(
            ["finite-witness", "--dim", "3", "--max-entangled", "--p", "2"]),
        workloads.check_finite_witness)
    result = workloads.run_pass([faked, real])
    assert [f.split(":")[0] for f in result.failures] == ["faked", "real"]


def test_estimate_check_uses_four_standard_errors():
    workloads.check_estimate(0.0, 0.1, 0.39)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_estimate(0.0, 0.1, 0.41)
    assert workloads.gauss_expectation_closed_form(0.5, 1 / 3) == \
        pytest.approx(0.0, abs=1e-15)
    assert workloads.gauss_expectation_closed_form(0.5, 0.0) == \
        pytest.approx(-0.375)


def test_every_listed_workload_and_metric_is_produced():
    spec = run.SPEC
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    e2e = run.end_to_end([], [workloads.PassResult(1.0, 1.0, {})], [1.0])
    assert {m["name"] for m in spec["end_to_end"]} <= set(e2e)
    # every per-layer metric is measured from the spans of a wrapped layer,
    # save the few that run.py and the counter hooks compute themselves
    measured = set(layers.SELF_METRIC.values())
    unmatched = [m["name"] for m in spec["per_layer"]
                 if layers.self_metric_of(m["name"]) not in measured]
    assert unmatched == ["formats.bytes_written", "trace.wall_s",
                         "trace.overhead_s"]
