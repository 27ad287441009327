import ast
import itertools
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import witnessforge
from helpers import batch_rows_from_csv, report_oracle, twin_beam_batch
from witnessforge import cli, witness_finite
from witnessforge.cli import main
from witnessforge.cv import (
    FockTruncation,
    gauss_witness_expectation,
    phase_witness_expectation,
    sum_mode_variance,
)
from witnessforge.formats import (
    batch_to_csv,
    dump_report,
    matrix_to_json,
    write_csv,
)
from witnessforge.linalg import ConvergenceError
from witnessforge.states import BipartiteDensity, maximally_entangled_operator
from witnessforge import tomography
from witnessforge.tomography import (
    BLOCK_SIZE,
    HomodyneBatch,
    mc_estimate_witness,
    witness_kernel,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse(out):
    return json.loads(out)


def strip_timestamp(text):
    return re.sub(r'^\s*"timestamp": .*\n', "", text, flags=re.M)


def test_finite_witness_report(capsys):
    code, out, _ = run(capsys, "finite-witness", "--dim", "3",
                       "--max-entangled", "--p", "0.3")
    assert code == 0
    report = parse(out)
    assert report["lambda_min"] == pytest.approx(-1.0 / 45.0, abs=1e-12)
    assert report["trace_wr"] == pytest.approx(-1.0 / 45.0, abs=1e-10)
    assert report["entangled"] is True
    assert report["boundary"] is False
    assert report["p_threshold"] == pytest.approx(0.25, abs=1e-12)
    assert len(report["quorum"]["terms"]) == 4
    assert report["config"]["p"] == 0.3


def test_finite_witness_boundary_flag(capsys):
    code, out, _ = run(capsys, "finite-witness", "--dim", "3",
                       "--max-entangled", "--p", "0.25")
    report = parse(out)
    assert code == 0
    assert report["entangled"] is False
    assert report["boundary"] is True


def test_finite_witness_schmidt_normalization_warning(capsys):
    code, out, err = run(capsys, "finite-witness", "--dim", "4",
                         "--schmidt", "3,4", "--p", "0.5")
    assert code == 0
    assert "normalizing" in err
    report = parse(out)
    assert report["sigma"][0] == pytest.approx(0.8, abs=1e-12)


@pytest.mark.parametrize("coeffs", ["1e200,1e200", "1e-200,1e-200",
                                    "1e-170,1e-170"])
def test_finite_witness_extreme_schmidt_coefficients(capsys, coeffs):
    """Coefficients whose squares overflow or underflow give the report of
    their normalized form; any numpy warning fails the test."""
    reports = []
    for given in ("1,1", coeffs):
        code, out, err = run(capsys, "finite-witness", "--dim", "4",
                             "--schmidt", given, "--p", "0.3")
        assert code == 0, err
        assert "normalizing" in err
        report = parse(out)
        del report["config"], report["timestamp"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_finite_witness_psi_file(capsys, tmp_path):
    path = tmp_path / "psi.json"
    payload = {"psi": matrix_to_json(maximally_entangled_operator(3)),
               "label": "max3"}
    dump_report(payload, str(path))
    code, out, _ = run(capsys, "finite-witness", "--dim", "3",
                       "--psi-file", str(path), "--p", "0.5")
    assert code == 0
    assert parse(out)["p_threshold"] == pytest.approx(0.25, abs=1e-12)


def test_finite_witness_bad_inputs(capsys):
    code, _, err = run(capsys, "finite-witness", "--dim", "3",
                       "--max-entangled", "--p", "1.5")
    assert code == 2 and "error" in err
    code, _, _ = run(capsys, "finite-witness", "--dim", "3", "--p", "0.5")
    assert code == 2
    code, _, _ = run(capsys, "finite-witness", "--dim", "3",
                     "--psi-file", "/nonexistent.json", "--p", "0.5")
    assert code == 2


def test_finite_witness_deterministic_reports(capsys, tmp_path):
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    for path in paths:
        code, _, _ = run(capsys, "finite-witness", "--dim", "4",
                         "--max-entangled", "--p", "0.4", "--output", path)
        assert code == 0
    texts = [strip_timestamp(Path(p).read_text()) for p in paths]
    assert texts[0] == texts[1]


def test_finite_scan(capsys, tmp_path):
    csv_path = str(tmp_path / "scan.csv")
    code, out, _ = run(capsys, "finite-scan", "--dim", "3", "--max-entangled",
                       "--scan-p", "0:1:0.05", "--output", csv_path)
    assert code == 0
    summary = parse(out)
    assert summary["p_threshold_bisection"] == pytest.approx(0.25, abs=1e-10)
    assert summary["p_threshold_closed_form"] == pytest.approx(0.25, abs=1e-12)
    rows = Path(csv_path).read_text().strip().splitlines()
    assert rows[0] == "p,trace_wr,entangled"
    assert len(rows) == 22
    first = rows[1].split(",")
    assert float(first[1]) == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_cv_phase_report(capsys):
    code, out, _ = run(capsys, "cv-phase", "--x", "0.5", "--gammat", "1")
    assert code == 0
    report = parse(out)
    assert report["expectation"] == pytest.approx(-0.375 * np.exp(-1.0),
                                                  abs=1e-9)
    assert report["entangled"] is True


def test_cv_gauss_single(capsys):
    code, out, _ = run(capsys, "cv-gauss", "--x", "0.5", "--kappa", "0.2")
    assert code == 0
    report = parse(out)
    assert report["entangled"] is True
    code, out, _ = run(capsys, "cv-gauss", "--x", "0.5", "--kappa", "0.5")
    assert parse(out)["entangled"] is False


def test_cv_gauss_vacuum_is_not_entangled(capsys):
    code, out, _ = run(capsys, "cv-gauss", "--x", "0", "--kappa", "0.5")
    assert code == 0
    report = parse(out)
    assert report["expectation"] == pytest.approx(0.5 / 1.5 ** 3, rel=1e-14)
    assert report["entangled"] is False


def test_cv_gauss_needs_one_noise_flag(capsys, tmp_path):
    code, _, err = run(capsys, "cv-gauss", "--x", "0.5")
    assert code == 2
    assert "give one of --kappa / --scan-kappa" in err
    code, _, err = run(capsys, "cv-gauss", "--x", "0.5", "--kappa", "0.2",
                       "--scan-kappa", "0:1:0.1",
                       "--output", str(tmp_path / "k.csv"))
    assert code == 2
    assert "give one of --kappa / --scan-kappa" in err


def test_cv_gauss_scan_at_x_zero_exits_2_and_writes_no_csv(capsys,
                                                           tmp_path):
    # the vacuum has no separability threshold, and the command fails
    # before it writes the CSV
    csv_path = tmp_path / "kappa.csv"
    code, out, err = run(capsys, "cv-gauss", "--x", "0",
                         "--scan-kappa", "0:1:0.5", "--output", str(csv_path))
    assert code == 2
    assert "outside (0, 1)" in err and out == ""
    assert not csv_path.exists()


def test_cv_gauss_scan_brackets_crossing(capsys, tmp_path):
    csv_path = str(tmp_path / "kappa.csv")
    code, out, _ = run(capsys, "cv-gauss", "--x", "0.5",
                       "--scan-kappa", "0:1.2:0.01", "--output", csv_path)
    assert code == 0
    summary = parse(out)
    rows = [line.split(",") for line in
            Path(csv_path).read_text().strip().splitlines()[1:]]
    kappas = np.array([float(r[0]) for r in rows])
    values = np.array([float(r[1]) for r in rows])
    signs = np.sign(values)
    flips = np.nonzero(np.diff(signs))[0]
    assert len(flips) == 1
    bracket = (kappas[flips[0]], kappas[flips[0] + 1])
    assert bracket[0] <= summary["kappa_star"] <= bracket[1]
    assert summary["kappa_star"] == pytest.approx(1.0 / 3.0, abs=1e-3)
    assert summary["stated_reference"] == pytest.approx(5.0 / 6.0, abs=1e-14)


def test_gauss_scan(capsys, tmp_path):
    csv_path = str(tmp_path / "xs.csv")
    code, out, _ = run(capsys, "gauss-scan", "--scan-x", "0.3:0.7:0.2",
                       "--output", csv_path)
    assert code == 0
    assert parse(out)["points"] == 3
    rows = [line.split(",") for line in
            Path(csv_path).read_text().strip().splitlines()[1:]]
    assert Path(csv_path).read_text().splitlines()[0] == \
        "x,kappa_star,stated_reference"
    for x_str, star_str, stated_str in rows:
        x = float(x_str)
        assert float(star_str) == pytest.approx(x / (1 + x), abs=1e-3)
        assert float(stated_str) == pytest.approx(x / (1 + x) + 0.5,
                                                  abs=1e-14)


def test_tomo_estimate(capsys):
    code, out, _ = run(capsys, "tomo-estimate", "--x", "0.5", "--gammat", "1",
                       "--samples", "40000", "--seed", "42")
    assert code == 0
    report = parse(out)
    assert report["n_samples"] == 40000
    assert report["seed"] == 42
    assert report["direct_value"] == pytest.approx(-0.375 * np.exp(-1.0),
                                                   abs=1e-9)
    assert abs(report["z_score"]) <= 3.5


def test_tomo_estimate_deterministic(capsys, tmp_path):
    args = ["tomo-estimate", "--x", "0.3", "--samples", "5000", "--seed", "7"]
    outs = []
    for name in ("r1.json", "r2.json"):
        path = str(tmp_path / name)
        code, _, _ = run(capsys, *args, "--output", path)
        assert code == 0
        outs.append(strip_timestamp(Path(path).read_text()))
    assert outs[0] == outs[1]


def test_tomo_estimate_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("WITNESSFORGE_SEED", "314")
    code, out, _ = run(capsys, "tomo-estimate", "--x", "0.3",
                       "--samples", "2000")
    assert code == 0
    assert parse(out)["seed"] == 314


@pytest.mark.parametrize("value", ["abc", "-3", "1.5", ""])
def test_tomo_estimate_bad_env_seed_exits_2(capsys, monkeypatch, value):
    # the message names the variable and the rule
    monkeypatch.setenv("WITNESSFORGE_SEED", value)
    code, out, err = run(capsys, "tomo-estimate", "--x", "0.5",
                         "--samples", "10")
    assert code == 2 and out == ""
    assert f"WITNESSFORGE_SEED={value!r}: not a non-negative integer" \
        in err


def test_tomo_estimate_batch_csv(capsys, tmp_path):
    csv_path = str(tmp_path / "batch.csv")
    code, out, _ = run(capsys, "tomo-estimate", "--x", "0.3",
                       "--samples", "1000", "--seed", "3",
                       "--batch-csv", csv_path)
    assert code == 0
    lines = Path(csv_path).read_text().strip().splitlines()
    assert lines[0] == "phi1,x1,phi2,x2"
    assert len(lines) == 1001


def test_tomo_estimate_batch_csv_is_the_sampled_batch(capsys, tmp_path):
    # the command draws, scores and exports one piece at a time; its report
    # and batch CSV are the bytes of the library route that holds the batch
    noises = {"twb": ((), {}), "phase": (("--gammat", "1"), {"gamma_t": 1.0}),
              "gauss": (("--kappa", "0.2"), {"kappa": 0.2})}
    sizes = (1, 1000, BLOCK_SIZE, 2 * BLOCK_SIZE + 1017)
    for n, (flags, noise), workers in itertools.product(
            sizes, noises.values(), (1, 2)):
        csv_path, expected_csv = tmp_path / "cli.csv", tmp_path / "lib.csv"
        code, out, err = run(capsys, "tomo-estimate", "--x", "0.3",
                             "--samples", str(n), "--seed", "3",
                             "--workers", str(workers), *flags,
                             "--batch-csv", str(csv_path))
        assert code == 0, err
        batch = twin_beam_batch(0.3, n, 3, **noise)
        estimate = mc_estimate_witness(batch)
        batch_to_csv(expected_csv, [batch])
        assert csv_path.read_bytes() == expected_csv.read_bytes()
        payload = parse(out)
        del payload["timestamp"]
        payload.update(
            n_samples=estimate.n_samples, mean=estimate.mean,
            std_error=estimate.std_error, kurtosis=estimate.kurtosis,
            z_score=((estimate.mean - payload["direct_value"])
                     / estimate.std_error if estimate.std_error else None))
        assert out == report_oracle(payload, out), (n, flags, workers)


def _tie_values():
    """Doubles v = m 2^-(k+1), m odd, whose 17-digit rounding is an exact
    tie: v 10^k = m 5^k / 2 lies in [1e16, 1e17) for k = 16 - E, so %.17g
    rounds it half to even.  From E = 16 on every double is an even
    integer, so no tie exists there."""
    rng = np.random.default_rng(17)
    values = []
    for exponent in range(-4, 16):
        k = 16 - exponent
        low = -(-2 * 10 ** 16 // 5 ** k) | 1  # the least odd m in range
        high = min(2 * 10 ** 17 // 5 ** k, 2 ** 53)
        picks = [low, low + 2, high - 1 - high % 2]
        picks += [int(m) | 1 for m in rng.integers(low, high - 1, 4)]
        for m in picks:
            v = math.ldexp(m, -(k + 1))
            assert (Fraction(v) * 10 ** k).denominator == 2
            assert 10 ** 16 <= Fraction(v) * 10 ** k < 10 ** 17
            values += [v, -v]
    return np.array(values)


def _power_of_ten_neighbours():
    values = []
    for e in range(-5, 18):
        p = float(Fraction(10) ** e)
        values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    values = np.array(values)
    return np.concatenate([values, -values])


def _edge_values():
    tiny = np.finfo(float).tiny
    values = np.array([0.0, 1e-4, np.nextafter(1e-4, 0.0),
                       np.nextafter(1e-4, 1.0), 1e17, np.nextafter(1e17, 0.0),
                       5e-324, 1e-310, np.nextafter(tiny, 0.0), tiny,
                       1e300, np.finfo(float).max, 1.2345678901234567e-5,
                       0.1, 2.5, 100.0, 1e16 + 2, 123456789.0])
    return np.concatenate([values, -values])


def _assert_generic_writer_bytes(path, batch, roundtrip=True):
    streamed, generic = path / "streamed.csv", path / "generic.csv"
    batch_to_csv(streamed, [batch])
    write_csv(generic, ["phi1", "x1", "phi2", "x2"],
              zip(batch.phi1, batch.x1, batch.phi2, batch.x2))
    assert streamed.read_bytes() == generic.read_bytes()
    if not roundtrip:
        return
    data = batch_rows_from_csv(streamed)
    for name in ("phi1", "x1", "phi2", "x2"):
        assert np.array_equal(data[name], getattr(batch, name))
        assert np.array_equal(np.signbit(data[name]),
                              np.signbit(getattr(batch, name)))


def _batch_of(quads, rng):
    """A batch with the given quadratures in x1 and, reversed and negated,
    in x2; phases in [0, pi) include those of the quadratures that fit."""
    quads = np.asarray(quads, dtype=float)
    phases = np.where((quads >= 0.0) & (quads < math.pi), quads,
                      rng.random(quads.size) * math.pi)
    return HomodyneBatch(phi1=phases, x1=quads, phi2=phases[::-1].copy(),
                         x2=-quads[::-1])


def test_batch_csv_writes_the_generic_writer_bytes(tmp_path):
    rng = np.random.default_rng(2024)
    phases = np.array([0.0, 5e-324, 0.1, np.nextafter(np.pi, 0.0), 1.0, 3.0])
    quads = np.array([-0.0, 1e300, -1.2345678901234567e-5, 0.1, -5e-324,
                      2.5])
    _assert_generic_writer_bytes(tmp_path, HomodyneBatch(
        phi1=phases, x1=quads, phi2=phases[::-1].copy(), x2=-quads))
    for quads in (_tie_values(), _power_of_ten_neighbours(), _edge_values()):
        _assert_generic_writer_bytes(tmp_path, _batch_of(quads, rng))
    # one batch of the size the benchmark exports, spanning several chunks
    n = 2 ** 17
    _assert_generic_writer_bytes(tmp_path, HomodyneBatch(
        phi1=rng.random(n) * math.pi, x1=rng.standard_normal(n),
        phi2=rng.random(n) * math.pi,
        x2=rng.standard_normal(n) * 10.0 ** rng.integers(-6, 19, n)),
        roundtrip=False)

    finite = st.floats(allow_nan=False, allow_infinity=False)
    phase = st.floats(0.0, math.pi, exclude_max=True)

    @settings(derandomize=True, deadline=None, max_examples=200,
              database=None)
    @given(st.lists(st.tuples(phase, finite, phase, finite), min_size=1,
                    max_size=20))
    def same_bytes(rows):
        phi1, x1, phi2, x2 = (np.array(col) for col in zip(*rows))
        _assert_generic_writer_bytes(tmp_path, HomodyneBatch(
            phi1=phi1, x1=x1, phi2=phi2, x2=x2))

    same_bytes()


def test_batch_csv_memory_does_not_grow_with_the_batch(tmp_path):
    """The export works chunk by chunk: its peak allocation at 2^17 rows is
    below 1.0625 MiB (the chunk's cells, their copy and its compaction, and
    the rows: 1.02 MiB), and that at 2^14 rows up to a fixed margin."""
    rng = np.random.default_rng(5)

    def peak(n):
        batch = HomodyneBatch(phi1=rng.random(n) * math.pi,
                              x1=rng.standard_normal(n),
                              phi2=rng.random(n) * math.pi,
                              x2=rng.standard_normal(n))
        tracemalloc.start()
        try:
            batch_to_csv(tmp_path / f"batch{n}.csv", [batch])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2 ** 14), peak(2 ** 17)
    assert large < 1.0625 * 2 ** 20, (small, large)
    assert large - small < 2 ** 20, (small, large)


@pytest.mark.parametrize("workers", [1, 2])
def test_tomo_estimate_holds_its_kernel_values_and_a_constant_per_worker(
        capsys, tmp_path, workers):
    """The command never holds the batch or a block: beyond its 8 n bytes
    of kernel values it holds, whatever the worker count, one block-length
    row of normals (0.5 MiB), one piece of 8192 samples with its phase-noise
    draws (0.25 MiB), the kernel's chunk buffers and temporaries (0.70 MiB)
    and, with --batch-csv, the export's chunk buffers.  Its peak grows by 8
    bytes a sample."""
    def peak(n, export):
        argv = ["tomo-estimate", "--x", "0.5", "--gammat", "1", "--samples",
                str(n), "--seed", "3", "--workers", str(workers)]
        if export:
            argv += ["--batch-csv", str(tmp_path / "batch.csv")]
        tracemalloc.start()
        try:
            code = main(argv)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().err
        return traced

    peak(1000, True)  # builds the parser and the export's digit tables
    n = 3 * BLOCK_SIZE + 1017
    for export, stated in ((False, 1.5), (True, 1.875)):
        small = peak(n, export)
        assert small < 8 * n + stated * 2 ** 20, (export, small - 8 * n)
    growth = (peak(n + 2 * BLOCK_SIZE, True) - small) / (2 * BLOCK_SIZE)
    assert abs(growth - 8.0) < 0.5, growth


def test_tomo_estimate_starts_no_thread(capsys, monkeypatch, tmp_path):
    # --workers is checked and recorded and selects nothing: the blocks are
    # drawn on the calling thread, with the bits of --workers 1
    csv_path = tmp_path / "batch.csv"

    def estimate(workers):
        code, out, err = run(capsys, "tomo-estimate", "--x", "0.5",
                             "--gammat", "1", "--samples",
                             str(2 * BLOCK_SIZE + 1017), "--seed", "4",
                             "--workers", str(workers),
                             "--batch-csv", str(csv_path))
        assert code == 0, err
        report = parse(out)
        del report["timestamp"]
        assert report["config"].pop("workers") == workers
        return report, csv_path.read_bytes()

    serial = estimate(1)

    def refuse(thread):
        raise AssertionError(f"tomo-estimate started {thread}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert estimate(4) == serial


@pytest.mark.parametrize("previous", [None, b"previous export\n"],
                         ids=["missing", "previous"])
def test_tomo_estimate_that_fails_after_a_block_leaves_no_batch_csv(
        capsys, monkeypatch, tmp_path, previous):
    # the rows go to a new file beside the path, which a failed run removes,
    # so the path keeps what it held before the run
    csv_path = tmp_path / "batch.csv"
    if previous is not None:
        csv_path.write_bytes(previous)
    kernel = tomography.witness_kernel
    calls = []

    def fails_on_the_second_piece(*args, **kwargs):
        calls.append(len(args[0]))
        if len(calls) == 2:
            staged, = (p for p in tmp_path.iterdir() if p != csv_path)
            assert staged.stat().st_size > 0  # the first piece is out
            raise ValueError("kernel failed")
        return kernel(*args, **kwargs)

    monkeypatch.setattr(tomography, "witness_kernel",
                        fails_on_the_second_piece)
    code, out, err = run(capsys, "tomo-estimate", "--x", "0.5", "--samples",
                         str(2 * BLOCK_SIZE + 5), "--seed", "1",
                         "--batch-csv", str(csv_path))
    assert (code, out, err) == (2, "", "error: kernel failed\n")
    # the samples come in pieces of 8192, the kernel's chunk
    assert calls == [tomography._KERNEL_CHUNK] * 2
    if previous is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert list(tmp_path.iterdir()) == [csv_path]
        assert csv_path.read_bytes() == previous


def _fails_after(batch):
    yield batch
    raise ValueError("batch failed")


def test_batch_csv_replaces_a_regular_file_only_when_whole(tmp_path):
    batch = twin_beam_batch(0.5, 10, 1)
    expected, path = tmp_path / "expected.csv", tmp_path / "batch.csv"
    write_csv(expected, ["phi1", "x1", "phi2", "x2"],
              zip(batch.phi1, batch.x1, batch.phi2, batch.x2))
    path.write_bytes(b"previous export\n")
    path.chmod(0o640)
    with pytest.raises(ValueError, match="batch failed"):
        batch_to_csv(path, _fails_after(batch))
    assert path.read_bytes() == b"previous export\n"
    assert sorted(tmp_path.iterdir()) == [path, expected]
    batch_to_csv(path, [batch])
    assert path.read_bytes() == expected.read_bytes()
    assert path.stat().st_mode & 0o777 == 0o640
    assert sorted(tmp_path.iterdir()) == [path, expected]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_batch_csv_writes_other_paths_in_place_and_never_removes_them(
        tmp_path):
    # a FIFO or a symbolic link (like a device) is opened and written as it
    # is, not replaced, and a failed export leaves it in place
    batch = twin_beam_batch(0.5, 10, 1)
    expected = tmp_path / "expected.csv"
    batch_to_csv(expected, [batch])
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    link.symlink_to(target)
    with pytest.raises(ValueError, match="batch failed"):
        batch_to_csv(link, _fails_after(batch))
    assert link.is_symlink() and target.read_bytes().count(b"\n") == 11
    batch_to_csv(link, [batch])
    assert link.is_symlink()
    assert target.read_bytes() == expected.read_bytes()

    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    for batches in ([batch], _fails_after(batch)):
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            batch_to_csv(fifo, batches)
        except ValueError:
            pass
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received[0].count(b"\n") == 11
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "expected.csv", "fifo", "link.csv", "target.csv"]


def test_unwritable_batch_csv_exits_2_before_sampling(capsys, monkeypatch,
                                                      tmp_path):
    csv_path = tmp_path / "missing" / "batch.csv"
    drawn = []
    blocks = tomography.stream_twin_beam

    def counted(*args, **kwargs):
        for block in blocks(*args, **kwargs):
            drawn.append(len(block))
            yield block

    monkeypatch.setattr(tomography, "stream_twin_beam", counted)
    code, out, err = run(capsys, "tomo-estimate", "--x", "0.5", "--samples",
                         "1000", "--seed", "1", "--batch-csv", str(csv_path))
    assert code == 2 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: " \
                  f"{str(csv_path)!r}\n"
    assert drawn == []


@pytest.mark.parametrize("noise, closed_form", [
    ((), -0.375),
    (("--gammat", "1"), -0.375 * math.exp(-1.0)),
    (("--gammat", "inf"), 0.0),
    (("--kappa", "0.2"), gauss_witness_expectation(0.5, 0.2)),
], ids=["twb", "phase", "dephased", "gauss"])
def test_tomo_estimate_closed_form_value(capsys, noise, closed_form):
    code, out, _ = run(capsys, "tomo-estimate", "--x", "0.5", "--samples",
                       "20000", "--seed", "5", *noise)
    assert code == 0
    report = parse(out)
    assert report["direct_value"] == closed_form
    assert abs(report["mean"] - closed_form) <= 4 * report["std_error"]


@pytest.mark.parametrize("argv, message", [
    (("--x", "0.5", "--samples", "0"), "sample count must be positive"),
    (("--x", "0.5", "--samples", "10", "--workers", "0"),
     "workers must be positive"),
    (("--x", "0.5", "--samples", "10", "--gammat", "nan"), "gamma_t"),
    (("--x", "0.5", "--samples", "10", "--kappa=-inf"), "kappa"),
    (("--x", "1", "--samples", "10"), "outside [0, 1)"),
], ids=["samples-0", "workers-0", "gammat-nan", "kappa-neg-inf", "x-1"])
def test_tomo_estimate_bad_inputs_exit_2(capsys, argv, message):
    code, _, err = run(capsys, "tomo-estimate", "--seed", "1", *argv)
    assert code == 2
    assert message in err


# On Linux ru_maxrss survives exec, so a child started from this test
# process would report the test process's own peak; VmHWM is the peak of
# the child's address space alone
_CHILD = """
import contextlib, io, json, resource, sys
from witnessforge.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
try:
    with open("/proc/self/status") as fh:
        peak = next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:"))
except OSError:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak //= 1024 if sys.platform == "darwin" else 1
print(json.dumps({"code": code, "report": out.getvalue(), "peak_kb": peak}))
"""


def run_child(*argv):
    """Run the CLI in a fresh interpreter and check its exit code and its
    peak resident memory."""
    src = str(Path(witnessforge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", _CHILD, *argv],
                            capture_output=True, text=True, env=env, check=True)
    child = json.loads(result.stdout)
    assert child["code"] == 0, result.stderr
    assert child["peak_kb"] < 300 * 1024
    return json.loads(child["report"])


def test_large_twin_beam_commands_stay_small():
    # x = 0.9 puts the noise channel at 118 levels per mode: one dense
    # two-mode copy would take 3.1 GB
    x, kappa = 0.9, 0.2
    report = run_child("bs-squeeze", "--x", str(x), "--kappa", str(kappa))
    assert report["sum_mode_variance"] == pytest.approx(
        0.25 * (1 - x) / (1 + x) + kappa / 2, abs=1e-8)
    report = run_child("tomo-estimate", "--x", str(x), "--kappa", str(kappa),
                       "--samples", "10000", "--seed", "3")
    closed_form = gauss_witness_expectation(x, kappa)
    assert report["direct_value"] == pytest.approx(closed_form, abs=1e-12)
    assert abs(report["mean"] - closed_form) <= 4 * report["std_error"]
    report = run_child("cv-phase", "--x", str(x), "--gammat", "1")
    assert report["expectation"] == pytest.approx(
        -(1 - x * x) * x * math.exp(-1.0), abs=1e-12)


@pytest.mark.parametrize("x", [0.95, 0.999])
def test_cv_commands_near_x_one(capsys, x):
    # a Fock truncation at tol 1e-10 would need 225 levels per mode at
    # x = 0.95 and 11500 at x = 0.999; the closed forms need none
    kappa = 0.2
    code, out, err = run(capsys, "cv-phase", "--x", str(x), "--gammat", "1")
    assert code == 0, err
    assert parse(out)["expectation"] == phase_witness_expectation(x, 1.0)
    code, out, err = run(capsys, "cv-gauss", "--x", str(x), "--kappa",
                         str(kappa))
    assert code == 0, err
    assert parse(out)["expectation"] == gauss_witness_expectation(x, kappa)
    code, out, err = run(capsys, "tomo-estimate", "--x", str(x), "--kappa",
                         str(kappa), "--samples", "10000", "--seed", "3")
    assert code == 0, err
    report = parse(out)
    assert report["direct_value"] == gauss_witness_expectation(x, kappa)
    assert abs(report["mean"] - report["direct_value"]) \
        <= 4 * report["std_error"]
    code, out, err = run(capsys, "bs-squeeze", "--x", str(x), "--kappa",
                         str(kappa))
    assert code == 0, err
    report = parse(out)
    assert report["sum_mode_variance"] == sum_mode_variance(x, kappa, 0.5)
    assert report["sum_mode_variance"] == pytest.approx(
        0.25 * (1 - x) / (1 + x) + kappa / 2, rel=1e-14)
    assert report["consistent"] is True


def test_finite_scan_rejects_mixing_weight_above_one(capsys, tmp_path):
    csv_path = tmp_path / "f.csv"
    code, _, err = run(capsys, "finite-scan", "--dim", "3", "--max-entangled",
                       "--scan-p", "0:1.5:0.5", "--output", str(csv_path))
    assert code == 2
    assert "mixing weight p=1.5 outside [0, 1]" in err
    assert not csv_path.exists()


@pytest.mark.parametrize("argv", [
    ("finite-scan", "--dim", "4", "--schmidt", "0.8,0.5,0.3,0.1",
     "--scan-p", "0:1:0.1"),
    ("finite-witness", "--dim", "4", "--max-entangled", "--p", "0.3"),
], ids=["finite-scan", "finite-witness"])
def test_finite_commands_build_no_dense_state(capsys, monkeypatch, tmp_path,
                                              argv):
    def refuse(*args):
        raise AssertionError("a dense depolarized state was built or traced")

    monkeypatch.setattr(witness_finite, "depolarized_state", refuse)
    monkeypatch.setattr(witness_finite, "evaluate_witness", refuse)
    code, _, err = run(capsys, *argv, "--output", str(tmp_path / "out"))
    assert code == 0, err


def test_finite_commands_at_dim_64_stay_small(tmp_path):
    # one dense (d^2 x d^2) witness at d = 64 takes 268 MB
    d = 64
    report = run_child("finite-witness", "--dim", str(d), "--max-entangled",
                       "--p", "0.3")
    assert report["trace_wr"] == pytest.approx(report["lambda_min"],
                                               abs=1e-12)
    assert report["lambda_min"] == pytest.approx(-0.3 / d + 0.7 / d**2,
                                                 abs=1e-15)
    report = run_child("finite-scan", "--dim", str(d), "--max-entangled",
                       "--output", str(tmp_path / "scan.csv"))
    assert report["p_threshold_bisection"] == pytest.approx(1 / (d + 1),
                                                            abs=1e-12)


@pytest.mark.parametrize("argv", [
    ("finite-witness", "--dim", "1", "--schmidt", "1", "--p", "0.5"),
    ("finite-scan", "--dim", "1", "--schmidt", "1"),
    ("finite-witness", "--dim", "1", "--psi-file", "PSI", "--p", "0.5"),
], ids=["finite-witness", "finite-scan", "psi-file"])
def test_finite_commands_reject_dimension_one(capsys, tmp_path, argv):
    path = tmp_path / "psi.json"
    dump_report({"psi": matrix_to_json(np.ones((1, 1)))}, str(path))
    argv = [str(path) if a == "PSI" else a for a in argv]
    code, _, err = run(capsys, *argv, "--output", str(tmp_path / "out"))
    assert code == 2
    assert "needs d >= 2" in err


@pytest.mark.parametrize("source", [
    ("--max-entangled",), ("--schmidt", "1,1"), ("--psi-file", "psi.json"),
], ids=["max-entangled", "schmidt", "psi-file"])
def test_dim_cap_is_checked_before_any_allocation(capsys, monkeypatch,
                                                  tmp_path, source):
    def refuse(*args):
        raise AssertionError("a state was built past the --dim cap")

    monkeypatch.setattr(cli, "MAX_DIM", 3)
    code, _, err = run(capsys, "finite-witness", "--dim", "3",
                       "--max-entangled", "--p", "0.5")
    assert code == 0, err
    for name in ("maximally_entangled_operator", "schmidt_operator",
                 "load_report"):
        monkeypatch.setattr(cli, name, refuse)
    for command, extra in (("finite-witness", ("--p", "0.5")),
                           ("finite-scan", ())):
        code, _, err = run(capsys, command, "--dim", "4", *source, *extra,
                           "--output", str(tmp_path / "out"))
        assert code == 2
        assert "--dim 4 exceeds the limit of 3" in err


@pytest.mark.parametrize("coeffs", ["inf,1", "nan,1", "1,-inf"])
def test_non_finite_schmidt_coefficients_exit_2(capsys, coeffs):
    # a numpy RuntimeWarning would fail the suite (filterwarnings = error)
    code, _, err = run(capsys, "finite-witness", "--dim", "4",
                       f"--schmidt={coeffs}", "--p", "0.5")
    assert code == 2
    assert "Schmidt coefficients must be finite" in err


@pytest.mark.parametrize("argv", [
    ("cv-phase", "--x", "0.5", "--gammat", "1"),
    ("tomo-estimate", "--x", "0.5", "--samples", "1000", "--seed", "1"),
    ("tomo-estimate", "--x", "0.5", "--samples", "1000", "--seed", "1",
     "--gammat", "1"),
    ("tomo-estimate", "--x", "0.5", "--samples", "1000", "--seed", "1",
     "--kappa", "0.2"),
    ("bs-squeeze", "--x", "0.5", "--kappa", "0.2"),
], ids=["cv-phase", "tomo-twb", "tomo-phase", "tomo-gauss", "bs-squeeze"])
def test_cv_commands_build_no_dense_state(capsys, monkeypatch, argv):
    def refuse(self):
        raise AssertionError("a dense two-mode state was built")

    monkeypatch.setattr(BipartiteDensity, "__post_init__", refuse)
    code, _, err = run(capsys, *argv)
    assert code == 0, err


def test_tomo_estimate_conflicting_noise_flags(capsys):
    code, _, err = run(capsys, "tomo-estimate", "--x", "0.3", "--samples",
                       "100", "--gammat", "1", "--kappa", "0.2")
    assert code == 2


def test_bs_squeeze_reports(capsys):
    code, out, _ = run(capsys, "bs-squeeze", "--x", "0.5", "--kappa", "0")
    assert code == 0
    report = parse(out)
    assert report["sum_mode_variance"] == pytest.approx(1.0 / 12.0, abs=1e-6)
    assert report["squeezed"] is True
    assert report["consistent"] is True
    code, out, _ = run(capsys, "bs-squeeze", "--x", "0.5", "--kappa", "0.6")
    report = parse(out)
    assert report["squeezed"] is False
    assert report["consistent"] is True


def test_bs_squeeze_unbalanced_matches_closed_form(capsys):
    x, kappa, t = 0.5, 0.2, 0.31
    code, out, _ = run(capsys, "bs-squeeze", "--x", str(x), "--kappa",
                       str(kappa), "--transmissivity", str(t))
    assert code == 0
    report = parse(out)
    expected = (0.25 * (1 + x * x - 4 * math.sqrt(t * (1 - t)) * x)
                / (1 - x * x) + kappa / 2)
    assert report["sum_mode_variance"] == pytest.approx(expected, abs=1e-8)
    assert report["squeeze_witness"] == pytest.approx(expected - 0.25,
                                                      abs=1e-8)


@pytest.mark.parametrize("t", ["1.5", "nan"])
def test_bs_squeeze_bad_transmissivity_exits_2(capsys, t):
    code, _, err = run(capsys, "bs-squeeze", "--x", "0.5",
                       f"--transmissivity={t}")
    assert code == 2
    assert "transmissivity" in err


CV_COMMANDS = [
    ("cv-phase", "--x", "0.5", "--gammat", "1"),
    ("tomo-estimate", "--x", "0.5", "--samples", "10", "--seed", "1"),
    ("bs-squeeze", "--x", "0.5"),
    ("cv-gauss", "--x", "0.5", "--kappa", "0.2"),
]


def exits_in_argparse(capsys, *argv):
    """Whether argparse rejects argv with exit code 2 as unrecognized."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return (exc.value.code == 2
            and "unrecognized arguments" in capsys.readouterr().err)


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1", "1"])
@pytest.mark.parametrize("argv", CV_COMMANDS)
def test_bad_tol_exits_2(capsys, argv, tol):
    # the library truncation still rejects the value; the CV commands take
    # their numbers from closed forms and no longer have a --tol to pass it
    with pytest.raises(ValueError,
                       match=r"tol must be finite and in \(0, 1\)"):
        FockTruncation.for_twb(0.5, float(tol))
    assert exits_in_argparse(capsys, *argv, f"--tol={tol}")


@pytest.mark.parametrize("argv", CV_COMMANDS)
def test_trunc_flag_exits_2(capsys, argv):
    assert exits_in_argparse(capsys, *argv, "--trunc", "20")


def test_import_does_not_load_scipy_linalg():
    # scipy.linalg adds to the start-up time of every command
    src = str(Path(witnessforge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c",
         "import witnessforge, sys; print('scipy.linalg' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "False"


def test_import_loads_no_scipy():
    # the library and its commands run on numpy alone; scipy serves the tests
    src = str(Path(witnessforge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c",
         "import witnessforge, witnessforge.cli, sys; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"

def test_exit_code_numerical_failure(capsys, monkeypatch):
    def no_convergence(psi):
        raise ConvergenceError("SVD did not converge")

    monkeypatch.setattr(cli, "complex_svd", no_convergence)
    code, _, err = run(capsys, "finite-witness", "--dim", "3",
                       "--max-entangled", "--p", "0.3")
    assert code == 3
    assert "numerical failure" in err


def test_sample_count_too_large_for_memory_exits_2(capsys, monkeypatch):
    # numpy's MemoryError names the allocation; nothing is allocated here
    message = ("Unable to allocate 2.91 TiB for an array with shape "
               "(4, 100000000000) and data type float64")

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli.tomography, "stream_twin_beam", out_of_memory)
    code, out, err = run(capsys, "tomo-estimate", "--x", "0.5",
                         "--samples", "100000000000")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("finite-witness", "--p", "0.3"),
    ("finite-scan", "--scan-p", "0:1:0.1"),
], ids=["finite-witness", "finite-scan"])
def test_finite_commands_take_one_svd(capsys, monkeypatch, tmp_path, argv):
    calls = []
    svd = np.linalg.svd

    def counted(m, *args, **kwargs):
        calls.append(m.shape)
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    code, _, err = run(capsys, *argv, "--dim", "5", "--schmidt",
                       "0.8,0.5,0.3,0.1", "--output",
                       str(tmp_path / "out"))
    assert code == 0, err
    assert calls == [(5, 5)]


def _private_names_read_by_cli():
    """Each `_`-prefixed name that cli.py imports from, or reads as an
    attribute of, another witnessforge module."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or node.module.startswith("witnessforge")):
            found += [a.name for a in node.names if a.name.startswith("_")]
            if node.module in (None, "witnessforge"):  # package modules
                modules.update(a.asname or a.name for a in node.names)
    found += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name)
              and node.value.id in modules]
    return found


def test_cli_reads_no_private_name_of_another_module():
    assert _private_names_read_by_cli() == []


def test_bad_grid_spec(capsys, tmp_path):
    code, _, err = run(capsys, "cv-gauss", "--x", "0.5",
                       "--scan-kappa", "nonsense",
                       "--output", str(tmp_path / "x.csv"))
    assert code == 2
    for spec in ("0:inf:0.1", "0:1:nan", "nan:1:0.1", "-inf:1:0.1",
                 "0:1:inf", "0:1:1e-300", "-1e308:1e308:1"):
        code, _, err = run(capsys, "cv-gauss", "--x", "0.5",
                           f"--scan-kappa={spec}",
                           "--output", str(tmp_path / "x.csv"))
        assert code == 2
        assert "bad grid spec" in err
    code, _, err = run(capsys, "gauss-scan", "--scan-x", "0.1:0.9:1e-300",
                       "--output", str(tmp_path / "x.csv"))
    assert code == 2
    assert "bad grid spec" in err


def test_cv_phase_fully_dephased(capsys):
    code, out, _ = run(capsys, "cv-phase", "--x", "0.5", "--gammat", "inf")
    assert code == 0
    report = parse(out)
    assert report["expectation"] == 0.0
    assert report["entangled"] is False


def test_cv_phase_rejects_nan_gammat(capsys):
    code, _, err = run(capsys, "cv-phase", "--x", "0.5", "--gammat", "nan")
    assert code == 2
    assert "gamma_t" in err


@pytest.mark.parametrize("argv", [
    ("cv-gauss", "--x", "0.5", "--kappa", "nan"),
    ("cv-gauss", "--x", "0.5", "--kappa", "inf"),
    ("bs-squeeze", "--x", "0.5", "--kappa", "nan"),
    ("bs-squeeze", "--x", "0.5", "--kappa", "inf"),
    ("tomo-estimate", "--x", "0.5", "--samples", "100", "--seed", "1",
     "--kappa", "nan"),
])
def test_non_finite_kappa_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "kappa must be finite and non-negative" in err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("argv", [
    ("cv-phase", "--x", "0.5", "--gammat", "inf"),
    ("tomo-estimate", "--x", "0.5", "--gammat", "inf", "--samples", "1000",
     "--seed", "1"),
])
def test_infinite_gamma_t_report_is_strict_json(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["config"]["gamma_t"] == "inf"


def test_one_sample_report_has_no_error_and_no_z_score(capsys, tmp_path):
    # one sample has no spread: the report must not claim an exact match
    csv_path = tmp_path / "one.csv"
    code, out, _ = run(capsys, "tomo-estimate", "--x", "0.5", "--samples",
                       "1", "--seed", "3", "--batch-csv", str(csv_path))
    assert code == 0
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["std_error"] is None and report["z_score"] is None
    assert '"std_error": null' in out and '"z_score": null' in out
    batch = twin_beam_batch(0.5, 1, 3)
    assert report["mean"] == float(witness_kernel(batch.x1, batch.phi1,
                                                  batch.x2, batch.phi2)[0])
    assert np.array_equal(batch_rows_from_csv(csv_path)["x2"], batch.x2)


def test_one_sample_report_has_null_kurtosis(capsys):
    code, out, _ = run(capsys, "tomo-estimate", "--x", "0.5", "--samples",
                       "1", "--seed", "3")
    assert code == 0
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["kurtosis"] is None and '"kurtosis": null' in out


def test_tomo_estimate_reports_the_kurtosis_of_its_kernel_values(capsys):
    code, out, _ = run(capsys, "tomo-estimate", "--x", "0.5", "--gammat",
                       "1", "--samples", "5000", "--seed", "7")
    assert code == 0
    batch = twin_beam_batch(0.5, 5000, 7, gamma_t=1.0)
    assert parse(out)["kurtosis"] == mc_estimate_witness(batch).kurtosis


def test_tomo_estimate_help_ties_z_score_to_the_kurtosis(capsys):
    with pytest.raises(SystemExit):
        main(["tomo-estimate", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "z_score is meaningful only when n is much larger than its " \
           "kurtosis" in text


def test_report_rejects_non_finite_values():
    with pytest.raises(ValueError):
        dump_report({"value": math.nan})


@pytest.mark.parametrize("argv", [
    ("finite-scan", "--dim", "3", "--max-entangled"),
    ("gauss-scan", "--scan-x", "0.1:0.9:0.1"),
    ("cv-gauss", "--x", "0.5", "--scan-kappa", "0:1:0.1"),
], ids=["finite-scan", "gauss-scan", "cv-gauss"])
def test_scans_without_output_exit_2_before_any_work(capsys, monkeypatch,
                                                       tmp_path, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before --output was checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "complex_svd", refuse)
    monkeypatch.setattr(cli, "_parse_grid", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "requires --output" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


REPORT_COMMANDS = [
    ("finite-witness", "--dim", "5", "--schmidt", "0.8,0.5,0.3,0.1",
     "--p", "0.3"),
    ("finite-scan", "--dim", "4", "--max-entangled", "--output", "{csv}"),
    ("cv-phase", "--x", "0.5", "--gammat", "inf"),
    ("cv-gauss", "--x", "0.5", "--kappa", "0.1"),
    ("cv-gauss", "--x", "0.5", "--scan-kappa", "0:1:0.25", "--output",
     "{csv}"),
    ("gauss-scan", "--scan-x", "0.1:0.9:0.2", "--output", "{csv}"),
    ("tomo-estimate", "--x", "0.5", "--samples", "200", "--seed", "4",
     "--gammat", "1"),
    ("tomo-estimate", "--x", "0.5", "--samples", "1", "--seed", "4"),
    ("bs-squeeze", "--x", "0.5", "--kappa", "0.2", "--output", "{report}"),
]


@pytest.mark.parametrize("argv", REPORT_COMMANDS, ids=[
    "finite-witness", "finite-scan", "cv-phase", "cv-gauss", "cv-gauss-scan",
    "gauss-scan", "tomo-estimate", "tomo-estimate-one-sample", "bs-squeeze"])
def test_every_report_is_the_json_dumps_bytes(capsys, monkeypatch, tmp_path,
                                              argv):
    dumped = []
    real_dump = cli.dump_report

    def recorded(payload, path=None):
        text = real_dump(payload, path)
        dumped.append((payload, text, path))
        return text

    monkeypatch.setattr(cli, "dump_report", recorded)
    argv = [a.format(csv=tmp_path / "scan.csv", report=tmp_path / "r.json")
            for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    [(payload, text, path)] = dumped
    assert text == report_oracle(payload, text)
    written = out if path is None else Path(path).read_text(encoding="utf-8")
    assert written == text


def test_finite_witness_at_the_dim_cap_is_the_json_dumps_bytes(capsys):
    code, out, err = run(capsys, "finite-witness", "--dim", str(cli.MAX_DIM),
                         "--max-entangled", "--p", "0.3")
    assert code == 0, err
    report = json.loads(out)
    quorum_a = report["quorum"]["terms"][0]["local_a"]
    assert len(quorum_a["re"]) == cli.MAX_DIM ** 2
    expected = json.dumps(report, indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    if out != expected:  # where the texts part, not a diff of 18 MB
        # NUL and SOH are escaped in JSON, so neither end matches them
        pairs = zip(out + "\0", expected + "\1")
        start = next(i for i, (a, b) in enumerate(pairs) if a != b)
        pytest.fail(f"reports part at byte {start}: "
                    f"{out[start:start + 60]!r} != "
                    f"{expected[start:start + 60]!r}")


def test_main_builds_one_parser_per_process_and_none_at_import():
    src = str(Path(witnessforge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    script = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
from witnessforge import cli
at_import = len(built)
cli.build_parser()
one_build = len(built) - at_import
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["cv-phase", "--x", "0.5", "--gammat", str(g)])
             for g in (0, 1, 2)]
print(at_import, one_build, len(built) - at_import - one_build, codes)
"""
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, env=env,
                            check=True)
    at_import, one_build, by_main, codes = result.stdout.split(" ", 3)
    assert at_import == "0"
    assert int(one_build) > 0
    assert by_main == one_build
    assert codes.strip() == "[0, 0, 0]"


def test_rebinding_after_the_first_call_takes_effect(capsys, monkeypatch):
    argv = ("finite-witness", "--dim", "3", "--max-entangled", "--p", "0.3")
    assert run(capsys, *argv)[0] == 0

    def no_convergence(psi):
        raise ConvergenceError("SVD did not converge")

    monkeypatch.setattr(cli, "complex_svd", no_convergence)
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "numerical failure" in err


# every numeric option of every command at the edges of float64 (gauss-scan
# takes only a grid spec, which test_bad_grid_spec covers): 1e150 is the
# kappa whose kernel values (about 1e-297) have squared deviations that
# underflow; a value that cannot be an int stops in argparse
EDGE_VALUES = ["0", "1", "-1", "0.5", "1e-300", "5e-324", "1e300", "nan",
               "inf", "-inf", repr(1.0 - 2.0 ** -53), "1e-17", "-0.0",
               "1e150"]
EDGE_BASE = {
    "finite-witness": ("--dim", "3", "--max-entangled", "--p", "0.3"),
    "finite-scan": ("--dim", "3", "--max-entangled"),
    "cv-phase": ("--x", "0.5", "--gammat", "1"),
    "cv-gauss": ("--x", "0.5", "--kappa", "0.2"),
    "tomo-estimate": ("--x", "0.5", "--samples", "50", "--seed", "1"),
    "bs-squeeze": ("--x", "0.5"),
}
# (command, option, the names a rejection may give the option by)
NUMERIC_SLOTS = [
    ("finite-witness", "--dim", ("--dim", "dimension")),
    ("finite-witness", "--p", ("--p", "p=")),
    ("finite-scan", "--dim", ("--dim", "dimension")),
    ("cv-phase", "--x", ("--x", "x=")),
    ("cv-phase", "--gammat", ("--gammat", "gamma_t")),
    ("cv-gauss", "--x", ("--x", "x=")),
    ("cv-gauss", "--kappa", ("--kappa", "kappa")),
    ("tomo-estimate", "--x", ("--x", "x=")),
    ("tomo-estimate", "--gammat", ("--gammat", "gamma_t")),
    ("tomo-estimate", "--kappa", ("--kappa", "kappa")),
    ("tomo-estimate", "--samples", ("--samples", "sample count")),
    ("tomo-estimate", "--seed", ("--seed", "seed")),
    ("tomo-estimate", "--workers", ("--workers", "workers")),
    ("bs-squeeze", "--x", ("--x", "x=")),
    ("bs-squeeze", "--kappa", ("--kappa", "kappa")),
    ("bs-squeeze", "--transmissivity", ("--transmissivity",
                                        "transmissivity")),
]


def _finite_float(text):
    value = float(text)  # a literal such as 1e999 reads as inf
    assert math.isfinite(value), text
    return value


def _kernel_values(config):
    """The witness kernel values of the batch a tomo-estimate report
    sampled."""
    gamma_t = {None: 0.0, "inf": math.inf}.get(config["gamma_t"],
                                                config["gamma_t"])
    batch = twin_beam_batch(config["x"], config["samples"], config["seed"],
                            gamma_t=gamma_t, kappa=config["kappa"] or 0.0)
    return witness_kernel(batch.x1, batch.phi1, batch.x2, batch.phi2)


@pytest.mark.parametrize("value", EDGE_VALUES)
@pytest.mark.parametrize("command, option, names", NUMERIC_SLOTS,
                         ids=[f"{c}{o}" for c, o, _ in NUMERIC_SLOTS])
def test_numeric_options_at_the_edges_of_float64(capsys, tmp_path, command,
                                                 option, names, value):
    # the sample and worker counts are ints, so the sweep sets neither
    # above 1: no large batch is drawn
    base = list(EDGE_BASE[command])
    if option in base:
        at = base.index(option)
        del base[at:at + 2]
    if command == "finite-scan":
        base += ["--output", str(tmp_path / "scan.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main([command, *base, f"{option}={value}"])
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
    out, err = capsys.readouterr()
    if code != 0:
        assert code in (2, 3)
        assert any(name in err for name in names), err
        return
    assert err == ""
    report = json.loads(out, parse_constant=_reject_constant,
                        parse_float=_finite_float)
    if command == "tomo-estimate":
        values = _kernel_values(report["config"])
        if values.min() < values.max():
            assert report["std_error"] > 0.0
