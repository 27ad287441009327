import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from witnessforge.cli import main
from witnessforge.formats import dump_report, matrix_to_json
from witnessforge.states import maximally_entangled_operator


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


def test_finite_witness_psi_file(capsys, tmp_path):
    path = tmp_path / "psi.json"
    payload = {"psi": matrix_to_json(maximally_entangled_operator(3)),
               "label": "max3"}
    dump_report(payload, str(path), timestamp=False)
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
    assert report["analytic_expectation"] == pytest.approx(
        -0.375 * np.exp(-1.0), abs=1e-12)
    assert report["entangled"] is True
    assert report["tail_bound"] < 1e-10


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


def test_gauss_scan(capsys, tmp_path):
    csv_path = str(tmp_path / "xs.csv")
    code, out, _ = run(capsys, "gauss-scan", "--scan-x", "0.3:0.7:0.2",
                       "--output", csv_path)
    assert code == 0
    assert parse(out)["points"] == 3
    rows = [line.split(",") for line in
            Path(csv_path).read_text().strip().splitlines()[1:]]
    for x_str, star_str, _ in rows:
        x = float(x_str)
        assert float(star_str) == pytest.approx(x / (1 + x), abs=1e-3)


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


def test_tomo_estimate_batch_csv(capsys, tmp_path):
    csv_path = str(tmp_path / "batch.csv")
    code, out, _ = run(capsys, "tomo-estimate", "--x", "0.3",
                       "--samples", "1000", "--seed", "3",
                       "--batch-csv", csv_path)
    assert code == 0
    lines = Path(csv_path).read_text().strip().splitlines()
    assert lines[0] == "phi1,x1,phi2,x2"
    assert len(lines) == 1001


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


def test_exit_code_numerical_failure(capsys):
    # cramped truncation forces channel leakage past the guard
    code, _, err = run(capsys, "tomo-estimate", "--x", "0.5", "--samples",
                       "100", "--seed", "1", "--kappa", "1.5", "--trunc", "17")
    assert code == 3
    assert "numerical failure" in err


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
    assert report["analytic_expectation"] == 0.0
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


def test_report_rejects_non_finite_values():
    with pytest.raises(ValueError):
        dump_report({"value": math.nan})
