"""Print where an in-process ``witnessforge`` CLI call spends its CPU time,
for the commands of the benchmark's scans workload and for
``finite-witness --dim 256``.

Each call is split into four stages, each timed on its own:

- parser build: ``cli.build_parser()``, which ``cli.main`` now pays once
  per process;
- parse_args: the built parser on the command's arguments;
- command body: the ``cmd_*`` function with ``cli.dump_report`` replaced by
  a stub that keeps the payload, so CSV writes count here and the report
  does not;
- dump_report: the report writer on that payload, to the command's
  ``--output`` path if it has one.

CPU time drifts by tens of percent between runs on a shared VM, so the
stages of a command are interleaved and repeated and the median of each is
printed, in ms.  Run from the repository root:

    PYTHONPATH=src python tools/cli_stages.py [repeats]
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from witnessforge import cli, formats


def commands(workdir: Path) -> dict[str, list[str]]:
    """The argument lists of the scans workload, then the largest finite
    witness report."""
    scan_csv = str(workdir / "scan.csv")
    return {
        "finite-scan d=3": ["finite-scan", "--dim", "3", "--max-entangled",
                            "--output", scan_csv],
        "finite-scan d=16": ["finite-scan", "--dim", "16", "--schmidt",
                             "0.8,0.5,0.3,0.1", "--output", scan_csv],
        "finite-scan d=32": ["finite-scan", "--dim", "32", "--max-entangled",
                             "--output", scan_csv],
        "finite-witness d=16": ["finite-witness", "--dim", "16",
                                "--max-entangled", "--p", "0.3"],
        "cv-phase": ["cv-phase", "--x", "0.5", "--gammat", "1"],
        "cv-gauss scan": ["cv-gauss", "--x", "0.5", "--scan-kappa",
                          "0:1.2:0.01", "--output", scan_csv],
        "gauss-scan": ["gauss-scan", "--scan-x", "0.1:0.9:0.1", "--output",
                       str(workdir / "gauss.csv")],
        "bs-squeeze kappa=0.2": ["bs-squeeze", "--x", "0.5", "--kappa",
                                 "0.2"],
        "bs-squeeze kappa=0.4": ["bs-squeeze", "--x", "0.5", "--kappa",
                                 "0.4"],
        "finite-witness d=256": ["finite-witness", "--dim", "256",
                                 "--max-entangled", "--p", "0.3"],
    }


def stages(argv: list[str]) -> dict:
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    reports = []

    def body():
        reports.clear()
        cli.dump_report = lambda payload, path=None: (
            reports.append((payload, path)) or "")
        try:
            args.func(args)
        finally:
            cli.dump_report = formats.dump_report

    return {
        "parser build": cli.build_parser,
        "parse_args": lambda: parser.parse_args(argv),
        "command body": body,
        "dump_report": lambda: formats.dump_report(*reports[0]),
    }


def main(repeats: int = 30) -> None:
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()) as out:
        lines = []
        for name, argv in commands(Path(tmp)).items():
            timed = stages(argv)
            # the d = 256 report fewer times: each call takes most of a second
            count = repeats if "256" not in name else min(repeats, 5)
            times = {stage: [] for stage in timed}
            for _ in range(count):
                for stage, run in timed.items():
                    start = time.process_time()
                    run()
                    times[stage].append(time.process_time() - start)
                out.seek(0)
                out.truncate()
            lines.append(f"{name}, median CPU ms over {count}:")
            lines += [f"  {stage:14s} {1e3 * np.median(values):9.3f}"
                      for stage, values in times.items()]
    print("\n".join(lines))


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:]))
