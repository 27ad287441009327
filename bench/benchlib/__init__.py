"""Library side of the witnessforge benchmark: spans, layers and workloads.

``SPEC`` is the repository's ``BENCHMARK.json``: the one list of workloads
and metrics, with their units and better directions.
"""

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))
