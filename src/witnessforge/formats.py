"""JSON/CSV serialization shared by the library and the CLI."""

from __future__ import annotations

import json
import time

import numpy as np

from .linalg import as_complex_matrix


def matrix_to_json(m: np.ndarray) -> dict:
    """Matrix wire format: row-major real/imaginary parts plus dimensions.

    Floats are emitted in Python's shortest round-trip decimal form, so
    decoding reproduces the binary values exactly.
    """
    m = as_complex_matrix(m)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": [float(v) for v in m.real.reshape(-1)],
        "im": [float(v) for v in m.imag.reshape(-1)],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.size != rows * cols or im.size != rows * cols:
        raise ValueError(
            f"matrix payload length {re.size}/{im.size} does not match "
            f"{rows}x{cols}")
    return (re + 1j * im).reshape(rows, cols)


def dump_report(payload: dict, path: str | None = None,
                timestamp: bool = True) -> str:
    """Serialize a report deterministically (sorted keys); the timestamp is
    isolated under the single top-level key ``timestamp``.

    The output is strict JSON: a NaN or infinite float raises ValueError
    instead of being written as a non-standard token.
    """
    body = dict(payload)
    if timestamp:
        body["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    text = json.dumps(body, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def load_report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_csv(path: str, header: list, rows) -> None:
    """Plain CSV with 17-significant-digit decimals."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def batch_to_csv(path: str, batch) -> None:
    """Export a homodyne batch as phi1,x1,phi2,x2 rows.

    The bytes are those of :func:`write_csv` on the same rows.  The rows are
    formatted as a stream of Python floats instead of cell by cell, and never
    held in memory as one string.
    """
    columns = (batch.phi1, batch.x1, batch.phi2, batch.x2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("phi1,x1,phi2,x2\n")
        fh.writelines(map("%.17g,%.17g,%.17g,%.17g\n".__mod__,
                          zip(*(col.tolist() for col in columns))))


def batch_rows_from_csv(path: str) -> np.ndarray:
    data = np.genfromtxt(path, delimiter=",", names=True)
    return data
