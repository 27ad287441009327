"""JSON/CSV serialization shared by the library and the CLI."""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import stat
import time
from json.encoder import encode_basestring_ascii

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
        "re": m.real.reshape(-1).tolist(),
        "im": m.imag.reshape(-1).tolist(),
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


def dump_report(payload: dict, path: str | None = None) -> str:
    """Serialize a report deterministically (sorted keys); the timestamp is
    isolated under the single top-level key ``timestamp``.

    The text is the bytes of ``json.dumps(body, indent=2, sort_keys=True,
    allow_nan=False)`` plus a newline, laid out by :func:`_layout`.  The
    output is strict JSON: a NaN or infinite float raises ValueError
    instead of being written as a non-standard token.
    """
    body = dict(payload)
    body["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    out = []
    _layout(body, "\n", out)
    out.append("\n")
    text = "".join(out)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _float_text(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError("Out of range float values are not JSON compliant: "
                         + float.__repr__(value))
    return float.__repr__(value)


def _layout(value, newline: str, out: list) -> None:
    """Append the JSON text of value to out, as ``json.dumps`` lays it out
    with ``indent=2`` and sorted keys; newline is the line break plus the
    indent of value's own level.

    Dicts need str keys.  A list of Python floats alone is written from
    its ``repr`` in one pass: the ``, `` between items becomes the indented
    separator, and an ``n`` in the text is a NaN or an infinity.  Any other
    type raises TypeError, as in ``json``.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if isinstance(value, list) and set(map(type, value)) == {float}:
            text = list.__repr__(value)
            if "n" in text:
                for item in value:
                    _float_text(item)
            out.append("[" + inner + text[1:-1].replace(", ", "," + inner)
                       + newline + "]")
            return
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _layout(item, inner, out)
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not "
                                f"{key.__class__.__name__}")
            out.append(separator)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _layout(value[key], inner, out)
            separator = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} "
                        "is not JSON serializable")


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


# rows formatted and written at a time: a chunk's buffers and temporaries
# take about 0.5 KiB a row, so this bounds the export's working memory
# (1 MiB)
CHUNK_ROWS = 2048

# the exact doubles 10^0 .. 10^22 and their Veltkamp halves (hi + lo = 10^k,
# each with at most 26 significant bits) for the Dekker two-product
_SPLITTER = 134217729.0  # 2^27 + 1
_POW10 = np.array([float(10 ** k) for k in range(23)])
_POW10_HI = _SPLITTER * _POW10 - (_SPLITTER * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI

# A cell is 40 bytes, read as five little-endian 64-bit words: the sign,
# "0." and up to three zeros for a negative exponent, then the 17 digits,
# each followed by a slot for the decimal point, and the separator last.
# Slots left 0 are dropped when a chunk is joined.  Word 0 holds the prefix
# and the leading digit; words 1-4 each hold four digits.
_WORD = np.dtype("<u8")
_SEPARATORS = np.array([ord(c) << 56 for c in ",,,\n"], dtype=_WORD)
# the first c digits of a group, c = 0 .. 4
_KEEP = np.array([(1 << 16 * c) - 1 for c in range(5)], dtype=_WORD)
_GROUP_START = np.arange(0, 16, 4)


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lookup tables of the cells, built on the first export, not at
    import:

    - for each four-digit group g = 100 h + l, its text, the digits in the
      low byte of each 16 bits;
    - for each g, the 1-based place of its last non-zero digit, -12 for
      0000 (which keeps an all-zero group below the leading digit's place
      0 in the maximum taken over a value's groups);
    - word 0 of a cell for each sign s, exponent E = -4 .. 16 and leading
      digit l, at index 210 s + 10 (E + 4) + l of its 420 entries: the
      sign slot, "0." and -1 - E zeros for a negative exponent, the digit.
    """
    pair = np.arange(100)
    pair_text = (pair // 10 + ord("0")) | (pair % 10 + ord("0")) << 16
    pair_last = np.where(pair % 10 != 0, 2, np.where(pair != 0, 1, -12))
    text = (pair_text[:, None] | pair_text << 32).astype(_WORD).ravel()
    last = np.where(pair != 0, 2 + pair_last, pair_last[:, None]).ravel()
    leading = np.zeros(420, dtype=_WORD)
    for sign, e, lead in itertools.product((0, 1), range(-4, 17), range(10)):
        prefix = "0." + "0" * (-1 - e) if e < 0 else ""
        word = ("-" if sign else "\0") + prefix.ljust(5, "\0") + str(lead)
        leading[210 * sign + 10 * (e + 4) + lead] = int.from_bytes(
            word.encode("ascii"), "little")
    return text, last, leading


def _scaled_digits(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """a * 10^k rounded half to even, as int64, for products in [2^53, 2^63).

    Dekker's two-product gives the rounded product p and its exact error;
    p is an even integer there, so p + rint(err) is the exact product
    rounded half to even.  Below 2^53 the result is within 1 of it.  The
    error terms are summed in the order
    ((a_hi b_hi - p) + a_hi b_lo + a_lo b_hi) + a_lo b_lo, each product
    formed in a buffer whose operand is no longer needed.
    """
    p = _POW10.take(k)
    p *= a
    a_hi = _SPLITTER * a
    a_lo = a_hi - a
    np.subtract(a_hi, a_lo, out=a_hi)
    np.subtract(a, a_hi, out=a_lo)
    b_hi = _POW10_HI.take(k)
    err = a_hi * b_hi
    err -= p
    b_lo = _POW10_LO.take(k)
    err += np.multiply(a_hi, b_lo, out=a_hi)
    err += np.multiply(a_lo, b_hi, out=b_hi)
    err += np.multiply(a_lo, b_lo, out=b_lo)
    del a_hi, a_lo, b_hi, b_lo
    digits = p.astype(np.int64)
    del p
    digits += np.rint(err, out=err).astype(np.int64)
    return digits


def _format_cells(values: np.ndarray, cells: np.ndarray) -> None:
    """Write the ``%.17g`` text of each value into the rows of cells, an
    (n, 5) array of cells laid out as described above, separator slot
    empty.

    A value with 1e-4 <= |v| < 1e17 has the fixed-notation form: its 17
    significant digits are D = round(|v| 10^(16-E)) for the decimal
    exponent E of the rounded value, which lies in [-4, 16] and makes
    10^(16-E) an exact double.  Any other value (zero, subnormal, tiny,
    huge, not finite) is formatted by Python.  %g drops trailing zeros
    down to the units digit, so the last kept digit lies in the lowest
    group unless that group is 0000, and only that group is masked; the
    rare values whose lowest group is 0000 are masked group by group.
    """
    n = values.size
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1e17)
    a[~fast] = 1.0
    # floor(log10 a) is E, or one off next to a power of ten
    e = np.clip(np.floor(np.log10(a)), -5, 16).astype(np.intp)
    significand = _scaled_digits(a, 16 - e)
    off = np.flatnonzero((significand < 10 ** 16)
                         | (significand >= 10 ** 17))
    if off.size:
        e[off] += np.where(significand[off] < 10 ** 16, -1, 1)
        fast[off] &= (e[off] >= -4) & (e[off] <= 16)
        redo = off[fast[off]]
        significand[redo] = _scaled_digits(a[redo], 16 - e[redo])
    del a
    # placeholders for the values Python formats at the end
    slow = np.flatnonzero(~fast)
    e[slow] = 0
    significand[slow] = 10 ** 16
    # four groups of four digits; the leading digit is what is left
    lead = significand
    del significand
    groups = np.empty((4, n), dtype=np.int64)
    for i in range(3, -1, -1):
        rest = lead
        lead = rest // 10 ** 4
        np.subtract(rest, lead * 10 ** 4, out=groups[i])
    del rest
    group_text, group_last, leading = _tables()
    for i in range(3):
        cells[:, i + 1] = group_text.take(groups[i])
    # the last digit that %g keeps: the last non-zero one, or the units
    # digit (place E) if that comes later
    last = group_last.take(groups[3])
    last += 12
    np.maximum(last, e, out=last)
    # the lowest group keeps last - 12 digits, none (the clip) when it is
    # 0000 below the units digit
    word = group_text.take(groups[3])
    word &= _KEEP.take(last - 12, mode="clip")
    cells[:, 4] = word
    zero = np.flatnonzero(groups[3] == 0)
    if zero.size:
        # the last kept digit of these lies in a higher group
        places = group_last.take(groups[:, zero]) + _GROUP_START[:, None]
        last[zero] = np.maximum(places.max(axis=0), e[zero])
        kept = np.clip(last[zero] - _GROUP_START[:, None], 0, 4)
        cells[zero, 1:] &= _KEEP.take(kept).T
    del groups
    # the sign, the prefix and the leading digit from one table
    key = np.add(e, 4)
    key *= 10
    key += lead
    key += (values < 0) * 210
    cells[:, 0] = leading.take(key)
    text = cells.view(np.uint8)
    point = np.flatnonzero((e >= 0) & (last > e))
    text.reshape(-1)[40 * point + 2 * e[point] + 7] = ord(".")
    for i in slow:
        cell = ("%.17g" % values[i]).encode("ascii")
        text[i] = 0
        text[i, :len(cell)] = np.frombuffer(cell, dtype=np.uint8)


def batch_to_csv(path: str, batches) -> None:
    """Export an iterable of homodyne batches, in order, as
    phi1,x1,phi2,x2 rows.

    The bytes are those of :func:`write_csv` on the same rows: every cell is
    the ``%.17g`` text of its value.  The cells are formatted with numpy,
    :data:`CHUNK_ROWS` rows at a time, into buffers allocated once per file
    and reused by every chunk, and each chunk's bytes are written as soon
    as it is formed.  ``bytes.translate`` drops the empty slots of a
    chunk's copy in one pass; ``np.compress`` would build an index of 8
    bytes per byte kept.  So an iterable whose batches are drawn as it is
    read, such as ``stream_twin_beam``, which is how ``tomo-estimate``
    exports, is written without its samples being held at once.

    The file is opened before the first batch is read.  A missing path or
    a regular file is written whole or not at all: the rows go to a new
    file beside it, which replaces it once every batch is written and is
    removed if a batch cannot be read or written, so a failed export
    leaves the path as it was.  Any other path (a device, a FIFO, a
    symbolic link), or one whose directory takes no new file, is written
    in place as ``open(path, "wb")`` writes it, and never removed.
    """
    block = np.empty((CHUNK_ROWS, 4))
    cells = np.empty((4 * CHUNK_ROWS, 5), dtype=_WORD)
    fh, staged = _open_export(path)
    try:
        with fh:
            fh.write(b"phi1,x1,phi2,x2\n")
            for part in batches:
                columns = (part.phi1, part.x1, part.phi2, part.x2)
                for start in range(0, len(part.phi1), CHUNK_ROWS):
                    rows = min(CHUNK_ROWS, len(part.phi1) - start)
                    np.stack([col[start:start + rows] for col in columns],
                             axis=1, out=block[:rows])
                    chunk = cells[:4 * rows]
                    _format_cells(block[:rows].ravel(), chunk)
                    chunk.reshape(-1, 4, 5)[:, :, 4] |= _SEPARATORS
                    fh.write(chunk.tobytes().translate(None, b"\0"))
        if staged is not None:
            os.replace(staged, path)
    except BaseException:
        if staged is not None:
            os.remove(staged)
        raise


def _open_export(path):
    """The open file an export writes, and the new file beside ``path``
    that it is, to be moved onto ``path``, or None when it is ``path``
    itself (see :func:`batch_to_csv`).  The new file takes the mode of the
    regular file it replaces."""
    try:
        mode = os.lstat(path).st_mode
    except OSError:
        mode = None
    if mode is None or stat.S_ISREG(mode):
        head, tail = os.path.split(os.fspath(path))
        staged = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.part")
        try:
            fh = open(staged, "xb")
        except OSError:
            pass        # no new file here: path is written in place
        else:
            if mode is not None:
                os.chmod(staged, stat.S_IMODE(mode))
            return fh, staged
    return open(path, "wb"), None
