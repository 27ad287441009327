"""The report writer against its oracle, ``json.dumps``, and the matrix
wire format."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import report_oracle
from witnessforge.formats import dump_report, matrix_to_json


def assert_json_bytes(payload):
    text = dump_report(payload)
    assert text == report_oracle(payload, text)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, 1e300, -1e-300, 1e16, 1e-5, 0.1,
               1 / 3]

floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    EDGE_FLOATS)
scalars = (floats | st.integers() | st.integers(-2 ** 80, 2 ** 80)
           | st.booleans() | st.none() | st.text())
values = st.recursive(
    scalars | st.lists(floats),
    lambda inner: (st.lists(inner, max_size=5)
                   | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=5)),
    max_leaves=40)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(st.dictionaries(st.text(max_size=8), values, max_size=6))
def test_report_bytes_are_json_dumps_bytes(payload):
    assert_json_bytes(payload)


def test_report_bytes_of_edge_values():
    assert_json_bytes({
        "floats": EDGE_FLOATS,
        "float_scalars": {repr(v): v for v in EDGE_FLOATS},
        "mixed": [1.0, 1, True, None, "x", [], {}, [0.5], (2.0, -0.0)],
        "nested": {"a": {"b": [[1.5, -2.5], []], "c": ()}, "": "",
                   "é漢\U0001f600": "\"\\\n\t\x00 "},
        "ints": [0, -1, 2 ** 100, sys.maxsize],
        "one": [float(sys.maxsize)],
    })


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_raise_value_error(bad):
    for payload in ({"value": bad}, {"values": [0.5, bad, 1.5]},
                    {"values": [1, bad]}, {"nested": {"values": [bad]}}):
        with pytest.raises(ValueError, match="not JSON compliant"):
            dump_report(payload)
        with pytest.raises(ValueError):
            json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


@pytest.mark.parametrize("bad", [object(), {1, 2}, 1j, np.int64(1),
                                 np.bool_(True), b"bytes"])
def test_unsupported_objects_raise_type_error(bad):
    for payload in ({"value": bad}, {"values": [0.5, bad]}):
        with pytest.raises(TypeError, match="not JSON serializable"):
            dump_report(payload)
        with pytest.raises(TypeError):
            json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def test_non_string_keys_raise_type_error():
    # json would write an int key as a string; no report has one
    with pytest.raises(TypeError, match="keys must be str"):
        dump_report({"table": {1: 0.5}})


def test_report_file_holds_the_returned_text(tmp_path):
    path = tmp_path / "report.json"
    payload = {"values": [0.25, -1e-300], "label": "ψ"}
    text = dump_report(payload, str(path))
    assert path.read_bytes() == text.encode("utf-8")
    assert text == report_oracle(payload, text)


def test_matrix_to_json_gives_the_floats_of_each_part():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    m.flat[:6] = [-0.0, 5e-324, 1e300, -1e-300, 0.1, complex(-0.0, -0.0)]
    payload = matrix_to_json(m)
    assert (payload["rows"], payload["cols"]) == (7, 5)
    for key, part in (("re", m.real), ("im", m.imag)):
        expected = [float(v) for v in part.reshape(-1)]
        assert all(type(v) is float for v in payload[key])
        assert list(map(float.hex, payload[key])) == list(
            map(float.hex, expected))
