"""The decoder contract: `serialize.loads` answers what `json.loads` answers.

orjson decodes what it accepts; the standard library's decoder answers
the rest (NaN, Infinity, lone surrogates, numbers past float range).
Either way the value must be the standard library's, floats compared by
their bits, so -0.0, subnormals and NaN count as themselves.
"""

import json
import math
import struct
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iopsim import scenarios, serialize
from iopsim.errors import ParseError


def by_bits(value):
    """`value` with every float replaced by its IEEE 754 bit pattern and
    every container by a tagged tuple, so == compares exactly."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, list):
        return ("list", tuple(by_bits(v) for v in value))
    if isinstance(value, dict):
        return ("dict", tuple((k, by_bits(v)) for k, v in value.items()))
    return (type(value).__name__, value)


def assert_decodes_as_stdlib(text):
    assert by_bits(serialize.loads(text)) == by_bits(json.loads(text))


FLOAT_EXTREMES = [0.0, -0.0, sys.float_info.max, -sys.float_info.max,
                  sys.float_info.min, 5e-324, -5e-324, 2.2250738585072009e-308]

scalars = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from(FLOAT_EXTREMES)
           | st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1)
           | st.text() | st.booleans() | st.none())
values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=6)
                      | st.dictionaries(st.text(), inner, max_size=6),
                      max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(values)
@example(FLOAT_EXTREMES)
@example([-2 ** 63, 2 ** 63 - 1, "é中\U0001f600", True, None])
def test_loads_matches_the_stdlib_decoder(value):
    assert_decodes_as_stdlib(serialize.dumps(value))


@pytest.mark.parametrize("text", ["[NaN]", "[Infinity, -Infinity]",
                                  '["\\ud800"]', "[1e400]"],
                         ids=["nan", "infinities", "lone-surrogate", "past-float-range"])
def test_text_orjson_refuses_decodes_as_stdlib(text):
    assert_decodes_as_stdlib(text)


def test_report_with_nan_residual_decodes_as_stdlib():
    report = scenarios.stern_gerlach(mc_samples=100)
    report.residual(next(iter(report.tols)), math.nan)
    text = serialize.dumps(report.to_json())
    assert "NaN" in text
    assert_decodes_as_stdlib(text)


@pytest.mark.parametrize("text", ["{not json", "[1,]", "[NaN", "[" * 100000])
def test_text_neither_decoder_reads_is_a_parse_error(text):
    with pytest.raises(ParseError):
        serialize.loads(text)
