import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buyhold.formatting import decode_utf8, to_json


def reference_rounded(value):
    """``to_json``'s rounding when it went through ``json.dumps``, kept as the reference."""
    if isinstance(value, float):
        return float(format(value, ".12g"))
    if isinstance(value, dict):
        return {key: reference_rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_rounded(item) for item in value]
    if hasattr(value, "tolist"):
        return reference_rounded(value.tolist())
    return value


def reference_to_json(payload) -> str:
    return json.dumps(reference_rounded(payload), indent=2) + "\n"


# Values where .12g or repr changes between positional and exponent
# notation (1e-5, 1e-4, 1e11 to 1e16), integral values that lose their
# ".0" under .12g, and the signed zeros, subnormals and non-finite values.
_EDGES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 1e-4, 1e11, 1e12, 1e15, 1e16, 1e17,
          99999999999.95, 999999999999.5, 9.999999999995e-5, 123.0, -7.0, math.nan, math.inf, -math.inf]
_FLOATS = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-7, 17)),
    st.builds(lambda f, k: math.nextafter(f, math.inf) if k else math.nextafter(f, -math.inf),
              st.sampled_from(_EDGES[4:13]), st.booleans()),
    st.integers(-(10**17), 10**17).map(float),
)
_LEAVES = st.one_of(
    _FLOATS,
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),
    st.text(st.characters(max_codepoint=0x9F)),
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(_FLOATS, max_size=4).map(np.array),
    st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=3).map(lambda v: np.array([v, v])),
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=25,
)


class TestToJson:
    @given(payload=_PAYLOADS)
    @settings(max_examples=100, deadline=None)
    def test_matches_rounded_json_dumps(self, payload):
        assert to_json(payload) == reference_to_json(payload)

    def test_edges_one_by_one(self):
        for value in _EDGES:
            for near in (value, math.nextafter(value, math.inf), math.nextafter(value, -math.inf)):
                assert to_json([near, {"v": near}]) == reference_to_json([near, {"v": near}])

    @pytest.mark.parametrize("rows", [[], [[]], [[1.5, 2.0], [1 / 3, 1e300], [np.float64(0.1)]]], ids=["empty", "one-empty", "rates"])
    def test_generator_is_written_as_its_list(self, rows):
        assert to_json({"rows": (row for row in rows)}) == to_json({"rows": rows})

    @pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes"], ids=["object", "set", "bytes"])
    def test_unwritable_object_is_a_type_error(self, value):
        # As json.dumps: a value with no JSON spelling raises TypeError naming its type.
        with pytest.raises(TypeError, match=f"^Object of type {type(value).__name__} is not JSON serializable$"):
            to_json({"rows": [value]})


class TestDecodeUtf8:
    def test_bytes_and_bytearray(self):
        assert decode_utf8("é\n".encode()) == decode_utf8(bytearray("é\n".encode())) == "é\n"

    @pytest.mark.parametrize("data", ["x", None, memoryview(b"x"), 1], ids=["str", "none", "memoryview", "int"])
    def test_other_types_are_a_type_error(self, data):
        with pytest.raises(TypeError, match=f"^decode_utf8 takes bytes or a bytearray, got {type(data).__name__}$"):
            decode_utf8(data)
