"""The one report serializer: result objects written from their fields."""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growthtight.reports import canonical_json


@dataclass(frozen=True)
class Inner:
    lower: float
    upper: float


@dataclass(frozen=True)
class Outer:
    inner: Inner
    rows: tuple[tuple[int, int], ...]
    floor: float
    witness: tuple[int, int] | None


def test_dataclass_fields_become_report_keys():
    result = Outer(Inner(-0.0, math.inf), ((1, 2), (3, 4)), -0.0, None)
    text = canonical_json({"result": result, "spread": (math.inf, -math.inf)})
    d = json.loads(text)["result"]
    assert d == {
        "inner": {"lower": 0.0, "upper": "inf"},
        "rows": [[1, 2], [3, 4]],
        "floor": 0.0,
        "witness": None,
    }
    assert math.copysign(1.0, d["floor"]) == -1.0
    assert math.copysign(1.0, d["inner"]["lower"]) == -1.0
    assert json.loads(text)["spread"] == ["inf", "-inf"]
    assert '"floor": -0.0' in text


@dataclass
class Pair:
    first: object
    second: object


@dataclass
class Empty:
    pass


def _sanitize(obj):
    """Strict-JSON-safe form of a result: a dataclass becomes the dict of its
    fields, a tuple a list, an infinity or nan a string."""
    if obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _sanitize(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def reference_json(obj) -> str:
    """What canonical_json must equal byte for byte: json's own encoder on
    the strict-JSON-safe form _sanitize makes."""
    return json.dumps(_sanitize(obj), indent=2, sort_keys=True, ensure_ascii=False) + "\n"


FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, math.nan, math.inf, -math.inf, 0.1]),
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    FLOATS,
    FLOATS.map(numpy.float64),
    st.text(),
    st.text(alphabet='"\\\n\t\x00\x1f\x7f/é€😀 ', max_size=6),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.integers(), max_size=5),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.dictionaries(st.integers(-20, 20), children, max_size=4),
        st.builds(Pair, children, children),
        st.just(Empty()),
    )


REPORTS = st.recursive(LEAVES, containers, max_leaves=25)


class TestOnePassWriter:
    """canonical_json writes the report itself; it must give exactly what
    json.dumps gives on the _sanitize copy."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(obj=REPORTS)
    @example(obj={"a": [], "b": {}, "c": (), "d": Empty(), "e": [[]]})
    @example(obj={10: "ten", 2: "two", -1: None})
    @example(obj=[True, False, None, 1, 1.0, -0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf])
    @example(obj=Pair(numpy.float64(0.5), {"q": 'say "hi"\n\x01', "ü": "naïve €"}))
    @example(obj=[1, True, 2])
    def test_equals_json_dumps_of_the_sanitized_copy(self, obj):
        assert canonical_json(obj) == reference_json(obj)

    def test_int_keys_sort_numerically_before_they_are_written(self):
        text = canonical_json({10: "a", 2: "b"})
        assert text.index('"2"') < text.index('"10"')
        assert text == reference_json({10: "a", 2: "b"})

    @pytest.mark.parametrize("key", [1.5, -0.0, math.inf, -math.inf, math.nan, True, False, None])
    def test_other_scalar_keys_are_stringified_as_json_does(self, key):
        assert canonical_json({key: [key]}) == reference_json({key: [key]})

    def test_numpy_float_prints_as_a_float(self):
        assert canonical_json([numpy.float64(0.5)]) == "[\n  0.5\n]\n"

    @pytest.mark.parametrize("obj", [{1, 2}, [frozenset()], {"k": Pair({3}, 1)}, {(1, 2): 0}])
    def test_what_json_cannot_encode_raises_type_error_in_both(self, obj):
        with pytest.raises(TypeError):
            reference_json(obj)
        with pytest.raises(TypeError):
            canonical_json(obj)
