"""The one report serializer: result objects written from their fields."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

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
