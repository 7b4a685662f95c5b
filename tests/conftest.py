from __future__ import annotations

import json

from growthtight import Alphabet, parse_word
from growthtight.reports import canonical_json

import oracles

RANK1 = Alphabet(1)
RANK2 = Alphabet(2)
RANK3 = Alphabet(3)


def word2(chars: str):
    """Char-string oracle notation ("aBa" = a b- a) to a rank-2 word."""
    return parse_word(RANK2, oracles.to_lib_text(chars))


def report_fields(result) -> dict:
    """A result object as it reads in a report: through the canonical JSON."""
    return json.loads(canonical_json(result))


def chars(word) -> str:
    from growthtight import format_word

    return oracles.from_lib_text(format_word(word))
