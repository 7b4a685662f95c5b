"""Command-line driver: run a job document, emit a table and a JSON report.

Jobs are JSON files with schema "growthtight/job-v1":

    {"schema": "growthtight/job-v1",
     "command": "count" | "exponent" | "avoid" | "ghat" | "product"
              | "quotient" | "tightness" | "axioms",
     "params": {...},
     "budgets": {"r_max": int, "tol": float, "cutoff": int},
     "output": {"csv": path}}

COMMANDS holds one Command record per command: its parameter table, budget
defaults and Mode, the run function and the table spec.  avoid and axioms
hold one Mode per mode block (avoid factors or sweep, axioms lemma31, random
or axes) with the fields only it reads.  A run function returns the results
alone: the table (reports.render_table) and the CSV (the report's balls) are
views of the report, built only when written.  The parameter tables,
JOB_FIELDS, BUDGET_FIELDS and _ORACLES (one per quotient kind) give every
field a job may hold its kind and default.  An unknown field at any level, a
missing required one, a wrong kind, a number that is not finite (p aside), no
mode block or two, or a field only another block reads is invalid input.

Words use the letter grammar "a b a-" ("-" or "'" marks an inverse; "" or "1"
is the identity).  Exit status: 0 ok, 2 invalid input (an output path that
cannot be written included), 3 resource limit (a count with more digits than
the interpreter writes included), 4 internal invariant breach.  Nothing is
written before every output has been rendered and opened.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import random
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

from . import __version__
from .automata import (
    CountSequence,
    avoid_factors,
    count_lengths,
    perron_root,
    perron_roots,
)
from .errors import InternalInvariantError, InvalidInputError, ResourceLimitError
from .growth import (
    check_subadditivity,
    divergence_at_critical,
    fekete_bracket,
    strict_gap_check,
)
from .products import LpProductSpec, parse_exponent, verify_duality
from .quotients import KINDS, check_prop_minimal, quotient_ball_counts, tightness_verdict
from .reports import JOB_SCHEMA, build_report, canonical_json, render_table
from .tree import (
    D_TREE,
    Axis,
    _meet,
    check_projection_axioms,
    ghat_automaton,
    lemma31_bound_check,
    shorten,
    shorten_threshold,
    walk_ghat_ball,
)
from .words import (
    Alphabet,
    ReducedWord,
    _inverse,
    _reduce_concat,
    _word,
    enumerate_sphere,
    format_word,
    iter_sphere_letters,
    parse_word,
)

REQUIRED = object()  # the default of a field every job must give


def _kind(test, demand: str):
    """A field kind: passes a value test accepts, else names the field and its demand."""

    def check(value, where: str):
        if not test(value):
            raise InvalidInputError(f"{where} must be {demand}, got {value!r}")
        return value

    return check


def _checked(block: dict, fields: dict, where: str, noun: str) -> dict:
    """block checked against its table (field name -> (kind, default)): no
    unknown name, every REQUIRED field given, every given value of its kind.
    Returns a new dict with every field of the table, defaults filled in."""
    unknown = sorted(set(block) - set(fields))
    if unknown:
        raise InvalidInputError(f"unknown {noun} {unknown[0]!r}; choose from {sorted(fields)}")
    out = {}
    for name, (kind, default) in fields.items():
        if name in block:
            out[name] = kind(block[name], f"{where} {name}".lstrip())
        elif default is REQUIRED:
            raise InvalidInputError(f"missing required {noun} {name!r}")
        else:
            out[name] = default
    return out


def _block(fields: dict, demand: str = "an object"):
    """The kind of a nested block: an object checked against its table."""
    is_object = _kind(lambda v: isinstance(v, dict), demand)
    return lambda value, where: _checked(is_object(value, where), fields, where, f"{where} field")


def _list_of(item, demand: str, min_len: int = 0):
    """The kind of a list of at least min_len values of the kind item."""
    is_list = _kind(lambda v: isinstance(v, list) and len(v) >= min_len, demand)
    return lambda v, where: [item(x, f"{where}[{i}]") for i, x in enumerate(is_list(v, where))]


# type(v) is int leaves out bool, which JSON true and false parse to
STR = _kind(lambda v: isinstance(v, str), "a string")
INT = _kind(lambda v: type(v) is int, "an integer")
NATURAL = _kind(lambda v: type(v) is int and v >= 0, "a non-negative integer")
POSITIVE = _kind(lambda v: type(v) is int and v > 0, "a positive integer")
# json.load reads NaN and Infinity, which a report cannot embed as numbers:
# the bounds below reject them
REAL = _kind(lambda v: type(v) in (int, float) and -math.inf < v < math.inf, "a number")
BOOL = _kind(lambda v: isinstance(v, bool), "true or false")
OBJECT = _kind(lambda v: isinstance(v, dict), "an object")
WORDS = _list_of(STR, "a list of word strings")
INTS = _list_of(INT, "a list of integers")
ROWS = _list_of(INTS, "a list of integer rows")
_AXIS = _block({"h": (STR, REQUIRED), "translate": (STR, "1")}, "a word string or an object")
# an axes item is a word h or an object {h, translate}
_AXES = _list_of(lambda v, where: _AXIS({"h": v} if isinstance(v, str) else v, where),
                 "a non-empty list of axes", 1)

# The job format.  Defaults are shared between jobs: commands never mutate them.
_RANK = {"rank": (INT, REQUIRED)}
_PRODUCT = {
    "factors": (_list_of(_block(_RANK), "a non-empty list of factor objects", 1), REQUIRED),
    "p": (_kind(lambda v: type(v) in (int, float, str), 'a number or "inf"'), REQUIRED),
}
# one field table per quotient kind (quotients.KINDS), besides its kind
_ORACLES = {
    "factor-kernel": {"kill": (INTS, ())}, "abelianization-kernel": {},
    "homomorphism-to-integers": {"coefficients": (ROWS, REQUIRED)},
}
_ORACLE_KIND = _kind(lambda v: isinstance(v, str) and v in _ORACLES, f"one of {sorted(_ORACLES)}")


def _oracle(value, where: str):
    """The kind of an oracle block: its kind picks the field table that checks
    the other fields, and the checked fields build that kind's record."""
    block = dict(OBJECT(value, where))
    kind = _ORACLE_KIND(block.pop("kind", None), f"{where} kind")
    return KINDS[kind](**_checked(block, _ORACLES[kind], where, f"{kind} {where} field"))


# r_max defaults per command (Command.budgets); axioms jobs have none
BUDGET_FIELDS = {
    "r_max": (NATURAL, None),
    "tol": (_kind(lambda v: type(v) in (int, float) and 0 < v < math.inf, "a positive number"),
            1e-9),
    "cutoff": (NATURAL, 14),
}
JOB_FIELDS = {
    "schema": (STR, REQUIRED), "command": (STR, REQUIRED),
    "params": (OBJECT, {}), "budgets": (OBJECT, {}),
    "output": (_block({"csv": (STR, None)}), {"csv": None}),
}


@dataclass(frozen=True)
class Mode:
    """What a job runs: run(params, budgets) returns the results, and table is
    the spec reports.render_table shows them by.  The Mode of a mode block
    lists the fields only that block reads, with their defaults."""

    run: Callable[[dict, dict], dict]
    table: tuple
    fields: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Command:
    """One job command: its parameter table (field name -> (kind, default)),
    its budget defaults, and the Mode it runs, or one Mode per mode block
    (whose parameter defaults to None, for not given)."""

    params: dict
    budgets: dict
    mode: Mode | None = None
    modes: dict = field(default_factory=dict)


def _mode(params: dict, modes: dict) -> Mode:
    """The Mode of the one mode block a job gives; none or more than one is
    invalid input, and so is a field that only other blocks read.  The fields
    the block reads and the job leaves out take their Mode defaults in params."""
    given = [m for m in modes if params[m] is not None]
    if len(given) != 1:
        raise InvalidInputError(f"give exactly one of {', '.join(modes)}; got {given or 'none'}")
    mode = modes[given[0]]
    for name in (n for m in modes.values() for n in m.fields):
        if name not in mode.fields and params[name] is not None:
            owners = ", ".join(k for k, m in modes.items() if name in m.fields)
            raise InvalidInputError(f"{name} applies only to {owners}, not {given[0]}")
    for name, default in mode.fields.items():
        if params[name] is None:
            params[name] = default
    return mode


def _counts_result(seq) -> dict:
    return {"spheres": list(seq.spheres), "balls": seq.balls()}


def _language(alphabet: Alphabet, key: str, words: list, budgets: dict, bracket: str = "") -> dict:
    """Results for the language that avoids words: the words under key, the
    Perron bracket under bracket (if one is named), the sphere and ball counts."""
    aut = avoid_factors(alphabet, words)
    results = {key: [format_word(f) for f in words]}
    if bracket:
        results[bracket] = perron_root(aut, budgets["tol"])
    return {**results, **_counts_result(count_lengths(aut, budgets["r_max"]))}


def _cmd_count(params: dict, budgets: dict) -> dict:
    alphabet = Alphabet(params["rank"])
    forbidden = [parse_word(alphabet, t) for t in params["forbidden"]]
    return {"rank": alphabet.rank, **_language(alphabet, "forbidden", forbidden, budgets)}


def _cmd_exponent(params: dict, budgets: dict) -> dict:
    alphabet = Alphabet(params["rank"])
    forbidden = [parse_word(alphabet, t) for t in params["forbidden"]]
    results = _language(alphabet, "forbidden", forbidden, budgets, "spectral")
    b = check_subadditivity(results["balls"])
    fekete = fekete_bracket(results["balls"], b)
    return {"rank": alphabet.rank, **results, "fekete": fekete, "subadditivity_b": b}


# The avoid sweep brackets its languages through perron_roots this many at a
# time: the batch shares one iteration, and memory stays bounded for any
# max_len.  The brackets do not depend on it.
SWEEP_BATCH = 256


def _cmd_avoid_sweep(params: dict, budgets: dict) -> dict:
    """One avoidance language per non-trivial f with |f| <= max_len,
    bracketed in batches of SWEEP_BATCH languages."""
    alphabet = Alphabet(params["rank"])
    block = params["sweep"]
    if block["max_len"] == 0:
        raise InvalidInputError("sweep max_len must be at least 1: no factor has length 0")
    max_len = _sweep_radius(block["max_len"], budgets, "max_len")
    threshold = block["margin"]
    full = math.log(2 * alphabet.rank - 1)
    factors = (
        f for length in range(1, max_len + 1)
        for f in enumerate_sphere(alphabet, length, cutoff=budgets["cutoff"])
    )
    entries = []
    while batch := list(itertools.islice(factors, SWEEP_BATCH)):
        automata = [avoid_factors(alphabet, [f]) for f in batch]
        for f, bracket in zip(batch, perron_roots(automata, budgets["tol"])):
            entries.append({
                "f": format_word(f),
                "upper": bracket.upper,
                "margin": full - threshold - bracket.upper,
            })
    return {
        "rank": alphabet.rank,
        "max_len": max_len,
        "margin_threshold": threshold,
        "full_exponent": full,
        "languages": len(entries),
        "worst": min(entries, key=lambda e: e["margin"]),
        "all_strictly_below": all(e["margin"] > 0 for e in entries),
        "entries": entries,
    }


def _cmd_avoid_factors(params: dict, budgets: dict) -> dict:
    alphabet = Alphabet(params["rank"])
    factors = [parse_word(alphabet, t) for t in params["factors"]]
    results = {"rank": alphabet.rank, **_language(alphabet, "factors", factors, budgets, "bracket")}
    if params["compare_inverse"]:
        sym = list(factors)
        for f in factors:
            if ~f not in sym:
                sym.append(~f)
        results["with_inverses"] = _language(alphabet, "factors", sym, budgets, "bracket")
    return results


def _cmd_ghat(params: dict, budgets: dict) -> dict:
    alphabet = Alphabet(params["rank"])
    h = parse_word(alphabet, params["h"])
    sweep = None
    if params["shorten_sweep"] is not None:
        sweep = _shorten_sweep_params(h, params["shorten_sweep"], budgets)
    aut = ghat_automaton(alphabet, h, params["m"])
    bracket = perron_root(aut, budgets["tol"])
    seq = count_lengths(aut, budgets["r_max"])
    full = _language(alphabet, "factors", [], budgets, "bracket")  # the free group
    gap = strict_gap_check(
        seq.balls(), full["balls"], budgets["tol"] * 10, bracket, full["bracket"]
    )
    divergence = divergence_at_critical(seq.balls(), bracket)
    results = {
        "rank": alphabet.rank,
        "h": format_word(h),
        "m": params["m"],
        "shorten_threshold": shorten_threshold(h),
        "bracket": bracket,
        "full_bracket": full["bracket"],
        "gap": gap,
        "divergence": divergence,
        **_counts_result(seq),
    }
    if sweep is not None:
        results["shorten_sweep"] = _shorten_sweep(alphabet, h, *sweep)
    return results


def _sweep_radius(radius: int, budgets: dict, name: str = "g_max") -> int:
    """A sweep radius, checked against the cutoff before any word is visited."""
    if radius > budgets["cutoff"]:
        raise ResourceLimitError(
            f"{name} {radius} exceeds enumeration cutoff {budgets['cutoff']}"
        )
    return radius


def _shorten_sweep_params(h: ReducedWord, block: dict, budgets: dict) -> tuple[int, int]:
    """(g_max, K) of a shorten_sweep block; K defaults to shorten_threshold(h)
    and may not lie below it."""
    g_max = _sweep_radius(block["g_max"], budgets)
    threshold = shorten_threshold(h)
    K = threshold if block["K"] is None else block["K"]
    if K < threshold:
        raise InvalidInputError(
            f"shorten_sweep K={K!r} below the shortening threshold {threshold} of h"
        )
    return g_max, K


def _shorten_sweep(alphabet: Alphabet, h: ReducedWord, g_max: int, K: int) -> dict:
    """Exhaustive shortening check: every g with |g| <= g_max outside Ghat(K)
    must get strictly shorter, to k h^-1 k^-1 g.

    The ball is walked through the Ghat(K) automaton (walk_ghat_ball), so only
    the words outside Ghat(K) reach shorten.  checked counts the ball,
    in_ghat the words in Ghat(K), shortened the other words that passed;
    failures lists the rest in shortlex order.
    """
    shortened = 0
    failures: list[ReducedWord] = []
    h_inverse = _inverse(h.letters)

    def check(g: ReducedWord) -> None:
        nonlocal shortened
        res = shorten(g, h, K)
        if res is not None and len(res.g_prime) < len(g):
            k = res.k.letters
            # g' = k h^-1 k^-1 g, on letter tuples
            recomposed = _reduce_concat(
                _reduce_concat(_reduce_concat(k, h_inverse), _inverse(k)), g.letters
            )
            if res.g_prime.letters == recomposed:
                shortened += 1
                return
        failures.append(g)

    checked, in_ghat = walk_ghat_ball(alphabet, h, K, g_max, check)
    return {
        "g_max": g_max,
        "K": K,
        "checked": checked,
        "in_ghat": in_ghat,
        "shortened": shortened,
        "failures": [format_word(g) for g in sorted(failures)],
    }


def _product_spec(params: dict) -> LpProductSpec:
    alphabets = tuple(Alphabet(f["rank"]) for f in params["factors"])
    return LpProductSpec(alphabets, parse_exponent(params["p"]))


def _cmd_product(params: dict, budgets: dict) -> dict:
    spec = _product_spec(params)
    r_max = budgets["r_max"]
    free = {}  # factors of one rank share the automaton, the counts and the bracket
    for alphabet in dict.fromkeys(spec.factors):
        aut = avoid_factors(alphabet, ())
        free[alphabet] = count_lengths(aut, r_max), perron_root(aut, budgets["tol"])
    factor_spheres = [free[a][0] for a in spec.factors]
    brackets = [free[a][1] for a in spec.factors]
    exponents = [(b.lower + b.upper) / 2 for b in brackets]
    report = verify_duality(spec, factor_spheres, r_max, exponents)
    return {**vars(report), "factor_brackets": brackets}


def _cmd_quotient(params: dict, budgets: dict) -> dict:
    spec = _product_spec(params)
    oracle = params["oracle"]
    r_max = budgets["r_max"]
    seq = quotient_ball_counts(spec, oracle, r_max)
    balls = seq.balls()
    b = check_subadditivity(balls)
    results = {
        "oracle": oracle,
        "p": spec.p,
        "fekete": fekete_bracket(balls, b),
        "subadditivity_b": b,
        **_counts_result(seq),
    }
    check = params["check"]
    if check is not None:
        if len(check["h"]) != spec.n:
            raise InvalidInputError(
                f"check h has {len(check['h'])} words for {spec.n} factors; give one per factor"
            )
        h_words = [parse_word(a, t) for a, t in zip(spec.factors, check["h"])]
        struct = check_prop_minimal(
            spec, oracle, spec.point(h_words), check["K"], r_max, cutoff=budgets["cutoff"]
        )
        results["structure_check"] = struct
    else:
        results["section_size"] = balls[-1]
    return results


def _cmd_tightness(params: dict, budgets: dict) -> dict:
    spec = _product_spec(params)
    return vars(tightness_verdict(spec, params["oracle"], budgets["r_max"], budgets["tol"]))


def _letter_options(alphabet: Alphabet) -> dict[tuple, list[int]]:
    """options[(previous, first)]: the letters a random reduced word may take
    after previous (None at the start), in alphabet order; first is the
    word's first letter at the last position of a cyclic word, else None."""
    ends = [None, *alphabet.letters]
    return {
        (previous, first): [
            x for x in alphabet.letters
            if (previous is None or x != previous ^ 1) and (first is None or x != first ^ 1)
        ]
        for previous in ends
        for first in ends
    }


def _random_letters(
    rng: random.Random, options: dict[tuple, list[int]], length: int, cyclic: bool
) -> tuple[int, ...]:
    """A uniform choice at each position among the letters that keep the word
    reduced (and cyclically reduced when cyclic)."""
    letters: list[int] = []
    for i in range(length):
        previous = letters[-1] if letters else None
        first = letters[0] if cyclic and i and i == length - 1 else None
        letters.append(rng.choice(options[previous, first]))
    return tuple(letters)


def _random_axis(
    rng: random.Random,
    alphabet: Alphabet,
    options: dict[tuple, list[int]],
    drawn: dict[tuple[int, ...], Axis],
    core_max: int,
    conj_max: int,
) -> Axis:
    """A random axis; drawn maps the letters of each h drawn before to its
    axis, so a repeated h reuses it."""
    while True:
        core_len = rng.randint(1, core_max)
        conj_len = rng.randint(0, conj_max)
        core = _random_letters(rng, options, core_len, cyclic=True)
        conj = _random_letters(rng, options, conj_len, cyclic=False)
        h = _reduce_concat(_reduce_concat(conj, core), _inverse(conj))
        if h:
            if h not in drawn:
                drawn[h] = Axis.from_element(_word(alphabet, h))
            return drawn[h]


def _cmd_lemma31(params: dict, budgets: dict) -> dict:
    """Exhaustive power-or-bounded-projection dichotomy check over a ball."""
    alphabet = Alphabet(params["rank"])
    block = params["lemma31"]
    h = parse_word(alphabet, block["h"])
    g_max = _sweep_radius(block["g_max"], budgets)
    n_max = block["n_max"]
    ax = Axis.from_element(h)
    checked = failures = 0
    branches: dict[str, int] = {}
    for r in range(1, g_max + 1):
        for letters in iter_sphere_letters(alphabet, r):
            rep = lemma31_bound_check(ax, _word(alphabet, letters), n_max)
            checked += 1
            branches[rep.branch] = branches.get(rep.branch, 0) + 1
            if not rep.passed:
                failures += 1
    return {
        "mode": "lemma31",
        "h": format_word(h),
        "g_max": g_max,
        "n_max": n_max,
        "d_tree": D_TREE,
        "checked": checked,
        "branches": branches,
        "failures": failures,
    }


def _cmd_random_axes(params: dict, budgets: dict) -> dict:
    alphabet = Alphabet(params["rank"])
    samples = [parse_word(alphabet, t) for t in params["samples"]]
    block = params["random"]
    # every axis of Z is one line; in F2 single letters give only the a- and b-lines
    family = (alphabet.rank, block["core_max"], block["conjugator_max"])
    if alphabet.rank == 1 or family == (2, 1, 0):
        raise InvalidInputError("random axes span fewer than three distinct lines")
    rng = random.Random(block["seed"])
    options = _letter_options(alphabet)
    drawn: dict[tuple[int, ...], Axis] = {}
    xi_max = 0
    total_violations = 0
    for _ in range(block["triples"]):
        # draw three axes on distinct lines; the scans that tell the lines
        # apart give check_projection_axioms the meets of every pair
        axes, meets = [], {}
        while len(axes) < 3:
            ax = _random_axis(
                rng, alphabet, options, drawn, block["core_max"], block["conjugator_max"]
            )
            new = {}
            for i, other in enumerate(axes):
                new[(i, len(axes))] = meet = _meet(ax, other)
                if meet is None:  # the line of an axis drawn before
                    break
            else:
                meets.update(new)
                axes.append(ax)
        xi, violations = check_projection_axioms(axes, samples, params["candidate_xi"], meets)
        xi_max = max(xi_max, xi)
        total_violations += len(violations)
    bound = block["core_max"] + 2 * block["conjugator_max"]
    return {
        "mode": "random",
        "triples": block["triples"],
        "xi_observed": xi_max,
        "bound": bound,
        "within_bound": xi_max <= bound,
        "violations": total_violations,
    }


def _cmd_explicit_axes(params: dict, budgets: dict) -> dict:
    alphabet = Alphabet(params["rank"])
    samples = [parse_word(alphabet, t) for t in params["samples"]]
    axes = [
        Axis.from_element(parse_word(alphabet, a["h"]), parse_word(alphabet, a["translate"]))
        for a in params["axes"]
    ]
    xi, violations = check_projection_axioms(axes, samples, params["candidate_xi"])
    bound = max(len(ax.core) for ax in axes) + 2 * max(len(ax.conjugator) for ax in axes)
    return {
        "mode": "explicit",
        "axes": [format_word(ax.element) for ax in axes],
        "xi_observed": xi,
        "bound": bound,
        "within_bound": xi <= bound,
        "violations": violations,
    }


# Table specs for reports.render_table: (headers, rows of (label, results
# field path, format)); RADII is the per-radius table of spheres and balls.
RADII = (("r", "sphere", "ball"), None)
_QUANTITY = ("quantity", "value")
_LANGUAGE = ("language", "lower", "upper")
_WORD_COUNTS = {**_RANK, "forbidden": (WORDS, ())}
_PROJECTION_FIELDS = {"samples": (), "candidate_xi": None}
_PROJECTION_ROWS = [("xi_observed", "xi_observed", ""), ("bound", "bound", ""),
                    ("violations", "violations", "")]
COMMANDS = {
    "count": Command(_WORD_COUNTS, {"r_max": 10}, Mode(_cmd_count, RADII)),
    "exponent": Command(_WORD_COUNTS, {"r_max": 14}, Mode(_cmd_exponent, (
        ("method", "lower", "upper"),
        [("spectral", "spectral", ".12f"), ("fekete", "fekete", ".6f")],
    ))),
    "avoid": Command(
        {
            **_RANK,
            "factors": (_list_of(STR, "a non-empty list of word strings", 1), None),
            "compare_inverse": (BOOL, None),
            "sweep": (_block({"max_len": (NATURAL, REQUIRED), "margin": (REAL, 1e-6)}), None),
        },
        {"r_max": 10},
        modes={
            "factors": Mode(_cmd_avoid_factors, (_LANGUAGE, [
                ("avoid", "bracket", ".9f"), ("avoid+inverses", "with_inverses.bracket", ".9f"),
            ]), {"compare_inverse": True}),
            "sweep": Mode(_cmd_avoid_sweep, (_QUANTITY, [
                ("languages", "languages", ""), ("worst f", "worst.f", ""),
                ("worst upper", "worst.upper", ".9f"), ("worst margin", "worst.margin", ".9f"),
                ("all strictly below", "all_strictly_below", ""),
            ])),
        },
    ),
    "ghat": Command(
        {
            **_RANK, "h": (STR, REQUIRED), "m": (INT, REQUIRED),
            "shorten_sweep": (_block({"g_max": (NATURAL, REQUIRED), "K": (INT, None)}), None),
        },
        {"r_max": 10},
        Mode(_cmd_ghat, (_LANGUAGE, [
            ("restricted", "bracket", ".9f"), ("full", "full_bracket", ".9f"),
            ("swept words", "shorten_sweep.checked", ""),
            ("shortened", "shorten_sweep.shortened", ""),
            ("failures", "shorten_sweep.failures", ""),
        ])),
    ),
    "product": Command(_PRODUCT, {"r_max": 12}, Mode(_cmd_product, (_QUANTITY, [
        ("predicted", "predicted", ".6f"), ("measured lower", "measured.lower", ".6f"),
        ("measured upper", "measured.upper", ".6f"), ("deviation", "deviation", ".6f"),
        ("contains predicted", "contains_predicted", ""),
    ]))),
    "quotient": Command(
        {
            **_PRODUCT, "oracle": (_oracle, REQUIRED),
            "check": (_block({"h": (WORDS, REQUIRED), "K": (INT, REQUIRED)}), None),
        },
        {"r_max": 6},
        Mode(_cmd_quotient, RADII),
    ),
    "tightness": Command(
        {**_PRODUCT, "oracle": (_oracle, REQUIRED)},
        {"r_max": 8, "tol": 0.08},
        Mode(_cmd_tightness, (_QUANTITY, [
            ("verdict", "verdict", ""), ("delta_G", "delta_G", ".6f"),
            ("delta_G/N", "delta_GN", ".6f"), ("gap", "gap", ".6f"),
        ])),
    ),
    "axioms": Command(
        {
            **_RANK,
            "lemma31": (_block({
                "h": (STR, REQUIRED), "g_max": (NATURAL, 4), "n_max": (POSITIVE, 8),
            }), None),
            "random": (_block({
                "seed": (INT, 0), "triples": (NATURAL, 50), "core_max": (POSITIVE, 3),
                "conjugator_max": (NATURAL, 1),
            }), None),
            "axes": (_AXES, None),
            "samples": (WORDS, None),
            "candidate_xi": (REAL, None),
        },
        {},
        modes={
            "lemma31": Mode(_cmd_lemma31, (_QUANTITY, [
                ("checked", "checked", ""), ("failures", "failures", ""), ("d_tree", "d_tree", ""),
                ("bounded-projection", "branches.bounded-projection", ""),
                ("power-in-subgroup", "branches.power-in-subgroup", ""),
            ])),
            "random": Mode(_cmd_random_axes, (_QUANTITY, [
                ("triples", "triples", ""), *_PROJECTION_ROWS,
            ]), _PROJECTION_FIELDS),
            "axes": Mode(_cmd_explicit_axes, (_QUANTITY, [
                ("axes", "axes", ""), *_PROJECTION_ROWS,
            ]), _PROJECTION_FIELDS),
        },
    ),
}


def _load_job(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            job = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read job file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(
            f"job file is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    job = _block(JOB_FIELDS, "a JSON object")(job, "job document")
    if job["schema"] != JOB_SCHEMA:
        raise InvalidInputError(f"unsupported schema {job['schema']!r}; expected {JOB_SCHEMA!r}")
    if job["command"] not in COMMANDS:
        raise InvalidInputError(
            f"unknown command {job['command']!r}; choose from {sorted(COMMANDS)}"
        )
    return job


@contextlib.contextmanager
def _digit_limit():
    """Turns the interpreter's limit on int-to-text digits into a resource
    limit, for a count too long to write."""
    try:
        yield
    except ValueError as exc:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit or "integer string conversion" not in str(exc):
            raise
        raise ResourceLimitError(
            f"a number in the report has more than {limit} digits, the limit "
            "sys.get_int_max_str_digits() sets on writing an int"
        ) from exc


def _file_key(path: str):
    """What names one file: its device and inode if it exists, else the
    path with every symlink resolved."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


@contextlib.contextmanager
def _outputs(paths: list[str]):
    """The files at paths, all opened before any is written, so that a path
    that cannot be opened leaves no output behind.  Each is opened to append,
    which keeps a file that was there as it was, and a regular file is
    emptied only once all are open; if one cannot be opened, the files this
    call created before it are removed.  Two paths naming one file, a failed
    open and a failed write are invalid input."""
    if len(set(map(_file_key, paths))) < len(paths):
        raise InvalidInputError(f"output paths {' and '.join(paths)} name the same file")
    handles, created = [], []
    try:
        with contextlib.ExitStack() as stack:
            for path in paths:
                existed = os.path.lexists(path)
                handles.append(stack.enter_context(open(path, "a", encoding="utf-8")))
                if not existed:
                    created.append(path)
            for fh in handles:
                if os.path.isfile(fh.name):
                    fh.seek(0)
                    fh.truncate()
            yield handles
    except OSError as exc:
        if len(handles) < len(paths):
            for path in created:
                os.remove(path)
        raise InvalidInputError(f"cannot write output file: {exc}") from exc


def _resolve_budgets(job: dict, args) -> dict:
    """The job's budgets over the command's defaults, with the flag overrides."""
    budgets = {**COMMANDS[job["command"]].budgets, **job["budgets"]}
    budgets.update((n, getattr(args, n)) for n in BUDGET_FIELDS if getattr(args, n) is not None)
    budgets = _checked(budgets, BUDGET_FIELDS, "budget", "budget")
    return {name: value for name, value in budgets.items() if value is not None}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    main() call: building it costs as much as a small job, and parse_args
    leaves it unchanged.  Callers must not add to it."""
    parser = argparse.ArgumentParser(
        prog="growthtight",
        description="Growth exponents of free groups, factor-avoidance languages, "
        "L^p products and their quotients.",
    )
    parser.add_argument("--version", action="version", version=f"growthtight {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    run = sub.add_parser("run", help="run a job document")
    run.add_argument("job", help="path to a growthtight/job-v1 JSON file")
    run.add_argument("--out", help="write the JSON report to this path")
    run.add_argument("--csv", help="write per-radius counts as CSV to this path")
    run.add_argument("--r-max", dest="r_max", type=int, help="override the radius budget")
    run.add_argument("--tol", type=float, help="override the tolerance budget")
    run.add_argument("--cutoff", type=int, help="override the enumeration cutoff")
    run.add_argument("--quiet", action="store_true", help="suppress the table output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        job = _load_job(args.job)
        command = COMMANDS[job["command"]]
        budgets = _resolve_budgets(job, args)
        params = _checked(job["params"], command.params, "", "parameter")
        mode = command.mode or _mode(params, command.modes)
        results = mode.run(params, budgets)
        resolved = {
            "schema": JOB_SCHEMA,
            "command": job["command"],
            "params": job["params"],
            "budgets": budgets,
        }
        report = build_report(__version__, resolved, results)
        csv_path = args.csv or job["output"]["csv"]
        with _digit_limit():
            text = canonical_json(report)
            table = None if args.quiet else render_table(mode.table, json.loads(text)["results"])
            csv = None
            if csv_path and "balls" in results:
                csv = CountSequence.from_balls(results["balls"]).to_csv()
        files = [
            (path, body) for path, body in ((args.out, text), (csv_path, csv)) if path and body
        ]
        with _outputs([path for path, _ in files]) as handles:
            for fh, (_, body) in zip(handles, files):
                fh.write(body)
        if table is not None:
            print(table)
        if not args.out:
            print(text, end="")
        return 0
    except InvalidInputError as exc:
        print(f"growthtight: invalid input: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"growthtight: resource limit: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"growthtight: internal invariant breach: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # keep the exit-status contract for anything else
        print(f"growthtight: internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
