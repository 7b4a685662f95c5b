"""Command-line driver: run a job document, emit a table and a JSON report.

Jobs are JSON files with schema "growthtight/job-v1":

    {"schema": "growthtight/job-v1",
     "command": "count" | "exponent" | "avoid" | "ghat" | "product"
              | "quotient" | "tightness" | "axioms",
     "params": {...},
     "budgets": {"r_max": int, "tol": float, "cutoff": int},
     "output": {"csv": path}}

The CLI is job plumbing: it checks a job, calls the library and shapes the
report.  COMMANDS holds one Command record per command: its parameter table,
budget defaults and Mode, the run function and the table spec.  avoid and
axioms hold one Mode per mode block (avoid factors or sweep, axioms lemma31,
random or axes) with the fields only it reads.  A run function parses its
parameters and returns the results of library calls (the sweeps are
avoid_sweep, shorten_sweep, lemma31_sweep and random_axis_family, and every
other language is an automata.Language record, which the CLI only reads): the
table (reports.render_table) and the CSV (the report's balls) are views of the
report, built only when written.  The parameter tables, JOB_FIELDS,
BUDGET_FIELDS and _ORACLES (one per quotient kind) give every field a job may
hold its kind and default.  An unknown field at any level, a missing required
one, a wrong kind, a number that is not finite (p aside), no mode block or
two, or a field only another block reads is invalid input.

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
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

from . import __version__
from .automata import CountSequence, Language, avoid_sweep, once_each
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
    Axis,
    check_projection_axioms,
    ghat_language,
    lemma31_sweep,
    random_axis_family,
    shorten_sweep,
    shorten_threshold,
)
from .words import DEFAULT_ENUMERATION_CUTOFF, Alphabet, format_word, parse_word

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
    "cutoff": (NATURAL, DEFAULT_ENUMERATION_CUTOFF),
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
    language = Language(alphabet, words)
    results = {key: [format_word(f) for f in words]}
    if bracket:
        results[bracket] = language.bracket(budgets["tol"])
    return {**results, **_counts_result(language.counts(budgets["r_max"]))}


def _cmd_count(params: dict, budgets: dict, bracket: str = "") -> dict:
    alphabet = Alphabet(params["rank"])
    forbidden = [parse_word(alphabet, t) for t in params["forbidden"]]
    return {"rank": alphabet.rank, **_language(alphabet, "forbidden", forbidden, budgets, bracket)}


def _cmd_exponent(params: dict, budgets: dict) -> dict:
    results = _cmd_count(params, budgets, "spectral")
    b = check_subadditivity(results["balls"])
    return {**results, "fekete": fekete_bracket(results["balls"], b), "subadditivity_b": b}


def _cmd_avoid_sweep(params: dict, budgets: dict) -> dict:
    block = params["sweep"]
    return avoid_sweep(
        Alphabet(params["rank"]), block["max_len"], block["margin"], budgets["tol"],
        cutoff=budgets["cutoff"],
    )


def _cmd_avoid_factors(params: dict, budgets: dict) -> dict:
    alphabet = Alphabet(params["rank"])
    factors = [parse_word(alphabet, t) for t in params["factors"]]
    results = {"rank": alphabet.rank, **_language(alphabet, "factors", factors, budgets, "bracket")}
    if params["compare_inverse"]:
        sym = factors + [g for g in dict.fromkeys(~f for f in factors) if g not in factors]
        results["with_inverses"] = _language(alphabet, "factors", sym, budgets, "bracket")
    return results


def _cmd_ghat(params: dict, budgets: dict) -> dict:
    alphabet = Alphabet(params["rank"])
    h = parse_word(alphabet, params["h"])
    block, tol, r_max = params["shorten_sweep"], budgets["tol"], budgets["r_max"]
    # m is checked here and the automata are built on first use, so the sweep
    # block is checked before any other work
    ghat, full = ghat_language(alphabet, h, params["m"]), Language(alphabet)
    sweep = {} if block is None else {"shorten_sweep": shorten_sweep(
        alphabet, h, block["g_max"], block["K"], cutoff=budgets["cutoff"]
    )}
    bracket, full_bracket = ghat.bracket(tol), full.bracket(tol)
    seq = ghat.counts(r_max)
    gap = strict_gap_check(seq.balls(), full.counts(r_max).balls(), tol * 10, bracket, full_bracket)
    return {
        "rank": alphabet.rank,
        "h": format_word(h),
        "m": params["m"],
        "shorten_threshold": shorten_threshold(h),
        "bracket": bracket,
        "full_bracket": full_bracket,
        "gap": gap,
        "divergence": divergence_at_critical(seq.balls(), bracket),
        **_counts_result(seq),
        **sweep,
    }


def _product_spec(params: dict) -> LpProductSpec:
    alphabets = tuple(Alphabet(f["rank"]) for f in params["factors"])
    return LpProductSpec(alphabets, parse_exponent(params["p"]))


def _cmd_product(params: dict, budgets: dict) -> dict:
    spec = _product_spec(params)
    r_max = budgets["r_max"]
    # factors of one rank share the free group's automaton, counts and bracket
    free = list(map(Language, spec.factors))
    factor_spheres = once_each(free, Language.counts, r_max)
    brackets = once_each(free, Language.bracket, budgets["tol"])
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
        results["structure_check"] = check_prop_minimal(
            spec, oracle, spec.point(h_words), check["K"], r_max, cutoff=budgets["cutoff"]
        )
    else:
        results["section_size"] = balls[-1]
    return results


def _cmd_tightness(params: dict, budgets: dict) -> dict:
    spec = _product_spec(params)
    return vars(tightness_verdict(spec, params["oracle"], budgets["r_max"], budgets["tol"]))


def _cmd_lemma31(params: dict, budgets: dict) -> dict:
    alphabet = Alphabet(params["rank"])
    block = params["lemma31"]
    h = parse_word(alphabet, block["h"])
    return lemma31_sweep(alphabet, h, block["g_max"], block["n_max"], cutoff=budgets["cutoff"])


def _cmd_random_axes(params: dict, budgets: dict) -> dict:
    alphabet = Alphabet(params["rank"])
    samples = [parse_word(alphabet, t) for t in params["samples"]]
    return random_axis_family(alphabet, samples, params["candidate_xi"], **params["random"])


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
