"""Command-line driver: run a job document, emit a table and a JSON report.

Jobs are JSON files with schema "growthtight/job-v1":

    {"schema": "growthtight/job-v1",
     "command": "count" | "exponent" | "avoid" | "ghat" | "product"
              | "quotient" | "tightness" | "axioms",
     "params": {...},
     "budgets": {"r_max": int, "tol": float, "cutoff": int}}

Words use the letter grammar "a b a-" ("-" or "'" marks an inverse; "" or "1"
is the identity).  Exit status: 0 ok, 2 invalid input, 3 resource limit,
4 internal invariant breach.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import sys

from . import __version__
from .automata import (
    CountSequence,
    avoid_factors,
    count_lengths,
    perron_root,
    reduced_word_automaton,
)
from .errors import InternalInvariantError, InvalidInputError, ResourceLimitError
from .growth import (
    check_subadditivity,
    divergence_at_critical,
    fekete_bracket,
    strict_gap_check,
)
from .products import LpProductSpec, parse_exponent, verify_duality
from .quotients import (
    QuotientOracle,
    check_prop_minimal,
    quotient_ball_counts,
    tightness_verdict,
)
from .reports import JOB_SCHEMA, build_report, canonical_json, format_table
from .tree import (
    D_TREE,
    Axis,
    check_projection_axioms,
    ghat_automaton,
    lemma31_bound_check,
    same_line,
    shorten,
    shorten_threshold,
    walk_ghat_ball,
)
from .words import Alphabet, ReducedWord, enumerate_sphere, format_word, parse_word

BUDGET_DEFAULTS = {
    "count": {"r_max": 10},
    "exponent": {"r_max": 14},
    "avoid": {"r_max": 10},
    "ghat": {"r_max": 10},
    "product": {"r_max": 12},
    "quotient": {"r_max": 6},
    "tightness": {"r_max": 8, "tol": 0.08},
    "axioms": {},
}
COMMON_BUDGETS = {"tol": 1e-9, "cutoff": 14}


def _non_negative_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _positive_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value > 0


# budget name -> (check, what the check demands)
BUDGET_CHECKS = {
    "r_max": (_non_negative_int, "a non-negative integer"),
    "cutoff": (_non_negative_int, "a non-negative integer"),
    "tol": (_positive_real, "a positive number"),
}


def _require(params: dict, name: str):
    if name not in params:
        raise InvalidInputError(f"missing required parameter {name!r}")
    return params[name]


def _alphabet(params: dict) -> Alphabet:
    return Alphabet(_require(params, "rank"))


def _parse_words(alphabet: Alphabet, texts, what: str) -> list[ReducedWord]:
    if not isinstance(texts, list):
        raise InvalidInputError(f"{what} must be a list of word strings")
    return [parse_word(alphabet, t) for t in texts]


def _counts_result(seq) -> dict:
    return {"spheres": list(seq.spheres), "balls": seq.balls()}


def _counts_table(seq) -> str:
    balls = seq.balls()
    return format_table(
        ["r", "sphere", "ball"],
        [(r, seq[r], balls[r]) for r in range(len(seq))],
    )


def _cmd_count(params: dict, budgets: dict):
    alphabet = _alphabet(params)
    forbidden = _parse_words(alphabet, params.get("forbidden", []), "forbidden")
    aut = reduced_word_automaton(alphabet)
    if forbidden:
        aut = avoid_factors(aut, forbidden)
    seq = count_lengths(aut, budgets["r_max"])
    results = {
        "rank": alphabet.rank,
        "forbidden": [format_word(f) for f in forbidden],
        **_counts_result(seq),
    }
    return results, _counts_table(seq), seq.to_csv()


def _cmd_exponent(params: dict, budgets: dict):
    alphabet = _alphabet(params)
    forbidden = _parse_words(alphabet, params.get("forbidden", []), "forbidden")
    aut = reduced_word_automaton(alphabet)
    if forbidden:
        aut = avoid_factors(aut, forbidden)
    bracket = perron_root(aut, budgets["tol"])
    seq = count_lengths(aut, budgets["r_max"])
    balls = seq.balls()
    b, _ = check_subadditivity(balls)
    fek = fekete_bracket(balls, b)
    results = {
        "rank": alphabet.rank,
        "forbidden": [format_word(f) for f in forbidden],
        "spectral": bracket.to_dict(),
        "fekete": fek.to_dict(),
        "subadditivity_b": b,
        **_counts_result(seq),
    }
    table = format_table(
        ["method", "lower", "upper"],
        [
            ("spectral", f"{bracket.lower:.12f}", f"{bracket.upper:.12f}"),
            ("fekete", f"{fek.lower:.6f}", f"{fek.upper:.6f}"),
        ],
    )
    return results, table, seq.to_csv()


def _avoid_sweep(alphabet: Alphabet, block, budgets: dict):
    """One avoidance language per non-trivial f with |f| <= max_len."""
    if not isinstance(block, dict):
        raise InvalidInputError("sweep must be an object")
    max_len = _sweep_radius(_require(block, "max_len"), budgets, "max_len")
    threshold = block.get("margin", 1e-6)
    full = math.log(2 * alphabet.rank - 1)
    base = reduced_word_automaton(alphabet)
    entries = []
    worst = None
    for length in range(1, max_len + 1):
        for f in enumerate_sphere(alphabet, length, cutoff=budgets["cutoff"]):
            upper = perron_root(avoid_factors(base, [f]), budgets["tol"]).upper
            entry = {
                "f": format_word(f),
                "upper": upper,
                "margin": full - threshold - upper,
            }
            entries.append(entry)
            if worst is None or entry["margin"] < worst["margin"]:
                worst = entry
    results = {
        "rank": alphabet.rank,
        "max_len": max_len,
        "margin_threshold": threshold,
        "full_exponent": full,
        "languages": len(entries),
        "worst": worst,
        "all_strictly_below": all(e["margin"] > 0 for e in entries),
        "entries": entries,
    }
    table = format_table(
        ["quantity", "value"],
        [
            ("languages", len(entries)),
            ("worst f", worst["f"]),
            ("worst upper", f"{worst['upper']:.9f}"),
            ("worst margin", f"{worst['margin']:.9f}"),
            ("all strictly below", results["all_strictly_below"]),
        ],
    )
    return results, table, None


def _cmd_avoid(params: dict, budgets: dict):
    alphabet = _alphabet(params)
    if "sweep" in params:
        return _avoid_sweep(alphabet, params["sweep"], budgets)
    factors = _parse_words(alphabet, _require(params, "factors"), "factors")
    if not factors:
        raise InvalidInputError("factors must be non-empty")
    base = reduced_word_automaton(alphabet)
    aut = avoid_factors(base, factors)
    bracket = perron_root(aut, budgets["tol"])
    seq = count_lengths(aut, budgets["r_max"])
    results = {
        "rank": alphabet.rank,
        "factors": [format_word(f) for f in factors],
        "bracket": bracket.to_dict(),
        **_counts_result(seq),
    }
    rows = [("avoid", f"{bracket.lower:.9f}", f"{bracket.upper:.9f}")]
    if params.get("compare_inverse", True):
        sym = list(factors)
        for f in factors:
            if ~f not in sym:
                sym.append(~f)
        aut2 = avoid_factors(base, sym)
        bracket2 = perron_root(aut2, budgets["tol"])
        seq2 = count_lengths(aut2, budgets["r_max"])
        results["with_inverses"] = {
            "factors": [format_word(f) for f in sym],
            "bracket": bracket2.to_dict(),
            **_counts_result(seq2),
        }
        rows.append(
            ("avoid+inverses", f"{bracket2.lower:.9f}", f"{bracket2.upper:.9f}")
        )
    return results, format_table(["language", "lower", "upper"], rows), seq.to_csv()


def _cmd_ghat(params: dict, budgets: dict):
    alphabet = _alphabet(params)
    h = parse_word(alphabet, _require(params, "h"))
    m = _require(params, "m")
    sweep = None
    if "shorten_sweep" in params:
        sweep = _shorten_sweep_params(h, params["shorten_sweep"], budgets)
    aut = ghat_automaton(alphabet, h, m)
    bracket = perron_root(aut, budgets["tol"])
    seq = count_lengths(aut, budgets["r_max"])
    base = reduced_word_automaton(alphabet)
    base_bracket = perron_root(base, budgets["tol"])
    base_seq = count_lengths(base, budgets["r_max"])
    gap = strict_gap_check(
        seq.balls(), base_seq.balls(), budgets["tol"] * 10, bracket, base_bracket
    )
    divergence = divergence_at_critical(seq.balls(), bracket)
    results = {
        "rank": alphabet.rank,
        "h": format_word(h),
        "m": m,
        "shorten_threshold": shorten_threshold(h),
        "bracket": bracket.to_dict(),
        "full_bracket": base_bracket.to_dict(),
        "gap": gap.to_dict(),
        "divergence": divergence.to_dict(),
        **_counts_result(seq),
    }
    rows = [
        ("restricted", f"{bracket.lower:.9f}", f"{bracket.upper:.9f}"),
        ("full", f"{base_bracket.lower:.9f}", f"{base_bracket.upper:.9f}"),
    ]
    if sweep is not None:
        sw = results["shorten_sweep"] = _shorten_sweep(alphabet, h, *sweep)
        rows.append(("swept words", f"{sw['checked']}", ""))
        rows.append(("shortened", f"{sw['shortened']}", ""))
        rows.append(("failures", f"{len(sw['failures'])}", ""))
    table = format_table(["language", "lower", "upper"], rows)
    return results, table, seq.to_csv()


def _sweep_radius(radius, budgets: dict, name: str = "g_max") -> int:
    """A sweep radius, checked against the cutoff before any word is visited."""
    if not _non_negative_int(radius):
        raise InvalidInputError(f"{name} must be a non-negative integer, got {radius!r}")
    if radius > budgets["cutoff"]:
        raise ResourceLimitError(
            f"{name} {radius} exceeds enumeration cutoff {budgets['cutoff']}"
        )
    return radius


def _shorten_sweep_params(h: ReducedWord, block, budgets: dict) -> tuple[int, int]:
    """(g_max, K) of a shorten_sweep block; K defaults to shorten_threshold(h)
    and may not lie below it."""
    if not isinstance(block, dict):
        raise InvalidInputError("shorten_sweep must be an object")
    g_max = _sweep_radius(_require(block, "g_max"), budgets)
    threshold = shorten_threshold(h)
    K = block.get("K", threshold)
    if not isinstance(K, int) or isinstance(K, bool):
        raise InvalidInputError(f"shorten_sweep K must be an integer, got {K!r}")
    if K < threshold:
        raise InvalidInputError(
            f"shorten_sweep K={K!r} below the shortening threshold {threshold} of h"
        )
    return g_max, K


def _shorten_sweep(alphabet: Alphabet, h: ReducedWord, g_max: int, K: int) -> dict:
    """Exhaustive shortening check: every g with |g| <= g_max outside Ghat(K)
    must get strictly shorter, to k h^-alpha k^-1 g.

    The ball is walked through the Ghat(K) automaton (walk_ghat_ball), so only
    the words outside Ghat(K) reach shorten.  checked counts the ball,
    in_ghat the words in Ghat(K), shortened the other words that passed;
    failures lists the rest in shortlex order.
    """
    shortened = 0
    failures: list[ReducedWord] = []

    def check(g: ReducedWord) -> None:
        nonlocal shortened
        res = shorten(g, h, K)
        recomposed = (
            res is not None
            and res.g_prime == res.k * h ** (-res.alpha) * ~res.k * g
        )
        if res is None or len(res.g_prime) >= len(g) or not recomposed:
            failures.append(g)
        else:
            shortened += 1

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
    factors = _require(params, "factors")
    if not isinstance(factors, list) or not factors:
        raise InvalidInputError("factors must be a non-empty list of {\"rank\": k}")
    alphabets = []
    for i, f in enumerate(factors):
        if not isinstance(f, dict) or "rank" not in f:
            raise InvalidInputError(f"factor {i} must be an object with a rank")
        alphabets.append(Alphabet(f["rank"]))
    return LpProductSpec(tuple(alphabets), parse_exponent(_require(params, "p")))


def _cmd_product(params: dict, budgets: dict):
    spec = _product_spec(params)
    r_max = budgets["r_max"]
    automata = [reduced_word_automaton(a) for a in spec.factors]
    factor_counts = [count_lengths(aut, r_max) for aut in automata]
    brackets = [perron_root(aut, budgets["tol"]) for aut in automata]
    exponents = [(b.lower + b.upper) / 2 for b in brackets]
    report = verify_duality(spec, factor_counts, r_max, exponents)
    results = report.to_dict()
    results["factor_brackets"] = [b.to_dict() for b in brackets]
    table = format_table(
        ["quantity", "value"],
        [
            ("predicted", f"{report.predicted:.6f}"),
            ("measured lower", f"{report.measured.lower:.6f}"),
            ("measured upper", f"{report.measured.upper:.6f}"),
            ("deviation", f"{report.deviation:.6f}"),
            ("contains predicted", report.contains_predicted),
        ],
    )
    return results, table, CountSequence.from_balls(report.balls).to_csv()


def _parse_oracle(block) -> QuotientOracle:
    if not isinstance(block, dict) or "kind" not in block:
        raise InvalidInputError("oracle must be an object with a kind")
    kind = block["kind"]
    if kind == "factor-kernel":
        return QuotientOracle.factor_kernel(block.get("kill", []))
    if kind == "abelianization-kernel":
        return QuotientOracle.abelianization()
    if kind == "homomorphism-to-integers":
        return QuotientOracle.hom_to_integers(block.get("coefficients", []))
    raise InvalidInputError(f"unknown oracle kind {kind!r}")


def _cmd_quotient(params: dict, budgets: dict):
    spec = _product_spec(params)
    oracle = _parse_oracle(_require(params, "oracle"))
    r_max = budgets["r_max"]
    seq = quotient_ball_counts(spec, oracle, r_max)
    balls = seq.balls()
    b, _ = check_subadditivity(balls)
    fek = fekete_bracket(balls, b)
    results = {
        "oracle": oracle.describe(),
        "p": "inf" if spec.p == math.inf else spec.p,
        "fekete": fek.to_dict(),
        "subadditivity_b": b,
        **_counts_result(seq),
    }
    if "check" in params:
        check = params["check"]
        h_words = [
            parse_word(a, t) for a, t in zip(spec.factors, _require(check, "h"))
        ]
        K = _require(check, "K")
        struct = check_prop_minimal(
            spec, oracle, spec.point(h_words), K, r_max, cutoff=budgets["cutoff"]
        )
        results["structure_check"] = struct.to_dict()
    elif oracle.kind != "factor-kernel":
        results["section_size"] = balls[-1]
    return results, _counts_table(seq), seq.to_csv()


def _cmd_tightness(params: dict, budgets: dict):
    spec = _product_spec(params)
    oracle = _parse_oracle(_require(params, "oracle"))
    report = tightness_verdict(spec, oracle, budgets["r_max"], budgets["tol"])
    results = report.to_dict()
    table = format_table(
        ["quantity", "value"],
        [
            ("verdict", report.verdict),
            ("delta_G", f"[{report.delta_g.lower:.6f}, {report.delta_g.upper:.6f}]"),
            ("delta_G/N", f"[{report.delta_gn.lower:.6f}, {report.delta_gn.upper:.6f}]"),
            ("gap", f"{report.gap:.6f}"),
        ],
    )
    return results, table, None


def _random_reduced_word(rng: random.Random, alphabet: Alphabet, length: int, cyclic: bool):
    letters: list[int] = []
    for _ in range(length):
        options = [
            x
            for x in alphabet.letters
            if (not letters or x != letters[-1] ^ 1)
            and not (
                cyclic and len(letters) == length - 1 and letters and x == letters[0] ^ 1
            )
        ]
        letters.append(rng.choice(options))
    return ReducedWord(alphabet, tuple(letters))


def _random_axis(rng: random.Random, alphabet: Alphabet, core_max: int, conj_max: int) -> Axis:
    while True:
        core_len = rng.randint(1, core_max)
        conj_len = rng.randint(0, conj_max)
        core = _random_reduced_word(rng, alphabet, core_len, cyclic=True)
        conj = _random_reduced_word(rng, alphabet, conj_len, cyclic=False)
        h = conj * core * ~conj
        if h:
            return Axis.from_element(h)


def _lemma31_sweep(alphabet: Alphabet, block, budgets: dict):
    """Exhaustive power-or-bounded-projection dichotomy check over a ball."""
    if not isinstance(block, dict):
        raise InvalidInputError("lemma31 must be an object")
    h = parse_word(alphabet, _require(block, "h"))
    g_max = _sweep_radius(block.get("g_max", 4), budgets)
    n_max = block.get("n_max", 8)
    ax = Axis.from_element(h)
    checked = failures = 0
    branches: dict[str, int] = {}
    for r in range(1, g_max + 1):
        for g in enumerate_sphere(alphabet, r, cutoff=budgets["cutoff"]):
            rep = lemma31_bound_check(ax, g, n_max)
            checked += 1
            branches[rep.branch] = branches.get(rep.branch, 0) + 1
            if not rep.passed:
                failures += 1
    results = {
        "mode": "lemma31",
        "h": format_word(h),
        "g_max": g_max,
        "n_max": n_max,
        "d_tree": D_TREE,
        "checked": checked,
        "branches": branches,
        "failures": failures,
    }
    rows = [
        ("checked", checked),
        ("failures", failures),
        ("d_tree", D_TREE),
    ] + sorted(branches.items())
    return results, format_table(["quantity", "value"], rows), None


def _cmd_axioms(params: dict, budgets: dict):
    alphabet = _alphabet(params)
    if "lemma31" in params:
        return _lemma31_sweep(alphabet, params["lemma31"], budgets)
    samples = _parse_words(alphabet, params.get("samples", []), "samples")
    candidate = params.get("candidate_xi")
    if "random" in params:
        block = params["random"]
        rng = random.Random(block.get("seed", 0))
        n_triples = block.get("triples", 50)
        core_max = block.get("core_max", 3)
        conj_max = block.get("conjugator_max", 1)
        xi_max = 0
        total_violations = 0
        for _ in range(n_triples):
            axes = []
            while len(axes) < 3:
                ax = _random_axis(rng, alphabet, core_max, conj_max)
                if not any(same_line(ax, other) for other in axes):
                    axes.append(ax)
            xi, violations = check_projection_axioms(axes, samples, candidate)
            xi_max = max(xi_max, xi)
            total_violations += len(violations)
        bound = core_max + 2 * conj_max
        results = {
            "mode": "random",
            "triples": n_triples,
            "xi_observed": xi_max,
            "bound": bound,
            "within_bound": xi_max <= bound,
            "violations": total_violations,
        }
        rows = [
            ("triples", n_triples),
            ("xi_observed", xi_max),
            ("bound", bound),
            ("violations", total_violations),
        ]
    else:
        axis_specs = _require(params, "axes")
        axes = []
        for item in axis_specs:
            if isinstance(item, str):
                axes.append(Axis.from_element(parse_word(alphabet, item)))
            else:
                h = parse_word(alphabet, _require(item, "h"))
                translate = parse_word(alphabet, item.get("translate", "1"))
                axes.append(Axis.from_element(h, translate))
        xi, violations = check_projection_axioms(axes, samples, candidate)
        bound = max(len(ax.core) for ax in axes) + 2 * max(
            len(ax.conjugator) for ax in axes
        )
        results = {
            "mode": "explicit",
            "axes": [format_word(ax.element) for ax in axes],
            "xi_observed": xi,
            "bound": bound,
            "within_bound": xi <= bound,
            "violations": violations,
        }
        rows = [
            ("axes", len(axes)),
            ("xi_observed", xi),
            ("bound", bound),
            ("violations", len(violations)),
        ]
    return results, format_table(["quantity", "value"], rows), None


COMMANDS = {
    "count": _cmd_count,
    "exponent": _cmd_exponent,
    "avoid": _cmd_avoid,
    "ghat": _cmd_ghat,
    "product": _cmd_product,
    "quotient": _cmd_quotient,
    "tightness": _cmd_tightness,
    "axioms": _cmd_axioms,
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
    if not isinstance(job, dict):
        raise InvalidInputError("job document must be a JSON object")
    if job.get("schema") != JOB_SCHEMA:
        raise InvalidInputError(
            f"unsupported schema {job.get('schema')!r}; expected {JOB_SCHEMA!r}"
        )
    command = job.get("command")
    if command not in COMMANDS:
        raise InvalidInputError(
            f"unknown command {command!r}; choose from {sorted(COMMANDS)}"
        )
    output = job.get("output", {})
    if not isinstance(output, dict) or not isinstance(output.get("csv", ""), str):
        raise InvalidInputError("output must be an object with an optional csv path string")
    return job


def _resolve_budgets(job: dict, args) -> dict:
    budgets = dict(COMMON_BUDGETS)
    budgets.update(BUDGET_DEFAULTS[job["command"]])
    declared = job.get("budgets", {})
    if not isinstance(declared, dict):
        raise InvalidInputError("budgets must be an object")
    unknown = sorted(set(declared) - set(BUDGET_CHECKS))
    if unknown:
        raise InvalidInputError(
            f"unknown budget {unknown[0]!r}; choose from {sorted(BUDGET_CHECKS)}"
        )
    budgets.update(declared)
    for name in ("r_max", "tol", "cutoff"):
        override = getattr(args, name, None)
        if override is not None:
            budgets[name] = override
    for name, (check, demand) in BUDGET_CHECKS.items():
        if name in budgets and not check(budgets[name]):
            raise InvalidInputError(f"budget {name} must be {demand}, got {budgets[name]!r}")
    return budgets


def build_parser() -> argparse.ArgumentParser:
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
        budgets = _resolve_budgets(job, args)
        params = job.get("params", {})
        if not isinstance(params, dict):
            raise InvalidInputError("params must be an object")
        results, table, csv_text = COMMANDS[job["command"]](params, budgets)
        resolved = {
            "schema": JOB_SCHEMA,
            "command": job["command"],
            "params": params,
            "budgets": budgets,
        }
        report = build_report(__version__, resolved, results)
        if not args.quiet:
            print(table)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(canonical_json(report))
        else:
            print(canonical_json(report), end="")
        csv_path = args.csv or job.get("output", {}).get("csv")
        if csv_path and csv_text is not None:
            with open(csv_path, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
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