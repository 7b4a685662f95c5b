"""Quotient pseudo-metrics via coset-key oracles, minimal sections, and the
growth-tightness verdict engine.

A QuotientOracle maps group elements to canonical coset identifiers for the
kernel N of a computable homomorphism; counting distinct keys by L^p length
realizes the quotient pseudo-metric's ball counts without solving any word
problem.  The built-in kernels act coordinate by coordinate, so their counts
come from per-factor images, so counting enumerates nothing.  A minimal
section keeps the first product point per key in (length, tuple-shortlex)
order; since a key depends only on the per-coordinate parts, its scan runs
over the first word of each part value in each factor sphere, not over every
product point (see minimal_section).  The abelianization and homomorphism
parts add up letter by letter, so those first words are spelled from the
per-letter parts without listing any sphere; only a factor-kernel section
lists words.  The enumeration cutoff bounds the section radius of every kind.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .automata import CountSequence, avoid_factors, perron_root
from .errors import InvalidInputError, ResourceLimitError
from .growth import GrowthBracket, bracket_gap, check_subadditivity, fekete_bracket
from .products import (
    LatticeTable,
    LpProductSpec,
    ProductPoint,
    _check_shape,
    _lp_norm,
    duality_exponent,
    norm_budget,
    norm_key,
)
from .tree import ghat_membership_exact, shorten_threshold
from .words import (
    DEFAULT_ENUMERATION_CUTOFF,
    Alphabet,
    ReducedWord,
    _word,
    enumerate_sphere,
    format_word,
    sphere_size,
)

ORACLE_KINDS = (
    "factor-kernel",
    "abelianization-kernel",
    "homomorphism-to-integers",
)


class QuotientOracle:
    """Coset-key oracle for one of the built-in normal-subgroup kinds.

    key(point) is constant on cosets gN and separates them within the radii we
    enumerate; normality holds by construction (kernels of homomorphisms, or
    projection onto surviving factors).
    """

    def __init__(
        self,
        kind: str,
        killed: Sequence[int] = (),
        coefficients: Sequence[Sequence[int]] = (),
    ):
        if kind not in ORACLE_KINDS:
            raise InvalidInputError(f"unknown oracle kind {kind!r}")
        self.kind = kind
        self.killed = frozenset(killed)
        self.coefficients = tuple(tuple(row) for row in coefficients)
        # a field of another kind would be ignored, running another quotient
        if self.killed and kind != "factor-kernel":
            raise InvalidInputError(f"oracle kill applies only to factor-kernel, not {kind}")
        if self.coefficients and kind != "homomorphism-to-integers":
            raise InvalidInputError(
                f"oracle coefficients apply only to homomorphism-to-integers, not {kind}"
            )
        if kind == "factor-kernel" and any(i < 0 for i in self.killed):
            raise InvalidInputError("killed factor indices must be >= 0")
        if kind == "homomorphism-to-integers" and not self.coefficients:
            raise InvalidInputError("homomorphism oracle needs coefficient rows")

    @classmethod
    def factor_kernel(cls, killed: Sequence[int]) -> "QuotientOracle":
        return cls("factor-kernel", killed=killed)

    @classmethod
    def abelianization(cls) -> "QuotientOracle":
        return cls("abelianization-kernel")

    @classmethod
    def hom_to_integers(cls, coefficients: Sequence[Sequence[int]]) -> "QuotientOracle":
        return cls("homomorphism-to-integers", coefficients=coefficients)

    def validate_for(self, spec: LpProductSpec) -> None:
        if self.kind == "factor-kernel":
            bad = [i for i in self.killed if i >= spec.n]
            if bad:
                raise InvalidInputError(f"killed indices {bad} out of range for n={spec.n}")
        if self.kind == "homomorphism-to-integers":
            if len(self.coefficients) != spec.n:
                raise InvalidInputError(
                    f"{len(self.coefficients)} coefficient rows for {spec.n} factors"
                )
            for i, (row, alphabet) in enumerate(zip(self.coefficients, spec.factors)):
                if len(row) != alphabet.rank:
                    raise InvalidInputError(
                        f"coefficient row {i} has {len(row)} entries, rank is {alphabet.rank}"
                    )

    def part(self, index: int, word: ReducedWord):
        """Per-coordinate contribution to the coset key."""
        if self.kind == "factor-kernel":
            return None if index in self.killed else word.letters
        if self.kind == "abelianization-kernel":
            return word.exponent_sums()
        sums = word.exponent_sums()
        return sum(c * s for c, s in zip(self.coefficients[index], sums))

    def combine(self, parts: Sequence):
        if self.kind == "factor-kernel":
            return tuple(p for p in parts if p is not None)
        if self.kind == "abelianization-kernel":
            return tuple(parts)
        return sum(parts)

    def key(self, point: ProductPoint):
        return self.combine([self.part(i, w) for i, w in enumerate(point.coords)])

    def describe(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "factor-kernel":
            out["kill"] = sorted(self.killed)
        if self.kind == "homomorphism-to-integers":
            out["coefficients"] = [list(r) for r in self.coefficients]
        return out


@dataclass(frozen=True)
class MinimalSection:
    """One shortest (then coordinate-wise shortlex least) representative per
    coset key seen within the enumeration radius."""

    entries: dict
    radius: float

    @property
    def size(self) -> int:
        return len(self.entries)


def _vector_sum(u: tuple, v: tuple) -> tuple:
    return tuple(map(operator.add, u, v))


def _first_words_by_part(
    oracle: QuotientOracle, index: int, alphabet: Alphabet, r_max: int
) -> list[list]:
    """reps[r] = [(part value, first word of the radius-r sphere with that
    part), ...] in order of first occurrence in the shortlex sphere listing,
    for factor index of an abelianization or homomorphism oracle, whose part
    adds up letter by letter.

    reach[m][prev] maps each part of a reduced word of length m whose first
    letter is not prev ^ 1 to (first letter, part of the rest) of the least
    such word; row 2k has no letter excluded, for no previous letter.  Taking
    the least letter whose rest is reachable at every step spells the lex-first
    word of a part, and sorting those words gives the order of first occurrence.
    """
    part = functools.partial(oracle.part, index)
    add = _vector_sum if oracle.kind == "abelianization-kernel" else operator.add
    letters = alphabet.letters
    start = len(letters)
    letter_parts = [part(_word(alphabet, (x,))) for x in letters]
    identity = alphabet.identity
    zero = part(identity)
    reach = [[{zero: None}] * (start + 1)]
    reps = [[(zero, identity)]]
    for m in range(1, r_max + 1):
        below = reach[-1]
        heads = [{add(px, t): (x, t) for t in below[x]} for x, px in zip(letters, letter_parts)]
        rows = []
        for prev in range(start + 1):
            row: dict = {}
            for x in reversed(letters):  # the least first letter is written last
                if x != prev ^ 1:
                    row.update(heads[x])
            rows.append(row)
        reach.append(rows)
        spelled = []
        for value in rows[start]:
            word, prev, t = [], start, value
            for left in range(m, 0, -1):
                prev, t = reach[left][prev][t]
                word.append(prev)
            spelled.append((tuple(word), value))
        reps.append([(value, _word(alphabet, word)) for word, value in sorted(spelled)])
    return reps


def minimal_section(
    spec: LpProductSpec,
    oracle: QuotientOracle,
    r_max: float,
    cutoff: int = DEFAULT_ENUMERATION_CUTOFF,
) -> MinimalSection:
    """One representative per coset key within L^p length r_max: the first
    orbit point of the key in (length, tuple-shortlex) order.

    A key depends only on the per-coordinate parts, and itertools.product walks
    index tuples lexicographically, so the first tuple to hit a key is made of
    the first word of each part value in every sphere.  Each sphere is
    therefore reduced to its first word per distinct part, in order of first
    occurrence; the reduced product visits those tuples in the same relative
    order, so the entries and their insertion order are those of a scan over
    every product point.  The abelianization and homomorphism parts add up
    letter by letter, so those first words are built from the per-letter
    parts (_first_words_by_part) and no word is listed; a factor-kernel part
    is the word itself, so that kind lists its spheres.  The cutoff bounds
    r_max for every kind.
    """
    oracle.validate_for(spec)
    if r_max < 0:
        raise InvalidInputError(f"r_max must be >= 0, got {r_max}")
    rfloor = math.floor(r_max)
    if rfloor > cutoff:
        raise ResourceLimitError(
            f"sphere radius {cutoff + 1} exceeds enumeration cutoff {cutoff}"
        )
    budget = norm_budget(spec.p, r_max)
    reps = []  # reps[i][r] = [(part, first word with that part), ...]
    for i, alphabet in enumerate(spec.factors):
        if oracle.kind != "factor-kernel":
            reps.append(_first_words_by_part(oracle, i, alphabet, rfloor))
        else:
            per_radius = []
            for r in range(rfloor + 1):
                first: dict = {}
                for w in enumerate_sphere(alphabet, r, cutoff=cutoff):
                    first.setdefault(oracle.part(i, w), w)
                per_radius.append(list(first.items()))
            reps.append(per_radius)
    keyed = [
        (norm_key(spec.p, prof), prof)
        for prof in itertools.product(range(rfloor + 1), repeat=spec.n)
    ]
    profiles = sorted(item for item in keyed if item[0] <= budget)
    section: dict = {}
    for _, prof in profiles:
        length = float(_lp_norm(prof, spec.p))
        for combo in itertools.product(*(reps[i][r] for i, r in enumerate(prof))):
            key = oracle.combine([part for part, _ in combo])
            if key not in section:
                section[key] = (ProductPoint(tuple(w for _, w in combo)), length)
    return MinimalSection(entries=section, radius=r_max)


def _l1_sphere_counts(k: int, r_max: int) -> list[int]:
    """Points of Z^k at l^1 norm r: sum_j 2^j C(k, j) C(r-1, j-1), and 1 at r = 0."""
    return [1] + [
        sum(2**j * math.comb(k, j) * math.comb(r - 1, j - 1) for j in range(1, k + 1))
        for r in range(1, r_max + 1)
    ]


def _image_spheres(
    spec: LpProductSpec, oracle: QuotientOracle, r_max: int
) -> list[Sequence[int]]:
    """Per-factor quotient sphere counts of a coordinate-wise kernel: a killed
    factor is trivial, a surviving one free, an abelianized F_k is Z^k."""
    if oracle.kind == "abelianization-kernel":
        return [_l1_sphere_counts(a.rank, r_max) for a in spec.factors]
    return [
        [1] + [0] * r_max
        if i in oracle.killed
        else [sphere_size(a, r) for r in range(r_max + 1)]
        for i, a in enumerate(spec.factors)
    ]


def _sumset(xs: set, ys: set) -> set:
    return {x + y for x in xs for y in ys}


def _hom_balls(spec: LpProductSpec, oracle: QuotientOracle, r_max: int) -> list[int]:
    """Ball counts of the sum-combined homomorphism to Z: a LatticeTable over
    image sets.  Factor i within word length r reaches {c_i . v : ||v||_1 <= r},
    the r-fold sumset of {0, +-c_ij}; profiles extend partial images by sumset
    and merge by union, so Ball(R) is the union over keys within R's budget."""
    images = []
    for row in oracle.coefficients:
        moves = {0, *row, *(-c for c in row)}
        balls = [{0}]
        for _ in range(r_max):
            balls.append(_sumset(balls[-1], moves))
        images.append(balls)
    table = LatticeTable(
        spec.p, images, r_max, start={0}, extend=_sumset, merge=operator.or_
    )
    return [len(table.ball(r)) for r in range(r_max + 1)]


def quotient_ball_counts(
    spec: LpProductSpec, oracle: QuotientOracle, r_max: int
) -> CountSequence:
    """counts[r] = number of distinct coset keys within L^p length r.

    The built-in kernels are counted from per-factor images, with no
    enumeration: the distance to a coset is the L^p norm of per-factor
    quotient lengths.  Factor kernels and the abelianization are lattice sums
    (LatticeTable) over closed-form per-factor quotient sphere sizes:
    (1, 0, 0, ...) for a killed factor, the free sphere sizes for a surviving
    one, the l^1 spheres of Z^k for an abelianized F_k.  The homomorphism to
    Z is a fold over (profile key, partial images).  No kind enumerates
    words, so no enumeration cutoff applies.
    """
    oracle.validate_for(spec)
    if r_max < 0:
        raise InvalidInputError(f"r_max must be >= 0, got {r_max}")
    if oracle.kind == "homomorphism-to-integers":
        return CountSequence.from_balls(_hom_balls(spec, oracle, r_max))
    images = _image_spheres(spec, oracle, r_max)
    return LatticeTable(spec.p, images, r_max).sequence(r_max)


@dataclass(frozen=True)
class StructureReport:
    checked: int
    K: int
    counterexamples: tuple[tuple[str, tuple[str, ...]], ...]  # (key, words)
    passed: bool


def check_section_structure(
    section: MinimalSection, h_tuple: ProductPoint, K: int
) -> StructureReport:
    """Verify every section representative has some coordinate with no K-long
    positive projection onto the matching h-coordinate's axis."""
    counterexamples = []
    for key, (point, _) in section.entries.items():
        if not any(
            ghat_membership_exact(w, h, K)
            for w, h in zip(point.coords, h_tuple.coords)
        ):
            counterexamples.append((str(key), tuple(format_word(w) for w in point.coords)))
    return StructureReport(
        checked=len(section.entries),
        K=K,
        counterexamples=tuple(counterexamples),
        passed=not counterexamples,
    )


def check_prop_minimal(
    spec: LpProductSpec,
    oracle: QuotientOracle,
    h_tuple: ProductPoint,
    K: int,
    r_max: float,
    cutoff: int = DEFAULT_ENUMERATION_CUTOFF,
) -> StructureReport:
    """Minimal-section structure check: enumerate the section, then demand a
    restricted coordinate in every representative.

    Rationale: if every coordinate of a representative had a K-long positive
    projection, one common shortening step in each coordinate would produce a
    strictly shorter point in the same coset, contradicting minimality.  That
    step exists in every coordinate only when K is at least each coordinate's
    shortening threshold, so a smaller K is invalid input.
    """
    _check_shape(spec, h_tuple)
    if any(not w for w in h_tuple.coords):
        raise InvalidInputError("every coordinate of h_tuple must be non-trivial")
    if not isinstance(K, int) or isinstance(K, bool):
        raise InvalidInputError(f"check K must be an integer, got {K!r}")
    threshold = max(shorten_threshold(h) for h in h_tuple.coords)
    if K < threshold:
        raise InvalidInputError(
            f"check K={K!r} below the shortening threshold {threshold} of h"
        )
    oracle.validate_for(spec)
    if oracle.key(h_tuple) != oracle.key(spec.identity()):
        raise InvalidInputError("h_tuple is not in the oracle's kernel")
    section = minimal_section(spec, oracle, r_max, cutoff)
    return check_section_structure(section, h_tuple, K)


@dataclass(frozen=True)
class TightnessReport:
    delta_G: GrowthBracket
    delta_GN: GrowthBracket
    verdict: str
    gap: float
    overlap_gap: float
    p: float
    oracle: dict
    rationale: str
    r_max: int
    tol: float


def _dual_bracket(brackets: Sequence[GrowthBracket], p: float) -> GrowthBracket:
    """Combine certified factor brackets through the conjugate-norm formula."""
    lower = duality_exponent([b.lower for b in brackets], p)
    upper = duality_exponent([b.upper for b in brackets], p)
    return GrowthBracket(lower, upper, "spectral", regime="limit")


def tightness_verdict(
    spec: LpProductSpec,
    oracle: QuotientOracle,
    r_max: int,
    tol: float,
) -> TightnessReport:
    """Growth-tightness verdict comparing the full product exponent with the
    quotient exponent.

    delta_G combines per-factor spectral brackets by the conjugate norm.  For
    factor kernels delta_G/N is the same combination over survivors (exact);
    other oracles get a Fekete bracket from exact quotient counts, whose
    lower end is heuristic, so only tight/inconclusive can be concluded there.
    """
    oracle.validate_for(spec)
    factor_brackets = [perron_root(avoid_factors(a, ())) for a in spec.factors]
    delta_g = _dual_bracket(factor_brackets, spec.p)
    structural_witness = False
    if oracle.kind == "factor-kernel":
        survivors = [i for i in range(spec.n) if i not in oracle.killed]
        if survivors:
            delta_gn = _dual_bracket([factor_brackets[i] for i in survivors], spec.p)
        else:
            delta_gn = GrowthBracket(0.0, 0.0, "spectral", regime="limit")
        if survivors and oracle.killed:
            max_killed = max(factor_brackets[i].upper for i in oracle.killed)
            max_survived = max(factor_brackets[i].upper for i in survivors)
            structural_witness = spec.p == 1 and max_killed <= max_survived + tol
    else:
        counts = quotient_ball_counts(spec, oracle, r_max)
        balls = counts.balls()
        b = check_subadditivity(balls)
        delta_gn = fekete_bracket(balls, b)
    gap = delta_g.lower - delta_gn.upper
    overlap = bracket_gap(delta_g, delta_gn)
    if gap > tol:
        verdict = "tight"
        rationale = (
            f"quotient exponent upper bound {delta_gn.upper:.6f} sits below the"
            f" full lower bound {delta_g.lower:.6f} by {gap:.6f}"
        )
    elif overlap <= tol and structural_witness:
        verdict = "not-tight"
        rationale = (
            "p = 1 and the kernel kills only factors whose exponent does not"
            " exceed the surviving maximum: the max-norm is unchanged"
        )
    else:
        verdict = "inconclusive"
        rationale = (
            "brackets are too close to certify a gap and no structural"
            " witness for non-tightness applies"
        )
    return TightnessReport(
        delta_G=delta_g,
        delta_GN=delta_gn,
        verdict=verdict,
        gap=gap,
        overlap_gap=overlap,
        p=spec.p,
        oracle=oracle.describe(),
        rationale=rationale,
        r_max=r_max,
        tol=tol,
    )