"""Quotient pseudo-metrics via coset keys, minimal sections, and the
growth-tightness verdict engine.

Each built-in normal subgroup N is one frozen record, listed in KINDS by its
job kind: FactorKernel(kill), Abelianization() and HomToIntegers(coefficients).
A record maps group elements to canonical coset keys made of per-coordinate
parts; counting distinct keys by L^p length realizes the quotient
pseudo-metric's ball counts without solving any word problem.  The kernels act
coordinate by coordinate, so each record counts its balls from per-factor
images and enumerates nothing.  A minimal section keeps the first product
point per key in (length, tuple-shortlex) order; its scan runs over the first
word of each part value in each factor sphere, not over every product point
(see minimal_section).  Every kind's part adds up letter by letter, so one
speller (_Kernel.first_words) finds those first words without listing any
sphere.  The enumeration cutoff bounds the section radius of every kind.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

from .automata import CountSequence, Language, once_each
from .errors import InvalidInputError
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
    _check_cutoff,
    _word,
    format_word,
    sphere_size,
)


class _Kernel:
    """What every quotient kind shares.  key(point) is constant on cosets gN
    and separates them within the radii we enumerate; normality holds by
    construction (kernels of homomorphisms, or projection onto survivors).
    A kind states part, combine, add (part(u x) from part(u) and part(x),
    for reduced u x), ball_counts and exponent."""

    def validate_for(self, spec: LpProductSpec) -> None:
        """Reject a product the record does not fit; every product fits by default."""

    def key(self, point: ProductPoint):
        return self.combine([self.part(i, w) for i, w in enumerate(point.coords)])

    def first_words(self, index: int, alphabet: Alphabet, r_max: int) -> list:
        """reps[r] = [(part value, first word of the radius-r sphere with that
        part), ...] in order of first occurrence in the shortlex sphere
        listing, for factor index: one forward pass for every kind.

        best maps (last letter, part) to the least word of the current length
        with that key (the start has no last letter; -2 ^ 1 cancels none).  A
        key's least word is the least word of a shorter key plus one letter,
        and extending best in order, letters increasing, yields words in
        increasing order: setdefault keeps each key's least word, and best
        stays in word order, so its first word per part is the sphere's."""
        add = self.add
        letter_parts = [(x, self.part(index, _word(alphabet, (x,)))) for x in alphabet.letters]
        identity = alphabet.identity
        zero = self.part(index, identity)
        best = {(-2, zero): ()}
        reps = [[(zero, identity)]]
        for _ in range(r_max):
            grown: dict = {}
            for (last, part), word in best.items():
                for x, px in letter_parts:
                    if x != last ^ 1:
                        grown.setdefault((x, add(part, px)), word + (x,))
            best = grown
            first: dict = {}
            for (_, part), word in best.items():
                first.setdefault(part, word)
            reps.append([(part, _word(alphabet, word)) for part, word in first.items()])
        return reps

    def exponent(self, spec: LpProductSpec, brackets: list, r_max: int, tol: float) -> tuple:
        """(delta_G/N, witness): a Fekete bracket from exact quotient counts,
        whose lower end is heuristic, so it witnesses no non-tightness."""
        balls = quotient_ball_counts(spec, self, r_max).balls()
        return fekete_bracket(balls, check_subadditivity(balls)), False


@dataclass(frozen=True)
class FactorKernel(_Kernel):
    """The kernel of the projection onto the factors not in kill, stored
    sorted and without repeats: the quotient is the product of the survivors."""

    kill: tuple[int, ...] = ()
    kind: str = field(default="factor-kernel", init=False)

    def __post_init__(self):
        kill = tuple(sorted(set(self.kill)))
        if any(i < 0 for i in kill):
            raise InvalidInputError("killed factor indices must be >= 0")
        object.__setattr__(self, "kill", kill)

    def validate_for(self, spec: LpProductSpec) -> None:
        bad = [i for i in self.kill if i >= spec.n]
        if bad:
            raise InvalidInputError(f"killed indices {bad} out of range for n={spec.n}")

    def part(self, index: int, word: ReducedWord):
        return None if index in self.kill else word.letters

    def combine(self, parts: Sequence):
        return tuple(p for p in parts if p is not None)

    @staticmethod
    def add(u, v):
        return None if u is None else u + v

    def ball_counts(self, spec: LpProductSpec, r_max: int) -> CountSequence:
        """A lattice sum over per-factor quotient spheres: (1, 0, 0, ...) for a
        killed factor, the free sphere sizes for a surviving one."""
        free = [[sphere_size(a, r) for r in range(r_max + 1)] for a in spec.factors]
        images = [[1] + [0] * r_max if i in self.kill else s for i, s in enumerate(free)]
        return LatticeTable(spec.p, images, r_max).sequence(r_max)

    def exponent(self, spec: LpProductSpec, brackets: list, r_max: int, tol: float) -> tuple:
        """(delta_G/N, witness): the survivors' spectral brackets combined by
        the conjugate norm (exact), and whether p = 1 witnesses non-tightness,
        with something killed and no killed exponent above the surviving maximum."""
        survivors = [b for i, b in enumerate(brackets) if i not in self.kill]
        if not survivors:
            return GrowthBracket(0.0, 0.0, "spectral", regime="limit"), False
        top_killed = max((brackets[i].upper for i in self.kill), default=math.inf)
        witness = spec.p == 1 and top_killed <= max(b.upper for b in survivors) + tol
        return _dual_bracket(survivors, spec.p), witness


def _l1_sphere_counts(k: int, r_max: int) -> list[int]:
    """Points of Z^k at l^1 norm r: sum_j 2^j C(k, j) C(r-1, j-1), and 1 at r = 0."""
    return [1] + [
        sum(2**j * math.comb(k, j) * math.comb(r - 1, j - 1) for j in range(1, k + 1))
        for r in range(1, r_max + 1)
    ]


@dataclass(frozen=True)
class Abelianization(_Kernel):
    """The kernel of the coordinate-wise abelianization: a key is the tuple
    of the factors' exponent-sum vectors."""

    kind: str = field(default="abelianization-kernel", init=False)

    def part(self, index: int, word: ReducedWord):
        return word.exponent_sums()

    def combine(self, parts: Sequence):
        return tuple(parts)

    @staticmethod
    def add(u: tuple, v: tuple) -> tuple:
        return tuple(map(operator.add, u, v))

    def ball_counts(self, spec: LpProductSpec, r_max: int) -> CountSequence:
        """A lattice sum over the l^1 spheres of Z^k, for each abelianized F_k."""
        images = [_l1_sphere_counts(a.rank, r_max) for a in spec.factors]
        return LatticeTable(spec.p, images, r_max).sequence(r_max)


def _sumset(xs: set, ys: set) -> set:
    return {x + y for x in xs for y in ys}


@dataclass(frozen=True)
class HomToIntegers(_Kernel):
    """The kernel of the homomorphism to Z that sends letter j of factor i to
    coefficients[i][j]: a key is the sum of the factors' images."""

    coefficients: tuple[tuple[int, ...], ...]
    kind: str = field(default="homomorphism-to-integers", init=False)

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.coefficients)
        if not rows:
            raise InvalidInputError("homomorphism oracle needs coefficient rows")
        object.__setattr__(self, "coefficients", rows)

    def validate_for(self, spec: LpProductSpec) -> None:
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
        return sum(c * s for c, s in zip(self.coefficients[index], word.exponent_sums()))

    def combine(self, parts: Sequence):
        return sum(parts)

    add = staticmethod(operator.add)

    def ball_counts(self, spec: LpProductSpec, r_max: int) -> CountSequence:
        """A LatticeTable over image sets.  Factor i within word length r
        reaches {c_i . v : ||v||_1 <= r}, the r-fold sumset of {0, +-c_ij};
        profiles extend partial images by sumset and merge by union, so
        Ball(R) is the union over keys within R's budget."""
        images = []
        for row in self.coefficients:
            moves = {0, *row, *(-c for c in row)}
            balls = [{0}]
            for _ in range(r_max):
                balls.append(_sumset(balls[-1], moves))
            images.append(balls)
        table = LatticeTable(
            spec.p, images, r_max, start={0}, extend=_sumset, merge=operator.or_
        )
        return CountSequence.from_balls([len(table.ball(r)) for r in range(r_max + 1)])


# the built-in quotient kinds, by the kind a job names
KINDS = {record.kind: record for record in (FactorKernel, Abelianization, HomToIntegers)}


@dataclass(frozen=True)
class MinimalSection:
    """One shortest (then coordinate-wise shortlex least) representative per
    coset key seen within the enumeration radius."""

    entries: dict
    radius: float

    @property
    def size(self) -> int:
        return len(self.entries)


def minimal_section(
    spec: LpProductSpec,
    oracle: _Kernel,
    r_max: float,
    cutoff: int = DEFAULT_ENUMERATION_CUTOFF,
) -> MinimalSection:
    """One representative per coset key within L^p length r_max: the first
    orbit point of the key in (length, tuple-shortlex) order.

    A key depends only on the per-coordinate parts, and itertools.product walks
    index tuples lexicographically, so the first tuple to hit a key is made of
    the first word of each part value in every sphere.  Each sphere is
    therefore reduced to its first word per distinct part, in order of first
    occurrence (the record's first_words); the reduced product visits those
    tuples in the same relative order, so the entries and their insertion
    order are those of a scan over every product point.  The cutoff bounds
    r_max for every kind.
    """
    oracle.validate_for(spec)
    if r_max < 0:
        raise InvalidInputError(f"r_max must be >= 0, got {r_max}")
    rfloor = _check_cutoff("sphere radius", math.floor(r_max), cutoff)
    budget = norm_budget(spec.p, r_max)
    # reps[i][r] = [(part, first word with that part), ...]
    reps = [oracle.first_words(i, a, rfloor) for i, a in enumerate(spec.factors)]
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


def quotient_ball_counts(spec: LpProductSpec, oracle: _Kernel, r_max: int) -> CountSequence:
    """counts[r] = number of distinct coset keys within L^p length r.

    Each record counts from per-factor images (its ball_counts), with no
    enumeration: the distance to a coset is the L^p norm of per-factor
    quotient lengths.  No kind enumerates words, so no enumeration cutoff
    applies.
    """
    oracle.validate_for(spec)
    if r_max < 0:
        raise InvalidInputError(f"r_max must be >= 0, got {r_max}")
    return oracle.ball_counts(spec, r_max)


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
    oracle: _Kernel,
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
    oracle: _Kernel
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
    oracle: _Kernel,
    r_max: int,
    tol: float,
) -> TightnessReport:
    """Growth-tightness verdict comparing the full product exponent with the
    quotient exponent.

    delta_G combines per-factor spectral brackets, taken at tol min(tol,
    1e-9) (never looser than perron_root's default), by the conjugate norm, and
    delta_G/N is the record's exponent: for factor kernels the same
    combination over survivors (exact); the other kinds get a Fekete bracket
    from exact quotient counts, whose lower end is heuristic, so only
    tight/inconclusive can be concluded there.
    """
    oracle.validate_for(spec)
    factor_brackets = once_each(list(map(Language, spec.factors)), Language.bracket, min(tol, 1e-9))
    delta_g = _dual_bracket(factor_brackets, spec.p)
    delta_gn, structural_witness = oracle.exponent(spec, factor_brackets, r_max, tol)
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
        oracle=oracle,
        rationale=rationale,
        r_max=r_max,
        tol=tol,
    )