"""L^p product metrics on tuples of free-group elements and exact ball counts.

Ball counts of an L^p product come from the factor sphere counts by summing
over the integer lattice points inside the p-ball (LatticeTable); the exponent
of the product is the conjugate-norm of the factor exponents, which
verify_duality checks numerically against exact counts.
"""
from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .automata import CountSequence
from .errors import InvalidInputError, ResourceLimitError
from .growth import GrowthBracket, check_subadditivity, fekete_bracket, regression_bracket
from .words import Alphabet, ReducedWord


def parse_exponent(value) -> float:
    """Accept 1, 2, ... or the strings "1", "2", "inf" for the exponent p."""
    if isinstance(value, str):
        if value.strip().lower() in ("inf", "infinity", "oo"):
            return math.inf
        try:
            value = float(value)
        except ValueError as exc:
            raise InvalidInputError(f"cannot parse exponent p from {value!r}") from exc
    try:
        p = float(value)
    except OverflowError as exc:
        raise InvalidInputError("exponent p is too large for a float") from exc
    if math.isnan(p) or p < 1:
        raise InvalidInputError(f"exponent p must satisfy p >= 1, got {p}")
    return p


def _conjugate(p: float) -> float:
    """Conjugate exponent q of p: 1/p + 1/q = 1."""
    if p == 1:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1)


@dataclass(frozen=True)
class LpProductSpec:
    """n free factors combined with the L^p metric."""

    factors: tuple[Alphabet, ...]
    p: float

    def __post_init__(self):
        if not self.factors:
            raise InvalidInputError("a product needs at least one factor")
        object.__setattr__(self, "p", parse_exponent(self.p))

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def q(self) -> float:
        return _conjugate(self.p)

    def identity(self) -> "ProductPoint":
        return ProductPoint(tuple(a.identity for a in self.factors))

    def point(self, words: Sequence[ReducedWord]) -> "ProductPoint":
        pt = ProductPoint(tuple(words))
        _check_shape(self, pt)
        return pt


@dataclass(frozen=True)
class ProductPoint:
    coords: tuple[ReducedWord, ...]

    def __len__(self) -> int:
        return len(self.coords)


def _check_shape(spec: LpProductSpec, x: ProductPoint) -> None:
    if len(x.coords) != spec.n:
        raise InvalidInputError(
            f"point has {len(x.coords)} coordinates, spec has {spec.n} factors"
        )
    for i, (word, alphabet) in enumerate(zip(x.coords, spec.factors)):
        if word.alphabet != alphabet:
            raise InvalidInputError(f"coordinate {i} uses the wrong alphabet")


def _lp_norm(values: Sequence[int], p: float) -> float | int:
    # norm_key adds left to right: the built-in sum() of floats is
    # compensated from Python 3.12 on, which moves the last bits
    key = norm_key(p, values)
    if p in (1, math.inf):
        return key
    try:
        return key ** (1 / p)
    except OverflowError:  # an int key of a large integer p, beyond float range
        return math.exp(math.log(key) / p)


def _checked_norm(p: float, values: Sequence[int]) -> float | int:
    """_lp_norm of one radius profile, with the checks norm_budget makes on a
    ball: a finite p above MAX_FINITE_P, or a non-integer p whose key
    overflows a float, raises ResourceLimitError."""
    _check_key_exponent(p)
    try:
        norm = _lp_norm(values, p)
    except OverflowError:  # one float weight r**p out of range
        norm = math.inf
    if norm == math.inf:  # or their float sum
        raise _key_overflow(p, f"profile {tuple(values)}")
    return norm


def lp_length(spec: LpProductSpec, x: ProductPoint) -> float | int:
    _check_shape(spec, x)
    return _checked_norm(spec.p, [len(c) for c in x.coords])


def lp_distance(spec: LpProductSpec, x: ProductPoint, y: ProductPoint) -> float | int:
    """L^p combination of the coordinate word distances; exact int for p in {1, inf}."""
    _check_shape(spec, x)
    _check_shape(spec, y)
    return _checked_norm(spec.p, [len(~a * b) for a, b in zip(x.coords, y.coords)])


def _append_letter(word: tuple[int, ...], letter: int) -> tuple[int, ...]:
    if word and word[-1] == letter ^ 1:
        return word[:-1]
    return word + (letter,)


@dataclass(frozen=True)
class CorrespondenceReport:
    max_radius: int
    checked_s1: int
    checked_sinf: int
    mismatches: tuple
    passed: bool


def generating_set_correspondence(spec: LpProductSpec, max_radius: int = 5) -> CorrespondenceReport:
    """BFS check that S^1 word length is the L^1 orbit distance and S^inf word
    length is the L^inf orbit distance, out to the given radius."""
    if max_radius < 0:
        raise InvalidInputError("max_radius must be >= 0")
    start = tuple(() for _ in spec.factors)
    mismatches = []

    def bfs(neighbor_fn) -> dict:
        dist = {start: 0}
        frontier = [start]
        radius = 0
        while frontier and radius < max_radius:
            radius += 1
            nxt = []
            for node in frontier:
                for nb in neighbor_fn(node):
                    if nb not in dist:
                        dist[nb] = radius
                        nxt.append(nb)
            frontier = nxt
        return dist

    def s1_neighbors(node):
        for i, alphabet in enumerate(spec.factors):
            for letter in alphabet.letters:
                yield node[:i] + (_append_letter(node[i], letter),) + node[i + 1 :]

    def sinf_neighbors(node):
        options = [
            [node[i]] + [_append_letter(node[i], x) for x in alphabet.letters]
            for i, alphabet in enumerate(spec.factors)
        ]
        for combo in itertools.product(*options):
            if combo != node:
                yield combo

    dist1 = bfs(s1_neighbors)
    for node, d in dist1.items():
        expected = sum(len(c) for c in node)
        if d != expected:
            mismatches.append(("S1", node, d, expected))
    dist_inf = bfs(sinf_neighbors)
    for node, d in dist_inf.items():
        expected = max((len(c) for c in node), default=0)
        if d != expected:
            mismatches.append(("Sinf", node, d, expected))
    return CorrespondenceReport(
        max_radius=max_radius,
        checked_s1=len(dist1),
        checked_sinf=len(dist_inf),
        mismatches=tuple(mismatches),
        passed=not mismatches,
    )


def _key_ops(p: float):
    """(weight, add) for the exact norm key of a radius profile: the key of
    (r_1, ..., r_n) folds add over weight(r_1), ..., weight(r_n) from 0, left
    to right.  Keys are ints for p = inf and integer p, floats otherwise."""
    if p == math.inf:
        return (lambda r: r), max
    if p == int(p):
        e = int(p)
        return (lambda r: r**e), operator.add
    return (lambda r: float(r) ** p), operator.add


def norm_key(p: float, profile: Sequence[int]):
    """Exact norm key of one radius profile (see _key_ops)."""
    weight, add = _key_ops(p)
    key = 0
    for r in profile:
        key = add(key, weight(r))
    return key


# Integer-p keys are exact ints of about p*log2(R) bits, and the budget of a
# fractional radius is the p-th power of a 53-bit fraction, so their cost
# grows with p without bound.  Above this p the conjugate exponent p/(p-1)
# is below 1.0011, next to p = inf's q = 1.
MAX_FINITE_P = 1000


def _check_key_exponent(p: float) -> None:
    """Exact norm keys of a finite p above MAX_FINITE_P are out of reach."""
    if math.inf > p > MAX_FINITE_P:
        raise ResourceLimitError(
            f"exponent p = {p:g} exceeds {MAX_FINITE_P}, the largest finite p"
            ' with exact norm keys; use p = "inf" for the max-norm'
        )


def _key_overflow(p: float, where: str) -> ResourceLimitError:
    """The error for float norm keys of a non-integer p that overflow."""
    return ResourceLimitError(
        f"norm keys at exponent p = {p:g} and {where} overflow a float;"
        ' use p = "inf" for the max-norm'
    )


def norm_budget(p: float, R):
    """Largest norm key inside the radius-R ball: a profile lies in the ball
    exactly when norm_key(p, profile) <= norm_budget(p, R).

    The test is exact integer arithmetic for integer p and p = inf; only
    non-integer p compares floats, with a 1e-9 allowance at the boundary.
    Every lattice sum forms this budget before any other key, so the check
    that the keys are within reach lives here: a finite p above MAX_FINITE_P,
    or a non-integer p whose keys overflow a float, raises ResourceLimitError.
    """
    if p == math.inf:
        return math.floor(R)
    _check_key_exponent(p)
    if p == int(p):
        return math.floor(Fraction(R) ** int(p))
    try:
        return R**p + 1e-9
    except OverflowError:
        raise _key_overflow(p, f"radius {R}") from None


class LatticeTable:
    """Radius profiles of an L^p product, folded by exact norm key.

    values[i][r] is what factor i contributes at radius r.  The factors are
    folded in one at a time into {key: value}: a profile's value combines its
    factors' values with `extend`, profiles that share a key are combined with
    `merge`, and keys above the radius-R budget are pruned.  The keys are
    sorted once and their values merged cumulatively, so the ball at any
    radius up to R is one bisect.  With the defaults the values are factor
    sphere counts and a ball is the lattice-weighted point count.
    """

    def __init__(
        self,
        p: float,
        values: Sequence[Sequence],
        R,
        *,
        start=1,
        extend=operator.mul,
        merge=operator.add,
    ):
        if R < 0:
            raise InvalidInputError(f"radius must be >= 0, got {R}")
        rfloor = math.floor(R)
        for i, parts in enumerate(values):
            if len(parts) <= rfloor:
                raise ResourceLimitError(
                    f"factor {i} counts reach radius {len(parts) - 1}, need {rfloor}"
                )
        self.p = p
        self.R = R
        budget = norm_budget(p, R)
        weight, add = _key_ops(p)
        steps = [weight(r) for r in range(rfloor + 1)]
        table = {0: start}
        for parts in values:
            folded: dict = {}
            for key, acc in table.items():
                for step, part in zip(steps, parts):
                    k = add(key, step)
                    if k > budget:
                        break
                    value = extend(acc, part)
                    folded[k] = merge(folded[k], value) if k in folded else value
            table = folded
        self.keys = sorted(table)
        self.balls = list(itertools.accumulate((table[k] for k in self.keys), merge))

    def ball(self, R):
        """Merged value of the profiles with norm at most R (R <= the table's R)."""
        if R > self.R:
            raise InvalidInputError(f"radius {R} exceeds the table radius {self.R}")
        return self.balls[bisect.bisect_right(self.keys, norm_budget(self.p, R)) - 1]

    def sequence(self, r_max: int) -> CountSequence:
        """Sphere counts for integer radii 0..r_max."""
        return CountSequence.from_balls([self.ball(r) for r in range(r_max + 1)])


def _check_factor_count(spec: LpProductSpec, factor_spheres) -> None:
    if len(factor_spheres) != spec.n:
        raise InvalidInputError(
            f"{len(factor_spheres)} count sequences for {spec.n} factors"
        )


def product_ball_counts(
    spec: LpProductSpec, factor_spheres: Sequence[CountSequence | Sequence[int]], R
) -> int:
    """Exact number of lattice-weighted points with ||(r_1..r_n)||_p <= R:
    sum over admissible radius profiles of the product of factor sphere counts.

    One LatticeTable at radius R; the boundary test is exact whenever p is an
    integer or inf (see norm_budget).
    """
    _check_factor_count(spec, factor_spheres)
    return LatticeTable(spec.p, factor_spheres, R).ball(R)


def duality_exponent(deltas: Sequence[float], p: float) -> float:
    """The product growth exponent predicted from factor exponents: their
    conjugate-norm ||deltas||_q with 1/p + 1/q = 1."""
    p = parse_exponent(p)
    if not deltas:
        raise InvalidInputError("need at least one factor exponent")
    for d in deltas:
        if d < 0:
            raise InvalidInputError(f"factor exponent must be >= 0, got {d}")
    q = _conjugate(p)
    try:
        norm = float(_lp_norm(deltas, q))
    except OverflowError:  # one float weight d**q out of range
        norm = math.inf
    if norm == math.inf:  # or their float sum
        raise ResourceLimitError(
            f"the conjugate exponent q = {q:g} of p = {p!r} overflows a float"
            " in the predicted exponent; use p = 1 for q = inf"
        )
    return norm


@dataclass(frozen=True)
class DualityReport:
    p: float
    q: float
    r_max: int
    balls: tuple[int, ...]
    support_radii: tuple[float, ...]
    support_balls: tuple[int, ...]
    measured: GrowthBracket
    fekete: GrowthBracket
    subadditivity_b: float
    factor_exponents: tuple[float, ...]
    predicted: float
    deviation: float
    contains_predicted: bool


def verify_duality(
    spec: LpProductSpec,
    factor_spheres: Sequence[CountSequence | Sequence[int]],
    r_max: int,
    factor_exponents: Sequence[float],
) -> DualityReport:
    """Measure the product exponent from exact counts and compare with the
    conjugate-norm prediction.

    The measurement regresses log counts sampled at the support radii
    R_j = n^(1/p) * j, where the ball's l^1-reach over the profile lattice is
    attained exactly (at the equal-coordinate profile, by Holder); sampling at
    arbitrary radii leaves a number-theoretic wobble of order 1 in log counts
    for 1 < p < inf that drowns the fit at desk radii.  The regression also
    absorbs the polynomial correction (plain Fekete upper bounds at desk radii
    overshoot by ~0.3 for p = 1); the Fekete bracket on integer radii is
    reported alongside as the certified-upper-bound view.  Integer-radius and
    support balls all come from one LatticeTable.
    """
    if len(factor_exponents) != spec.n:
        raise InvalidInputError(
            f"{len(factor_exponents)} exponents for {spec.n} factors"
        )
    _check_factor_count(spec, factor_spheres)
    # first, as a p just above 1 overflows here before any lattice work
    predicted = duality_exponent(list(factor_exponents), spec.p)
    step = 1.0 if spec.p == math.inf else spec.n ** (1.0 / spec.p)
    # nudge up so exact-budget arithmetic keeps the corner profile inside
    support_radii = [
        step * j * (1 + 1e-12) for j in range(1, int(r_max / step + 1e-9) + 1)
    ]
    table = LatticeTable(spec.p, factor_spheres, max([r_max, *support_radii]))
    balls = [table.ball(r) for r in range(r_max + 1)]
    support_balls = [table.ball(radius) for radius in support_radii]
    measured = regression_bracket(support_balls, radii=support_radii)
    b = check_subadditivity(balls)
    fek = fekete_bracket(balls, b)
    midpoint = (measured.lower + measured.upper) / 2
    return DualityReport(
        p=spec.p,
        q=spec.q,
        r_max=r_max,
        balls=tuple(balls),
        support_radii=tuple(support_radii),
        support_balls=tuple(support_balls),
        measured=measured,
        fekete=fek,
        subadditivity_b=b,
        factor_exponents=tuple(factor_exponents),
        predicted=predicted,
        deviation=abs(midpoint - predicted),
        contains_predicted=measured.contains(predicted),
    )