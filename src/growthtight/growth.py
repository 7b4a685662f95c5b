"""Growth-exponent brackets, subadditivity checks and Poincare-series probes.

Counting sequences are passed in as ball counts (exact ints, index = radius).
Logs of big ints go through math.log, which is fine at any magnitude.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InternalInvariantError, InvalidInputError

NEG_INF = float("-inf")


@dataclass(frozen=True)
class GrowthBracket:
    """Two-sided bracket for a growth exponent.

    The upper end is certified by construction for every method; the lower end
    is certified for "spectral" and flagged heuristic for data-driven methods.
    """

    lower: float
    upper: float
    method: str
    radii_used: tuple[float, float] | None = None
    heuristic_lower: bool = False
    regime: str = "limsup"

    def __post_init__(self):
        if self.lower > self.upper:
            raise InternalInvariantError(
                f"bracket inverted: [{self.lower}, {self.upper}] ({self.method})"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper

    def distance_to(self, x: float) -> float:
        if self.contains(x):
            return 0.0
        return min(abs(x - self.lower), abs(x - self.upper))

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "method": self.method,
            "radii_used": list(self.radii_used) if self.radii_used else None,
            "heuristic_lower": self.heuristic_lower,
            "regime": self.regime,
        }


def bracket_gap(a: GrowthBracket, b: GrowthBracket) -> float:
    """Distance between two brackets as intervals (0 when they overlap)."""
    return max(0.0, a.lower - b.upper, b.lower - a.upper)


def _validate_balls(ball_counts: Sequence[int]) -> None:
    if len(ball_counts) < 2:
        raise InvalidInputError("need ball counts for at least radii 0 and 1")
    for r in range(1, len(ball_counts)):
        if ball_counts[r] < ball_counts[r - 1]:
            raise InvalidInputError(f"ball counts decrease at radius {r}")


def check_subadditivity(
    ball_counts: Sequence[int], candidate_b: float | None = None
) -> tuple[float, list[tuple[int, int, float]]]:
    """Smallest b >= 0 with log P(m+n) <= log P(m) + log P(n) + b on the data.

    Pairs are compared exactly on the integers first so that b = 0 is reported
    exactly when P(m+n) <= P(m) * P(n) holds throughout.  The violation list is
    relative to candidate_b when one is given, else empty by construction.
    """
    _validate_balls(ball_counts)
    if any(c <= 0 for c in ball_counts):
        raise InvalidInputError("ball counts must be positive")
    n = len(ball_counts)
    b = 0.0
    excesses: dict[tuple[int, int], float] = {}
    for m in range(n):
        for k in range(m, n - m):
            if ball_counts[m + k] <= ball_counts[m] * ball_counts[k]:
                continue
            excess = (
                math.log(ball_counts[m + k])
                - math.log(ball_counts[m])
                - math.log(ball_counts[k])
            )
            excesses[(m, k)] = excess
            b = max(b, excess)
    violations = []
    if candidate_b is not None:
        violations = [
            (m, k, e) for (m, k), e in sorted(excesses.items()) if e > candidate_b
        ]
    return b, violations


def fekete_bracket(ball_counts: Sequence[int], b: float) -> GrowthBracket:
    """Bracket from the generalized Fekete lemma.

    log P(m+n) <= log P(m) + log P(n) + b forces lim log P(i)/i = L to exist
    with log P(i) >= L*i - b, so (log P(i) + b)/i is a certified upper bound
    for every i.  There is no finite-data certified lower bound; the largest
    available log P(I)/I is reported and flagged heuristic.
    """
    _validate_balls(ball_counts)
    if b < 0:
        raise InvalidInputError(f"subadditivity constant must be >= 0, got {b}")
    top = len(ball_counts) - 1
    logs = {i: math.log(ball_counts[i]) for i in range(1, top + 1) if ball_counts[i] > 0}
    if not logs:
        raise InvalidInputError("ball counts are all zero")
    upper = min((a + b) / i for i, a in logs.items())
    raw_lower = logs[top] / top if top in logs else 0.0
    # the doubling slope cancels the constant offset that keeps log P(i)/i
    # above the limit for subadditive data
    half = top // 2
    if top in logs and half in logs and top > half >= 1:
        raw_lower = min(raw_lower, (logs[top] - logs[half]) / (top - half))
    return GrowthBracket(
        lower=min(raw_lower, upper),
        upper=upper,
        method="fekete",
        radii_used=(1, top),
        heuristic_lower=True,
        regime="limit",
    )


def regression_bracket(
    ball_counts: Sequence[int],
    r_min: float | None = None,
    halfwidth_floor: float = 0.002,
    rms_factor: float = 3.0,
    radii: Sequence[float] | None = None,
) -> GrowthBracket:
    """Exponent bracket from a least-squares fit of log P(r) over large radii.

    The model log P(r) = delta*r + gamma*log(r) + c absorbs the polynomial
    correction that makes plain Fekete upper bounds converge slowly (L^1
    products have P(r) ~ r^gamma e^(delta r)).  The bracket half-width is
    rms_factor times the residual rms, floored so a perfect fit still reports
    honest uncertainty.  Both ends are heuristic.

    By default ball_counts[r] is the count at integer radius r; pass `radii`
    to fit counts sampled at arbitrary positive radii instead (ball_counts[i]
    then belongs to radii[i]).  The fit window keeps radii in the upper half
    of the range, at least 2.
    """
    import numpy as np

    if radii is None:
        _validate_balls(ball_counts)
        top = len(ball_counts) - 1
        if r_min is None:
            r_min = max(2, top // 2)
        points = [
            (float(r), ball_counts[r])
            for r in range(len(ball_counts))
            if ball_counts[r] > 0
        ]
    else:
        if len(radii) != len(ball_counts):
            raise InvalidInputError(
                f"{len(radii)} radii for {len(ball_counts)} counts"
            )
        points = sorted(
            (float(r), c) for r, c in zip(radii, ball_counts) if c > 0
        )
        if points and points[0][0] <= 0:
            raise InvalidInputError("radii must be positive")
        if r_min is None:
            r_min = max(2.0, points[-1][0] / 2) if points else 2.0
    window = [(r, c) for r, c in points if r >= r_min - 1e-9]
    if len(window) < 3:
        raise InvalidInputError(
            f"need at least 3 radii with positive counts above r_min={r_min}"
        )
    design = np.array([[r, math.log(r), 1.0] for r, _ in window])
    response = np.array([math.log(c) for _, c in window])
    coef, _, _, _ = np.linalg.lstsq(design, response, rcond=None)
    residuals = response - design @ coef
    rms = float(np.sqrt(np.mean(residuals**2)))
    delta = float(coef[0])
    halfwidth = max(halfwidth_floor, rms_factor * rms)
    return GrowthBracket(
        lower=delta - halfwidth,
        upper=delta + halfwidth,
        method="regression",
        radii_used=(window[0][0], window[-1][0]),
        heuristic_lower=True,
    )


def fekete_upper_profile(ball_counts: Sequence[int], b: float) -> list[tuple[int, float]]:
    """The certified upper bound (log P(i) + b)/i at each radius i >= 1."""
    _validate_balls(ball_counts)
    return [
        (i, (math.log(ball_counts[i]) + b) / i)
        for i in range(1, len(ball_counts))
        if ball_counts[i] > 0
    ]


@dataclass(frozen=True)
class DivergenceReport:
    delta_est: float
    b: float
    min_term_log: float
    passed: bool
    radii: tuple[int, int]

    def to_dict(self) -> dict:
        return {
            "delta_est": self.delta_est,
            "b": self.b,
            "min_term_log": self.min_term_log,
            "term_floor_log": -self.b,
            "passed": self.passed,
        }


def divergence_at_critical(
    ball_counts: Sequence[int], bracket: GrowthBracket, tol: float = 1e-6
) -> DivergenceReport:
    """Term-wise lower bound P(r) e^(-r delta) >= e^(-b) at delta = bracket.upper.

    With b from check_subadditivity, the generalized Fekete lemma gives
    log P(r) >= r L - b, so every term of the Poincare series at the critical
    exponent stays above e^(-b): the series diverges there.
    """
    b, _ = check_subadditivity(ball_counts)
    delta = bracket.upper
    margins = [
        math.log(ball_counts[r]) - r * delta
        for r in range(1, len(ball_counts))
        if ball_counts[r] > 0
    ]
    min_term = min(margins)
    return DivergenceReport(
        delta_est=delta,
        b=b,
        min_term_log=min_term,
        passed=min_term >= -b - tol,
        radii=(1, len(ball_counts) - 1),
    )


@dataclass(frozen=True)
class GapReport:
    sub_bracket: GrowthBracket
    full_bracket: GrowthBracket
    margin: float
    strict: bool
    certified: bool

    def to_dict(self) -> dict:
        return {
            "sub": self.sub_bracket.to_dict(),
            "full": self.full_bracket.to_dict(),
            "margin": self.margin,
            "strict": self.strict,
            "certified": self.certified,
        }


def strict_gap_check(
    sub_counts: Sequence[int],
    full_counts: Sequence[int],
    tol: float,
    sub_bracket: GrowthBracket | None = None,
    full_bracket: GrowthBracket | None = None,
) -> GapReport:
    """Check that the sublanguage growth sits strictly below the full growth.

    Brackets may be passed in (spectral ones make the verdict certified);
    otherwise Fekete brackets are derived from the counts, whose lower end is
    heuristic, and the report says so.
    """
    shared = min(len(sub_counts), len(full_counts))
    if any(sub_counts[r] > full_counts[r] for r in range(shared)):
        raise InvalidInputError("sub counts exceed full counts somewhere")
    if sub_bracket is None:
        sub_bracket = fekete_bracket(sub_counts, check_subadditivity(sub_counts)[0])
    if full_bracket is None:
        full_bracket = fekete_bracket(full_counts, check_subadditivity(full_counts)[0])
    margin = full_bracket.lower - sub_bracket.upper
    return GapReport(
        sub_bracket=sub_bracket,
        full_bracket=full_bracket,
        margin=margin,
        strict=margin > tol,
        certified=not full_bracket.heuristic_lower,
    )
