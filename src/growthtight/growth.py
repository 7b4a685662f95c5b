"""Growth-exponent brackets, subadditivity checks and the Poincare-series
divergence test.

Counting sequences are passed in as ball counts (exact ints, index = radius,
except where radii are given alongside).
Logs of big ints go through math.log, which is fine at any magnitude.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InternalInvariantError, InvalidInputError

NEG_INF = float("-inf")
# regression_bracket's half-width is _RMS_WIDTHS times the residual rms, and
# at least _MIN_HALFWIDTH
_MIN_HALFWIDTH = 0.002
_RMS_WIDTHS = 3.0
# slack below -b that divergence_at_critical forgives in a Poincare term
_DIVERGENCE_TOL = 1e-6


@dataclass(frozen=True)
class GrowthBracket:
    """Two-sided bracket for a growth exponent.

    Both ends of a "spectral" bracket are certified.  A "fekete" upper end is
    certified only when its constant b holds for the whole sequence, not when
    check_subadditivity fits b to finite data.  The "fekete" lower end and both
    "regression" ends are heuristic; heuristic_lower flags the data methods.
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


def bracket_gap(a: GrowthBracket, b: GrowthBracket) -> float:
    """Distance between two brackets as intervals (0 when they overlap)."""
    return max(0.0, a.lower - b.upper, b.lower - a.upper)


def _validate_balls(ball_counts: Sequence[int]) -> None:
    if len(ball_counts) < 2:
        raise InvalidInputError("need ball counts for at least radii 0 and 1")
    for r in range(1, len(ball_counts)):
        if ball_counts[r] < ball_counts[r - 1]:
            raise InvalidInputError(f"ball counts decrease at radius {r}")


def check_subadditivity(ball_counts: Sequence[int]) -> float:
    """Smallest b >= 0 with log P(m+n) <= log P(m) + log P(n) + b on the data.

    Pairs are compared exactly on the integers first, so b = 0 is returned
    exactly when P(m+n) <= P(m) * P(n) holds throughout.
    """
    _validate_balls(ball_counts)
    if any(c <= 0 for c in ball_counts):
        raise InvalidInputError("ball counts must be positive")
    n = len(ball_counts)
    b = 0.0
    for m in range(n):
        for k in range(m, n - m):
            if ball_counts[m + k] > ball_counts[m] * ball_counts[k]:
                excess = (
                    math.log(ball_counts[m + k])
                    - math.log(ball_counts[m])
                    - math.log(ball_counts[k])
                )
                b = max(b, excess)
    return b


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
    ball_counts: Sequence[int], radii: Sequence[float]
) -> GrowthBracket:
    """Exponent bracket from a least-squares fit of log P(r) over large radii.

    ball_counts[i] is the count at the positive radius radii[i].  The model
    log P(r) = delta*r + gamma*log(r) + c absorbs the polynomial correction
    that makes plain Fekete upper bounds converge slowly (L^1 products have
    P(r) ~ r^gamma e^(delta r)).  The fit window keeps the radii in the upper
    half of the range, from 2 on.  The bracket half-width is _RMS_WIDTHS times
    the residual rms, at least _MIN_HALFWIDTH so a perfect fit still reports
    honest uncertainty.  Both ends are heuristic.
    """
    import numpy as np

    if len(radii) != len(ball_counts):
        raise InvalidInputError(f"{len(radii)} radii for {len(ball_counts)} counts")
    points = sorted((float(r), c) for r, c in zip(radii, ball_counts) if c > 0)
    if points and points[0][0] <= 0:
        raise InvalidInputError("radii must be positive")
    start = max(2.0, points[-1][0] / 2) if points else 2.0
    window = [(r, c) for r, c in points if r >= start - 1e-9]
    if len(window) < 3:
        raise InvalidInputError(
            f"need at least 3 radii with positive counts from radius {start}"
        )
    design = np.array([[r, math.log(r), 1.0] for r, _ in window])
    response = np.array([math.log(c) for _, c in window])
    coef, _, _, _ = np.linalg.lstsq(design, response, rcond=None)
    residuals = response - design @ coef
    rms = float(np.sqrt(np.mean(residuals**2)))
    delta = float(coef[0])
    halfwidth = max(_MIN_HALFWIDTH, _RMS_WIDTHS * rms)
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
    term_floor_log: float  # -b, the log of the floor every term stays above
    passed: bool


def divergence_at_critical(
    ball_counts: Sequence[int], bracket: GrowthBracket
) -> DivergenceReport:
    """Term-wise lower bound P(r) e^(-r delta) >= e^(-b) at delta = bracket.upper.

    With b from check_subadditivity, the generalized Fekete lemma gives
    log P(r) >= r L - b, so every term of the Poincare series at the critical
    exponent stays above e^(-b): the series diverges there.  Terms within
    _DIVERGENCE_TOL of the floor pass.
    """
    b = check_subadditivity(ball_counts)
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
        term_floor_log=-b,
        passed=min_term >= -b - _DIVERGENCE_TOL,
    )


@dataclass(frozen=True)
class GapReport:
    sub: GrowthBracket
    full: GrowthBracket
    margin: float
    strict: bool
    certified: bool


def strict_gap_check(
    sub_counts: Sequence[int],
    full_counts: Sequence[int],
    tol: float,
    sub_bracket: GrowthBracket,
    full_bracket: GrowthBracket,
) -> GapReport:
    """Check that the sublanguage growth sits strictly below the full growth:
    the margin is full_bracket.lower - sub_bracket.upper.

    When both brackets are spectral, both ends of the margin are certified,
    so strict is decided by its sign; otherwise the margin must exceed tol.
    The counts only guard that the sublanguage lies inside the full one.  The
    verdict is certified when the full bracket's lower end is (spectral
    brackets); a Fekete full bracket leaves it heuristic, and the report says
    so.
    """
    shared = min(len(sub_counts), len(full_counts))
    if any(sub_counts[r] > full_counts[r] for r in range(shared)):
        raise InvalidInputError("sub counts exceed full counts somewhere")
    margin = full_bracket.lower - sub_bracket.upper
    spectral = sub_bracket.method == full_bracket.method == "spectral"
    return GapReport(
        sub=sub_bracket,
        full=full_bracket,
        margin=margin,
        strict=margin > (0 if spectral else tol),
        certified=not full_bracket.heuristic_lower,
    )
