"""Exponent brackets from count data: Fekete, regression, series probes."""
from __future__ import annotations

import math

import pytest

from growthtight import (
    GrowthBracket,
    InternalInvariantError,
    InvalidInputError,
    avoid_factors,
    bracket_gap,
    check_subadditivity,
    count_lengths,
    divergence_at_critical,
    fekete_bracket,
    fekete_upper_profile,
    ghat_language,
    perron_root,
    regression_bracket,
    strict_gap_check,
)

import oracles
from conftest import RANK2, report_fields, word2

LOG3 = math.log(3)
F2_BALLS = oracles.ball_sizes(2, 14)


def fekete(balls) -> GrowthBracket:
    """The data-fitted Fekete bracket of a ball sequence."""
    return fekete_bracket(balls, check_subadditivity(balls))


class TestGrowthBracket:
    def test_contains_and_distance(self):
        br = GrowthBracket(1.0, 1.5, "test")
        assert br.contains(1.0) and br.contains(1.25) and br.contains(1.5)
        assert not br.contains(0.99)
        assert br.distance_to(1.2) == 0.0
        assert br.distance_to(0.8) == pytest.approx(0.2)
        assert br.distance_to(1.7) == pytest.approx(0.2)
        assert br.width == pytest.approx(0.5)

    def test_inverted_bracket_is_an_invariant_error(self):
        with pytest.raises(InternalInvariantError, match="inverted"):
            GrowthBracket(2.0, 1.0, "test")

    def test_report_fields(self):
        d = report_fields(GrowthBracket(0.0, 1.0, "test", radii_used=(1, 9)))
        assert d["radii_used"] == [1, 9]
        assert d["regime"] == "limsup"

    def test_gap_between_brackets(self):
        a = GrowthBracket(1.0, 2.0, "x")
        b = GrowthBracket(2.5, 3.0, "x")
        assert bracket_gap(a, b) == pytest.approx(0.5)
        assert bracket_gap(b, a) == pytest.approx(0.5)
        assert bracket_gap(a, GrowthBracket(1.5, 2.5, "x")) == 0.0


class TestCheckSubadditivity:
    def test_free_group_balls_are_exactly_subadditive(self):
        assert check_subadditivity(F2_BALLS) == 0.0

    def test_superadditive_point_is_measured(self):
        assert check_subadditivity([1, 2, 8]) == pytest.approx(math.log(2))

    def test_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            check_subadditivity([1])
        with pytest.raises(InvalidInputError, match="decrease"):
            check_subadditivity([1, 5, 3])
        with pytest.raises(InvalidInputError, match="positive"):
            check_subadditivity([0, 1])


class TestFeketeBracket:
    def test_affine_log_data(self):
        counts = [round(math.exp(2 * i + 1)) for i in range(13)]
        br = fekete_bracket(counts, 0.0)
        assert br.method == "fekete"
        assert br.heuristic_lower
        assert br.distance_to(2.0) <= 1e-3
        assert br.upper == pytest.approx(2 + 1 / 12, abs=1e-3)

    def test_exponential_with_polynomial_noise(self):
        counts = [3**i + i * i for i in range(13)]
        br = fekete_bracket(counts, check_subadditivity(counts))
        assert br.contains(LOG3)

    def test_free_group_balls(self):
        br = fekete_bracket(F2_BALLS, 0.0)
        # the doubling slope overshoots the limit by ~3e-5 here: the bracket
        # misses log 3 but only just
        assert br.distance_to(LOG3) <= 1e-4
        assert br.upper - LOG3 <= 0.12

    def test_upper_profile_decreases_along_doubling(self):
        profile = dict(fekete_upper_profile(F2_BALLS, 0.0))
        for i in range(1, 8):
            assert profile[2 * i] <= profile[i] + 1e-12

    def test_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            fekete_bracket([1, 3, 9], -0.1)
        with pytest.raises(InvalidInputError):
            fekete_bracket([1, 9, 3], 0.0)


class TestRegressionBracket:
    def test_recovers_a_clean_exponent(self):
        radii = range(1, 15)
        counts = [round(math.exp(0.9 * r)) for r in radii]
        br = regression_bracket(counts, radii)
        assert br.contains(0.9)
        assert br.width <= 0.05
        assert br.radii_used == (7.0, 14.0)  # the upper half of the radii

    def test_absorbs_polynomial_corrections(self):
        radii = range(1, 21)
        counts = [round(r * r * math.exp(0.7 * r)) for r in radii]
        br = regression_bracket(counts, radii)
        assert br.contains(0.7)
        assert abs((br.lower + br.upper) / 2 - 0.7) <= 0.01

    def test_explicit_radii(self):
        radii = [1.5 * j for j in range(1, 11)]
        counts = [round(math.exp(1.1 * r)) for r in radii]
        br = regression_bracket(counts, radii=radii)
        assert br.contains(1.1)

    def test_radii_errors(self):
        with pytest.raises(InvalidInputError, match="radii"):
            regression_bracket([1, 2], radii=[1.0])
        with pytest.raises(InvalidInputError, match="positive"):
            regression_bracket([1, 2, 4], radii=[0.0, 1.0, 2.0])
        with pytest.raises(InvalidInputError, match="at least 3"):
            regression_bracket([1, 2, 4], radii=[1.0, 2.0, 3.0])


class TestDivergenceAtCritical:
    def test_free_group_balls(self):
        br = fekete_bracket(F2_BALLS, 0.0)
        rep = divergence_at_critical(F2_BALLS, br)
        assert rep.passed
        assert rep.b == 0.0
        assert rep.min_term_log >= -1e-7

    def test_polynomial_quotient_counts(self):
        diamonds = [2 * r * r + 2 * r + 1 for r in range(15)]
        b = check_subadditivity(diamonds)
        rep = divergence_at_critical(diamonds, fekete_bracket(diamonds, b))
        assert rep.passed

    def test_wrong_exponent_fails(self):
        rep = divergence_at_critical(F2_BALLS, GrowthBracket(5.0, 5.0, "test"))
        assert not rep.passed
        d = report_fields(rep)
        assert d["term_floor_log"] == 0.0
        assert math.copysign(1.0, d["term_floor_log"]) == -1.0  # -b with b = 0


class TestStrictGapCheck:
    def test_restricted_language_sits_below_the_group(self):
        # the true gap is ~0.013, so both sides need spectral brackets
        sub_aut = ghat_language(RANK2, word2("ab"), 4).automaton
        rep = strict_gap_check(
            count_lengths(sub_aut, 12).balls(),
            F2_BALLS[:13],
            0.01,
            sub_bracket=perron_root(sub_aut, 1e-9),
            full_bracket=perron_root(avoid_factors(RANK2, ()), 1e-9),
        )
        assert rep.strict
        assert rep.margin > 0.01
        assert rep.certified

    def test_fekete_brackets_resolve_a_wide_gap(self):
        sub = count_lengths(avoid_factors(RANK2, [word2("a")]), 12).balls()
        full = F2_BALLS[:13]
        rep = strict_gap_check(sub, full, 0.01, fekete(sub), fekete(full))
        assert rep.strict
        assert rep.margin > 0.1
        assert not rep.certified  # fekete lower ends are heuristic

    def test_spectral_bracket_certifies(self):
        sub = count_lengths(avoid_factors(RANK2, [word2("a")]), 12).balls()
        full_bracket = perron_root(avoid_factors(RANK2, ()), 1e-9)
        rep = strict_gap_check(sub, F2_BALLS[:13], 0.01, fekete(sub), full_bracket)
        assert rep.strict
        assert rep.certified
        assert rep.margin > 0.1

    def test_spectral_brackets_decide_by_sign(self):
        # both ends of the margin are certified, so tol plays no part
        sub_aut = ghat_language(RANK2, word2("ab"), 4).automaton
        rep = strict_gap_check(
            count_lengths(sub_aut, 12).balls(),
            F2_BALLS[:13],
            1.0,
            sub_bracket=perron_root(sub_aut, 1e-9),
            full_bracket=perron_root(avoid_factors(RANK2, ()), 1e-9),
        )
        assert 0 < rep.margin < 1.0
        assert rep.strict

    def test_a_fekete_bracket_still_needs_tol(self):
        sub = count_lengths(avoid_factors(RANK2, [word2("a")]), 12).balls()
        full_bracket = perron_root(avoid_factors(RANK2, ()), 1e-9)
        rep = strict_gap_check(sub, F2_BALLS[:13], 1.0, fekete(sub), full_bracket)
        assert 0 < rep.margin < 1.0
        assert not rep.strict

    def test_equal_spectral_brackets_have_no_gap(self):
        # decided by sign, a zero margin is not strict
        br = perron_root(avoid_factors(RANK2, ()), 1e-9)
        rep = strict_gap_check(F2_BALLS, F2_BALLS, 0.01, br, br)
        assert rep.margin <= 0.0
        assert not rep.strict

    def test_equal_counts_have_no_gap(self):
        br = fekete(F2_BALLS)
        rep = strict_gap_check(F2_BALLS, F2_BALLS, 0.01, br, br)
        assert not rep.strict
        assert rep.margin <= 0.0

    def test_sub_counts_may_not_exceed_full(self):
        br = GrowthBracket(0.0, 1.0, "test")
        with pytest.raises(InvalidInputError, match="exceed"):
            strict_gap_check([1, 6], [1, 5], 0.01, br, br)
