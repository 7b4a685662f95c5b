"""L^p products: distances, exact lattice ball counts, exponent duality."""
from __future__ import annotations

import math
import random
import re
import time

import pytest

from growthtight import (
    Alphabet,
    InvalidInputError,
    LpProductSpec,
    ResourceLimitError,
    duality_exponent,
    generating_set_correspondence,
    lp_distance,
    lp_length,
    parse_exponent,
    product_ball_counts,
    sphere_size,
    verify_duality,
)
from growthtight.products import LatticeTable, _lp_norm

import oracles
from conftest import RANK1, RANK2, report_fields, word2

LOG3 = math.log(3)
INF = math.inf

F2F2 = {p: LpProductSpec((RANK2, RANK2), p) for p in (1, 2, INF)}
F2_SPHERES = [sphere_size(RANK2, r) for r in range(13)]
F1_SPHERES = [sphere_size(RANK1, r) for r in range(13)]


def pt2(spec: LpProductSpec, *texts: str):
    return spec.point([word2(t) for t in texts])


class TestParseExponent:
    @pytest.mark.parametrize(
        "raw,value", [(1, 1.0), ("2", 2.0), (2.5, 2.5), ("inf", INF), ("oo", INF)]
    )
    def test_accepted_forms(self, raw, value):
        assert parse_exponent(raw) == value

    @pytest.mark.parametrize("raw", [0.5, 0, -1, "x", float("nan")])
    def test_rejected_forms(self, raw):
        with pytest.raises(InvalidInputError):
            parse_exponent(raw)

    def test_conjugate_exponents(self):
        assert F2F2[1].q == INF
        assert F2F2[INF].q == 1.0
        assert F2F2[2].q == 2.0
        assert LpProductSpec((RANK2,), 3).q == 1.5


class TestDistances:
    def test_pythagorean_pair(self):
        x = pt2(F2F2[2], "aba", "")
        y = pt2(F2F2[2], "", "abab")
        assert lp_distance(F2F2[2], x, y) == 5.0

    def test_l1_and_linf_are_integers(self):
        x = pt2(F2F2[1], "aba", "")
        y = pt2(F2F2[1], "", "abab")
        assert lp_distance(F2F2[1], x, y) == 7
        assert lp_distance(F2F2[INF], pt2(F2F2[INF], "aba", ""), pt2(F2F2[INF], "", "abab")) == 4

    def test_length_is_distance_to_identity(self):
        rng = random.Random(21)
        for p in (1, 2, INF):
            spec = F2F2[p]
            for _ in range(40):
                x = pt2(spec, _rand(rng), _rand(rng))
                assert lp_length(spec, x) == lp_distance(spec, spec.identity(), x)

    def test_triangle_inequality(self):
        rng = random.Random(22)
        for p in (1, 2, INF):
            spec = F2F2[p]
            for _ in range(60):
                x, y, z = (pt2(spec, _rand(rng), _rand(rng)) for _ in range(3))
                dxy = lp_distance(spec, x, y)
                assert dxy == lp_distance(spec, y, x)
                assert dxy <= lp_distance(spec, x, z) + lp_distance(spec, z, y) + 1e-12

    def test_shape_errors(self):
        spec = F2F2[1]
        with pytest.raises(InvalidInputError, match="coordinates"):
            lp_length(spec, LpProductSpec((RANK2,), 1).point([word2("a")]))
        with pytest.raises(InvalidInputError, match="alphabet"):
            spec.point([word2("a"), Alphabet(3).identity])

    @pytest.mark.parametrize("p", [1e7, 1e308])
    def test_huge_finite_p_hits_resource_limit_at_once(self, p):
        # an integer p forms exact keys r**p, which grow without bound with p
        spec = LpProductSpec((RANK2, RANK2), p)
        x, y = pt2(spec, "aba", "ab"), pt2(spec, "", "")
        start = time.perf_counter()
        for call in (lambda: lp_length(spec, x), lambda: lp_distance(spec, x, y)):
            with pytest.raises(ResourceLimitError, match=re.escape(f"p = {p:g} exceeds 1000")):
                call()
        assert time.perf_counter() - start < 1.0

    def test_p_1000_still_has_lengths(self):
        spec = LpProductSpec((RANK2, RANK2), 1000)
        x = pt2(spec, "aba", "ab")
        assert lp_length(spec, x) == lp_distance(spec, spec.identity(), x)
        # (3^1000 + 2^1000)^(1/1000) = 3 (1 + (2/3)^1000)^(1/1000)
        assert lp_length(spec, x) == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("p", [700.5, 999.5])
    def test_overflowing_float_keys_hit_resource_limit(self, p):
        # 3.0**p overflows a float for these non-integer p
        spec = LpProductSpec((RANK2, RANK2), p)
        x = pt2(spec, "aaa", "bb")
        for call in (lambda: lp_length(spec, x), lambda: lp_distance(spec, spec.identity(), x)):
            with pytest.raises(ResourceLimitError, match=r"profile \(3, 2\) overflow a float"):
                call()

    def test_overflowing_float_key_sum_hits_resource_limit(self):
        # each 3.0**645.9 is a float, but their sum is not
        spec = LpProductSpec((RANK2, RANK2), 645.9)
        with pytest.raises(ResourceLimitError, match="overflow a float"):
            lp_length(spec, pt2(spec, "aaa", "bbb"))
        assert lp_length(spec, pt2(spec, "aaa", "b")) == 3.0

    def test_fractional_p_lengths_are_unchanged(self):
        spec = LpProductSpec((RANK2, RANK2), 3.5)
        x = pt2(spec, "aaa", "bb")
        assert lp_length(spec, x) == lp_distance(spec, spec.identity(), x)
        assert lp_length(spec, x) == pytest.approx(3.19157928276, rel=1e-10)

    def test_product_needs_a_factor(self):
        with pytest.raises(InvalidInputError):
            LpProductSpec((), 2)

    def test_norm_sums_left_to_right(self):
        # a profile on which math.fsum (and sum() from Python 3.12 on) rounds
        # differently from the left fold: ...498 against ...499
        profile, p = (27, 1, 15, 7, 23), 1.01
        total = oracles.power_sum(profile, p)
        assert total != math.fsum(r**p for r in profile)
        assert _lp_norm(profile, p) == total ** (1 / p)


def _rand(rng: random.Random) -> str:
    # parse_word reduces, so unreduced char noise is fine here
    return "".join(rng.choice("abAB") for _ in range(rng.randrange(5)))


class TestBallCounts:
    @pytest.mark.parametrize(
        "p,balls",
        [
            (1, [1, 9, 49, 217, 865]),
            (2, [1, 9, 49, 361, 1729]),
            (INF, [1, 25, 289, 2809, 25921]),
        ],
    )
    def test_frozen_f2xf2_balls(self, p, balls):
        spec = F2F2[p]
        got = [product_ball_counts(spec, (F2_SPHERES, F2_SPHERES), R) for R in range(5)]
        assert got == balls

    @pytest.mark.parametrize("p", [1, 2, INF, 1.5])
    def test_matches_lattice_brute(self, p):
        spec = LpProductSpec((RANK2, RANK2), p)
        for R in range(5):
            want = oracles.product_ball_brute(p, [F2_SPHERES[:5], F2_SPHERES[:5]], R)
            assert product_ball_counts(spec, (F2_SPHERES, F2_SPHERES), R) == want

    @pytest.mark.parametrize("p", [1, 2, INF])
    def test_asymmetric_factors(self, p):
        spec = LpProductSpec((RANK1, RANK2), p)
        for R in range(5):
            want = oracles.product_ball_brute(p, [F1_SPHERES[:5], F2_SPHERES[:5]], R)
            assert product_ball_counts(spec, (F1_SPHERES, F2_SPHERES), R) == want

    @pytest.mark.parametrize("p", [1, 2, 1.5])
    def test_fractional_radius(self, p):
        spec = LpProductSpec((RANK2, RANK2), p)
        want = oracles.product_ball_brute(p, [F2_SPHERES[:4], F2_SPHERES[:4]], 2.5)
        assert product_ball_counts(spec, (F2_SPHERES, F2_SPHERES), 2.5) == want

    def test_radius_zero_is_the_identity(self):
        for p in (1, 2, INF):
            assert product_ball_counts(F2F2[p], (F2_SPHERES, F2_SPHERES), 0) == 1

    def test_monotone_in_p(self):
        # the p-ball of radius R grows with p
        counts = [
            product_ball_counts(LpProductSpec((RANK2, RANK2), p), (F2_SPHERES, F2_SPHERES), 4)
            for p in (1, 1.5, 2, 3, INF)
        ]
        assert counts == sorted(counts)

    def test_linf_factorizes(self):
        ball = sum(F2_SPHERES[: 4 + 1])
        assert product_ball_counts(F2F2[INF], (F2_SPHERES, F2_SPHERES), 4) == ball**2

    def test_sequence_diffs_to_spheres(self):
        seq = LatticeTable(F2F2[1].p, (F2_SPHERES, F2_SPHERES), 4).sequence(4)
        assert seq.balls() == [1, 9, 49, 217, 865]
        assert list(seq.spheres) == [1, 8, 40, 168, 648]

    def test_short_factor_counts_are_rejected(self):
        with pytest.raises(ResourceLimitError, match="reach radius"):
            product_ball_counts(F2F2[1], (F2_SPHERES[:3], F2_SPHERES), 5)
        with pytest.raises(InvalidInputError):
            product_ball_counts(F2F2[1], (F2_SPHERES,), 3)
        with pytest.raises(InvalidInputError):
            product_ball_counts(F2F2[1], (F2_SPHERES, F2_SPHERES), -1)


class TestFloatBoundary:
    @pytest.mark.parametrize("p", [1.5, 3])
    @pytest.mark.parametrize("ranks", [(2, 2), (1, 2, 3)])
    def test_matches_brute_at_random_and_support_radii(self, p, ranks):
        spec = LpProductSpec(tuple(Alphabet(k) for k in ranks), p)
        spheres = [[sphere_size(a, r) for r in range(13)] for a in spec.factors]
        report = verify_duality(spec, spheres, 12, [1.0] * len(ranks))
        step = len(ranks) ** (1 / p)
        assert report.support_radii == tuple(
            step * j * (1 + 1e-12) for j in range(1, len(report.support_radii) + 1)
        )
        rng = random.Random(f"{p}{ranks}")
        radii = [rng.uniform(0, 12) for _ in range(30)] + list(report.support_radii)
        for R in radii:
            want = oracles.product_ball_brute(p, [s[: math.floor(R) + 1] for s in spheres], R)
            assert product_ball_counts(spec, spheres, R) == want, R
        assert list(report.support_balls) == [
            oracles.product_ball_brute(p, [s[: math.floor(R) + 1] for s in spheres], R)
            for R in report.support_radii
        ]


class TestGeneratingSetCorrespondence:
    def test_f2xf2_distances_match_lengths(self):
        rep = generating_set_correspondence(F2F2[2], max_radius=3)
        assert rep.passed
        assert rep.mismatches == ()
        # BFS balls agree with the lattice counts at the same radius
        assert rep.checked_s1 == 217
        assert rep.checked_sinf == 2809

    def test_asymmetric_product(self):
        rep = generating_set_correspondence(LpProductSpec((RANK1, RANK2), 1), max_radius=3)
        assert rep.passed
        assert report_fields(rep)["passed"] is True

    def test_negative_radius_is_rejected(self):
        with pytest.raises(InvalidInputError):
            generating_set_correspondence(F2F2[1], max_radius=-1)


class TestDualityExponent:
    def test_conjugate_norm_of_equal_factors(self):
        assert duality_exponent([LOG3, LOG3], INF) == pytest.approx(2 * LOG3, abs=1e-12)
        assert duality_exponent([LOG3, LOG3], 2) == pytest.approx(math.sqrt(2) * LOG3, abs=1e-12)
        assert duality_exponent([LOG3, LOG3], 1) == pytest.approx(LOG3, abs=1e-12)

    def test_asymmetric_factors(self):
        assert duality_exponent([1.0, 2.0], 2) == pytest.approx(math.sqrt(5), abs=1e-12)
        assert duality_exponent([1.0, 2.0], 3) == pytest.approx(
            (1 + 2**1.5) ** (2 / 3), abs=1e-12
        )
        assert duality_exponent([1.0, 2.0], 1) == 2.0

    def test_homogeneous(self):
        rng = random.Random(23)
        for _ in range(50):
            deltas = [rng.uniform(0, 3) for _ in range(rng.randrange(1, 4))]
            c = rng.uniform(0.1, 5)
            p = rng.choice([1, 1.5, 2, 4, INF])
            assert duality_exponent([c * d for d in deltas], p) == pytest.approx(
                c * duality_exponent(deltas, p), rel=1e-10
            )

    def test_non_decreasing_in_p(self):
        grid = [1, 1.25, 1.5, 2, 3, 8, INF]
        values = [duality_exponent([LOG3, LOG3], p) for p in grid]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            duality_exponent([], 2)
        with pytest.raises(InvalidInputError):
            duality_exponent([-0.5], 2)
        with pytest.raises(InvalidInputError):
            duality_exponent([1.0], 0.5)


class TestVerifyDuality:
    COUNTS = (F2_SPHERES, F2_SPHERES)

    def test_linf_prediction(self):
        rep = verify_duality(F2F2[INF], self.COUNTS, 12, (LOG3, LOG3))
        assert rep.predicted == pytest.approx(2 * LOG3, abs=1e-12)
        assert rep.measured.contains(rep.predicted)
        assert rep.deviation < 0.01

    def test_l1_prediction(self):
        rep = verify_duality(F2F2[1], self.COUNTS, 12, (LOG3, LOG3))
        assert rep.predicted == pytest.approx(LOG3, abs=1e-12)
        assert rep.measured.contains(rep.predicted)
        assert rep.deviation < 0.01

    def test_l2_prediction(self):
        # support radii step sqrt(2): midpoint lands within the stated slack
        rep = verify_duality(F2F2[2], self.COUNTS, 12, (LOG3, LOG3))
        assert rep.predicted == pytest.approx(math.sqrt(2) * LOG3, abs=1e-12)
        assert rep.deviation <= 0.08

    @pytest.mark.parametrize("p", [1, 2, INF])
    def test_single_factor_is_p_independent(self, p):
        spec = LpProductSpec((RANK2,), p)
        rep = verify_duality(spec, (F2_SPHERES,), 12, (LOG3,))
        assert rep.predicted == pytest.approx(LOG3, abs=1e-12)
        assert rep.deviation < 0.01

    def test_report_shape(self):
        rep = verify_duality(F2F2[INF], self.COUNTS, 6, (LOG3, LOG3))
        d = report_fields(rep)
        assert d["p"] == "inf" and d["q"] == 1.0
        assert len(d["balls"]) == 7
        assert d["support_radii"] == pytest.approx(list(range(1, 7)), rel=1e-9)
        assert d["contains_predicted"] is rep.measured.contains(rep.predicted)

    def test_exponent_count_mismatch(self):
        with pytest.raises(InvalidInputError):
            verify_duality(F2F2[1], self.COUNTS, 6, (LOG3,))
