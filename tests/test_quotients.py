"""Quotient oracles: minimal sections, coset ball counts, tightness verdicts."""
from __future__ import annotations

import bisect
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growthtight import (
    Abelianization,
    Alphabet,
    FactorKernel,
    HomToIntegers,
    InvalidInputError,
    LpProductSpec,
    ResourceLimitError,
    check_prop_minimal,
    check_section_structure,
    enumerate_ball,
    minimal_section,
    quotient_ball_counts,
    tightness_verdict,
)
from growthtight import words
from growthtight.quotients import KINDS
from growthtight.reports import canonical_json
from growthtight.tree import shorten_threshold

import oracles
from conftest import RANK2, chars, report_fields, word2

INF = math.inf
LOG3 = math.log(3)

F2 = LpProductSpec((RANK2,), 1)
F2F2_P1 = LpProductSpec((RANK2, RANK2), 1)
F2F2_INF = LpProductSpec((RANK2, RANK2), INF)

HOM = HomToIntegers(((1, 1), (1, -1)))


def hom_key(coords: tuple[str, ...]) -> int:
    (ea1, eb1) = oracles.exp_vector(coords[0], 2)
    (ea2, eb2) = oracles.exp_vector(coords[1], 2)
    return (ea1 + eb1) + (ea2 - eb2)


def charmap(section) -> dict:
    return {
        key: (tuple(chars(w) for w in point.coords), length)
        for key, (point, length) in section.entries.items()
    }


class TestOracleConstruction:
    def test_kinds_and_report_blocks(self):
        # each record is written as the oracle block of a report, and KINDS
        # names its class by the block's kind
        for record, block in [
            (FactorKernel([1, 0, 1]), {"kind": "factor-kernel", "kill": [0, 1]}),
            (Abelianization(), {"kind": "abelianization-kernel"}),
            (HOM, {"kind": "homomorphism-to-integers", "coefficients": [[1, 1], [1, -1]]}),
        ]:
            assert canonical_json(record) == canonical_json(block)
            assert KINDS[block["kind"]] is type(record)

    def test_bad_constructions(self):
        with pytest.raises(InvalidInputError, match="must be >= 0"):
            FactorKernel([-1])
        with pytest.raises(InvalidInputError, match="needs coefficient rows"):
            HomToIntegers(())
        # a field of another kind is not a field of the record
        with pytest.raises(TypeError):
            Abelianization(kill=[1])
        with pytest.raises(TypeError):
            FactorKernel([1], coefficients=[[1, 1]])

    def test_validate_for(self):
        with pytest.raises(InvalidInputError, match="out of range"):
            FactorKernel([2]).validate_for(F2F2_P1)
        with pytest.raises(InvalidInputError, match="coefficient rows"):
            HomToIntegers(((1, 1),)).validate_for(F2F2_P1)
        with pytest.raises(InvalidInputError, match="rank"):
            HomToIntegers(((1,), (1,))).validate_for(F2F2_P1)

    def test_keys_are_constant_on_cosets(self):
        # multiplying a coordinate by a kernel word fixes the key
        g = F2F2_P1.point([word2("ab"), word2("Ba")])
        shifted = F2F2_P1.point([word2("ab") * word2("abAB"), word2("Ba")])
        ab = Abelianization()
        assert ab.key(g) == ab.key(shifted)
        assert HOM.key(g) == HOM.key(shifted)


class TestMinimalSection:
    def test_hom_smallest_representatives(self):
        sec = minimal_section(F2F2_P1, HOM, 2)
        got = charmap(sec)
        assert got[0] == (("", ""), 0.0)
        assert got[1] == (("", "a"), 1.0)
        assert got[-1] == (("", "A"), 1.0)
        assert got[2] == (("", "aa"), 2.0)
        assert sorted(got) == [-2, -1, 0, 1, 2]

    def test_hom_matches_brute_scan(self):
        sec = charmap(minimal_section(F2F2_P1, HOM, 3))
        want = oracles.minimal_section_brute(1, [2, 2], hom_key, 3)
        assert sec == want

    def test_hom_matches_brute_scan_linf(self):
        sec = charmap(minimal_section(F2F2_INF, HOM, 2))
        want = oracles.minimal_section_brute(float("inf"), [2, 2], hom_key, 2)
        assert sec == want

    def test_abelianization_matches_brute_scan(self):
        key_fn = lambda coords: (oracles.exp_vector(coords[0], 2),)
        sec = charmap(minimal_section(F2, Abelianization(), 3))
        assert sec == oracles.minimal_section_brute(1, [2], key_fn, 3)

    def test_factor_kernel_section_is_the_surviving_ball(self):
        sec = minimal_section(F2F2_P1, FactorKernel([1]), 2)
        reps = sorted(charmap(sec).values())
        assert len(reps) == 17  # |B_2| in the surviving factor
        for key, (point, length) in sec.entries.items():
            assert key == (point.coords[0].letters,)
            assert chars(point.coords[1]) == ""
            assert length == len(point.coords[0])

    def test_sections_nest_as_the_radius_grows(self):
        small = charmap(minimal_section(F2F2_P1, HOM, 2))
        large = charmap(minimal_section(F2F2_P1, HOM, 3))
        for key, entry in small.items():
            assert large[key] == entry

    def test_rep_length_is_the_coset_minimum(self):
        sec = minimal_section(F2, Abelianization(), 3)
        best: dict = {}
        for w in enumerate_ball(RANK2, 3):
            key = (w.exponent_sums(),)
            best[key] = min(best.get(key, 99), len(w))
        assert {k: v for k, (_, v) in sec.entries.items()} == best

    def test_negative_radius_is_rejected(self):
        with pytest.raises(InvalidInputError):
            minimal_section(F2, Abelianization(), -1)

    def test_cutoff_guard(self):
        with pytest.raises(ResourceLimitError):
            minimal_section(F2, Abelianization(), 8, cutoff=6)

    def test_scan_combines_one_word_per_part(self, monkeypatch):
        # A hom part on the F2 sphere of radius r takes r + 1 values, so the
        # profiles r1 + r2 <= 6 need sum (r1 + 1)(r2 + 1) = 210 combinations;
        # the L^1 ball of radius 6 in F2 x F2 has 11 665 product points.
        calls = 0
        combine = HomToIntegers.combine

        def counting_combine(self, parts):
            nonlocal calls
            calls += 1
            return combine(self, parts)

        monkeypatch.setattr(HomToIntegers, "combine", counting_combine)
        sec = minimal_section(F2F2_P1, HOM, 6)
        assert sec.size == 13
        assert calls <= 250

    @pytest.mark.parametrize("oracle,h", [
        (Abelianization(), ("abAB", "abAB")),
        (HOM, ("ab", "bA")),
    ], ids=["abelianization", "hom"])
    def test_additive_check_lists_no_words(self, monkeypatch, oracle, h):
        def listing(*args, **kwargs):
            raise AssertionError("a sphere was listed")

        monkeypatch.setattr(words, "iter_sphere_letters", listing)
        h_tuple = F2F2_P1.point([word2(c) for c in h])
        K = max(shorten_threshold(w) for w in h_tuple.coords)
        report = check_prop_minimal(F2F2_P1, oracle, h_tuple, K, 6)
        assert report.checked == minimal_section(F2F2_P1, oracle, 6).size > 1


def _part_fn(rank, row):
    """An oracle part on char strings: the exponent vector, or its dot
    product with the homomorphism row."""
    if row is None:
        return lambda w: oracles.exp_vector(w, rank)
    return lambda w: sum(c * e for c, e in zip(row, oracles.exp_vector(w, rank)))


class TestSpelledRepresentatives:
    """The per-sphere first words built from per-letter parts, against a
    listing of every word of each sphere."""

    @pytest.mark.parametrize("rank,r_max,row", [
        (1, 8, None), (1, 8, (2,)), (1, 8, (0,)),
        (2, 8, None), (2, 8, (1, 1)), (2, 8, (0, -2)), (2, 8, (0, 0)),
        (3, 8, None), (3, 7, (1, 0, -1)), (3, 7, (0, 2, 3)),
    ])
    def test_first_word_per_part_and_order(self, rank, r_max, row):
        if row is None:
            oracle = Abelianization()
        else:
            oracle = HomToIntegers([row])
        got = oracle.first_words(0, Alphabet(rank), r_max)
        want = oracles.first_words_by_part(rank, r_max, _part_fn(rank, row))
        assert [[(t, chars(w)) for t, w in sphere] for sphere in got] == want

    @pytest.mark.parametrize("rank,r_max", [(1, 8), (2, 7), (3, 5)])
    def test_factor_kernel_first_words(self, rank, r_max):
        # factor 0 survives, so its part is the word itself; factor 1 is
        # killed, so one word, the first, stands for each sphere
        oracle = FactorKernel([1])
        for index, part_fn in ((0, oracles.lex_key), (1, lambda w: None)):
            got = oracle.first_words(index, Alphabet(rank), r_max)
            want = oracles.first_words_by_part(rank, r_max, part_fn)
            assert [[(t, chars(w)) for t, w in sphere] for sphere in got] == want


def listed_first_words(self, index, alphabet, r_max):
    """FactorKernel first words by listing every sphere and keeping, for a
    killed factor, only its first word: the reference the spelled words
    must reproduce."""
    spheres = [words.enumerate_sphere(alphabet, r) for r in range(r_max + 1)]
    if index in self.kill:
        return [[(None, sphere[0])] for sphere in spheres]
    return [[(w.letters, w) for w in sphere] for sphere in spheres]


class TestFactorKernelSections:
    """A factor kernel's first words are spelled, not listed."""

    # (p, largest radius of the brute scan): keep it to ~30 000 product points
    CASES = [(1, 6), (2, 5), (INF, 4)]

    @pytest.mark.parametrize("killed", [[1], [0, 1]], ids=["kill-1", "kill-both"])
    @pytest.mark.parametrize("p,brute_max", CASES, ids=["p1", "p2", "pinf"])
    def test_sections_match_listing_and_brute_scan(self, monkeypatch, p, brute_max, killed):
        spec = LpProductSpec((RANK2, RANK2), p)
        oracle = FactorKernel(killed)

        def key_fn(coords):
            return tuple(oracles.lex_key(c) for i, c in enumerate(coords) if i not in killed)

        got = {r: list(charmap(minimal_section(spec, oracle, r)).items()) for r in range(7)}
        for r in range(brute_max + 1):
            assert got[r] == list(oracles.minimal_section_brute(p, [2, 2], key_fn, r).items())
        monkeypatch.setattr(FactorKernel, "first_words", listed_first_words)
        for r in range(7):
            assert got[r] == list(charmap(minimal_section(spec, oracle, r)).items())

    def test_killed_factors_list_no_sphere(self, monkeypatch):
        def listing(*args, **kwargs):
            raise AssertionError("a sphere was listed")

        monkeypatch.setattr(words, "iter_sphere_letters", listing)
        sec = minimal_section(F2F2_P1, FactorKernel([0, 1]), 6)
        assert charmap(sec) == {(): (("", ""), 0)}
        # nor does any other kind: one representative per coset of the ball
        for oracle in (Abelianization(), HOM):
            size = minimal_section(F2F2_P1, oracle, 6).size
            assert size == quotient_ball_counts(F2F2_P1, oracle, 6).balls()[-1] > 1


@st.composite
def section_cases(draw):
    """(spec, oracle, r_max, brute key function) over every oracle kind."""
    ranks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    p = draw(st.sampled_from((1, 1.5, 2, 3, INF)))
    kind = draw(st.sampled_from(("factor", "abelianization", "hom")))
    r_max = draw(st.sampled_from((0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4)))
    # keep the brute scan to a few thousand product points
    while math.prod(oracles.ball_sizes(k, math.floor(r_max))[-1] for k in ranks) > 6_000:
        r_max -= 1
    spec = LpProductSpec(tuple(Alphabet(k) for k in ranks), p)
    if kind == "factor":
        killed = draw(st.sets(st.integers(0, len(ranks) - 1)))
        oracle = FactorKernel(killed)

        def key_fn(coords):
            return tuple(oracles.lex_key(c) for i, c in enumerate(coords) if i not in killed)

    elif kind == "abelianization":
        oracle = Abelianization()

        def key_fn(coords):
            return tuple(oracles.exp_vector(c, k) for c, k in zip(coords, ranks))

    else:
        rows = [draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k)) for k in ranks]
        oracle = HomToIntegers(rows)

        def key_fn(coords):
            return sum(
                sum(c * e for c, e in zip(row, oracles.exp_vector(w, k)))
                for row, w, k in zip(rows, coords, ranks)
            )

    return spec, oracle, r_max, key_fn


class TestSectionAgainstBruteScan:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(section_cases())
    def test_entries_and_their_order_match_the_full_scan(self, case):
        spec, oracle, r_max, key_fn = case
        got = [
            (key, (tuple(chars(w) for w in point.coords), length))
            for key, (point, length) in minimal_section(spec, oracle, r_max).entries.items()
        ]
        ranks = [a.rank for a in spec.factors]
        want = oracles.minimal_section_brute(spec.p, ranks, key_fn, r_max)
        assert got == list(want.items())


class TestQuotientBallCounts:
    def test_abelianized_f2_is_the_diamond_lattice(self):
        got = quotient_ball_counts(F2, Abelianization(), 4)
        assert got.balls() == [1, 5, 13, 25, 41]
        assert list(got.spheres) == [1, 4, 8, 12, 16]

    def test_kill_all_factors_is_the_trivial_group(self):
        oracle = FactorKernel([0, 1])
        images = quotient_ball_counts(F2F2_P1, oracle, 3)
        assert images.balls() == [1, 1, 1, 1]
        assert scanned_balls(F2F2_P1, oracle, 3) == [1, 1, 1, 1]

    def test_kill_one_factor_leaves_free_group_counts(self):
        oracle = FactorKernel([1])
        images = quotient_ball_counts(F2F2_P1, oracle, 4)
        assert images.balls() == [1, 5, 17, 53, 161]
        assert scanned_balls(F2F2_P1, oracle, 4) == [1, 5, 17, 53, 161]

    def test_hom_quotient_grows_linearly(self):
        got = quotient_ball_counts(F2F2_P1, HOM, 4)
        assert got.balls() == [1, 3, 5, 7, 9]

    def test_left_invariance_of_key_balls(self):
        # the key image of g * B_r has the size of the r-ball's key image
        oracle = Abelianization()
        ball_keys = {
            oracle.key(F2.point([x])) for x in enumerate_ball(RANK2, 4)
        }
        for g in ("ab", "BBa", "abab"):
            shifted = {
                oracle.key(F2.point([word2(g) * x]))
                for x in enumerate_ball(RANK2, 4)
            }
            assert len(shifted) == len(ball_keys) == 41


def scanned_balls(spec: LpProductSpec, oracle, r_max: int) -> list[int]:
    """Quotient balls read off the enumerated minimal section."""
    lengths = sorted(length for _, length in minimal_section(spec, oracle, r_max).entries.values())
    return [bisect.bisect_right(lengths, r + 1e-9) for r in range(r_max + 1)]


@st.composite
def coordinatewise_quotients(draw):
    ranks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    p = draw(st.sampled_from((1, 1.5, 2, 3, INF)))
    spec = LpProductSpec(tuple(Alphabet(k) for k in ranks), p)
    kind = draw(st.sampled_from(("factor", "abelianization", "hom")))
    if kind == "factor":
        oracle = FactorKernel(draw(st.sets(st.integers(0, len(ranks) - 1))))
    elif kind == "abelianization":
        oracle = Abelianization()
    else:
        oracle = HomToIntegers(
            [draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k)) for k in ranks]
        )
    r_max = draw(st.integers(0, 4))
    # keep the reference enumeration to tens of thousands of product points
    while math.prod(oracles.ball_sizes(k, r_max)[-1] for k in ranks) > 40_000:
        r_max -= 1
    return spec, oracle, r_max


class TestImagesAgainstEnumeration:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(coordinatewise_quotients())
    @example((F2F2_P1, HomToIntegers(((0, 0), (2, 2))), 4))
    @example((F2F2_INF, HomToIntegers(((2, 0), (0, 2))), 4))
    @example(
        (LpProductSpec((RANK2, Alphabet(1)), 1.5), HomToIntegers(((1, 1), (1,))), 4)
    )
    @example((LpProductSpec((Alphabet(3),), 2), HomToIntegers(((2, -2, 0),)), 4))
    @example((F2F2_INF, Abelianization(), 4))
    @example((F2F2_P1, FactorKernel([0, 1]), 4))
    def test_image_balls_equal_section_balls(self, case):
        spec, oracle, r_max = case
        images = quotient_ball_counts(spec, oracle, r_max)
        assert images.balls() == scanned_balls(spec, oracle, r_max)


class TestSectionStructure:
    H_TUPLE = None  # built lazily: (ab, bA) lies in the hom kernel

    def h_tuple(self):
        return F2F2_P1.point([word2("ab"), word2("bA")])

    def test_minimal_reps_have_a_restricted_coordinate(self):
        report = check_prop_minimal(F2F2_P1, HOM, self.h_tuple(), 6, 4)
        assert report.passed
        assert report.checked == 9
        assert report.counterexamples == ()

    def test_corrupted_section_is_flagged(self):
        sec = minimal_section(F2F2_P1, HOM, 2)
        bad = F2F2_P1.point([word2("ab") ** 4, word2("ab") ** 4])
        sec.entries[0] = (bad, 0.0)
        h = F2F2_P1.point([word2("ab"), word2("ab")])
        report = check_section_structure(sec, h, 6)
        assert not report.passed
        assert len(report.counterexamples) == 1
        assert report_fields(report)["counterexamples"][0][0] == "0"

    def test_h_tuple_must_lie_in_the_kernel(self):
        with pytest.raises(InvalidInputError, match="kernel"):
            check_prop_minimal(
                F2F2_P1, HOM, F2F2_P1.point([word2("a"), word2("a")]), 6, 3
            )

    def test_oracle_is_checked_against_the_spec_before_keys_are_read(self):
        # one coefficient row for two factors: reading h's key would index past it
        one_row = HomToIntegers([[1, 1]])
        with pytest.raises(InvalidInputError, match="1 coefficient rows for 2 factors"):
            check_prop_minimal(F2F2_P1, one_row, self.h_tuple(), 6, 3)

    def test_h_tuple_coordinates_must_be_non_trivial(self):
        with pytest.raises(InvalidInputError, match="non-trivial"):
            check_prop_minimal(
                F2F2_P1, HOM, F2F2_P1.point([word2("ab"), word2("")]), 6, 3
            )


class TestTightnessVerdict:
    def test_kill_factor_at_linf_is_tight(self):
        rep = tightness_verdict(F2F2_INF, FactorKernel([1]), 8, 0.08)
        assert rep.verdict == "tight"
        assert rep.gap == pytest.approx(LOG3, abs=1e-6)
        assert rep.rationale
        d = report_fields(rep)
        assert d["delta_G"]["lower"] == pytest.approx(2 * LOG3, abs=1e-6)
        assert d["delta_GN"]["upper"] == pytest.approx(LOG3, abs=1e-6)

    def test_kill_factor_at_l1_is_not_tight(self):
        rep = tightness_verdict(F2F2_P1, FactorKernel([1]), 8, 0.08)
        assert rep.verdict == "not-tight"
        assert rep.overlap_gap <= 1e-6
        d = report_fields(rep)
        assert d["delta_GN"]["upper"] <= d["delta_G"]["upper"] + 1e-12
        assert rep.rationale

    def test_abelianization_is_tight(self):
        rep = tightness_verdict(F2, Abelianization(), 8, 0.08)
        assert rep.verdict == "tight"
        assert rep.gap > 0.2
        assert rep.rationale

    def test_abelianized_f2xf2_at_linf_is_tight(self):
        # Z^2 x Z^2 with the max of the two l^1 norms: the ball is the square
        # of the l^1 diamond 2r^2 + 2r + 1.
        oracle = Abelianization()
        rep = tightness_verdict(F2F2_INF, oracle, 8, 0.08)
        assert rep.verdict == "tight"
        assert quotient_ball_counts(F2F2_INF, oracle, 8).balls() == [
            (2 * r * r + 2 * r + 1) ** 2 for r in range(9)
        ]
        # at p = 1 the quotient is Z^4 with its l^1 norm
        assert quotient_ball_counts(F2F2_P1, oracle, 8).balls() == [
            sum(2**j * math.comb(4, j) * math.comb(r, j) for j in range(5))
            for r in range(9)
        ]

    def test_killing_nothing_is_inconclusive(self):
        rep = tightness_verdict(F2F2_P1, FactorKernel([]), 6, 0.08)
        assert rep.verdict == "inconclusive"
        assert rep.gap <= 0.08
        assert rep.rationale

    def test_report_serializes(self):
        rep = tightness_verdict(F2F2_INF, FactorKernel([1]), 6, 0.08)
        d = report_fields(rep)
        assert d["p"] == "inf"
        assert d["verdict"] == "tight"
        assert set(d) >= {"delta_G", "delta_GN", "gap", "overlap_gap", "rationale"}
