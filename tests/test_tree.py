"""Axes in the Cayley tree: projections, restricted sets, the shortening move."""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from growthtight import (
    Alphabet,
    AlphabetMismatchError,
    Axis,
    InvalidInputError,
    ReducedWord,
    check_projection_axioms,
    count_lengths,
    enumerate_ball,
    enumerate_sphere,
    format_word,
    ghat_language,
    ghat_membership_exact,
    lemma31_bound_check,
    lemma31_sweep,
    parse_word,
    random_axis_family,
    shorten,
    shorten_sweep,
    shorten_threshold,
)
from growthtight import automata, tree
from growthtight.tree import (
    D_TREE,
    _frame_coordinate,
    _long_runs,
    _meet,
    _ray_prefix,
    _run_k,
    _walk_ghat_letters,
)

import oracles
from conftest import RANK2, RANK3, chars, report_fields, word2

AB = Axis.from_element(word2("ab"))


def rand_chars(rng: random.Random, rank: int, length: int) -> str:
    pool = oracles.letters(rank)
    out = []
    for _ in range(length):
        step = [c for c in pool if not out or c != oracles.inv(out[-1])]
        out.append(rng.choice(step))
    return "".join(out)


def axis2(text: str, translate: str | None = None) -> Axis:
    t = None if translate is None else word2(translate)
    return Axis.from_element(word2(text), t)


def project(x: ReducedWord, ax: Axis) -> tuple[int, int]:
    """(coordinate, distance) of the projection of the vertex x onto ax."""
    return _frame_coordinate((~ax.origin * x).letters, ax.frame)


def vertex(ax: Axis, coordinate: int) -> ReducedWord:
    """The vertex of ax at a signed coordinate."""
    return ax.origin * ReducedWord(ax.alphabet, _ray_prefix(ax.frame, coordinate))


class TestAxis:
    @pytest.mark.parametrize("h", ["a", "ab", "baB", "aab", "abab"])
    def test_points_match_ray_walk(self, h):
        ax = axis2(h)
        for coord in range(-6, 7):
            assert chars(vertex(ax, coord)) == oracles.axis_vertex(h, coord)

    @pytest.mark.parametrize("h", ["ab", "baB", "aa", "bAAb"])
    def test_powers_are_quasi_geodesic(self, h):
        # |h^n| = n |core| + 2 |conjugator|, exact in the tree
        ax = axis2(h)
        w = word2(h)
        for n in range(1, 7):
            assert len(w**n) == n * len(ax.core) + 2 * len(ax.conjugator)

    def test_identity_has_no_axis(self):
        with pytest.raises(InvalidInputError):
            Axis.from_element(RANK2.identity)

    def test_translated_moves_origin(self):
        w = word2("bba")
        moved = Axis.from_element(AB.element, w * AB.translate)
        assert moved.origin == w * AB.origin
        assert moved.root == AB.root


class TestProjection:
    @pytest.mark.parametrize(
        "x,coord,dist",
        [
            ("b", 0, 1),
            ("aababab", 1, 6),
            ("abababa", 7, 0),
            ("baB", 0, 3),
            ("ABAB", 0, 4),
        ],
    )
    def test_frozen_projections_onto_ab_axis(self, x, coord, dist):
        assert project(word2(x), AB) == (coord, dist) == oracles.brute_project(x, "ab")
        assert chars(vertex(AB, coord)) == oracles.axis_vertex("ab", coord)

    def test_matches_brute_nearest_vertex(self):
        rng = random.Random(8)
        pool = ["a", "b", "ab", "aB", "ba", "aab", "abb", "baB", "bAA"]
        for _ in range(300):
            h = rng.choice(pool)
            x = rand_chars(rng, 2, rng.randrange(9))
            assert project(word2(x), axis2(h)) == oracles.brute_project(x, h)

    def test_projection_is_idempotent(self):
        rng = random.Random(9)
        for _ in range(60):
            h = rng.choice(["ab", "baB", "aab"])
            ax = axis2(h)
            coord, _ = project(word2(rand_chars(rng, 2, rng.randrange(8))), ax)
            foot = vertex(ax, coord)
            assert project(foot, ax) == (coord, 0) == oracles.brute_project(chars(foot), h)

    def test_equivariance_under_translation(self):
        rng = random.Random(10)
        for _ in range(60):
            w = word2(rand_chars(rng, 2, rng.randrange(6)))
            x = word2(rand_chars(rng, 2, rng.randrange(8)))
            moved_axis = Axis.from_element(AB.element, w * AB.translate)
            coord, dist = project(x, AB)
            assert project(w * x, moved_axis) == (coord, dist)
            assert vertex(moved_axis, coord) == w * vertex(AB, coord)

    def test_segment_off_the_line_projects_to_one_point(self):
        # every vertex of [b, baBA] hangs in the b-branch: single common foot
        path = ["b", "ba", "baB", "baBA"]
        got = [project(word2(v), AB) for v in path]
        assert got == [oracles.brute_project(v, "ab") for v in path]
        assert {vertex(AB, coord) for coord, _ in got} == {AB.origin}
        assert [dist for _, dist in got] == [1, 2, 3, 4]


def meets(source: Axis, target: Axis):
    """_meet of two axes, read from their letter frames."""
    return _meet(source.frame, target.frame)


class TestSameLine:
    """_meet returns None exactly on the pairs that oracles.axis_overlap
    finds on one line."""

    def test_power_spans_the_same_line(self):
        assert meets(AB, axis2("abab")) is None
        assert oracles.axis_overlap("ab", "", "abab", "") is None

    def test_inverse_spans_the_same_line(self):
        assert meets(AB, axis2("BA")) is None
        assert oracles.axis_overlap("ab", "", "BA", "") is None

    def test_translate_along_the_line(self):
        assert meets(AB, axis2("ab", "abab")) is None
        assert oracles.axis_overlap("ab", "", "ab", "abab") is None

    def test_swapped_letters_differ(self):
        assert meets(AB, axis2("ba")) == ((0, 0), (0, 0))
        assert oracles.axis_overlap("ab", "", "ba", "") == (0, 0)
        assert oracles.axis_overlap("ba", "", "ab", "") == (0, 0)

    def test_translate_off_the_line_differs(self):
        # the lines cross only at the identity: b B, coordinate -1 of the moved axis
        assert meets(AB, axis2("ab", "b")) == ((-1, -1), (0, 0))
        assert oracles.axis_overlap("ab", "", "ab", "b") == (-1, -1)
        assert oracles.axis_overlap("ab", "b", "ab", "") == (0, 0)

    def test_alphabet_mismatch(self):
        # the letter scans cannot tell alphabets apart, so the public entry refuses
        with pytest.raises(AlphabetMismatchError):
            check_projection_axioms([AB, Axis.from_element(parse_word(RANK3, "a b"))])


class TestAxisOntoAxis:
    """The first interval of _meet, against oracles.axis_overlap."""

    def test_crossing_lines_project_to_the_crossing(self):
        assert meets(axis2("ba"), AB)[0] == (0, 0) == oracles.axis_overlap("ba", "", "ab", "")

    def test_shared_segment_is_the_interval(self):
        # axis(aba) runs along a, ab, aba before branching off
        assert meets(axis2("aba"), AB) == ((0, 3), (0, 3))
        assert oracles.axis_overlap("aba", "", "ab", "") == (0, 3)
        assert oracles.axis_overlap("ab", "", "aba", "") == (0, 3)

    def test_far_translate_projects_to_a_point(self):
        lo, hi = meets(axis2("ab", "bbb"), AB)[0]
        assert hi - lo == 0
        assert (lo, hi) == oracles.axis_overlap("ab", "bbb", "ab", "")

    def test_same_line_is_rejected(self):
        assert meets(AB, axis2("abab")) is None
        assert oracles.axis_overlap("abab", "", "ab", "") is None
        with pytest.raises(InvalidInputError, match="same line"):
            check_projection_axioms([axis2("abab"), AB])


@st.composite
def char_words(draw, rank, max_size, min_size=0, cyclic=False):
    pool = oracles.letters(rank)
    out = ""
    size = draw(st.integers(min_size, max_size))
    while len(out) < size:
        c = draw(st.sampled_from(pool))
        if out and c == oracles.inv(out[-1]):
            continue
        if cyclic and len(out) == size - 1 and out and c == oracles.inv(out[0]):
            continue
        out += c
    return out


def power(h: str, j: int) -> str:
    return oracles.reduce_scan((h if j >= 0 else oracles.invert(h)) * abs(j))


@st.composite
def axis_pairs(draw):
    """(rank, source h, source translate, target h, target translate) in
    oracle notation.

    A "branch" source shares the target's conjugator and starts its core
    with the target's core, so the lines mostly meet in a segment; a power
    of the source in its translate moves its origin along its own line, and
    so mostly off the target.  The last three kinds are the target's line.
    """
    rank = draw(st.integers(2, 3))

    def element():
        core = draw(char_words(rank, 5, min_size=1, cyclic=True))
        conjugator = draw(char_words(rank, 3))
        return oracles.mult(oracles.mult(conjugator, core), oracles.invert(conjugator))

    target, target_translate = element(), draw(char_words(rank, 4))
    kind = draw(st.sampled_from(["other", "branch", "power", "inverse", "translate"]))
    if kind == "other":
        return rank, element(), draw(char_words(rank, 4)), target, target_translate
    if kind == "branch":
        core, conjugator = oracles.cyclic_peel(target)
        core = oracles.reduce_scan(core + draw(char_words(rank, 3, min_size=1)))
        assume(core)
        source = oracles.mult(oracles.mult(conjugator, core), oracles.invert(conjugator))
        moved = oracles.mult(target_translate, power(source, draw(st.integers(-2, 2))))
        return rank, source, moved, target, target_translate
    if kind == "power":
        source = power(target, draw(st.integers(2, 3)))
        return rank, source, target_translate, target, target_translate
    if kind == "inverse":
        return rank, oracles.invert(target), target_translate, target, target_translate
    moved = oracles.mult(target_translate, power(target, draw(st.integers(-2, 2))))
    return rank, target, moved, target, target_translate


class TestOverlapReference:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(axis_pairs())
    @example((2, "aba", "", "ab", ""))
    @example((2, "ab", "bbb", "ab", ""))
    @example((3, "ab", "", "ab", "abab"))
    def test_matches_windowed_brute_projection(self, case):
        rank, source_h, source_t, target_h, target_t = case
        alphabet = Alphabet(rank)

        def axis(h, t):
            return Axis.from_element(
                parse_word(alphabet, oracles.to_lib_text(h)),
                parse_word(alphabet, oracles.to_lib_text(t)),
            )

        source, target = axis(source_h, source_t), axis(target_h, target_t)
        want = oracles.axis_overlap(source_h, source_t, target_h, target_t)
        if want is None:
            assert meets(source, target) is None
        else:
            # the same scan gives the interval of target's line on source
            reverse = oracles.axis_overlap(target_h, target_t, source_h, source_t)
            assert meets(source, target) == (want, reverse)


class TestProjectionAxioms:
    FAMILY = ["ab", "ba", "aba"]

    def test_observed_constant(self):
        xi, violations = check_projection_axioms([axis2(h) for h in self.FAMILY])
        assert xi == 3
        assert violations == []

    def test_candidate_below_constant_lists_violations(self):
        xi, violations = check_projection_axioms(
            [axis2(h) for h in self.FAMILY], candidate_xi=2
        )
        assert xi == 3
        kinds = sorted(v["kind"] for v in violations)
        assert kinds == ["P0", "P0", "P0", "P0", "P1"]

    def test_candidate_above_constant_is_clean(self):
        xi, violations = check_projection_axioms(
            [axis2(h) for h in self.FAMILY], candidate_xi=6
        )
        assert xi == 3
        assert violations == []

    def test_sample_points_check_idempotence(self):
        sample = [word2(t) for t in ("bbA", "aBab", "")]
        _, violations = check_projection_axioms(
            [axis2(h) for h in self.FAMILY], sample=sample
        )
        assert violations == []

    def test_duplicate_lines_are_rejected(self):
        with pytest.raises(InvalidInputError, match="same line"):
            check_projection_axioms([AB, axis2("abab")])

    def test_lowest_duplicate_pair_is_named(self):
        # (1, 3) and (3, 4) are the same line too; (1, 3) is the lowest pair
        family = [axis2("ba"), AB, axis2("aba"), axis2("BA"), axis2("ab", "ab")]
        with pytest.raises(InvalidInputError, match="axes 1 and 3 are the same line"):
            check_projection_axioms(family)

    def test_axes_of_another_rank_are_rejected(self):
        # these axes were once scored as three lines of one alphabet, with no
        # error; a rank-2 and a rank-3 a b were once called the same line
        # (TestSameLine::test_alphabet_mismatch)
        family = [(2, "a b"), (3, "c"), (2, "b")]
        axes = [Axis.from_element(parse_word(Alphabet(rank), h)) for rank, h in family]
        with pytest.raises(AlphabetMismatchError):
            check_projection_axioms(axes)


def per_axis_random_family(alphabet, samples, candidate_xi, *, seed, triples, core_max,
                           conjugator_max) -> dict:
    """random_axis_family as it ran on Axis objects: the same draws, one
    Axis.from_element per distinct h, lines told apart by _meet, and each
    triple scored by the projection axioms written out per axis on _meet
    and _frame_coordinate."""
    rng = random.Random(seed)
    options = tree._letter_options(alphabet)
    drawn = {}
    xi_max = total_violations = 0
    for _ in range(triples):
        axes = []
        while len(axes) < 3:
            while True:
                core_len = rng.randint(1, core_max)
                conj_len = rng.randint(0, conjugator_max)
                core = tree._random_letters(rng, options, core_len, cyclic=True)
                conj = tree._random_letters(rng, options, conj_len, cyclic=False)
                conj, core = tree._word(alphabet, conj), tree._word(alphabet, core)
                h = conj * core * ~conj
                if h:
                    break
            if h not in drawn:
                drawn[h] = Axis.from_element(h)
            if all(meets(drawn[h], other) is not None for other in axes):
                axes.append(drawn[h])
        xi, violations = per_axis_projection_axioms(axes, samples, candidate_xi)
        xi_max = max(xi_max, xi)
        total_violations += violations
    bound = core_max + 2 * conjugator_max
    return {
        "mode": "random", "triples": triples, "xi_observed": xi_max, "bound": bound,
        "within_bound": xi_max <= bound, "violations": total_violations,
    }


def per_axis_projection_axioms(axes, sample, candidate_xi) -> tuple[int, int]:
    """(xi, number of violations) of check_projection_axioms, written out
    per axis: every ordered pair scanned by _meet, every sample point
    projected by _frame_coordinate."""
    intervals = {
        (t, s): meets(axes[s], axes[t])[0]
        for t in range(len(axes)) for s in range(len(axes)) if s != t
    }
    diams = [hi - lo for lo, hi in intervals.values()]
    xi = max(diams, default=0)
    triples = []
    for ids in itertools.combinations(range(len(axes)), 3):
        quantities = []
        for t in ids:
            spans = [intervals[(t, o)] for o in ids if o != t]
            quantities.append(max(hi for _, hi in spans) - min(lo for lo, _ in spans))
        xi = max(xi, sorted(quantities)[-2])
        triples.append(quantities)
    candidate = xi if candidate_xi is None else candidate_xi
    violations = sum(d > candidate for d in diams)
    violations += sum(sum(q > candidate for q in qs) >= 2 for qs in triples)
    for x in sample:
        for ax in axes:
            coord, _ = project(x, ax)
            violations += project(vertex(ax, coord), ax) != (coord, 0)
    return xi, violations


class TestRandomFamilyAgainstPerAxisChecks:
    """random_axis_family scores letter frames; it must report exactly what
    the per-axis path reports on the same draws."""

    @pytest.mark.parametrize("rank,core_max,conjugator_max", [
        (rank, core_max, conjugator_max)
        for rank in (2, 3) for core_max in range(1, 5) for conjugator_max in range(3)
        if (rank, core_max, conjugator_max) != (2, 1, 0)
    ])
    def test_matches_the_per_axis_path(self, rank, core_max, conjugator_max):
        alphabet = Alphabet(rank)
        rng = random.Random(f"{rank}:{core_max}:{conjugator_max}")
        samples = [lib_word(rank, rand_chars(rng, rank, n)) for n in (0, 1, 3, 6)]
        for seed in range(3):
            for candidate in (None, 2, 4):
                for sample in ((), samples):
                    params = dict(
                        seed=seed, triples=12, core_max=core_max, conjugator_max=conjugator_max
                    )
                    want = per_axis_random_family(alphabet, sample, candidate, **params)
                    assert random_axis_family(alphabet, sample, candidate, **params) == want

    def test_the_compared_families_have_violations(self):
        # the comparison above also counts P0 and P1 violations, not only zeros
        assert sum(
            per_axis_random_family(
                RANK2, (), 2, seed=seed, triples=12, core_max=4, conjugator_max=2
            )["violations"]
            for seed in range(3)
        ) > 0


def literal_orbit_rows(local_g, p, frame, base, n_max) -> tuple:
    """(n, |coordinate of g^n p - base|) for n = 1..n_max, the orbit built
    letter by letter in the axis frame.  x holds the letters of g^n p last
    first, so prepending local_g pushes or cancels |local_g| letters at the
    end of a list.  The coordinate is the length of the longest agreement of
    x's first letters with the root's forward ray, or minus that with its
    backward ray; the root is cyclically reduced, so at most one ray starts
    with x's first letter."""
    forward, backward = frame[2], frame[3]
    x = list(reversed(p))
    rows = []
    for n in range(1, n_max + 1):
        for a in reversed(local_g):
            if x and x[-1] == a ^ 1:
                x.pop()
            else:
                x.append(a)
        sign, ray = (1, forward) if x and x[-1] == forward[0] else (-1, backward)
        m = 0
        while m < len(x) and x[-1 - m] == ray[m % len(ray)]:
            m += 1
        rows.append((n, abs(sign * m - base)))
    return tuple(rows)


def oracle_primitive_root(w: str) -> str:
    """The primitive root r of w = r^e, e maximal: the primitive root of w's
    cyclic core, conjugated as the core is."""
    core, conjugator = oracles.cyclic_peel(w)
    root, _ = oracles.prim_root(core)
    return oracles.mult(oracles.mult(conjugator, root), oracles.invert(conjugator))


class TestLemma31:
    def test_power_of_the_axis_element(self):
        rep = lemma31_bound_check(AB, word2("abab"), 6)
        assert rep.branch == "power-in-subgroup"
        assert rep.passed
        assert rep.power_witness == (1, 2)

    def test_inverse_power(self):
        rep = lemma31_bound_check(AB, word2("BA"), 6)
        assert rep.branch == "power-in-subgroup"
        assert rep.passed
        assert rep.power_witness == (1, -1)

    def test_transverse_element_stays_bounded(self):
        rep = lemma31_bound_check(AB, word2("b"), 8)
        assert rep.branch == "bounded-projection"
        assert rep.passed
        assert rep.bound == 2 + D_TREE
        assert all(d == 0 for _, d in rep.rows)

    def test_exhaustive_small_ball(self):
        branches = {"power-in-subgroup": 0, "bounded-projection": 0}
        for r in (1, 2, 3):
            for g in enumerate_sphere(RANK2, r):
                rep = lemma31_bound_check(AB, g, 6)
                assert rep.passed, chars(g)
                branches[rep.branch] += 1
        assert branches == {"power-in-subgroup": 2, "bounded-projection": 50}

    def test_power_of_the_translated_line_element(self):
        # a's axis moved by b is the line of b a b-, which b a b- moves along
        rep = lemma31_bound_check(axis2("a", "b"), word2("baB"), 8)
        assert rep.branch == "power-in-subgroup"
        assert rep.passed
        assert rep.power_witness == (1, 1)

    def test_power_of_h_is_transverse_to_a_translated_line(self):
        rep = lemma31_bound_check(axis2("a", "b"), word2("a"), 8)
        assert rep.branch == "bounded-projection"
        assert rep.passed

    def test_identity_is_rejected(self):
        with pytest.raises(InvalidInputError):
            lemma31_bound_check(AB, RANK2.identity, 4)

    @pytest.mark.parametrize("g", ["a b", "c"])
    def test_word_of_another_rank_is_rejected(self, g):
        with pytest.raises(AlphabetMismatchError):
            lemma31_bound_check(AB, parse_word(RANK3, g), 4)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        h=char_words(2, 6, min_size=1),
        t=char_words(2, 3),
        g=char_words(2, 4, min_size=1),
        n_max=st.integers(1, 30),
    )
    # all of g's core cancels into p at n = 1 (n|c| = A): x_1 is the axis
    # origin, no prefix of x_2, and the coordinate moves from 0 to 1 at n = 2
    @example(h="abAB", t="aBA", g="aBA", n_max=6)
    def test_rows_match_brute_projection(self, h, t, g, n_max):
        rep = lemma31_bound_check(axis2(h, t), word2(g), n_max)
        assume(rep.branch == "bounded-projection")
        base, _ = oracles.brute_project("", h, translate=t)
        p = oracles.axis_vertex(h, base, t)
        assert rep.bound == 2 * oracles.tree_dist(p, oracles.mult(g, p)) + D_TREE
        rows, x = [], p
        for n in range(1, n_max + 1):
            x = oracles.mult(g, x)
            rows.append((n, abs(oracles.brute_project(x, h, translate=t)[0] - base)))
        assert rep.rows == tuple(rows)

    def test_rows_match_the_literal_orbit_far_past_the_cut_off(self):
        # every h with |h| <= 4, untranslated and moved by a one-letter
        # translate, against every g with |g| <= 5: the check stops its orbit
        # at the stable index (almost always n = 1), this test never does
        # the power test reads the translated line t h t^-1, not h: tally the
        # pairs whose branch differs from a test against h's own root
        letters = enumerate_sphere(RANK2, 1)
        gs = enumerate_ball(RANK2, 5)[1:]
        checked = 0
        moved = {}
        roots = {g: oracle_primitive_root(chars(g)) for g in gs}
        for i, h in enumerate(enumerate_ball(RANK2, 4)[1:]):
            h_roots = (roots[h], oracles.invert(roots[h]))
            for t in (None, letters[i % len(letters)]):
                ax = Axis.from_element(h, t)
                base, p = ax.base
                for g in gs:
                    rep = lemma31_bound_check(ax, g, 40)
                    if (roots[g] in h_roots) != (rep.branch == "power-in-subgroup"):
                        key = (t is None, rep.branch, rep.passed)
                        moved[key] = moved.get(key, 0) + 1
                    if rep.branch != "bounded-projection":
                        continue
                    local_g = (~ax.origin * g * ax.origin).letters
                    rows = literal_orbit_rows(local_g, p, ax.frame, base, 40)
                    assert rep.rows == rows, (chars(h), t and chars(t), chars(g))
                    checked += 1
        assert checked == 153_948
        # translated axes only: 268 powers of the line element pass the power
        # test, and 424 powers of h alone leave it and pass the bounded one
        assert moved == {
            (False, "power-in-subgroup", True): 268, (False, "bounded-projection", True): 424,
        }

    def test_report_fields(self):
        rep = lemma31_bound_check(AB, word2("b"), 3)
        d = report_fields(rep)
        assert d["branch"] == "bounded-projection"
        assert d["rows"] == [[1, 0], [2, 0], [3, 0]]

    def test_slack_constant_is_zero(self):
        assert D_TREE == 0


TWO_RUNS = "abababbbababab"  # forward ab-runs of lengths 6 (at 0) and 7 (at 7)


class TestFindLongProjections:
    """The run scan (_long_runs) and the k of a run (_run_k) against the
    oracles' run scans and projections."""

    def test_pure_power_is_a_single_witness(self):
        g = (word2("ab") ** 6).letters
        (run,) = _long_runs(g, AB.root.letters, 6)
        assert run == (0, 0, 12)
        assert oracles.maximal_pos_runs("ab" * 6, "ab") == [(0, 12, 0)]
        assert _run_k(g, run, AB.root.letters, ()) == ()

    def test_two_separated_runs(self):
        g = word2(TWO_RUNS).letters
        runs = _long_runs(g, AB.root.letters, 6)
        assert runs == [(0, 0, 6), (7, 1, 7)]
        want = oracles.maximal_pos_runs(TWO_RUNS, "ab")
        assert runs == [(s, p, n) for s, n, p in want if n >= 6]
        ks = [chars(ReducedWord(RANK2, _run_k(g, run, AB.root.letters, ()))) for run in runs]
        assert ks == ["", "abababbA"]

    @pytest.mark.parametrize("h,k_min", [("a", 2), ("ab", 3)])
    def test_runs_match_brute_scan(self, h, k_min):
        rng = random.Random(11)
        root, _ = oracles.prim_root(oracles.cyclic_peel(h)[0])
        for _ in range(200):
            g = rand_chars(rng, 2, rng.randrange(1, 13))
            want = [
                (s, phase, length)
                for s, length, phase in oracles.maximal_pos_runs(g, root)
                if length >= k_min
            ]
            assert _long_runs(word2(g).letters, axis2(h).root.letters, k_min) == want, g

    def test_witness_marks_an_overlap_with_a_translated_axis(self):
        # every vertex of a run lies on the line of k h k^-1, at consecutive
        # coordinates of the axis of h moved by k
        g = word2(TWO_RUNS).letters
        for run in _long_runs(g, AB.root.letters, 6):
            start, _, length = run
            k = chars(ReducedWord(RANK2, _run_k(g, run, AB.root.letters, ())))
            coords = []
            for i in range(length + 1):
                coord, dist = oracles.brute_project(TWO_RUNS[: start + i], "ab", translate=k)
                assert dist == 0
                coords.append(coord)
            assert coords == list(range(coords[0], coords[0] + len(coords)))

    def test_membership_is_emptiness(self):
        rng = random.Random(12)
        for _ in range(150):
            g = rand_chars(rng, 2, rng.randrange(10))
            member = ghat_membership_exact(word2(g), word2("ab"), 4)
            assert member == (not _long_runs(word2(g).letters, AB.root.letters, 4))
            assert member == oracles.ghat_member(g, "ab", 4)

    @pytest.mark.parametrize("check", [shorten, ghat_membership_exact])
    def test_word_of_another_rank_is_rejected(self, check):
        with pytest.raises(AlphabetMismatchError):
            check(parse_word(RANK3, "c a a a a a b"), word2("a"), 4)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            ghat_membership_exact(word2("ab"), RANK2.identity, 3)
        with pytest.raises(InvalidInputError):
            ghat_membership_exact(word2("ab"), word2("ab"), 0)


def conjugated_h(draw, rank: int, core_max: int) -> tuple[str, str, str]:
    """(h, core, conjugator) in oracle notation, h = conjugator core conjugator^-1."""
    core = draw(char_words(rank, core_max, min_size=1, cyclic=True))
    conjugator = draw(char_words(rank, 2))
    h = oracles.mult(oracles.mult(conjugator, core), oracles.invert(conjugator))
    return (h, *oracles.cyclic_peel(h))


def lib_word(rank: int, text: str):
    return parse_word(Alphabet(rank), oracles.to_lib_text(text))


@st.composite
def walk_cases(draw):
    """(rank, h, K, g_max) in oracle notation, K from |core| to
    shorten_threshold(h) + 2."""
    rank = draw(st.integers(1, 3))
    h, core, conjugator = conjugated_h(draw, rank, 4)
    threshold = 2 * (len(core) + 2 * len(conjugator)) + 2
    return rank, h, draw(st.integers(len(core), threshold + 2)), draw(st.integers(0, 6))


@st.composite
def outside_cases(draw):
    """(rank, h, g, K) in oracle notation, K >= shorten_threshold(h), g outside
    Ghat(K): a K-long stretch of the root's periodic word between random ends."""
    rank = draw(st.integers(1, 3))
    h, core, conjugator = conjugated_h(draw, rank, 4)
    root, _ = oracles.prim_root(core)
    K = 2 * (len(core) + 2 * len(conjugator)) + 2 + draw(st.integers(0, 2))
    phase = draw(st.integers(0, len(root) - 1))
    stretch = "".join(root[(phase + i) % len(root)] for i in range(K + draw(st.integers(0, 6))))
    g = oracles.reduce_scan(draw(char_words(rank, 5)) + stretch + draw(char_words(rank, 5)))
    assume(not oracles.ghat_member(g, h, K))
    return rank, h, g, K


@st.composite
def run_cases(draw):
    """(rank, h, g, K) in oracle notation: g holds a stretch of the root's
    periodic word between random ends, so long runs are common."""
    rank = draw(st.integers(1, 3))
    h, core, _ = conjugated_h(draw, rank, 6)
    root, _ = oracles.prim_root(core)
    phase = draw(st.integers(0, len(root) - 1))
    stretch = "".join(root[(phase + i) % len(root)] for i in range(draw(st.integers(0, 12))))
    ends = [draw(char_words(rank, 5)) for _ in range(2)]
    g = oracles.reduce_scan(ends[0] + stretch + ends[1])[:14]
    return rank, h, g, draw(st.integers(1, 8))


class TestRunsAgainstAnyRoot:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(run_cases())
    @example((2, "abaBabAb", "abaBabAbab", 2))
    @example((2, "ab", "abaBabAb", 1))
    def test_runs_match_diagonal_scan(self, case):
        rank, h, g, K = case
        root, _ = oracles.prim_root(oracles.cyclic_peel(h)[0])
        want = [run for run in oracles.diagonal_runs(g, root) if run[2] >= K]
        alphabet = Alphabet(rank)
        g_word = parse_word(alphabet, oracles.to_lib_text(g))
        h_word = parse_word(alphabet, oracles.to_lib_text(h))
        assert _long_runs(g_word.letters, Axis.from_element(h_word).root.letters, K) == want
        assert ghat_membership_exact(g_word, h_word, K) == (not want)


class TestGhatAutomaton:
    def test_counts_for_ab_cutoff4(self):
        aut = ghat_language(RANK2, word2("ab"), 4).automaton
        assert list(count_lengths(aut, 6).spheres) == [1, 4, 12, 36, 106, 314, 930]

    def test_counts_for_single_letter_cutoff3(self):
        aut = ghat_language(RANK2, word2("a"), 3).automaton
        assert list(count_lengths(aut, 5).spheres) == [1, 4, 12, 35, 103, 303]

    @pytest.mark.parametrize("h,m", [("ab", 4), ("a", 3)])
    def test_acceptance_equals_exact_membership(self, h, m):
        aut = ghat_language(RANK2, word2(h), m).automaton
        for r in range(7):
            for g in enumerate_sphere(RANK2, r):
                assert aut.accepts(g) == ghat_membership_exact(g, word2(h), m)

    def test_membership_is_monotone_in_the_cutoff(self):
        rng = random.Random(13)
        for _ in range(100):
            g = word2(rand_chars(rng, 2, rng.randrange(10)))
            for m in range(2, 8):
                if ghat_membership_exact(g, word2("ab"), m):
                    assert ghat_membership_exact(g, word2("ab"), m + 1)

    def test_cutoff_at_core_length(self):
        aut = ghat_language(RANK2, word2("ab"), 2).automaton
        assert list(count_lengths(aut, 3).spheres) == [1, 4, 10, 26]

    @pytest.mark.parametrize("h,m", [("ab", 6), ("a", 4), ("baB", 8)])
    def test_walk_visits_the_ball_and_lists_the_complement(self, h, m):
        outside = []
        checked, in_ghat = _walk_ghat_letters(RANK2, word2(h), m, 6, outside.append)
        ball = [g for r in range(7) for g in enumerate_sphere(RANK2, r)]
        assert checked == len(ball) == 1457
        aut = ghat_language(RANK2, word2(h), m).automaton
        assert in_ghat == sum(count_lengths(aut, 6))
        expected = [g for g in ball if not oracles.ghat_member(chars(g), h, m)]
        assert len(outside) == checked - in_ghat
        assert outside == sorted(g.letters for g in expected)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(walk_cases())
    @example((1, "a", 1, 6))
    @example((1, "AA", 3, 0))
    @example((2, "aab", 3, 6))
    @example((3, "caBC", 2, 5))
    def test_walk_matches_the_brute_force_ball(self, case):
        # whole subtrees in Ghat(K) are counted, not visited: the counts and
        # the words outside must still be those of the full ball
        rank, h, K, g_max = case
        ball = [g for sphere in oracles.words_by_radius(rank, g_max) for g in sphere]
        want = sorted((g for g in ball if not oracles.ghat_member(g, h, K)), key=oracles.lex_key)
        outside = []
        counts = _walk_ghat_letters(Alphabet(rank), lib_word(rank, h), K, g_max, outside.append)
        assert counts == (len(ball), len(ball) - len(want))
        assert [chars(ReducedWord(Alphabet(rank), g)) for g in outside] == want

    def test_walk_of_the_identity_ball(self):
        seen = []
        assert _walk_ghat_letters(RANK2, word2("ab"), 6, 0, seen.append) == (1, 1)
        assert seen == []
        with pytest.raises(InvalidInputError, match="g_max"):
            _walk_ghat_letters(RANK2, word2("ab"), 6, -1, seen.append)

    def test_cutoff_below_core_is_rejected(self):
        with pytest.raises(InvalidInputError, match="below core length"):
            ghat_language(RANK2, word2("ab"), 1)

    @pytest.mark.parametrize("ranks,h", [((2, 3), "c a"), ((3, 2), "a b")])
    def test_word_of_another_rank_is_rejected(self, ranks, h):
        # an h of higher rank once died with IndexError, and one of lower
        # rank was read as a word of the larger alphabet
        alphabet, h = Alphabet(ranks[0]), parse_word(Alphabet(ranks[1]), h)
        with pytest.raises(AlphabetMismatchError):
            ghat_language(alphabet, h, 4)
        with pytest.raises(AlphabetMismatchError):
            _walk_ghat_letters(alphabet, h, 4, 3, lambda g: None)


class TestShorten:
    @pytest.mark.parametrize("h,k", [("a", 4), ("ab", 6), ("baB", 8), ("abab", 10)])
    def test_threshold(self, h, k):
        assert shorten_threshold(word2(h)) == k

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_threshold_is_twice_the_length_plus_2(self, data):
        # 2 D' + 2 with D' = |core| + 2 |conjugator|, which is |h|
        rank = data.draw(st.integers(1, 3))
        h, core, conjugator = conjugated_h(data.draw, rank, 6)
        threshold = shorten_threshold(lib_word(rank, h))
        assert threshold == 2 * len(h) + 2 == 2 * (len(core) + 2 * len(conjugator)) + 2

    def test_identity_has_no_threshold(self):
        with pytest.raises(InvalidInputError, match="non-trivial"):
            shorten_threshold(RANK2.identity)
        with pytest.raises(InvalidInputError, match="non-trivial"):
            shorten(word2("ab"), RANK2.identity, 6)
        with pytest.raises(InvalidInputError, match="non-trivial"):
            shorten_sweep(RANK2, RANK2.identity, 3, cutoff=6)

    def test_default_alpha_is_one(self):
        # the step removes one copy of h: g' = k h^-1 k^-1 g
        g = word2("ab") ** 8
        res = shorten(g, word2("ab"), 6)
        assert res.g_prime == word2("ab") ** 7
        assert res.k == res.witness.k

    def test_conjugated_run_keeps_the_conjugator(self):
        g = word2("B") * word2("ab") ** 8
        res = shorten(g, word2("ab"), 6)
        assert chars(res.k) == "B"
        assert len(res.g_prime) == 15
        assert res.g_prime == res.k * word2("ab") ** -1 * ~res.k * g

    def test_picks_the_longest_run(self):
        res = shorten(word2(TWO_RUNS), word2("ab"), 6)
        assert res.witness.start == 7
        assert res.witness.projection_diameter == 7

    def test_no_long_projection_is_a_noop(self):
        assert shorten(word2("bbbb"), word2("ab"), 6) is None

    def test_low_threshold_is_rejected(self):
        with pytest.raises(InvalidInputError, match="below shortening threshold"):
            shorten(word2("ab") ** 8, word2("ab"), 5)

    def test_word_of_another_rank_is_rejected(self):
        # the witness k of a rank-3 g could not be multiplied by a rank-2 h
        with pytest.raises(AlphabetMismatchError):
            shorten(parse_word(RANK3, "c a a a a a b"), word2("a"), 4)

    def test_iterated_shortening_lands_in_the_restricted_set(self):
        g = word2("ab") ** 8
        seen = []
        while True:
            res = shorten(g, word2("ab"), 6)
            if res is None:
                break
            g = res.g_prime
            seen.append(len(g))
        # stops at (ab)^2: its run of length 4 sits below the cutoff
        assert seen == [14, 12, 10, 8, 6, 4]
        assert ghat_membership_exact(g, word2("ab"), 6)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(outside_cases())
    @example((2, "aab", "baabaabaab", 8))
    @example((1, "a", "aaaaa", 4))
    def test_step_is_the_group_product_and_shorter(self, case):
        rank, h, g, K = case
        res = shorten(lib_word(rank, g), lib_word(rank, h), K)
        k = chars(res.k)
        want = oracles.mult(oracles.mult(oracles.mult(k, oracles.invert(h)), oracles.invert(k)), g)
        assert chars(res.g_prime) == want
        assert len(want) < len(g)

    def test_everything_outside_ghat_shortens(self):
        h = word2("ab")
        for r in range(1, 7):
            for g in enumerate_sphere(RANK2, r):
                if ghat_membership_exact(g, h, 6):
                    assert shorten(g, h, 6) is None
                else:
                    res = shorten(g, h, 6)
                    assert len(res.g_prime) < len(g)
                    assert res.g_prime == res.k * ~h * ~res.k * g


def per_word_shorten_sweep(alphabet, h, g_max, K) -> dict:
    """shorten_sweep as one public membership test and shortening step per
    word of the ball, with the step recomposed as k h^-1 k^-1 g."""
    in_ghat = shortened = 0
    failures = []
    ball = enumerate_ball(alphabet, g_max)
    for g in ball:
        if ghat_membership_exact(g, h, K):
            in_ghat += 1
            continue
        res = shorten(g, h, K)
        if res is not None and len(res.g_prime) < len(g) and res.g_prime == res.k * ~h * ~res.k * g:
            shortened += 1
        else:
            failures.append(format_word(g))
    return {
        "g_max": g_max, "K": K, "checked": len(ball), "in_ghat": in_ghat,
        "shortened": shortened, "failures": failures,
    }


def per_word_lemma31_sweep(alphabet, h, g_max, n_max) -> dict:
    """lemma31_sweep as one public lemma31_bound_check per non-trivial word
    of the ball."""
    ax = Axis.from_element(h)
    branches = {}
    failures = 0
    ball = enumerate_ball(alphabet, g_max)[1:]
    for g in ball:
        rep = lemma31_bound_check(ax, g, n_max)
        branches[rep.branch] = branches.get(rep.branch, 0) + 1
        failures += not rep.passed
    return {
        "mode": "lemma31", "h": format_word(h), "g_max": g_max, "n_max": n_max,
        "d_tree": D_TREE, "checked": len(ball), "branches": branches, "failures": failures,
    }


# (rank, h): powers, a conjugate, a rank-3 h, and a- b b b, whose lemma 3.1
# check fails against D_TREE = 0
SWEEP_HS = [(2, "a"), (2, "a a"), (2, "a b"), (2, "b a b-"), (3, "a c-"), (2, "a- b b b")]


class TestSweepsAgainstPerWordChecks:
    """The sweeps run the per-word kernels on letter tuples; they must count
    exactly what the public per-word functions say word by word."""

    @pytest.mark.parametrize("extra_K", [0, 2])
    @pytest.mark.parametrize("rank,h", SWEEP_HS)
    def test_shorten_sweep(self, rank, h, extra_K):
        alphabet = Alphabet(rank)
        h = parse_word(alphabet, h)
        K = shorten_threshold(h) + extra_K
        sweep = shorten_sweep(alphabet, h, 6, K, cutoff=6)
        assert sweep == per_word_shorten_sweep(alphabet, h, 6, K)

    @pytest.mark.parametrize("K", [8, 1000, 10**9])
    def test_shorten_sweep_past_g_max_builds_at_g_max_plus_1(self, K, monkeypatch):
        # no word of length <= 6 has a run of 7, so every K > 7 sweeps as
        # K = 7 does, and the Ghat automaton is built at 7, not at K
        h = word2("ab")
        lengths = []
        real = automata.avoid_factors

        def spy(alphabet, forbidden):
            lengths.extend(len(f) for f in forbidden)
            return real(alphabet, forbidden)

        want = shorten_sweep(RANK2, h, 6, 7, cutoff=6)
        # the Ghat language builds its automaton through automata's global
        monkeypatch.setattr(automata, "avoid_factors", spy)
        assert shorten_sweep(RANK2, h, 6, K, cutoff=6) == {**want, "K": K}
        assert lengths and max(lengths) == 7

    @pytest.mark.parametrize("g_max", [1, 4])
    @pytest.mark.parametrize("rank,h", SWEEP_HS)
    def test_lemma31_sweep(self, rank, h, g_max):
        alphabet = Alphabet(rank)
        h = parse_word(alphabet, h)
        sweep = lemma31_sweep(alphabet, h, g_max, 12, cutoff=g_max)
        assert sweep == per_word_lemma31_sweep(alphabet, h, g_max, 12)
        if format_word(h) == "a- b b b":
            # g = b- (ROADMAP item 6): its projections reach 3 against the bound 2
            assert sweep["failures"] >= 1

    @pytest.mark.parametrize("sweep", ["shorten", "lemma31"])
    @pytest.mark.parametrize("ranks", [(3, 2), (2, 3)])
    def test_word_of_another_rank_is_rejected(self, sweep, ranks):
        alphabet, h = Alphabet(ranks[0]), parse_word(Alphabet(ranks[1]), "a")
        with pytest.raises(AlphabetMismatchError):
            if sweep == "shorten":
                shorten_sweep(alphabet, h, 6, cutoff=6)
            else:
                lemma31_sweep(alphabet, h, 2, 4, cutoff=6)
