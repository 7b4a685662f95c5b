"""Counting automata: exact counts vs brute-force filters, Perron brackets."""
from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growthtight import (
    NEG_INF,
    Alphabet,
    AlphabetMismatchError,
    CountingAutomaton,
    InvalidInputError,
    Language,
    ResourceLimitError,
    avoid_factors,
    count_lengths,
    enumerate_sphere,
    format_word,
    ghat_language,
    once_each,
    parse_word,
    perron_root,
    perron_roots,
)

import oracles
from conftest import RANK1, RANK2, RANK3, word2
from growthtight import automata
from growthtight.automata import _collatz_wielandt, _ellpack, _ratio_bounds

LOG3 = math.log(3)

BASE2 = avoid_factors(RANK2, ())


def avoid2(*texts: str) -> CountingAutomaton:
    return avoid_factors(RANK2, [word2(t) for t in texts])


def transfer_matrix(aut: CountingAutomaton) -> list[list[int]]:
    """Dense transfer matrix: entry (s, t) counts the letters taking s to t."""
    mat = [[0] * aut.n_states for _ in range(aut.n_states)]
    for (s, _), t in aut.transitions.items():
        mat[s][t] += 1
    return mat


class TestReducedWordAutomaton:
    def test_counts_match_sphere_formula(self):
        for rank in (1, 2, 3):
            aut = avoid_factors((RANK1, RANK2, RANK3)[rank - 1], ())
            got = list(count_lengths(aut, 10).spheres)
            assert got == [oracles.sphere_size(rank, r) for r in range(11)]

    def test_rank2_shape(self):
        assert BASE2.n_states == 5  # start plus one per letter
        assert list(count_lengths(BASE2, 3).spheres) == [1, 4, 12, 36]

    def test_rank1_counts(self):
        got = list(count_lengths(avoid_factors(RANK1, ()), 5).spheres)
        assert got == [1, 2, 2, 2, 2, 2]

    def test_perron_rank2_is_log3(self):
        br = perron_root(BASE2, 1e-9)
        assert br.contains(LOG3)
        assert br.width <= 2e-9

    def test_perron_rank3_is_log5(self):
        br = perron_root(avoid_factors(RANK3, ()), 1e-9)
        assert br.contains(math.log(5))

    def test_perron_rank1_is_zero(self):
        br = perron_root(avoid_factors(RANK1, ()), 1e-9)
        assert br.contains(0.0) and abs(br.upper) <= 1e-9

    def test_accepts_exactly_reduced_words(self):
        for r in range(4):
            for w in enumerate_sphere(RANK2, r):
                assert BASE2.accepts(w)


class TestAvoidFactors:
    def test_forbid_ab_at_radius_2(self):
        # 12 reduced words of length 2, one of which is ab
        assert count_lengths(avoid2("ab"), 2)[2] == 11

    def test_forbid_ab_ba_at_radius_3(self):
        assert count_lengths(avoid2("ab", "ba"), 3)[3] == 26

    def test_forbid_single_letter(self):
        got = list(count_lengths(avoid2("a"), 4).spheres)
        assert got == [1, 3, 7, 17, 41]

    def test_forbid_nothing_keeps_base(self):
        got = count_lengths(avoid_factors(RANK2, []), 6)
        assert list(got.spheres) == [oracles.sphere_size(2, r) for r in range(7)]

    def test_empty_forbidden_word_rejected(self):
        with pytest.raises(InvalidInputError):
            avoid_factors(RANK2, [RANK2.identity])

    @pytest.mark.parametrize("rank", [1, 3])
    def test_factor_over_another_alphabet_rejected(self, rank):
        # as every word and tree function does; still invalid input (exit 2)
        with pytest.raises(AlphabetMismatchError, match=f"factor over rank {rank}, not 2"):
            avoid_factors(RANK2, [word2("a"), parse_word(Alphabet(rank), "a")])

    @pytest.mark.parametrize(
        "forbidden",
        [["ab"], ["a"], ["ab", "ba"], ["aa", "bb"], ["aba"], ["aB", "ba"]],
    )
    def test_counts_match_brute_filter(self, forbidden):
        aut = avoid2(*forbidden)
        got = list(count_lengths(aut, 10).spheres)
        assert got == oracles.avoid_sphere_counts(2, forbidden, 10)

    def test_accepts_agrees_with_substring_filter(self):
        aut = avoid2("ab", "ba")
        spheres = oracles.words_by_radius(2, 5)
        for r, sphere in enumerate(spheres):
            expected = {w for w in sphere if "ab" not in w and "ba" not in w}
            got = {
                s
                for s, w in zip(sphere, enumerate_sphere(RANK2, r))
                if aut.accepts(w)
            }
            assert got == expected

    def test_monotone_under_more_factors(self):
        small = count_lengths(avoid2("ab", "aa"), 9).spheres
        large = count_lengths(avoid2("ab"), 9).spheres
        assert all(s <= l for s, l in zip(small, large))

    def test_long_factor_leaves_small_radii(self):
        aut = avoid2("ababa")
        assert list(count_lengths(aut, 4).spheres) == [1, 4, 12, 36, 108]

    def test_forbidding_all_letters_is_acyclic(self):
        aut = avoid2("a", "A", "b", "B")
        assert list(count_lengths(aut, 3).spheres) == [1, 0, 0, 0]
        br = perron_root(aut)
        assert br.lower == NEG_INF and br.upper == NEG_INF


@st.composite
def forbidden_sets(draw):
    """(rank, forbidden char-strings): rank 1-3, up to four reduced factors
    of length 1-6."""
    rank = draw(st.integers(1, 3))
    pool = oracles.letters(rank)
    forbidden = []
    for _ in range(draw(st.integers(0, 4))):
        w = ""
        for _ in range(draw(st.integers(1, 6))):
            w += draw(st.sampled_from([c for c in pool if not w or c != oracles.inv(w[-1])]))
        forbidden.append(w)
    return rank, forbidden


@functools.lru_cache(maxsize=None)
def ball_words(rank: int, r_max: int) -> list[tuple[str, object]]:
    """(char-string, library word) for every reduced word of length <= r_max."""
    alphabet = (RANK1, RANK2, RANK3)[rank - 1]
    return [
        (oracles.from_lib_text(format_word(w)), w)
        for r in range(r_max + 1)
        for w in enumerate_sphere(alphabet, r)
    ]


class TestAvoidFactorsProperty:
    """avoid_factors on random forbidden sets against the substring filter,
    and the breadth-first numbering perron_root relies on."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=forbidden_sets())
    @example(case=(1, []))
    @example(case=(3, []))
    @example(case=(1, ["a"]))
    @example(case=(2, ["B"]))
    @example(case=(3, ["c"]))
    @example(case=(2, ["a", "A", "b", "B"]))
    @example(case=(3, ["a", "A", "b", "B", "c", "C"]))
    def test_matches_substring_filter_and_numbers_breadth_first(self, case):
        rank, forbidden = case
        alphabet = (RANK1, RANK2, RANK3)[rank - 1]
        words = [parse_word(alphabet, oracles.to_lib_text(f)) for f in forbidden]
        aut = avoid_factors(alphabet, words)
        r_max = 6
        assert list(count_lengths(aut, r_max).spheres) == oracles.avoid_sphere_counts(
            rank, forbidden, r_max
        )
        for text, w in ball_words(rank, r_max):
            assert aut.accepts(w) == (not any(f in text for f in forbidden)), text
        # scanning transitions by (source, letter) meets new states in order,
        # each from a lower-numbered state
        entered = [0]
        for (s, _), t in sorted(aut.transitions.items()):
            assert s < aut.n_states and t < aut.n_states
            if t > entered[-1]:
                assert t == entered[-1] + 1 and s < t
                entered.append(t)
        assert entered == list(range(aut.n_states))


RANKS = {rank: Alphabet(rank) for rank in (1, 2, 3, 4)}


def _reduced_extension(draw, pool: str, w: str, length: int) -> str:
    """w with letters drawn onto both ends until it has the given length,
    staying freely reduced."""
    while len(w) < length:
        if draw(st.booleans()):
            w += draw(st.sampled_from([c for c in pool if not w or c != oracles.inv(w[-1])]))
        else:
            w = draw(st.sampled_from([c for c in pool if not w or c != oracles.inv(w[0])])) + w
    return w


@st.composite
def related_factor_sets(draw):
    """(rank, forbidden char-strings): rank 1-4, up to six reduced factors of
    length 1-8.  Each is fresh, a slice of an earlier one (a duplicate,
    prefix, suffix or inner factor) or an earlier one extended on both ends."""
    rank = draw(st.integers(1, 4))
    pool = oracles.letters(rank)
    forbidden: list[str] = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["fresh", "slice", "extend"])) if forbidden else "fresh"
        if kind == "fresh":
            w = _reduced_extension(draw, pool, "", draw(st.integers(1, 8)))
        else:
            w = draw(st.sampled_from(forbidden))
            if kind == "slice":
                i = draw(st.integers(0, len(w) - 1))
                w = w[i : draw(st.integers(i + 1, len(w)))]
            else:
                w = _reduced_extension(draw, pool, w, draw(st.integers(len(w), 8)))
        forbidden.append(w)
    return rank, forbidden


@st.composite
def ghat_cases(draw):
    """(rank, h, m): h a reduced char-string of length 1-15 over rank 2-4,
    len(h) <= m <= 2 len(h) + 2."""
    rank = draw(st.integers(2, 4))
    h = _reduced_extension(draw, oracles.letters(rank), "", draw(st.integers(1, 15)))
    return rank, h, draw(st.integers(len(h), 2 * len(h) + 2))


def assert_same_automaton(aut: CountingAutomaton, rank: int, forbidden: list[str]) -> None:
    n_states, transitions = oracles.avoid_automaton_suffix_matcher(rank, forbidden)
    assert aut.n_states == n_states
    # same states, numbering and insertion order: perron_root's float
    # iteration, and so every bracket bit, depends on that order
    assert list(aut.transitions.items()) == list(transitions.items())


class TestAvoidFactorsMatchesSuffixMatcher:
    """The Aho-Corasick build gives exactly the automaton of the reference
    suffix-matcher builder, transition insertion order included."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=related_factor_sets())
    @example(case=(2, []))
    @example(case=(4, []))
    @example(case=(2, ["ab", "ab", "a", "b", "aba"]))
    @example(case=(3, ["abc", "bc", "c", "ab", "abcA"]))
    @example(case=(4, ["aaaa", "aa", "aaaaaaaa"]))
    def test_random_factor_sets(self, case):
        rank, forbidden = case
        alphabet = RANKS[rank]
        words = [parse_word(alphabet, oracles.to_lib_text(f)) for f in forbidden]
        assert_same_automaton(avoid_factors(alphabet, words), rank, forbidden)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=ghat_cases())
    @example(case=(2, "abAbaBBabaabABabbaBabAbab", 52))
    def test_ghat_automata(self, case):
        rank, h, m = case
        alphabet = RANKS[rank]
        aut = ghat_language(alphabet, parse_word(alphabet, oracles.to_lib_text(h)), m).automaton
        assert_same_automaton(aut, rank, oracles.ghat_factors(h, m))


@st.composite
def language_pairs(draw):
    """Two equal records made apart: an avoid language (forbidden_sets), once
    from a list and once from a tuple, or a Ghat language (ghat_cases) from
    two ghat_language calls."""
    if draw(st.booleans()):
        rank, forbidden = draw(forbidden_sets())
        alphabet = RANKS[rank]
        words = [parse_word(alphabet, oracles.to_lib_text(f)) for f in forbidden]
        return Language(alphabet, words), Language(alphabet, tuple(words))
    rank, h, m = draw(ghat_cases())
    word = parse_word(RANKS[rank], oracles.to_lib_text(h))
    return ghat_language(RANKS[rank], word, m), ghat_language(RANKS[rank], word, m)


def float_bits(bracket) -> tuple[str, str]:
    return bracket.lower.hex(), bracket.upper.hex()


def recording(calls: list, name: str):
    """automata's function name, wrapped to append name to calls on every
    call, as perfbench/layertrace.py wraps it in the module namespace."""
    real = getattr(automata, name)

    def wrapper(*args):
        calls.append(name)
        return real(*args)

    return wrapper


class TestLanguage:
    """The record's counts and bracket are count_lengths and perron_root on
    avoid_factors' automaton, and equal records share one build and one
    bracket through once_each."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(pair=language_pairs())
    def test_equal_records_share_one_build_and_one_bracket(self, pair):
        first, second = pair
        assert first == second and hash(first) == hash(second) and first is not second
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            for name in ("avoid_factors", "count_lengths", "perron_root"):
                mp.setattr(automata, name, recording(calls, name))
            brackets = once_each([first, second], Language.bracket, 1e-9)
            counts = once_each([first, second], Language.counts, 12)
        assert calls == ["avoid_factors", "perron_root", "count_lengths"]
        assert brackets[0] is brackets[1] and counts[0] is counts[1]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(pair=language_pairs())
    def test_counts_and_bracket_are_the_direct_calls(self, pair):
        language = pair[0]
        aut = avoid_factors(language.alphabet, language.forbidden)
        assert language.counts(20).spheres == count_lengths(aut, 20).spheres
        assert float_bits(language.bracket(1e-9)) == float_bits(perron_root(aut, 1e-9))
        assert language.automaton is language.automaton
        assert list(language.automaton.transitions.items()) == list(aut.transitions.items())


class TestPerronBrackets:
    def test_width_obeys_tolerance(self):
        for tol in (1e-6, 1e-9):
            br = perron_root(avoid2("ab"), tol)
            assert br.width <= tol

    def test_avoid_ab_strictly_below_log3(self):
        tol = 1e-9
        br = perron_root(avoid2("ab"), tol)
        assert br.upper < LOG3 - 10 * tol
        assert br.upper < LOG3 - 1e-6

    def test_growth_sensitivity_length_up_to_2(self):
        # every single forbidden factor of length <= 2 drops the exponent
        for length in (1, 2):
            for f in enumerate_sphere(RANK2, length):
                br = perron_root(avoid_factors(RANK2, [f]), 1e-9)
                assert br.upper < LOG3 - 1e-6

    @pytest.mark.parametrize(
        "factors",
        [(), ("ab",), ("aa",), ("ab", "ba"), ("a",)],
    )
    def test_sphere_ratio_enters_bracket_and_stays(self, factors):
        # log s(r+1)/s(r) settles into the spectral bracket well before r=64
        aut = avoid2(*factors)
        br = perron_root(aut, 1e-9)
        spheres = count_lengths(aut, 64).spheres
        ratios = [
            math.log(spheres[r + 1] / spheres[r])
            for r in range(len(spheres) - 1)
            if spheres[r] > 0 and spheres[r + 1] > 0
        ]
        inside = [br.lower - 1e-12 <= x <= br.upper + 1e-12 for x in ratios]
        first = inside.index(True)
        assert first <= 29
        assert all(inside[first:])

    @pytest.mark.parametrize("tol", [1e-14, 0.0, math.nan], ids=["1e-14", "zero", "nan"])
    def test_tol_below_float_resolution_is_rejected(self, tol):
        # a nan tol would never close a bracket and run out every iteration
        with pytest.raises(InvalidInputError, match="below float resolution"):
            perron_root(avoid2("ab"), tol)


def log_spectral_radius(aut: CountingAutomaton) -> float:
    mat = numpy.array(transfer_matrix(aut), dtype=float)
    return math.log(max(abs(numpy.linalg.eigvals(mat))))


def assert_brackets_log_rho(br, log_rho: float, tol: float) -> None:
    assert br.lower <= log_rho + 1e-7
    assert br.upper >= log_rho - 1e-7
    assert br.upper - br.lower <= 2 * tol


class TestPerronAgainstEigensolver:
    """perron_root works on sparse rows; numpy's dense eigensolver is an
    independent check of the brackets."""

    @pytest.mark.parametrize(
        "alphabet,max_len", [(RANK2, 3), (RANK3, 2)], ids=["rank2", "rank3"]
    )
    def test_avoid_single_factor(self, alphabet, max_len):
        for length in range(1, max_len + 1):
            for f in enumerate_sphere(alphabet, length):
                aut = avoid_factors(alphabet, [f])
                assert_brackets_log_rho(perron_root(aut, 1e-9), log_spectral_radius(aut), 1e-9)

    @pytest.mark.parametrize(
        "h,m",
        [("a", 2), ("a b", 4), ("a a b", 6), ("a b a- b-", 8), ("a b a b-", 10), ("a b- a b a- b", 12)],
    )
    def test_ghat(self, h, m):
        aut = ghat_language(RANK2, parse_word(RANK2, h), m).automaton
        assert_brackets_log_rho(perron_root(aut, 1e-9), log_spectral_radius(aut), 1e-9)


@st.composite
def irreducible_rows(draw):
    """Sparse rows of a random irreducible matrix with weights 1-3: a
    weighted Hamiltonian cycle plus random chords.  With period d > 1 the
    vertices sit on d levels and every edge goes one level up, so the
    matrix is periodic; d = 1 allows any chord."""
    d = draw(st.sampled_from([1, 1, 2, 3]))
    n = d * draw(st.integers(math.ceil(2 / d), 40 // d))
    order = draw(st.permutations(range(n)))
    level = {v: i % d for i, v in enumerate(order)}
    weights = {}
    for s, t in zip(order, order[1:] + order[:1]):
        weights[(s, t)] = draw(st.integers(1, 3))
    for _ in range(draw(st.integers(0, 3 * n))):
        s = draw(st.integers(0, n - 1))
        t = draw(st.sampled_from([v for v in range(n) if level[v] == (level[s] + 1) % d]))
        weights[(s, t)] = draw(st.integers(1, 3))
    rows = [[] for _ in range(n)]
    for (s, t), w in sorted(weights.items()):
        rows[s].append((t, w))
    return rows


# a 40-cycle with one edge of weight 2: M + I mixes at rate cos(pi/40), so
# the float ratios need thousands of iterations and pass the it % 512 checks
SLOW_CYCLE = [[((i + 1) % 40, 2 if i == 0 else 1)] for i in range(40)]


def as_successors(rows):
    """A matrix given by sparse rows of (j, M[i][j]) in the two forms the
    code under test and the references read: the successor lists of the
    kernel (j repeated M[i][j] times, in increasing order), and the same
    entries as (j, 1) rows for oracles.py."""
    succ = [[j for j, w in row for _ in range(w)] for row in rows]
    return succ, [[(j, 1) for j in targets] for targets in succ]


def reference_or_none(rows, tol, max_iter):
    try:
        return oracles.collatz_wielandt_bounds(as_successors(rows)[1], tol, max_iter)
    except oracles.NotConverged:
        return None


def kernel_or_none(blocks, tol, max_iter):
    try:
        bounds = _collatz_wielandt([as_successors(rows)[0] for rows in blocks], tol, max_iter)
    except ResourceLimitError:
        return None
    assert len(bounds) == len(blocks)
    assert all(type(b) is float for pair in bounds for b in pair)
    return bounds


class TestCollatzWielandtKernel:
    """The vectorised kernel against the plain-Python reference in
    oracles.py: the same bounds bit for bit, and the same failures, for
    one block and for a batch of them."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        rows=irreducible_rows(),
        tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
        max_iter=st.sampled_from([1, 2, 40, 200_000]),
    )
    @example(rows=SLOW_CYCLE, tol=1e-9, max_iter=200_000)
    @example(rows=SLOW_CYCLE, tol=1e-9, max_iter=511)
    @example(rows=[[(1, 2)], [(0, 1)]], tol=1e-9, max_iter=200_000)
    @example(rows=[[(0, 3)]], tol=1e-9, max_iter=1)
    def test_matches_reference(self, rows, tol, max_iter):
        want = reference_or_none(rows, tol, max_iter)
        assert kernel_or_none([rows], tol, max_iter) == (None if want is None else [want])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        blocks=st.lists(irreducible_rows(), min_size=1, max_size=4),
        tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
        max_iter=st.sampled_from([1, 2, 40, 200_000]),
    )
    @example(blocks=[SLOW_CYCLE, [[(1, 2)], [(0, 1)]], [[(0, 3)]]], tol=1e-9, max_iter=200_000)
    @example(blocks=[[[(1, 2)], [(0, 1)]], SLOW_CYCLE], tol=1e-9, max_iter=511)
    @example(blocks=[[[(0, 3)]], [[(0, 3)]], SLOW_CYCLE, [[(0, 1)]]], tol=1e-12, max_iter=200_000)
    # the widest block (rows of 4 slots) closes at the first iteration, with
    # narrower slow blocks on both sides of it: the layout loses two slots
    # and the live blocks' pads move to the renumbered zero column
    @example(
        blocks=[SLOW_CYCLE, [[(0, 1), (1, 3)], [(0, 3), (1, 1)]], SLOW_CYCLE[:23] + [[(0, 1)]]],
        tol=1e-9,
        max_iter=200_000,
    )
    def test_batch_matches_reference_per_block(self, blocks, tol, max_iter):
        # a batch fails exactly when some block alone fails, and otherwise
        # gives every block the bounds it gets alone
        want = [reference_or_none(rows, tol, max_iter) for rows in blocks]
        got = kernel_or_none(blocks, tol, max_iter)
        assert got == (None if None in want else want)

    def test_slow_cycle_passes_the_periodic_exact_check(self):
        # no convergence within 511 iterations, so the it = 512 exact
        # evaluation runs before the bounds close
        assert kernel_or_none([SLOW_CYCLE], 1e-9, 511) is None
        [(lo, hi)] = kernel_or_none([SLOW_CYCLE], 1e-9, 200_000)
        assert lo <= 2 ** (1 / 40) <= hi


# float(2/3) lies just below 2/3, so on this weighted 4-cycle the ratios
# (MX)_i / X_i are exactly 2, just over 3, just under 2 and exactly 3: each
# float extreme is tied by a row whose exact ratio lies beyond it
TIED_CYCLE = [[(1, 2)], [(2, 2)], [(3, 3)], [(0, 3)]]
TIED_VECTOR = [2 / 3, 2 / 3, 1.0, 2 / 3]


class TestRatioBounds:
    """The exact Collatz-Wielandt evaluation on chosen test vectors, against
    the Fraction evaluation in oracles.py."""

    def test_a_tie_beyond_the_float_extreme_steps_outward(self):
        x = [Fraction(v) for v in TIED_VECTOR]
        exact = [w * x[j] / x[i] for i, ((j, w),) in enumerate(TIED_CYCLE)]
        assert [float(r) for r in exact] == [2.0, 3.0, 2.0, 3.0]
        assert exact[0] == 2 and exact[2] < 2 and exact[1] > 3 and exact[3] == 3
        succ, unit_rows = as_successors(TIED_CYCLE)
        bounds = _ratio_bounds(_ellpack(succ), TIED_VECTOR)
        assert bounds == (math.nextafter(2.0, 0.0), math.nextafter(3.0, 4.0))
        assert bounds == oracles.exact_ratio_bounds(unit_rows, TIED_VECTOR)
        # the Perron root of the cycle is (2 * 2 * 3 * 3) ** (1 / 4)
        assert bounds[0] < math.sqrt(6) < bounds[1]

    @pytest.mark.parametrize(
        "vec",
        [[1.0, 3e-200, 0.1, 7e-250], [1.0, 3e-200, 0.0, 7e-250], [1.0, 5e-324, 0.5, 0.25]],
        ids=["span-2^826", "zero-entry", "ratio-past-float-range"],
    )
    def test_entries_spanning_more_than_2_to_the_600(self, vec):
        succ, unit_rows = as_successors([[(1, 1), (3, 2)], [(2, 1)], [(3, 1)], [(0, 1)]])
        bounds = _ratio_bounds(_ellpack(succ), vec)
        assert all(type(b) is float for b in bounds)
        assert bounds == oracles.exact_ratio_bounds(unit_rows, vec)
        # 1 / 5e-324 is 2**1074: no float holds that ratio
        assert (bounds == (0.0, math.inf)) == (vec[1] == 5e-324)


class TestWeightedAutomata:
    """Hand-built automata with parallel edges (transfer-matrix weights > 1)."""

    def test_two_letters_out_one_back_is_sqrt2(self):
        # M = [[0, 2], [1, 0]]: rho = sqrt(2), and the component has period 2
        aut = CountingAutomaton(RANK2, 2, {(0, 0): 1, (0, 2): 1, (1, 0): 0})
        assert transfer_matrix(aut) == [[0, 2], [1, 0]]
        br = perron_root(aut, 1e-9)
        assert br.contains(math.log(2) / 2) and br.width <= 2e-9

    @pytest.mark.parametrize("first,second", [(2, 2), (1, 2), (2, 1)])
    def test_two_components(self, first, second):
        # blocks [[0, w], [w, 0]] (radius w) joined by one edge 1 -> 2; at
        # equal radii the Perron eigenvalue 2 is defective (spheres ~ r 2^r)
        transitions = {}
        for (s, t), w in zip(((0, 1), (1, 0), (2, 3), (3, 2)), (first, first, second, second)):
            for x in range(w):
                transitions[(s, x)] = t
        transitions[(1, 2)] = 2
        aut = CountingAutomaton(RANK2, 4, transitions)
        assert transfer_matrix(aut) == [
            [0, first, 0, 0], [first, 0, 1, 0], [0, 0, 0, second], [0, 0, second, 0]
        ]
        br = perron_root(aut, 1e-9)
        assert br.contains(math.log(2)) and br.width <= 2e-9
        # both blocks run in one batch, each with the bounds it gets alone
        blocks = [[[(1, first)], [(0, first)]], [[(1, second)], [(0, second)]]]
        assert kernel_or_none(blocks, 1e-9, 200_000) == [
            kernel_or_none([rows], 1e-9, 200_000)[0] for rows in blocks
        ]
        auts = [aut, BASE2, aut]
        assert perron_roots(auts, 1e-9) == [perron_root(a, 1e-9) for a in auts]


@st.composite
def weighted_automata(draw):
    """(n_states, transitions) over RANK3 (six letters): a random spanning
    tree from state 0 keeps every state reachable, and every other letter
    of a state is left out or sent to a target drawn with a bias towards
    the state itself and an earlier target of the state, so parallel edges
    and self-loops of weight 2 or more are common."""
    n = draw(st.integers(1, 6))
    transitions = {}
    free = {s: list(RANK3.letters) for s in range(n)}
    for s in range(1, n):
        parent = draw(st.integers(0, s - 1))
        transitions[(parent, free[parent].pop(draw(st.integers(0, len(free[parent]) - 1))))] = s
    for s in range(n):
        for x in free[s]:
            earlier = [t for (u, _), t in transitions.items() if u == s]
            choice = draw(st.sampled_from(["none", "self", "earlier", "any"]))
            if choice == "self":
                transitions[(s, x)] = s
            elif choice == "earlier" and earlier:
                transitions[(s, x)] = draw(st.sampled_from(earlier))
            elif choice == "any":
                transitions[(s, x)] = draw(st.integers(0, n - 1))
    return n, transitions


class TestConstructorRows:
    """The successor table the public constructor builds, which count_lengths
    and perron_roots read, against the dense transfer matrix."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=weighted_automata())
    @example(case=(1, {(0, 0): 0, (0, 1): 0}))  # a self-loop of weight 2
    @example(case=(2, {(0, 0): 1, (0, 1): 1, (1, 2): 1, (1, 3): 1, (1, 4): 0}))
    @example(case=(3, {(0, 0): 1, (0, 1): 2, (1, 0): 0, (1, 1): 0, (2, 0): 2, (2, 1): 2}))
    def test_rows_counts_and_brackets_match_the_matrix(self, case):
        n, transitions = case
        aut = CountingAutomaton(RANK3, n, transitions)
        mat = transfer_matrix(aut)
        # one target per letter, in increasing order: M[s][t] copies of t
        assert aut.succ == [[t for t, w in enumerate(row) for _ in range(w)] for row in mat]
        # counts[r] sums the first row of M^r
        v, want = [1] + [0] * (n - 1), []
        for _ in range(n + 3):
            want.append(sum(v))
            v = [sum(v[s] * mat[s][t] for s in range(n)) for t in range(n)]
        assert list(count_lengths(aut, n + 2).spheres) == want
        br = perron_root(aut, 1e-9)
        if want[n] == 0:  # no word of length n: no cycle, and M is nilpotent
            assert br.lower == br.upper == NEG_INF
        else:
            assert_brackets_log_rho(br, log_spectral_radius(aut), 1e-9)


def reference_bracket(aut: CountingAutomaton, tol: float) -> tuple[float, float]:
    """perron_root's bracket rebuilt from oracles.py: the strongly connected
    components found by brute-force reachability on aut.transitions, each
    one with a cycle bounded by collatz_wielandt_bounds on its (j, 1) rows,
    the bounds combined by max, and two outward steps from each log."""
    n = aut.n_states
    mat = transfer_matrix(aut)
    reach = []
    for s in range(n):
        seen, frontier = {s}, [s]
        while frontier:
            u = frontier.pop()
            for t in range(n):
                if mat[u][t] and t not in seen:
                    seen.add(t)
                    frontier.append(t)
        reach.append(seen)
    pairs = []
    for s in range(n):
        comp = sorted(t for t in reach[s] if s in reach[t])
        # each component once, at its least state, and only one with a cycle
        if comp[0] != s or comp == [s] and not mat[s][s]:
            continue
        rows = [[(j, 1) for j, t in enumerate(comp) for _ in range(mat[u][t])] for u in comp]
        pairs.append(oracles.collatz_wielandt_bounds(rows, tol, 200_000))
    if not pairs:
        return NEG_INF, NEG_INF
    lo, hi = max(lo for lo, _ in pairs), max(hi for _, hi in pairs)
    lower = math.nextafter(math.nextafter(math.log(lo), -math.inf), -math.inf)
    upper = math.nextafter(math.nextafter(math.log(hi), math.inf), math.inf)
    return lower, upper


class TestBracketsAgainstReference:
    """perron_root on real automata, whose components the kernel cuts from
    the successor table, equals bit for bit the bracket built from the
    plain-Python reference in oracles.py."""

    def test_rank2_avoid_languages(self):
        for length in (1, 2, 3):
            for f in enumerate_sphere(RANK2, length):
                aut = avoid_factors(RANK2, [f])
                br = perron_root(aut, 1e-9)
                assert (br.lower, br.upper) == reference_bracket(aut, 1e-9), format_word(f)

    @pytest.mark.parametrize("h", ["a", "a b", "a a b", "a b a- b-"])
    def test_ghat(self, h):
        word = parse_word(RANK2, h)
        for m in range(len(word), 2 * len(word) + 3):
            aut = ghat_language(RANK2, word, m).automaton
            br = perron_root(aut, 1e-9)
            assert (br.lower, br.upper) == reference_bracket(aut, 1e-9), m


class TestPerronRootsBatch:
    def test_avoid_sweep_len4_languages(self):
        # the 160 languages of jobs/avoid_sweep_len4.json in one batch
        factors = [f for length in range(1, 5) for f in enumerate_sphere(RANK2, length)]
        auts = [avoid_factors(RANK2, [f]) for f in factors]
        assert len(auts) == 160
        assert perron_roots(auts, 1e-9) == [perron_root(a, 1e-9) for a in auts]

    def test_cycle_free_and_empty(self):
        assert perron_roots([], 1e-9) == []
        [br] = perron_roots([avoid_factors(RANK2, [word2(t) for t in ("a", "A", "b", "B")])])
        assert br.lower == br.upper == NEG_INF

    def test_a_block_that_cannot_close_fails_the_batch(self):
        with pytest.raises(ResourceLimitError):
            perron_roots([BASE2, avoid2("ab")], 1e-9, max_iter=2)


class TestAutomatonChecks:
    """The constructor rejects what perron_root and count_lengths would
    silently get wrong."""

    def test_unreachable_state_is_rejected(self):
        # state 1 carries three loops but no word reaches it: the growth is 0,
        # not log 3
        with pytest.raises(InvalidInputError, match="state 1 is unreachable"):
            CountingAutomaton(RANK2, 2, {(0, 0): 0, (1, 0): 1, (1, 1): 1, (1, 2): 1})

    def test_target_outside_the_states_is_rejected(self):
        with pytest.raises(InvalidInputError, match="leaves the states 0..1"):
            CountingAutomaton(RANK2, 2, {(0, 0): 1, (1, 0): 2})

    def test_letter_outside_the_alphabet_is_rejected(self):
        with pytest.raises(InvalidInputError, match="9 is not a letter of rank 2"):
            CountingAutomaton(RANK2, 1, {(0, 9): 0})


class TestAutomatonPlumbing:
    def test_transfer_matrix_counts_letters(self):
        m = transfer_matrix(BASE2)
        assert len(m) == BASE2.n_states
        assert sum(m[0]) == 4  # four letters leave the start state
        assert all(x >= 0 for row in m for x in row)

    def test_csv_export(self):
        csv = count_lengths(BASE2, 3).to_csv()
        assert csv == "r,sphere,ball\n0,1,1\n1,4,5\n2,12,17\n3,36,53\n"

    def test_counts0_is_zero_or_one(self):
        for aut in (BASE2, avoid2("ab"), avoid2("a", "A", "b", "B")):
            assert count_lengths(aut, 0)[0] == 1


def dp_counts(aut: CountingAutomaton, r_max: int) -> list[int]:
    """The sphere counts 0..r_max by the plain DP, the reference for
    count_lengths at every radius: every step pushes each state's count
    along each of its transitions, read from aut.transitions."""
    v = [1] + [0] * (aut.n_states - 1)
    counts = [1]
    for _ in range(r_max):
        nxt = [0] * aut.n_states
        for (s, _), t in aut.transitions.items():
            nxt[t] += v[s]
        v = nxt
        counts.append(sum(v))
    return counts


@st.composite
def counted_automata(draw):
    """A random avoid automaton (forbidden_sets) or Ghat automaton (as in
    ghat_cases, with |h| <= 6 so the DP reference stays quick)."""
    if draw(st.booleans()):
        rank, forbidden = draw(forbidden_sets())
        alphabet = RANKS[rank]
        return avoid_factors(alphabet, [parse_word(alphabet, oracles.to_lib_text(f)) for f in forbidden])
    rank = draw(st.integers(2, 4))
    h = _reduced_extension(draw, oracles.letters(rank), "", draw(st.integers(1, 6)))
    word = parse_word(RANKS[rank], oracles.to_lib_text(h))
    return ghat_language(RANKS[rank], word, draw(st.integers(len(h), 2 * len(h) + 2))).automaton


def free_group(rank: int) -> CountingAutomaton:
    return avoid_factors(RANKS[rank], ())


class TestCountRecurrence:
    """Long radii are counted from the verified integer recurrence of the
    first 2n counts; every count equals the plain DP's."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(aut=counted_automata(), radius=st.sampled_from(["2n-1", "2n", "2n+1", "5n", "1000"]))
    def test_recurrence_counts_equal_the_dp(self, aut, radius):
        n = aut.n_states
        r_max = {"2n-1": 2 * n - 1, "2n": 2 * n, "2n+1": 2 * n + 1, "5n": 5 * n, "1000": 1000}[radius]
        want = dp_counts(aut, r_max)
        assert list(count_lengths(aut, r_max).spheres) == want
        coeffs = automata._linear_recurrence(want, n)
        assert coeffs is not None and len(coeffs) <= n

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_free_group_closed_form_at_radius_3000(self, rank):
        aut = free_group(rank)
        counts = count_lengths(aut, 3000).spheres
        assert counts[0] == 1
        assert all(c == 2 * rank * (2 * rank - 1) ** (r - 1) for r, c in enumerate(counts) if r)
        # a_r = (2k - 1) a_{r-1} from r = 2 on, so the order is 2
        assert automata._linear_recurrence(counts, aut.n_states) == [2 * rank - 1, 0]

    def test_recurrence_with_negative_coefficients(self):
        # avoiding ab and ba: a_r = 3 a_{r-1} - a_{r-2}, lifted from 2**61 - 2
        aut = avoid2("ab", "ba")
        assert automata._linear_recurrence(dp_counts(aut, 9), aut.n_states) == [3, -1, 0]
        assert list(count_lengths(aut, 1000).spheres) == dp_counts(aut, 1000)

    def test_finite_language_reaches_order_0(self):
        # the reduced words of length <= 2: counts 1, 4, 12, then zeros, and
        # the recurrence [0, 0, 0] has no coefficient left once trimmed
        aut = avoid_factors(RANK2, list(enumerate_sphere(RANK2, 3)))
        n = aut.n_states
        want = [1, 4, 12] + [0] * 998
        assert dp_counts(aut, 1000) == want
        assert automata._linear_recurrence(want, n) == [0, 0, 0]
        assert list(count_lengths(aut, 1000).spheres) == want

    @pytest.mark.parametrize("make", [lambda: free_group(2), lambda: avoid2("ab", "ba")])
    def test_a_lift_that_fails_the_check_falls_back_to_the_dp(self, make, monkeypatch):
        # the DP stops once, at term 2n, and carries on when no recurrence
        # of the first 2n counts verifies
        aut = make()
        n = aut.n_states
        want = dp_counts(aut, 1000)
        monkeypatch.setattr(automata, "_MODULUS", 3)
        real = automata._linear_recurrence
        calls = []

        def spy(counts, n):
            coeffs = real(counts, n)
            calls.append((list(counts), n, coeffs))
            return coeffs

        monkeypatch.setattr(automata, "_linear_recurrence", spy)
        assert list(count_lengths(aut, 1000).spheres) == want
        assert calls == [(want[:2 * n], n, None)]

    def test_count_lengths_never_calls_itself(self, monkeypatch):
        # a long radius is counted in one call, wrapped through the module
        # global as perfbench/layertrace.py wraps it
        aut = ghat_language(RANK3, parse_word(RANK3, "a b c"), 4).automaton
        real = automata.count_lengths
        calls = []

        def wrapper(aut, r_max):
            calls.append(r_max)
            return real(aut, r_max)

        monkeypatch.setattr(automata, "count_lengths", wrapper)
        assert list(automata.count_lengths(aut, 1000).spheres) == dp_counts(aut, 1000)
        assert calls == [1000]

    def test_the_check_covers_n_terms(self, monkeypatch):
        # modulo 7 these counts double at every step (1, 2, 4, 1, 2, 4), and
        # over Z they do at terms 1 and 2 but not at term 3: a check of
        # fewer than n = 3 terms would accept a_k = 2 a_{k-1}
        monkeypatch.setattr(automata, "_MODULUS", 7)
        assert automata._linear_recurrence([1, 2, 4, 15, 30, 60], 3) is None
        assert automata._linear_recurrence([1, 2, 4, 8, 16, 32], 3) == [2]

    def test_short_radii_run_the_dp(self, monkeypatch):
        # where the DP is as fast, count_lengths does not look for a recurrence
        def refuse(*args):
            raise AssertionError("recurrence sought for a short radius")

        monkeypatch.setattr(automata, "_linear_recurrence", refuse)
        for aut, r_max in [(BASE2, 30), (free_group(3), 24), (avoid2("ab"), 10)]:
            assert list(count_lengths(aut, r_max).spheres) == dp_counts(aut, r_max)


@st.composite
def digraphs(draw):
    """Successor lists of a random graph on 1-30 states, each in increasing
    order; loops, parallel edges and states no other reaches are all drawn."""
    n = draw(st.integers(1, 30))
    return [sorted(draw(st.lists(st.integers(0, n - 1), max_size=4))) for _ in range(n)]


def assert_components(succ: list[list[int]]) -> None:
    """Tarjan's components are the mutual-reachability classes of
    oracles.py, each in increasing order, and each listed after every
    component it reaches (perron_roots cuts a component's rows by that
    order): every edge leads to the same component or an earlier one."""
    components = automata._strongly_connected_components(len(succ), succ)
    assert all(comp == sorted(comp) for comp in components)
    assert sorted(map(tuple, components)) == oracles.mutual_reachability_classes(succ)
    listed = {s: i for i, comp in enumerate(components) for s in comp}
    assert all(listed[t] <= listed[s] for s, targets in enumerate(succ) for t in targets)


class TestStronglyConnectedComponents:
    """_strongly_connected_components (iterative Tarjan) against plain
    searches from every state."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(aut=counted_automata())
    def test_counted_automata(self, aut):
        assert_components(aut.succ)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=ghat_cases())
    def test_ghat_automata(self, case):
        rank, h, m = case
        word = parse_word(RANKS[rank], oracles.to_lib_text(h))
        assert_components(ghat_language(RANKS[rank], word, m).automaton.succ)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=forbidden_sets())
    def test_avoid_automata(self, case):
        rank, forbidden = case
        alphabet = RANKS[rank]
        words = [parse_word(alphabet, oracles.to_lib_text(f)) for f in forbidden]
        assert_components(avoid_factors(alphabet, words).succ)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(succ=digraphs())
    @example(succ=[[]])
    @example(succ=[[1], [2], [0], [2, 4], [3]])
    def test_any_graph(self, succ):
        assert_components(succ)


def bracket_of(lo: float, hi: float) -> tuple[float, float]:
    """perron_roots' bracket for Perron bounds (lo, hi): two outward steps
    from each log."""
    lower = math.nextafter(math.nextafter(math.log(lo), -math.inf), -math.inf)
    upper = math.nextafter(math.nextafter(math.log(hi), math.inf), math.inf)
    return lower, upper


# a 2-regular component that is not a free group's: state 0 leads into
# {1, 2, 3}, where 2 -> 3 is a double edge
TWO_REGULAR = CountingAutomaton(
    RANK2, 4, {(0, 0): 1, (1, 0): 2, (1, 1): 3, (2, 0): 3, (2, 1): 3, (3, 0): 1, (3, 2): 2}
)

# one state with two loops: a one-state regular component with d = 2
TWO_LOOPS = CountingAutomaton(RANK2, 1, {(0, 0): 0, (0, 1): 0})


def kernel_blocks(aut: CountingAutomaton, tol: float, max_iter: int, monkeypatch) -> list:
    """The blocks perron_root sends to _collatz_wielandt."""
    seen = []
    real = automata._collatz_wielandt

    def spy(blocks, tol, max_iter):
        seen.extend(blocks)
        return real(blocks, tol, max_iter)

    with monkeypatch.context() as patch:
        patch.setattr(automata, "_collatz_wielandt", spy)
        try:
            perron_root(aut, tol, max_iter)
        except ResourceLimitError:
            pass
    return seen


class TestRegularComponents:
    """A component whose rows all have one length d gets (d, d) without the
    kernel: the kernel's own bounds, bit for bit."""

    @pytest.mark.parametrize("tol", [1e-13, 1e-9, 0.5])
    @pytest.mark.parametrize("aut", [free_group(2), free_group(3), free_group(4), TWO_REGULAR],
                             ids=["F2", "F3", "F4", "two-regular"])
    def test_equals_the_kernel_on_the_same_block(self, aut, tol, monkeypatch):
        # max_iter 0 sends the block to the kernel, which shows what it is
        [block] = kernel_blocks(aut, tol, 0, monkeypatch)
        degree = len(block[0])
        assert all(len(row) == degree for row in block) and len(block) >= 2
        [bounds] = _collatz_wielandt([block], tol, 200_000)
        assert bounds == (float(degree),) * 2
        assert kernel_blocks(aut, tol, 200_000, monkeypatch) == []
        br = perron_root(aut, tol)
        assert (br.lower, br.upper) == bracket_of(*bounds)

    @pytest.mark.parametrize("tol", [1e-13, 1e-9, 0.5])
    @pytest.mark.parametrize("aut,want", [(TWO_LOOPS, [[[0, 0]]]), (free_group(1), [[[0]], [[0]]])],
                             ids=["two-loops", "F1"])
    def test_a_looped_state_is_a_regular_component(self, aut, want, tol, monkeypatch):
        # the one-state blocks, each with d loops, get the kernel's (d, d);
        # F1's start state has no loop and reaches the kernel under no rule
        assert kernel_blocks(aut, tol, 0, monkeypatch) == want
        for block in want:
            degree = len(block[0])
            assert _collatz_wielandt([block], tol, 200_000) == [(float(degree),) * 2]
        assert kernel_blocks(aut, tol, 200_000, monkeypatch) == []
        br = perron_root(aut, tol)
        assert (br.lower, br.upper) == bracket_of(float(degree), float(degree))

    def test_blocks_cut_from_the_successor_table(self, monkeypatch):
        assert kernel_blocks(TWO_REGULAR, 1e-9, 0, monkeypatch) == [[[1, 2], [2, 2], [0, 1]]]
        assert kernel_blocks(free_group(2), 1e-9, 0, monkeypatch) == [
            [[0, 2, 3], [1, 2, 3], [0, 1, 2], [0, 1, 3]]
        ]
        # a component with rows of lengths 2 and 3 still goes to the kernel
        assert len(kernel_blocks(avoid2("ab"), 1e-9, 200_000, monkeypatch)) == 1

    def test_a_mixed_batch_equals_one_call_per_automaton(self):
        auts = [
            free_group(2), avoid2("ab"), free_group(3), TWO_REGULAR,
            ghat_language(RANK2, word2("ab"), 4).automaton, BASE2, free_group(1),
            avoid2("a", "A", "b", "B"),
        ]
        for tol in (1e-12, 1e-9, 1e-6):
            assert perron_roots(auts, tol) == [perron_root(a, tol) for a in auts]

    @pytest.mark.parametrize("aut", [BASE2, free_group(4), TWO_REGULAR, TWO_LOOPS])
    def test_max_iter_0_still_raises(self, aut):
        with pytest.raises(ResourceLimitError):
            perron_root(aut, 1e-9, max_iter=0)
