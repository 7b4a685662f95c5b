"""Free-group word arithmetic against the brute-force oracle toolkit."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthtight import (
    Alphabet,
    AlphabetMismatchError,
    InvalidInputError,
    ReducedWord,
    ResourceLimitError,
    enumerate_ball,
    enumerate_sphere,
    format_word,
    free_reduce,
    parse_word,
    sphere_size,
)
from growthtight.words import _root_key

import oracles
from conftest import RANK1, RANK2, RANK3, chars, word2


def rand_chars(rng: random.Random, rank: int, length: int) -> str:
    alpha = oracles.letters(rank)
    out = ""
    for _ in range(length):
        options = [c for c in alpha if not out or c != oracles.inv(out[-1])]
        out += rng.choice(options)
    return out


class TestAlphabet:
    def test_rank_bounds(self):
        with pytest.raises(InvalidInputError):
            Alphabet(0)
        with pytest.raises(InvalidInputError):
            Alphabet(-3)

    @pytest.mark.parametrize("rank", ["2", True, 2.0])
    def test_non_integer_rank_is_rejected(self, rank):
        with pytest.raises(InvalidInputError, match="rank must be an integer"):
            Alphabet(rank)

    def test_letters_and_involution(self):
        assert len(RANK2.letters) == 4
        for x in RANK2.letters:
            assert Alphabet.inverse(x) != x
            assert Alphabet.inverse(Alphabet.inverse(x)) == x

    def test_letter_names_round_trip(self):
        for x in RANK3.letters:
            assert RANK3.parse_letter(RANK3.letter_name(x)) == x

    def test_identity(self):
        assert not RANK2.identity
        assert len(RANK2.identity) == 0
        assert format_word(RANK2.identity) == "1"


class TestFreeReduce:
    def test_adjacent_cancellation(self):
        assert free_reduce(RANK2, ["a", "b", "b-", "a"]) == word2("aa")

    def test_empty(self):
        assert free_reduce(RANK2, []) == RANK2.identity

    def test_nested_cancellation(self):
        # a b a- a b- collapses from the middle out
        assert free_reduce(RANK2, ["a", "b", "a-", "a", "b-"]) == word2("a")

    def test_accepts_integer_letters(self):
        # 0, 2, 3 name a, b, b-; the trailing pair cancels
        assert free_reduce(RANK2, [0, 2, 3]) == word2("a")

    def test_unknown_symbol(self):
        with pytest.raises(InvalidInputError):
            free_reduce(RANK2, ["a", "q"])

    def test_idempotent_random(self):
        rng = random.Random(7)
        for _ in range(100):
            raw = [rng.choice("aAbB") for _ in range(rng.randint(0, 12))]
            once = oracles.reduce_scan("".join(raw))
            lib = free_reduce(RANK2, [oracles.to_lib_text(c).strip() for c in raw])
            assert chars(lib) == once
            assert free_reduce(RANK2, [w for w in lib.letters]) == lib


class TestMultiply:
    def test_boundary_cancellation(self):
        assert word2("ab") * word2("Ba") == word2("aa")

    def test_identity_neutral(self):
        w = word2("abA")
        assert w * RANK2.identity == w
        assert RANK2.identity * w == w

    def test_no_cancellation(self):
        assert chars(word2("ab") * word2("Ab")) == "abAb"

    def test_inverse_cancels(self):
        rng = random.Random(3)
        for _ in range(50):
            w = word2(rand_chars(rng, 2, rng.randint(0, 9)))
            assert w * ~w == RANK2.identity

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            word2("a") * parse_word(RANK3, "a")

    def test_length_subadditive_and_matches_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            u = rand_chars(rng, 2, rng.randint(0, 12))
            v = rand_chars(rng, 2, rng.randint(0, 12))
            prod = word2(u) * word2(v)
            assert chars(prod) == oracles.mult(u, v)
            assert len(prod) <= len(u) + len(v)

    def test_associativity_random(self):
        rng = random.Random(19)
        for _ in range(200):
            u, v, w = (word2(rand_chars(rng, 2, rng.randint(0, 12))) for _ in range(3))
            assert (u * v) * w == u * (v * w)

    def test_operator_alias(self):
        assert word2("ab") * word2("Ba") == word2("aa")

    def test_pow(self):
        assert word2("ab") ** 3 == word2("ababab")
        assert word2("ab") ** -2 == word2("BABA")
        assert word2("ab") ** 0 == RANK2.identity


class TestReducedWordConstructor:
    """The public constructor accepts only freely reduced letter codes, so a
    product of constructed words reduces fully."""

    def test_unreduced_letters_are_rejected(self):
        # a- a a- read as a reduced word would make a * (a- a a-) = a a-
        # instead of the identity
        with pytest.raises(InvalidInputError, match="not freely reduced at token 2"):
            ReducedWord(RANK2, (1, 1, 0))
        with pytest.raises(InvalidInputError, match="not freely reduced at token 1"):
            ReducedWord(RANK2, (2, 3))

    def test_product_of_constructed_words_is_reduced(self):
        a = ReducedWord(RANK2, (0,))
        a_inv_b = ReducedWord(RANK2, (1, 2))
        assert a * a_inv_b == ReducedWord(RANK2, (2,))
        assert a * ReducedWord(RANK2, (1,)) == RANK2.identity

    @pytest.mark.parametrize("letters", [(4,), (0, -1), (0, 2, 8), (True,), ("a",), (0.0,)])
    def test_out_of_range_letters_are_rejected(self, letters):
        with pytest.raises(InvalidInputError, match="out of range"):
            ReducedWord(RANK2, letters)

    def test_accepts_any_reduced_sequence(self):
        w = ReducedWord(RANK3, [4, 2, 5])
        assert w.letters == (4, 2, 5) and w == parse_word(RANK3, "c b c-")
        assert ReducedWord(RANK1, ()) == RANK1.identity


class TestCyclicReduce:
    """The (conjugator, root^e) split of _root_key: w = conjugator core
    conjugator^-1 with core = root^e cyclically reduced."""

    def test_single_conjugating_letter(self):
        assert _root_key(word2("baB").letters) == (word2("b").letters, word2("a").letters, 1)

    def test_already_reduced(self):
        assert _root_key(word2("ab").letters) == ((), word2("ab").letters, 1)

    def test_two_peels(self):
        assert _root_key(word2("abaBA").letters) == (word2("ab").letters, word2("a").letters, 1)

    def test_recompose_random(self):
        rng = random.Random(23)
        for _ in range(200):
            w = word2(rand_chars(rng, 2, rng.randint(0, 10)))
            if not w:  # the identity has no root key
                continue
            conjugator, root, e = _root_key(w.letters)
            conj, core = ReducedWord(RANK2, conjugator), ReducedWord(RANK2, root * e)
            assert conj * core * ~conj == w
            assert core.letters[0] != Alphabet.inverse(core.letters[-1])
            assert (chars(core), chars(conj)) == oracles.cyclic_peel(chars(w))


class TestPrimitiveRoot:
    @pytest.mark.parametrize(
        "text,root,exponent",
        [("ababab", "ab", 3), ("a", "a", 1), ("ab", "ab", 1), ("aabaab", "aab", 2)],
    )
    def test_examples(self, text, root, exponent):
        assert _root_key(word2(text).letters) == ((), word2(root).letters, exponent)
        assert oracles.prim_root(text) == (root, exponent)

    def test_power_recomposes(self):
        # w is (conjugator root conjugator^-1)^e
        rng = random.Random(29)
        for _ in range(100):
            w = word2(rand_chars(rng, 2, rng.randint(1, 8)))
            conjugator, root, e = _root_key(w.letters)
            conj = ReducedWord(RANK2, conjugator)
            assert (conj * ReducedWord(RANK2, root) * ~conj) ** e == w

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_root_key_matches_peel_and_root_oracle(self, data):
        rank = data.draw(st.integers(1, 3))
        pool = oracles.letters(rank)

        def char_word(max_size, min_size=0):
            size = data.draw(st.integers(min_size, max_size))
            out = ""
            while len(out) < size:
                c = data.draw(st.sampled_from(pool))
                if not out or c != oracles.inv(out[-1]):
                    out += c
            return out

        # conjugated powers, so exponents above 1 and long conjugators occur
        base = char_word(4, min_size=1)
        power = oracles.reduce_scan(base * data.draw(st.integers(1, 3)))
        conjugator = char_word(3)
        w = oracles.mult(oracles.mult(conjugator, power), oracles.invert(conjugator))
        if not w:
            return
        alphabet = Alphabet(rank)
        got_conj, got_root, got_e = _root_key(parse_word(alphabet, oracles.to_lib_text(w)).letters)
        core, conj = oracles.cyclic_peel(w)
        root, e = oracles.prim_root(core)

        def as_chars(letters):
            return oracles.from_lib_text(" ".join(alphabet.letter_name(x) for x in letters))

        assert (as_chars(got_conj), as_chars(got_root), got_e) == (conj, root, e)


class TestEnumeration:
    def test_sphere_sizes_match_formula(self):
        for rank, r_top in ((1, 6), (2, 7), (3, 5)):
            alphabet = Alphabet(rank)
            for r in range(r_top + 1):
                got = len(enumerate_sphere(alphabet, r))
                assert got == sphere_size(alphabet, r)
                assert got == oracles.sphere_size(rank, r)

    def test_rank2_sphere_values(self):
        assert [sphere_size(RANK2, r) for r in range(4)] == [1, 4, 12, 36]

    def test_rank3_radius1(self):
        assert len(enumerate_sphere(RANK3, 1)) == 6

    def test_exact_word_sets_match_oracle(self):
        spheres = oracles.words_by_radius(2, 5)
        for r in range(6):
            got = [chars(w) for w in enumerate_sphere(RANK2, r)]
            assert got == spheres[r]  # same set, same shortlex order

    def test_shortlex_order(self):
        for r in range(4):
            sphere = enumerate_sphere(RANK2, r)
            keys = [w.letters for w in sphere]
            assert keys == sorted(keys)

    def test_ball_is_prefix_union(self):
        ball = enumerate_ball(RANK2, 3)
        assert len(ball) == sum(sphere_size(RANK2, r) for r in range(4))
        assert ball[:5] == enumerate_sphere(RANK2, 0) + enumerate_sphere(RANK2, 1)

    def test_cutoff_guard(self):
        with pytest.raises(ResourceLimitError):
            enumerate_sphere(RANK2, 15)
        with pytest.raises(ResourceLimitError):
            enumerate_sphere(RANK2, 6, cutoff=5)
        assert enumerate_sphere(RANK2, 5, cutoff=5)  # boundary allowed

    def test_negative_radius(self):
        with pytest.raises(InvalidInputError):
            enumerate_sphere(RANK2, -1)


class TestSerialization:
    def test_round_trip_examples(self):
        for text in ("a b a-", "1", "a", "b- b- a"):
            assert format_word(parse_word(RANK2, text)) == text

    def test_round_trip_random(self):
        rng = random.Random(31)
        for _ in range(200):
            w = word2(rand_chars(rng, 2, rng.randint(0, 10)))
            assert parse_word(RANK2, format_word(w)) == w

    def test_apostrophe_suffix(self):
        assert parse_word(RANK2, "a' b") == word2("Ab")

    def test_parse_reduces(self):
        assert parse_word(RANK2, "a a- b") == word2("b")

    def test_position_annotated_error(self):
        with pytest.raises(InvalidInputError, match="token 1"):
            parse_word(RANK2, "a x b")
        with pytest.raises(InvalidInputError, match="token 0"):
            parse_word(RANK2, "c")

    def test_exponent_sums(self):
        assert word2("ababab").exponent_sums() == (3, 3)
        assert word2("abA").exponent_sums() == (0, 1)
        assert RANK2.identity.exponent_sums() == (0, 0)

    def test_conjugated_by(self):
        assert word2("a").conjugated_by(word2("b")) == word2("baB")

    def test_hashable(self):
        seen = {word2("ab"): 1}
        assert seen[word2("a") * word2("b")] == 1

    def test_rank1_spheres(self):
        counts = [len(enumerate_sphere(RANK1, r)) for r in range(5)]
        assert counts == [1, 2, 2, 2, 2]
