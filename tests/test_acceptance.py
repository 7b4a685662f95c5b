"""Acceptance suite: one test per headline guarantee of the package.

Each function checks a single end-to-end claim at its stated tolerance, so
`pytest -v tests/test_acceptance.py` prints one pass/fail line per guarantee.
Reference values come from the char-string oracles in oracles.py, never from
the code under test.  Tests with a stated wall-clock budget assert it.
"""
from __future__ import annotations

import math
import random
import time

import pytest

from growthtight import (
    Alphabet,
    Axis,
    FactorKernel,
    HomToIntegers,
    LpProductSpec,
    avoid_factors,
    check_projection_axioms,
    check_prop_minimal,
    check_subadditivity,
    count_lengths,
    enumerate_sphere,
    fekete_upper_profile,
    ghat_membership_exact,
    lemma31_bound_check,
    perron_root,
    same_line,
    shorten,
    shorten_threshold,
    sphere_size,
    tightness_verdict,
    verify_duality,
)

import oracles
from conftest import RANK2, chars, word2

INF = math.inf
LOG3 = math.log(3)


def test_free_group_exponents_and_counts_ranks_2_to_4():
    """Spectral bracket = log(2k-1) within 1e-9 and exact sphere counts
    match independent enumeration out to radius 8, in under 10 s.

    Rank 4 enumeration is cross-checked in full to radius 6 and by the
    last-letter recurrence to radius 8 (full listing there is ~7M words).
    """
    t0 = time.monotonic()
    for rank in (2, 3, 4):
        aut = avoid_factors(Alphabet(rank), ())
        br = perron_root(aut, 1e-9)
        assert br.contains(math.log(2 * rank - 1)), rank
        assert br.width <= 2e-9, rank
        got = list(count_lengths(aut, 8).spheres)
        if rank <= 3:
            assert got == [len(s) for s in oracles.words_by_radius(rank, 8)]
        else:
            assert got[:7] == [len(s) for s in oracles.words_by_radius(4, 6)]
            assert got == oracles.count_spheres_by_last_letter(4, 8)
    assert time.monotonic() - t0 < 10.0


def test_avoiding_any_factor_up_to_length_4_drops_the_exponent():
    """For every non-trivial rank-2 factor f with |f| <= 4 (160 words) the
    certified upper bound sits below log 3 - 1e-6 and the automaton counts
    equal the substring filter out to radius 9, in under 60 s."""
    t0 = time.monotonic()
    spheres = oracles.words_by_radius(2, 9)
    checked = 0
    for length in range(1, 5):
        for f in enumerate_sphere(RANK2, length):
            aut = avoid_factors(RANK2, [f])
            assert perron_root(aut, 1e-9).upper < LOG3 - 1e-6, chars(f)
            fc = chars(f)
            want = [sum(1 for w in sphere if fc not in w) for sphere in spheres]
            assert list(count_lengths(aut, 9).spheres) == want, fc
            checked += 1
    assert checked == 160
    assert time.monotonic() - t0 < 60.0


def test_product_duality_brackets_at_p_1_2_inf():
    """F2 x F2 counts out to lattice radius 12: the measured bracket contains
    2 log 3 at p=inf and log 3 at p=1, and sits within 0.08 of sqrt(2) log 3
    at p=2; every deviation stays below 0.08, in under 2 min."""
    t0 = time.monotonic()
    counts = [sphere_size(RANK2, r) for r in range(13)]
    for p, target in ((INF, 2 * LOG3), (2, math.sqrt(2) * LOG3), (1, LOG3)):
        spec = LpProductSpec((RANK2, RANK2), p)
        rep = verify_duality(spec, (counts, counts), 12, (LOG3, LOG3))
        assert rep.predicted == pytest.approx(target, abs=1e-12)
        assert rep.deviation <= 0.08, p
        if p in (1, INF):
            assert rep.measured.contains(target), p
    assert time.monotonic() - t0 < 120.0


def test_tightness_verdicts_for_factor_kernels():
    """Killing one factor of F2 x F2: at p=inf the verdict is tight with a
    gap of at least 0.9 log 3; at p=1 it is not-tight with bracket overlap
    within 0.08; both in under 2 min."""
    t0 = time.monotonic()
    kernel = FactorKernel([1])
    rep = tightness_verdict(LpProductSpec((RANK2, RANK2), INF), kernel, 8, 0.08)
    assert rep.verdict == "tight"
    assert rep.gap >= 0.9 * LOG3
    rep = tightness_verdict(LpProductSpec((RANK2, RANK2), 1), kernel, 8, 0.08)
    assert rep.verdict == "not-tight"
    assert rep.overlap_gap <= 0.08
    assert time.monotonic() - t0 < 120.0


def test_shortening_strictly_shrinks_everything_outside_the_restricted_set():
    """For h in {a, ab} at the minimal admissible K, every g with |g| <= 10
    outside Ghat(K) shortens strictly and satisfies the conjugated-power
    identity g' = k h^-1 k^-1 g; members are exactly the no-op cases."""
    failures = []
    for h_text in ("a", "ab"):
        h = word2(h_text)
        K = shorten_threshold(h)
        for r in range(11):
            for g in enumerate_sphere(RANK2, r):
                res = shorten(g, h, K)
                if ghat_membership_exact(g, h, K):
                    ok = res is None
                else:
                    ok = (
                        res is not None
                        and len(res.g_prime) < len(g)
                        and res.g_prime == res.k * ~h * ~res.k * g
                    )
                if not ok:
                    failures.append((h_text, chars(g)))
    assert failures == []


def test_minimal_sections_have_a_restricted_coordinate():
    """Integer-homomorphism kernel on F2 x F2 with h = (ab, b a^-1) at K=6:
    every minimal-section representative within L^1 radius 6 keeps its first
    coordinate inside Ghat(K); 13 cosets, zero counterexamples."""
    spec = LpProductSpec((RANK2, RANK2), 1)
    kernel = HomToIntegers(((1, 1), (1, -1)))
    h_tuple = spec.point([word2("ab"), word2("bA")])
    rep = check_prop_minimal(spec, kernel, h_tuple, shorten_threshold(word2("ab")), 6)
    assert rep.checked == 13
    assert rep.passed
    assert rep.counterexamples == ()


def _random_reduced(rng: random.Random, length: int, cyclic: bool) -> str:
    out: list[str] = []
    for i in range(length):
        opts = [
            c
            for c in "abAB"
            if (not out or c != oracles.inv(out[-1]))
            and not (cyclic and i == length - 1 and len(out) > 0 and c == oracles.inv(out[0]))
        ]
        out.append(rng.choice(opts))
    return "".join(out)


def test_random_axis_triples_obey_the_projection_constant():
    """200 seeded random triples of distinct lines (cores up to length 3,
    conjugators up to length 1): the observed constant never exceeds
    max |core| + 2 max |conjugator| and no triple has two oversized
    projection quantities."""
    rng = random.Random(20260814)
    for _ in range(200):
        axes: list[Axis] = []
        while len(axes) < 3:
            core = _random_reduced(rng, rng.randint(1, 3), cyclic=True)
            conj = _random_reduced(rng, rng.randint(0, 1), cyclic=False)
            ax = Axis.from_element(word2(conj) * word2(core) * ~word2(conj))
            if not any(same_line(ax, other) for other in axes):
                axes.append(ax)
        bound = max(len(a.core) for a in axes) + 2 * max(
            len(a.conjugator) for a in axes
        )
        xi, violations = check_projection_axioms(axes, candidate_xi=bound)
        assert xi <= bound, [chars(a.element) for a in axes]
        assert violations == [], [chars(a.element) for a in axes]


def test_every_small_element_is_power_or_has_bounded_projections():
    """Exhaustive |g| <= 4 against the axes of a and ab, powers up to n=8:
    each g either has a power in the cyclic group of the axis element or all
    its orbit projections stay within the stated bound; zero failures."""
    for h_text in ("a", "ab"):
        ax = Axis.from_element(word2(h_text))
        for r in range(1, 5):
            for g in enumerate_sphere(RANK2, r):
                rep = lemma31_bound_check(ax, g, 8)
                assert rep.passed, (h_text, chars(g), rep.branch)


def test_free_group_balls_are_exactly_subadditive_and_uppers_converge():
    """Rank-2 ball counts: P(m+n) <= P(m) P(n) holds exactly (b = 0) for all
    m + n <= 14, the certified uppers are non-increasing along doubling radii,
    and the radius-14 upper is within 0.12 of log 3."""
    balls = oracles.ball_sizes(2, 14)
    b = check_subadditivity(balls)
    assert b == 0.0
    profile = dict(fekete_upper_profile(balls, b))
    for i in (1, 2, 3, 4, 5, 6, 7):
        assert profile[2 * i] <= profile[i] + 1e-12, i
    assert profile[14] - LOG3 <= 0.12
