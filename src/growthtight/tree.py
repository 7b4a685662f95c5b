"""Axes, nearest-point projections and the shortening move on Cayley trees.

An axis is the bi-infinite geodesic of a non-trivial element: translate the
line of its cyclically reduced core's primitive root t, i.e. the vertices
origin * (prefixes of t^infinity and t^-infinity).  Because t is cyclically
reduced, the two rays leave the origin through different edges, so projections
reduce to longest-common-prefix scans.  The scans read an axis through its
letter frame (_letter_frame): the letters of the origin, of its inverse, of
the root and of its inverse.  Axis-to-axis geometry (same_line, the
projection of one axis onto another) is one scan from a shared vertex
(_meet), and that scan gives the intervals of a pair on both axes, so the
projection axioms scan each unordered pair once and score the intervals in
one place (_score_axes).  Long projections of [o, g.o] onto translated
axes (the restricted set Ghat, the shortening move) are the maximal runs of g
reading the root forward, found by the same prefix scan; a run's witness is
built only where it is returned, and a shortening step deletes one core's
letters from the run.  Ghat(K) is an automata.Language (ghat_language);
sweeps over a ball of words count its whole subtrees from that language's
automaton and list only the words outside.  The lemma 3.1
orbit g^n.p stops at its stable index: once the letters of g's cyclic core no
longer all cancel into p, every later orbit point extends a prefix the
current one already has, and when both ray agreements of the current point
end inside that prefix, its projection is every later one's.

The shortening step and the lemma 3.1 check each have one per-word kernel on
letter tuples (_shortened, _lemma31_orbit).  The sweeps call the kernels
directly, with everything that depends only on h, K or the axis read once
per sweep, and build no word, witness or report per word.  The public
per-word functions (shorten, lemma31_bound_check) wrap the same kernels:
they check their inputs and build the result objects.  The random
projection-axiom family works the same way: it keeps one letter frame per
distinct h and builds no Axis, while check_projection_axioms builds the
frames of explicit axes and scores them with the same scorer.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Callable, Sequence

from .automata import Language
from .errors import InternalInvariantError, InvalidInputError
from .words import (
    Alphabet,
    ReducedWord,
    _check_cutoff,
    _check_same_alphabet,
    _inverse,
    _reduce_concat,
    _root_key,
    _word,
    format_word,
    iter_sphere_letters,
)

# Empirical slack for the power/projection dichotomy bound
# d_pi(g^n.p, p) <= 2 d(p, g.p) + D_TREE.  0 is too small: for h = a- b b b
# and g = b- the bound is 2 but the projection reaches 3 from n = 3 on.
# ROADMAP item 6 replaces it with a bound proved on the tree.
D_TREE = 0


@dataclass(frozen=True)
class Axis:
    """Translated axis of a non-trivial free-group element."""

    element: ReducedWord
    core: ReducedWord
    conjugator: ReducedWord
    root: ReducedWord
    translate: ReducedWord
    origin: ReducedWord  # vertex at coordinate 0 = translate * conjugator

    @classmethod
    def from_element(cls, h: ReducedWord, translate: ReducedWord | None = None) -> "Axis":
        if not h:
            raise InvalidInputError("the identity has no axis")
        if translate is None:
            translate = h.alphabet.identity
        core, conjugator, root = _axis_parts(h)
        return cls(h, core, conjugator, root, translate, translate * conjugator)

    @property
    def alphabet(self) -> Alphabet:
        return self.element.alphabet

    # Per-axis invariants of the projection and the lemma 3.1 check, computed
    # once; cached_property stores them outside the dataclass fields, so
    # equality and hashing are unchanged.
    @cached_property
    def frame(self) -> tuple[tuple[int, ...], ...]:
        """The letter frame (_letter_frame) that the projections read."""
        return _letter_frame(self.element.letters, self.translate.letters)

    @cached_property
    def line_key(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(conjugator, root, root^-1) of the root key of the line element
        translate * element * translate^-1, which moves this line along itself."""
        conjugator, root, _ = _root_key(self.element.conjugated_by(self.translate).letters)
        return conjugator, root, _inverse(root)

    @cached_property
    def base(self) -> tuple[int, tuple[int, ...]]:
        """(coordinate, ray-prefix letters) of the axis vertex nearest the
        identity, in the axis frame."""
        coordinate, _ = _frame_coordinate(self.frame[1], self.frame)
        return coordinate, _ray_prefix(self.frame, coordinate)

    @cached_property
    def _lemma31_frame(self) -> tuple:
        """What the lemma 3.1 kernel (_lemma31_orbit) reads of this axis:
        the letter frame, the line element, the three parts of line_key, h's
        exponent (which conjugation keeps), and base with the inverse of its
        letters."""
        coordinate, p = self.base
        return (
            self.frame, self.element.conjugated_by(self.translate), *self.line_key,
            len(self.core) // len(self.root), coordinate, p, _inverse(p),
        )

    def ray_prefix(self, coordinate: int) -> ReducedWord:
        """Vertex at signed arc-length position in the axis frame (origin at 1)."""
        return _word(self.alphabet, _ray_prefix(self.frame, coordinate))

    def point(self, coordinate: int) -> ReducedWord:
        """Vertex at signed arc-length position along the core direction."""
        return self.origin * self.ray_prefix(coordinate)


@dataclass(frozen=True)
class ProjectionResult:
    foot: ReducedWord
    distance: int
    axis_coordinate: int


def _agreement(letters: Sequence[int], ray: Sequence[int], phase: int = 0) -> int:
    """Length of the longest common prefix of letters and the periodic word
    ray^infinity read from position phase."""
    n = len(ray)
    m = 0
    while m < len(letters) and letters[m] == ray[(phase + m) % n]:
        m += 1
    return m


def _letter_frame(h: tuple[int, ...], translate: tuple[int, ...] = ()) -> tuple:
    """(origin, origin^-1, root, root^-1) letters of the axis of the
    non-empty reduced letters h moved by translate: all that the projections
    (_frame_coordinate, _meet) read of an axis.  The origin is translate *
    conjugator and root is h's primitive root (words._root_key)."""
    conjugator, root, _ = _root_key(h)
    origin = _reduce_concat(translate, conjugator)
    return origin, _inverse(origin), root, _inverse(root)


def _ray_prefix(frame: tuple, coordinate: int) -> tuple[int, ...]:
    """Letters, in the axis frame, of the axis vertex at a signed coordinate."""
    ray = frame[2] if coordinate >= 0 else frame[3]
    return tuple(ray[i % len(ray)] for i in range(abs(coordinate)))


def _frame_coordinate(v: Sequence[int], frame: tuple) -> tuple[int, int]:
    """(axis coordinate, distance) of the projection of the vertex
    origin * v onto the axis with the given letter frame, read from the
    letters of v without building the foot."""
    forward = _agreement(v, frame[2])
    backward = _agreement(v, frame[3])
    if forward > 0 and backward > 0:
        raise InternalInvariantError(
            "both rays match a positive prefix; root not cyclically reduced?"
        )
    coordinate = forward if forward >= backward else -backward
    return coordinate, len(v) - max(forward, backward)


def project_to_axis(x: ReducedWord, ax: Axis) -> ProjectionResult:
    """Nearest-point projection of the vertex x onto the axis (unique in a tree)."""
    _check_same_alphabet(x, ax.element)
    coordinate, distance = _frame_coordinate(_reduce_concat(ax.frame[1], x.letters), ax.frame)
    return ProjectionResult(
        foot=ax.point(coordinate), distance=distance, axis_coordinate=coordinate
    )


def _meet(source: tuple, target: tuple) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """(target-coordinate interval onto which the whole source line projects,
    source-coordinate interval onto which the whole target line projects),
    or None when the two axes are the same line; source and target are the
    axes' letter frames (_letter_frame).

    Disjoint lines project to the two ends of the bridge between them;
    meeting lines project to their shared segment, read in either frame.
    From a shared vertex each source ray follows at most one target ray, and
    distinct lines agree on fewer than |root_s| + |root_t| letters
    (Fine-Wilf), so reaching that cap means the same line.  Every
    axis-to-axis question (same_line, project_axis_onto_axis, the projection
    axioms of explicit and of random axes) is answered by this scan.
    """
    origin, _, s, s_back = source
    _, target_origin_inverse, t, t_back = target
    v = _reduce_concat(target_origin_inverse, origin)
    c, d = _frame_coordinate(v, target)
    j = 0  # source coordinate of the shared vertex at target coordinate c
    if d:
        # the path from the source origin to the target foot, in the source frame
        back = _inverse(v[len(v) - d :])
        forward = _agreement(back, s)
        backward = _agreement(back, s_back)
        if forward == d:
            j = d
        elif backward == d:
            j = -d
        else:
            # the bridge leaves the source line where this path does
            foot = forward if forward >= backward else -backward
            return (c, c), (foot, foot)
    cap = len(s) + len(t)
    spans = []
    lo = hi = c
    for ray, phase in ((s, j), (s_back, -j)):
        n = len(ray)
        letters = [ray[(phase + i) % n] for i in range(cap)]
        forward = _agreement(letters, t, c)
        backward = _agreement(letters, t_back, -c)
        if max(forward, backward) == cap:
            return None
        spans.append(max(forward, backward))
        lo, hi = min(lo, c - backward), max(hi, c + forward)
    return (lo, hi), (j - spans[1], j + spans[0])


def same_line(a: Axis, b: Axis) -> bool:
    """Whether two axes are the same bi-infinite geodesic (as vertex sets)."""
    return a.alphabet == b.alphabet and _meet(a.frame, b.frame) is None


def project_axis_onto_axis(source: Axis, target: Axis) -> tuple[int, int]:
    """Coordinate interval on target swept by projecting the whole source line."""
    meet = _meet(source.frame, target.frame)
    if meet is None:
        raise InvalidInputError("source and target are the same line")
    return meet[0]


def _score_axes(
    frames: Sequence[tuple],
    meets: dict[tuple[int, int], tuple],
    sample: Sequence[ReducedWord],
    candidate_xi: int | None,
) -> tuple[int, list[dict]]:
    """(xi, violations) of the projection axioms for the axes with the given
    letter frames, read from meets[(t, s)] = _meet(frames[s], frames[t]) for
    every pair t < s, which no pair may lack; the one scorer behind
    check_projection_axioms and random_axis_family."""
    # intervals[(t, s)]: the interval on axis t onto which axis s projects
    intervals: dict[tuple[int, int], tuple[int, int]] = {}
    for (t, s), (on_t, on_s) in meets.items():
        intervals[(t, s)], intervals[(s, t)] = on_t, on_s
    pair_diams = {key: hi - lo for key, (lo, hi) in intervals.items()}
    xi_observed = max(pair_diams.values(), default=0)
    triples = []
    for ids in itertools.combinations(range(len(frames)), 3):
        quantities = {}
        for target in ids:
            (lo1, hi1), (lo2, hi2) = [intervals[(target, o)] for o in ids if o != target]
            quantities[target] = max(hi1, hi2) - min(lo1, lo2)
        xi_observed = max(xi_observed, sorted(quantities.values())[-2])
        triples.append((ids, quantities))
    candidate = xi_observed if candidate_xi is None else candidate_xi
    violations: list[dict] = []
    for key, diam in sorted(pair_diams.items()):
        if diam > candidate:
            violations.append({"kind": "P0", "pair": key, "diameter": diam})
    for ids, quantities in triples:
        exceeding = [t for t, q in quantities.items() if q > candidate]
        if len(exceeding) >= 2:
            violations.append(
                {"kind": "P1", "triple": ids, "quantities": quantities}
            )
    # idempotence: the foot of x, projected again, is itself at distance 0
    for x in sample:
        for idx, frame in enumerate(frames):
            coordinate, _ = _frame_coordinate(_reduce_concat(frame[1], x.letters), frame)
            if _frame_coordinate(_ray_prefix(frame, coordinate), frame) != (coordinate, 0):
                violations.append({"kind": "projection", "axis": idx, "x": format_word(x)})
    return xi_observed, violations


def check_projection_axioms(
    axes: Sequence[Axis],
    sample: Sequence[ReducedWord] = (),
    candidate_xi: int | None = None,
) -> tuple[int, list[dict]]:
    """Observed projection constant for a family of axes.

    Returns the smallest xi for which (P0) every pairwise projection has
    diameter <= xi and (P1) in every triple at most one of the three mutual
    projection distances exceeds xi; plus the violation list against
    candidate_xi (empty when no candidate is given, by minimality).  Sample
    points feed an idempotence self-check of the projection map; (P2)
    finiteness is automatic for a finite family.  Each unordered pair is
    scanned once (_meet), lowest pair first, and the scans go to the scorer
    that random_axis_family shares.
    """
    frames = [ax.frame for ax in axes]
    for ax in axes:
        for x in sample:
            _check_same_alphabet(x, ax.element)
    meets = {}
    for ti, target in enumerate(frames):
        for si in range(ti + 1, len(frames)):
            meets[(ti, si)] = meet = _meet(frames[si], target)
            if meet is None:
                raise InvalidInputError(f"axes {ti} and {si} are the same line")
    return _score_axes(frames, meets, sample, candidate_xi)


def _letter_options(alphabet: Alphabet) -> dict[tuple, list[int]]:
    """options[(previous, first)]: the letters a random reduced word may take
    after previous (None at the start), in alphabet order; first is the
    word's first letter at the last position of a cyclic word, else None."""
    ends = [None, *alphabet.letters]
    return {
        (previous, first): [
            x for x in alphabet.letters
            if (previous is None or x != previous ^ 1) and (first is None or x != first ^ 1)
        ]
        for previous in ends
        for first in ends
    }


def _random_letters(
    rng: random.Random, options: dict[tuple, list[int]], length: int, cyclic: bool
) -> tuple[int, ...]:
    """A uniform choice at each position among the letters that keep the word
    reduced (and cyclically reduced when cyclic)."""
    letters: list[int] = []
    for i in range(length):
        previous = letters[-1] if letters else None
        first = letters[0] if cyclic and i and i == length - 1 else None
        letters.append(rng.choice(options[previous, first]))
    return tuple(letters)


def _random_axis(
    rng: random.Random, options: dict, frames: dict, core_max: int, conj_max: int
) -> tuple:
    """The letter frame of a random axis; frames maps the letters of each h
    drawn before to its frame, so a repeated h reuses it."""
    while True:
        core_len = rng.randint(1, core_max)
        conj_len = rng.randint(0, conj_max)
        core = _random_letters(rng, options, core_len, cyclic=True)
        conj = _random_letters(rng, options, conj_len, cyclic=False)
        h = _reduce_concat(_reduce_concat(conj, core), _inverse(conj))
        if h:
            frame = frames.get(h)
            if frame is None:
                frame = frames[h] = _letter_frame(h)
            return frame


def random_axis_family(
    alphabet: Alphabet, samples: Sequence[ReducedWord] = (), candidate_xi: int | None = None,
    *, seed: int, triples: int, core_max: int, conjugator_max: int,
) -> dict:
    """The projection axioms on triples of random axes of h = u c u^-1, c
    cyclically reduced with 1 to core_max letters and |u| <= conjugator_max,
    drawn by random.Random(seed): the largest projection constant against
    core_max + 2 conjugator_max, and the violations of candidate_xi.

    The family runs on letter frames (_letter_frame), one per distinct h,
    and builds no Axis or word.  The _meet scans that tell a triple's lines
    apart while it is drawn are the three meets its score reads
    (_score_axes, as check_projection_axioms scores explicit axes)."""
    # every axis of Z is one line; in F2 single letters give only the a- and b-lines
    if alphabet.rank == 1 or (alphabet.rank, core_max, conjugator_max) == (2, 1, 0):
        raise InvalidInputError("random axes span fewer than three distinct lines")
    for x in samples:
        _check_same_alphabet(x, alphabet.identity)
    rng = random.Random(seed)
    options = _letter_options(alphabet)
    frames: dict[tuple[int, ...], tuple] = {}
    xi_max = total_violations = 0
    for _ in range(triples):
        # draw three axes on distinct lines, keeping the meets of every pair
        drawn: list[tuple] = []
        meets: dict[tuple[int, int], tuple] = {}
        while len(drawn) < 3:
            frame = _random_axis(rng, options, frames, core_max, conjugator_max)
            new = {}
            for i, other in enumerate(drawn):
                new[(i, len(drawn))] = meet = _meet(frame, other)
                if meet is None:  # the line of an axis drawn before
                    break
            else:
                meets.update(new)
                drawn.append(frame)
        xi, violations = _score_axes(drawn, meets, samples, candidate_xi)
        xi_max = max(xi_max, xi)
        total_violations += len(violations)
    bound = core_max + 2 * conjugator_max
    return {
        "mode": "random",
        "triples": triples,
        "xi_observed": xi_max,
        "bound": bound,
        "within_bound": xi_max <= bound,
        "violations": total_violations,
    }


def _orbit_shared_prefix(
    key: tuple[tuple[int, ...], tuple[int, ...], int], p: tuple[int, ...]
) -> tuple[int, int, int]:
    """(period, lag, lead) of the orbit x_n = local_g^n . p, from the root key
    (u, root, e) of local_g (words._root_key): once n * period > lag, x_n has
    its first n * period + lead letters in common with every later x_m.  The
    orbit's stable index is the first such n at which x_n's longer ray
    agreement, |coordinate|, is below that count.

    local_g = u c u^-1 with c = root^e cyclically reduced, and lag is the
    agreement of w = u^-1 p with (c^-1)^infinity.  Once n|c| > lag, the
    letters of c^n cancel exactly lag letters of w, so x_n = u c^n[:n|c| -
    lag] w[lag:] with no cancellation; its first |u| + n|c| - lag letters are
    u read into c^infinity, a prefix of every later x_m.
    """
    u, root, e = key
    lag = _agreement(_reduce_concat(_inverse(u), p), _inverse(root))
    return len(root) * e, lag, len(u) - lag


@dataclass(frozen=True)
class Lemma31Report:
    branch: str  # "power-in-subgroup" or "bounded-projection"
    passed: bool
    bound: float
    rows: tuple[tuple[int, int], ...]  # (n, projection distance)
    power_witness: tuple[int, int] | None = None


def _lemma31_orbit(frame: tuple, g: tuple[int, ...], n_max: int) -> tuple:
    """The lemma 3.1 check of non-empty letters g against the axis whose
    Axis._lemma31_frame is frame: (branch, passed, bound, the projection
    distances up to the stable index, power witness).  The per-word kernel
    of lemma31_bound_check and lemma31_sweep."""
    (
        axis_frame, line, line_conjugator, line_root, line_back, exp_h, base_coord, p,
        p_inverse,
    ) = frame
    # g and the line element share a primitive root up to sign exactly when
    # g's root key has the line's conjugator and its root or root^-1
    key = conjugator, root_g, exp_g = _root_key(g)
    if conjugator == line_conjugator and root_g in (line_root, line_back):
        sign = 1 if root_g == line_root else -1
        # g^exp_h = root^(exp_g*exp_h) = line^(sign*exp_g), line = t h t^-1
        passed = _word(line.alphabet, g) ** exp_h == line ** (sign * exp_g)
        return "power-in-subgroup", passed, 0.0, (), (exp_h, sign * exp_g)
    # the orbit runs in the axis frame, on g conjugated by the origin
    origin, origin_inverse = axis_frame[:2]
    local_g = g
    if origin:
        local_g = _reduce_concat(_reduce_concat(origin_inverse, g), origin)
        key = _root_key(local_g)
    period, lag, lead = _orbit_shared_prefix(key, p)
    x = _reduce_concat(local_g, p)  # x_1 = g.p
    bound = 2 * len(_reduce_concat(p_inverse, x)) + D_TREE
    distances = []
    passed = True
    for n in range(1, n_max + 1):
        coord, _ = _frame_coordinate(x, axis_frame)
        dpi = abs(coord - base_coord)
        distances.append(dpi)
        passed = passed and dpi <= bound
        # |coord| is the longer ray agreement; when it ends inside the prefix
        # every later orbit point shares, so do both agreements of every
        # later point, and the coordinate is fixed from here on
        if n * period > lag and abs(coord) < n * period + lead:
            break
        x = _reduce_concat(local_g, x)
    return "bounded-projection", passed, bound, distances, None


def lemma31_bound_check(ax: Axis, g: ReducedWord, n_max: int) -> Lemma31Report:
    """Power-or-bounded-projection dichotomy for the orbit of g against an axis.

    Either some power of g lands in the cyclic group of the line element
    t h t^-1 (equivalent to sharing a primitive root, tested exactly), or the
    projections of g^n.p stay within 2 d(p, g.p) + D_TREE of p's projection,
    where p is the axis vertex nearest the identity (Axis.base).  The orbit
    runs on letter tuples in the axis frame (g conjugated by the origin): one
    free reduction per step.  It stops at its stable index, the first n at
    which both ray agreements of x_n = g^n.p end inside the prefix that every
    later x_m shares (_orbit_shared_prefix): each later x_m has the same
    agreements, so the same coordinate, and its row repeats row n.  Almost
    every g is stable at n = 1.  This wraps the per-word kernel
    _lemma31_orbit, which lemma31_sweep calls directly: it checks g and
    writes the report, with the rows past the stable index filled in.
    """
    if not g:
        raise InvalidInputError("g must be non-trivial")
    _check_same_alphabet(g, ax.element)
    branch, passed, bound, distances, power_witness = _lemma31_orbit(
        ax._lemma31_frame, g.letters, n_max
    )
    rows = tuple(enumerate(distances, 1))
    if distances:  # every row after the stable index repeats the last one
        rows += tuple((m, distances[-1]) for m in range(len(distances) + 1, n_max + 1))
    return Lemma31Report(
        branch=branch, passed=passed, bound=bound, rows=rows, power_witness=power_witness
    )


def lemma31_sweep(
    alphabet: Alphabet, h: ReducedWord, g_max: int, n_max: int, *, cutoff: int
) -> dict:
    """lemma31_bound_check against h's axis for every non-trivial g with
    |g| <= g_max, streamed sphere by sphere: the words checked, the count
    per branch and the failures.  Each word's letters go straight to the
    kernel _lemma31_orbit, with the axis constants read once."""
    _check_cutoff("g_max", g_max, cutoff)
    _check_same_alphabet(h, alphabet.identity)
    frame = Axis.from_element(h)._lemma31_frame
    checked = failures = 0
    branches: dict[str, int] = {}
    for r in range(1, g_max + 1):
        for letters in iter_sphere_letters(alphabet, r):
            branch, passed = _lemma31_orbit(frame, letters, n_max)[:2]
            checked += 1
            branches[branch] = branches.get(branch, 0) + 1
            if not passed:
                failures += 1
    return {
        "mode": "lemma31",
        "h": format_word(h),
        "g_max": g_max,
        "n_max": n_max,
        "d_tree": D_TREE,
        "checked": checked,
        "branches": branches,
        "failures": failures,
    }


@dataclass(frozen=True)
class LongProjectionWitness:
    """A translate of the axis onto which [o, g.o] projects with diameter >= K,
    aligned with the positive core direction."""

    k: ReducedWord
    projection_diameter: int
    start: int  # index into g's letters where the matched run begins
    phase: int  # phase of core^infinity at the run start


@lru_cache
def _axis_parts(h: ReducedWord) -> tuple[ReducedWord, ReducedWord, ReducedWord]:
    """(core, conjugator, root) of non-trivial h: h = conjugator * core *
    conjugator^-1 with core cyclically reduced, a power of its primitive root.
    Cached, since a sweep asks once per word for the same few h."""
    if not h:
        raise InvalidInputError("h must be non-trivial")
    conjugator, root, e = _root_key(h.letters)
    return (
        _word(h.alphabet, root * e),
        _word(h.alphabet, conjugator),
        _word(h.alphabet, root),
    )


def _threshold(core: ReducedWord, conjugator: ReducedWord) -> int:
    return 2 * (len(core) + 2 * len(conjugator)) + 2


def _long_runs(letters: Sequence[int], ray: Sequence[int], K: int) -> list[tuple[int, int, int]]:
    """(start, phase, length) of the maximal forward matches of letters against
    ray^infinity with length >= K, in (start, phase) order.  A run starting
    fewer than K letters from the end is too short, so no start there is
    scanned."""
    runs = []
    for i in range(len(letters) - K + 1):
        x = letters[i]
        for phase, y in enumerate(ray):
            # ray[phase - 1] wraps to the last letter at phase 0
            if x != y or (i and letters[i - 1] == ray[phase - 1]):
                continue  # no match here, or extendable to the left: not maximal
            length = _agreement(letters[i:], ray, phase)
            if length >= K:
                runs.append((i, phase, length))
    return runs


def _run_k(
    g: tuple[int, ...], run: tuple[int, int, int], root: tuple[int, ...],
    conjugator_inverse: tuple[int, ...],
) -> tuple[int, ...]:
    """Letters of the k that maps h's axis onto the line a run of g reads:
    k = before back^-1 conjugator^-1, with before = g[:start] and
    back = root[:phase]."""
    start, phase, _ = run
    return _reduce_concat(
        _reduce_concat(g[:start], _inverse(root[:phase])), conjugator_inverse
    )


def _witness(
    alphabet: Alphabet, k: tuple[int, ...], run: tuple[int, int, int]
) -> LongProjectionWitness:
    """The witness of one long run, whose k has the given letters."""
    start, phase, length = run
    return LongProjectionWitness(
        k=_word(alphabet, k), projection_diameter=length, start=start, phase=phase
    )


def _checked_runs(
    g: ReducedWord, h: ReducedWord, K: int
) -> tuple[tuple[int, ...], tuple[int, ...], list[tuple[int, int, int]]]:
    """(conjugator^-1, root) letters and the long runs of g against h's
    axis, after checking the alphabets, h and K."""
    _check_same_alphabet(g, h)
    _, conjugator, root = _axis_parts(h)
    if K < 1:
        raise InvalidInputError(f"K must be >= 1, got {K}")
    return _inverse(conjugator.letters), root.letters, _long_runs(g.letters, root.letters, K)


def find_long_projections(
    g: ReducedWord, h: ReducedWord, K: int
) -> list[LongProjectionWitness]:
    """All K-long positive projections of the geodesic [o, g.o] onto translates
    of h's axis.

    In the tree the projection diameter onto a translated axis equals the
    overlap of [o, g.o] with that line, and positively aligned overlaps are
    exactly the maximal runs of g reading core^infinity forward.
    """
    conjugator_inverse, root, runs = _checked_runs(g, h, K)
    return [
        _witness(g.alphabet, _run_k(g.letters, run, root, conjugator_inverse), run)
        for run in runs
    ]


def ghat_membership_exact(g: ReducedWord, h: ReducedWord, K: int) -> bool:
    """Whether no subsegment of [o, g.o] has a K-long positive h-projection.

    Subsegment witnesses are sub-runs of runs of the full geodesic, so this is
    simply whether g has no K-long run.
    """
    return not _checked_runs(g, h, K)[2]


def ghat_language(alphabet: Alphabet, h: ReducedWord, m: int) -> Language:
    """The words with no forward core^infinity run of length >= m.

    Forbidding every length-m factor of core^infinity (at most |root| distinct)
    realizes the restricted set exactly on the tree: acceptance coincides with
    ghat_membership_exact(., h, m).  h must be a word over alphabet and m at
    least |core|; both are checked before anything is built.
    """
    _check_same_alphabet(h, alphabet.identity)
    core, _, ray = _axis_parts(h)
    if m < len(core):
        raise InvalidInputError(f"m={m} below core length {len(core)}")
    n = len(ray)
    factors = {tuple(ray.letters[(s + i) % n] for i in range(m)) for s in range(n)}
    return Language(alphabet, [_word(alphabet, f) for f in sorted(factors)])


def walk_ghat_ball(
    alphabet: Alphabet,
    h: ReducedWord,
    K: int,
    g_max: int,
    outside: Callable[[ReducedWord], None],
) -> tuple[int, int]:
    """Count the reduced words of length <= g_max and those in Ghat(K);
    returns (words checked, words in Ghat(K)) and calls outside(g) on every
    other word, in lexicographic (not shortlex) order.

    The walk runs depth first through the automaton of ghat_language(alphabet,
    h, K), built at a smaller m when that accepts the same words of length
    <= g_max (_walk_ghat_letters).  Ghat(K) is closed under taking subwords,
    so a missing transition puts a word and its whole subtree outside, and
    that subtree is listed without lookups.
    At a word in Ghat(K) with r letters left, inside[r][state] counts the
    words of length <= r the automaton reads from its state (the DP of
    count_lengths) and free[r] all reduced words of length <= r after a
    letter.  When the two agree the subtree lies in Ghat(K) and is counted
    without being visited, so only the words outside and their prefixes are
    walked.  Only the current root-to-leaf path is held.
    """
    return _walk_ghat_letters(
        alphabet, h, K, g_max, lambda letters: outside(_word(alphabet, letters))
    )


def _walk_ghat_letters(
    alphabet: Alphabet,
    h: ReducedWord,
    K: int,
    g_max: int,
    outside: Callable[[tuple[int, ...]], None],
) -> tuple[int, int]:
    """walk_ghat_ball, calling outside on the letters of each word outside
    Ghat(K).

    No word of length <= g_max has a run of length >= g_max + 1, so every K
    past that and past |core| (ghat_language's least m) gives the same
    walk, and the automaton is built at the larger of the two instead of at
    K; a K below |core| still reaches ghat_language, which refuses it."""
    if g_max < 0:
        raise InvalidInputError(f"g_max must be >= 0, got {g_max}")
    aut = ghat_language(alphabet, h, min(K, max(g_max + 1, len(_axis_parts(h)[0])))).automaton
    step = aut.transitions
    letters = tuple(alphabet.letters)
    inside = [[1] * aut.n_states]
    free = [1]
    for _ in range(g_max):
        prev = inside[-1].__getitem__
        inside.append([1 + sum(map(prev, targets)) for targets in aut.succ])
        free.append(1 + (len(letters) - 1) * free[-1])
    path: list[int] = []
    checked = in_ghat = 1  # the identity

    def visit(state: int | None, rest: int) -> None:
        """The subtree of the non-empty word path, read to state, with rest
        letters left."""
        nonlocal checked, in_ghat
        if state is not None and inside[rest][state] == free[rest]:
            checked += free[rest]
            in_ghat += free[rest]
            return
        checked += 1
        if state is None:
            outside(tuple(path))
        else:
            in_ghat += 1
        if rest:
            back = path[-1] ^ 1
            for x in letters:
                if x != back:
                    path.append(x)
                    visit(None if state is None else step.get((state, x)), rest - 1)
                    path.pop()

    if g_max:
        for x in letters:
            path.append(x)
            visit(step.get((0, x)), g_max - 1)
            path.pop()
    return checked, in_ghat


def shorten_threshold(h: ReducedWord) -> int:
    """Smallest K accepted by shorten: 2 D' + 2 with D' = |core| + 2|conjugator|."""
    core, conjugator, _ = _axis_parts(h)
    return _threshold(core, conjugator)


@dataclass(frozen=True)
class ShortenResult:
    g_prime: ReducedWord
    k: ReducedWord
    witness: LongProjectionWitness


def _shortened(
    g: tuple[int, ...], root: tuple[int, ...], conjugator_inverse: tuple[int, ...],
    core_length: int, K: int,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, int, int]] | None:
    """(g' letters, k letters, run) of one shortening step on the letters g,
    or None when g has no K-long run: the per-word kernel of shorten and
    shorten_sweep, for a K the caller has checked."""
    runs = _long_runs(g, root, K)
    if not runs:
        return None
    # runs come in (start, phase) order and max keeps the first longest, so
    # ties go to the earliest start, then the lowest phase
    run = max(runs, key=itemgetter(2))
    start = run[0]
    return g[:start] + g[start + core_length:], _run_k(g, run, root, conjugator_inverse), run


def shorten(g: ReducedWord, h: ReducedWord, K: int) -> ShortenResult | None:
    """One shortening step: replace g by k h^-1 k^-1 g along the longest K-long
    positive projection; returns None (no-op) when g has none.

    With k = before back^-1 conjugator^-1 (_run_k), k h^-1 k^-1 is
    before back^-1 core^-1 back before^-1, and back^-1 core back is core read
    from the run's phase, which the run (longer than core, as K exceeds the
    threshold) reads from its start.  So the step deletes |core| letters at
    the run start; the letter after them repeats the one at the start, so
    the result is reduced and strictly shorter.  It stays in the coset g N
    for every normal N containing h.  This wraps the per-word kernel
    _shortened, which shorten_sweep calls directly: it checks g, h and K and
    builds the result's words and witness.
    """
    _check_same_alphabet(g, h)
    core, conjugator, root = _axis_parts(h)
    threshold = _threshold(core, conjugator)
    if K < threshold:
        raise InvalidInputError(f"K={K} below shortening threshold {threshold}")
    step = _shortened(g.letters, root.letters, _inverse(conjugator.letters), len(core), K)
    if step is None:
        return None
    g_prime, k, run = step
    witness = _witness(g.alphabet, k, run)
    return ShortenResult(g_prime=_word(g.alphabet, g_prime), k=witness.k, witness=witness)


def shorten_sweep(
    alphabet: Alphabet, h: ReducedWord, g_max: int, K: int | None = None, *, cutoff: int
) -> dict:
    """Exhaustive shortening check: every g with |g| <= g_max outside Ghat(K)
    must get strictly shorter, to k h^-1 k^-1 g.  K defaults to
    shorten_threshold(h) and may not lie below it.

    The ball is walked through the Ghat(K) automaton (_walk_ghat_letters), so
    only the letters of the words outside Ghat(K) reach the kernel
    _shortened, with h's parts read once.  checked counts the ball, in_ghat
    the words in Ghat(K), shortened the other words that passed; failures
    lists the rest in shortlex order.
    """
    _check_cutoff("g_max", g_max, cutoff)
    _check_same_alphabet(h, alphabet.identity)
    core, conjugator, root = _axis_parts(h)
    threshold = _threshold(core, conjugator)
    K = threshold if K is None else K
    if K < threshold:
        raise InvalidInputError(
            f"shorten_sweep K={K!r} below the shortening threshold {threshold} of h"
        )
    root = root.letters
    core_length = len(core)
    conjugator_inverse = _inverse(conjugator.letters)
    h_inverse = _inverse(h.letters)
    shortened = 0
    failures: list[tuple[int, ...]] = []

    def check(g: tuple[int, ...]) -> None:
        nonlocal shortened
        step = _shortened(g, root, conjugator_inverse, core_length, K)
        if step is not None:
            g_prime, k, _ = step
            # g' = k h^-1 k^-1 g, recomposed independently of the deletion
            if len(g_prime) < len(g) and g_prime == _reduce_concat(
                _reduce_concat(_reduce_concat(k, h_inverse), _inverse(k)), g
            ):
                shortened += 1
                return
        failures.append(g)

    checked, in_ghat = _walk_ghat_letters(alphabet, h, K, g_max, check)
    failures.sort(key=lambda g: (len(g), g))  # shortlex
    return {
        "g_max": g_max,
        "K": K,
        "checked": checked,
        "in_ghat": in_ghat,
        "shortened": shortened,
        "failures": [format_word(_word(alphabet, g)) for g in failures],
    }
