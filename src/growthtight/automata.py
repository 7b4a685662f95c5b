"""Deterministic counting automata over symmetric alphabets.

Counts are exact Python ints throughout (they pass 2**64 within a few dozen
radii).  count_lengths pushes them through the automaton step by step in
one DP loop; at a long radius the loop stops after the first 2n terms of an
n-state automaton and takes the rest from their integer linear recurrence
of order at most n, found modulo 2**61 - 1 (Berlekamp-Massey) and proved
over the integers (_linear_recurrence), or carries on when none is proved.
Spectral brackets come from the Collatz-Wielandt ratios of a float power
iterate, evaluated exactly in ints (a float is an int over a power of two),
not from an eigensolver; perron_roots finds the strongly connected
components on the successor table (Tarjan) and closes each by one rule: a
component whose rows all have the same length d, as a looped single state
or the free group's has, gets its exact root d without iterating, and the
others are bracketed in one batched iteration over a padded slot table,
with no weight matrix, each bit for bit as perron_root brackets it alone.

Language(alphabet, forbidden) is a language from build to report: it builds
its automaton on first use and gives its counts and bracket, each through
avoid_factors, count_lengths or perron_root by its module-global name.  With
once_each, equal languages (the free group of one rank, say) share them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, islice, zip_longest
from operator import add, mul, truediv
from typing import Sequence

from .errors import AlphabetMismatchError, InvalidInputError, ResourceLimitError
from .growth import NEG_INF, GrowthBracket
from .words import Alphabet, ReducedWord, _check_cutoff, enumerate_sphere, format_word

# avoid_sweep brackets its languages through perron_roots this many at a
# time: the batch shares one iteration, and memory stays bounded for any
# max_len.  The brackets do not depend on it.
SWEEP_BATCH = 256


@dataclass(frozen=True)
class CountSequence:
    """Exact per-length counts; counts[r] = number of accepted words of length r."""

    spheres: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.spheres)

    def __getitem__(self, r: int) -> int:
        return self.spheres[r]

    def __iter__(self):
        return iter(self.spheres)

    @classmethod
    def from_balls(cls, balls: Sequence[int]) -> "CountSequence":
        """The sphere counts whose running sums are the given ball counts."""
        return cls(tuple(b - a for a, b in zip([0, *balls], balls)))

    def balls(self) -> list[int]:
        return list(accumulate(self.spheres))

    def to_csv(self) -> str:
        rows = zip(self.spheres, self.balls())
        return "r,sphere,ball\n" + "".join(f"{r},{c},{b}\n" for r, (c, b) in enumerate(rows))


class CountingAutomaton:
    """Deterministic partial automaton of a factorial language (one closed
    under taking subwords); transitions[(state, letter)] = state.

    State 0 is initial and every state accepts: a word is accepted exactly
    when its walk from state 0 never misses a transition.  Every state is
    reachable from state 0, so every strongly connected component counts
    towards the growth.  The constructor checks this, and that every
    transition joins two of the n_states states by a letter of the alphabet;
    a breach is invalid input.

    The successor table that count_lengths, perron_roots and
    tree._walk_ghat_letters read is built once, with the transitions: succ[s]
    lists the target of each of s's transitions, one per letter, in
    increasing order, so a transfer-matrix weight M[s][t] > 1 is t repeated
    M[s][t] times and no weight is stored.  count_lengths pushes its exact
    counts along succ, which spares it a multiplication per edge;
    perron_roots finds its components on succ and cuts their successor
    lists from it.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        n_states: int,
        transitions: dict[tuple[int, int], int],
    ):
        if type(n_states) is not int or n_states < 1:
            raise InvalidInputError(f"n_states must be a positive integer, got {n_states!r}")
        states = range(n_states)
        succ: list[list[int]] = [[] for _ in states]
        for (s, x), t in transitions.items():
            if type(x) is not int or x not in alphabet.letters:
                raise InvalidInputError(
                    f"transition ({s!r}, {x!r}): {x!r} is not a letter of rank {alphabet.rank}"
                )
            if not (type(s) is int and s in states and type(t) is int and t in states):
                raise InvalidInputError(
                    f"transition ({s!r}, {x!r}) -> {t!r} leaves the states 0..{n_states - 1}"
                )
            succ[s].append(t)
        for targets in succ:
            targets.sort()
        seen = [True] + [False] * (n_states - 1)
        frontier = [0]
        while frontier:
            for t in succ[frontier.pop()]:
                if not seen[t]:
                    seen[t] = True
                    frontier.append(t)
        if not all(seen):
            raise InvalidInputError(f"state {seen.index(False)} is unreachable from state 0")
        self.alphabet, self.n_states, self.transitions = alphabet, n_states, dict(transitions)
        self.succ = succ

    def accepts(self, word: ReducedWord) -> bool:
        state = 0
        for x in word.letters:
            state = self.transitions.get((state, x))
            if state is None:
                return False
        return True


def avoid_factors(
    alphabet: Alphabet, forbidden: Sequence[ReducedWord]
) -> CountingAutomaton:
    """The reduced words over alphabet with no factor in forbidden; with
    nothing forbidden, the whole free group.

    A state is (last letter, longest suffix of the input that is a prefix of
    a forbidden word).  The suffixes are read off an Aho-Corasick table
    (Aho and Corasick 1975) over the integer trie of the forbidden words:
    node 0 is the empty prefix, children[node] maps a letter to the node one
    letter longer, goto[node][x] is the node of the longest suffix of
    node + x that is a prefix, and dead[node] says that some suffix of node
    is forbidden.  goto rows and fail links are filled breadth-first, so a
    transition is one lookup in a list.  States are numbered breadth-first
    from (None, root), so each is reachable, and a letter that cancels the
    last one, or completes a forbidden factor, has no transition.  The
    automaton is built without the constructor's checks; each state's
    successor list is sorted as its transitions are made.
    """
    for f in forbidden:
        if not f:
            raise InvalidInputError("forbidden factors must be non-empty")
        if f.alphabet != alphabet:
            raise AlphabetMismatchError(f"factor over rank {f.alphabet.rank}, not {alphabet.rank}")
    letters = alphabet.letters
    children: list[dict[int, int]] = [{}]
    dead = [False]
    for f in forbidden:
        node = 0
        for x in f.letters:
            child = children[node].get(x)
            if child is None:
                child = children[node][x] = len(children)
                children.append({})
                dead.append(False)
            node = child
        dead[node] = True
    # fail[node]: the node of the longest proper suffix of node that is a
    # prefix.  It is shorter than node, so its goto row is built first.
    fail = [0] * len(children)
    goto: list[list[int]] = [[]] * len(children)
    goto[0] = [children[0].get(x, 0) for x in letters]
    queue = list(children[0].values())
    for node in queue:
        link = goto[fail[node]]
        row = link.copy()
        for x, child in children[node].items():
            fail[child] = link[x]
            dead[child] = dead[child] or dead[link[x]]
            row[x] = child
            queue.append(child)
        goto[node] = row

    # state s is (lasts[s], nodes[s]); state_of[node * width + x] is the
    # state (x, node), or -1 before it is numbered
    width = len(letters)
    state_of = [-1] * (len(goto) * width)
    # the start state has no last letter; -2 ^ 1 = -1 is no letter to cancel
    lasts, nodes = [-2], [0]
    transitions: dict[tuple[int, int], int] = {}
    succ: list[list[int]] = []
    for s, node in enumerate(nodes):
        back = lasts[s] ^ 1
        row = goto[node]
        targets = []
        for x in letters:
            nxt = row[x]
            if x == back or dead[nxt]:
                continue
            key = nxt * width + x
            t = state_of[key]
            if t < 0:
                t = state_of[key] = len(nodes)
                nodes.append(nxt)
                lasts.append(x)
            transitions[(s, x)] = t
            targets.append(t)
        # the letters of a state lead to distinct states, so no edge is parallel
        targets.sort()
        succ.append(targets)
    aut = CountingAutomaton.__new__(CountingAutomaton)
    aut.alphabet, aut.n_states, aut.transitions, aut.succ = alphabet, len(nodes), transitions, succ
    return aut


def count_lengths(aut: CountingAutomaton, r_max: int) -> CountSequence:
    """Exact counts of accepted words of each length 0..r_max.

    v[s] counts the accepted words of the current length that end in state
    s; a step pushes v[s] along each of s's transitions, one entry of
    aut.succ[s] per letter, so parallel edges are added rather than
    multiplied and states with no words are skipped.  Counts are exact ints.

    At a long radius the DP stops once, after the first 2n counts (n states,
    e transitions), and asks _linear_recurrence for their verified integer
    recurrence of order L <= n; the rest follow from it, each term
    sum(map(mul, coefficients, window)) over the preceding ones, with
    trailing zero coefficients dropped first (the recurrence holds from
    index L on with them or without, and every term it gives has index
    >= 2n > L).  Should no recurrence verify, the DP continues.  A DP step
    costs about e + n operations (an addition per edge, a visit per state),
    a recurrence term at most 2n (a small-int multiple and an addition per
    coefficient), so each term past 2n saves at least e - n; finding and
    checking the recurrence costs a few n^2.  It is sought when
    (r_max - 2n)(e - n) exceeds 24 n^2.  On CPython 3.11 (x86-64), over
    avoid and Ghat automata of 3-40 states, the two ways crossed below
    20 n^2, so the DP runs wherever it is as fast.  Both give the same
    counts.
    """
    if r_max < 0:
        raise InvalidInputError(f"r_max must be >= 0, got {r_max}")
    n = aut.n_states
    # the radius at which the DP stops to seek a recurrence; none when short
    seek = 2 * n if (r_max - 2 * n) * (len(aut.transitions) - n) > 24 * n * n else 0
    succ = aut.succ
    v = [0] * n
    v[0] = 1
    counts = [1]
    for r in range(1, r_max + 1):
        if r == seek and (coeffs := _linear_recurrence(counts, n)) is not None:
            while coeffs and not coeffs[-1]:
                coeffs.pop()
            # window[i] multiplies the term i + 1 places back; with no
            # coefficient left the slice is empty (not counts[-0:]) and
            # every term is 0
            order = len(coeffs)
            window = coeffs[::-1]
            for k in range(r, r_max + 1):
                counts.append(sum(map(mul, window, counts[k - order:])))
            break
        nxt = [0] * n
        for vs, targets in zip(v, succ):
            if vs:
                for t in targets:
                    nxt[t] += vs
        v = nxt
        counts.append(sum(v))
    return CountSequence(tuple(counts))


# _linear_recurrence finds a recurrence modulo this prime (2**61 - 1), then
# proves its lift over the integers
_MODULUS = 2**61 - 1


def _linear_recurrence(counts: Sequence[int], n: int) -> list[int] | None:
    """Integers c_0..c_{L-1} with counts[k] = sum_i c_i counts[k-1-i] for
    every k >= L, read off the first 2n sphere counts of an n-state
    automaton; None when the candidate fails its check.

    The transfer matrix M is n x n, so by Cayley-Hamilton the counts
    a_k = e_0 M^k 1 satisfy a monic integer recurrence of order n.  The
    candidate is the shortest recurrence of the counts modulo _MODULUS
    (Berlekamp-Massey, Massey 1969; L <= n, since the order-n one holds
    modulo any prime too), its coefficients lifted to the symmetric
    residues.  It is then checked over Z on terms L..n-1+L, all among the
    2n given.  That check is a proof: b_k = a_{k+L} - sum_i c_i a_{k+L-1-i}
    is a combination of shifts of a, so it satisfies the same order-n
    recurrence, and n zeros in a row make it zero for ever.  A modulus too
    small for the true coefficients, or one that divides a discrepancy,
    fails the check and gives None.
    """
    p = _MODULUS
    seq = [a % p for a in counts[:2 * n]]
    # Berlekamp-Massey: seq[k] + sum_j conn[j] seq[k-j] = 0 (mod p) for
    # every k >= L, with conn[0] = 1 and len(conn) = L + 1
    conn, prev = [1], [1]
    order, shift, last = 0, 1, 1
    for i, s in enumerate(seq):
        d = sum(map(mul, conn, seq[i::-1])) % p
        if not d:
            shift += 1
            continue
        coef = d * pow(last, -1, p) % p
        new = conn + [0] * (len(prev) + shift - len(conn))
        for j, b in enumerate(prev, shift):
            new[j] = (new[j] - coef * b) % p
        if 2 * order <= i:
            order, prev, last, shift = i + 1 - order, conn, d, 1
        else:
            shift += 1
        # conn keeps order + 1 entries; its degree is at most order, so
        # the dropped ones are zeros
        conn = new[:order + 1] + [0] * (order + 1 - len(new))
    # c_i = -conn[i + 1], lifted to the residue of least absolute value
    coeffs = [-c % p for c in conn[1:]]
    coeffs = [c - p if c > p // 2 else c for c in coeffs]
    window = coeffs[::-1]
    for k in range(order, n + order):
        if counts[k] != sum(map(mul, window, counts[k - order:k])):
            return None
    return coeffs


def _strongly_connected_components(n: int, succ: list[list[int]]) -> list[list[int]]:
    """Tarjan (1972) with an iterative DFS, no predecessor lists: each
    component in increasing order, listed after every component it reaches.
    index[s] is -1 until s is found, then its place on the stack (where the
    states lie in the order found), and n once its component is out.  A
    search keeps the least index it reaches (least); one that ends at its
    own (at) roots a component, the stack from at up.  frames hold the
    searches a deeper one interrupted."""
    index = [-1] * n
    stack: list[int] = []
    components = []
    for start in range(n):
        if index[start] >= 0:
            continue
        index[start] = at = least = 0
        stack.append(start)
        targets, frames = iter(succ[start]), []
        while True:
            for t in targets:
                found = index[t]
                if found < 0:
                    frames.append((targets, at, least))
                    index[t] = at = least = len(stack)
                    stack.append(t)
                    targets = iter(succ[t])
                    break
                if found < least:
                    least = found
            else:
                if least == at:
                    comp = stack[at:]
                    del stack[at:]
                    for s in comp:
                        index[s] = n
                    comp.sort()
                    components.append(comp)
                if not frames:
                    break
                reached = least
                targets, at, least = frames.pop()
                if reached < least:
                    least = reached
    return components


def _ellpack(succ: list[list[int]]) -> list[tuple[int, ...]]:
    """The successor lists of a matrix in an ELLPACK layout: slot k holds
    the k-th successor cols[k][i] of every row i, successors in increasing
    order, and a short row is padded at the end with column n = len(succ),
    one past the rows, which the kernels read as an entry 0 of the vector.
    Rows of several matrices share one layout, and its one zero column, when
    their successor lists are offset and joined."""
    return list(zip_longest(*succ, fillvalue=len(succ)))


def _ratio_bounds(cols: list[tuple[int, ...]], x: list[float]) -> tuple[float, float]:
    """Floats lo <= min_i (MX)_i / X_i and hi >= max_i (MX)_i / X_i, with M
    in the ELLPACK layout of _ellpack and X the exact value of the float
    vector x, so [lo, hi] contains the Perron root of M when M is
    irreducible and X is positive (Collatz-Wielandt).

    Every float is an int over a power of two, so X is kept as the ints of
    x times its largest denominator; a zero entry becomes 1, which keeps X
    positive.  MX is summed slot by slot in ints, the pads reading the 0
    that extends X.  Int true division is correctly rounded and monotone, so
    the least and greatest float ratio are the exact extremes rounded to
    nearest; only the rows that tie one are cross-multiplied against it, to
    decide whether it steps outward by one ulp.  A ratio past the float
    range gives the bounds [0, inf].
    """
    pairs = [v.as_integer_ratio() for v in x]
    den = max(q for _, q in pairs)
    xs = [p * (den // q) or 1 for p, q in pairs]
    read = [*xs, 0].__getitem__
    ys = [0] * len(xs)
    for c in cols:
        ys = list(map(add, ys, map(read, c)))
    try:
        ratios = list(map(truediv, ys, xs))
    except OverflowError:
        return 0.0, math.inf
    lo, hi = min(ratios), max(ratios)
    p, q = lo.as_integer_ratio()
    if any(y * q < p * v for y, v, r in zip(ys, xs, ratios) if r == lo):
        lo = math.nextafter(lo, -math.inf)
    p, q = hi.as_integer_ratio()
    if any(y * q > p * v for y, v, r in zip(ys, xs, ratios) if r == hi):
        hi = math.nextafter(hi, math.inf)
    return lo, hi


def _collatz_wielandt(
    blocks: list[list[list[int]]], tol: float, max_iter: int
) -> list[tuple[float, float]]:
    """Rigorous two-sided bounds on the Perron root of each of a list of
    irreducible non-negative integer matrices M, each given by successor
    lists: succ[i] lists each j with M[i][j] > 0, M[i][j] times, in
    increasing order.

    Iterates x -> (M + I)x in floats for speed; the +I shift makes the
    iteration aperiodic so the gap actually closes.  The returned bounds are
    the Collatz-Wielandt ratios of the float iterate itself, evaluated
    exactly by _ratio_bounds.  A pass costs O(edges).

    The float pass gathers x, extended by a trailing 0.0 for the pads, over
    the ELLPACK layout of _ellpack, and one reduction over the slots
    (np.add.reduce, axis 0) sums each row slot by slot before x[i] is
    added: the order of a plain left-to-right row scan x[i] + (x[j] summed
    over succ[i]), a pad adding an exact 0.0.  So every float, stopping
    decision and bound is the one that uncompensated scan gives (the
    built-in sum() of floats is compensated from Python 3.12 on).

    The blocks are iterated together in one layout, each block's columns
    offset by its first row and every pad on the one zero column after the
    rows.  Per-block reductions (np.maximum.reduceat and
    np.minimum.reduceat) give each block's normaliser and ratio spread; a
    block whose ratios agree to tol / 4, and every block at each 512th
    iteration, gets _ratio_bounds on its own slice, and a block whose bounds
    close leaves the layout (the zero column stays last).  So each block's
    floats, stopping iteration and bounds are bit for bit those of a run on
    that block alone; with one block left the loop reduces the whole iterate
    as such a run does.  Raises ResourceLimitError when a block is still
    open after max_iter.
    """
    if not blocks:
        return []
    import numpy as np

    local = list(map(_ellpack, blocks))
    sizes = list(map(len, blocks))
    firsts = list(accumulate(sizes[:-1], initial=0))
    cols = local[0] if len(blocks) == 1 else _ellpack(
        [[j + first for j in targets] for succ, first in zip(blocks, firsts) for targets in succ]
    )
    slot_cols = np.array(cols, dtype=np.intp)
    x = np.append(np.ones(sum(sizes)), 0.0)
    head = x[:-1]  # the iterate; x[-1] is the pads' 0.0
    # the open blocks in layout order, with their row counts and first rows
    live, spans = list(range(len(blocks))), sizes
    bounds: list = [None] * len(blocks)
    for it in range(1, max_iter + 1):
        y = head + np.add.reduce(x.take(slot_cols), axis=0)
        ratios = y / head
        if len(live) == 1:
            np.divide(y, np.maximum.reduce(y), out=head)
            if not (np.maximum.reduce(ratios) - np.minimum.reduce(ratios) <= tol * 0.25 or it % 512 == 0):
                continue
            due = (0,)
        else:
            np.divide(y, np.repeat(np.maximum.reduceat(y, firsts), spans), out=head)
            if it % 512 == 0:
                due = range(len(live))
            else:
                spread = np.maximum.reduceat(ratios, firsts) - np.minimum.reduceat(ratios, firsts)
                due = np.flatnonzero(spread <= tol * 0.25).tolist()
        closed = []
        for i in due:
            lo, hi = _ratio_bounds(local[live[i]], head[firsts[i]:firsts[i] + spans[i]].tolist())
            if hi - lo <= tol:
                bounds[live[i]] = (lo, hi)
                closed.append(i)
        if len(closed) == len(live):
            return bounds
        if closed:
            keep_block = np.ones(len(live), dtype=bool)
            keep_block[closed] = False
            keep = np.append(np.repeat(keep_block, spans), True)
            live = [b for b, k in zip(live, keep_block.tolist()) if k]
            spans = [sizes[b] for b in live]
            firsts = list(accumulate(spans[:-1], initial=0))
            width = max(len(local[b]) for b in live)
            slot_cols = (np.cumsum(keep) - 1)[slot_cols[:width, keep[:-1]]]
            x = x[keep]
            head = x[:-1]
    raise ResourceLimitError(
        f"Perron bounds did not reach width {tol} in {max_iter} iterations"
    )


def perron_roots(
    automata: Sequence[CountingAutomaton], tol: float = 1e-9, max_iter: int = 200_000
) -> list[GrowthBracket]:
    """Brackets for log of the Perron root of each automaton's transfer
    matrix, in order.

    The spectral radius of a block-triangular non-negative matrix is the max
    over its strongly connected components, each of which is irreducible, so
    Collatz-Wielandt bounds per component are combined by max.  No matrix
    is built, dense or weighted: Tarjan's algorithm finds the components on
    aut.succ, the sorted successor table the automaton was built with, and
    each component's successor lists are cut from it through one position
    array; their increasing order fixes the order of every float sum.
    Every state is reachable from state 0 and accepts, so every component
    counts.

    One rule closes every component.  A single state with no loop has no
    cycle and is skipped, so a cycle-free automaton gets the -inf sentinel.
    A regular component, one whose rows in the component all have the same
    length d (parallel edges counted), has Perron root exactly d and gets
    the bounds (d, d) without iterating: a single state with d loops, or
    the free group's component with d = 2k - 1.  They are the kernel's own
    at its first iteration: from x = ones every ratio is d, and
    _ratio_bounds returns (d, d), which closes for every tol; so every
    bracket is the one the kernel gives.  Every other component, and with
    max_iter < 1 every component (the kernel then raises
    ResourceLimitError), is bracketed in one batched iteration over all
    the automata (_collatz_wielandt), which gives each the bounds it gets
    alone.
    """
    if not tol >= 1e-13:  # a nan tol is refused too
        raise InvalidInputError(f"tol {tol} below float resolution")
    found: list[list[tuple[float, float]]] = [[] for _ in automata]
    blocks, owners = [], []
    for a, aut in enumerate(automata):
        succ = aut.succ
        # pos[s]: s's place in the components listed so far, end to end; a
        # successor outside comp lies in an earlier one, below comp's first
        pos, first = [0] * aut.n_states, 0
        for comp in _strongly_connected_components(aut.n_states, succ):
            for j, s in enumerate(comp, first):
                pos[s] = j
            rows = [[pos[t] - first for t in succ[s] if pos[t] >= first] for s in comp]
            first += len(comp)
            degree = len(rows[0])
            if not degree:
                continue  # one state with no loop: no cycle
            if max_iter >= 1 and all(len(row) == degree for row in rows):
                found[a].append((float(degree),) * 2)
            else:
                blocks.append(rows)
                owners.append(a)
    for a, bounds in zip(owners, _collatz_wielandt(blocks, tol, max_iter)):
        found[a].append(bounds)
    brackets = []
    for pairs in found:
        if not pairs:
            brackets.append(GrowthBracket(NEG_INF, NEG_INF, "spectral", regime="limit"))
            continue
        lows, highs = zip(*pairs)
        lo, hi = max(lows), max(highs)
        lower = math.nextafter(math.nextafter(math.log(lo), -math.inf), -math.inf)
        upper = math.nextafter(math.nextafter(math.log(hi), math.inf), math.inf)
        brackets.append(GrowthBracket(lower, upper, "spectral", regime="limit"))
    return brackets


def perron_root(aut: CountingAutomaton, tol: float = 1e-9, max_iter: int = 200_000) -> GrowthBracket:
    """Bracket for log of the Perron root of the transfer matrix:
    perron_roots([aut], tol, max_iter)[0].  Callers with many automata may
    bracket them in batches through perron_roots; the results are identical
    bit for bit."""
    return perron_roots([aut], tol, max_iter)[0]


@dataclass(frozen=True)
class Language:
    """The reduced words over alphabet with no factor in forbidden; with
    nothing forbidden, the free group.  The automaton is built on first use
    and kept; equal records are the same language."""

    alphabet: Alphabet
    forbidden: tuple[ReducedWord, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "forbidden", tuple(self.forbidden))

    @cached_property
    def automaton(self) -> CountingAutomaton:
        return avoid_factors(self.alphabet, self.forbidden)

    def counts(self, r_max: int) -> CountSequence:
        return count_lengths(self.automaton, r_max)

    def bracket(self, tol: float = 1e-9) -> GrowthBracket:
        return perron_root(self.automaton, tol)


def once_each(languages: Sequence[Language], method, *args) -> list:
    """method(language, *args) for each of languages, in order, called once
    per distinct record, on the first of the equal ones, so that equal
    languages share its automaton too."""
    found = {lang: method(lang, *args) for lang in dict.fromkeys(languages)}
    return [found[lang] for lang in languages]


def avoid_sweep(
    alphabet: Alphabet, max_len: int, margin: float, tol: float, *, cutoff: int
) -> dict:
    """The language that avoids f, for each non-trivial f with |f| <= max_len,
    bracketed in batches of SWEEP_BATCH; an entry's margin is how far its
    upper end lies more than margin below the full exponent log(2 rank - 1)."""
    if max_len == 0:
        raise InvalidInputError("sweep max_len must be at least 1: no factor has length 0")
    _check_cutoff("max_len", max_len, cutoff)
    full = math.log(2 * alphabet.rank - 1)
    factors = (
        f for length in range(1, max_len + 1)
        for f in enumerate_sphere(alphabet, length, cutoff=cutoff)
    )
    entries = []
    while batch := list(islice(factors, SWEEP_BATCH)):
        languages = [Language(alphabet, (f,)).automaton for f in batch]
        for f, bracket in zip(batch, perron_roots(languages, tol)):
            entries.append({
                "f": format_word(f),
                "upper": bracket.upper,
                "margin": full - margin - bracket.upper,
            })
    return {
        "rank": alphabet.rank,
        "max_len": max_len,
        "margin_threshold": margin,
        "full_exponent": full,
        "languages": len(entries),
        "worst": min(entries, key=lambda e: e["margin"]),
        "all_strictly_below": all(e["margin"] > 0 for e in entries),
        "entries": entries,
    }
