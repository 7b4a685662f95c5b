"""Deterministic counting automata over symmetric alphabets.

Counts are exact Python ints throughout (they pass 2**64 within a few dozen
radii).  Spectral brackets come from the Collatz-Wielandt ratios of a float
power iterate, evaluated exactly in ints (a float is an int over a power of
two), not from an eigensolver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul, truediv
from typing import Sequence

from .errors import InvalidInputError, ResourceLimitError
from .growth import NEG_INF, GrowthBracket
from .words import Alphabet, ReducedWord


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
        out = []
        total = 0
        for c in self.spheres:
            total += c
            out.append(total)
        return out

    def to_csv(self) -> str:
        lines = ["r,sphere,ball"]
        total = 0
        for r, c in enumerate(self.spheres):
            total += c
            lines.append(f"{r},{c},{total}")
        return "\n".join(lines) + "\n"


class CountingAutomaton:
    """Deterministic partial automaton of a factorial language (one closed
    under taking subwords); transitions[(state, letter)] = state.

    State 0 is initial and every state accepts: a word is accepted exactly
    when its walk from state 0 never misses a transition.  States are
    numbered breadth-first from state 0, so every state t > 0 is first
    entered from a state s < t and none is unreachable.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        n_states: int,
        transitions: dict[tuple[int, int], int],
    ):
        self.alphabet = alphabet
        self.n_states = n_states
        self.transitions = dict(transitions)

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
    (Aho and Corasick 1975) whose nodes are the prefixes of the forbidden
    words, numbered by length from the root (): goto[node][x] is the node of
    the longest suffix of node + x that is a prefix, and dead[node] says
    that some suffix of node is forbidden.  The table has one row per
    prefix, and a transition is one lookup in it.  States are numbered
    breadth-first from (None, ()), and a letter that cancels the last one,
    or completes a forbidden factor, has no transition.
    """
    for f in forbidden:
        if not f:
            raise InvalidInputError("forbidden factors must be non-empty")
        if f.alphabet != alphabet:
            raise InvalidInputError("forbidden factor over a different alphabet")
    bad = {f.letters for f in forbidden}
    nodes = sorted({()} | {f[:i] for f in bad for i in range(1, len(f) + 1)}, key=len)
    node_id = {p: i for i, p in enumerate(nodes)}
    dead = [p in bad for p in nodes]
    # fail[i]: the node of the longest proper suffix of node i that is a
    # prefix.  It is shorter than node i, so its goto row is built first.
    fail = [0] * len(nodes)
    goto: list[list[int]] = []
    for i, p in enumerate(nodes):
        row = []
        for x in alphabet.letters:
            link = goto[fail[i]][x] if i else 0
            child = node_id.get(p + (x,))
            if child is None:
                row.append(link)
            else:
                fail[child] = link
                dead[child] = dead[child] or dead[link]
                row.append(child)
        goto.append(row)

    index: dict[tuple, int] = {(None, 0): 0}
    queue = [(None, 0)]
    transitions: dict[tuple[int, int], int] = {}
    for s, (last, node) in enumerate(queue):
        back = None if last is None else last ^ 1
        row = goto[node]
        for x in alphabet.letters:
            nxt = row[x]
            if x == back or dead[nxt]:
                continue
            target = (x, nxt)
            t = index.get(target)
            if t is None:
                t = index[target] = len(index)
                queue.append(target)
            transitions[(s, x)] = t
    return CountingAutomaton(alphabet, len(index), transitions)


def _edge_weights(aut: CountingAutomaton) -> dict[tuple[int, int], int]:
    """Transfer-matrix entries as {(s, t): number of letters from s to t}."""
    weights: dict[tuple[int, int], int] = {}
    for (s, _), t in aut.transitions.items():
        weights[(s, t)] = weights.get((s, t), 0) + 1
    return weights


def count_lengths(aut: CountingAutomaton, r_max: int) -> CountSequence:
    """Exact counts of accepted words of each length 0..r_max.

    v[s] counts the accepted words of the current length that end in state
    s; a step pushes v[s] along each of s's transitions, one successor entry
    per letter, so parallel edges are added rather than multiplied and
    states with no words are skipped.  Counts are exact ints.
    """
    if r_max < 0:
        raise InvalidInputError(f"r_max must be >= 0, got {r_max}")
    succ: list[list[int]] = [[] for _ in range(aut.n_states)]
    for (s, _), t in aut.transitions.items():
        succ[s].append(t)
    v = [0] * aut.n_states
    v[0] = 1
    counts = [1]
    for _ in range(r_max):
        nxt = [0] * aut.n_states
        for vs, targets in zip(v, succ):
            if vs:
                for t in targets:
                    nxt[t] += vs
        v = nxt
        counts.append(sum(v))
    return CountSequence(tuple(counts))


def _strongly_connected_components(n: int, succ: list[list[int]]) -> list[list[int]]:
    """Kosaraju with iterative DFS."""
    seen = [False] * n
    order: list[int] = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [(start, 0)]
        seen[start] = True
        while stack:
            node, i = stack[-1]
            if i < len(succ[node]):
                stack[-1] = (node, i + 1)
                t = succ[node][i]
                if not seen[t]:
                    seen[t] = True
                    stack.append((t, 0))
            else:
                order.append(node)
                stack.pop()
    pred: list[list[int]] = [[] for _ in range(n)]
    for s in range(n):
        for t in succ[s]:
            pred[t].append(s)
    assigned = [False] * n
    components = []
    for node in reversed(order):
        if assigned[node]:
            continue
        comp = [node]
        assigned[node] = True
        frontier = [node]
        while frontier:
            u = frontier.pop()
            for w in pred[u]:
                if not assigned[w]:
                    assigned[w] = True
                    comp.append(w)
                    frontier.append(w)
        components.append(sorted(comp))
    return components


def _ellpack(rows: list[list[tuple[int, int]]]) -> tuple[list[list[int]], list[list[int]]]:
    """The sparse rows in an ELLPACK layout (cols, wts): slot k holds the
    k-th entry (column cols[k][i], weight wts[k][i]) of every row i, rows in
    increasing column order, short rows padded at the end with column 0 and
    weight 0."""
    n = len(rows)
    width = max(len(row) for row in rows)
    cols = [[0] * n for _ in range(width)]
    wts = [[0] * n for _ in range(width)]
    for i, row in enumerate(rows):
        for k, (j, w) in enumerate(row):
            cols[k][i] = j
            wts[k][i] = w
    return cols, wts


def _ratio_bounds(
    cols: list[list[int]], wts: list[list[int]], x: list[float]
) -> tuple[float, float]:
    """Floats lo <= min_i (MX)_i / X_i and hi >= max_i (MX)_i / X_i, with M
    in the ELLPACK layout of _ellpack and X the exact value of the float
    vector x, so [lo, hi] contains the Perron root of M when M is
    irreducible and X is positive (Collatz-Wielandt).

    Every float is an int over a power of two, so X is kept as the ints of
    x times its largest denominator; a zero entry becomes 1, which keeps X
    positive.  MX is summed slot by slot in ints.  Int true division is
    correctly rounded and monotone, so the least and greatest float ratio
    are the exact extremes rounded to nearest; only the rows that tie one
    are cross-multiplied against it, to decide whether it steps outward by
    one ulp.  A ratio past the float range gives the bounds [0, inf].
    """
    pairs = [v.as_integer_ratio() for v in x]
    den = max(q for _, q in pairs)
    xs = [p * (den // q) or 1 for p, q in pairs]
    ys = [0] * len(xs)
    for c, w in zip(cols, wts):
        ys = list(map(add, ys, map(mul, w, map(xs.__getitem__, c))))
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
    rows: list[list[tuple[int, int]]], tol: float, max_iter: int
) -> tuple[float, float]:
    """Rigorous two-sided bounds on the Perron root of an irreducible
    non-negative integer matrix M given by sparse rows: rows[i] lists the
    (j, M[i][j]) with M[i][j] > 0 in increasing j.

    Iterates x -> (M + I)x in floats for speed; the +I shift makes the
    iteration aperiodic so the gap actually closes.  The returned bounds are
    the Collatz-Wielandt ratios of the float iterate itself, evaluated
    exactly by _ratio_bounds.  A pass costs O(edges).

    The float pass is vectorised over the ELLPACK layout of _ellpack.  Each
    row sum is accumulated slot by slot and only then added to x[i], which
    is the order of a plain left-to-right row scan x[i] + (M[i][j] x[j]
    summed over increasing j); a padded term adds an exact 0.0.  So every
    float, stopping decision and bound is the one that uncompensated scan
    gives (the built-in sum() of floats is compensated from Python 3.12 on).
    """
    import numpy as np

    cols, wts = _ellpack(rows)
    slot_cols = np.array(cols, dtype=np.intp)
    slot_wts = np.array(wts, dtype=float)
    x = np.ones(len(rows))
    for it in range(1, max_iter + 1):
        terms = slot_wts * x[slot_cols]
        acc = terms[0]
        for k in range(1, len(cols)):
            acc += terms[k]
        y = x + acc
        ratios = y / x
        x = y / y.max()
        if ratios.max() - ratios.min() <= tol * 0.25 or it % 512 == 0:
            lo, hi = _ratio_bounds(cols, wts, x.tolist())
            if hi - lo <= tol:
                return lo, hi
    raise ResourceLimitError(
        f"Perron bounds did not reach width {tol} in {max_iter} iterations"
    )


def perron_root(aut: CountingAutomaton, tol: float = 1e-9, max_iter: int = 200_000) -> GrowthBracket:
    """Bracket for log of the Perron root of the transfer matrix.

    The spectral radius of a block-triangular non-negative matrix is the max
    over its strongly connected components, each of which is irreducible, so
    Collatz-Wielandt bounds per component are combined by max.  A cycle-free
    automaton gets the -inf sentinel.  The matrix is never built densely:
    each component gets sparse rows of aggregated edge weights.  Every state
    is reachable from state 0 and accepts, so every component counts.
    """
    if tol < 1e-13:
        raise InvalidInputError(f"tol {tol} below float resolution")
    weights = _edge_weights(aut)
    n = aut.n_states
    succ: list[list[int]] = [[] for _ in range(n)]
    for s, t in sorted(weights):
        succ[s].append(t)
    lo_best = hi_best = None
    for comp in _strongly_connected_components(n, succ):
        if len(comp) == 1:
            s = comp[0]
            if (s, s) not in weights:
                continue
            lo = hi = float(weights[(s, s)])
        else:
            local = {s: j for j, s in enumerate(comp)}
            rows = [
                [(local[t], weights[(s, t)]) for t in succ[s] if t in local]
                for s in comp
            ]
            lo, hi = _collatz_wielandt(rows, tol, max_iter)
        if hi_best is None or hi > hi_best:
            hi_best = hi
        if lo_best is None or lo > lo_best:
            lo_best = lo
    if hi_best is None:
        return GrowthBracket(NEG_INF, NEG_INF, "spectral", regime="limit")
    lower = math.nextafter(math.nextafter(math.log(lo_best), -math.inf), -math.inf)
    upper = math.nextafter(math.nextafter(math.log(hi_best), math.inf), math.inf)
    return GrowthBracket(lower, upper, "spectral", regime="limit")


def oriented_vs_unoriented_gap(
    alphabet: Alphabet, f: ReducedWord
) -> tuple[GrowthBracket, GrowthBracket]:
    """Spectral brackets for avoiding f alone versus avoiding {f, f^-1}."""
    if not f:
        raise InvalidInputError("factor must be non-trivial")
    oriented = perron_root(avoid_factors(alphabet, [f]))
    unoriented = perron_root(avoid_factors(alphabet, [f, ~f]))
    return oriented, unoriented
