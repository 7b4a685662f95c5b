"""Independent brute-force reference implementations for the test suite.

Everything here works on plain char strings (lowercase = generator,
uppercase = its inverse, so "aBa" means a b^-1 a) and deliberately avoids
importing the package under test.  Expected values in the tests are frozen
from these oracles, not from the library.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

ORDER = "aAbBcCdD"  # total order on letters; index = canonical letter id


def inv(ch: str) -> str:
    return ch.swapcase()


def invert(word: str) -> str:
    return "".join(inv(c) for c in reversed(word))


def reduce_scan(text: str) -> str:
    """Repeated-scan free reduction; quadratic but obviously correct."""
    word = text
    while True:
        for i in range(len(word) - 1):
            if word[i] == inv(word[i + 1]):
                word = word[:i] + word[i + 2 :]
                break
        else:
            return word


def mult(u: str, v: str) -> str:
    return reduce_scan(u + v)


def letters(rank: int) -> str:
    return ORDER[: 2 * rank]


def lex_key(word: str) -> tuple[int, ...]:
    return tuple(ORDER.index(c) for c in word)


def shortlex_key(word: str) -> tuple:
    return (len(word), lex_key(word))


def words_by_radius(rank: int, r_max: int) -> list[list[str]]:
    """spheres[r] = all reduced words of length r, in shortlex order."""
    alpha = letters(rank)
    spheres = [[""]]
    for _ in range(r_max):
        nxt = []
        for w in spheres[-1]:
            for c in alpha:
                if not w or c != inv(w[-1]):
                    nxt.append(w + c)
        spheres.append(nxt)
    return spheres


def sphere_size(rank: int, r: int) -> int:
    if r == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (r - 1)


def count_spheres_by_last_letter(rank: int, r_max: int) -> list[int]:
    """Sphere sizes via the last-letter extension recurrence (exact ints)."""
    alpha = letters(rank)
    counts = [1]
    by_last = {c: 1 for c in alpha}
    for _ in range(r_max):
        counts.append(sum(by_last.values()))
        by_last = {
            c: sum(v for last, v in by_last.items() if last != inv(c))
            for c in alpha
        }
    return counts


def ball_sizes(rank: int, r_max: int) -> list[int]:
    balls = []
    total = 0
    for r in range(r_max + 1):
        total += sphere_size(rank, r)
        balls.append(total)
    return balls


def avoid_sphere_counts(rank: int, forbidden: list[str], r_max: int) -> list[int]:
    """Counts of reduced words containing none of the forbidden substrings."""
    counts = []
    for sphere in words_by_radius(rank, r_max):
        counts.append(sum(1 for w in sphere if not any(f in w for f in forbidden)))
    return counts


def exp_vector(word: str, rank: int) -> tuple[int, ...]:
    vec = [0] * rank
    for c in word:
        idx = ORDER.index(c) // 2
        vec[idx] += -1 if c.isupper() else 1
    return tuple(vec)


def tree_dist(u: str, v: str) -> int:
    return len(mult(invert(u), v))


def cyclic_peel(word: str) -> tuple[str, str]:
    """Return (core, conjugator) with word = conj * core * conj^-1."""
    core, conj = word, ""
    while len(core) >= 2 and core[0] == inv(core[-1]):
        conj += core[0]
        core = core[1:-1]
    return core, conj


def prim_root(word: str) -> tuple[str, int]:
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d], n // d
    raise AssertionError("unreachable")


def axis_vertex(h: str, coord: int, translate: str = "") -> str:
    """Vertex at signed arc-length coord along the axis of h (through o),
    moved by the translate."""
    core, conj = cyclic_peel(h)
    root, _ = prim_root(core)
    if coord >= 0:
        ray = root
        t = coord
    else:
        ray = invert(root)
        t = -coord
    reps = ray * (t // len(ray) + 1)
    return mult(translate, conj + reps[:t])


def brute_project(x: str, h: str, pad: int = 4, translate: str = "") -> tuple[int, int]:
    """(axis coordinate, distance) of the nearest vertex to x on the axis of
    h moved by the translate."""
    window = len(x) + len(h) + len(translate) + pad
    best = None
    for coord in range(-window, window + 1):
        d = tree_dist(x, axis_vertex(h, coord, translate))
        if best is None or d < best[1]:
            best = (coord, d)
    return best


def axis_overlap(
    source: str, source_translate: str, target: str, target_translate: str
) -> tuple[int, int] | None:
    """(min, max) target coordinate of the projections of the source axis'
    vertices, or None when the two axes are the same line.

    Only source coordinates within distance + |root_s| + |root_t| + 4 of its
    origin are projected: two lines that share a longer segment are one line
    (Fine-Wilf), and past the shared segment the feet no longer move.
    """
    roots = [prim_root(cyclic_peel(h)[0])[0] for h in (source, target)]
    origin = axis_vertex(source, 0, source_translate)
    _, distance = brute_project(origin, target, translate=target_translate)
    window = distance + len(roots[0]) + len(roots[1]) + 4
    feet = [
        brute_project(
            axis_vertex(source, j, source_translate), target, translate=target_translate
        )
        for j in range(-window, window + 1)
    ]
    if all(d == 0 for _, d in feet):
        return None
    coords = [c for c, _ in feet]
    return min(coords), max(coords)


def maximal_pos_runs(g: str, root: str) -> list[tuple[int, int, int]]:
    """Maximal forward substrings of g reading root^inf: (start, length, phase).

    Assumes roots whose factors have a forced phase (single letter, or all
    letters distinct) so maximal runs never overlap.
    """
    n = len(root)
    runs = []
    i = 0
    while i < len(g):
        best = None
        for phase in range(n):
            if g[i] != root[phase]:
                continue
            t = 0
            while i + t < len(g) and g[i + t] == root[(phase + t) % n]:
                t += 1
            if best is None or t > best[0]:
                best = (t, phase)
        if best is None:
            i += 1
        else:
            runs.append((i, best[0], best[1]))
            i += best[0]
    return runs


def diagonal_runs(g: str, root: str) -> list[tuple[int, int, int]]:
    """Maximal forward matches of g against root^inf, for any root, as sorted
    (start, phase, length): for each offset d, the maximal intervals of i
    with g[i] == root[(i + d) mod n]; a run starting at i has phase (i + d) mod n."""
    n = len(root)
    runs = []
    for d in range(n):
        i = 0
        while i < len(g):
            j = i
            while j < len(g) and g[j] == root[(j + d) % n]:
                j += 1
            if j > i:
                runs.append((i, (i + d) % n, j - i))
            i = j + 1
    return sorted(runs)


def ghat_member(g: str, h: str, K: int) -> bool:
    """Whether g has no forward run of length >= K against h's root, for any root."""
    core, _ = cyclic_peel(h)
    root, _ = prim_root(core)
    return all(length < K for _, _, length in diagonal_runs(g, root))


def mutual_reachability_classes(succ: list[list[int]]) -> list[tuple[int, ...]]:
    """The strongly connected components of the graph in which state s has
    the successors succ[s], each a sorted tuple, in the order of their least
    states: s and t share one when each reaches the other (every state
    reaches itself).  Each state's reach is found by its own search."""
    reach = []
    for s in range(len(succ)):
        seen, todo = {s}, [s]
        while todo:
            for t in succ[todo.pop()]:
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        reach.append(seen)
    classes = {tuple(t for t in sorted(reach[s]) if s in reach[t]) for s in range(len(succ))}
    return sorted(classes)


class NotConverged(Exception):
    """collatz_wielandt_bounds did not close to width tol within max_iter."""


def exact_ratio_bounds(rows: list[list[tuple[int, int]]], vec: list[float]) -> tuple[float, float]:
    """The ratios ((M+I)x)_i / x_i - 1 evaluated as Fractions of the float
    entries of vec exactly, a zero entry standing in as 1 over the largest
    denominator of vec, with the extremes rounded outward to floats ([0, inf]
    when the largest ratio rounds past the float range)."""
    xf = [Fraction(v) for v in vec]
    floor = Fraction(1, max(v.denominator for v in xf))
    xf = [v if v > 0 else floor for v in xf]
    lo = hi = None
    for i, row in enumerate(rows):
        yi = xf[i] + sum(w * xf[j] for j, w in row)
        ratio = yi / xf[i] - 1
        lo = ratio if lo is None or ratio < lo else lo
        hi = ratio if hi is None or ratio > hi else hi
    try:
        hi_f = float(hi)
    except OverflowError:
        return 0.0, math.inf
    lo_f = float(lo)
    if Fraction(lo_f) > lo:
        lo_f = math.nextafter(lo_f, -math.inf)
    if Fraction(hi_f) < hi:
        hi_f = math.nextafter(hi_f, math.inf)
    return lo_f, hi_f


def collatz_wielandt_bounds(
    rows: list[list[tuple[int, int]]], tol: float, max_iter: int
) -> tuple[float, float]:
    """Plain-Python Collatz-Wielandt bounds on the Perron root of an
    irreducible non-negative integer matrix given by sparse rows (rows[i]
    lists (j, M[i][j]) in increasing j): iterate x -> (M + I)x one row at a
    time, and whenever the float ratios agree to tol / 4, or every 512th
    iteration, take exact_ratio_bounds of the iterate.  Raises NotConverged
    when max_iter runs out."""
    n = len(rows)
    x = [1.0] * n
    for it in range(1, max_iter + 1):
        y = []
        for i in range(n):
            # a plain left-to-right loop: from Python 3.12 on, sum() of
            # floats is compensated and would round differently
            acc = 0.0
            for j, w in rows[i]:
                acc = acc + w * x[j]
            y.append(x[i] + acc)
        ratios = [y[i] / x[i] for i in range(n)]
        top = max(y)
        x = [v / top for v in y]
        if max(ratios) - min(ratios) <= tol * 0.25 or it % 512 == 0:
            lo, hi = exact_ratio_bounds(rows, x)
            if hi - lo <= tol:
                return lo, hi
    raise NotConverged(f"no width {tol} in {max_iter} iterations")


def lp_norm_exact(profile: tuple[int, ...], p) -> object:
    """Comparable norm stand-in: exact for p in {1, 2, 3, ...} and inf."""
    if p == float("inf"):
        return max(profile) if profile else 0
    if p == int(p):
        return sum(Fraction(r) ** int(p) for r in profile)
    return power_sum(profile, p)


def product_ball_brute(p, factor_spheres: list[list[int]], R) -> int:
    """Lattice count: sum over profiles with ||profile||_p <= R."""
    budget = lp_norm_exact((R,), p)
    r_tops = [len(s) - 1 for s in factor_spheres]
    total = 0
    for prof in product(*(range(t + 1) for t in r_tops)):
        if lp_norm_exact(prof, p) <= budget:
            term = 1
            for i, r in enumerate(prof):
                term *= factor_spheres[i][r]
            total += term
    return total


def minimal_section_brute(p, ranks: list[int], key_fn, r_max) -> dict:
    """key -> (coordinate tuple, length), scanning every product point in the
    library's documented deterministic order: norm, then profile, then
    per-coordinate word order.  Factor i is free of rank ranks[i]; r_max may
    be fractional.  The dict's insertion order is the order of first hits."""
    rfloor = math.floor(r_max)
    spheres = [words_by_radius(rank, rfloor) for rank in ranks]
    budget = lp_norm_exact((r_max,), p)
    profiles = [
        prof
        for prof in product(range(rfloor + 1), repeat=len(ranks))
        if lp_norm_exact(prof, p) <= budget
    ]
    profiles.sort(key=lambda prof: (lp_norm_exact(prof, p), prof))
    section: dict = {}
    for prof in profiles:
        for coords in product(*(spheres[i][r] for i, r in enumerate(prof))):
            key = key_fn(coords)
            if key not in section:
                section[key] = (coords, _norm_val(prof, p))
    return section


def first_words_by_part(rank: int, r_max: int, part_fn) -> list[list]:
    """reps[r] = [(part, first word with that part), ...] over the radius-r
    sphere, in order of first occurrence: list the sphere in shortlex order
    and keep the first word of each part value."""
    reps = []
    for sphere in words_by_radius(rank, r_max):
        first: dict = {}
        for w in sphere:
            first.setdefault(part_fn(w), w)
        reps.append(list(first.items()))
    return reps


def _norm_val(profile, p) -> float:
    if p == float("inf"):
        return float(max(profile) if profile else 0)
    if p == 1:
        return float(sum(profile))
    return power_sum(profile, p) ** (1.0 / p)


def power_sum(profile, p) -> float:
    """Sum of r**p, added left to right (sum() of floats is compensated
    from Python 3.12 on)."""
    total = 0.0
    for r in profile:
        total = total + float(r) ** p
    return total


def to_lib_text(chars: str) -> str:
    """Char-string -> the library's word grammar ("aBa" -> "a b- a")."""
    if not chars:
        return "1"
    return " ".join(c.lower() + ("-" if c.isupper() else "") for c in chars)


def from_lib_text(text: str) -> str:
    if text.strip() in ("", "1"):
        return ""
    out = []
    for token in text.split():
        if token.endswith("-") or token.endswith("'"):
            out.append(token[0].upper())
        else:
            out.append(token[0])
    return "".join(out)


def avoid_automaton_suffix_matcher(rank: int, forbidden: list[str]) -> tuple[int, dict]:
    """(n_states, transitions) of the factor-avoidance automaton built by
    testing every suffix of (matcher state + letter) against the forbidden
    set, breadth-first from (None, "").  transitions[(state, letter id)] =
    state, letter ids being ORDER indices, inserted in (state, letter) order.

    A state is (last letter, longest suffix of the input that is a prefix of
    a forbidden word).  This is the quadratic construction the library used
    before its Aho-Corasick table; any faster build must give the same
    states, numbering and transition order.
    """
    bad = set(forbidden)
    prefixes = {f[:i] for f in bad for i in range(len(f) + 1)}

    def step(state: str, ch: str):
        cand = state + ch
        if any(cand[i:] in bad for i in range(len(cand))):
            return None
        for i in range(len(cand)):
            if cand[i:] in prefixes:
                return cand[i:]
        return ""

    index = {(None, ""): 0}
    queue = [(None, "")]
    transitions = {}
    for s, (last, mstate) in enumerate(queue):
        for x, ch in enumerate(letters(rank)):
            if last is not None and ch == inv(last):
                continue
            mnext = step(mstate, ch)
            if mnext is None:
                continue
            target = (ch, mnext)
            if target not in index:
                index[target] = len(index)
                queue.append(target)
            transitions[(s, x)] = index[target]
    return len(index), transitions


def ghat_factors(h: str, m: int) -> list[str]:
    """The length-m factors of root^infinity forbidden by the Ghat automaton,
    root being the primitive root of h's cyclically reduced core; sorted."""
    core, _ = cyclic_peel(h)
    root, _ = prim_root(core)
    n = len(root)
    return sorted({"".join(root[(s + i) % n] for i in range(m)) for s in range(n)})
