"""Output checks for benchmark jobs, against references that never import
the package under test.

Words are tuples of letter codes (2i = generator i, 2i+1 = its inverse), or,
for substring tests, strings with one character per letter.  The references:

- closed-form sphere sizes of free groups and of Z^k in the l^1 metric;
- brute-force enumeration of reduced words plus a substring test (small radii);
- an Aho-Corasick factor-avoidance automaton, counted exactly with Python
  ints and, for growth rates, by numpy power iteration;
- lattice sums over closed-form spheres with an exact boundary test
  (integers, or 50-digit decimals for non-integer p);
- sumsets of coefficient images for homomorphisms to the integers.

check(doc, report) returns a list of problems (empty when the report is
right); digest(report) hashes the exact fields of the results.
"""
from __future__ import annotations

import bisect
import hashlib
import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

# A numpy Perron estimate and a certified bracket must agree to this much.
PERRON_SLACK = 1e-7
# Brute-force enumeration radius per rank: about 10^4 words in the top sphere.
BRUTE_RADIUS = {2: 8, 3: 6, 4: 5}
DECIMAL_DIGITS = 50


# --- words ------------------------------------------------------------------

def parse(text: str) -> tuple:
    text = text.strip()
    if text in ("", "1"):
        return ()
    letters: list[int] = []
    for token in text.split():
        x = 2 * (ord(token[0]) - 97) + (1 if token[1:] in ("-", "'") else 0)
        if letters and letters[-1] == x ^ 1:
            letters.pop()
        else:
            letters.append(x)
    return tuple(letters)


def as_chars(letters) -> str:
    return "".join(chr(65 + x) for x in letters)


def free_sphere(rank: int, r: int) -> int:
    return 1 if r == 0 else 2 * rank * (2 * rank - 1) ** (r - 1)


def free_growth(rank: int) -> float:
    return math.log(2 * rank - 1)


def zl1_sphere(k: int, r: int) -> int:
    """Integer vectors of Z^k with l^1 norm exactly r."""
    if r == 0:
        return 1
    return sum(2**j * math.comb(k, j) * math.comb(r - 1, j - 1) for j in range(1, min(k, r) + 1))


def cyclic_core(letters: tuple) -> tuple[tuple, int]:
    """(cyclically reduced core, conjugator length)."""
    conj = 0
    while len(letters) >= 2 and letters[0] == letters[-1] ^ 1:
        letters = letters[1:-1]
        conj += 1
    return letters, conj


def primitive(letters: tuple) -> tuple:
    n = len(letters)
    for d in range(1, n + 1):
        if n % d == 0 and letters == letters[:d] * (n // d):
            return letters[:d]
    return letters


def root_factors(h: tuple, m: int) -> list[tuple]:
    """The length-m factors of root^infinity, root = primitive root of h's core."""
    root = primitive(cyclic_core(h)[0])
    n = len(root)
    return sorted({tuple(root[(s + i) % n] for i in range(m)) for s in range(n)})


class BruteForce:
    """Reduced words by radius as strings, built once per rank."""

    def __init__(self):
        self._spheres: dict[int, list[list[str]]] = {}

    def spheres(self, rank: int) -> list[list[str]]:
        if rank not in self._spheres:
            alphabet = [chr(65 + x) for x in range(2 * rank)]
            inverse = {chr(65 + x): chr(65 + (x ^ 1)) for x in range(2 * rank)}
            spheres = [[""]]
            for _ in range(BRUTE_RADIUS[rank]):
                spheres.append(
                    [w + c for w in spheres[-1] for c in alphabet if not w or c != inverse[w[-1]]]
                )
            self._spheres[rank] = spheres
        return self._spheres[rank]

    def avoiding(self, rank: int, factors: list[tuple]) -> list[int]:
        """Sphere counts of reduced words containing none of the factors."""
        bad = [as_chars(f) for f in factors]
        return [sum(1 for w in sphere if not any(b in w for b in bad)) for sphere in self.spheres(rank)]


# --- factor-avoidance automaton ----------------------------------------------

class AvoidAutomaton:
    """Aho-Corasick automaton of the reduced words over the given rank that
    contain no pattern; only states reachable from the root are kept."""

    def __init__(self, rank: int, factors: list[tuple]):
        patterns = [f for f in factors] + [(x, x ^ 1) for x in range(2 * rank)]
        children: list[dict[int, int]] = [{}]
        terminal = [False]
        for pat in patterns:
            node = 0
            for x in pat:
                if x not in children[node]:
                    children[node][x] = len(children)
                    children.append({})
                    terminal.append(False)
                node = children[node][x]
            terminal[node] = True
        fail = [0] * len(children)
        delta: list[list[int]] = [[0] * (2 * rank) for _ in children]
        order = [0]
        for node in order:
            for x in range(2 * rank):
                child = children[node].get(x)
                if child is None:
                    delta[node][x] = delta[fail[node]][x] if node else 0
                else:
                    fail[child] = delta[fail[node]][x] if node else 0
                    terminal[child] = terminal[child] or terminal[fail[child]]
                    delta[node][x] = child
                    order.append(child)
        index = {0: 0}
        queue = [0]
        edges: list[tuple[int, int]] = []
        for node in queue:
            for x in range(2 * rank):
                target = delta[node][x]
                if terminal[target]:
                    continue
                if target not in index:
                    index[target] = len(index)
                    queue.append(target)
                edges.append((index[node], index[target]))
        self.n_states = len(index)
        self.edges = edges

    def counts(self, r_max: int) -> list[int]:
        v = [0] * self.n_states
        v[0] = 1
        out = [1]
        for _ in range(r_max):
            nxt = [0] * self.n_states
            for s, t in self.edges:
                if v[s]:
                    nxt[t] += v[s]
            v = nxt
            out.append(sum(v))
        return out

    def components(self) -> list[int]:
        """Strongly connected component id of each state (Kosaraju)."""
        succ: list[list[int]] = [[] for _ in range(self.n_states)]
        pred: list[list[int]] = [[] for _ in range(self.n_states)]
        for s, t in self.edges:
            succ[s].append(t)
            pred[t].append(s)
        seen = [False] * self.n_states
        order = []
        for start in range(self.n_states):
            if seen[start]:
                continue
            seen[start] = True
            stack = [(start, iter(succ[start]))]
            while stack:
                node, successors = stack[-1]
                for t in successors:
                    if not seen[t]:
                        seen[t] = True
                        stack.append((t, iter(succ[t])))
                        break
                else:
                    order.append(node)
                    stack.pop()
        comp = [-1] * self.n_states
        count = 0
        for start in reversed(order):
            if comp[start] >= 0:
                continue
            comp[start] = count
            frontier = [start]
            while frontier:
                u = frontier.pop()
                for w in pred[u]:
                    if comp[w] < 0:
                        comp[w] = count
                        frontier.append(w)
            count += 1
        return comp

    def growth(self, max_iter: int = 100_000) -> float:
        """log of the spectral radius: the largest over the strongly connected
        components, each by power iteration on A + I (irreducible and
        aperiodic, so it converges geometrically)."""
        comp = self.components()
        internal: dict[int, list[tuple[int, int]]] = {}
        for s, t in self.edges:
            if comp[s] == comp[t]:
                internal.setdefault(comp[s], []).append((s, t))
        best = 0.0
        for edges in internal.values():
            local = {s: i for i, s in enumerate(sorted({s for s, _ in edges}))}
            src = np.array([local[s] for s, _ in edges], dtype=np.int64)
            dst = np.array([local[t] for _, t in edges], dtype=np.int64)
            n = len(local)
            x = np.full(n, 1.0 / n)
            previous = lam = 0.0
            steady = 0
            for _ in range(max_iter):
                y = x + np.bincount(dst, weights=x[src], minlength=n)
                lam = float(y.sum())
                x = y / lam
                steady = steady + 1 if abs(lam - previous) <= 1e-13 * lam else 0
                if steady >= 5:
                    break
                previous = lam
            best = max(best, lam - 1.0)
        return math.log(best) if best > 0 else -math.inf


# --- lattice sums --------------------------------------------------------------

def _p_value(p):
    """The exponent p of a job document as a number (math.inf for "inf")."""
    if isinstance(p, str):
        return math.inf if p.strip().lower() in ("inf", "infinity", "oo") else float(p)
    return p


def norm_key(r: int, p):
    """Per-coordinate contribution to the exact norm key."""
    if p == 1 or p == math.inf:
        return r
    if p == int(p):
        return r ** int(p)
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        return Decimal(r) ** Decimal(p)


def threshold(radius, p):
    """Largest key inside the ball of the given radius (exact)."""
    if p == 1 or p == math.inf:
        return radius
    if p == int(p):
        return Fraction(radius) ** int(p)
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        return Decimal(radius) ** Decimal(p) + Decimal(10) ** (-DECIMAL_DIGITS + 15)


class LatticeBalls:
    """Ball counts of an l^p combination of per-factor sphere sequences."""

    def __init__(self, spheres: list[list[int]], p):
        p = _p_value(p)
        keys: dict = {0: 1}
        with localcontext() as ctx:
            ctx.prec = DECIMAL_DIGITS
            for seq in spheres:
                nxt: dict = {}
                for r, weight in enumerate(seq):
                    part = norm_key(r, p)
                    for key, w in keys.items():
                        new = max(key, part) if p == math.inf else key + part
                        nxt[new] = nxt.get(new, 0) + w * weight
                keys = nxt
        self.p = p
        self.keys = sorted(keys)
        self.prefix = []
        total = 0
        for key in self.keys:
            total += keys[key]
            self.prefix.append(total)

    def ball(self, radius) -> int:
        i = bisect.bisect_right(self.keys, threshold(radius, self.p))
        return self.prefix[i - 1] if i else 0


def hom_image_balls(rows: list[list[int]], p, r_max: int) -> list[int]:
    """Distinct values of sum_i row_i . e_i over exponent vectors e_i whose
    l^1 norms form a profile inside the l^p ball, for radii 0..r_max."""
    p = _p_value(p)
    reach = []
    for row in rows:
        layers = [{0}]
        for _ in range(r_max):
            prev = layers[-1]
            layers.append(prev | {t + s * c for t in prev for c in row for s in (1, -1)})
        reach.append(layers)
    balls = []
    for radius in range(r_max + 1):
        limit = threshold(radius, p)
        values: set[int] = set()
        stack = [(0, 0, {0})]
        while stack:
            i, key, partial = stack.pop()
            if i == len(rows):
                values |= partial
                continue
            for r in range(radius + 1):
                part = norm_key(r, p)
                new = max(key, part) if p == math.inf else key + part
                if new > limit:
                    break
                stack.append((i + 1, new, {a + b for a in partial for b in reach[i][r]}))
        balls.append(len(values))
    return balls


# --- report checks -------------------------------------------------------------

def _prefix_sums(seq):
    out, total = [], 0
    for c in seq:
        total += c
        out.append(total)
    return out


class Checker:
    def __init__(self):
        self.brute = BruteForce()

    def check(self, doc: dict, report: dict) -> list[str]:
        """Problems found in one job's report; empty when the report is right."""
        command = doc["command"]
        params = doc["params"]
        results = report["results"]
        budgets = report["job"]["budgets"]
        problems: list[str] = []
        handler = getattr(self, "_" + command)
        handler(params, budgets, results, problems)
        return problems

    # helpers

    def _counts(self, rank, factors, results, problems, what):
        spheres = results["spheres"]
        if results["balls"] != _prefix_sums(spheres):
            problems.append(f"{what}: balls are not the prefix sums of spheres")
        brute = self.brute.avoiding(rank, factors)
        top = min(len(brute), len(spheres))
        if spheres[:top] != brute[:top]:
            problems.append(f"{what}: spheres {spheres[:top]} != brute force {brute[:top]}")

    @staticmethod
    def _certified(bracket, tol, problems, what):
        if not bracket["lower"] <= bracket["upper"]:
            problems.append(f"{what}: bracket inverted")
        elif bracket["upper"] - bracket["lower"] > tol:
            problems.append(f"{what}: width {bracket['upper'] - bracket['lower']} > tol {tol}")

    def _spectral(self, rank, factors, bracket, tol, problems, what):
        self._certified(bracket, tol, problems, what)
        if factors:
            ref = AvoidAutomaton(rank, factors).growth()
            lo, hi = bracket["lower"] - PERRON_SLACK, bracket["upper"] + PERRON_SLACK
        else:
            ref = free_growth(rank)
            lo, hi = bracket["lower"], bracket["upper"]
        if not lo <= ref <= hi:
            problems.append(f"{what}: bracket [{bracket['lower']}, {bracket['upper']}] misses reference {ref}")

    # one handler per command

    def _count(self, params, budgets, results, problems):
        rank = params["rank"]
        factors = [parse(t) for t in params.get("forbidden", [])]
        if len(results["spheres"]) != budgets["r_max"] + 1:
            problems.append("count: wrong number of radii")
        self._counts(rank, factors, results, problems, "count")

    def _exponent(self, params, budgets, results, problems):
        rank = params["rank"]
        factors = [parse(t) for t in params.get("forbidden", [])]
        self._counts(rank, factors, results, problems, "exponent")
        self._spectral(rank, factors, results["spectral"], budgets["tol"], problems, "exponent")

    def _avoid(self, params, budgets, results, problems):
        rank = params["rank"]
        if "sweep" in params:
            max_len = params["sweep"]["max_len"]
            if results["languages"] != sum(free_sphere(rank, r) for r in range(1, max_len + 1)):
                problems.append("avoid sweep: wrong number of languages")
            full = free_growth(rank)
            for entry in results["entries"]:
                ref = AvoidAutomaton(rank, [parse(entry["f"])]).growth()
                if abs(entry["upper"] - ref) > PERRON_SLACK:
                    problems.append(f"avoid sweep: upper for {entry['f']} misses reference {ref}")
            if not results["all_strictly_below"] or any(e["upper"] >= full for e in results["entries"]):
                problems.append("avoid sweep: some avoidance language is not strictly below")
            return
        factors = [parse(t) for t in params["factors"]]
        self._counts(rank, factors, results, problems, "avoid")
        self._spectral(rank, factors, results["bracket"], budgets["tol"], problems, "avoid")
        if params.get("compare_inverse", True):
            sym = list(factors)
            for f in factors:
                inv = tuple(x ^ 1 for x in reversed(f))
                if inv not in sym:
                    sym.append(inv)
            inner = results["with_inverses"]
            self._counts(rank, sym, inner, problems, "avoid+inverses")
            self._spectral(rank, sym, inner["bracket"], budgets["tol"], problems, "avoid+inverses")

    def _ghat(self, params, budgets, results, problems):
        rank = params["rank"]
        h = parse(params["h"])
        factors = root_factors(h, params["m"])
        self._counts(rank, factors, results, problems, "ghat")
        self._spectral(rank, factors, results["bracket"], budgets["tol"], problems, "ghat")
        self._spectral(rank, [], results["full_bracket"], budgets["tol"], problems, "ghat full")
        if results["gap"]["strict"] and not results["bracket"]["upper"] < free_growth(rank):
            problems.append("ghat: strict gap claimed without one")
        if "shorten_sweep" in params:
            sweep = results["shorten_sweep"]
            g_max = params["shorten_sweep"]["g_max"]
            core, conj = cyclic_core(h)
            K = params["shorten_sweep"].get("K", 2 * (len(core) + 2 * conj) + 2)
            ball = sum(free_sphere(rank, r) for r in range(g_max + 1))
            in_ghat = sum(AvoidAutomaton(rank, root_factors(h, K)).counts(g_max))
            if sweep["K"] != K:
                problems.append(f"shorten sweep: K {sweep['K']} != {K}")
            if sweep["checked"] != ball:
                problems.append(f"shorten sweep: checked {sweep['checked']} != ball size {ball}")
            if sweep["failures"]:
                problems.append(f"shorten sweep: {len(sweep['failures'])} failures")
            if sweep["in_ghat"] != in_ghat or sweep["in_ghat"] + sweep["shortened"] != ball:
                problems.append(f"shorten sweep: in_ghat {sweep['in_ghat']} != reference {in_ghat}")

    def _product(self, params, budgets, results, problems):
        ranks = [f["rank"] for f in params["factors"]]
        r_max = budgets["r_max"]
        spheres = [[free_sphere(k, r) for r in range(r_max + 1)] for k in ranks]
        lattice = LatticeBalls(spheres, params["p"])
        if results["balls"] != [lattice.ball(r) for r in range(r_max + 1)]:
            problems.append("product: balls differ from the reference lattice sum")
        expected = [lattice.ball(radius) for radius in results["support_radii"]]
        if results["support_balls"] != expected:
            problems.append("product: support balls differ from the reference lattice sum")
        for k, bracket in zip(ranks, results["factor_brackets"]):
            self._spectral(k, [], bracket, budgets["tol"], problems, "product factor")

    def _quotient_reference(self, params, r_max) -> list[int]:
        ranks = [f["rank"] for f in params["factors"]]
        oracle = params["oracle"]
        if oracle["kind"] == "abelianization-kernel":
            spheres = [[zl1_sphere(k, r) for r in range(r_max + 1)] for k in ranks]
            lattice = LatticeBalls(spheres, params["p"])
            return [lattice.ball(r) for r in range(r_max + 1)]
        return hom_image_balls(oracle["coefficients"], params["p"], r_max)

    def _quotient(self, params, budgets, results, problems):
        r_max = budgets["r_max"]
        balls = self._quotient_reference(params, r_max)
        if results["balls"] != balls:
            problems.append(f"quotient: balls {results['balls']} != reference {balls}")
        if "check" in params:
            struct = results["structure_check"]
            if not struct["passed"] or struct["counterexamples"] or struct["checked"] != balls[-1]:
                problems.append(f"quotient: structure check {struct['passed']} over {struct['checked']}")
        elif results.get("section_size") != balls[-1]:
            problems.append(f"quotient: section size {results.get('section_size')} != {balls[-1]}")

    def _tightness(self, params, budgets, results, problems):
        ranks = [f["rank"] for f in params["factors"]]
        p = float(_p_value(params["p"]))
        oracle = params["oracle"]
        deltas = [free_growth(k) for k in ranks]

        def dual(ds):
            if not ds:
                return 0.0
            if p == 1:
                return max(ds)
            if p == math.inf:
                return sum(ds)
            q = p / (p - 1)
            return sum(d**q for d in ds) ** (1 / q)

        full = dual(deltas)
        bracket = results["delta_G"]
        if not bracket["lower"] - 1e-12 <= full <= bracket["upper"] + 1e-12:
            problems.append(f"tightness: delta_G misses {full}")
        truth = "tight"
        if oracle["kind"] == "factor-kernel":
            survivors = [d for i, d in enumerate(deltas) if i not in oracle["kill"]]
            quotient = dual(survivors)
            inner = results["delta_GN"]
            if not inner["lower"] - 1e-12 <= quotient <= inner["upper"] + 1e-12:
                problems.append(f"tightness: delta_G/N misses {quotient}")
            if p == 1 and survivors and max(survivors) == max(deltas):
                truth = "not-tight"
        if results["verdict"] not in (truth, "inconclusive"):
            problems.append(f"tightness: verdict {results['verdict']}, truth {truth}")

    def _axioms(self, params, budgets, results, problems):
        rank = params["rank"]
        if "lemma31" in params:
            g_max = params["lemma31"].get("g_max", 4)
            ball = sum(free_sphere(rank, r) for r in range(1, g_max + 1))
            if results["checked"] != ball or sum(results["branches"].values()) != ball:
                problems.append(f"lemma31: checked {results['checked']} != {ball}")
            if results["failures"]:
                problems.append(f"lemma31: {results['failures']} failures")
        elif "random" in params:
            # The bound core_max + 2 conjugator_max is the package's stated
            # constant, not a theorem: a family may exceed it.  The report must
            # say so consistently.
            block = params["random"]
            bound = block.get("core_max", 3) + 2 * block.get("conjugator_max", 1)
            candidate = params.get("candidate_xi")
            xi = results["xi_observed"]
            if results["triples"] != block.get("triples", 50) or results["bound"] != bound:
                problems.append("random axioms: wrong triple count or bound")
            if results["within_bound"] != (xi <= bound):
                problems.append(f"random axioms: within_bound {results['within_bound']} for xi {xi}, bound {bound}")
            if candidate is None or xi <= candidate:
                if results["violations"]:
                    problems.append(f"random axioms: {results['violations']} violations with xi {xi} <= {candidate}")
            elif not results["violations"]:
                problems.append(f"random axioms: no violations with xi {xi} > {candidate}")
        elif results["violations"]:
            problems.append("axioms: violations")


def _exact(obj):
    """The exact part of a result: ints, bools and strings (except prose)."""
    if isinstance(obj, dict):
        kept = {k: _exact(v) for k, v in obj.items() if k != "rationale"}
        return {k: v for k, v in kept.items() if v is not None}
    if isinstance(obj, list):
        return [_exact(v) for v in obj]
    if isinstance(obj, (bool, int, str)):
        return obj
    return None


def digest(report: dict) -> str:
    text = json.dumps(_exact(report["results"]), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
