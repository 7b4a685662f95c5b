"""Seeded job lists for the three benchmark workloads.

Every list is a deterministic function of (workload, seed).  What sets a
job's cost is fixed per workload: how many jobs of each kind, their radii,
ranks and p, and the shape of their words (drawn once from a generator that
does not depend on the seed).  The seed picks what leaves the cost unchanged:
a relabelling of the generators for every word of a job (a signed
permutation, an automorphism of the free group that preserves word length,
so the relabelled automata and balls are isomorphic to the originals), the
order of product factors, which factors a kernel kills, coefficient signs,
and the job order.  It also picks the random projection-axiom families and
the kernel words of quotient checks, whose cost varies a little.  Across
seeds the inputs differ and the work stays the same, so the spread of a
metric over seeds measures the machine and the program, not the draw.  The
repository's own job documents of each workload's kinds are included
verbatim.

Usage: python3 perfbench/workloads.py WORKLOAD SEED OUT_DIR
writes one growthtight/job-v1 document per job into OUT_DIR.
"""
from __future__ import annotations

import json
import os
import random
import sys

SCHEMA = "growthtight/job-v1"
P_VALUES = (1, 1.5, 2, 3, "inf")

# The repository's job documents, by the workload that exercises their kind.
REPO_JOBS = {
    "spectral": (
        "avoid_sweep_len4",
        "free_rank2_exponent",
        "free_rank3_exponent",
        "free_rank4_exponent",
    ),
    "lattice": (
        "product_l1",
        "product_l2",
        "product_linf",
        "quotient_hom_structure",
        "tightness_l1_kill_factor",
        "tightness_linf_kill_factor",
    ),
    "sweep": (
        "axioms_lemma31_a",
        "axioms_lemma31_ab",
        "axioms_random_triples",
        "shorten_sweep_a",
        "shorten_sweep_ab",
    ),
}


def job(command: str, params: dict, budgets: dict | None = None) -> dict:
    doc = {"schema": SCHEMA, "command": command, "params": params}
    if budgets:
        doc["budgets"] = budgets
    return doc


def random_letters(rng: random.Random, rank: int, length: int, cyclic: bool = False) -> tuple:
    """A freely reduced word as letter codes (2i = generator i, 2i+1 = its
    inverse); cyclic=True also keeps the first and last letters from cancelling."""
    letters: list[int] = []
    while len(letters) < length:
        x = rng.randrange(2 * rank)
        if letters and x == letters[-1] ^ 1:
            continue
        if cyclic and length > 1 and len(letters) == length - 1 and x == letters[0] ^ 1:
            continue
        letters.append(x)
    return tuple(letters)


def word_text(letters) -> str:
    if not letters:
        return "1"
    return " ".join(chr(97 + x // 2) + ("-" if x & 1 else "") for x in letters)


def exponent_sums(letters, rank: int) -> list[int]:
    sums = [0] * rank
    for x in letters:
        sums[x // 2] += -1 if x & 1 else 1
    return sums


def relabelling(rng: random.Random, rank: int):
    """A random signed permutation of the generators, as a map on letter
    codes; it preserves word length, so a relabelled job costs what the
    original does."""
    perm = list(range(rank))
    rng.shuffle(perm)
    flip = [rng.randrange(2) for _ in range(rank)]
    return lambda letters: tuple(2 * perm[x // 2] + ((x & 1) ^ flip[x // 2]) for x in letters)


def factor_set(shape: random.Random, relabel, rank: int, count: int, lengths: tuple[int, int]) -> list[str]:
    """count distinct reduced words drawn from shape, then relabelled."""
    out: list[tuple] = []
    while len(out) < count:
        letters = random_letters(shape, rank, shape.randint(*lengths))
        if letters not in out:
            out.append(letters)
    return [word_text(relabel(w)) for w in out]


# --- spectral: automata, Perron brackets, exact length counts -------------

def spectral_jobs(shape: random.Random, rng: random.Random) -> list[dict]:
    # Sizes are chosen so that job_s.p50 falls in the middle of the avoid
    # jobs (cheaper exponent jobs below, count and Ghat jobs above) and
    # job_s.p90 in the middle of twenty equal-sized Ghat automata.
    jobs = []
    for i in range(48):
        rank = 2 + i % 2
        params = {
            "rank": rank,
            "factors": factor_set(shape, relabelling(rng, rank), rank, 1 + i % 4, (3, 6)),
            "compare_inverse": i % 3 != 0,
        }
        jobs.append(job("avoid", params, {"r_max": 12}))
    for i in range(27):
        rank = 2 + i % 3
        params = {"rank": rank}
        if i % 2:
            params["forbidden"] = factor_set(shape, relabelling(rng, rank), rank, 1 + i % 3, (3, 5))
        jobs.append(job("exponent", params, {"r_max": 10 + i % 5}))
    for i in range(10):
        rank = 2 + i % 2
        params = {"rank": rank, "forbidden": factor_set(shape, relabelling(rng, rank), rank, 1 + i % 4, (3, 6))}
        jobs.append(job("count", params, {"r_max": 200 + 100 * i}))
    # |h| = 8..11 once each (about 130-240 states) and twenty at |h| = 12
    # (about 290 states); m = 2|h| + 2 as in the paper's cutoff.
    for length in [8, 9, 10, 11] + [12] * 20:
        h = relabelling(rng, 2)(random_letters(shape, 2, length, cyclic=True))
        jobs.append(job("ghat", {"rank": 2, "h": word_text(h), "m": 2 * length + 2}))
    return jobs


# --- lattice: L^p products, quotients, tightness verdicts ------------------

def product_radius(n: int, p) -> int:
    """Radius for a product job: large enough that verify_duality has at least
    six support radii, and capped so one job stays well under a second."""
    if p == 1:
        return {2: 24, 3: 20, 4: 24}[n]
    if p == "inf":
        return {2: 30, 3: 24, 4: 16}[n]
    if p == 1.5:
        return {2: 26, 3: 18, 4: 14}[n]
    if p == 2:
        return {2: 22, 3: 14, 4: 12}[n]
    return {2: 16, 3: 12, 4: 10}[n]


def kernel_h_pair(rng: random.Random, rows: list[list[int]]) -> list[str] | None:
    """Two short cyclically reduced words whose images under the coefficient
    rows cancel, so the pair lies in the kernel of the homomorphism."""
    for _ in range(200):
        h = [random_letters(rng, 2, rng.randint(1, 2), cyclic=True) for _ in range(2)]
        images = [
            sum(c * s for c, s in zip(row, exponent_sums(w, 2))) for row, w in zip(rows, h)
        ]
        if sum(images) == 0:
            return [word_text(w) for w in h]
    return None


QUOTIENT_RADIUS = {1: 6, 2: 5, "inf": 4}


# Coefficient magnitudes of the homomorphism-to-integers oracles, cycled;
# the seed picks the signs.
HOM_MAGNITUDES = ((1, 1, 1, 2), (1, 2, 2, 1), (2, 1, 1, 1), (1, 1, 2, 2), (2, 2, 1, 1))


def lattice_jobs(shape: random.Random, rng: random.Random) -> list[dict]:
    # The cost of a lattice job is set by its ranks, p, radius and coefficient
    # magnitudes; these strata are fixed.  The seed picks what leaves the cost
    # unchanged: the order of the factors (the L^p norm is symmetric), which
    # factors a kernel kills, and the signs of the coefficients (inverting a
    # generator preserves word length), plus the check words and the job order.
    jobs = []
    # every (n, p) pair twice: once all rank 2, once with one rank-3 factor
    # (two when n = 4)
    for i in range(30):
        n = 2 + i % 3
        p = P_VALUES[(i // 3) % len(P_VALUES)]
        threes = (i // 15) * (1 + (n == 4))
        ranks = [3] * threes + [2] * (n - threes)
        rng.shuffle(ranks)
        factors = [{"rank": r} for r in ranks]
        jobs.append(job("product", {"factors": factors, "p": p}, {"r_max": product_radius(n, p)}))
    for i in range(44):
        p = (1, 2, "inf")[i % 3]
        params = {"factors": [{"rank": 2}, {"rank": 2}], "p": p}
        if i % 2:
            params["oracle"] = {"kind": "abelianization-kernel"}
        else:
            mags = HOM_MAGNITUDES[(i // 2) % len(HOM_MAGNITUDES)]
            signed = [m * rng.choice((-1, 1)) for m in mags]
            rows = [signed[:2], signed[2:]]
            params["oracle"] = {"kind": "homomorphism-to-integers", "coefficients": rows}
            pair = kernel_h_pair(rng, rows) if i % 4 == 0 else None
            if pair is not None:
                params["check"] = {"h": pair, "K": 6}
        jobs.append(job("quotient", params, {"r_max": QUOTIENT_RADIUS[p]}))
    for i in range(26):
        if i % 3 == 2:
            p = (1, 2, "inf")[(i // 3) % 3]
            params = {
                "factors": [{"rank": 2}, {"rank": 2}],
                "p": p,
                "oracle": {"kind": "abelianization-kernel"},
            }
            r_max = QUOTIENT_RADIUS[p]
        else:
            n = 2 + i % 2
            # (rank, killed) per factor: ranks and the number killed by i
            slots = [(2 + (i >> b) % 2, b < 1 + (i // 2) % (n - 1)) for b in range(n)]
            rng.shuffle(slots)
            params = {
                "factors": [{"rank": rank} for rank, _ in slots],
                "p": P_VALUES[(i // 2) % len(P_VALUES)],
                "oracle": {"kind": "factor-kernel", "kill": [k for k, (_, dead) in enumerate(slots) if dead]},
            }
            r_max = 6
        jobs.append(job("tightness", params, {"r_max": r_max, "tol": 0.08}))
    return jobs


# --- sweep: words streamed through tree predicates --------------------------

def sweep_jobs(shape: random.Random, rng: random.Random) -> list[dict]:
    # job_s.p90 falls in the middle of the eighteen shorten sweeps (six at
    # each |h|): above them are only the repository's two g_max 10 sweeps and
    # its random family, below them the lemma31 and random-axiom jobs.  A
    # quantile at the edge between two kinds would follow the seed.
    jobs = []
    for i in range(18):
        length = 1 + i % 3
        h = relabelling(rng, 2)(random_letters(shape, 2, length, cyclic=True))
        params = {"rank": 2, "h": word_text(h), "m": 2 * length + 2, "shorten_sweep": {"g_max": 7}}
        jobs.append(job("ghat", params, {"r_max": 10}))
    for i in range(45):
        h = relabelling(rng, 2)(random_letters(shape, 2, 1 + i % 3, cyclic=i % 2 == 0))
        params = {"rank": 2, "lemma31": {"h": word_text(h), "g_max": 4, "n_max": 8}}
        jobs.append(job("axioms", params))
    for i in range(45):
        core_max = 2 + i % 2
        conj_max = i % 3 and 1
        params = {
            "rank": 2,
            "random": {
                "seed": rng.randrange(2**31),
                "triples": 20 + i % 11,
                "core_max": core_max,
                "conjugator_max": conj_max,
            },
            "candidate_xi": core_max + 2 * conj_max,
        }
        jobs.append(job("axioms", params))
    return jobs


GENERATORS = {"spectral": spectral_jobs, "lattice": lattice_jobs, "sweep": sweep_jobs}


def generate(workload: str, seed: int, repo_root: str = ".") -> list[tuple[str, dict]]:
    """(name, job document) pairs in run order: the seeded jobs shuffled
    together with the repository's own jobs of the workload's kinds."""
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(GENERATORS)}")
    shape = random.Random(f"{workload}:shape")
    rng = random.Random(f"{workload}:{seed}")
    named = [(f"{workload}-{i:03d}", doc) for i, doc in enumerate(GENERATORS[workload](shape, rng))]
    for name in REPO_JOBS[workload]:
        with open(os.path.join(repo_root, "jobs", name + ".json"), encoding="utf-8") as fh:
            named.append((name, json.load(fh)))
    rng.shuffle(named)
    return named


def kind_mix(jobs: list[tuple[str, dict]]) -> dict[str, int]:
    mix: dict[str, int] = {}
    for _, doc in jobs:
        kind = doc["command"]
        params = doc["params"]
        if kind == "ghat" and "shorten_sweep" in params:
            kind = "ghat+shorten_sweep"
        elif kind == "axioms":
            kind = "axioms." + ("lemma31" if "lemma31" in params else "random" if "random" in params else "explicit")
        elif kind == "avoid" and "sweep" in params:
            kind = "avoid.sweep"
        mix[kind] = mix.get(kind, 0) + 1
    return dict(sorted(mix.items()))


def write_jobs(jobs: list[tuple[str, dict]], out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, doc in jobs:
        path = os.path.join(out_dir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        paths.append(path)
    return paths


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__.strip().splitlines()[-2])
    generated = generate(sys.argv[1], int(sys.argv[2]))
    write_jobs(generated, sys.argv[3])
    print(json.dumps(kind_mix(generated)))
