"""Compare two sets of benchmark results.

    python3 perfbench/compare.py SET_A [SET_B]

A set is a directory of result files written by perfbench/run.py --out DIR
(untraced runs are used; traced ones are skipped).  For each workload and
end-to-end metric the command prints each set's median and quartiles, the
spread (interquartile distance over the median) against the metric's bound
in BENCHMARK.json, and, given two sets, the change of B's median from A's in
the metric's worse direction and whether it stays within the bound.  It also
compares the exact-field digests of runs of the same workload and seed.

Exit status: 0 when every spread (setup_s excepted) and every change is
within its bound and the digests agree, 1 otherwise.
"""
from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_set(directory: str) -> list[dict]:
    results = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        if result.get("trace") == 0:
            results.append(result)
    return results


def stats(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def worse_change(before: float, after: float, better: str) -> float:
    change = (after - before) / before
    return change if better == "lower" else -change


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sets = [load_set(d) for d in argv]
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [[r for r in s if r["workload"] == workload] for s in sets]
        if not all(runs):
            print(f"{workload}: no untraced runs in " + " / ".join(argv))
            ok = False
            continue
        counts = " / ".join(str(len(r)) for r in runs)
        failed = " / ".join(str(sum(x["failed"] for x in r)) for r in runs)
        print(f"{workload}  (runs {counts}; failed jobs {failed})")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = f"  {name:12s} {metric['unit']:4s}"
            medians = []
            for r in runs:
                median, q1, q3 = stats([x["metrics"][name]["value"] for x in r])
                spread = (q3 - q1) / median
                medians.append(median)
                steady = spread <= bound or name == "setup_s"
                ok = ok and steady
                line += f" | median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}{'' if steady else '!'}"
            if len(medians) == 2:
                change = worse_change(medians[0], medians[1], metric["better"])
                agree = change <= bound
                ok = ok and agree
                line += f" | worse by {change:+.3f} (bound {bound}) {'agree' if agree else 'DISAGREE'}"
            else:
                line += f" (bound {bound})"
            print(line)
        if len(runs) == 2:
            first = {x["seed"]: x["digest"] for x in runs[0]}
            shared = [x for x in runs[1] if x["seed"] in first]
            differ = [x["seed"] for x in shared if x["digest"] != first[x["seed"]]]
            ok = ok and not differ
            print(f"  exact-field digests: {len(shared) - len(differ)} of {len(shared)} shared seeds identical"
                  + (f"; differ on seeds {sorted(set(differ))}" if differ else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
