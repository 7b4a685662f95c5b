"""Benchmark runner for growthtight: seeded job lists run in-process through
growthtight.cli.main, one closed-loop client, no threads.

    python3 perfbench/run.py --workload spectral|lattice|sweep --seed N \
        --seconds S --trace 0|1 [--out DIR]

Run it from the root of a checkout: it imports the package from ./src.

--trace 0 measures the end-to-end metrics with tracing off.  It repeats
passes over the job list until --seconds are used (at least three passes);
a job's time is its mean over the passes.  setup_s is measured first, in
fresh interpreters.  Times are reported at a fixed reference speed: a
small pure-Python computation (reference()) is timed next to each job, and
the job's time is scaled by REFERENCE_S over the local reference time, so
that the host's changes of speed cancel out; each set-up sample is scaled
the same way by a fresh interpreter that only imports numpy (see
perfbench/NOTES.md, "Reference speed").  The unscaled metrics are printed
and stored too.

--trace 1 alternates untraced passes with passes in which each layer is
timed from outside (perfbench/layertrace.py), and reports the per-layer metrics
of the traced passes plus trace.overhead_ratio.

Every run checks the first pass's reports against independent references
(perfbench/checks.py) outside the timed regions, and that later passes
reproduce them exactly.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; a result file with the
per-job digests of the exact fields (and, when tracing, a spans file) goes to
--out.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 9
# Job times are scaled to a machine on which reference(), timed next to a
# job, takes this long.  It only sets the scale: on the shared 2.1 GHz
# x86-64 VM with CPython 3.11 where the benchmark was built, reference()
# took 0.75-1.35 ms as the host's speed changed.
REFERENCE_S = 0.001
# A job's reference time is the median of those timed next to it and its
# neighbours in the pass, this many on each side.
REFERENCE_WINDOW = 2
# A run never starts a pass it expects to end later than this after the
# first pass began, whatever --seconds says.
HARD_LIMIT_S = 120.0

SETUP_JOB = {"schema": "growthtight/job-v1", "command": "count", "params": {"rank": 2}, "budgets": {"r_max": 4}}
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import numpy; import growthtight.cli as c; "
    "sys.exit(c.main(['run', sys.argv[2], '--quiet']))"
)
# The reference for setup_s: a fresh interpreter that only imports numpy,
# started just before each set-up sample.  setup_s is scaled to a machine on
# which it takes SETUP_REFERENCE_S.
SETUP_REFERENCE_CODE = "import numpy"
SETUP_REFERENCE_S = 0.2

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer metric -> (function, field of the trace summary, unit)
PER_LAYER = {
    "automata.perron_root.self_s": ("automata.perron_root", "self_s", "s"),
    "automata.perron_root.calls": ("automata.perron_root", "calls", "count"),
    "automata.perron_root.states": ("automata.perron_root", "states", "count"),
    "automata.avoid_factors.self_s": ("automata.avoid_factors", "self_s", "s"),
    "automata.avoid_factors.states": ("automata.avoid_factors", "states", "count"),
    "automata.count_lengths.self_s": ("automata.count_lengths", "self_s", "s"),
    "automata.count_lengths.steps": ("automata.count_lengths", "steps", "count"),
    "products.product_ball_counts.self_s": ("products.product_ball_counts", "self_s", "s"),
    "products.product_ball_counts.calls": ("products.product_ball_counts", "calls", "count"),
    "products.verify_duality.self_s": ("products.verify_duality", "self_s", "s"),
    "quotients.quotient_ball_counts.self_s": ("quotients.quotient_ball_counts", "self_s", "s"),
    "quotients.minimal_section.self_s": ("quotients.minimal_section", "self_s", "s"),
    "quotients.minimal_section.calls": ("quotients.minimal_section", "calls", "count"),
    "quotients.minimal_section.size": ("quotients.minimal_section", "size", "count"),
    "quotients.check_prop_minimal.self_s": ("quotients.check_prop_minimal", "self_s", "s"),
    "quotients.tightness_verdict.self_s": ("quotients.tightness_verdict", "self_s", "s"),
    "words.enumerate_sphere.self_s": ("words.enumerate_sphere", "self_s", "s"),
    "words.enumerate_sphere.words": ("words.enumerate_sphere", "words", "count"),
    "tree.ghat_membership_exact.self_s": ("tree.ghat_membership_exact", "self_s", "s"),
    "tree.ghat_membership_exact.calls": ("tree.ghat_membership_exact", "calls", "count"),
    "tree.shorten.self_s": ("tree.shorten", "self_s", "s"),
    "tree.shorten.calls": ("tree.shorten", "calls", "count"),
    "tree.check_projection_axioms.self_s": ("tree.check_projection_axioms", "self_s", "s"),
    "tree.lemma31_bound_check.self_s": ("tree.lemma31_bound_check", "self_s", "s"),
    "growth.regression_bracket.self_s": ("growth.regression_bracket", "self_s", "s"),
    "growth.check_subadditivity.self_s": ("growth.check_subadditivity", "self_s", "s"),
    "reports.canonical_json.self_s": ("reports.canonical_json", "self_s", "s"),
    "reports.canonical_json.bytes": ("reports.canonical_json", "bytes", "count"),
    "cli.main.self_s": ("cli.main", "self_s", "s"),
}
LAYERS = ("words", "automata", "tree", "products", "quotients", "growth", "reports", "cli")


def reference() -> int:
    """The fixed computation that gauges the machine's speed: the reduced
    words of rank 2 up to length 6, grouped by their first three letters.
    Like the package, it is pure-Python tuple, list and dict work; it never
    calls the package."""
    frontier, words = [()], [()]
    for _ in range(6):
        grown = []
        for w in frontier:
            for x in range(4):
                if w and x == w[-1] ^ 1:
                    continue
                grown.append(w + (x,))
        frontier = grown
        words += grown
    groups: dict = {}
    for w in words:
        groups[w[:3]] = groups.get(w[:3], 0) + len(w)
    return sum(groups.values())


def time_reference() -> float:
    """Wall time of one reference() call."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def parse_args(argv):
    parser = argparse.ArgumentParser(description="growthtight benchmark runner")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", default=os.path.join(".perfbench", "results"),
                        help="directory for the result file (default: .perfbench/results)")
    return parser.parse_args(argv)


def import_package(root: str):
    """growthtight.cli from this checkout's src/, or None."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "growthtight", "cli.py")):
        return None
    sys.path.insert(0, src)
    import growthtight.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        return None
    return cli


def measure_setup(src: str, job_path: str) -> tuple[list[float], list[float], list[str]]:
    """Wall time of fresh interpreters that import the CLI and numpy and
    finish one trivial job, and of the fresh interpreter that only imports
    numpy, started just before each."""
    samples, refs, errors = [], [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        ref = subprocess.run([sys.executable, "-c", SETUP_REFERENCE_CODE], capture_output=True, text=True, timeout=60)
        t1 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, src, job_path],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=60,
        )
        samples.append(time.perf_counter() - t1)
        refs.append(t1 - t0)
        for name, done in (("setup reference", ref), ("setup job", proc)):
            if done.returncode != 0:
                errors.append(f"{name} exited {done.returncode}: {done.stderr.strip()[-300:]}")
    return samples, refs, errors


class Bench:
    """One workload's job list, run pass after pass by a single client."""

    def __init__(self, cli, jobs, paths):
        self.cli = cli
        self.jobs = jobs
        self.paths = paths
        self.checker = checks.Checker()
        self.output_hash: list[int | None] = [None] * len(jobs)
        self.digests: list[str | None] = [None] * len(jobs)
        self.problems: dict[str, list[str]] = {}

    def run_job(self, i: int) -> tuple[float, float, int, str, str]:
        """Job time, reference time just before it, exit status, output,
        error output."""
        gc.collect()
        ref = time_reference()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                # looked up on the module each call, so a traced pass sees the wrapper
                status = self.cli.main(["run", self.paths[i], "--quiet"])
            except Exception as exc:  # a crash is a failed job, not a failed benchmark
                status = -1
                err.write(repr(exc))
            t1 = time.perf_counter()
        return t1 - t0, ref, status, out.getvalue(), err.getvalue()

    def run_pass(self, check: bool, tracer: layertrace.Tracer | None = None) -> tuple[list[float], list[float]]:
        """Job times and reference times of one pass over the list."""
        times, refs = [], []
        for i, (name, doc) in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = i
            elapsed, ref, status, text, err = self.run_job(i)
            times.append(elapsed)
            refs.append(ref)
            if status != 0:
                self.problems.setdefault(name, []).append(f"exit status {status}: {err.strip()[-300:]}")
                continue
            if check:
                self.output_hash[i] = hash(text)
                report = json.loads(text)
                found = self.checker.check(doc, report)
                if found:
                    self.problems.setdefault(name, []).extend(found)
                self.digests[i] = checks.digest(report)
            elif hash(text) != self.output_hash[i]:
                self.problems.setdefault(name, []).append("report differs from the first pass")
        if check:
            freeze_heap()
        return times, refs


def freeze_heap() -> None:
    """Move the benchmark's own long-lived objects (checker caches, job
    lists) out of the collector's reach, so that collections inside a job
    and the collect() before each job scan only what the job allocates, as
    in a fresh growthtight process."""
    gc.collect()
    gc.freeze()


def run_untraced(bench: Bench, seconds: float, walls: list[float]):
    """Job times and reference times, one list of each per pass."""
    passes: list[list[float]] = []
    refs: list[list[float]] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        times, pass_refs = bench.run_pass(check=not passes)
        passes.append(times)
        refs.append(pass_refs)
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        estimate = walls[-1]
        if len(passes) >= MIN_PASSES and elapsed + estimate > seconds:
            break
        if elapsed + estimate > HARD_LIMIT_S:
            break
    return passes, refs


def run_traced(bench: Bench, seconds: float, spans_path: str):
    """Alternate untraced and traced passes; the first (untraced) pass checks."""
    tracer = layertrace.Tracer()
    untraced: list[list[float]] = []
    traced: list[list[float]] = []
    summaries: list[dict] = []
    walls = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    with open(spans_path, "w", encoding="utf-8") as spans:
        while True:
            tracing = len(untraced) > len(traced)
            t0 = time.perf_counter()
            if tracing:
                tracer.reset()
                tracer.install()
                try:
                    traced.append(bench.run_pass(check=False, tracer=tracer)[0])
                finally:
                    tracer.uninstall()
                summaries.append(tracer.summary())
                tracer.write(spans, len(traced) - 1)
            else:
                untraced.append(bench.run_pass(check=not untraced)[0])
            walls[tracing] = time.perf_counter() - t0
            elapsed = time.perf_counter() - start
            estimate = walls[not tracing] or walls[tracing]
            if traced and elapsed + estimate > seconds:
                break
            if elapsed + estimate > HARD_LIMIT_S:
                break
    return untraced, traced, summaries


def at_reference_speed(passes: list[list[float]], refs: list[list[float]]) -> list[list[float]]:
    """Each job time scaled by REFERENCE_S over the median reference time
    next to it and its neighbours in the same pass."""
    scaled = []
    for times, pass_refs in zip(passes, refs):
        row = []
        for j, t in enumerate(times):
            local = statistics.median(pass_refs[max(0, j - REFERENCE_WINDOW): j + REFERENCE_WINDOW + 1])
            row.append(t * REFERENCE_S / local)
        scaled.append(row)
    return scaled


def end_to_end(passes: list[list[float]], setup: list[float]) -> dict:
    # mean, not median, over passes: a per-job median follows whichever
    # speed level held most passes (see perfbench/NOTES.md)
    per_job = [statistics.fmean(t) for t in zip(*passes)]
    runs = len(per_job) * len(passes)
    values = {
        "jobs_per_s": (runs / sum(map(sum, passes)), runs),
        "job_s.p50": (statistics.median(per_job), len(per_job)),
        "job_s.p90": (statistics.quantiles(per_job, n=10)[-1], len(per_job)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "setup_s": (statistics.median(setup), len(setup)),
    }
    return {
        name: {"value": value, "unit": END_TO_END_UNITS[name], "samples": samples}
        for name, (value, samples) in values.items()
    }


def per_layer(untraced, traced, summaries) -> dict:
    metrics = {}
    for name, (function, field, unit) in PER_LAYER.items():
        values = [s[function].get(field, 0) for s in summaries]
        # counts repeat exactly from pass to pass; keep them whole numbers
        middle = statistics.median(values) if unit == "s" else statistics.median_low(values)
        metrics[name] = {"value": middle, "unit": unit, "samples": len(values)}
    shortens = [s["tree.shorten"] for s in summaries]
    ratios = [s.get("useful", 0) / s["calls"] if s["calls"] else 0.0 for s in shortens]
    metrics["tree.shorten.useful_ratio"] = {
        "value": statistics.median(ratios), "unit": "ratio", "samples": len(ratios)
    }
    for layer in LAYERS:
        values = [
            sum(v["self_s"] for k, v in s.items() if k.split(".")[0] == layer) for s in summaries
        ]
        metrics[f"{layer}.self_s"] = {"value": statistics.median(values), "unit": "s", "samples": len(values)}
    traced_wall = statistics.median(sum(t) for t in traced)
    untraced_wall = statistics.median(sum(t) for t in untraced)
    metrics["trace.overhead_ratio"] = {
        "value": traced_wall / untraced_wall, "unit": "ratio", "samples": len(traced) + len(untraced)
    }
    return metrics


def overall_digest(names, digests) -> str:
    text = "\n".join(f"{n} {d}" for n, d in sorted(zip(names, digests)))
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its work directory (finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = os.getcwd()
    cli = import_package(root)
    if cli is None or not os.path.isdir(os.path.join(root, "jobs")):
        print("perfbench: no growthtight source tree here (need src/growthtight and jobs/); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    jobs = workloads.generate(args.workload, args.seed, root)
    names = [name for name, _ in jobs]
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    work_dir = os.path.join(root, ".perfbench", "work", stamp)
    out_dir = os.path.abspath(args.out)
    os.makedirs(out_dir, exist_ok=True)
    try:
        paths = workloads.write_jobs(jobs, work_dir)
        setup_path = workloads.write_jobs([("setup-trivial", SETUP_JOB)], work_dir)[0]
        setup: list[float] = []
        setup_errors: list[str] = []
        setup_refs: list[float] = []
        if args.trace == 0:
            setup, setup_refs, setup_errors = measure_setup(os.path.join(root, "src"), setup_path)
        bench = Bench(cli, jobs, paths)
        pass_walls: list[float] = []
        job_times: dict = {}
        job_refs: dict = {}
        # warm-up: lazy imports (numpy) and first-call costs outside the timing
        bench.run_job(0)
        freeze_heap()
        raw_metrics: dict = {}
        if args.trace == 0:
            passes, refs = run_untraced(bench, args.seconds, pass_walls)
            scaled_setup = [t * SETUP_REFERENCE_S / r for t, r in zip(setup, setup_refs)]
            metrics = end_to_end(at_reference_speed(passes, refs), scaled_setup)
            raw_metrics = {k: v for k, v in end_to_end(passes, setup).items() if k != "peak_rss_mb"}
            pass_count = len(passes)
            job_times = dict(zip(names, zip(*passes)))
            job_refs = dict(zip(names, zip(*refs)))
        else:
            spans_path = os.path.join(out_dir, stamp + "-spans.jsonl")
            untraced, traced, summaries = run_traced(bench, args.seconds, spans_path)
            metrics = per_layer(untraced, traced, summaries)
            pass_count = len(untraced) + len(traced)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = len(bench.problems)
    correct = failed == 0 and not setup_errors and all(d is not None for d in bench.digests)
    digest = overall_digest(names, [d or "" for d in bench.digests])
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": pass_count,
        "pass_walls_s": pass_walls,
        "kind_mix": workloads.kind_mix(jobs),
        "correct": correct,
        "attempted": len(jobs),
        "failed": failed,
        "failed_ratio": failed / len(jobs),
        "problems": bench.problems,
        "setup_errors": setup_errors,
        "metrics": metrics,
        "unscaled_metrics": raw_metrics,
        "reference_s": REFERENCE_S,
        "setup_s_samples": setup,
        "setup_reference_s": setup_refs,
        "digest": digest,
        "job_digests": dict(zip(names, bench.digests)),
        "job_times_s": job_times,
        "job_reference_s": job_refs,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    with open(os.path.join(out_dir, stamp + ".json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} jobs={len(jobs)} "
          f"passes={pass_count} mix={json.dumps(result['kind_mix'])}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']:6s} (samples: {m['samples']})")
    for name, m in raw_metrics.items():
        print(f"  {name + ' unscaled':40s} {m['value']:>16.6g} {m['unit']:6s} (samples: {m['samples']})")
    print(f"  {'failed_ratio':40s} {result['failed_ratio']:>16.6g} ratio  ({failed}/{len(jobs)} jobs)")
    print(f"  exact-field digest {digest}")
    for name, found in sorted(bench.problems.items()):
        print(f"  FAILED {name}: {'; '.join(found)[:500]}")
    for error in setup_errors:
        print(f"  SETUP FAILED: {error}")
    summary = {
        "correct": correct,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
