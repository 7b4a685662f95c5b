"""Outside-in tracing: time the package's layers by wrapping their public
functions, without editing the package.

A wrapper replaces a function in every growthtight module namespace that
binds it, because modules import each other's functions by name.  Each call
is a span (name, start, end, parent span, job id, error, work counts); a
span's self time is its duration minus the durations of its direct child
spans.  Functions called ~10^5 times per job are aggregated per parent span
instead of recorded one by one.
"""
from __future__ import annotations

import functools
import json
import sys
import time


PACKAGE = "growthtight"


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


# (module, function, work counters from (args, kwargs, result), aggregated)
TARGETS = (
    ("automata", "perron_root", lambda a, k, r: {"states": _arg(a, k, 0, "aut").n_states}, False),
    ("automata", "avoid_factors", lambda a, k, r: {"states": r.n_states}, False),
    (
        "automata",
        "count_lengths",
        lambda a, k, r: {"steps": _arg(a, k, 1, "r_max") * len(_arg(a, k, 0, "aut").transitions)},
        False,
    ),
    ("products", "product_ball_counts", None, False),
    ("products", "verify_duality", None, False),
    ("quotients", "quotient_ball_counts", None, False),
    ("quotients", "minimal_section", lambda a, k, r: {"size": r.size}, False),
    ("quotients", "check_prop_minimal", None, False),
    ("quotients", "tightness_verdict", None, False),
    ("words", "enumerate_sphere", lambda a, k, r: {"words": len(r)}, False),
    ("tree", "ghat_membership_exact", None, True),
    ("tree", "shorten", lambda a, k, r: {"useful": r is not None}, True),
    ("tree", "check_projection_axioms", None, False),
    ("tree", "lemma31_bound_check", None, True),
    ("growth", "regression_bracket", None, False),
    ("growth", "check_subadditivity", None, False),
    ("reports", "canonical_json", lambda a, k, r: {"bytes": len(r.encode())}, False),
    ("cli", "main", None, False),
)


class Tracer:
    """Spans of one traced pass at a time; install() patches, uninstall()
    restores the original functions."""

    def __init__(self):
        self.job = None
        self.spans: list[list] = []
        self.aggregates: dict[tuple, list] = {}
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    # --- patching -------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module_name, func_name, measure, aggregated in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], func_name)
            qualname = f"{module_name}.{func_name}"
            wrapper = self._wrap(qualname, original, measure, aggregated)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans = []
        self.aggregates = {}

    # --- spans ----------------------------------------------------------

    def _wrap(self, qualname, fn, measure, aggregated):
        stack = self._stack
        perf = time.perf_counter

        def close(frame, parent, t0, t1, error, work):
            duration = t1 - t0
            if parent is not None:
                parent[0] += duration
            self_time = duration - frame[0]
            if aggregated:
                key = (qualname, frame[1], self.job)
                agg = self.aggregates.get(key)
                if agg is None:
                    agg = self.aggregates[key] = [0, 0.0, 0.0, 0, {}]
                agg[0] += 1
                agg[1] += duration
                agg[2] += self_time
                agg[3] += error is not None
                if work:
                    for name, value in work.items():
                        agg[4][name] = agg[4].get(name, 0) + value
            else:
                parent_index = parent[1] if parent is not None else None
                self.spans[frame[1]] = [
                    qualname, t0, t1, parent_index, self.job, self_time, error, work or {}
                ]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if aggregated:
                # children of an aggregated call hang off the nearest real span
                frame = [0.0, parent[1] if parent is not None else None]
            else:
                frame = [0.0, len(self.spans)]
                self.spans.append(None)
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf()
                stack.pop()
                close(frame, parent, t0, t1, type(exc).__name__, None)
                raise
            t1 = perf()
            stack.pop()
            close(frame, parent, t0, t1, None, measure(args, kwargs, result) if measure else None)
            return result

        return wrapper

    # --- summaries ------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per function: calls, self time, errors and summed work counts."""
        out: dict[str, dict] = {
            f"{m}.{f}": {"calls": 0, "self_s": 0.0, "errors": 0} for m, f, _, _ in TARGETS
        }
        for name, _, _, _, _, self_time, error, work in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += self_time
            entry["errors"] += error is not None
            for key, value in work.items():
                entry[key] = entry.get(key, 0) + value
        for (name, _, _), (calls, _, self_time, errors, work) in self.aggregates.items():
            entry = out[name]
            entry["calls"] += calls
            entry["self_s"] += self_time
            entry["errors"] += errors
            for key, value in work.items():
                entry[key] = entry.get(key, 0) + value
        return out

    def write(self, fh, pass_index: int) -> None:
        """Append this pass's spans and aggregates as JSON lines."""
        for name, t0, t1, parent, job, self_time, error, work in self.spans:
            record = {
                "pass": pass_index, "name": name, "start": t0, "end": t1, "parent": parent,
                "job": job, "self_s": self_time, "error": error, **work,
            }
            fh.write(json.dumps(record) + "\n")
        for (name, parent, job), (calls, total, self_time, errors, work) in self.aggregates.items():
            record = {
                "pass": pass_index, "name": name, "parent": parent, "job": job, "aggregated": True,
                "calls": calls, "total_s": total, "self_s": self_time, "errors": errors, **work,
            }
            fh.write(json.dumps(record) + "\n")
