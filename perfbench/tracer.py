"""In-memory spans and counts around statesynth's public functions.

The tracer never edits the package's files: `install` replaces module
attributes (and methods of `PostselectCircuit` and `OracleSpec`) with
wrappers, at every module that looks the function up, so the callers inside
statesynth reach the wrapper.
Each span is `[name, start, end, parent, target, child_s]`, where `parent`
is the index of the enclosing span (-1 at top level) and `child_s` the time
its direct children took; a layer's self time is its spans' durations minus
their `child_s`.

Functions called millions of times per pass (`f2linalg.apply_to_index`,
`perturbed_sign`) are leaves: they are aggregated into a count and a summed
time, charged to the enclosing span's `child_s`, instead of being kept as
one span each. `f2linalg.rank` and `random_clifford_from` are counted only.
"""

from __future__ import annotations

import functools
import json
import sys
import time

NAME, START, END, PARENT, TARGET, CHILD = range(6)

# Layers whose span count is reported as `<layer>.calls`.
_CALL_LAYERS = ("clifford.search", "clifford.apply", "executors.circuit_build",
                "executors.circuit_apply", "numerics.trace_distance_mixed")
#: The verify suites the verify workload runs. The f2linalg and geometry
#: suites are left out: each has a Monte Carlo check that fails on some
#: seeds (f2linalg's invertible fraction on 26 of 100 seeds at 8 instances,
#: geometry's d = 5 sphere measure on 22 of 300), so their outcome depends on
#: the seed, not on the change being measured.
VERIFY_SUITES = ("numerics", "clifford", "synthesis", "executors", "cli")

#: Every per-layer metric the traced run reports, with its unit and the
#: direction that counts as better.
LAYER_METRICS = (
    ("clifford.search.calls", "count", "lower"),
    ("clifford.search.trials", "count", "lower"),
    ("clifford.search.hit_ratio", "ratio", "higher"),
    ("clifford.search.self_s", "s", "lower"),
    ("clifford.apply.calls", "count", "lower"),
    ("clifford.apply.self_s", "s", "lower"),
    ("f2linalg.index_map.calls", "count", "lower"),
    ("f2linalg.index_map.s", "s", "lower"),
    ("f2linalg.rank.calls", "count", "lower"),
    ("synthesis.build_plan.self_s", "s", "lower"),
    ("synthesis.hash_search.calls", "count", "lower"),
    ("synthesis.hash_search.candidates", "count", "lower"),
    ("synthesis.hash_search.self_s", "s", "lower"),
    ("synthesis.perturbed_sign.calls", "count", "lower"),
    ("synthesis.perturbed_sign.s", "s", "lower"),
    ("synthesis.oracle.s", "s", "lower"),
    ("synthesis.oracle.bytes", "B", "lower"),
    ("executors.circuit_build.calls", "count", "lower"),
    ("executors.circuit_build.s", "s", "lower"),
    ("executors.circuit_apply.calls", "count", "lower"),
    ("executors.circuit_apply.self_s", "s", "lower"),
    ("executors.circuit_apply.bytes", "B-computed", "lower"),
    ("executors.postselect.self_s", "s", "lower"),
    ("executors.one_query.self_s", "s", "lower"),
    ("executors.ten_query.self_s", "s", "lower"),
    ("executors.four_query.self_s", "s", "lower"),
    ("executors.queries", "count", "lower"),
    ("numerics.trace_distance_mixed.calls", "count", "lower"),
    ("numerics.trace_distance_mixed.s", "s", "lower"),
    *((f"verify.{suite}.s", "s", "lower") for suite in VERIFY_SUITES),
    ("trace.overhead", "ratio", "lower"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.target = -1

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _top(self) -> str | None:
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    def span(self, name, fn, on_return=None):
        """Wrap `fn` so each call records one span called `name`.

        `name` may be a function of the call's arguments.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            label = name(*args, **kwargs) if callable(name) else name
            rec = [label, 0.0, 0.0, parent, self.target, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += end - rec[START]
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def leaf(self, name, fn, under: str | None = None):
        """Wrap `fn` so each call adds to `<name>.calls` and `<name>.s`.

        With `under`, only calls made directly inside a span of that name
        are counted and timed.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        calls_key, time_key = f"{name}.calls", f"{name}.s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if under is not None and self._top() != under:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                self.add(calls_key)
                self.add(time_key, took)
                if stack:
                    spans[stack[-1]][CHILD] += took

        return wrapper

    def counter(self, fn, rules):
        """Wrap `fn` so each call adds 1 to every key of `rules` whose
        required enclosing span (None for any) is the current one."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = self._top()
            for key, under in rules:
                if under is None or top == under:
                    self.add(key)
            return fn(*args, **kwargs)

        return wrapper

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except `trace.overhead`, derived from the
        spans and counts recorded so far."""
        self_s: dict[str, float] = {}
        inclusive_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        spans = self.spans
        for rec in spans:
            name = rec[NAME]
            took = rec[END] - rec[START]
            self_s[name] = self_s.get(name, 0.0) + took - rec[CHILD]
            calls[name] = calls.get(name, 0) + 1
            if rec[PARENT] < 0 or spans[rec[PARENT]][NAME] != name:
                inclusive_s[name] = inclusive_s.get(name, 0.0) + took
        c = self.counts
        out: dict[str, float] = {}
        for layer in _CALL_LAYERS:
            out[f"{layer}.calls"] = calls.get(layer, 0)
        search_calls = calls.get("clifford.search", 0)
        trials = search_calls + c.get("clifford.search.draws", 0)
        out["clifford.search.trials"] = trials
        out["clifford.search.hit_ratio"] = search_calls / trials if trials else 0.0
        out["clifford.search.self_s"] = self_s.get("clifford.search", 0.0)
        out["clifford.apply.self_s"] = self_s.get("clifford.apply", 0.0)
        for key in ("f2linalg.index_map", "synthesis.perturbed_sign"):
            out[f"{key}.calls"] = c.get(f"{key}.calls", 0)
            out[f"{key}.s"] = c.get(f"{key}.s", 0.0)
        out["f2linalg.rank.calls"] = c.get("f2linalg.rank.calls", 0)
        out["synthesis.build_plan.self_s"] = self_s.get("synthesis.build_plan", 0.0)
        out["synthesis.hash_search.calls"] = c.get("synthesis.hash_search.calls", 0)
        out["synthesis.hash_search.candidates"] = c.get(
            "synthesis.hash_search.candidates", 0)
        out["synthesis.hash_search.self_s"] = self_s.get("synthesis.hash_search", 0.0)
        out["synthesis.oracle.s"] = inclusive_s.get("synthesis.oracle", 0.0)
        out["synthesis.oracle.bytes"] = c.get("synthesis.oracle.bytes", 0)
        out["executors.circuit_build.s"] = inclusive_s.get("executors.circuit_build", 0.0)
        out["executors.circuit_apply.self_s"] = self_s.get("executors.circuit_apply", 0.0)
        out["executors.circuit_apply.bytes"] = c.get("executors.circuit_apply.bytes", 0)
        for driver in ("postselect", "one_query", "ten_query", "four_query"):
            out[f"executors.{driver}.self_s"] = self_s.get(f"executors.{driver}", 0.0)
        out["executors.queries"] = c.get("executors.queries", 0)
        out["numerics.trace_distance_mixed.s"] = inclusive_s.get(
            "numerics.trace_distance_mixed", 0.0)
        for suite in VERIFY_SUITES:
            out[f"verify.{suite}.s"] = inclusive_s.get(f"verify.{suite}", 0.0)
        return out


def _replace(original, wrapper, modules) -> None:
    """Point every attribute of `modules` that holds `original` at `wrapper`."""
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every statesynth layer."""
    from statesynth import clifford, f2linalg, synthesis, verify
    from statesynth.executors import common, one_query

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "statesynth" or name.startswith("statesynth.")]

    def wrap_everywhere(fn, wrapper):
        _replace(fn, wrapper, modules)

    wrap_everywhere(clifford.find_overlap_clifford,
                    tracer.span("clifford.search", clifford.find_overlap_clifford))
    wrap_everywhere(clifford.random_clifford_from, tracer.counter(
        clifford.random_clifford_from, [("clifford.search.draws", "clifford.search")]))
    for fn in (clifford.apply, clifford.apply_inverse, clifford.overlap_with_sign_state):
        wrap_everywhere(fn, tracer.span("clifford.apply", fn))
    for fn in (f2linalg.apply_to_index, f2linalg.apply_to_all):
        wrap_everywhere(fn, tracer.leaf("f2linalg.index_map", fn, under="clifford.apply"))
    wrap_everywhere(f2linalg.rank, tracer.counter(f2linalg.rank, [
        ("f2linalg.rank.calls", None),
        ("synthesis.hash_search.candidates", "synthesis.hash_search"),
    ]))

    wrap_everywhere(synthesis.build_plan,
                    tracer.span("synthesis.build_plan", synthesis.build_plan))
    wrap_everywhere(synthesis.hash_state_for, tracer.counter(
        tracer.span("synthesis.hash_search", synthesis.hash_state_for),
        [("synthesis.hash_search.calls", None)]))
    wrap_everywhere(synthesis.find_hash_matrix,
                    tracer.span("synthesis.hash_search", synthesis.find_hash_matrix))
    wrap_everywhere(synthesis.perturbed_sign,
                    tracer.leaf("synthesis.perturbed_sign", synthesis.perturbed_sign))
    wrap_everywhere(synthesis.plan_to_oracle,
                    tracer.span("synthesis.oracle", synthesis.plan_to_oracle))
    spec = synthesis.OracleSpec

    def count_oracle_bytes(_args, data) -> None:
        tracer.add("synthesis.oracle.bytes", len(data))

    spec.to_bytes = tracer.span("synthesis.oracle", spec.to_bytes, count_oracle_bytes)
    spec.from_bytes = staticmethod(tracer.span("synthesis.oracle", spec.from_bytes))

    circuit = common.PostselectCircuit
    circuit.__init__ = tracer.span("executors.circuit_build", circuit.__init__)

    def count_state_bytes(args, _result) -> None:
        tracer.add("executors.circuit_apply.bytes", args[0].rows * args[0].dim * 16)

    circuit.apply = tracer.span("executors.circuit_apply", circuit.apply, count_state_bytes)
    circuit.apply_dagger = tracer.span(
        "executors.circuit_apply", circuit.apply_dagger, count_state_bytes)

    def count_queries(_args, report) -> None:
        tracer.add("executors.queries", report.query_count)

    for driver in ("postselect", "one_query", "ten_query", "four_query"):
        fn = getattr(sys.modules["statesynth.executors"], f"run_{driver}")
        wrap_everywhere(fn, tracer.span(f"executors.{driver}", fn, count_queries))

    # Only the one-query driver's lookup, as the layer table defines it.
    _replace(one_query.trace_distance_mixed,
             tracer.span("numerics.trace_distance_mixed", one_query.trace_distance_mixed),
             [one_query])

    def suite_name(name, *_args, **_kwargs) -> str:
        return f"verify.{name}"

    verify.run_suite = tracer.span(suite_name, verify.run_suite)
