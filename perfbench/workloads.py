"""The workloads: their inputs, one pass over them, and the checks.

A pass runs every target of a workload once, in order, in one process: one
caller that issues each call after the previous one returned (a closed loop
with a single client). Inputs come from the benchmark seed through numpy's
own generator; statesynth receives only the generated states and plan seeds.

Every call is an operation. An operation fails when it raises, when its
report breaks the paper's guarantee, or (checked by run.py) when its digest
differs from the golden digest or from another pass of the same run.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

import statesynth.executors as executors
import statesynth.synthesis as synthesis
import statesynth.verify as verify
from statesynth.numerics import PureState
from tracer import VERIFY_SUITES

ALL_DRIVERS = ("postselect", "one_query", "ten_query", "four_query")
VERIFY_INSTANCES = 4

#: Plan workloads: name -> (strategy, [(n, epsilon) per target], drivers).
#: The fourth workload, "verify", runs VERIFY_SUITES instead.
PLAN_WORKLOADS = {
    # Tiny plans, where per-call Python and numpy overhead dominates.
    "small-n": ("clifford", [(n, eps) for n in (1, 2, 3) for eps in (0.1, 0.01)], ALL_DRIVERS),
    # The 2^n work and the per-index CNOT permutation dominate. epsilon 0.25
    # (T = 256) rather than 0.01 (T = 1024) keeps a pass short enough that a
    # run holds several; the per-step work, which grows with 2^n, is the same.
    "large-n": ("clifford", [(6, 0.25)], ALL_DRIVERS),
    # Hash steps never touch the Clifford search or kernel. run_ten_query
    # refuses hash plans (nominal amplitude below sin(pi/18)), and
    # run_four_query breaks its error bound on about 5 % of hash plans (4 of
    # 80 targets at n = 5, error up to 0.66 at epsilon 0.01), so neither is
    # called on them.
    "hash": ("hash", [(5, 0.01), (8, 0.01)], ("postselect", "one_query")),
}


def warm_up() -> None:
    """One small end-to-end call, so lazy set-up is paid before timing."""
    psi = PureState(1, np.array([0.6, 0.8j]))
    plan = synthesis.build_plan(psi, synthesis.derive_params(1, 0.1, t_override=2), seed=1)
    executors.run_postselect(plan, synthesis.plan_to_oracle(plan))


def make_inputs(workload: str, seed: int):
    """The workload's inputs for `seed`: its targets as (id, n, epsilon,
    target, plan seed), or for "verify" the seed its suites run with."""
    if workload == "verify":
        return int(np.random.default_rng(seed).integers(2**31))
    strategy, grid, _drivers = PLAN_WORKLOADS[workload]
    targets = []
    for i, (n, eps) in enumerate(grid):
        rng = np.random.default_rng([seed, i])
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        amps /= np.linalg.norm(amps)
        targets.append((f"{strategy[0]}{i}", n, eps, PureState(n, amps),
                        int(rng.integers(2**31))))
    return targets


def _g(value) -> str:
    return "None" if value is None else format(value, ".12g")


def report_digest(report) -> str:
    """sha256 of a report's non-timing scalar fields, to 12 significant digits
    so that last-bit differences between floating-point builds do not count."""
    fields = (report.query_count, report.success_amplitude, report.error_2norm,
              report.error_trace)
    text = "|".join(_g(v) for v in fields)
    return hashlib.sha256(text.encode()).hexdigest()


def check_report(driver: str, report, plan, eps: float) -> str | None:
    """The paper's guarantee for the driver, or None when it holds."""
    expected_queries = {"postselect": 1, "one_query": 1, "ten_query": 10, "four_query": 4}
    if report.query_count != expected_queries[driver]:
        return f"query_count {report.query_count} != {expected_queries[driver]}"
    if driver == "postselect":
        gamma = synthesis.nominal_success_amplitude(plan)
        if abs(report.success_amplitude - gamma) > eps:
            return f"|amplitude {report.success_amplitude} - gamma {gamma}| > {eps}"
    if driver == "one_query":
        if not report.error_trace <= eps:
            return f"error_trace {report.error_trace} > {eps}"
    elif not report.error_2norm <= eps:
        return f"error_2norm {report.error_2norm} > {eps}"
    return None


def _call_driver(driver: str, psi, eps, plan, oracle):
    if driver == "postselect":
        return executors.run_postselect(plan, oracle)
    return getattr(executors, f"run_{driver}")(psi, eps, plan=plan, oracle=oracle)


_CAL_ARRAY = np.linspace(-1.0, 1.0, 64)


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array numpy work
    that does not involve statesynth: a probe of the host's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(12000):
        acc ^= bin(i * 40503 & 0xFFFF).count("1") << (i & 7)
    v = _CAL_ARRAY
    for _ in range(150):
        v = np.abs(v - 0.5) * 1.5
    return time.perf_counter() - start


class Timer:
    """Wall and CPU seconds of each timed unit of a pass, by unit id, with the
    `calibrate` time taken just before and just after the unit."""

    def __init__(self) -> None:
        self.units: dict[str, list[float]] = {}
        self.last_cal = calibrate()

    def __call__(self, unit: str, fn, *args, **kwargs):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            took = [time.perf_counter() - wall, time.process_time() - cpu]
            cal = calibrate()
            self.units[unit] = took + [self.last_cal, cal]
            self.last_cal = cal


def _oracle_round_trip(plan):
    oracle = synthesis.plan_to_oracle(plan)
    data = oracle.to_bytes()
    return oracle, data, synthesis.OracleSpec.from_bytes(data)


def _plan_pass(strategy: str, drivers, inputs, timed: Timer, tracer) -> list[dict]:
    derive = synthesis.derive_hash_params if strategy == "hash" else synthesis.derive_params
    ops: list[dict] = []
    for tid, n, eps, psi, plan_seed in inputs:
        if tracer is not None:
            tracer.target = tid
        op = {"id": f"{tid}.plan", "ok": False, "digest": None, "error": None}
        ops.append(op)
        try:
            plan = timed(f"{tid}.plan", synthesis.build_plan, psi, derive(n, eps),
                         strategy=strategy, seed=plan_seed)
            oracle, data, back = timed(f"{tid}.oracle", _oracle_round_trip, plan)
        except Exception as exc:  # a failed operation is counted, not fatal
            op["error"] = repr(exc)
            ops.extend({"id": f"{tid}.{d}", "ok": False, "digest": None,
                        "error": "no plan"} for d in drivers)
            continue
        same = (back.n, back.t, back.T, back.desc_section) == (
            oracle.n, oracle.t, oracle.T, oracle.desc_section
        ) and np.array_equal(back.sign_bits, oracle.sign_bits)
        op["ok"] = same
        op["error"] = None if same else "oracle bytes do not round-trip"
        op["digest"] = hashlib.sha256(
            data + _g(plan.residual_norms[-1]).encode()).hexdigest()
        for driver in drivers:
            op = {"id": f"{tid}.{driver}", "ok": False, "digest": None, "error": None}
            ops.append(op)
            try:
                report = timed(f"{tid}.{driver}", _call_driver, driver, psi, eps, plan, oracle)
            except Exception as exc:  # a failed operation is counted, not fatal
                op["error"] = repr(exc)
                continue
            op["error"] = check_report(driver, report, plan, eps)
            op["ok"] = op["error"] is None
            op["digest"] = report_digest(report)
    return ops


def _verify_pass(verify_seed: int, timed: Timer, tracer) -> list[dict]:
    if tracer is not None:
        tracer.target = "verify"
    ops = []
    for suite in VERIFY_SUITES:
        try:
            results = timed(f"verify.{suite}", verify.run_suite, suite,
                            instances=VERIFY_INSTANCES, seed=verify_seed)
        except Exception as exc:  # a failed operation is counted, not fatal
            ops.append({"id": suite, "ok": False, "digest": None, "error": repr(exc)})
            continue
        for r in results:
            text = repr((r.suite, r.name, r.instances, r.failures, r.detail))
            ops.append({"id": f"{r.suite}.{r.name}", "ok": r.passed,
                        "digest": hashlib.sha256(text.encode()).hexdigest(),
                        "error": None if r.passed else r.detail})
    return ops


def run_pass(workload: str, inputs, tracer=None) -> tuple[list[dict], dict]:
    """One pass: (operations with their check results and digests, the
    [wall, cpu] seconds of each timed unit: a plan, an oracle round trip, a
    driver call or a verify suite)."""
    timed = Timer()
    if workload == "verify":
        ops = _verify_pass(inputs, timed, tracer)
    else:
        strategy, _grid, drivers = PLAN_WORKLOADS[workload]
        ops = _plan_pass(strategy, drivers, inputs, timed, tracer)
    return ops, timed.units
