"""statesynth benchmark: end-to-end and per-layer numbers for four workloads.

Run from the root of a source checkout (the directory holding src/):

    python3 perfbench/run.py --workload large-n --seed 0 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 0         # one row per workload
    python3 perfbench/run.py --workload hash --profile       # cProfile top 15
    python3 perfbench/run.py --workload all --seed 7919 --record-golden

Every pass runs in a fresh child process (perfbench/worker.py), one at a
time. With --trace 0 the run times passes until --seconds is used up. Each
timed unit of a pass (a plan, a driver call, ...) is scaled to a reference
host speed by a calibration loop run just before and after it, and the run
sums the units' medians over the passes; with --trace 1 it runs untraced and traced passes in turn and reports the
per-layer metrics and the tracing overhead. The last line of stdout is one
JSON object: correct, attempted, failed, metrics. Full results go to
.perfbench_out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKER = BENCH_DIR / "worker.py"
GOLDEN = BENCH_DIR / "golden.json"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("small-n", "large-n", "hash", "verify")
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
#: Setup-only children per timed run, on top of one set-up per pass.
SETUP_SAMPLES = 5
#: Every run ends within this many seconds, whatever --seconds says.
RUN_LIMIT_S = 170.0

#: Seconds `workloads.calibrate` takes at the reference host speed. Every
#: reported time is scaled to it (see `reference_s`).
CAL_REF_S = 0.004
#: Untraced and traced passes per traced run.
TRACE_ROUNDS = 2

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
#: The `--workload all` table: the gated metrics, the stage sums and fail_ratio.
TABLE_COLUMNS = END_TO_END[:3] + tuple(
    (f"{stage}_s", "s") for stage in ("plan", "postselect", "one_query", "ten_query", "four_query")
) + (("peak_rss_mb", "MB"), ("fail_ratio", "1"))


class ChildError(RuntimeError):
    """A benchmark process failed to set up, crashed, or ran out of time."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + str(BENCH_DIR)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(mode: str, workload: str, seed: int, deadline: float, spans_path=None):
    """Start one worker; return (set-up seconds, ready message, pass result).

    The set-up seconds leave out the calibration the worker runs before it
    reports ready."""
    config = {"mode": mode, "workload": workload, "seed": seed, "spans_path": spans_path}
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(config)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, bufsize=0,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - start
        if not line:
            raise ChildError(f"{mode} process for {workload} did not finish set-up")
        message = json.loads(line)
        setup_s -= message["cal_s"]
        out, _ = proc.communicate(
            input=b"" if mode == "setup" else b"go\n",
            timeout=max(0.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"{mode} process for {workload} ran out of time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise ChildError(f"{mode} process for {workload} exited with {proc.returncode}")
    if mode == "setup":
        return setup_s, message, None
    lines = out.decode().strip().splitlines()
    if not lines:
        raise ChildError(f"{mode} process for {workload} printed no result")
    return setup_s, message, json.loads(lines[-1])


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def check_passes(passes: list[dict], golden: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, first problems) over every operation of every pass.

    An operation fails when its own check failed, when its digest differs
    from the golden one, or when it differs from the first pass's digest.
    """
    reference = {op["id"]: op["digest"] for op in passes[0]["ops"]}
    attempted = failed = 0
    problems: list[str] = []
    for number, result in enumerate(passes):
        seen = set()
        for op in result["ops"]:
            seen.add(op["id"])
            attempted += 1
            why = op["error"] if not op["ok"] else None
            if why is None and golden is not None and golden.get(op["id"]) != op["digest"]:
                why = "digest differs from the golden digest"
            if why is None and reference.get(op["id"]) != op["digest"]:
                why = "digest differs from pass 0"
            if why is not None:
                failed += 1
                problems.append(f"pass {number} {op['id']}: {why}")
        if golden is not None:
            missing = set(golden) - seen
            attempted += len(missing)
            failed += len(missing)
            problems += [f"pass {number} {op_id}: not run" for op_id in sorted(missing)]
    return attempted, failed, problems[:10]


def provenance(ready: dict, loadavg: tuple) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = done.stdout.strip() or sha
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": ready.get("numpy"),
        "blas_threads": int(BLAS_THREADS),
        "loadavg_at_start": loadavg,
    }


def reference_s(seconds: float, cal: float) -> float:
    """`seconds` measured while `workloads.calibrate` took `cal` seconds,
    scaled to a host on which it takes CAL_REF_S."""
    return seconds * CAL_REF_S / cal


def unit_times(passes: list[dict]) -> dict[str, tuple[float, float]]:
    """Per timed unit, the median over passes of its wall and CPU seconds at
    reference speed, each scaled by the calibration taken around it."""
    samples: dict[str, list[tuple[float, float]]] = {}
    for result in passes:
        for unit, (wall, cpu, cal_before, cal_after) in result["units"].items():
            cal = (cal_before + cal_after) / 2
            samples.setdefault(unit, []).append((reference_s(wall, cal), reference_s(cpu, cal)))
    return {unit: (statistics.median(w for w, _ in got), statistics.median(c for _, c in got))
            for unit, got in samples.items()}


def stage_sums(times: dict[str, tuple[float, float]]) -> dict[str, float]:
    """Unit wall times summed per stage: unit "<target>.<stage>" goes to
    "<stage>_s" (plan_s, oracle_s, postselect_s, ...), "verify.<suite>" to
    "verify.<suite>_s"."""
    sums: dict[str, float] = {}
    for unit, (wall, _cpu) in times.items():
        head, stage = unit.split(".", 1)
        key = f"{unit}_s" if head == "verify" else f"{stage}_s"
        sums[key] = sums.get(key, 0.0) + wall
    return sums


def measure(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    """Timed run: set-up samples, then fresh-process passes while the next
    one still fits in `seconds` (at least one)."""
    started = time.perf_counter()
    setups, ready = [], {}
    for _ in range(SETUP_SAMPLES):
        setup_s, ready, _ = run_child("setup", workload, seed, deadline)
        setups.append((setup_s, ready["cal"]))
    passes: list[dict] = []
    longest = 0.0
    while True:
        begun = time.perf_counter()
        setup_s, ready, result = run_child("pass", workload, seed, deadline)
        setups.append((setup_s, ready["cal"]))
        passes.append(result)
        longest = max(longest, time.perf_counter() - begun)
        now = time.perf_counter()
        if now - started + longest > seconds or now + 1.5 * longest > deadline:
            break
    times = unit_times(passes)
    metrics = {
        "setup_s": statistics.median(reference_s(s, cal) for s, cal in setups),
        "wall_s": sum(wall for wall, _cpu in times.values()),
        "cpu_s": sum(cpu for _wall, cpu in times.values()),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    cals = [cal for p in passes for unit in p["units"].values() for cal in unit[2:]]
    info = {
        **stage_sums(times),
        "measured_setup_s": statistics.median(s for s, _cal in setups),
        "measured_pass_wall_s": statistics.median(p["wall_s"] for p in passes),
        "calibrate_ms": 1000 * statistics.median(cals),
    }
    return {"ready": ready, "passes": passes, "setups": setups, "metrics": metrics,
            "info": info}


def trace(workload: str, seed: int, deadline: float) -> dict:
    """Traced run: untraced and traced passes in turn, each in a fresh process.

    The per-layer metrics come from the first traced pass; the overhead
    compares the wall times (as for wall_s) of the traced and untraced passes.
    """
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    plain, traced = [], []
    for _ in range(TRACE_ROUNDS):
        _, ready, result = run_child("pass", workload, seed, deadline)
        plain.append(result)
        _, _, result = run_child("trace", workload, seed, deadline, str(spans_path))
        traced.append(result)
    untraced_s = sum(wall for wall, _cpu in unit_times(plain).values())
    traced_s = sum(wall for wall, _cpu in unit_times(traced).values())
    layers = dict(traced[0]["layers"])
    layers["trace.overhead"] = traced_s / untraced_s
    return {"ready": ready, "passes": [p for pair in zip(plain, traced) for p in pair],
            "metrics": layers, "info": {"untraced_wall_s": untraced_s, "traced_wall_s": traced_s},
            "spans_path": str(spans_path.relative_to(ROOT))}


def run_workload(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    loadavg = os.getloadavg()
    deadline = time.perf_counter() + RUN_LIMIT_S
    run = trace(workload, seed, deadline) if traced else measure(
        workload, seed, seconds, deadline)
    golden = load_golden().get(workload, {}).get(str(seed))
    attempted, failed, problems = check_passes(run["passes"], golden)
    run.update(workload=workload, seed=seed, seconds=seconds, trace=int(traced),
               golden_checked=golden is not None, attempted=attempted, failed=failed,
               problems=problems, provenance=provenance(run["ready"], loadavg))
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{workload}-seed{seed}-trace{int(traced)}.json"
    (OUT_DIR / name).write_text(json.dumps(run, indent=1) + "\n")
    return run


def metric_units(traced: bool) -> list[tuple[str, str]]:
    if traced:
        return [(name, unit) for name, unit, _better in LAYER_METRICS]
    return list(END_TO_END)


def print_run(run: dict) -> None:
    print(f"# workload={run['workload']} seed={run['seed']} trace={run['trace']} "
          f"passes={len(run['passes'])} golden_checked={run['golden_checked']}")
    print("# provenance " + json.dumps(run["provenance"]))
    rows = [(name, run["metrics"][name], unit) for name, unit in metric_units(run["trace"])]
    rows += [(name, value, "ms" if name.endswith("_ms") else "s")
             for name, value in run["info"].items()]
    rows.append(("fail_ratio", run["failed"] / run["attempted"], "1"))
    for name, value, unit in rows:
        print(f"{name:40s} {value:14.6g} {unit}")
    for problem in run["problems"]:
        print(f"# FAILED {problem}")


def result_metrics(run: dict) -> dict:
    return {name: {"value": run["metrics"][name], "unit": unit}
            for name, unit in metric_units(run["trace"])}


def print_table(runs: list[dict]) -> None:
    """One row per workload with every end-to-end metric; "-" where a
    workload has no such stage."""
    print("workload " + "".join(f"{f'{n}[{u}]':>17s}" for n, u in TABLE_COLUMNS))
    for run in runs:
        values = {**run["metrics"], **run["info"], "fail_ratio": run["failed"] / run["attempted"]}
        cells = (f"{values[n]:17.6g}" if n in values else f"{'-':>17s}" for n, _ in TABLE_COLUMNS)
        print(f"{run['workload']:8s} " + "".join(cells))


def profile(workload: str, seed: int) -> int:
    _, _, result = run_child("profile", workload, seed, time.perf_counter() + RUN_LIMIT_S)
    print(result["profile"])
    failed = sum(not op["ok"] for op in result["ops"])
    print(f"# profiled one pass of {workload} seed {seed}: {failed} failed operations")
    return 0


def record_golden(workloads: list[str], seed: int) -> int:
    golden = load_golden()
    for workload in workloads:
        _, _, result = run_child("pass", workload, seed, time.perf_counter() + RUN_LIMIT_S)
        bad = [op["id"] for op in result["ops"] if not op["ok"]]
        if bad:
            print(f"not recording {workload} seed {seed}: failed {bad}", file=sys.stderr)
            return 1
        golden.setdefault(workload, {})[str(seed)] = {
            op["id"]: op["digest"] for op in result["ops"]}
        print(f"recorded {len(result['ops'])} digests for {workload} seed {seed}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=int, default=32,
                        help="time budget for the timed passes of one workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="print the cProfile top 15 of one pass instead of timing")
    parser.add_argument("--record-golden", action="store_true",
                        help="write this seed's output digests to perfbench/golden.json")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "statesynth" / "__init__.py").is_file():
        print(f"no statesynth sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.record_golden:
            return record_golden(names, args.seed)
        if args.profile:
            return profile(names[0], args.seed)
        runs = []
        for name in names:
            runs.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            print_run(runs[-1])
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    summary = {
        "correct": all(r["failed"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }
    if len(runs) == 1:
        summary["metrics"] = result_metrics(runs[0])
    else:
        if not args.trace:
            print_table(runs)
        summary["workloads"] = {r["workload"]: result_metrics(r) for r in runs}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
