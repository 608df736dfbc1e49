"""Alternating A/B pairs of perfbench timed runs in two source checkouts.

    python3 tools/ab_pairs.py BASE_DIR CHANGE_DIR --workload hash --seed 0 \\
        --seconds 32 --pairs 10

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0` once in each checkout, one run at a time, from that checkout's
root and with its own perfbench: odd pairs run the base first, even pairs
the change first, so drift of the host's speed falls on both sides alike.
The script then prints, for every metric the runs print (the end-to-end
metrics, the stage sums and fail_ratio), the median and the quartiles on
each side, the change of the medians, and the number of pairs the change
won, a pair being won when its metric is lower on the change side (every
perfbench timing, memory and failure metric is better lower), and a
verdict:

- `gain`: the change won at least 9 of every 10 pairs (ties count for
  neither side) and its median is lower than the base's by more than the
  base's quartile spread (q3 - q1);
- for the end-to-end metrics, with their bounds read from the base
  checkout's BENCHMARK.json: `WORSE` when the change median is higher than
  the base's by more than the bound (relative to the base median);
  `unresolved` when the base's quartile spread is wider than the bound and
  not every change run is below every base run; else `within bound`.

A run that fails or prints `"correct": false` is reported and stops the
script.

Standard library only; it reads the runs' output and BENCHMARK.json and
changes no file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_run(stdout: str) -> dict:
    """The metrics of one perfbench run's stdout, {name: (value, unit)}.

    Metric lines are `<name> <value> <unit>`; lines starting with `#` and
    the closing JSON line are skipped, and that JSON line must report a
    correct run with no failed operation.
    """
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("run printed nothing")
    summary = json.loads(lines[-1])
    if summary.get("correct") is not True or summary.get("failed", 0):
        raise ValueError(f"run not correct: failed {summary.get('failed')}")
    metrics = {}
    for line in lines[:-1]:
        parts = line.split()
        if line.startswith("#") or len(parts) != 3:
            continue
        try:
            metrics[parts[0]] = (float(parts[1]), parts[2])
        except ValueError:
            continue
    return metrics


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def read_bounds(checkout: Path) -> dict[str, float]:
    """{name: bound} of the end-to-end metrics in the checkout's
    BENCHMARK.json; empty when it has none."""
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: float(m["bound"]) for m in spec.get("end_to_end", []) if "bound" in m}


def _verdict(base: list[float], change: list[float], bound: float | None) -> str:
    """The verdict of the module docstring for one metric (lower is better)."""
    (b1, b2, b3), (_, c2, _) = _quartiles(base), _quartiles(change)
    won = sum(c < b for b, c in zip(base, change))
    if 10 * won >= 9 * len(base) and b2 - c2 > b3 - b1:
        return "gain"
    if bound is None:
        return ""
    if c2 - b2 > bound * b2:
        return "WORSE"
    if b3 - b1 > bound * b2 and not max(change) < min(base):
        return "unresolved"
    return "within bound"


def summarize(pairs: list[tuple[dict, dict]], bounds: dict[str, float] | None = None) -> list[dict]:
    """One row per metric present on both sides of every pair: the base and
    change medians and quartiles, the relative change of the medians, the
    pairs won by the change (its value strictly lower) and the verdict,
    judged against `bounds` for the metrics it names."""
    if not pairs:
        return []
    bounds = bounds or {}
    names = [name for name in pairs[0][0] if all(name in b and name in c for b, c in pairs)]
    rows = []
    for name in names:
        base = [b[name][0] for b, _ in pairs]
        change = [c[name][0] for _, c in pairs]
        bq, cq = _quartiles(base), _quartiles(change)
        rows.append({
            "metric": name,
            "unit": pairs[0][0][name][1],
            "base": bq,
            "change": cq,
            "rel": (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0,
            "won": sum(c < b for b, c in zip(base, change)),
            "pairs": len(pairs),
            "verdict": _verdict(base, change, bounds.get(name)),
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    out = [f"{'metric':22s} {'base median (q1-q3)':>30s} {'change median (q1-q3)':>30s}"
           f" {'change':>8s} {'won':>6s}  verdict"]
    for r in rows:
        b, c = r["base"], r["change"]
        out.append(
            f"{r['metric']:22s} {b[1]:11.5g} ({b[0]:.5g}-{b[2]:.5g}) "
            f"{c[1]:11.5g} ({c[0]:.5g}-{c[2]:.5g}) {100 * r['rel']:+7.1f}% "
            f"{r['won']:>3d}/{r['pairs']}  {r['verdict']}".rstrip()
        )
    return "\n".join(out)


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: exit {done.returncode}\n{done.stderr[-2000:]}")
    return parse_run(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    args.base, args.change = args.base.resolve(), args.change.resolve()
    pairs = []
    for i in range(1, args.pairs + 1):
        order = [args.base, args.change] if i % 2 else [args.change, args.base]
        got = {side: run_once(side, args.workload, args.seed, args.seconds) for side in order}
        pairs.append((got[args.base], got[args.change]))
        print(f"# pair {i}: wall_s {got[args.base]['wall_s'][0]:.4g} -> "
              f"{got[args.change]['wall_s'][0]:.4g}", flush=True)
    print(f"# {args.workload} seed {args.seed}, {len(pairs)} pairs, "
          f"base {args.base}, change {args.change}")
    print(format_rows(summarize(pairs, read_bounds(args.base))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
