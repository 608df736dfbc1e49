"""tools/ab_pairs.py: parsing perfbench output and summarizing A/B pairs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def _stdout(wall: float, plan: float, rss: float, correct: bool = True, failed: int = 0) -> str:
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return "\n".join([
        "# workload=hash seed=0 trace=0 passes=4 golden_checked=True",
        '# provenance {"nproc": 2}',
        f"wall_s                                  {wall:14.6g} s",
        f"peak_rss_mb                             {rss:14.6g} MB",
        f"plan_s                                  {plan:14.6g} s",
        "fail_ratio                                            0 1",
        json.dumps({"correct": correct, "attempted": 24, "failed": failed, "metrics": metrics}),
    ]) + "\n"


def test_parse_run_reads_metric_lines():
    got = ab_pairs.parse_run(_stdout(1.25, 0.5, 67.0))
    assert got == {"wall_s": (1.25, "s"), "peak_rss_mb": (67.0, "MB"),
                   "plan_s": (0.5, "s"), "fail_ratio": (0.0, "1")}


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 1)])
def test_parse_run_refuses_a_failed_run(correct, failed):
    with pytest.raises(ValueError, match="not correct"):
        ab_pairs.parse_run(_stdout(1.0, 0.5, 67.0, correct=correct, failed=failed))


def test_summarize_medians_quartiles_and_pairs_won():
    base_walls = [1.40, 1.50, 1.45, 1.60, 1.42]
    change_walls = [1.20, 1.30, 1.50, 1.25, 1.21]
    pairs = [
        (ab_pairs.parse_run(_stdout(b, 0.5, 67.0)), ab_pairs.parse_run(_stdout(c, 0.4, 67.5)))
        for b, c in zip(base_walls, change_walls)
    ]
    rows = {row["metric"]: row for row in ab_pairs.summarize(pairs)}
    assert list(rows) == ["wall_s", "peak_rss_mb", "plan_s", "fail_ratio"]
    wall = rows["wall_s"]
    assert wall["base"] == pytest.approx((1.42, 1.45, 1.50))
    assert wall["change"] == pytest.approx((1.21, 1.25, 1.30))
    assert wall["rel"] == pytest.approx(1.25 / 1.45 - 1.0)
    # The third pair went the other way.
    assert (wall["won"], wall["pairs"]) == (4, 5)
    assert rows["plan_s"]["won"] == 5
    # Higher memory on every pair, and a tie on fail_ratio, win nothing.
    assert rows["peak_rss_mb"]["won"] == 0 and rows["fail_ratio"]["won"] == 0
    assert rows["fail_ratio"]["rel"] == 0.0
    text = ab_pairs.format_rows(ab_pairs.summarize(pairs))
    assert "wall_s" in text and "4/5" in text


def test_summarize_single_pair_and_no_pairs():
    pair = (ab_pairs.parse_run(_stdout(2.0, 0.5, 60.0)), ab_pairs.parse_run(_stdout(1.0, 0.5, 60.0)))
    wall = ab_pairs.summarize([pair])[0]
    assert wall["base"] == (2.0, 2.0, 2.0) and wall["change"] == (1.0, 1.0, 1.0)
    assert wall["won"] == 1
    assert ab_pairs.summarize([]) == []


def _pairs(base_walls: list[float], change_walls: list[float]) -> list[tuple[dict, dict]]:
    return [
        (ab_pairs.parse_run(_stdout(b, 0.5, 67.0)), ab_pairs.parse_run(_stdout(c, 0.5, 67.0)))
        for b, c in zip(base_walls, change_walls)
    ]


_BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


@pytest.mark.parametrize("change, verdict", [
    # 10 of 10 won, medians 0.2 apart against a base spread of about 0.03.
    ([b - 0.2 for b in _BASE], "gain"),
    # 9 of 10 won, one tie: ties count for neither side.
    ([b - 0.2 for b in _BASE[:9]] + [_BASE[9]], "gain"),
    # 8 of 10 won: no gain, however far apart the medians are.
    ([b - 0.2 for b in _BASE[:8]] + [b + 0.01 for b in _BASE[8:]], "within bound"),
    # 10 of 10 won by less than the base's quartile spread: no gain.
    ([b - 0.005 for b in _BASE], "within bound"),
    # Slower by 20 %, inside the 25 % bound.
    ([1.2 * b for b in _BASE], "within bound"),
    # Slower by 30 %, past the bound.
    ([1.3 * b for b in _BASE], "WORSE"),
])
def test_summarize_verdicts(change, verdict):
    rows = {r["metric"]: r for r in ab_pairs.summarize(_pairs(_BASE, change), {"wall_s": 0.25})}
    assert rows["wall_s"]["verdict"] == verdict
    # A metric with no bound is judged for a gain only.
    assert rows["plan_s"]["verdict"] == ""
    assert verdict in ab_pairs.format_rows(list(rows.values()))


def test_summarize_unresolved_when_the_base_spreads_past_the_bound():
    base = [1.0, 1.6, 0.7, 1.5, 0.8, 1.0, 1.4, 0.9, 1.2, 1.1]
    # Medians equal, spread wider than a 25 % bound: neither same nor worse.
    rows = ab_pairs.summarize(_pairs(base, base[::-1]), {"wall_s": 0.25})
    assert rows[0]["verdict"] == "unresolved"
    # Unless every change run is below every base run.
    rows = ab_pairs.summarize(_pairs(base, [b * 0.2 for b in base]), {"wall_s": 0.25})
    assert rows[0]["verdict"] == "gain"
    rows = ab_pairs.summarize(_pairs(base, [0.69] * 10), {"wall_s": 0.25})
    assert rows[0]["won"] == 10 and rows[0]["verdict"] == "within bound"


def test_read_bounds_from_the_base_checkout(tmp_path):
    assert ab_pairs.read_bounds(tmp_path) == {}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "bound": 0.25}, {"name": "peak_rss_mb", "bound": 0.1}, {"name": "n"},
    ]}))
    assert ab_pairs.read_bounds(tmp_path) == {"wall_s": 0.25, "peak_rss_mb": 0.1}
    repo = Path(__file__).resolve().parent.parent
    assert ab_pairs.read_bounds(repo)["wall_s"] > 0


def test_bench_out_records_each_workload_once(tmp_path):
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    change = [b - 0.2 for b in base]
    rows = ab_pairs.summarize(_pairs(base, change), {"wall_s": 0.25})
    record = ab_pairs.bench_record("small-n", 0, 32, rows)
    assert (record["workload"], record["seed"], record["seconds"], record["pairs"]) == (
        "small-n", 0, 32, 10)
    assert record["python"].count(".") == 2 and record["numpy"]
    wall = record["metrics"]["wall_s"]
    assert wall["unit"] == "s" and wall["verdict"] == "gain" and wall["won"] == 10
    # Per-pair values as the runs printed them (six significant digits).
    assert wall["base"]["values"] == base
    assert wall["change"]["values"] == pytest.approx(change, abs=1e-6)
    q1, median, q3 = ab_pairs._quartiles(base)
    assert (wall["base"]["q1"], wall["base"]["median"], wall["base"]["q3"]) == (q1, median, q3)
    assert wall["change"]["median"] == pytest.approx(median - 0.2)
    assert wall["rel"] == pytest.approx(-0.2 / median)
    assert record["metrics"]["plan_s"]["verdict"] == ""
    # A second workload is added; the same workload and seed again replaces
    # its record, and another seed is its own record.
    path = tmp_path / "BENCH_test.json"
    ab_pairs.write_bench(path, record)
    hash_rows = ab_pairs.summarize(_pairs(base, base), {"wall_s": 0.25})
    ab_pairs.write_bench(path, ab_pairs.bench_record("hash", 0, 32, hash_rows))
    again = ab_pairs.bench_record("small-n", 0, 8, rows)
    ab_pairs.write_bench(path, again)
    ab_pairs.write_bench(path, ab_pairs.bench_record("small-n", 7919, 32, rows))
    runs = json.loads(path.read_text())["runs"]
    assert [(r["workload"], r["seed"], r["seconds"]) for r in runs] == [
        ("hash", 0, 32), ("small-n", 0, 8), ("small-n", 7919, 32)]
    assert runs[0]["metrics"]["wall_s"]["won"] == 0
    assert runs[0]["metrics"]["wall_s"]["verdict"] == "within bound"
    assert ab_pairs.bench_record("hash", 0, 32, [])["pairs"] == 0
