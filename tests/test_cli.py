"""Tests for config parsing, report writing, and the command-line entry point."""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from statesynth import cli
from statesynth.cli import (
    REPORT_COLUMNS,
    ConfigError,
    main,
    parse_config,
    run_config,
    target_state,
    write_report,
)
from statesynth.synthesis import OracleSpec


def _base_doc(**extra) -> dict:
    doc = {"n": 2, "epsilon": 0.25, "algorithm": "postselect", "seed": 3}
    doc.update(extra)
    return doc


def test_parse_config_fills_defaults():
    config = parse_config(_base_doc())
    assert config.strategy == "clifford"
    assert config.mode == "exact"
    assert config.target == {"kind": "haar"}
    assert config.overrides == {}


def test_parse_config_rejects_bad_documents():
    with pytest.raises(ConfigError, match="missing required key"):
        parse_config({"n": 2, "epsilon": 0.25})
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_config(_base_doc(epsilonn=0.1))
    with pytest.raises(ConfigError, match=r"open interval \(0, 1/2\)"):
        parse_config(_base_doc(epsilon=0.5))
    with pytest.raises(ConfigError, match=r"open interval \(0, 1/2\)"):
        parse_config(_base_doc(epsilon=0.0))
    with pytest.raises(ConfigError, match="positive integer"):
        parse_config(_base_doc(n=0))
    with pytest.raises(ConfigError, match="algorithm must be one of"):
        parse_config(_base_doc(algorithm="grover"))
    with pytest.raises(ConfigError, match="strategy must be one of"):
        parse_config(_base_doc(strategy="magic"))
    with pytest.raises(ConfigError, match="mode must be one of"):
        parse_config(_base_doc(mode="noisy"))
    with pytest.raises(ConfigError, match="unknown override keys"):
        parse_config(_base_doc(overrides={"copies": 4}))
    with pytest.raises(ConfigError, match="positive integer"):
        parse_config(_base_doc(overrides={"s": 0}))


def test_parse_config_rejects_bad_targets():
    with pytest.raises(ConfigError, match="'kind'"):
        parse_config(_base_doc(target={}))
    with pytest.raises(ConfigError, match="kind must be one of"):
        parse_config(_base_doc(target={"kind": "random"}))
    with pytest.raises(ConfigError, match="named target must be one of"):
        parse_config(_base_doc(target={"kind": "named", "name": "bell"}))
    with pytest.raises(ConfigError, match="unknown haar target keys"):
        parse_config(_base_doc(target={"kind": "haar", "name": "x"}))
    with pytest.raises(ConfigError, match="'amplitudes'"):
        parse_config(_base_doc(target={"kind": "explicit"}))


def test_named_targets():
    ghz, renorm = target_state(parse_config(_base_doc(target={"kind": "named", "name": "ghz"})))
    assert not renorm
    want = np.zeros(4)
    want[0] = want[3] = 1 / math.sqrt(2)
    assert np.allclose(ghz.amps, want)

    w, _ = target_state(parse_config(_base_doc(n=3, target={"kind": "named", "name": "w"})))
    assert np.allclose(sorted(np.abs(w.amps)), [0, 0, 0, 0, 0] + [1 / math.sqrt(3)] * 3)
    assert abs(w.amps[1]) > 0 and abs(w.amps[2]) > 0 and abs(w.amps[4]) > 0

    uniform, _ = target_state(parse_config(_base_doc(target={"kind": "named", "name": "uniform"})))
    assert np.allclose(uniform.amps, 0.5)


def test_explicit_target_accepts_re_im_pairs():
    doc = _base_doc(
        n=1,
        target={"kind": "explicit", "amplitudes": [[0.6, 0.0], [0.0, 0.8]]},
    )
    psi, renorm = target_state(parse_config(doc))
    assert not renorm
    assert psi.amps[0] == pytest.approx(0.6)
    assert psi.amps[1] == pytest.approx(0.8j)


def test_explicit_target_validation():
    doc = _base_doc(n=1, target={"kind": "explicit", "amplitudes": [1.0]})
    with pytest.raises(ConfigError, match="needs 2 amplitudes"):
        target_state(parse_config(doc))
    doc = _base_doc(n=1, target={"kind": "explicit", "amplitudes": [1.0, 1.0]})
    with pytest.raises(ConfigError, match="deviates from 1"):
        target_state(parse_config(doc))


def test_explicit_target_renormalizes_tiny_drift(capsys):
    amp = 1 / math.sqrt(2) + 1e-8
    doc = _base_doc(n=1, target={"kind": "explicit", "amplitudes": [amp, amp]})
    config = parse_config(doc)
    psi, renorm = target_state(config)
    assert renorm
    assert np.linalg.norm(psi.amps) == pytest.approx(1.0, abs=1e-15)
    run_config(config)
    assert "renormalized" in capsys.readouterr().err


def test_run_config_deterministic_modulo_wall_time():
    config = parse_config(_base_doc())
    first = run_config(config)
    second = run_config(config)
    first.pop("wall_ms")
    second.pop("wall_ms")
    assert first == second
    assert first["query_count"] == 1
    assert first["s"] is None
    assert first["success_amplitude"] is not None


def test_run_config_override_warns_and_changes_s(capsys):
    config = parse_config(_base_doc(algorithm="one-query", overrides={"s": 4}))
    row = run_config(config)
    assert row["s"] == 4
    assert "void the epsilon guarantee" in capsys.readouterr().err


def test_report_row_field_policy():
    one = run_config(parse_config(_base_doc(algorithm="one-query")))
    assert one["error_trace"] is not None
    assert one["success_amplitude"] is None and one["error_2norm"] is None
    assert one["s"] == 128
    post = run_config(parse_config(_base_doc(algorithm="postselect")))
    assert post["success_amplitude"] is not None and post["error_trace"] is not None


#: sha256 of the JSON list of test_report_rows_pinned's rows (wall_ms
#: dropped).  Equal seeds must keep giving these rows.  Re-recorded once
#: when the degenerate hash-step inverse was corrected: only the four
#: four-query hash rows moved (error_2norm sqrt(2) -> 0.0609 at n = 1 and
#: 0.0168 at n = 2).
_REPORT_ROWS_DIGEST = "05ec8a203c8b99bac237eb974de288e021d1b4c8e83dba83415fbf219b0da520"


def test_report_rows_pinned():
    rows = []
    for algorithm, strategy, mode, n in itertools.product(
        ("postselect", "one-query", "four-query", "ten-query"),
        ("clifford", "hash"),
        ("exact", "perturbed"),
        (1, 2),
    ):
        if strategy == "hash" and algorithm == "ten-query":
            continue  # hash plans sit below the ten-query amplitude floor
        doc = _base_doc(n=n, algorithm=algorithm, strategy=strategy, mode=mode)
        row = run_config(parse_config(doc))
        row.pop("wall_ms")
        rows.append(row)
    assert len(rows) == 28
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == _REPORT_ROWS_DIGEST


def test_write_report_csv_layout(tmp_path):
    rows = [run_config(parse_config(_base_doc()))]
    path = tmp_path / "report.csv"
    write_report(rows, str(path), "csv")
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n") and "\r" not in text
    lines = text.splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert len(cells) == len(REPORT_COLUMNS) == 15
    # None renders as the empty cell; floats round-trip via repr.
    assert cells[REPORT_COLUMNS.index("s")] == ""
    eps_cell = cells[REPORT_COLUMNS.index("epsilon")]
    assert float(eps_cell) == rows[0]["epsilon"] and eps_cell == repr(0.25)
    resid_cell = cells[REPORT_COLUMNS.index("residual_T")]
    assert float(resid_cell) == rows[0]["residual_T"]


def test_write_report_json_mirrors_columns(tmp_path):
    rows = [run_config(parse_config(_base_doc()))]
    path = tmp_path / "report.json"
    write_report(rows, str(path), "json")
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert len(loaded) == 1
    assert set(loaded[0]) == set(REPORT_COLUMNS)
    assert loaded[0]["epsilon"] == rows[0]["epsilon"]
    with pytest.raises(ConfigError, match="unknown report format"):
        write_report(rows, str(path), "yaml")


def test_main_synth_roundtrip(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_base_doc()), encoding="utf-8")
    code = main(["synth", "--config", str(config_path), "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2


def test_main_synth_bad_config_exits_2(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_base_doc(epsilon=2.0)), encoding="utf-8")
    code = main(["synth", "--config", str(config_path), "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert main(["synth", "--config", str(tmp_path / "missing.json")]) == 2


_NAN = float("nan")

#: Configs that break one value rule each, as JSON text (json.dumps writes
#: NaN as the bare `NaN` token, which json.load accepts).
_SCHEMA_REJECTIONS = {
    "amplitude-not-a-number": _base_doc(
        n=1, target={"kind": "explicit", "amplitudes": [["a", 1], 0]}),
    "amplitude-nan": _base_doc(n=1, target={"kind": "explicit", "amplitudes": [_NAN, 0]}),
    "amplitude-pair-nan": _base_doc(
        n=1, target={"kind": "explicit", "amplitudes": [[1.0, _NAN], 0]}),
    "amplitude-infinite": _base_doc(
        n=1, target={"kind": "explicit", "amplitudes": [float("inf"), 0]}),
    "amplitude-boolean": _base_doc(n=1, target={"kind": "explicit", "amplitudes": [True, 0]}),
    "amplitude-count": _base_doc(n=2, target={"kind": "explicit", "amplitudes": [1.0, 0.0]}),
    "amplitude-norm": _base_doc(n=1, target={"kind": "explicit", "amplitudes": [1.0, 1.0]}),
    "report-path-list": _base_doc(report_path=["x"]),
    "oracle-path-number": _base_doc(oracle_path=7),
    "n-boolean": _base_doc(n=True),
    "seed-boolean": _base_doc(seed=False),
    "haar-seed-boolean": _base_doc(target={"kind": "haar", "seed": True}),
    "override-boolean": _base_doc(algorithm="one-query", overrides={"s": True}),
    "strategy-list": _base_doc(strategy=["hash"]),
    "target-kind-list": _base_doc(target={"kind": ["haar"]}),
}


@pytest.mark.parametrize("name", sorted(_SCHEMA_REJECTIONS))
def test_main_synth_schema_rejection_exits_2(tmp_path, capsys, name):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_SCHEMA_REJECTIONS[name]), encoding="utf-8")
    code = main(["synth", "--config", str(config_path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "report.csv").exists()


def test_main_sweep_checks_every_row_before_running(tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(cli, "run_config", lambda config: runs.append(config))
    good = {"kind": "explicit", "amplitudes": [1.0, 0.0]}
    bad = {"kind": "explicit", "amplitudes": [_NAN, 0.0]}
    doc = {"base": _base_doc(n=1), "grid": {"target": [good, bad]}}
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err
    assert runs == []
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_main_sweep_rejects_jobs_below_one(tmp_path, capsys, monkeypatch, jobs):
    runs = []
    monkeypatch.setattr(cli, "run_config", lambda config: runs.append(config))
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps({"base": _base_doc(), "grid": {"n": [1, 2]}}),
                           encoding="utf-8")
    argv = ["sweep", "--config", str(config_path), "--out", str(tmp_path), "--jobs", jobs]
    assert main(argv) == 2
    assert "--jobs" in capsys.readouterr().err
    assert runs == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.json"]


@pytest.mark.parametrize("command", ["synth-out", "synth-report-path", "sweep"])
def test_unwritable_report_fails_before_any_row_runs(tmp_path, capsys, monkeypatch, command):
    def unreachable(config):
        raise AssertionError("run_config reached")

    monkeypatch.setattr(cli, "run_config", unreachable)
    missing = tmp_path / "no" / "such" / "dir"
    doc = _base_doc()
    argv = ["synth", "--out", str(missing)]
    if command == "synth-report-path":
        doc["report_path"] = str(missing / "report.csv")
        argv = ["synth"]
    elif command == "sweep":
        doc = {"base": doc, "grid": {"n": [1, 2]}}
        argv = ["sweep", "--out", str(missing)]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(argv + ["--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "No such file or directory" in err
    assert "Traceback" not in err


def test_report_destination_check_leaves_no_file(tmp_path, monkeypatch):
    """The destination check creates nothing and truncates nothing when the
    run then fails."""
    def failing(config):
        raise ValueError("run failed")

    monkeypatch.setattr(cli, "run_config", failing)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_base_doc()), encoding="utf-8")
    argv = ["synth", "--config", str(config_path), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert not (tmp_path / "report.csv").exists()
    (tmp_path / "report.csv").write_text("old\n", encoding="utf-8")
    assert main(argv) == 2
    assert (tmp_path / "report.csv").read_text(encoding="utf-8") == "old\n"


@pytest.mark.parametrize("jobs", [1, 2])
def test_main_sweep_expands_grid(tmp_path, jobs):
    doc = {
        "base": _base_doc(),
        "grid": {"n": [1, 2], "algorithm": ["postselect", "one-query"]},
    }
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(
        ["sweep", "--config", str(config_path), "--out", str(tmp_path), "--format", "json",
         "--jobs", str(jobs)]
    )
    assert code == 0
    rows = json.loads((tmp_path / "sweep.json").read_text(encoding="utf-8"))
    # Sweep output overwrote the config file.  A 2 x 2 grid gives 4 rows in
    # grid order, equal (apart from wall_ms) to serial run_config rows.
    grid = [(1, "postselect"), (1, "one-query"), (2, "postselect"), (2, "one-query")]
    assert [(r["n"], r["algorithm"]) for r in rows] == grid
    reference_path = tmp_path / "reference.json"
    write_report(
        [run_config(parse_config({**doc["base"], "n": n, "algorithm": a})) for n, a in grid],
        str(reference_path),
        "json",
    )
    reference = json.loads(reference_path.read_text(encoding="utf-8"))
    for row in rows + reference:
        row.pop("wall_ms")
    assert rows == reference


def test_main_sweep_rejects_stray_keys(tmp_path, capsys):
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps({"base": {}, "rows": []}), encoding="utf-8")
    assert main(["sweep", "--config", str(config_path)]) == 2
    assert "base" in capsys.readouterr().err


def test_main_oracle_export_roundtrip(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_base_doc()), encoding="utf-8")
    out_path = tmp_path / "plan.oracle"
    code = main(["oracle", "export", "--config", str(config_path), "--out", str(out_path)])
    assert code == 0
    oracle = OracleSpec.read_file(str(out_path))
    assert oracle.n == 2
    assert oracle.T == 256


def test_main_verify_small_run(capsys):
    code = main(["verify", "--suite", "f2linalg", "--instances", "5", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ok f2linalg." in out
    assert "all invariant suites passed" in out


def test_main_geometry_commands(capsys):
    assert main(["geometry", "measure", "--d", "3"]) == 0
    assert repr(2 * math.pi**2) in capsys.readouterr().out
    assert main(["geometry", "cap", "--n", "1", "--epsilon", "0.5", "--trials", "50000"]) == 0
    out = capsys.readouterr().out
    assert "cap_fraction = 0.25" in out and "cap_mc" in out
    args = ["geometry", "deficit", "--n", "3", "--epsilon", "0.25",
            "--s", "0", "--gate-set-size", "3", "--max-arity", "3"]
    assert main(args) == 0
    assert "certified_noncoverage = True" in capsys.readouterr().out


@pytest.mark.parametrize("calc", [["measure", "--d", "3"],
                                  ["cap", "--n", "1", "--epsilon", "0.5"]])
def test_main_geometry_negative_trials_exits_2(capsys, calc):
    assert main(["geometry", *calc, "--trials", "-5"]) == 2
    captured = capsys.readouterr()
    assert "at least one trial" in captured.err and "_mc" not in captured.out
    assert main(["geometry", *calc, "--trials", "0"]) == 0
    assert "_mc" not in capsys.readouterr().out


def test_main_geometry_bad_epsilon_exits_2(capsys):
    args = ["geometry", "deficit", "--n", "3", "--epsilon", "0.3",
            "--s", "10", "--gate-set-size", "3", "--max-arity", "3"]
    assert main(args) == 2
    assert "error:" in capsys.readouterr().err


def test_main_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
