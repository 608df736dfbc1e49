"""Batch command-line front end.

Subcommands: `synth` runs one experiment config and writes a report row;
`sweep` expands a config grid into many rows; `oracle export` serializes a
plan's oracle to its binary format; `verify` runs every module's randomized
invariant suite; `geometry` evaluates cap fractions, sphere measures, and
the circuit-count coverage deficit.

Configs are single JSON documents whose keys and defaults are the fields of
`ExperimentConfig` (unknown keys are an error, catching typos that would
silently change an experiment).  `parse_config` checks every value before
anything runs, and a sweep checks all its rows first.  All randomness flows
from the config seed through named substreams.  Exit codes: 0 success, 2
config error, 3 guarantee violation found by `verify`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .executors import run_four_query, run_one_query, run_postselect, run_ten_query
from .geometry import (
    GeometryQuery,
    cap_fraction,
    coverage_deficit,
    monte_carlo_cap,
    sphere_measure,
    sphere_measure_mc,
)
from .numerics import PureState, haar_random_state
from .synthesis import (
    OracleSpec,
    SynthesisPlan,
    build_plan,
    derive_hash_params,
    derive_params,
    plan_to_oracle,
)

REPORT_COLUMNS = (
    "algorithm",
    "strategy",
    "mode",
    "n",
    "epsilon",
    "t",
    "T",
    "s",
    "query_count",
    "success_amplitude",
    "error_2norm",
    "error_trace",
    "residual_T",
    "wall_ms",
    "seed",
)

ALGORITHMS = ("postselect", "one-query", "four-query", "ten-query")
STRATEGIES = ("clifford", "hash")
MODES = ("exact", "perturbed")
_CHOICES = {"algorithm": ALGORITHMS, "strategy": STRATEGIES, "mode": MODES}
#: The keys each target kind takes besides "kind".
_TARGET_KEYS = {"haar": {"seed"}, "explicit": {"amplitudes"}, "named": {"name"}}
_TARGET_KINDS = tuple(_TARGET_KEYS)
_NAMED_TARGETS = ("ghz", "w", "uniform")


class ConfigError(Exception):
    """A malformed or out-of-range experiment configuration."""


@dataclass
class ExperimentConfig:
    """One experiment.  The fields are the config keys, and their defaults
    fill in the keys a config leaves out."""

    n: int
    epsilon: float
    algorithm: str
    strategy: str = "clifford"
    mode: str = "exact"
    target: dict = field(default_factory=lambda: {"kind": "haar"})
    seed: int = 0
    overrides: dict = field(default_factory=dict)
    report_path: str | None = None
    oracle_path: str | None = None

    def to_doc(self) -> dict:
        """The config document; parse_config(to_doc()) gives the config back."""
        return {key: value for key, value in asdict(self).items() if value is not None}


_FIELD_NAMES = frozenset(f.name for f in fields(ExperimentConfig))
_REQUIRED_KEYS = tuple(
    f.name
    for f in fields(ExperimentConfig)
    if f.default is MISSING and f.default_factory is MISSING
)


def _is_int(value) -> bool:
    """A JSON integer: true and false do not count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A JSON number within float range: not NaN, Infinity, true or false."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def parse_config(doc: dict) -> ExperimentConfig:
    """Check a config document against the schema and every value rule.

    Each rejection is a ConfigError raised here, so nothing runs on a
    config that would fail part way.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise ConfigError(f"config is missing required key {key!r}")
    config = ExperimentConfig(**doc)
    if not _is_int(config.n) or config.n < 1:
        raise ConfigError(f"n must be a positive integer, got {config.n!r}")
    epsilon = config.epsilon
    if not isinstance(epsilon, (int, float)) or not 0.0 < epsilon < 0.5:
        raise ConfigError(
            f"epsilon must lie in the open interval (0, 1/2), got {epsilon!r}"
        )
    config.epsilon = float(epsilon)
    for key, choices in _CHOICES.items():
        value = getattr(config, key)
        if value not in choices:
            raise ConfigError(f"{key} must be one of {choices}, got {value!r}")
    if not _is_int(config.seed):
        raise ConfigError(f"seed must be an integer, got {config.seed!r}")
    _check_target(config.target, config.n)
    if not isinstance(config.overrides, dict):
        raise ConfigError("overrides must be an object")
    bad = set(config.overrides) - {"s", "t"}
    if bad:
        raise ConfigError(f"unknown override keys: {sorted(bad)}")
    for key, value in config.overrides.items():
        if not _is_int(value) or value < 1:
            raise ConfigError(f"override {key!r} must be a positive integer")
    for key in ("report_path", "oracle_path"):
        value = getattr(config, key)
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {value!r}")
    return config


def _check_target(target, n: int) -> None:
    if not isinstance(target, dict) or "kind" not in target:
        raise ConfigError("target must be an object with a 'kind' key")
    kind = target["kind"]
    if kind not in _TARGET_KINDS:
        raise ConfigError(f"target kind must be one of {_TARGET_KINDS}, got {kind!r}")
    extra = set(target) - {"kind"} - _TARGET_KEYS[kind]
    if extra:
        raise ConfigError(f"unknown {kind} target keys: {sorted(extra)}")
    if kind == "haar":
        if "seed" in target and not _is_int(target["seed"]):
            raise ConfigError("haar target seed must be an integer")
    elif kind == "named":
        if target.get("name") not in _NAMED_TARGETS:
            raise ConfigError(f"named target must be one of {_NAMED_TARGETS}")
    else:
        _check_amplitudes(target.get("amplitudes"), n)


def _amplitudes(raw: list) -> np.ndarray:
    """Explicit target entries, numbers or [re, im] pairs, as a complex vector."""
    amps = np.zeros(len(raw), dtype=np.complex128)
    for i, entry in enumerate(raw):
        amps[i] = complex(entry[0], entry[1]) if isinstance(entry, list) else entry
    return amps


def _check_amplitudes(raw, n: int) -> None:
    if not isinstance(raw, list):
        raise ConfigError("explicit target needs an 'amplitudes' list")
    if len(raw) != 1 << n:
        raise ConfigError(f"explicit target needs {1 << n} amplitudes, got {len(raw)}")
    for entry in raw:
        parts = entry if isinstance(entry, list) and len(entry) == 2 else [entry]
        if not all(_is_finite(part) for part in parts):
            raise ConfigError(
                "explicit amplitudes must be finite numbers or [re, im] pairs "
                f"of finite numbers, got {entry!r}"
            )
    norm = float(np.linalg.norm(_amplitudes(raw)))
    if abs(norm - 1.0) > 1e-6:
        raise ConfigError(
            f"explicit target norm {norm} deviates from 1 by more than 1e-6"
        )


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    return parse_config(_read_json(path))


def _named_state(name: str, n: int) -> np.ndarray:
    dim = 1 << n
    amps = np.zeros(dim, dtype=np.complex128)
    if name == "ghz":
        amps[0] = amps[dim - 1] = 1.0 / math.sqrt(2.0)
    elif name == "w":
        for i in range(n):
            amps[1 << i] = 1.0 / math.sqrt(n)
    else:
        amps[:] = 1.0 / math.sqrt(dim)
    return amps


def target_state(config: ExperimentConfig) -> tuple[PureState, bool]:
    """The configured target and whether it had to be renormalized.

    parse_config has checked the target, so this only converts it.
    """
    kind = config.target["kind"]
    if kind == "haar":
        seed = config.target.get("seed", config.seed)
        return haar_random_state(config.n, seed), False
    if kind == "named":
        return PureState(config.n, _named_state(config.target["name"], config.n)), False
    amps = _amplitudes(config.target["amplitudes"])
    norm = float(np.linalg.norm(amps))
    if norm == 1.0:
        return PureState(config.n, amps), False
    return PureState(config.n, amps / norm), True


def _plan_for(config: ExperimentConfig, psi: PureState) -> tuple[SynthesisPlan, OracleSpec]:
    """The config's plan for target psi, and its oracle."""
    derive = derive_hash_params if config.strategy == "hash" else derive_params
    params = derive(psi.n, config.epsilon, config.overrides.get("t"))
    plan = build_plan(psi, params, strategy=config.strategy, mode=config.mode, seed=config.seed)
    return plan, plan_to_oracle(plan)


def run_config(config: ExperimentConfig) -> dict:
    """Run one experiment and return its report row."""
    psi, renormalized = target_state(config)
    if renormalized:
        print("warning: explicit target renormalized", file=sys.stderr)
    if config.overrides:
        print(
            "warning: parameter overrides void the epsilon guarantee",
            file=sys.stderr,
        )
    s_override = config.overrides.get("s")
    start = time.perf_counter()
    plan, oracle = _plan_for(config, psi)
    if config.algorithm == "postselect":
        report = run_postselect(plan, oracle)
    elif config.algorithm == "ten-query":
        report = run_ten_query(psi, config.epsilon, plan=plan, oracle=oracle)
    else:
        run = run_one_query if config.algorithm == "one-query" else run_four_query
        report = run(psi, config.epsilon, s_override=s_override, plan=plan, oracle=oracle)
    wall_ms = round(1000.0 * (time.perf_counter() - start), 3)
    return {
        "algorithm": config.algorithm,
        "strategy": config.strategy,
        "mode": config.mode,
        "n": config.n,
        "epsilon": config.epsilon,
        "t": plan.params.t,
        "T": plan.params.T,
        "s": report.copies,
        "query_count": report.query_count,
        "success_amplitude": report.success_amplitude,
        "error_2norm": report.error_2norm,
        "error_trace": report.error_trace,
        "residual_T": plan.residual_norms[-1],
        "wall_ms": wall_ms,
        "seed": config.seed,
    }


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_report(rows: list[dict], path: str, fmt: str = "csv") -> None:
    """Write report rows; CSV columns are fixed, JSON mirrors the names."""
    if fmt == "csv":
        lines = [",".join(REPORT_COLUMNS)]
        for row in rows:
            lines.append(",".join(_format_cell(row[c]) for c in REPORT_COLUMNS))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    elif fmt == "json":
        cleaned = [
            {c: (float(row[c]) if isinstance(row[c], float) else row[c]) for c in REPORT_COLUMNS}
            for row in rows
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cleaned, fh, indent=2)
            fh.write("\n")
    else:
        raise ConfigError(f"unknown report format {fmt!r}")


def _check_writable(path: str) -> str:
    """Open path for appending and close it again, removing it if this made
    it, so that an unwritable report destination fails with open's own
    error before any row runs."""
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)
    return path


def _cmd_synth(args) -> int:
    config = load_config(args.config)
    path = _check_writable(config.report_path or f"{args.out}/report.{args.format}")
    row = run_config(config)
    write_report([row], path, args.format)
    print(f"wrote {path}")
    return 0


def _expand_sweep(doc: dict) -> list[ExperimentConfig]:
    if not isinstance(doc, dict) or set(doc) - {"base", "grid"}:
        raise ConfigError("sweep config must hold exactly 'base' and 'grid' objects")
    base = doc.get("base")
    grid = doc.get("grid", {})
    if not isinstance(base, dict) or not isinstance(grid, dict):
        raise ConfigError("sweep 'base' and 'grid' must be objects")
    bad = set(grid) - _FIELD_NAMES
    if bad:
        raise ConfigError(f"unknown grid keys: {sorted(bad)}")
    keys = list(grid)
    for key in keys:
        if not isinstance(grid[key], list) or not grid[key]:
            raise ConfigError(f"grid entry {key!r} must be a nonempty list")
    configs = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        merged = dict(base)
        merged.update(dict(zip(keys, combo)))
        configs.append(parse_config(merged))
    return configs


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    configs = _expand_sweep(_read_json(args.config))
    path = _check_writable(f"{args.out}/sweep.{args.format}")
    if args.jobs > 1:
        # Processes, not threads: the drivers hold the interpreter lock.
        # Imported here: at module level the process-pool modules added
        # about 70 ms and 0.8 MB to every import of statesynth (2-core host).
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=args.jobs, mp_context=context) as pool:
            rows = list(pool.map(run_config, configs))
    else:
        rows = [run_config(c) for c in configs]
    write_report(rows, path, args.format)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def _cmd_oracle_export(args) -> int:
    config = load_config(args.config)
    psi, _ = target_state(config)
    plan, oracle = _plan_for(config, psi)
    path = args.out or config.oracle_path
    if not path:
        raise ConfigError("oracle export needs --out or a config oracle_path")
    oracle.write_file(path)
    print(f"wrote {path} ({oracle.total_input_bits}-bit oracle, T={plan.params.T})")
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    names = args.suite or list(verify.SUITE_NAMES)
    failures = 0
    for name in names:
        for result in verify.run_suite(name, instances=args.instances, seed=args.seed):
            status = "ok" if result.passed else "FAIL"
            line = f"{status} {result.suite}.{result.name} ({result.instances} instances)"
            if not result.passed:
                line += f": {result.detail}"
                failures += 1
            print(line)
    if failures:
        print(f"{failures} invariant check(s) failed")
        return 3
    print("all invariant suites passed")
    return 0


def _cmd_geometry(args) -> int:
    if args.calc == "measure":
        value = sphere_measure(args.d)
        print(f"measure = {value!r}")
        if args.trials:
            print(f"measure_mc = {sphere_measure_mc(args.d, args.trials, args.seed)!r}")
    elif args.calc == "cap":
        query = GeometryQuery(args.n, args.epsilon)
        print(f"cap_fraction = {cap_fraction(query)!r}")
        if args.trials:
            print(f"cap_mc = {monte_carlo_cap(query, args.trials, args.seed)!r}")
    else:
        value = coverage_deficit(
            args.n,
            args.epsilon,
            args.s,
            args.gate_set_size,
            args.max_arity,
            args.qubit_constant,
        )
        print(f"deficit_bits = {value!r}")
        print(f"certified_noncoverage = {value < 0.0}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statesynth",
        description="plan, execute, and validate oracle-assisted state synthesis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="run one experiment config")
    synth.add_argument("--config", required=True)
    synth.add_argument("--out", default=".")
    synth.add_argument("--format", choices=("csv", "json"), default="csv")
    synth.set_defaults(func=_cmd_synth)

    sweep = sub.add_parser("sweep", help="run a grid of configs")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", default=".")
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.set_defaults(func=_cmd_sweep)

    oracle = sub.add_parser("oracle", help="oracle file operations")
    oracle_sub = oracle.add_subparsers(dest="action", required=True)
    export = oracle_sub.add_parser("export", help="write an oracle binary")
    export.add_argument("--config", required=True)
    export.add_argument("--out")
    export.set_defaults(func=_cmd_oracle_export)

    verify_p = sub.add_parser("verify", help="run the invariant suites")
    verify_p.add_argument("--suite", action="append")
    verify_p.add_argument("--instances", type=int, default=200)
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.set_defaults(func=_cmd_verify)

    geo = sub.add_parser("geometry", help="cap/measure/deficit calculations")
    geo_sub = geo.add_subparsers(dest="calc", required=True)
    measure = geo_sub.add_parser("measure")
    measure.add_argument("--d", type=int, required=True)
    measure.add_argument("--trials", type=int, default=0)
    measure.add_argument("--seed", type=int, default=0)
    cap = geo_sub.add_parser("cap")
    cap.add_argument("--n", type=int, required=True)
    cap.add_argument("--epsilon", type=float, required=True)
    cap.add_argument("--trials", type=int, default=0)
    cap.add_argument("--seed", type=int, default=0)
    deficit = geo_sub.add_parser("deficit")
    deficit.add_argument("--n", type=int, required=True)
    deficit.add_argument("--epsilon", type=float, required=True)
    deficit.add_argument("--s", type=int, required=True)
    deficit.add_argument("--gate-set-size", type=int, required=True)
    deficit.add_argument("--max-arity", type=int, required=True)
    deficit.add_argument("--qubit-constant", type=float, default=3.0)
    for p in (measure, cap, deficit):
        p.set_defaults(func=_cmd_geometry)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
