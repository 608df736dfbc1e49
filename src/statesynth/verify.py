"""Randomized invariant suites, one per module.

Each suite draws `instances` randomized cases from named substreams of the
given seed and checks the module's documented invariants.  Results come
back as per-check records; the CLI `verify` subcommand prints them and
maps any failure to exit code 3.

Expensive cross-checks (dense executor comparisons, quantum-z validation)
run on every eighth instance so a full 200-instance sweep stays fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import clifford as cliff
from . import f2linalg as f2
from .executors import (
    quantum_z_leakage,
    query_substitution_bound,
    run_four_query,
    run_four_query_dense,
    run_one_query,
    run_one_query_dense,
    run_postselect,
    run_ten_query,
)
from .executors import four_query
from .executors.four_query import expand_structured
from .geometry import (
    GeometryQuery,
    cap_fraction,
    coverage_deficit,
    monte_carlo_cap,
    sphere_measure,
    sphere_measure_mc,
)
from .numerics import (
    DensityMatrix,
    PureState,
    haar_random_state,
    partial_trace_keep_first,
    purify_rank1,
    trace_distance_mixed,
    trace_distance_pure,
)
from .rng import derive_seed, substream
from .synthesis import (
    build_plan,
    derive_hash_params,
    derive_params,
    plan_to_oracle,
)

SUITE_NAMES = ("numerics", "f2linalg", "clifford", "synthesis", "executors", "geometry", "cli")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    instances: int
    failures: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0


class _Recorder:
    def __init__(self, suite: str) -> None:
        self.suite = suite
        self._checks: dict[str, list] = {}

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        entry = self._checks.setdefault(name, [0, 0, ""])
        entry[0] += 1
        if not ok:
            entry[1] += 1
            if not entry[2]:
                entry[2] = detail

    def results(self) -> list[CheckResult]:
        return [
            CheckResult(self.suite, name, c[0], c[1], c[2])
            for name, c in self._checks.items()
        ]


def _random_density(n: int, seed: int) -> DensityMatrix:
    rng = substream(seed, f"verify-density-{n}")
    dim = 1 << n
    k = int(rng.integers(1, 5))
    weights = rng.random(k)
    weights /= weights.sum()
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(k):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        rho += weights[j] * np.outer(v, np.conj(v))
    return DensityMatrix(n, rho)


def _suite_numerics(instances: int, seed: int) -> list[CheckResult]:
    rec = _Recorder("numerics")
    for i in range(instances):
        n = 1 + (i % 3)
        a = haar_random_state(n, derive_seed(seed, f"num-a-{i}"))
        b = haar_random_state(n, derive_seed(seed, f"num-b-{i}"))
        gap = float(np.linalg.norm(a.amps - b.amps))
        td = trace_distance_pure(a, b)
        rec.record(
            "pure-distance-below-euclidean",
            td <= gap + 1e-9,
            f"td {td} > 2-norm gap {gap}",
        )

        rho = _random_density(n, derive_seed(seed, f"num-rho-{i}"))
        pure = DensityMatrix(n, np.outer(a.amps, np.conj(a.amps)))
        lhs = trace_distance_mixed(rho, pure)
        rhs = math.sqrt(max(0.0, 1.0 - float(np.real(np.conj(a.amps) @ rho.entries @ a.amps))))
        rec.record(
            "mixed-vs-pure-overlap-bound",
            lhs <= rhs + 1e-8,
            f"td {lhs} > sqrt(1 - overlap) {rhs}",
        )

        sigma = _random_density(n, derive_seed(seed, f"num-sigma-{i}"))
        tau = _random_density(n, derive_seed(seed, f"num-tau-{i}"))
        d_rs = trace_distance_mixed(rho, sigma)
        d_sr = trace_distance_mixed(sigma, rho)
        rec.record("mixed-distance-symmetric", d_rs == d_sr, f"{d_rs} != {d_sr}")
        d_rt = trace_distance_mixed(rho, tau)
        d_st = trace_distance_mixed(sigma, tau)
        rec.record(
            "mixed-distance-triangle",
            d_rt <= d_rs + d_st + 1e-8,
            f"{d_rt} > {d_rs} + {d_st}",
        )

        joint = haar_random_state(n + 1, derive_seed(seed, f"num-joint-{i}"))
        kept = partial_trace_keep_first(joint, joint.n)
        outer = np.outer(joint.amps, np.conj(joint.amps))
        rec.record(
            "full-partial-trace-is-outer-product",
            float(np.max(np.abs(kept.entries - outer))) <= 1e-12,
        )

        exact = np.outer(a.amps, np.conj(a.amps))
        recovered = purify_rank1(DensityMatrix(n, exact), 0.0)
        back = np.outer(recovered.amps, np.conj(recovered.amps))
        rec.record(
            "purify-roundtrip",
            float(np.max(np.abs(back - exact))) <= 1e-9,
        )
    return rec.results()


#: Uniform n x n matrices the invertible-fraction check draws, n cycling
#: through 2..10.  Its 5 sigma band (25.5-35.8 % invertible) lies inside
#: "more than 20 %", so the check fails on a biased sampler or rank, not on
#: an unlucky seed.
_INVERTIBLE_DRAWS = 2000


def _check_invertible_fraction(rec: _Recorder, seed: int) -> None:
    """The invertible count of uniform matrices against its exact mean
    sum_n prod_i (1 - 2^-i), within 5 standard deviations."""
    rng = substream(seed, "f2-invertible-fraction")
    count, mean, var = 0, 0.0, 0.0
    for i in range(_INVERTIBLE_DRAWS):
        n = 2 + (i % 9)
        p = math.prod(1.0 - 2.0**-j for j in range(1, n + 1))
        mean += p
        var += p * (1.0 - p)
        count += f2.rank(f2.F2Matrix(n, n, f2.random_rows_from(rng, n, n))) == n
    sigma = math.sqrt(var)
    rec.record(
        "uniform-matrices-often-invertible",
        abs(count - mean) <= 5.0 * sigma,
        f"{count} of {_INVERTIBLE_DRAWS} invertible, expected {mean:.1f}, sigma {sigma:.1f}",
    )


def _suite_f2linalg(instances: int, seed: int) -> list[CheckResult]:
    rec = _Recorder("f2linalg")
    for i in range(instances):
        rng = substream(seed, f"f2-{i}")
        n = 2 + (i % 9)
        m = f2.F2Matrix(n, n, f2.random_rows_from(rng, n, n))
        perm = rng.permutation(n)
        shuffled = f2.F2Matrix(n, n, tuple(m.row_bits[p] for p in perm))
        rec.record(
            "rank-invariant-under-row-permutation",
            f2.rank(m) == f2.rank(shuffled),
        )

        a = f2.F2Matrix(n, n, f2.random_rows_from(rng, n, n))
        b = f2.F2Matrix(n, n, f2.random_rows_from(rng, n, n))
        x = int(rng.integers(0, 1 << n))
        composed = f2.apply_to_index(f2.mul(a, b), x)
        chained = f2.apply_to_index(a, f2.apply_to_index(b, x))
        rec.record("multiplication-matches-composition", composed == chained)

        made = f2.random_invertible(n, derive_seed(seed, f"f2-inv-{i}"))
        rec.record("random-invertible-has-full-rank", f2.rank(made) == n)
    _check_invertible_fraction(rec, seed)
    return rec.results()


def _suite_clifford(instances: int, seed: int) -> list[CheckResult]:
    rec = _Recorder("clifford")
    # Overlap-frequency tally: count, per fixed target, how many random
    # Cliffords give sign-state overlap >= 0.35.
    etas = {
        n: [haar_random_state(n, derive_seed(seed, f"cl-eta-{n}-{j}")) for j in range(20)]
        for n in (2, 3, 4)
    }
    hit_counts = {n: np.zeros(20, dtype=np.int64) for n in (2, 3, 4)}
    for i in range(instances):
        n = 1 + (i % 3)
        desc = cliff.random_clifford(n, derive_seed(seed, f"cl-desc-{i}"))
        v = haar_random_state(n, derive_seed(seed, f"cl-v-{i}"))
        moved = cliff.apply(desc, v)
        rec.record(
            "apply-preserves-norm",
            abs(float(np.linalg.norm(moved.amps)) - 1.0) <= 1e-10,
        )
        back = cliff.apply_inverse(desc, moved)
        rec.record(
            "inverse-restores-input",
            float(np.linalg.norm(back.amps - v.amps)) <= 1e-10,
        )
        if n <= 2:
            u = cliff.to_matrix(desc)
            rec.record(
                "matrix-is-unitary",
                float(np.max(np.abs(u @ u.conj().T - np.eye(1 << n)))) <= 1e-12,
            )
        for big_n in (2, 3, 4):
            d_big = cliff.random_clifford(big_n, derive_seed(seed, f"cl-freq-{big_n}-{i}"))
            for j, eta in enumerate(etas[big_n]):
                if cliff.overlap_with_sign_state(eta, d_big) >= 0.35:
                    hit_counts[big_n][j] += 1
    for n in (2, 3, 4):
        worst = int(hit_counts[n].min())
        rec.record(
            f"sign-state-overlap-frequency-n{n}",
            worst / max(1, instances) >= 0.01,
            f"worst target hit {worst}/{instances} Cliffords",
        )
    return rec.results()


def _replay_track_residuals(plan) -> list[tuple[float, float, float]]:
    """(norm_before, coefficient, norm_after) per hash step, per track."""
    tracks: dict[complex, np.ndarray] = {}
    out = []
    for step in plan.steps:
        phase = step.phase
        if phase not in tracks:
            component = plan.target.amps.real if phase == 1 else plan.target.amps.imag
            tracks[phase] = component.astype(np.float64).copy()
        eta = tracks[phase]
        before = float(np.linalg.norm(eta))
        eta -= step.coefficient * np.real(step.step_state())
        out.append((before, step.coefficient, float(np.linalg.norm(eta))))
    return out


def _synthesis_instance(i: int, seed: int):
    n = 1 + (i % 3)
    label = derive_seed(seed, f"syn-target-{i}")
    mode = "perturbed" if i % 2 else "exact"
    if i % 4 == 3:
        raw = haar_random_state(n, label).amps.real
        raw = raw / np.linalg.norm(raw)
        psi = PureState(n, raw.astype(np.complex128))
        params = derive_hash_params(n, 0.25)
        strategy = "hash"
    else:
        psi = haar_random_state(n, label)
        params = derive_params(n, 0.25)
        strategy = "clifford"
    plan = build_plan(
        psi, params, strategy=strategy, mode=mode, seed=derive_seed(seed, f"syn-plan-{i}")
    )
    return psi, params, plan, strategy, mode


def _suite_synthesis(instances: int, seed: int) -> list[CheckResult]:
    rec = _Recorder("synthesis")
    for n in (1, 2, 3, 4):
        for eps in (0.25, 0.1, 0.01):
            params = derive_params(n, eps)
            rec.record(
                "terminal-residual-budget",
                params.beta**params.T <= 0.01 * eps,
                f"beta^T {params.beta ** params.T} > 0.01 eps at n={n} eps={eps}",
            )
    for i in range(instances):
        psi, params, plan, strategy, mode = _synthesis_instance(i, seed)
        alpha, beta = params.alpha, params.beta
        res = plan.residual_norms
        if strategy == "clifford" and mode == "exact":
            ok_rec = True
            ok_env = True
            for k in range(params.T):
                drop = res[k] ** 2 - 2 * alpha**2 * beta**k * res[k] + alpha**2 * beta ** (2 * k)
                if res[k + 1] ** 2 > drop + 1e-12:
                    ok_rec = False
                if res[k] > beta**k + 1e-12:
                    ok_env = False
            rec.record("clifford-residual-recursion", ok_rec)
            rec.record("clifford-residual-envelope", ok_env and res[-1] <= beta**params.T + 1e-12)
        if mode == "perturbed":
            rec.record(
                "perturbed-terminal-residual",
                res[-1] < 1.7 * beta**params.T,
                f"residual {res[-1]} vs 1.7 beta^T {1.7 * beta ** params.T}",
            )
        if strategy == "hash":
            ok_track = True
            for before, c, after in _replay_track_residuals(plan):
                drop = before**2 - 2 * c * alpha * before + c**2
                if after**2 > drop + 1e-9:
                    ok_track = False
            rec.record("hash-trackwise-recursion", ok_track)
            ok_inj = True
            for step in plan.steps:
                hs = step.hash_state
                images = {f2.apply_to_index(hs.matrix, int(x)) for x in hs.support}
                if len(images) != len(hs.support):
                    ok_inj = False
            rec.record("hash-support-map-injective", ok_inj)

        oracle = plan_to_oracle(plan)
        rng = substream(seed, f"syn-query-{i}")
        addresses = rng.integers(0, 1 << oracle.total_input_bits, size=16)
        rec.record(
            "oracle-query-deterministic",
            all(oracle.query(int(a)) == oracle.query(int(a)) for a in addresses),
        )
        if i % 8 == 0:
            psi2, params2, plan2, _, _ = _synthesis_instance(i, seed)
            rec.record(
                "equal-plans-equal-oracle-bytes",
                plan_to_oracle(plan2).to_bytes() == oracle.to_bytes(),
            )
    return rec.results()


def _suite_executors(instances: int, seed: int) -> list[CheckResult]:
    rec = _Recorder("executors")
    for i in range(instances):
        n = 1 + (i % 2)
        psi = haar_random_state(n, derive_seed(seed, f"ex-target-{i}"))
        eps = 0.25
        plan_seed = derive_seed(seed, f"ex-plan-{i}")
        params = derive_params(n, eps)
        plan = build_plan(psi, params, seed=plan_seed)
        oracle = plan_to_oracle(plan)

        post = run_postselect(plan, oracle)
        full_norm = float(np.linalg.norm(post.output_pure.amps))
        rec.record("postselect-unit-norm", abs(full_norm - 1.0) <= 1e-9)
        rec.record("postselect-query-count", post.query_count == 1)

        one = run_one_query(psi, eps, plan=plan, oracle=oracle)
        rec.record("one-query-count", one.query_count == 1)
        rec.record(
            "one-query-unit-trace",
            abs(float(np.real(np.trace(one.output_reduced.entries))) - 1.0) <= 1e-9,
        )

        # One exact structured four-query evaluation gives the report and
        # the diagnostics that run_four_query and four_query_diagnostics each
        # take from it.
        setup = four_query._setup(psi, eps, False, None, plan, oracle)
        four, diag = four_query._structured_run(*setup)
        dev = diag["prep_deviation"]

        ten = run_ten_query(psi, eps, plan=plan, oracle=oracle)
        rec.record("ten-query-count", ten.query_count == 10)
        rec.record(
            "ten-query-unit-norm",
            abs(float(np.linalg.norm(ten.output_pure.amps)) - 1.0) <= 1e-9,
        )
        ten_ideal = run_ten_query(psi, eps, ideal=True, plan=plan, oracle=oracle)
        gap = float(
            np.linalg.norm(ten.output_pure.amps - ten_ideal.output_pure.amps)
        )
        rec.record(
            "ten-query-substitution-bound",
            gap <= query_substitution_bound(10, dev) + 1e-12,
            f"measured {gap} > bound {query_substitution_bound(10, dev)}",
        )

        rec.record("four-query-count", four.query_count == 4)
        rec.record(
            "four-query-branch-norm",
            abs(diag["norm_sq"] - 1.0) <= 1e-9,
            f"norm_sq {diag['norm_sq']}",
        )
        four_ideal = run_four_query(psi, eps, ideal=True, plan=plan, oracle=oracle)
        s_used = diag["copies"]
        gap4 = abs(four.error_2norm - four_ideal.error_2norm)
        rec.record(
            "four-query-substitution-bound",
            gap4 <= query_substitution_bound(4 * s_used, dev) + 1e-12,
            f"measured {gap4} > bound {query_substitution_bound(4 * s_used, dev)}",
        )

        if i % 8 == 0:
            small = haar_random_state(1, derive_seed(seed, f"ex-small-{i}"))
            sp = build_plan(
                small,
                derive_params(1, eps, t_override=2),
                seed=derive_seed(seed, f"ex-small-plan-{i}"),
            )
            so = plan_to_oracle(sp)
            base = run_one_query_dense(small, eps, s=2, plan=sp, oracle=so)
            swapped = run_one_query_dense(
                small, eps, s=2, copy_order=(1, 0), plan=sp, oracle=so
            )
            rec.record(
                "one-query-copy-order-invariant",
                float(np.max(np.abs(base.entries - swapped.entries))) <= 1e-10,
            )
            dense_state, dense_info = run_four_query_dense(
                small, eps, s=2, plan=sp, oracle=so
            )
            checkpoint, final = expand_structured(small, eps, s=2, plan=sp, oracle=so)
            rec.record(
                "four-query-branches-match-dense",
                float(np.linalg.norm(dense_info["psi7"] - checkpoint)) <= 1e-10
                and float(np.linalg.norm(dense_state.amps - final)) <= 1e-10,
            )
            leak, zval = quantum_z_leakage(sp, so, z_bits=8)
            rec.record("quantum-z-no-entanglement", leak <= 1e-12)
            rec.record(
                "quantum-z-holds-description-bits",
                zval == sp.z[0],
                f"register {zval} != first z byte {sp.z[0]}",
            )
    return rec.results()


def _check_sphere_measure(rec: _Recorder, instances: int, seed: int) -> None:
    """sphere_measure_mc(d) within 1 % of sphere_measure(d) for d = 0..5.

    The estimator counts cube samples inside the unit ball, a fraction
    p = mu_d / ((d + 1) 2^(d + 1)), so its relative deviation is
    sqrt((1 - p) / (p N)) at N samples.  Each d draws enough samples that
    1 % is at least 5 of those: about 1.27 M at d = 4 and 2.85 M at d = 5,
    so the check fails on a wrong measure, not on an unlucky seed.
    """
    for d in range(6):
        exact = sphere_measure(d)
        p = exact / ((d + 1) * 2.0 ** (d + 1))
        trials = max(instances * 2000, math.ceil(250_000 * (1.0 - p) / p))
        estimate = sphere_measure_mc(d, trials, derive_seed(seed, f"geo-measure-{d}"))
        rec.record(
            "sphere-measure-matches-monte-carlo",
            abs(estimate - exact) <= 0.01 * exact,
            f"d={d}: {estimate} vs {exact} from {trials} samples",
        )


def _suite_geometry(instances: int, seed: int) -> list[CheckResult]:
    rec = _Recorder("geometry")
    trials = min(1_000_000, max(20_000, instances * 1000))
    for n in (1, 2):
        for eps in (0.3, 0.5, 0.8):
            q = GeometryQuery(n, eps)
            exact = cap_fraction(q)
            estimate = monte_carlo_cap(q, trials, derive_seed(seed, f"geo-cap-{n}-{eps}"))
            sigma = math.sqrt(exact * (1.0 - exact) / trials)
            rec.record(
                "cap-fraction-matches-monte-carlo",
                abs(estimate - exact) <= 4.0 * sigma,
                f"n={n} eps={eps}: |{estimate} - {exact}| > 4 sigma {4 * sigma}",
            )
    _check_sphere_measure(rec, instances, seed)
    for i in range(instances):
        rng = substream(seed, f"geo-deficit-{i}")
        n = 1 + int(rng.integers(0, 10))
        eps = float(rng.uniform(0.01, 0.25))
        gates = int(rng.integers(1, 6))
        arity = int(rng.integers(1, 4))
        low = coverage_deficit(n, eps, 0, gates, arity)
        mid = coverage_deficit(n, eps, 4, gates, arity)
        high = coverage_deficit(n, eps, 1 << 22, gates, arity)
        rec.record("deficit-negative-at-zero-gates", low < 0.0)
        rec.record("deficit-positive-at-huge-gate-count", high > 0.0)
        rec.record("deficit-monotone-in-gate-count", low <= mid <= high)
    return rec.results()


def _suite_cli(instances: int, seed: int) -> list[CheckResult]:
    from .cli import parse_config, run_config

    rec = _Recorder("cli")
    algorithms = ("postselect", "one-query", "ten-query", "four-query")
    count = max(1, min(instances, 24))
    for i in range(count):
        doc = {
            "n": 1 + (i % 2),
            "epsilon": 0.25,
            "algorithm": algorithms[i % 4],
            "strategy": "clifford",
            "mode": "exact",
            "target": {"kind": "haar", "seed": derive_seed(seed, f"cli-target-{i}")},
            "seed": derive_seed(seed, f"cli-seed-{i}"),
        }
        config = parse_config(doc)
        row_a = run_config(config)
        reparsed = parse_config(config.to_doc())
        row_b = run_config(reparsed)
        stable_a = {k: v for k, v in row_a.items() if k != "wall_ms"}
        stable_b = {k: v for k, v in row_b.items() if k != "wall_ms"}
        rec.record(
            "config-round-trip-reproduces-report",
            stable_a == stable_b,
            f"rows differ: {stable_a} vs {stable_b}",
        )
    return rec.results()


_SUITES = {
    "numerics": _suite_numerics,
    "f2linalg": _suite_f2linalg,
    "clifford": _suite_clifford,
    "synthesis": _suite_synthesis,
    "executors": _suite_executors,
    "geometry": _suite_geometry,
    "cli": _suite_cli,
}


def run_suite(name: str, instances: int = 200, seed: int = 0) -> list[CheckResult]:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if instances < 1:
        raise ValueError(f"need at least one instance, got {instances}")
    return _SUITES[name](instances, seed)


def run_all(instances: int = 200, seed: int = 0) -> list[CheckResult]:
    results = []
    for name in SUITE_NAMES:
        results.extend(run_suite(name, instances=instances, seed=seed))
    return results
