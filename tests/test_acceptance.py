"""End-to-end acceptance checks for the published guarantees.

Each test exercises one headline claim at its stated tolerance and prints a
single PASS/FAIL summary line (visible under `pytest -s`); the assert that
follows carries the same condition so a violation also fails the run.

Plans are expensive to build, so one shared grid of 20 Haar targets
(n in {2, 3, 4}) x two epsilon values backs every driver-level check.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from statesynth.clifford import (
    CRound,
    HRound,
    apply_inverse,
    find_overlap_clifford,
    random_clifford,
    random_clifford_from,
)
from statesynth.executors import (
    four_query_diagnostics,
    query_substitution_bound,
    run_four_query,
    run_four_query_dense,
    run_one_query,
    run_one_query_dense,
    run_postselect,
    run_ten_query,
)
from statesynth.executors.four_query import expand_structured
from statesynth.f2linalg import apply_to_all
from statesynth.geometry import GeometryQuery, cap_fraction, monte_carlo_cap, sphere_measure
from statesynth.numerics import DensityMatrix, PureState, haar_random_state, purify_rank1
from statesynth.rng import substream
from statesynth.synthesis import (
    build_plan,
    derive_hash_params,
    derive_params,
    find_hash_matrix,
    harmonic_number,
    hash_state_for,
    plan_to_oracle,
)

TARGETS = tuple((2, 100 + i) for i in range(7)) + tuple(
    (3, 200 + i) for i in range(7)
) + tuple((4, 300 + i) for i in range(6))
EPSILONS = (0.1, 0.01)


def _report(name: str, ok: bool, detail: str) -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"{tag}: {name} ({detail})")
    return ok


@functools.lru_cache(maxsize=None)
def _bundle(n: int, seed: int, eps: float):
    psi = haar_random_state(n, seed)
    plan = build_plan(psi, derive_params(n, eps), seed=seed)
    return psi, plan, plan_to_oracle(plan)


def test_criterion_01_single_query_pipeline():
    worst_err = 0.0
    worst_amp_gap = 0.0
    worst_wall = 0.0
    queries_ok = True
    for n, seed in TARGETS:
        for eps in EPSILONS:
            start = time.perf_counter()
            _, plan, oracle = _bundle(n, seed, eps)
            report = run_postselect(plan, oracle)
            wall = time.perf_counter() - start
            worst_err = max(worst_err, report.error_2norm / eps)
            worst_amp_gap = max(
                worst_amp_gap, abs(report.success_amplitude - plan.params.gamma) / eps
            )
            queries_ok = queries_ok and report.query_count == 1
            if (n, eps) == (4, 0.01):
                worst_wall = max(worst_wall, wall)
    ok = worst_err <= 1.0 and worst_amp_gap <= 1.0 and queries_ok and worst_wall < 120.0
    assert _report(
        "single-query pipeline on 20 targets x 2 tolerances",
        ok,
        f"max err/eps {worst_err:.2e}, max |amp-gamma|/eps {worst_amp_gap:.2e}, "
        f"slowest n=4 run {worst_wall:.1f}s",
    )


def test_criterion_02_residual_decay():
    worst_excess = -1.0
    tail_ok = True
    for n, seed in TARGETS:
        for eps in EPSILONS:
            _, plan, _ = _bundle(n, seed, eps)
            beta = plan.params.beta
            norms = np.asarray(plan.residual_norms)
            envelope = beta ** np.arange(norms.size)
            worst_excess = max(worst_excess, float(np.max(norms - envelope)))
    for eps in (0.25, 0.1, 0.01):
        for params in (derive_params(3, eps), derive_hash_params(3, eps)):
            tail_ok = tail_ok and params.beta**params.T <= 0.01 * eps
    ok = worst_excess <= 1e-12 and tail_ok
    assert _report(
        "residual norms under beta^k with beta^T <= eps/100",
        ok,
        f"max norm excess {worst_excess:.2e}",
    )


def test_criterion_03_one_query_trace_distance():
    worst = 0.0
    queries_ok = True
    for n, seed in TARGETS:
        for eps in EPSILONS:
            psi, plan, oracle = _bundle(n, seed, eps)
            report = run_one_query(psi, eps, plan=plan, oracle=oracle)
            worst = max(worst, report.error_trace / eps)
            queries_ok = queries_ok and report.query_count == 1
    psi = haar_random_state(2, 5)
    plan = build_plan(psi, derive_params(2, 0.25, t_override=2), seed=5)
    oracle = plan_to_oracle(plan)
    analytic = run_one_query(psi, 0.25, s_override=2, plan=plan, oracle=oracle)
    dense = run_one_query_dense(psi, 0.25, s=2, plan=plan, oracle=oracle)
    gap = float(np.max(np.abs(analytic.output_reduced.entries - dense.entries)))
    ok = worst <= 1.0 and queries_ok and gap < 1e-9
    assert _report(
        "one-query trace distance within eps, dense cross-check",
        ok,
        f"max td/eps {worst:.2e}, dense gap {gap:.2e}",
    )


def test_criterion_04_ten_query_amplification():
    worst_ideal = 0.0
    worst_real = 0.0
    bound_ok = True
    queries_ok = True
    for n, seed in TARGETS:
        for eps in EPSILONS:
            psi, plan, oracle = _bundle(n, seed, eps)
            ideal = run_ten_query(psi, eps, ideal=True, plan=plan, oracle=oracle)
            real = run_ten_query(psi, eps, plan=plan, oracle=oracle)
            worst_ideal = max(worst_ideal, ideal.error_2norm)
            worst_real = max(worst_real, real.error_2norm / eps)
            bound_ok = bound_ok and real.error_2norm <= query_substitution_bound(
                10, eps / (9.0 * math.sqrt(2.0))
            )
            queries_ok = (
                queries_ok and ideal.query_count == 10 and real.query_count == 10
            )
    ok = worst_ideal <= 1e-9 and worst_real <= 1.0 and bound_ok and queries_ok
    assert _report(
        "ten-query amplification exact in the ideal mode, <= eps real",
        ok,
        f"max ideal err {worst_ideal:.2e}, max real err/eps {worst_real:.2e}",
    )


def test_criterion_05_four_query_clean_synthesis():
    worst = 0.0
    queries_ok = True
    for n, seed in TARGETS:
        for eps in EPSILONS:
            psi, plan, oracle = _bundle(n, seed, eps)
            report = run_four_query(psi, eps, plan=plan, oracle=oracle)
            worst = max(worst, report.error_2norm / eps)
            queries_ok = queries_ok and report.query_count == 4
    intermediate_ok = True
    for n, seed in ((2, 100), (3, 200), (4, 300)):
        for eps in EPSILONS:
            psi, plan, oracle = _bundle(n, seed, eps)
            diag = four_query_diagnostics(psi, eps, ideal=True, plan=plan, oracle=oracle)
            cap = diag["delta_nominal"] ** diag["copies"]
            intermediate_ok = (
                intermediate_ok
                and diag["psi7_gap"] <= cap + 1e-12
                and diag["error_2norm"] <= 2.0 * cap
            )
    psi = haar_random_state(1, 7)
    plan = build_plan(psi, derive_params(1, 0.25, t_override=2), seed=7)
    oracle = plan_to_oracle(plan)
    final, info = run_four_query_dense(psi, 0.25, s=2, plan=plan, oracle=oracle)
    checkpoint, structured_final = expand_structured(
        psi, 0.25, 2, plan=plan, oracle=oracle
    )
    dense_gap = max(
        float(np.max(np.abs(info["psi7"] - checkpoint))),
        float(np.max(np.abs(final.amps - structured_final))),
    )
    ok = worst <= 1.0 and queries_ok and intermediate_ok and dense_gap < 1e-10
    assert _report(
        "four-query clean synthesis within eps, staged bounds, dense cross-check",
        ok,
        f"max err/eps {worst:.2e}, dense gap {dense_gap:.2e}",
    )


def test_criterion_06_perturbed_sign_robustness():
    worst_ratio = 0.0
    for i in range(20):
        n = 1 + i % 4
        psi = haar_random_state(n, 500 + i)
        params = derive_params(n, 0.25)
        plan = build_plan(psi, params, mode="perturbed", seed=500 + i)
        ratio = plan.residual_norms[-1] / params.beta**params.T
        worst_ratio = max(worst_ratio, ratio)
    ok = worst_ratio < 1.7
    assert _report(
        "perturbed-sign residuals within 1.7 beta^T on 20 targets",
        ok,
        f"max ratio {worst_ratio:.3f}",
    )


def _f2_image(matrix, x: int) -> int:
    # Indices map to coordinate vectors big-endian: coordinate i of x is
    # bit (width-1-i), and matrix row r produces output coordinate r.
    y = 0
    for r, row in enumerate(matrix.row_bits):
        parity = 0
        for c in range(matrix.cols):
            if (row >> c) & 1 and (x >> (matrix.cols - 1 - c)) & 1:
                parity ^= 1
        y |= parity << (matrix.rows - 1 - r)
    return y


def test_criterion_07_hash_state_guarantees():
    rng = substream(0, "acceptance-hash-states")
    worst_margin = math.inf
    mu_ok = True
    for i in range(100):
        n = 1 + i % 10
        dim = 1 << n
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        psi = PureState(n, v.astype(np.complex128))
        hstate, mu = hash_state_for(psi, seed=i)
        overlap = float(np.real(np.vdot(psi.amps, hstate.state_vector())))
        floor = mu / (2.0 * math.sqrt(2.0))
        worst_margin = min(worst_margin, overlap - floor)
        mu_ok = mu_ok and mu >= 1.0 / math.sqrt(harmonic_number(dim)) - 1e-12
    matrix_ok = True
    draw = substream(0, "acceptance-hash-matrices")
    for i in range(100):
        k = 1 + i % 8
        n = min(12, k + 1 + int(draw.integers(0, 5)))
        S = {int(x) for x in draw.choice(1 << n, size=1 << k, replace=False)}
        matrix, _ = find_hash_matrix(S, k, n, max_trials=200, seed=i)
        image = {_f2_image(matrix, x) for x in S}
        matrix_ok = matrix_ok and len(image) > 1 << (k - 1)
    ok = worst_margin >= -1e-12 and mu_ok and matrix_ok
    assert _report(
        "hash states clear the mu/(2 sqrt 2) overlap floor; hash matrices found",
        ok,
        f"min overlap margin {worst_margin:.2e}",
    )


def _inverse_on_bundle(desc, bundle: np.ndarray) -> np.ndarray:
    """C^dagger applied to each column, recomputed with plain reshapes."""
    work = np.array(bundle, dtype=np.complex128)
    for rnd in desc.rounds:
        if isinstance(rnd, HRound):
            for i, bit in enumerate(rnd.bits):
                if bit:
                    view = work.reshape(1 << i, 2, -1)
                    a0 = view[:, 0, :].copy()
                    view[:, 0, :] = (a0 + view[:, 1, :]) / math.sqrt(2.0)
                    view[:, 1, :] = (a0 - view[:, 1, :]) / math.sqrt(2.0)
        elif isinstance(rnd, CRound):
            perm = apply_to_all(rnd.m_inv)
            out = np.empty_like(work)
            out[perm] = work
            work = out
        else:
            for i, digit in enumerate(rnd.digits):
                d = (4 - digit) % 4
                if d:
                    view = work.reshape(1 << i, 2, -1)
                    view[:, 1, :] *= 1j**d
    return work


def test_criterion_08_overlap_clifford_frequency():
    # The helper must agree with the library's single-state inverse first.
    for n, seed in ((2, 3), (4, 4)):
        desc = random_clifford(n, seed)
        eta = haar_random_state(n, seed)
        direct = apply_inverse(desc, eta).amps
        batched = _inverse_on_bundle(desc, eta.amps[:, None])[:, 0]
        assert np.max(np.abs(direct - batched)) < 1e-12

    trials = 10_000
    min_freq = math.inf
    certificates_ok = True
    for n in (2, 3, 4):
        dim = 1 << n
        etas = np.stack(
            [haar_random_state(n, 1000 + 20 * n + j).amps for j in range(20)], axis=1
        )
        rng = substream(0, f"acceptance-cliffords-{n}")
        hits = np.zeros(20)
        for _ in range(trials):
            desc = random_clifford_from(rng, n)
            w = _inverse_on_bundle(desc, etas)
            overlaps = np.sum(np.abs(w.real), axis=0) / math.sqrt(dim)
            hits += overlaps >= 0.35
        min_freq = min(min_freq, float(hits.min()) / trials)
        for j in range(20):
            eta = PureState(n, etas[:, j])
            desc, achieved, _ = find_overlap_clifford(eta, 0.35, seed=j)
            recomputed = float(
                np.sum(np.abs(_inverse_on_bundle(desc, etas[:, j : j + 1]).real))
            ) / math.sqrt(dim)
            certificates_ok = (
                certificates_ok
                and achieved >= 0.35
                and recomputed >= 0.35 - 1e-9
                and abs(recomputed - achieved) < 1e-9
            )
    ok = min_freq >= 0.01 and certificates_ok
    assert _report(
        "overlap >= 0.35 hits at least 1% of random Cliffords; certificates verified",
        ok,
        f"min hit frequency {min_freq:.4f} over {trials} draws",
    )


def test_criterion_09_cap_fractions_and_measures():
    start = time.perf_counter()
    worst_sigmas = 0.0
    trials = 1_000_000
    for n in (1, 2):
        for eps in (0.3, 0.5, 0.8):
            query = GeometryQuery(n, eps)
            exact = cap_fraction(query)
            estimate = monte_carlo_cap(query, trials, seed=9)
            sigma = math.sqrt(exact * (1.0 - exact) / trials)
            worst_sigmas = max(worst_sigmas, abs(estimate - exact) / sigma)
    wall = time.perf_counter() - start
    measures_ok = (
        abs(sphere_measure(0) - 2.0) <= 1e-12
        and abs(sphere_measure(1) - 2.0 * math.pi) <= 1e-12
        and abs(sphere_measure(2) - 4.0 * math.pi) <= 1e-12
        and abs(sphere_measure(3) - 2.0 * math.pi**2) <= 1e-12
    )
    ok = worst_sigmas <= 4.0 and wall < 30.0 and measures_ok
    assert _report(
        "cap-fraction Monte Carlo within 4 sigma; closed-form measures exact",
        ok,
        f"worst deviation {worst_sigmas:.2f} sigma, {wall:.1f}s",
    )


def test_criterion_10_purification_bound():
    rng = np.random.default_rng(41)
    delta = 1e-10
    worst_ratio = 0.0
    for i in range(12):
        n = 1 + i % 4
        dim = 1 << n
        psi = haar_random_state(n, 600 + i)
        exact = np.outer(psi.amps, psi.amps.conj())
        noise = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
        noise = (noise + noise.conj().T) / 2.0
        noise *= delta / np.abs(noise).max()
        got = purify_rank1(DensityMatrix(n, exact + noise), delta)
        want = purify_rank1(DensityMatrix(n, exact), 0.0)
        phase = np.vdot(want.amps, got.amps)
        phase /= abs(phase)
        diff = float(np.max(np.abs(got.amps - phase * want.amps)))
        bound = 2.0 * math.sqrt(delta) / math.sqrt(0.125 * 2.0 ** (-2 * n))
        worst_ratio = max(worst_ratio, diff / bound)
    ok = worst_ratio <= 1.0
    assert _report(
        "purification of near-rank-1 inputs within the stated bound",
        ok,
        f"max diff/bound {worst_ratio:.3f}",
    )


def test_criterion_11_invariant_suites():
    from statesynth import verify

    start = time.perf_counter()
    results = verify.run_all(instances=200, seed=0)
    wall = time.perf_counter() - start
    failures = [r for r in results if not r.passed]
    for result in failures:
        print(f"suite failure: {result.suite}.{result.name}: {result.detail}")
    ok = not failures and wall < 600.0
    assert _report(
        "all randomized invariant suites at 200 instances",
        ok,
        f"{len(results)} checks, {len(failures)} failures, {wall:.0f}s",
    )
