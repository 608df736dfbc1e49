"""Tests for the four circuit drivers and their query accounting.

Plans are built once per (n, seed) and shared across drivers; the dense
cross-checks run with deliberately shrunken registers (t_override) so the
full tensor product stays small.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from statesynth import clifford as cliff
from statesynth.executors import (
    OracleMismatchError,
    PostselectCircuit,
    four_query_diagnostics,
    quantum_z_leakage,
    query_substitution_bound,
    run_four_query,
    run_four_query_dense,
    run_one_query,
    run_one_query_dense,
    run_postselect,
    run_ten_query,
)
from statesynth.executors.common import _hadamard_target
from statesynth.executors.four_query import default_copy_count as four_query_copies
from statesynth.executors.four_query import expand_structured
from statesynth.executors.one_query import default_copy_count as one_query_copies
from statesynth.numerics import (
    DensityMatrix,
    PureState,
    haar_random_state,
    trace_distance_mixed,
)
from statesynth.synthesis import build_plan, derive_params, plan_to_oracle

EPS = 0.25


@functools.lru_cache(maxsize=None)
def _plan_oracle(n: int, seed: int):
    psi = haar_random_state(n, seed)
    plan = build_plan(psi, derive_params(n, EPS), seed=seed)
    return psi, plan, plan_to_oracle(plan)


def _ket(n: int, x: int) -> PureState:
    amps = np.zeros(1 << n, dtype=complex)
    amps[x] = 1.0
    return PureState(n, amps)


def test_postselect_basis_target():
    psi = _ket(1, 0)
    plan = build_plan(psi, derive_params(1, EPS), seed=0)
    report = run_postselect(plan, plan_to_oracle(plan))
    gamma = plan.params.gamma
    assert report.query_count == 1
    assert report.error_2norm <= EPS
    assert abs(report.success_amplitude - gamma) <= EPS
    assert report.output_pure.n == plan.t_register + 1
    assert np.linalg.norm(report.output_pure.amps) == pytest.approx(1.0, abs=1e-9)


def test_postselect_haar_targets():
    for n, seed in ((1, 1), (2, 2), (2, 3)):
        _, plan, oracle = _plan_oracle(n, seed)
        report = run_postselect(plan, oracle)
        assert report.error_2norm <= EPS
        assert abs(report.success_amplitude - plan.params.gamma) <= EPS


def _per_row_reference(circuit: PostselectCircuit, state: np.ndarray, dagger: bool) -> np.ndarray:
    """The circuit with its step layer applied one row at a time, by k = 1
    clifford.apply / apply_inverse calls."""
    n = circuit.n
    move = cliff.apply_inverse if dagger else cliff.apply
    state = circuit._load(state.copy())
    if not dagger:
        state = circuit._query(_hadamard_target(state, n))
    for j, step in enumerate(circuit.plan.steps):
        state[j] = move(step.desc, PureState(n, state[j])).amps
    if dagger:
        state = _hadamard_target(circuit._query(state), n)
    return circuit._unload(state)


def test_batched_step_layer_matches_per_row():
    rng = np.random.default_rng(23)
    for n in range(1, 7):
        psi = haar_random_state(n, 40 + n)
        plan = build_plan(psi, derive_params(n, EPS, t_override=3), seed=n)
        oracle = plan_to_oracle(plan)
        circuit = PostselectCircuit(plan, oracle)
        reference = PostselectCircuit(plan, oracle)
        shape = (circuit.rows, circuit.dim)
        state = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for dagger in (False, True):
            run = circuit.apply_dagger if dagger else circuit.apply
            # Twice, so the second call runs the already compiled layer.
            for _ in range(2):
                assert np.array_equal(run(state), _per_row_reference(reference, state, dagger))
        assert circuit.query_count == reference.query_count == 4
        assert circuit.z_register == reference.z_register == bytes(len(plan.z))


def test_postselect_oracle_mismatch_detected():
    _, plan_a, _ = _plan_oracle(2, 2)
    _, _, oracle_b = _plan_oracle(2, 3)
    with pytest.raises(OracleMismatchError):
        run_postselect(plan_a, oracle_b)


def test_one_query_copy_formula():
    gamma = derive_params(1, 0.1).gamma
    # ceil(2 ln(2/eps) / gamma^2)
    assert one_query_copies(0.1, gamma) == 184
    assert one_query_copies(0.25, gamma) == 128
    for eps in (0.1, 0.25, 0.01):
        s = one_query_copies(eps, gamma)
        assert s == math.ceil(2.0 * math.log(2.0 / eps) / gamma**2)


def test_one_query_reduced_output():
    for n, seed in ((1, 1), (2, 2)):
        psi, plan, oracle = _plan_oracle(n, seed)
        report = run_one_query(psi, EPS, plan=plan, oracle=oracle)
        assert report.query_count == 1
        assert report.error_trace <= EPS
        rho = report.output_reduced
        assert rho.n == n
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(rho.entries - rho.entries.conj().T)) < 1e-9
        target = DensityMatrix(n, np.outer(psi.amps, psi.amps.conj()))
        assert trace_distance_mixed(rho, target) == pytest.approx(
            report.error_trace, abs=1e-12
        )


def test_one_query_analytic_matches_dense():
    # Two copies on a shrunken index register: full simulation fits 10 qubits.
    psi, _, _ = _plan_oracle(2, 2)
    analytic = run_one_query(psi, EPS, s_override=2, t_override=2, seed=2)
    dense = run_one_query_dense(psi, EPS, s=2, t_override=2, seed=2)
    assert np.max(np.abs(analytic.output_reduced.entries - dense.entries)) < 1e-9


def test_one_query_copy_order_invariance():
    psi, _, _ = _plan_oracle(2, 2)
    forward = run_one_query_dense(psi, EPS, s=2, t_override=2, seed=2)
    swapped = run_one_query_dense(psi, EPS, s=2, t_override=2, seed=2, copy_order=(1, 0))
    assert np.max(np.abs(forward.entries - swapped.entries)) < 1e-10


def test_ten_query_ideal_is_exact():
    for n, seed in ((1, 1), (2, 2)):
        psi, plan, oracle = _plan_oracle(n, seed)
        report = run_ten_query(psi, EPS, ideal=True, plan=plan, oracle=oracle)
        assert report.query_count == 10
        assert report.error_2norm <= 1e-9


def test_ten_query_real_mode():
    for n, seed in ((1, 1), (2, 2), (2, 3)):
        psi, plan, oracle = _plan_oracle(n, seed)
        report = run_ten_query(psi, EPS, plan=plan, oracle=oracle)
        assert report.query_count == 10
        assert report.error_2norm <= EPS
        assert report.success_amplitude is None
        assert report.error_trace is None
        assert np.linalg.norm(report.output_pure.amps) == pytest.approx(1.0, abs=1e-9)


def test_ten_query_substitution_bound():
    psi, plan, oracle = _plan_oracle(2, 2)
    deviation = four_query_diagnostics(psi, EPS, plan=plan, oracle=oracle)[
        "prep_deviation"
    ]
    report = run_ten_query(psi, EPS, plan=plan, oracle=oracle)
    assert report.error_2norm <= query_substitution_bound(10, deviation)
    # The classical tolerance choice eps/(9 sqrt 2) caps the same run at 10/9 eps.
    assert report.error_2norm <= query_substitution_bound(10, EPS / (9 * math.sqrt(2)))


def test_ten_query_needs_large_success_amplitude():
    # The hash schedule's flag amplitude sits below sin(pi/18).
    psi = _ket(2, 0)
    with pytest.raises(ValueError, match="sin"):
        run_ten_query(psi, EPS, strategy="hash")


def test_four_query_copy_formula():
    delta = math.sqrt(1.0 - derive_params(1, 0.1).gamma ** 2)
    assert four_query_copies(0.1, delta) == 256
    assert four_query_copies(0.25, delta) == 256
    assert four_query_copies(0.01, delta) == 512
    for eps in (0.1, 0.25, 0.01):
        s = four_query_copies(eps, delta)
        assert delta**s <= eps / 4.0
        assert s & (s - 1) == 0 and (s == 2 or delta ** (s // 2) > eps / 4.0)


def test_four_query_structured():
    for n, seed in ((1, 1), (2, 2)):
        psi, plan, oracle = _plan_oracle(n, seed)
        report = run_four_query(psi, EPS, plan=plan, oracle=oracle)
        assert report.query_count == 4
        assert report.error_2norm <= EPS
        assert report.output_pure.n == n
        assert report.success_amplitude is None
        assert report.error_trace is None
        assert np.linalg.norm(report.output_pure.amps) == pytest.approx(1.0, abs=1e-9)


def test_four_query_ideal_bounds():
    psi, plan, oracle = _plan_oracle(2, 2)
    diag = four_query_diagnostics(psi, EPS, ideal=True, plan=plan, oracle=oracle)
    delta = diag["delta_nominal"]
    s = diag["copies"]
    assert diag["psi7_gap"] <= delta**s + 1e-12
    assert diag["error_2norm"] <= 2.0 * delta**s
    assert diag["norm_sq"] == pytest.approx(1.0, abs=1e-9)


def test_four_query_diagnostics_real_mode():
    psi, plan, oracle = _plan_oracle(2, 2)
    diag = four_query_diagnostics(psi, EPS, plan=plan, oracle=oracle)
    assert diag["copies"] == 256
    assert diag["norm_sq"] == pytest.approx(1.0, abs=1e-9)
    # Substituting the real oracle block for the designed one moves the
    # output by at most sqrt(2) * (queries) * (per-call deviation).
    real = run_four_query(psi, EPS, plan=plan, oracle=oracle)
    ideal = run_four_query(psi, EPS, ideal=True, plan=plan, oracle=oracle)
    shift = np.linalg.norm(real.output_pure.amps - ideal.output_pure.amps)
    assert shift <= query_substitution_bound(4 * diag["copies"], diag["prep_deviation"])


def test_four_query_structured_matches_dense():
    # s = 2 copies, n = 1, t = 2: ten simulated qubits.
    psi = haar_random_state(1, 7)
    report = run_four_query(psi, EPS, s_override=2, t_override=2, seed=7)
    final, info = run_four_query_dense(psi, EPS, s=2, t_override=2, seed=7)
    checkpoint, structured_final = expand_structured(psi, EPS, 2, t_override=2, seed=7)
    assert np.max(np.abs(info["psi7"] - checkpoint)) < 1e-10
    assert np.max(np.abs(final.amps - structured_final)) < 1e-10
    assert info["error_2norm"] == pytest.approx(report.error_2norm, abs=1e-10)


def test_four_query_rejects_bad_copy_count():
    psi = _ket(1, 0)
    for bad in (1, 3, 6):
        with pytest.raises(ValueError, match="power of two"):
            run_four_query(psi, EPS, s_override=bad)


def test_quantum_z_register_stays_classical():
    psi, _, _ = _plan_oracle(1, 1)
    plan = build_plan(psi, derive_params(1, EPS, t_override=4), seed=1)
    oracle = plan_to_oracle(plan)
    leak, zval = quantum_z_leakage(plan, oracle, z_bits=8)
    assert leak < 1e-12
    assert zval == plan.z[0]
    with pytest.raises(ValueError):
        quantum_z_leakage(plan, oracle, z_bits=0)


def test_query_substitution_bound_examples():
    assert query_substitution_bound(10, 0.0) == 0.0
    eps = 0.1
    assert query_substitution_bound(10, eps / (9 * math.sqrt(2))) == pytest.approx(
        10 * eps / 9, abs=1e-15
    )
    s = 256
    assert query_substitution_bound(4 * s, eps / (math.sqrt(2) * 8 * s)) == pytest.approx(
        eps / 2, abs=1e-15
    )
    with pytest.raises(ValueError):
        query_substitution_bound(-1, 0.1)


def test_report_field_policy():
    psi, plan, oracle = _plan_oracle(1, 1)
    post = run_postselect(plan, oracle)
    assert post.success_amplitude is not None and post.error_2norm is not None
    assert post.output_reduced is None

    one = run_one_query(psi, EPS, plan=plan, oracle=oracle)
    assert one.success_amplitude is None and one.error_2norm is None
    assert one.error_trace is not None and one.output_pure is None

    ten = run_ten_query(psi, EPS, plan=plan, oracle=oracle)
    four = run_four_query(psi, EPS, plan=plan, oracle=oracle)
    for report in (ten, four):
        assert report.success_amplitude is None and report.error_trace is None
        assert report.error_2norm is not None and report.output_reduced is None
