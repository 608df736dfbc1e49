"""Tests for the four circuit drivers and their query accounting.

Plans are built once per (n, seed) and shared across drivers; the dense
cross-checks run with deliberately shrunken registers (t_override) so the
full tensor product stays small.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from statesynth import clifford as cliff
from statesynth.executors import (
    ExecutionReport,
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
from statesynth.executors.common import PreparedCircuit, _hadamard_target, _PlanarRotation
from statesynth.executors.four_query import default_copy_count as four_query_copies
from statesynth.executors.four_query import expand_structured
from statesynth.executors.one_query import default_copy_count as one_query_copies
from statesynth.numerics import (
    DensityMatrix,
    PureState,
    haar_random_state,
    trace_distance_mixed,
)
from statesynth.synthesis import (
    build_plan,
    derive_hash_params,
    derive_params,
    nominal_success_amplitude,
    plan_to_oracle,
)

EPS = 0.25


@functools.lru_cache(maxsize=None)
def _plan_oracle(n: int, seed: int):
    psi = haar_random_state(n, seed)
    plan = build_plan(psi, derive_params(n, EPS), seed=seed)
    return psi, plan, plan_to_oracle(plan)


def _small_plan_oracle(psi: PureState, seed: int) -> dict:
    """A t = 2 plan and its oracle, as driver keyword arguments, so the dense
    cross-checks stay small."""
    plan = build_plan(psi, derive_params(psi.n, EPS, t_override=2), seed=seed)
    return {"plan": plan, "oracle": plan_to_oracle(plan)}


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


def test_drivers_refuse_a_psi_the_plan_was_not_built_for():
    psi = haar_random_state(1, 4)
    kw = _small_plan_oracle(psi, 4)
    drivers = (run_one_query, run_one_query_dense, run_ten_query, run_four_query,
               four_query_diagnostics, run_four_query_dense,
               functools.partial(expand_structured, s=2))
    for other in (haar_random_state(1, 5), haar_random_state(2, 4)):
        for driver in drivers:
            with pytest.raises(ValueError, match="not the target"):
                driver(other, EPS, **kw)
    # The plan's own target, as an equal copy, is accepted.
    same = PureState(1, psi.amps.copy())
    assert run_one_query(same, EPS, **kw).error_trace == run_one_query(psi, EPS, **kw).error_trace


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
    small = _small_plan_oracle(psi, seed=2)
    analytic = run_one_query(psi, EPS, s_override=2, **small)
    dense = run_one_query_dense(psi, EPS, s=2, **small)
    assert np.max(np.abs(analytic.output_reduced.entries - dense.entries)) < 1e-9


def test_one_query_copy_order_invariance():
    psi, _, _ = _plan_oracle(2, 2)
    small = _small_plan_oracle(psi, seed=2)
    forward = run_one_query_dense(psi, EPS, s=2, **small)
    swapped = run_one_query_dense(psi, EPS, s=2, copy_order=(1, 0), **small)
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
    hash_plan = build_plan(psi, derive_hash_params(2, EPS), strategy="hash")
    with pytest.raises(ValueError, match="sin"):
        run_ten_query(psi, EPS, plan=hash_plan)
    # The floor is checked before any circuit work: a mismatched oracle
    # would otherwise raise OracleMismatchError.
    _, _, other_oracle = _plan_oracle(2, 2)
    with pytest.raises(ValueError, match="sin"):
        run_ten_query(psi, EPS, plan=hash_plan, oracle=other_oracle)


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
    # s = 2 copies, n = 1, t = 2: ten simulated qubits.  The hash plan holds
    # degenerate hash steps (the step state is the sign state up to a
    # phase), so its uncomputation runs the degenerate rotation's inverse.
    psi = haar_random_state(1, 7)
    hash_psi = haar_random_state(1, 61)
    hash_plan = build_plan(
        hash_psi, derive_hash_params(1, EPS, t_override=2), strategy="hash", seed=1
    )
    cases = (
        (psi, _small_plan_oracle(psi, seed=7)),
        (hash_psi, {"plan": hash_plan, "oracle": plan_to_oracle(hash_plan)}),
    )
    for target, small in cases:
        report = run_four_query(target, EPS, s_override=2, **small)
        final, info = run_four_query_dense(target, EPS, s=2, **small)
        checkpoint, structured_final = expand_structured(target, EPS, 2, **small)
        assert np.max(np.abs(info["psi7"] - checkpoint)) < 1e-10
        assert np.max(np.abs(final.amps - structured_final)) < 1e-10
        assert info["error_2norm"] == pytest.approx(report.error_2norm, abs=1e-10)


def test_four_query_meets_epsilon_on_hash_plans():
    # The hash plans of the CLI's pinned report rows (target and plan seed 3).
    for mode, n in itertools.product(("exact", "perturbed"), (1, 2)):
        psi = haar_random_state(n, 3)
        plan = build_plan(psi, derive_hash_params(n, EPS), strategy="hash", mode=mode, seed=3)
        assert run_four_query(psi, EPS, plan=plan).error_2norm <= EPS
    # Complex n = 5 targets whose plans each hold one degenerate hash step:
    # four-query uncomputes it in every one of its 4096 copies.
    eps = 0.01
    for seed in (2, 8):
        rng = np.random.default_rng([seed])
        amps = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        psi = PureState(5, amps / np.linalg.norm(amps))
        plan = build_plan(psi, derive_hash_params(5, eps), strategy="hash", seed=seed)
        assert run_four_query(psi, eps, plan=plan).error_2norm <= eps


def test_planar_rotation_inverse_undoes_apply():
    rng = np.random.default_rng(17)
    for dim in (4, 16, 64):
        # w a sign state, as in a hash step: its norm is exactly 1, so
        # xi = c w with |c| = 1 takes the degenerate branch.
        w = (1.0 - 2.0 * rng.integers(0, 2, dim)) / math.sqrt(dim)
        for c in (None, 1.0, -1.0, 1j, -1j):
            if c is None:
                xi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                xi /= np.linalg.norm(xi)
            else:
                xi = c * w
            rot = _PlanarRotation(w, xi)
            assert (rot.frames is None) == (c is not None)
            assert np.max(np.abs(rot.apply(w) - xi)) <= 1e-12
            x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            assert np.max(np.abs(rot.apply_inverse(rot.apply(x)) - x)) <= 1e-12
            assert np.max(np.abs(rot.apply(rot.apply_inverse(x)) - x)) <= 1e-12


def test_circuit_dagger_undoes_apply():
    degenerate = 0
    for n in range(1, 6):
        psi = haar_random_state(n, n)
        real = PureState(n, psi.amps.real / np.linalg.norm(psi.amps.real))
        plans = (
            build_plan(psi, derive_params(n, EPS), seed=n),
            build_plan(real, derive_hash_params(n, EPS), strategy="hash", seed=n),
            build_plan(psi, derive_hash_params(n, EPS), strategy="hash", seed=n),
        )
        assert [plan.track_count for plan in plans[1:]] == [1, 2]
        for plan in plans:
            circuit = PostselectCircuit(plan, plan_to_oracle(plan))
            zero = circuit.zero_state()
            assert np.linalg.norm(circuit.apply_dagger(circuit.apply(zero)) - zero) <= 1e-12
            degenerate += sum(rot.frames is None for _, rot in circuit._rotations)
    assert degenerate > 0


def _index_gate_reference(state: np.ndarray, t_reg: int, q: int, mat: np.ndarray) -> np.ndarray:
    """The allocate-per-gate index-qubit gate: the bit-for-bit reference for
    the in-place gates of PostselectCircuit._load and _unload."""
    tail = state.shape[1]
    view = state.reshape(1 << q, 2, 1 << (t_reg - 1 - q), tail)
    out = np.empty_like(view)
    out[:, 0] = mat[0, 0] * view[:, 0] + mat[0, 1] * view[:, 1]
    out[:, 1] = mat[1, 0] * view[:, 0] + mat[1, 1] * view[:, 1]
    return out.reshape(state.shape)


def _gates_reference(circuit: PostselectCircuit, state: np.ndarray, transpose: bool) -> np.ndarray:
    for q, gate in enumerate(circuit._gates):
        state = _index_gate_reference(state, circuit.t_reg, q, gate.T if transpose else gate)
    return state


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_index_register_gates_match_reference_bit_for_bit():
    psi = haar_random_state(3, 8)
    hash_plan = build_plan(psi, derive_hash_params(3, EPS), strategy="hash", seed=2)
    assert hash_plan.track_count == 2
    rng = np.random.default_rng(29)
    for plan in (build_plan(psi, derive_params(3, EPS), seed=2), hash_plan):
        circuit = PostselectCircuit(plan, plan_to_oracle(plan))
        zero = circuit.zero_state()
        dense = rng.standard_normal(zero.shape) + 1j * rng.standard_normal(zero.shape)
        signed = dense.copy()
        signed[::3] = -0.0
        signed[1::5, 2] = complex(-0.0, -0.0)
        leading = dense.copy()
        leading[:, 3:] = 0.0
        stray = zero.copy()
        stray[5, 6] = -0.0  # all else +0.0: the -0.0 column still gets gated
        for state in (zero, dense, signed, leading, stray, np.zeros_like(zero)):
            assert _same_bits(circuit._load(state.copy()), _gates_reference(circuit, state, False))
            assert _same_bits(circuit._unload(state.copy()), _gates_reference(circuit, state, True))

        reference = PostselectCircuit(plan, plan_to_oracle(plan))
        want = _hadamard_target(_gates_reference(reference, reference.zero_state(), False), 3)
        want = reference._steps(reference._query(want), invert=False)
        want = _gates_reference(reference, want, True)
        assert _same_bits(circuit.prepare(), want)
        assert circuit.query_count == reference.query_count == 1

        before = signed.copy()
        circuit.apply(signed)
        circuit.apply_dagger(signed)
        ideal = PreparedCircuit(plan, plan_to_oracle(plan), ideal=True)
        ideal.apply(signed)
        ideal.apply_dagger(signed)
        assert _same_bits(signed, before)


def test_four_query_rejects_bad_copy_count():
    psi = _ket(1, 0)
    for bad in (1, 3, 6):
        with pytest.raises(ValueError, match="power of two"):
            run_four_query(psi, EPS, s_override=bad)
        with pytest.raises(ValueError, match="power of two"):
            expand_structured(psi, EPS, bad)


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

    # copies: the count the driver ran, None where no copies are made.
    gamma = nominal_success_amplitude(plan)
    assert one.copies == one_query_copies(EPS, gamma)
    assert four.copies == four_query_copies(EPS, math.sqrt(1.0 - gamma**2))
    assert post.copies is None and ten.copies is None
    assert run_one_query(psi, EPS, s_override=3, plan=plan, oracle=oracle).copies == 3
    assert run_four_query(psi, EPS, s_override=8, plan=plan, oracle=oracle).copies == 8


def _digest_feed(h, value) -> None:
    """Feed a driver output into a hash at full precision, field by field."""
    if value is None:
        h.update(b"N")
    elif isinstance(value, ExecutionReport):
        for field in dataclasses.fields(value):
            h.update(field.name.encode())
            _digest_feed(h, getattr(value, field.name))
    elif isinstance(value, PureState):
        _digest_feed(h, value.amps)
    elif isinstance(value, DensityMatrix):
        _digest_feed(h, value.entries)
    elif isinstance(value, dict):
        for key in sorted(value):
            h.update(key.encode())
            _digest_feed(h, value[key])
    elif isinstance(value, tuple):
        for item in value:
            _digest_feed(h, item)
    elif isinstance(value, np.ndarray):
        h.update(np.ascontiguousarray(value, dtype=np.complex128).tobytes())
    else:
        h.update(repr(value).encode())


#: sha256 of every executor entry point's outputs over the grid of
#: test_executor_outputs_pinned.  Equal plans must keep giving these bits.
#: Re-recorded once when the degenerate hash-step inverse was corrected:
#: only the four-query outputs on hash plans moved, the ones that run A^dagger
#: through a hash step (the dense evaluator's own A^dagger is a_mat.conj().T).
_EXECUTOR_OUTPUTS_DIGEST = "f73b429d3b5a877324033314ade501e7cc15a59c13125bec968ccb742c1c830a"


def test_executor_outputs_pinned():
    h = hashlib.sha256()
    for strategy, mode, n in itertools.product(
        ("clifford", "hash"), ("exact", "perturbed"), (1, 2)
    ):
        psi = haar_random_state(n, 60 + n)
        derive = derive_hash_params if strategy == "hash" else derive_params
        plan = build_plan(
            psi, derive(n, EPS, t_override=2), strategy=strategy, mode=mode, seed=n
        )
        oracle = plan_to_oracle(plan)
        kw = {"plan": plan, "oracle": oracle}
        outputs = [
            run_postselect(plan, oracle),
            run_one_query(psi, EPS, **kw),
            run_one_query(psi, EPS, s_override=3, **kw),
            run_four_query(psi, EPS, **kw),
            run_four_query(psi, EPS, ideal=True, **kw),
            four_query_diagnostics(psi, EPS, **kw),
            four_query_diagnostics(psi, EPS, ideal=True, **kw),
            run_one_query_dense(psi, EPS, s=2, **kw),
            run_one_query_dense(psi, EPS, s=2, copy_order=(1, 0), **kw),
            run_four_query_dense(psi, EPS, s=2, **kw),
            run_four_query_dense(psi, EPS, s=2, ideal=True, **kw),
            expand_structured(psi, EPS, 2, **kw),
            expand_structured(psi, EPS, 2, ideal=True, **kw),
            quantum_z_leakage(plan, oracle, z_bits=8),
        ]
        if strategy == "clifford":  # hash plans sit below the ten-query floor
            outputs += [
                run_ten_query(psi, EPS, **kw),
                run_ten_query(psi, EPS, ideal=True, **kw),
            ]
        for value in outputs:
            _digest_feed(h, value)
    assert h.hexdigest() == _EXECUTOR_OUTPUTS_DIGEST


def test_four_query_memory_stays_per_register():
    """The structured evaluator keeps per-register factors only: at 256 rows
    x 64 amplitudes and s = 256 copies, a dense (2, rows, dim, dim) branch
    tensor alone would take 32 MiB."""
    psi = haar_random_state(6, 11)
    plan = build_plan(psi, derive_params(6, 0.25), seed=1)
    oracle = plan_to_oracle(plan)
    tracemalloc.start()
    try:
        report = run_four_query(psi, 0.25, plan=plan, oracle=oracle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.copies == 256
    assert peak <= 16 << 20
