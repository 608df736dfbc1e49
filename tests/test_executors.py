"""Tests for the four circuit drivers and their query accounting.

Plans are built once per (n, seed) and shared across drivers; the dense
cross-checks run with deliberately shrunken registers (t_override) so the
full tensor product stays small.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import itertools
import math
import types
import weakref

import numpy as np
import pytest
from conftest import traced_memory

from statesynth import clifford as cliff
from statesynth import verify
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
from statesynth.executors import common, four_query
from statesynth.executors.common import (
    PreparedCircuit,
    _PlanarRotations,
    _SignRows,
    _SparseRows,
)
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
    OracleSpec,
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


def _target_h_reference(state: np.ndarray, n: int) -> np.ndarray:
    """H on every target qubit of a (rows, 2^n) state, the whole state at
    once and into fresh arrays: the reference for the circuit's target H."""
    for i in range(n):
        view = state.reshape(state.shape[0], 1 << i, 2, 1 << (n - 1 - i))
        a0 = view[:, :, 0].copy()
        a1 = view[:, :, 1]
        view[:, :, 0] = (a0 + a1) * cliff._INV_SQRT2
        view[:, :, 1] = (a0 - a1) * cliff._INV_SQRT2
    return state


def _query_reference(circuit: PostselectCircuit, state: np.ndarray) -> np.ndarray:
    """The oracle's phase kickback on the whole state: each amplitude times
    its float64 sign 1 - 2 bit, read from the oracle's sign table."""
    return state * (1.0 - 2.0 * circuit.oracle.sign_rows())


def _step_layer_reference(plan, state: np.ndarray, inverse: bool) -> np.ndarray:
    """The plan's step layer one row at a time, in place: k = 1
    clifford.apply / apply_inverse calls, or each hash step's
    _PlanarRotationReference from its sign state to its phased hash state."""
    n = plan.params.n
    for j, step in enumerate(plan.steps):
        if step.kind == "clifford":
            move = cliff.apply_inverse if inverse else cliff.apply
            state[j] = move(step.desc, PureState(n, state[j])).amps
        else:
            w = (1.0 - 2.0 * step.signs.bits) * (1.0 / math.sqrt(1 << n))
            xi = np.multiply(step.phase, step.hash_state.state_vector())
            state[j] = _PlanarRotationReference(w, xi).map(state[j], inverse)
    return state


def _circuit_reference(circuit: PostselectCircuit, state: np.ndarray, dagger: bool) -> np.ndarray:
    """A (or A^dagger) with every stage run over the whole state: the index
    gates, the target H, the query and the step layer one row at a time."""
    n = circuit.n
    state = _gates_reference(circuit, state, False)
    if not dagger:
        state = _query_reference(circuit, _target_h_reference(state, n))
    state = _step_layer_reference(circuit.plan, state, dagger)
    if dagger:
        state = _target_h_reference(_query_reference(circuit, state), n)
    return _gates_reference(circuit, state, True)


def test_batched_step_layer_matches_per_row():
    rng = np.random.default_rng(23)
    for n, strategy in itertools.product(range(1, 7), ("clifford", "hash")):
        psi = haar_random_state(n, 40 + n)
        derive = derive_hash_params if strategy == "hash" else derive_params
        plan = build_plan(psi, derive(n, EPS, t_override=3), strategy=strategy, seed=n)
        oracle = plan_to_oracle(plan)
        circuit = PostselectCircuit(plan, oracle)
        shape = (circuit.rows, circuit.dim)
        state = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for dagger in (False, True):
            run = circuit.apply_dagger if dagger else circuit.apply
            # Twice, so the second call runs the already compiled layer.
            for _ in range(2):
                assert _same_bits(run(state), _circuit_reference(circuit, state, dagger))
        assert circuit.query_count == 4
        assert circuit.z_register == bytes(len(plan.z))


def test_postselect_oracle_mismatch_detected():
    _, plan_a, oracle_a = _plan_oracle(2, 2)
    _, _, oracle_b = _plan_oracle(2, 3)
    # Another plan's sign table, and this plan's signs with another z.
    wrong_z = OracleSpec(oracle_a.n, oracle_a.t, oracle_a.sign_bits, oracle_b.desc_section)
    for oracle in (oracle_b, wrong_z):
        with pytest.raises(OracleMismatchError):
            run_postselect(plan_a, oracle)
    # The oracle is checked on every call, also once a driver has built the
    # plan's shared circuit parts.
    run_postselect(plan_a, oracle_a)
    for oracle in (oracle_b, wrong_z):
        with pytest.raises(OracleMismatchError):
            PostselectCircuit(plan_a, oracle)
        with pytest.raises(OracleMismatchError):
            run_postselect(plan_a, oracle)


def _run_every_driver(psi: PureState, plan, oracle) -> None:
    """Postselect, one-query, and ten- and four-query exact and ideal."""
    kw = {"plan": plan, "oracle": oracle}
    run_postselect(plan, oracle)
    run_one_query(psi, EPS, **kw)
    for ideal in (False, True):
        run_ten_query(psi, EPS, ideal=ideal, **kw)
        run_four_query(psi, EPS, ideal=ideal, **kw)


def test_step_layer_compiled_once_per_plan_and_direction(monkeypatch):
    mixed_psi = haar_random_state(2, 3)
    mixed = build_plan(mixed_psi, derive_params(2, EPS, t_override=2), seed=3)
    identity = cliff.identity_desc(2)
    moved = [step.desc for step in mixed.steps if step.desc is not identity]
    assert 0 < len(moved) < len(mixed.steps)
    flat_psi = PureState(1, np.array([0.6, 0.8], dtype=complex))
    flat = build_plan(flat_psi, derive_params(1, EPS), seed=1)
    assert all(step.desc is cliff.identity_desc(1) for step in flat.steps)

    built = []

    class CountingLayer(cliff.CliffordLayer):
        def __init__(self, descs, invert=False):
            built.append((list(descs), invert))
            super().__init__(descs, invert)

    monkeypatch.setattr(cliff, "CliffordLayer", CountingLayer)
    _run_every_driver(mixed_psi, mixed, plan_to_oracle(mixed))
    # One layer per direction, over the non-identity rows only.
    assert sorted(invert for _, invert in built) == [False, True]
    for descs, _ in built:
        assert len(descs) == len(moved)
        assert all(d is m for d, m in zip(descs, moved))
    built.clear()
    _run_every_driver(flat_psi, flat, plan_to_oracle(flat))
    assert built == []


def test_hash_rotations_built_once_per_plan(monkeypatch):
    psi = haar_random_state(2, 5)
    plan = build_plan(psi, derive_hash_params(2, EPS), strategy="hash", seed=5)
    oracle = plan_to_oracle(plan)
    built = []

    class CountingRotations(_PlanarRotations):
        def __init__(self, w, xi):
            built.append(w.shape[0])
            super().__init__(w, xi)

    monkeypatch.setattr(common, "_PlanarRotations", CountingRotations)
    run_postselect(plan, oracle)
    run_one_query(psi, EPS, plan=plan, oracle=oracle)
    # One stacked layer per plan, one row per hash step.
    assert built == [len(plan.steps)]
    circuit = PostselectCircuit(plan, oracle)
    assert circuit._parts.rotations.w.shape == (len(plan.steps), circuit.dim)
    assert built == [len(plan.steps)]


def test_shared_circuit_parts_die_with_the_plan():
    """The parts cached for a plan hold no reference to it, and nothing else
    holds them or the A|0..0> kept among them: one n = 8, T = 2048 hash
    plan's parts are about 11.4 MiB, 8 MiB of it that state."""
    for strategy, derive in (("clifford", derive_params), ("hash", derive_hash_params)):
        psi = haar_random_state(2, 7)
        plan = build_plan(psi, derive(2, EPS), strategy=strategy, seed=7)
        oracle = plan_to_oracle(plan)
        run_postselect(plan, oracle)
        run_one_query(psi, EPS, plan=plan, oracle=oracle)
        run_four_query(psi, EPS, plan=plan, oracle=oracle)
        circuit = PostselectCircuit(plan, oracle)
        plan_ref, parts_ref = weakref.ref(plan), weakref.ref(circuit._parts)
        prepared_ref = weakref.ref(circuit._parts.prepared)
        del plan, circuit
        gc.collect()
        assert plan_ref() is None
        assert parts_ref() is None
        assert prepared_ref() is None


def test_hash_circuit_memory_stays_compact():
    """A hash plan keeps no dense (T, 2^n) frames and no +-1 sign matrix,
    and A runs in its state plus blocks of about _BLOCK_AMPS amplitudes: on
    a 2048 x 128 register (4 MiB a state, 16 MiB for four dense frames)
    run_postselect peaks under 10 MiB and leaves under 8 MiB behind, the
    plan's cached parts, its A|0..0> among them, included."""
    plan = build_plan(
        haar_random_state(7, 3), derive_hash_params(7, 0.25), strategy="hash", seed=3
    )
    oracle = plan_to_oracle(plan)
    assert (plan.t_register, len(plan.steps)) == (11, 2048)
    peak, kept = traced_memory(run_postselect, plan, oracle)
    assert peak <= 10 << 20
    assert kept <= 8 << 20


def test_clifford_circuit_memory_stays_blocked():
    """The Clifford step layer runs a block of rows at a time like every
    other stage of A, through per-block layers over each block's
    non-identity rows: on a 1024 x 256 register (4 MiB a state, 241
    non-identity rows) run_postselect peaks under 8.5 MiB.  A step layer
    that gathers its rows whole peaks near 9.9 MiB."""
    plan = build_plan(haar_random_state(8, 3), derive_params(8, 0.01), seed=0)
    oracle = plan_to_oracle(plan)
    assert (plan.t_register, len(plan.steps)) == (10, 1024)
    identity = cliff.identity_desc(8)
    assert sum(step.desc is not identity for step in plan.steps) == 241
    peak, _kept = traced_memory(run_postselect, plan, oracle)
    assert peak <= 8.5 * (1 << 20)


def test_ideal_apply_copies_the_state_once():
    """Ideal-mode A rotates a copy of its input and runs A on that copy in
    place: on a 256 x 64 register (256 KiB a state, R, which is also one
    block of _BLOCK_AMPS amplitudes) one application peaks near 3.0 R, the
    copy and two blocks of buffers; the rotation's own is one scratch
    block.  A second copy for A, as before, peaked near 4.0 R.  The output
    is A of the rotated state, one query."""
    psi = haar_random_state(6, 3)
    plan = build_plan(psi, derive_params(6, 0.25), seed=3)
    prep = PreparedCircuit(plan, plan_to_oracle(plan), ideal=True)
    state = prep.state
    size = state.nbytes
    assert size == 256 << 10
    prep._ideal_rotation  # its frames cost one A^dagger, once
    before = prep.circuit.query_count
    out = prep.apply(state)
    assert prep.circuit.query_count == before + 1
    flat = state.reshape(-1).copy()
    prep._rotate(flat, inverse=False)
    want = PostselectCircuit(plan, plan_to_oracle(plan)).apply(flat.reshape(state.shape))
    assert _same_bits(out, want)
    peak, _kept = traced_memory(prep.apply, state)
    assert peak <= 3.5 * size


def test_prepared_state_built_once_per_plan(monkeypatch):
    """Every driver on one plan shares one read-only A|0..0>, computed by the
    first call; each call still counts its own query, and each output equals,
    bit for bit, that of the same driver on a fresh plan."""
    psi = haar_random_state(2, 9)

    def fresh() -> dict:
        plan = build_plan(psi, derive_params(2, EPS), seed=9)
        return {"plan": plan, "oracle": plan_to_oracle(plan)}

    calls = (
        lambda kw: run_postselect(kw["plan"], kw["oracle"]),
        lambda kw: run_one_query(psi, EPS, **kw),
        lambda kw: run_ten_query(psi, EPS, **kw),
        lambda kw: run_four_query(psi, EPS, **kw),
        lambda kw: run_ten_query(psi, EPS, ideal=True, **kw),
        lambda kw: run_four_query(psi, EPS, ideal=True, **kw),
    )
    zero_runs = []
    forward = PostselectCircuit._forward

    def counting_forward(self, state):
        if _same_bits(state, self.zero_state()):
            zero_runs.append(state.shape)
        return forward(self, state)

    monkeypatch.setattr(PostselectCircuit, "_forward", counting_forward)
    shared = fresh()
    reports = [call(shared) for call in calls]
    assert len(zero_runs) == 1
    assert [report.query_count for report in reports] == [1, 1, 10, 4, 10, 4]
    circuit = PostselectCircuit(shared["plan"], shared["oracle"])
    prepared = circuit.prepare()
    assert circuit.query_count == 1 and len(zero_runs) == 1
    assert not prepared.flags.writeable
    assert np.shares_memory(reports[0].output_pure.amps, prepared)
    for call, report in zip(calls, reports):
        got, want = hashlib.sha256(), hashlib.sha256()
        _digest_feed(got, report)
        _digest_feed(want, call(fresh()))
        assert got.digest() == want.digest()


def test_blocked_circuit_matches_unblocked(monkeypatch):
    """prepare, apply and apply_dagger give every bit, -0.0 included, of
    their one-block outputs when _BLOCK_AMPS holds 3, 5 or 13 rows of 2^n
    amplitudes, which split the 64-row index register unevenly, on Clifford
    and hash plans at n 1-6."""
    rng = np.random.default_rng(37)
    for n, strategy in itertools.product(range(1, 7), ("clifford", "hash")):
        derive = derive_hash_params if strategy == "hash" else derive_params
        params = derive(n, EPS, t_override=6)
        plan = build_plan(haar_random_state(n, 70 + n), params, strategy=strategy, seed=n)
        oracle = plan_to_oracle(plan)
        shape = (1 << plan.t_register, 1 << n)
        state = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        state[::3] *= -0.0  # signed zeros: -0.0 where the draw was positive
        outputs = []
        for amps in (shape[0] * shape[1], 3 << n, 5 << n, 13 << n):
            monkeypatch.setattr(common, "_BLOCK_AMPS", amps)
            plan.__dict__.pop("_plan_circuit", None)  # rebuild the parts in these blocks
            circuit = PostselectCircuit(plan, oracle)
            outputs.append((circuit.prepare(), circuit.apply(state), circuit.apply_dagger(state)))
        for blocked in outputs[1:]:
            for got, want in zip(blocked, outputs[0]):
                assert _same_bits(got, want)


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


def test_verify_runs_one_exact_four_query_evaluation(monkeypatch):
    """Each instance of the executors suite runs the structured four-query
    evaluation twice, exact and then ideal, and reads the exact report and
    its diagnostics from the one exact run, not from a run each."""
    runs = []
    structured_run = four_query._structured_run

    def counting(prep, h, s):
        runs.append(prep.ideal)
        return structured_run(prep, h, s)

    monkeypatch.setattr(four_query, "_structured_run", counting)
    results = verify.run_suite("executors", instances=2, seed=0)
    assert all(result.passed for result in results)
    assert runs == [False, True] * 2


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
        bits = rng.integers(0, 2, (1, dim)).astype(np.uint8)
        w = (1.0 - 2.0 * bits[0]) / math.sqrt(dim)
        for c in (None, 1.0, -1.0, 1j, -1j):
            if c is None:
                values = rng.standard_normal(dim)
                values /= np.linalg.norm(values)
                phase = complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
            else:
                values, phase = w, c
            xi = phase * values
            rot = _PlanarRotations(
                _SignRows(bits, 1.0 / math.sqrt(dim)),
                _SparseRows(dim, [phase], [np.arange(dim)], [values]),
            )
            assert bool(rot.degenerate) == (c is not None)

            def apply(v, inverse=False):
                return _rotate_layer(rot, v[None].astype(complex), inverse)[0]

            assert np.max(np.abs(apply(w) - xi)) <= 1e-12
            x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            assert np.max(np.abs(apply(apply(x), inverse=True) - x)) <= 1e-12
            assert np.max(np.abs(apply(apply(x, inverse=True)) - x)) <= 1e-12


def _rotate_layer(layer: _PlanarRotations, state: np.ndarray, inverse: bool) -> np.ndarray:
    """The layer (or its inverse) on every row of state, in place, a block
    of rows at a time as the circuit's pass runs it."""
    buf = layer.buffer()
    for b in common._blocks(*layer.w.shape):
        layer.rotate(state[b], b, buf, inverse)
    return state


class _PlanarRotationReference:
    """One row of _PlanarRotations the way it was computed before the rows
    were stacked: the bit-for-bit reference of
    test_planar_rotations_match_per_row."""

    def __init__(self, w: np.ndarray, xi: np.ndarray) -> None:
        w = w.astype(np.complex128)
        xi = xi.astype(np.complex128)
        c = complex(np.vdot(w, xi))
        s = math.sqrt(max(0.0, 1.0 - abs(c) ** 2))
        self.c = c
        self.w = w
        self.frames = None
        if s > 1e-14:
            g = (xi - c * w) / s
            self.frames = ((w, g), (xi, s * w - np.conj(c) * g))

    def map(self, v: np.ndarray, inverse: bool) -> np.ndarray:
        if self.frames is None:
            c = np.conj(self.c) if inverse else self.c
            return v + np.vdot(self.w, v) * (c - 1.0) * self.w
        (u0, u1), (d0, d1) = self.frames[::-1] if inverse else self.frames
        a0 = np.vdot(u0, v)
        a1 = np.vdot(u1, v)
        return v - a0 * u0 - a1 * u1 + a0 * d0 + a1 * d1


def test_planar_rotations_match_per_row(monkeypatch):
    """Every bit, -0.0 included, of the four frames a block of rows
    rebuilds and of both directions equals the per-row reference, over 12
    state rows in one block of rows and in blocks of 5, 5 and 2.  The rows
    are held as the plan's hash steps are, sign rows to phased sparse rows,
    and map sign states to phased hash states, to phased real vectors on a
    random support and, degenerately, to themselves times -1 or -i."""
    rng = np.random.default_rng(31)
    for n, block_rows in itertools.product(range(1, 9), (12, 5)):
        dim = 1 << n
        monkeypatch.setattr(common, "_BLOCK_AMPS", block_rows * dim)
        bits = rng.integers(0, 2, (12, dim)).astype(np.uint8)
        signs = 1.0 - 2.0 * bits
        scale = 1.0 / math.sqrt(dim)
        ws = signs * scale
        phases, supports, values, xis = [], [], [], []
        for r in range(12):
            if r < 10:
                k = int(rng.integers(0, n + 1))
                support = np.sort(rng.choice(dim, 1 << k, replace=False))
                if r < 6:
                    value = (1.0 - 2.0 * rng.integers(0, 2, 1 << k)) * 2.0 ** (-k / 2.0)
                    phase = 1j if r % 2 else 1 + 0j
                else:
                    value = rng.standard_normal(1 << k)
                    value /= np.linalg.norm(value)
                    phase = complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
            else:
                # Degenerate at even n, where the sign state's norm is exactly 1.
                support, value, phase = np.arange(dim), ws[r], -1j if r % 2 else -1 + 0j
            amps = np.zeros(dim, dtype=np.complex128)
            amps[support] = value
            xis.append(np.multiply(phase, amps))
            phases.append(phase)
            supports.append(support)
            values.append(value)
        layer = _PlanarRotations(
            _SignRows(bits, scale), _SparseRows(dim, phases, supports, values)
        )
        refs = [_PlanarRotationReference(w, xi) for w, xi in zip(ws, xis)]
        assert [i for i, _ in layer.degenerate] == [
            i for i, ref in enumerate(refs) if ref.frames is None
        ]
        buf = layer.buffer()
        for b in common._blocks(12, dim):
            frames = layer.frames(b, buf)
            for i, ref in enumerate(refs[b], start=b.start):
                if ref.frames is not None:
                    for got, want in zip(frames, ref.frames):
                        assert _same_bits(got[0][i - b.start], want[0])
                        assert _same_bits(got[1][i - b.start], want[1])
        state = rng.standard_normal((12, dim)) + 1j * rng.standard_normal((12, dim))
        state[:, : dim // 2] *= 0.0  # signed zeros: -0.0 where the draw was negative
        for inverse in (False, True):
            want = np.array([ref.map(row, inverse) for ref, row in zip(refs, state)])
            got = _rotate_layer(layer, state.copy(), inverse)
            assert _same_bits(got, want)


def _prepared_rotating_to(xi: np.ndarray) -> PreparedCircuit:
    """A PreparedCircuit in ideal mode whose rotation sends e0 to the flat
    unit vector xi: its circuit's A^dagger returns xi whatever it is given."""
    prep = object.__new__(PreparedCircuit)
    prep.circuit = types.SimpleNamespace(apply_dagger=lambda _state: xi.copy())
    prep.designed = None
    return prep


def test_ideal_rotation_matches_planar_reference():
    """The ideal rotation, which keeps no e0 register, equals
    _PlanarRotationReference(e0, xi).map bit for bit, -0.0 included, in
    both directions, and its _plane_g and _plane_perp build the reference's
    frames g and xi_perp bit for bit.  Dims run from 2 to 1024, and xi is
    random complex, random real, random complex with half its entries
    zero, or the degenerate c e0 for c in 1, -1, i, -i.  The inputs have
    -0.0 entries, are basis vectors (e0 among them), or have every zero
    -0.0, where <e0|v> takes the dense dot's zero signs."""
    rng = np.random.default_rng(43)
    for n, kind in itertools.product(range(1, 11), range(7)):
        dim = 1 << n
        e0 = np.zeros(dim, dtype=np.complex128)
        e0[0] = 1.0
        if kind < 4:
            xi = np.multiply((1.0, -1.0, 1j, -1j)[kind], e0)
        else:
            xi = rng.standard_normal(dim) + (kind != 5) * 1j * rng.standard_normal(dim)
            if kind == 6:
                xi[: dim // 2] *= 0.0
            xi /= np.linalg.norm(xi)
        ref = _PlanarRotationReference(e0, xi)
        prep = _prepared_rotating_to(xi)
        c, s, kept = prep._ideal_rotation
        assert (kept is None) == (ref.frames is None) == (kind < 4)
        if ref.frames is not None:
            g = common._plane_g(np.empty_like(xi), xi, c, s)
            assert _same_bits(g, ref.frames[0][1])
            assert _same_bits(common._plane_perp(g, c, s), ref.frames[1][1])
        signed = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        signed[: dim // 2] *= 0.0
        zeros = np.full(dim, complex(-0.0, -0.0))
        zeros[0] = complex(-0.0, 0.5)
        basis = np.zeros(dim, dtype=np.complex128)
        basis[int(rng.integers(0, dim))] = 1.0
        for v in (signed, zeros, basis, e0, xi):
            for inverse in (False, True):
                got = v.copy()
                prep._rotate(got, inverse)
                assert _same_bits(got, ref.map(v, inverse))


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
            if circuit._parts.rotations is not None:
                degenerate += len(circuit._parts.rotations.degenerate)
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

        want = _circuit_reference(circuit, zero, dagger=False)
        assert _same_bits(circuit.prepare(), want)
        assert circuit.query_count == 1

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


#: sha256 of A|0..0>, of A^dagger A|0..0> and of the ideal-mode A|0..0> on
#: hash plans at n = 5 and 8 (512 steps each), recorded before the hash
#: rotations were stacked into one layer.  The n 1-2 plans of
#: test_executor_outputs_pinned take dot products of at most 4 terms; these
#: take them over 32 and 256.
_HASH_CIRCUIT_DIGEST = "9c5eca96d54b466ad2181d3eeb9316b2d2967522b68aef86f8b9877c3c443cf4"


def test_hash_circuit_outputs_pinned():
    h = hashlib.sha256()
    for n in (5, 8):
        psi = haar_random_state(n, 40 + n)
        plan = build_plan(
            psi, derive_hash_params(n, EPS, t_override=9), strategy="hash", seed=n
        )
        oracle = plan_to_oracle(plan)
        prepared = PreparedCircuit(plan, oracle)
        ideal = PreparedCircuit(plan, oracle, ideal=True)
        for value in (
            prepared.actual,
            prepared.apply_dagger(prepared.actual),
            ideal.apply(ideal.circuit.zero_state()),
        ):
            _digest_feed(h, value)
    assert h.hexdigest() == _HASH_CIRCUIT_DIGEST


def _memory_case(strategy: str):
    """The target, plan and oracle of an amplification memory case: the n = 6
    Clifford plan that four-query runs with s = 256 copies (256 rows x 64
    amplitudes), or the n = 8 hash plan of test_hash_circuit_outputs_pinned
    (1024 rows x 256 amplitudes)."""
    if strategy == "clifford":
        psi = haar_random_state(6, 11)
        plan = build_plan(psi, derive_params(6, EPS), seed=1)
    else:
        psi = haar_random_state(8, 48)
        plan = build_plan(
            psi, derive_hash_params(8, EPS, t_override=9), strategy="hash", seed=8
        )
    return psi, plan, plan_to_oracle(plan)


@pytest.mark.parametrize(
    ("driver", "strategy", "ideal", "copies", "registers"),
    [
        (run_four_query, "clifford", False, 256, 7),
        (run_four_query, "clifford", True, 256, 9),
        (run_four_query, "hash", False, 4096, 6),
        (run_four_query, "hash", True, 4096, 9.5),
        (run_ten_query, "clifford", False, None, 5),
        (run_ten_query, "clifford", True, None, 7),
    ],
    ids=[
        "four-n6-s256",
        "four-n6-s256-ideal",
        "four-hash-n8",
        "four-hash-n8-ideal",
        "ten-n6",
        "ten-n6-ideal",
    ],
)
def test_amplification_memory_stays_per_register(driver, strategy, ideal, copies, registers):
    """Four- and ten-query hold a few registers (R, one 2^t_reg x 2^n state)
    beside the plan's cached A|0..0>, and no branch tensor: at s = 256
    copies of a 256 x 64 register a dense (2, rows, dim, dim) one alone
    would take 32 MiB.  Four-query peaks at 5-7 R (v, its scratch,
    tau_hat and A^dagger's buffers, a block of which is one R at n = 6) and
    ten-query at 4 R (the state and its scratch); ideal mode adds designed
    and tau_hat, and for four-query the ideal rotation's xi and, while it
    rotates, one frame register and a scratch block.  Zero-padded stacks
    peaked near 11 R, 11 R, 15 R, 8 R and 10 R on the exact four-query, the
    hash ideal four-query and the ten-query cases, and the ideal rotation
    as the one-row case of the hash steps' rotation layer, which kept g and
    xi_perp beside xi, near 10.8 R (n = 6) and 10.0 R (hash)."""
    psi, plan, oracle = _memory_case(strategy)
    PostselectCircuit(plan, oracle).prepare()
    register = (1 << plan.t_register) * (1 << plan.params.n) * 16
    reports = []
    call = functools.partial(driver, psi, EPS, ideal=ideal, plan=plan, oracle=oracle)
    peak, _kept = traced_memory(lambda: reports.append(call()))
    assert reports[0].copies == copies
    assert peak <= registers * register
