"""Tests for the residual-decomposition planner and the oracle builder."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import math

import mpmath
import numpy as np
import pytest
from conftest import traced_memory
from hypothesis import given, settings
from hypothesis import strategies as st

from statesynth import clifford as cliff
from statesynth import f2linalg, synthesis
from statesynth.clifford import SearchExhaustedError, SignPattern, desc_to_bytes, identity_desc, sr
from statesynth.f2linalg import F2Matrix, apply_to_index
from statesynth.numerics import PureState, haar_random_state, partial_trace_keep_first
from statesynth.rng import derive_seed, first_uniforms, substream
from statesynth.synthesis import (
    ORACLE_MAGIC,
    HashState,
    OracleFormatError,
    OracleSpec,
    Z_PAD_MULTIPLE,
    build_plan,
    derive_hash_params,
    derive_params,
    find_hash_matrix,
    harmonic_number,
    hash_state_for,
    nominal_success_amplitude,
    parse_desc_section,
    perturbed_sign,
    plan_to_oracle,
    step_record_bytes,
    trivial_hash_state,
)


def _uniform_state(n: int) -> PureState:
    return PureState(n, np.full(1 << n, (1 << n) ** -0.5, dtype=complex))


def _ket(n: int, x: int) -> PureState:
    amps = np.zeros(1 << n, dtype=complex)
    amps[x] = 1.0
    return PureState(n, amps)


def test_derive_params_examples():
    p = derive_params(2, 0.01)
    assert (p.t, p.T) == (10, 1024)
    p = derive_params(2, 0.25)
    assert (p.t, p.T) == (8, 256)
    p = derive_params(2, 0.1)
    assert (p.t, p.T) == (9, 512)
    assert p.alpha == 0.35
    assert abs(p.beta**2 + p.alpha**2 - 1.0) < 1e-15
    assert 0.18 < p.gamma < 0.1808
    assert p.delta_fp == pytest.approx(0.01 * p.beta ** (2 * p.T))


def test_params_derive_what_follows_from_t():
    # T and delta_fp follow t, so a replaced t needs no other field changed.
    p = dataclasses.replace(derive_params(2, 0.25), t=3)
    assert p.T == 8
    assert p.delta_fp == 0.01 * p.beta**16
    assert p.gamma == (1.0 - p.beta) / p.alpha
    with pytest.raises(ValueError):
        dataclasses.replace(p, t=-1)


def test_derive_params_epsilon_range():
    for bad in (0.0, 0.5, 0.7, -0.2):
        with pytest.raises(ValueError, match=r"\(0, 1/2\)"):
            derive_params(2, bad)
    with pytest.raises(ValueError):
        derive_params(0, 0.1)


def test_beta_power_meets_budget():
    for eps in (0.25, 0.1, 0.05, 0.01, 0.49, 0.011):
        p = derive_params(3, eps)
        assert p.beta**p.T <= 0.01 * eps


def test_derive_hash_params():
    for n in (1, 2, 5):
        for eps in (0.25, 0.1):
            p = derive_hash_params(n, eps)
            want_alpha = 1.0 / (2.0 * math.sqrt(2.0) * math.sqrt(harmonic_number(1 << n)))
            assert p.alpha == pytest.approx(want_alpha, abs=1e-15)
            assert abs(p.beta**2 + p.alpha**2 - 1.0) < 1e-15
            # T is the smallest power of two meeting the decay budget.
            assert p.beta**p.T <= 0.01 * eps
            if p.T > 1:
                assert p.beta ** (p.T // 2) > 0.01 * eps


def test_harmonic_number_against_mpmath():
    for m in (1, 2, 10, 1024):
        assert harmonic_number(m) == pytest.approx(float(mpmath.harmonic(m)), abs=1e-12)


def test_perturbed_sign_zero_bound_is_exact():
    for value in (0.3 + 1j, -0.3 + 1j, 0j, -1e-300 + 0j):
        assert perturbed_sign(value, 0.0, 17, 99) == sr(value)


def test_perturbed_sign_large_real_part_is_stable():
    for seed in range(50):
        assert perturbed_sign(0.5 + 0.1j, 0.4, 3, seed) == 1
        assert perturbed_sign(-0.5 + 0.1j, 0.4, 3, seed) == -1


def test_perturbed_sign_tie_depends_on_seed_only():
    signs = {perturbed_sign(0j, 0.5, 11, seed) for seed in range(40)}
    assert signs == {-1, 1}
    for seed in (0, 7, 23):
        first = perturbed_sign(0j, 0.5, 11, seed)
        assert perturbed_sign(0j, 0.5, 11, seed) == first
    with pytest.raises(ValueError):
        perturbed_sign(1 + 0j, -0.1, 0, 0)


def test_first_uniforms_are_the_generator_draws():
    # perturbed_sign reads the raw PCG64 outputs of its substream instead of
    # building a Generator; the doubles must be the Generator's, bit for bit.
    for seed in range(20):
        for address in range(200):
            label = f"sign-perturbation-{address}"
            rng = substream(seed, label)
            want = [rng.uniform(), rng.uniform(0.0, 2.0 * math.pi)]
            u, v = first_uniforms(seed, label, 2)
            got = [u, 0.0 + 2.0 * math.pi * v]
            assert np.array(got).tobytes() == np.array(want).tobytes()


def test_substream_is_the_seed_sequence_generator():
    # substream and first_uniforms hand SeedSequence the entropy [seed, label
    # key] as the uint32 words it would split the list into: the PCG64 state
    # must be the one built from the list, for every label the package draws
    # from.
    labels = [f"sign-perturbation-{a}" for a in (0, 1, 4095, 2**40)]
    for n in range(1, 11):
        labels += [f"clifford-search-{n}", f"clifford-{n}", f"gl2-random-{n}", f"haar-state-{n}"]
        labels += [f"hash-matrix-{k}x{n}" for k in range(n + 1)]
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 5]
    seeds += [derive_seed(7, f"{s}-step-{j}") for s in ("clifford", "hash") for j in range(8)]
    for label in labels:
        digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
        key = int.from_bytes(digest, "little")
        for seed in seeds:
            want = np.random.PCG64(np.random.SeedSequence([seed, key]))
            assert substream(seed, label).bit_generator.state == want.state
            raw = want.random_raw(3).tolist()
            assert first_uniforms(seed, label, 3) == [(r >> 11) * 2.0**-53 for r in raw]
    for fn in (substream, lambda seed, label: first_uniforms(seed, label, 1)):
        with pytest.raises(ValueError, match="non-negative"):
            fn(-1, "clifford-search-2")


def test_perturbed_sign_matches_generator_reference():
    def reference(value, bound, address, seed):
        rng = substream(seed, f"sign-perturbation-{address}")
        radius = bound * math.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        return sr(complex(value) + radius * complex(math.cos(angle), math.sin(angle)))

    values = (0j, 0.01 + 0.3j, -0.02 - 0.1j, 0.05j, -1e-3 + 0j)
    for seed in range(4):
        for address in range(50):
            for value in values:
                got = perturbed_sign(value, 0.05, address, seed)
                assert got == reference(value, 0.05, address, seed)


def test_build_plan_uniform_target_first_step():
    # phi_0 = psi for a nonnegative target, so eta_1 = (1 - alpha) psi.
    params = derive_params(2, 0.25)
    plan = build_plan(_uniform_state(2), params)
    assert plan.residual_norms[0] == pytest.approx(1.0, abs=1e-12)
    assert plan.residual_norms[1] == pytest.approx(0.65, abs=1e-12)
    assert plan.steps[0].coefficient == pytest.approx(0.35, abs=1e-15)
    assert desc_to_bytes(plan.steps[0].desc) == desc_to_bytes(identity_desc(2))


def test_build_plan_applies_each_clifford_once(monkeypatch):
    # The search's C^dagger per trial is the only one: the planner takes the
    # step's signs from the w it returns, and applies C once per step.
    counts = {"apply": 0, "trials": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("apply", "apply_inverse", "overlap_with_sign_state"):
        monkeypatch.setattr(cliff, name, counted(getattr(cliff, name), "apply"))
    # Trial 0 is the identity, every later trial one draw.
    monkeypatch.setattr(
        cliff, "find_overlap_clifford", counted(cliff.find_overlap_clifford, "trials")
    )
    monkeypatch.setattr(
        cliff, "random_clifford_from", counted(cliff.random_clifford_from, "trials")
    )
    params = derive_params(3, 0.25, t_override=4)
    build_plan(haar_random_state(3, 8), params, seed=8)
    assert counts["trials"] > params.T
    assert counts["apply"] == counts["trials"] + params.T


def test_build_plan_residual_envelope_and_recursion():
    params = derive_params(2, 0.25)
    psi = haar_random_state(2, 5)
    plan = build_plan(psi, params, seed=5)
    assert len(plan.steps) == params.T
    assert plan.strategy == "clifford"
    assert plan.track_count == 1
    norms = plan.residual_norms
    for k in range(params.T):
        assert plan.steps[k].coefficient == pytest.approx(
            params.alpha * params.beta**k, rel=1e-12
        )
        assert norms[k] <= params.beta**k + 1e-12
        # One decomposition round: |eta'|^2 <= |eta|^2 - 2 c alpha |eta| + c^2.
        c = params.alpha * params.beta**k
        assert norms[k + 1] ** 2 <= norms[k] ** 2 - 2 * c * params.alpha * norms[k] + c**2 + 1e-12
    assert norms[params.T] <= 0.01 * params.epsilon


def test_build_plan_reconstructs_target():
    params = derive_params(2, 0.25)
    psi = haar_random_state(2, 21)
    plan = build_plan(psi, params, seed=21)
    acc = np.zeros(4, dtype=complex)
    for step in plan.steps:
        acc += step.coefficient * step.phase * step.step_state()
    assert np.linalg.norm(psi.amps - acc) <= params.epsilon
    assert np.linalg.norm(psi.amps - acc) == pytest.approx(
        plan.residual_norms[-1], abs=1e-9
    )


def test_build_plan_deterministic():
    params = derive_params(2, 0.25)
    psi = haar_random_state(2, 9)
    a = build_plan(psi, params, seed=3)
    b = build_plan(psi, params, seed=3)
    assert a.z == b.z
    assert a.residual_norms == b.residual_norms
    assert plan_to_oracle(a).to_bytes() == plan_to_oracle(b).to_bytes()


def test_plans_and_steps_compare_by_value():
    """Plans, steps and their states compare their arrays by value: two
    builds with equal inputs are equal, another seed or strategy is not."""
    psi = haar_random_state(2, 1)
    a = build_plan(psi, derive_params(2, 0.25), seed=1)
    b = build_plan(psi, derive_params(2, 0.25), seed=1)
    assert a.steps[0] == b.steps[0] and a.steps[0].signs == b.steps[0].signs
    assert a == b and a.target == b.target
    assert a != build_plan(psi, derive_params(2, 0.25), seed=2)
    hashed = build_plan(psi, derive_hash_params(2, 0.25), strategy="hash", seed=1)
    assert hashed == build_plan(psi, derive_hash_params(2, 0.25), strategy="hash", seed=1)
    assert hashed != build_plan(psi, derive_hash_params(2, 0.25), strategy="hash", seed=2)
    assert hashed != a
    assert psi != haar_random_state(2, 2) and psi != haar_random_state(3, 1)
    rho = partial_trace_keep_first(psi, 1)
    assert rho == partial_trace_keep_first(psi, 1) and rho != partial_trace_keep_first(psi, 2)
    assert a.steps[0].signs != SignPattern(2, 1 - a.steps[0].signs.bits)


def test_build_plan_input_validation():
    params = derive_params(2, 0.25)
    with pytest.raises(ValueError, match="zero-norm"):
        build_plan(PureState(2, np.zeros(4, dtype=complex)), params)
    with pytest.raises(ValueError, match="normalized"):
        build_plan(PureState(2, np.full(4, 0.6, dtype=complex)), params)
    with pytest.raises(ValueError, match="n="):
        build_plan(haar_random_state(3, 0), params)
    with pytest.raises(ValueError, match="strategy"):
        build_plan(_uniform_state(2), params, strategy="magic")
    with pytest.raises(ValueError, match="mode"):
        build_plan(_uniform_state(2), params, mode="sloppy")


def test_plan_steps_must_be_of_one_kind():
    """A plan holds one step family: the query circuit builds either the
    hash steps' rotation layer or the Clifford step layers, never both."""
    psi = haar_random_state(2, 4)
    clifford_plan = build_plan(psi, derive_params(2, 0.25), seed=4)
    hash_plan = build_plan(psi, derive_hash_params(2, 0.25), strategy="hash", seed=4)
    steps = (clifford_plan.steps[0], hash_plan.steps[0])
    assert [step.kind for step in steps] == ["clifford", "hash"]
    with pytest.raises(ValueError, match="one kind"):
        dataclasses.replace(clifford_plan, steps=steps)
    # Either family alone still makes a plan.
    for plan in (clifford_plan, hash_plan):
        assert dataclasses.replace(plan, steps=plan.steps[:2]).steps == plan.steps[:2]


def test_build_plan_perturbed_stays_within_budget():
    params = derive_params(2, 0.25)
    for seed in (0, 1, 2):
        psi = haar_random_state(2, 100 + seed)
        plan = build_plan(psi, params, mode="perturbed", seed=seed)
        assert plan.residual_norms[params.T] < 1.7 * params.beta**params.T


def test_build_plan_perturbed_flips_signs_under_large_bound():
    params = derive_params(2, 0.25)
    psi = haar_random_state(2, 44)
    exact = build_plan(psi, params, seed=44)
    noisy = build_plan(psi, params, mode="perturbed", perturb_bound=0.2, seed=44)
    exact_rows = plan_to_oracle(exact).sign_rows()
    noisy_rows = plan_to_oracle(noisy).sign_rows()
    assert np.any(exact_rows != noisy_rows)


def test_hash_plan_two_tracks():
    params = derive_hash_params(2, 0.25)
    psi = haar_random_state(2, 8)  # complex amplitudes: both tracks active
    plan = build_plan(psi, params, strategy="hash", seed=8)
    assert plan.strategy == "hash"
    assert plan.track_count == 2
    assert len(plan.steps) == 2 * params.T
    phases = {complex(s.phase) for s in plan.steps}
    assert phases == {1 + 0j, 1j}
    for k in range(params.T + 1):
        assert plan.residual_norms[k] <= params.beta**k + 1e-9
    acc = np.zeros(4, dtype=complex)
    for step in plan.steps:
        acc += step.coefficient * step.phase * step.step_state()
    assert np.linalg.norm(psi.amps - acc) <= params.epsilon


def test_hash_plan_real_target_single_track():
    params = derive_hash_params(2, 0.25)
    real = haar_random_state(2, 3).amps.real
    real /= np.linalg.norm(real)
    plan = build_plan(PureState(2, real.astype(complex)), params, strategy="hash")
    assert plan.track_count == 1
    assert all(s.phase == 1 for s in plan.steps)


def test_hash_plan_rejects_clifford_schedule():
    # The fixed alpha = 0.35 exceeds the hash overlap floor; must be refused.
    params = derive_params(2, 0.25)
    with pytest.raises(ValueError, match="overlap floor"):
        build_plan(_uniform_state(2), params, strategy="hash")


def test_hash_steps_injective_on_support():
    params = derive_hash_params(2, 0.25)
    plan = build_plan(haar_random_state(2, 15), params, strategy="hash", seed=15)
    for step in plan.steps[:32]:
        hs = step.hash_state
        assert len(hs.support) == 1 << hs.k
        images = {apply_to_index(hs.matrix, x) for x in hs.support}
        assert len(images) == len(hs.support)


def test_nominal_success_amplitude():
    params = derive_params(2, 0.25)
    plan = build_plan(haar_random_state(2, 2), params, seed=2)
    assert nominal_success_amplitude(plan) == pytest.approx(params.gamma, abs=1e-12)

    hash_params = derive_hash_params(2, 0.25)
    hash_plan = build_plan(haar_random_state(2, 2), hash_params, strategy="hash", seed=2)
    track_norm_sum = sum(
        s.coefficient for s in hash_plan.steps[:2]
    ) / hash_params.alpha
    want = (1.0 - hash_params.beta) / (hash_params.alpha * track_norm_sum)
    assert nominal_success_amplitude(hash_plan) == pytest.approx(want, abs=1e-12)
    assert 0.0 < nominal_success_amplitude(hash_plan) <= hash_params.gamma + 1e-12


def test_oracle_sign_bits_match_plan():
    params = derive_params(2, 0.25)
    plan = build_plan(haar_random_state(2, 6), params, seed=6)
    oracle = plan_to_oracle(plan)
    rows = oracle.sign_rows()
    assert rows.shape == (params.T, 4)
    for j in (0, 1, 17, params.T - 1):
        assert np.array_equal(rows[j], plan.steps[j].signs.bits)
    # bit (j, x) = 0 iff the sign is +1, via the flat query interface too.
    for address in (0, 5, 1000):
        assert oracle.query(address) == int(oracle.sign_bits[address])
        assert oracle.query(address) == oracle.query(address)


def test_oracle_row_zero_for_basis_target():
    # eta_0 = |0> has nonnegative overlaps with the identity's columns, so the
    # first step signs are all + and the first oracle row is all zeros.
    params = derive_params(1, 0.25)
    plan = build_plan(_ket(1, 0), params, seed=0)
    oracle = plan_to_oracle(plan)
    assert not oracle.sign_rows()[0].any()


def test_oracle_desc_section_roundtrip():
    params = derive_params(2, 0.25)
    plan = build_plan(haar_random_state(2, 12), params, seed=12)
    oracle = plan_to_oracle(plan)
    payloads = parse_desc_section(oracle.desc_section, 2, params.T)
    assert len(payloads) == params.T
    for step, payload in zip(plan.steps, payloads):
        assert desc_to_bytes(payload) == desc_to_bytes(step.desc)

    hash_params = derive_hash_params(2, 0.25)
    hash_plan = build_plan(haar_random_state(2, 12), hash_params, strategy="hash", seed=12)
    hash_oracle = plan_to_oracle(hash_plan)
    payloads = parse_desc_section(hash_oracle.desc_section, 2, len(hash_plan.steps))
    for step, payload in zip(hash_plan.steps, payloads):
        assert payload == step.hash_state


def test_hash_record_matches_per_index_reference():
    # The record layout written out one support index and one sign at a time.
    plan = build_plan(
        haar_random_state(4, 13), derive_hash_params(4, 0.25), strategy="hash", seed=13
    )
    for step in plan.steps:
        hs = step.hash_state
        reference = b"\x02" + hs.k.to_bytes(2, "little") + hs.matrix.to_bytes()
        reference += b"".join(idx.to_bytes(8, "little") for idx in hs.support.tolist())
        sign_bits = sum(1 << i for i, sign in enumerate(hs.signs.tolist()) if sign < 0)
        reference += sign_bits.to_bytes(((1 << hs.k) + 7) // 8, "little")
        assert step_record_bytes(step) == reference
        (parsed,) = parse_desc_section(reference, 4, 1)
        assert parsed == hs
        assert (parsed.support.dtype, parsed.signs.dtype) == (np.int64, np.int8)
        assert not (parsed.support.flags.writeable or parsed.signs.flags.writeable)


def test_oracle_z_region_addressing():
    params = derive_params(1, 0.25)
    plan = build_plan(_ket(1, 0), params, seed=0)
    oracle = plan_to_oracle(plan)
    base = oracle.T << oracle.n
    z = oracle.z
    assert len(z) % Z_PAD_MULTIPLE == 0
    assert z == plan.z
    assert z[: len(oracle.desc_section)] == oracle.desc_section
    for byte_index in (0, 1, len(z) - 1):
        for bit in range(8):
            want = (z[byte_index] >> bit) & 1
            assert oracle.query(base + 8 * byte_index + bit) == want
    # Addresses past z (still inside the input space) read as zero.
    top = 1 << oracle.total_input_bits
    assert oracle.query(top - 1) == 0
    with pytest.raises(ValueError):
        oracle.query(top)
    with pytest.raises(ValueError):
        oracle.query(-1)


def test_oracle_file_roundtrip(tmp_path):
    params = derive_params(2, 0.25)
    plan = build_plan(haar_random_state(2, 33), params, seed=33)
    oracle = plan_to_oracle(plan)
    path = str(tmp_path / "plan.oracle")
    oracle.write_file(path)
    with open(path, "rb") as handle:
        assert handle.read(5) == ORACLE_MAGIC
    back = OracleSpec.read_file(path)
    assert back.to_bytes() == oracle.to_bytes()
    assert (back.n, back.t, back.T) == (oracle.n, oracle.t, oracle.T)
    with pytest.raises(ValueError, match="magic"):
        OracleSpec.from_bytes(b"NOPE" + oracle.to_bytes())


def _header(n: int, t: int, T: int) -> bytes:
    return ORACLE_MAGIC + b"".join(v.to_bytes(4, "little") for v in (n, t, T))


def _oracle_image(n: int, t: int, seed: int, desc: bytes) -> bytes:
    """A well-formed oracle file image with random sign bits."""
    bits = np.random.default_rng(seed).integers(0, 2, (1 << t) << n, dtype=np.uint8)
    return (
        _header(n, t, 1 << t)
        + np.packbits(bits, bitorder="little").tobytes()
        + len(desc).to_bytes(8, "little")
        + desc
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(0, 3), st.integers(0, 2**32 - 1), st.binary(max_size=80))
def test_oracle_bytes_roundtrip_and_strict_length(n: int, t: int, seed: int, desc: bytes):
    data = _oracle_image(n, t, seed, desc)
    oracle = OracleSpec.from_bytes(data)
    assert (oracle.n, oracle.t, oracle.T, oracle.desc_section) == (n, t, 1 << t, desc)
    assert oracle.to_bytes() == data
    for cut in range(len(data)):
        with pytest.raises(OracleFormatError):
            OracleSpec.from_bytes(data[:cut])
    for extra in (b"\x00", b"\x01" * 9):
        with pytest.raises(OracleFormatError):
            OracleSpec.from_bytes(data + extra)


def test_oracle_header_rejected_before_allocation():
    # n = 40 once asked numpy for a 1 TiB sign table; a u32 n wider than
    # the format allows is refused before it sizes anything.
    with pytest.raises(OracleFormatError, match="sign table"):
        OracleSpec.from_bytes(_header(40, 2, 4) + bytes(16))
    with pytest.raises(OracleFormatError, match="n=4294967295"):
        OracleSpec.from_bytes(_header(2**32 - 1, 2, 4) + bytes(16))
    with pytest.raises(OracleFormatError, match="not 2\\^t"):
        OracleSpec.from_bytes(_header(1, 2, 5) + bytes(16))
    # n = 1, T = 2: four sign bits, and the upper four bits of their byte
    # must be zero, so that every accepted file re-serializes to itself.
    with pytest.raises(OracleFormatError, match="padding") as info:
        OracleSpec.from_bytes(_header(1, 1, 2) + b"\xf5" + bytes(8))
    assert info.value.offset == 17
    clean = OracleSpec.from_bytes(_header(1, 1, 2) + b"\x05" + bytes(8))
    assert clean.sign_bits.tolist() == [1, 0, 1, 0]
    # n = 1, T = 4 and three more bytes: the section length is missing.
    with pytest.raises(OracleFormatError) as info:
        OracleSpec.from_bytes(_header(1, 2, 4) + bytes(3))
    assert info.value.offset == 20


_HEADER_FIELD = st.one_of(st.integers(0, 70), st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(_HEADER_FIELD, _HEADER_FIELD, _HEADER_FIELD, st.booleans(), st.binary(max_size=300))
def test_random_oracle_bytes_allocate_little(n, t, T, power, tail):
    if power and t < 32:
        T = 1 << t
    data = _header(n, t, T) + tail
    for blob in (data, data[: 5 + len(tail) % 12], tail):
        peak, _ = traced_memory(OracleSpec.from_bytes, blob, tolerate=(OracleFormatError,))
        assert peak <= 65536 + 16 * len(blob)
    try:
        oracle = OracleSpec.from_bytes(data)
    except OracleFormatError:
        return
    assert oracle.to_bytes() == data


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.binary(max_size=300))
def test_random_desc_sections_allocate_little(n, count, data):
    for blob in (data, b"\x01" + data, b"\x02" + bytes([n % 3, 0]) + data):
        peak, _ = traced_memory(parse_desc_section, blob, n, count, tolerate=(OracleFormatError,))
        assert peak <= 65536 + 16 * len(blob)


def test_desc_section_truncation_and_extension_rejected():
    psi = haar_random_state(2, 12)
    plans = (
        build_plan(psi, derive_params(2, 0.25, t_override=1), seed=12),
        build_plan(psi, derive_hash_params(2, 0.25, t_override=1), strategy="hash", seed=12),
    )
    for plan in plans:
        section, count = plan.desc_section, len(plan.steps)
        assert len(parse_desc_section(section, 2, count)) == count
        for cut in range(len(section)):
            with pytest.raises(OracleFormatError):
                parse_desc_section(section[:cut], 2, count)
        with pytest.raises(OracleFormatError, match="after the last record") as info:
            parse_desc_section(section + b"\x01", 2, count)
        assert info.value.offset == len(section)
    with pytest.raises(OracleFormatError, match="unknown step tag") as info:
        parse_desc_section(b"\x07", 2, 1)
    assert info.value.offset == 0


def test_hash_state_for_basis_target():
    hs, mu = hash_state_for(_ket(3, 0))
    assert (hs.k, mu) == (0, 1.0)
    assert hs.support == (0,)
    assert np.allclose(hs.state_vector(), _ket(3, 0).amps)


def test_hash_state_for_uniform_target():
    for n in (1, 2, 3):
        psi = _uniform_state(n)
        hs, mu = hash_state_for(psi)
        assert mu == pytest.approx(1.0, abs=1e-12)
        assert hs.k == n
        assert np.allclose(hs.state_vector(), psi.amps, atol=1e-12)


def test_hash_state_for_overlap_guarantee():
    rng = substream(0, "test-hash-overlap")
    for trial in range(40):
        n = 1 + trial % 6
        raw = rng.standard_normal(1 << n)
        raw /= np.linalg.norm(raw)
        psi = PureState(n, raw.astype(complex))
        hs, mu = hash_state_for(psi, seed=trial)
        overlap = float(np.real(np.vdot(hs.state_vector(), psi.amps)))
        assert overlap >= mu / (2.0 * math.sqrt(2.0)) - 1e-12
        assert mu >= 1.0 / math.sqrt(harmonic_number(1 << n)) - 1e-12


def _first_preimage_support(reals: np.ndarray, S: set[int], images: np.ndarray, k: int):
    """hash_state_for's support rule, one basis index at a time."""
    first_in_S: dict[int, int] = {}
    first_any: dict[int, int] = {}
    for x, y in enumerate(images.tolist()):
        first_any.setdefault(y, x)
        if x in S:
            first_in_S.setdefault(y, x)
    support = sorted(first_in_S.get(y, first_any[y]) for y in range(1 << k))
    return tuple(support), tuple(1 if reals[x] >= 0.0 else -1 for x in support)


def test_hash_state_for_first_preimage_rule():
    rng = substream(0, "test-hash-preimage")
    for trial in range(60):
        n = 1 + trial % 7
        raw = rng.standard_normal(1 << n)
        if trial % 3 == 0:
            raw = np.round(raw)  # ties in magnitude and exact zeros
            raw[0] += 0.5
        psi = PureState(n, (raw / np.linalg.norm(raw)).astype(complex))
        hs, _ = hash_state_for(psi, seed=trial)
        mags = np.abs(psi.amps.real)
        order = np.lexsort((np.arange(1 << n), -mags))
        S = {int(x) for x in order[: 1 << hs.k]}
        images = np.array([apply_to_index(hs.matrix, x) for x in range(1 << n)])
        assert (tuple(hs.support.tolist()), tuple(hs.signs.tolist())) == _first_preimage_support(
            psi.amps.real, S, images, hs.k
        )


@pytest.mark.parametrize("strategy", ["clifford", "hash"])
def test_build_plan_rejects_non_finite_target_before_search(monkeypatch, strategy):
    # A NaN passes both norm checks (every NaN comparison is false), so it
    # must be caught on its own before the search starts.
    def no_search(*args, **kwargs):
        raise AssertionError("searched for a step of a non-finite target")

    monkeypatch.setattr(cliff, "find_overlap_clifford", no_search)
    monkeypatch.setattr(synthesis, "hash_state_for", no_search)
    derive = derive_params if strategy == "clifford" else derive_hash_params
    for bad in ([math.nan, 0.0], [0.6, complex(0.0, math.nan)], [math.inf, 0.0]):
        psi = PureState(1, np.array(bad, dtype=complex))
        with pytest.raises(ValueError, match="must be finite"):
            build_plan(psi, derive(1, 0.1), strategy=strategy)


def test_hash_state_for_input_validation():
    with pytest.raises(ValueError, match="real"):
        hash_state_for(PureState(1, np.array([0.6, 0.8j])))
    with pytest.raises(ValueError, match="zero-norm"):
        hash_state_for(PureState(1, np.zeros(2, dtype=complex)))
    # NaN was accepted, with mu = nan.
    for norm in (1.2, 1.0 + 2e-9, np.inf, np.nan):
        with pytest.raises(ValueError, match="norm must be <= 1"):
            hash_state_for(PureState(1, np.array([norm, 0.0], dtype=complex)))
    hs, _mu = hash_state_for(PureState(1, np.array([1.0 + 1e-10, 0.0])))
    assert hs.support.tolist() == [0]
    with pytest.raises(ValueError, match="max_trials"):
        hash_state_for(PureState(3, np.full(8, 8 ** -0.5)), max_trials=-1)


def test_hash_state_validation():
    # The 1 x 2 matrix reads the high bit: 0 -> 0, 1 -> 0, 2 -> 1.
    m = F2Matrix(1, 2, (1,))
    hs = HashState(2, 1, m, (0, 2), (1, -1))
    assert np.allclose(hs.state_vector(), [2**-0.5, 0, -(2**-0.5), 0])
    with pytest.raises(ValueError, match="one-to-one"):
        HashState(2, 1, m, (0, 1), (1, 1))
    for support in ((-1, 0), (0, 4)):
        with pytest.raises(ValueError, match="out of range"):
            HashState(2, 1, m, support, (1, 1))


#: (message, matrix, support, signs) for each fault of a k = 1 hash state on
#: n = 2 qubits; the 1 x 2 matrix (1,) reads the high bit: 0, 1 -> 0; 2, 3 -> 1.
_HASH_STATE_FAULTS = [
    ("exactly 2\\^1 entries", (1,), (0,), (1,)),
    ("exactly 2\\^1 entries", (1,), (0, 2, 3), (1, 1, 1)),
    ("exactly 2\\^1 entries", (1,), (0, 2), (1,)),
    ("matrix must be 1x2", (1, 2), (0, 2), (1, 1)),
    ("signs must be", (1,), (0, 2), (1, 0)),
    ("signs must be", (1,), (0, 2), (-1, 2)),
    ("integers", (1,), (0.0, 2.0), (1, 1)),
    ("strictly ascending", (1,), (2, 0), (1, 1)),
    ("strictly ascending", (1,), (2, 2), (1, 1)),
    ("out of range", (1,), (-1, 2), (1, 1)),
    ("out of range", (1,), (0, 4), (1, 1)),
    ("one-to-one", (1,), (0, 1), (1, 1)),
]


def test_hash_state_checks_fire_from_every_entry_point():
    """Every fault the HashState check names raises ValueError from the
    public constructor, with tuple and array fields alike, and each fault a
    record's bytes can hold raises OracleFormatError from parse_desc_section.
    A record holds one sign bit per entry and k x n is read from its header,
    so its signs are always +-1 and a bad count or shape is refused by the
    parser's own length and header checks."""
    for message, rows, support, signs in _HASH_STATE_FAULTS:
        matrix = F2Matrix(len(rows), 2, rows)
        for fields in ((support, signs), (np.array(support), np.array(signs))):
            with pytest.raises(ValueError, match=message):
                HashState(2, 1, matrix, *fields)
    good = _hand_hash_record(2, 1, (1,), (0, 2), (1, -1))
    records = [
        ("strictly ascending", _hand_hash_record(2, 1, (1,), (2, 0), (1, 1))),
        ("strictly ascending", _hand_hash_record(2, 1, (1,), (2, 2), (1, 1))),
        ("out of range", _hand_hash_record(2, 1, (1,), (0, 4), (1, 1))),
        ("out of range", _hand_hash_record(2, 1, (1,), (0, 2**64 - 1), (1, 1))),
        ("out of range", _hand_hash_record(2, 0, (), (2**63,), (1,))),
        ("one-to-one", _hand_hash_record(2, 1, (1,), (0, 1), (1, -1))),
        ("not a k x 2 matrix", _hand_hash_record(3, 1, (1,), (0, 2), (1, 1))),
        ("record needs", good[:-1]),
    ]
    for message, record in records:
        with pytest.raises(OracleFormatError, match=message) as info:
            parse_desc_section(good + record, 2, 2)
        assert info.value.offset == len(good)


def _hand_hash_record(n: int, k: int, rows: tuple[int, ...], support, signs) -> bytes:
    """A hash step record written field by field, whatever its contents."""
    record = b"\x02" + k.to_bytes(2, "little") + F2Matrix(k, n, rows).to_bytes()
    record += b"".join(x.to_bytes(8, "little") for x in support)
    sign_bits = sum(1 << i for i, sign in enumerate(signs) if sign < 0)
    return record + sign_bits.to_bytes(((1 << k) + 7) // 8, "little")


def test_malformed_records_rejected_through_the_parser():
    """Records from bytes get the full check: each fault raises
    OracleFormatError from parse_desc_section, also on the section of an
    oracle file that OracleSpec.from_bytes accepted."""
    n = 2
    # The 1 x 2 matrix reads the high bit: 0 -> 0, 1 -> 0, 2 -> 1, 3 -> 1.
    good = _hand_hash_record(n, 1, (1,), (0, 2), (1, -1))
    assert parse_desc_section(good, n, 1) == [HashState(n, 1, F2Matrix(1, 2, (1,)), (0, 2), (1, -1))]
    # The identity's first C round (bytes 1-10: M, then M^-1) with an M^-1
    # that is not the inverse of M = I.
    clifford = bytearray(b"\x01" + desc_to_bytes(identity_desc(n)))
    clifford[7:12] = F2Matrix(2, 2, (0b11, 0b01)).to_bytes()
    bad = [
        ("one-to-one", _hand_hash_record(n, 1, (1,), (0, 1), (1, 1))),
        ("strictly ascending", _hand_hash_record(n, 1, (1,), (2, 2), (1, 1))),
        ("strictly ascending", _hand_hash_record(n, 1, (1,), (2, 0), (1, 1))),
        ("out of range", _hand_hash_record(n, 1, (1,), (0, 4), (1, 1))),
        ("wrong inverse", bytes(clifford)),
    ]
    for message, record in bad:
        section = good + record
        with pytest.raises(OracleFormatError, match=message) as info:
            parse_desc_section(section, n, 2)
        assert info.value.offset == len(good)
        oracle = OracleSpec.from_bytes(_oracle_image(n, 1, 3, section))
        with pytest.raises(OracleFormatError, match=message):
            parse_desc_section(oracle.desc_section, oracle.n, oracle.T)


def test_planner_hash_states_pass_the_full_check():
    """The planner's hash states skip the constructor's check, which their
    construction guarantees; the checked public constructor accepts every
    one of them and gives an equal state, with the same read-only int64
    support and int8 signs.  Complex (two-track) and real targets, exact
    and perturbed signs, n = 1..8, three plan seeds each."""
    for n in range(1, 9):
        psi = haar_random_state(n, 70 + n)
        real = psi.amps.real / np.linalg.norm(psi.amps.real)
        for target in (psi, PureState(n, real)):
            for mode, seed in itertools.product(("exact", "perturbed"), (n, 100 + n, 7919)):
                plan = build_plan(
                    target, derive_hash_params(n, 0.25, t_override=4), strategy="hash",
                    mode=mode, perturb_bound=0.05, seed=seed,
                )
                for step in plan.steps:
                    hs = step.hash_state
                    assert HashState(hs.n, hs.k, hs.matrix, hs.support, hs.signs) == hs
                    for field, dtype in ((hs.support, np.int64), (hs.signs, np.int8)):
                        assert field.dtype == dtype and not field.flags.writeable


def test_trivial_hash_state():
    hs = trivial_hash_state(2)
    assert (hs.k, hs.support, hs.signs) == (0, (0,), (1,))
    assert np.allclose(hs.state_vector(), [1, 0, 0, 0])


def test_find_hash_matrix_cases():
    # k = 0: the 0 x n matrix exists vacuously for any singleton support.
    empty, _ = find_hash_matrix({5}, 0, 4)
    assert (empty.rows, empty.cols) == (0, 4)

    full, _ = find_hash_matrix(set(range(8)), 3, 3)
    images = {apply_to_index(full, x) for x in range(8)}
    assert len(images) == 8

    rng = substream(0, "test-hash-matrix")
    for trial in range(10):
        S = {int(x) for x in rng.choice(256, size=16, replace=False)}
        m, _ = find_hash_matrix(S, 4, 8, seed=trial)
        assert (m.rows, m.cols) == (4, 8)
        images = {apply_to_index(m, x) for x in S}
        assert len(images) > 8

    for S, k, n in (({0, 1, 2}, 2, 4), (set(range(8)), 3, 2), (np.arange(3), 1, 4)):
        with pytest.raises(ValueError, match=r"need \|S\| = 2\^"):
            find_hash_matrix(S, k, n)
    with pytest.raises(SearchExhaustedError) as info:
        find_hash_matrix({0, 1, 2, 3}, 2, 4, max_trials=0, seed=9)
    assert (info.value.trials, info.value.seed) == (0, 9)


def _reference_hash_search(s_array, k, n, seed):
    """The trial find_hash_matrix stops at, its matrix and its images: the
    candidates drawn one by one from the search's substream."""
    rng = substream(seed, f"hash-matrix-{k}x{n}")
    for trial in itertools.count():
        m = F2Matrix(k, n, f2linalg.random_rows_from(rng, k, n))
        if f2linalg.rank(m) == k:
            images = f2linalg.apply_to_all(m)
            if len(set(images[s_array].tolist())) > 1 << (k - 1):
                return trial, m, images


def test_find_hash_matrix_reads_its_substream_candidates():
    # The search reads its candidates a block at a time off the substream's
    # raw halves; it must stop at the trial, with the matrix and images, of
    # the reference loop, and a budget one short must run out.  Supports
    # are random sets or, so that the searches run past a block, subspaces.
    rng = np.random.default_rng(11)
    cases = past_block = 0
    for case in itertools.count():
        if cases == 2_000:
            break
        n = 1 + case % 10
        k = int(rng.integers(1, n + 1))
        if case % 2:
            s_array = np.sort(rng.choice(1 << n, size=1 << k, replace=False))
        else:
            basis = F2Matrix(n, k, f2linalg.random_rows_from(rng, n, k))
            s_array = np.unique(f2linalg.apply_to_all(basis))
            if len(s_array) != 1 << k:
                continue
        trial, m, images = _reference_hash_search(s_array, k, n, case)
        got, got_images = find_hash_matrix(s_array, k, n, max_trials=trial + 1, seed=case)
        assert got == m and np.array_equal(got_images, images)
        with pytest.raises(SearchExhaustedError):
            find_hash_matrix(s_array, k, n, max_trials=trial, seed=case)
        cases += 1
        past_block += trial >= synthesis._HASH_BLOCK
    assert past_block > 100


def test_build_plan_search_exhaustion_context():
    params = dataclasses.replace(derive_params(2, 0.25), alpha=0.9999)
    with pytest.raises(SearchExhaustedError) as info:
        build_plan(haar_random_state(2, 4), params, max_trials=5, seed=3)
    err = info.value
    assert (err.step, err.trials, err.alpha) == (0, 5, 0.9999)
    assert err.residual_norm == pytest.approx(1.0, abs=1e-12)
    assert err.seed == derive_seed(3, "clifford-step-0")
    assert 0.0 < err.best < 0.9999
    assert "step 0" in str(err) and "0.9999" in str(err)
    assert isinstance(err.__cause__, SearchExhaustedError)
    # The hash planner re-raises its matrix search the same way.
    with pytest.raises(SearchExhaustedError) as info:
        build_plan(haar_random_state(3, 4), derive_hash_params(3, 0.25),
                   strategy="hash", max_trials=0, seed=3)
    assert (info.value.step, info.value.trials) == (0, 0)
    assert info.value.residual_norm > 0.0


def test_negative_search_budget_is_refused():
    # A negative budget is a caller error, not a search that found nothing.
    with pytest.raises(ValueError, match="max_trials"):
        build_plan(haar_random_state(2, 4), derive_params(2, 0.25), max_trials=-1)
    with pytest.raises(ValueError, match="max_trials"):
        build_plan(haar_random_state(3, 4), derive_hash_params(3, 0.25),
                   strategy="hash", max_trials=-1)
    for k, support in ((0, {5}), (2, {0, 1, 2, 3})):
        with pytest.raises(ValueError, match="max_trials"):
            find_hash_matrix(support, k, 4, max_trials=-1)


#: sha256 of plan_to_oracle(plan).to_bytes() for the grid of
#: test_oracle_bytes_pinned, recorded before the batched Clifford kernel
#: replaced the per-index one (the n = 6 case, the shape of the large-n
#: benchmark, before the search trials were made cheap).  Equal seeds must
#: keep giving these bytes.
_ORACLE_DIGESTS = {
    ("clifford", 1, 0.1, "exact"):
        "492ff4b5bbe490a02465d5bc1c1ac316197bcef2604a7e31664910a6cd90e4d0",
    ("clifford", 1, 0.1, "perturbed"):
        "e79c241e469147c692d45316e3062a33fb4a89fdbeeeb3bee0212ec9d866621d",
    ("clifford", 1, 0.01, "exact"):
        "fe6a929636f6a15346f63a0257be029b1db52c13c165541b6aa9a65d435b04eb",
    ("clifford", 1, 0.01, "perturbed"):
        "0e853ff1551e0f0d71728bdf21f9c43c237f8ab152c8881afd92a53632456fac",
    ("clifford", 3, 0.1, "exact"):
        "3f3cdddee79366691068615145fe083740b4aaa40eaa67ad7ebdbb3fbad705b4",
    ("clifford", 3, 0.1, "perturbed"):
        "7fdd154d94feec021802cd227b1e561ed8adea3db2298788820e1c4fe116fc9d",
    ("clifford", 3, 0.01, "exact"):
        "fcb6d3856c146b403e78abf111bd181986e69daf86f22da068aa56ef02800980",
    ("clifford", 3, 0.01, "perturbed"):
        "f39bd0f313e7bea44af94342754c5b4e520a62496171fdc9b8d2b7a0ff1976d9",
    ("clifford", 5, 0.1, "exact"):
        "99e239eaa6dc88331ca06b9f127ea189d5aa9a21d941fdc574c08bf723f4eb59",
    ("clifford", 5, 0.1, "perturbed"):
        "1c0752b9e95e714d93e45490510963070c9aef1d2a2057b96b0bbcd658db6fb2",
    ("clifford", 5, 0.01, "exact"):
        "5d113a736b38b4ce7c8ba3f4893b928c7d0755e428fa1703e2855d71c8cfc474",
    ("clifford", 5, 0.01, "perturbed"):
        "3f3db34f5f4ea7b702a2e786ea178307c6df34f78510cc763bfd5bed8419aa8c",
    ("clifford", 6, 0.25, "exact"):
        "53b355bdc5e74f223d6d236fd4211de95ac450c2d79105e38923ef9cec539250",
    ("hash", 1, 0.1, "exact"):
        "ca11615ed5a9e6cadad30a14fb2672d98cbba4c9c68ed9ec2a582cb4d29d2ac6",
    ("hash", 1, 0.1, "perturbed"):
        "8f0131b26916366b4df9fbf26b85a395a6c4e696e51d1554548d2e29c62aaafb",
    ("hash", 1, 0.01, "exact"):
        "ca11615ed5a9e6cadad30a14fb2672d98cbba4c9c68ed9ec2a582cb4d29d2ac6",
    ("hash", 1, 0.01, "perturbed"):
        "8f0131b26916366b4df9fbf26b85a395a6c4e696e51d1554548d2e29c62aaafb",
    ("hash", 3, 0.1, "exact"):
        "42a8178aa4f248c884fc2737886ed64d3ee0d023c640d7ce9d65d7ace69f31a6",
    ("hash", 3, 0.1, "perturbed"):
        "a5a484b03cf9ba84dfaf3c052fd99158a020e2be1aba64792c28ab16fc2cf1d3",
    ("hash", 3, 0.01, "exact"):
        "42a8178aa4f248c884fc2737886ed64d3ee0d023c640d7ce9d65d7ace69f31a6",
    ("hash", 3, 0.01, "perturbed"):
        "a5a484b03cf9ba84dfaf3c052fd99158a020e2be1aba64792c28ab16fc2cf1d3",
    ("hash", 5, 0.1, "exact"):
        "0d1ff2f758029a477baa52a3807ce1992bcc811534b94210f1e4a99057573761",
    ("hash", 5, 0.1, "perturbed"):
        "d8847c6fcb88914270ee369e5985742edcdb14842d866652ca61213dd1781a3f",
    ("hash", 5, 0.01, "exact"):
        "b6a709dde797f72a44181d08a8a8780fbc4ea1905f02c8e39127e8df2a711d45",
    ("hash", 5, 0.01, "perturbed"):
        "5c72e9c50f5f5c94875aee48281bcd9617083c57c184e8d9e691957ffd466317",
    # Added with the one-image-table hash step, recorded before it: the
    # largest hash n of the benchmark, and a perturbed plan past n = 5.
    ("hash", 8, 0.25, "exact"):
        "996165e500502ac0faf9de9f133ccee37f1642a9a48245073a8da6e91a089109",
    ("hash", 6, 0.25, "perturbed"):
        "af5fe90856f49d165ebd527437872fc773d7836c05ccbdf8cf03f45305f98079",
    # One-track hash plans: the real part, and i times the imaginary part, of
    # the same target, each renormalized; recorded before the Clifford and
    # hash steps shared one planner loop.
    ("hash-real", 3, 0.1, "exact"):
        "551ced175989d31cb0c302a1d5898722f65a1e7d8720ad356b692a3d81e1d529",
    ("hash-real", 3, 0.1, "perturbed"):
        "9e02fc1de5103c0b42f0a90ef4fbab0c38970cbb274e3c59a25e7a943615a7b2",
    ("hash-imag", 3, 0.1, "exact"):
        "0effe898fdc0c723b05b1f92ba89cb7555c515520682442840f6975c5edffaef",
    ("hash-imag", 3, 0.1, "perturbed"):
        "5971fdf8bc829c5615111ec8b1a9252484292b8c9bfc1e28dad39bc2d9beae1a",
}

#: sha256 of np.array(plan.residual_norms).tobytes() for every plan of
#: _ORACLE_DIGESTS, recorded with the one-track entries.  The oracle bytes do
#: not hold the trace, so a last-bit change in a residual norm shows only here.
_RESIDUAL_DIGESTS = {
    ("clifford", 1, 0.1, "exact"):
        "e133c10e796256afbe569c1a60cd22e572f6b2aa2b281e97b619afd70c07fab4",
    ("clifford", 1, 0.1, "perturbed"):
        "7664bbfedc0631a8a4534b8a1007fad5d0a006d730230487ba12b63c25342362",
    ("clifford", 1, 0.01, "exact"):
        "79f078340bd7c2a71f967c214d8a83511455bd8cac4fd3c58dfa2c12c8184136",
    ("clifford", 1, 0.01, "perturbed"):
        "13dbf4261312be20f04c3429862ce0c5fedd7da8a6a97af137bda9a9bc793669",
    ("clifford", 3, 0.1, "exact"):
        "539d8fb7e899290da89fa948970cbeebd6ba28d296f041a08f64b7575af6275a",
    ("clifford", 3, 0.1, "perturbed"):
        "0a76a2644b1f7f3b521f2b842d00862738c30dfb0c41c83b080bd4c4fe2fac0b",
    ("clifford", 3, 0.01, "exact"):
        "1f2aa7238c839aef49ae0df4af2e941f3c1bf64aa00a0df643d4e21644a35125",
    ("clifford", 3, 0.01, "perturbed"):
        "dd9dfa9108e88c3599251b6f78017b9e170f8c2cd0a8484344e1a41cb4eb80b7",
    ("clifford", 5, 0.1, "exact"):
        "ba9a228b6022d4427f869bdd2827d28a36aad3a23f5547067858eb948f6c3a44",
    ("clifford", 5, 0.1, "perturbed"):
        "475da78a50bdb3fed3f28a50dfcb40a5320edd04cbd9dace5fde941dbb4c4b7b",
    ("clifford", 5, 0.01, "exact"):
        "d01f6a78decdf06733cd741211fa7a376967698daf4d19921cfb6cb330ab8569",
    ("clifford", 5, 0.01, "perturbed"):
        "50ce184c8ab9367b41c178b6759cc62630ca084f8f69b0b96354d965382068ff",
    ("clifford", 6, 0.25, "exact"):
        "352952df8d72fd9055abe5512abe762576010912cff3a859e5d639d0ede3b0e4",
    ("hash", 1, 0.1, "exact"):
        "7419ad675943abba5cbe918c56e73c6da9875d8dd09779f769fde2d113a8557a",
    ("hash", 1, 0.1, "perturbed"):
        "8962781b53616a8930863129d461e87a74ad2c32e24e68cea831df449c55ad4e",
    ("hash", 1, 0.01, "exact"):
        "7419ad675943abba5cbe918c56e73c6da9875d8dd09779f769fde2d113a8557a",
    ("hash", 1, 0.01, "perturbed"):
        "8962781b53616a8930863129d461e87a74ad2c32e24e68cea831df449c55ad4e",
    ("hash", 3, 0.1, "exact"):
        "4c21cd72ca6808744a2998bd896d47e1a0e0a4a10771b0f162c6520174b3a5ef",
    ("hash", 3, 0.1, "perturbed"):
        "fc1702591067077828eb56e970c64ba85321fbbc1cc1c2ccc5510d852a2827e8",
    ("hash", 3, 0.01, "exact"):
        "4c21cd72ca6808744a2998bd896d47e1a0e0a4a10771b0f162c6520174b3a5ef",
    ("hash", 3, 0.01, "perturbed"):
        "fc1702591067077828eb56e970c64ba85321fbbc1cc1c2ccc5510d852a2827e8",
    ("hash", 5, 0.1, "exact"):
        "73b4d6fa6361f56f7feb6a866ab5f3f316c76ce6ebc204834307fac43aa5b857",
    ("hash", 5, 0.1, "perturbed"):
        "0516cb902af22476f12ef1cadd337a155a3242b777bdeb9b46547d029edd037a",
    ("hash", 5, 0.01, "exact"):
        "ce2508897b32ad8f930dbfbcdca8d7152f96a33ba3584b6308347e360030ba62",
    ("hash", 5, 0.01, "perturbed"):
        "0a9c1389e691aaac2b349a768a3eb0bb39890df5772816d18c64729bf7b44f52",
    ("hash", 8, 0.25, "exact"):
        "6fed7c6cb5566e48c8626be07d2d34369088595c8c33242dd9f1c9dae7ee7664",
    ("hash", 6, 0.25, "perturbed"):
        "46f9cb607529e0dd63c404f26e3302310165b34074953389aacffabc119ced67",
    ("hash-real", 3, 0.1, "exact"):
        "86f4f43257ceaca97d5c71bcdf5593dcef3144cb982c606045b9bf9b82be7175",
    ("hash-real", 3, 0.1, "perturbed"):
        "becbf8e2c71998b9769400ad46c49ebc1258459b29f4fe8f8d921a5fe70047a6",
    ("hash-imag", 3, 0.1, "exact"):
        "365465ba71e3802d9fb701cf61fc0e4a30f93d2b885fe4ef1d7b8a0ac140f7ce",
    ("hash-imag", 3, 0.1, "perturbed"):
        "3325408f09190f0533f639faf765a997b4f56f71b7043edd3182b46e7e6e4706",
}


@functools.lru_cache(maxsize=None)
def _pinned_digests(key) -> tuple[str, str]:
    """sha256 of the oracle bytes and of the residual trace of a pinned key's
    plan: (strategy, n, epsilon, mode), where "hash-real" and "hash-imag" are
    hash plans of a one-track target."""
    strategy, n, eps, mode = key
    psi = haar_random_state(n, 11 * n)
    if strategy not in ("clifford", "hash"):
        amps = psi.amps.real if strategy == "hash-real" else 1j * psi.amps.imag
        psi, strategy = PureState(n, amps / np.linalg.norm(amps)), "hash"
    derive = derive_params if strategy == "clifford" else derive_hash_params
    plan = build_plan(
        psi,
        derive(n, eps),
        strategy=strategy,
        mode=mode,
        perturb_bound=0.05 if mode == "perturbed" else None,
        seed=5,
    )
    oracle = plan_to_oracle(plan).to_bytes()
    trace = np.array(plan.residual_norms).tobytes()
    return hashlib.sha256(oracle).hexdigest(), hashlib.sha256(trace).hexdigest()


@pytest.mark.parametrize(
    "key", list(_ORACLE_DIGESTS), ids=["-".join(map(str, k)) for k in _ORACLE_DIGESTS]
)
def test_oracle_bytes_pinned(key):
    assert _pinned_digests(key)[0] == _ORACLE_DIGESTS[key]


@pytest.mark.parametrize(
    "key", list(_RESIDUAL_DIGESTS), ids=["-".join(map(str, k)) for k in _RESIDUAL_DIGESTS]
)
def test_residual_trace_pinned(key):
    assert _pinned_digests(key)[1] == _RESIDUAL_DIGESTS[key]


#: sha256 of the raw output bytes of `_kernel_and_step_state_bytes`, recorded
#: at commit 8b10d67, before the sampler and the planner step were reworked.
_KERNEL_DIGEST = "6774345627ad4cf583ef89d6d959ff758f425c35dfad975ffbfa297d4dd0cfd6"


def _kernel_and_step_state_bytes():
    """`apply`, `apply_inverse` and a Clifford `PlanStep.step_state` on the
    identity and 60 sampler descriptions per n in 1..5, each on a Gaussian
    vector, a +-2^(-n/2) sign vector (whose H butterflies make exact zeros)
    and an all -0.0 vector; a step's sign bits are those of the input's
    real part."""
    for n in range(1, 6):
        dim = 1 << n
        rng = np.random.default_rng([n, 21])
        descs = [identity_desc(n)] + [cliff.random_clifford_from(rng, n) for _ in range(60)]
        for d in descs:
            gauss = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            flips = rng.integers(0, 2, size=dim)
            signs = np.where(flips == 1, -(2.0 ** (-n / 2)), 2.0 ** (-n / 2)) + 0j
            zeros = np.full(dim, complex(-0.0, -0.0))
            for v in (gauss, signs, zeros):
                state = PureState(n, v)
                yield cliff.apply(d, state).amps.tobytes()
                yield cliff.apply_inverse(d, state).amps.tobytes()
                bits = (v.real < 0.0).astype(np.uint8)
                step = synthesis.PlanStep(
                    "clifford", 0.5, 1 + 0j, cliff.SignPattern(n, bits), desc=d
                )
                yield step.step_state().tobytes()


def test_kernel_and_step_state_bits_pinned():
    # The oracle and residual pins cannot see a signed zero; this one can.
    digest = hashlib.sha256()
    for chunk in _kernel_and_step_state_bytes():
        digest.update(chunk)
    assert digest.hexdigest() == _KERNEL_DIGEST
