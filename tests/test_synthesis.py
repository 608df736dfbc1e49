"""Tests for the residual-decomposition planner and the oracle builder."""

from __future__ import annotations

import hashlib
import math

import mpmath
import numpy as np
import pytest

from statesynth.clifford import desc_to_bytes, identity_desc, sr
from statesynth.f2linalg import F2Matrix, apply_to_index
from statesynth.numerics import PureState, haar_random_state
from statesynth.rng import substream
from statesynth.synthesis import (
    ORACLE_MAGIC,
    HashState,
    OracleSpec,
    Z_PAD_MULTIPLE,
    build_plan,
    derive_hash_params,
    derive_params,
    find_hash_matrix,
    harmonic_number,
    hash_state_for,
    merge_phase_oracles,
    nominal_success_amplitude,
    parse_desc_section,
    perturbed_sign,
    plan_to_oracle,
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


def test_build_plan_uniform_target_first_step():
    # phi_0 = psi for a nonnegative target, so eta_1 = (1 - alpha) psi.
    params = derive_params(2, 0.25)
    plan = build_plan(_uniform_state(2), params)
    assert plan.residual_norms[0] == pytest.approx(1.0, abs=1e-12)
    assert plan.residual_norms[1] == pytest.approx(0.65, abs=1e-12)
    assert plan.steps[0].coefficient == pytest.approx(0.35, abs=1e-15)
    assert desc_to_bytes(plan.steps[0].desc) == desc_to_bytes(identity_desc(2))


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


def test_merge_phase_oracles_trivial_cases():
    zero = lambda x: 0  # noqa: E731
    merged, total = merge_phase_oracles([zero, zero, zero], [2, 3, 1])
    assert total == 6
    assert all(merged(x) == 0 for x in range(64))

    table = [0, 1, 1, 0]
    single, total = merge_phase_oracles([lambda x: table[x]], [2])
    assert total == 2
    assert [single(x) for x in range(4)] == table


def test_merge_phase_oracles_exhaustive_xor():
    rng = substream(0, "test-merge")
    f_table = rng.integers(0, 2, 4)
    g_table = rng.integers(0, 2, 4)
    merged, total = merge_phase_oracles(
        [lambda x: int(f_table[x]), lambda x: int(g_table[x])], [2, 2]
    )
    assert total == 4
    for joint in range(16):
        hi, lo = joint >> 2, joint & 3
        assert merged(joint) == int(f_table[hi]) ^ int(g_table[lo])
    with pytest.raises(ValueError):
        merge_phase_oracles([lambda x: 0], [2, 2])
    with pytest.raises(ValueError):
        merged(16)


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


def test_hash_state_for_input_validation():
    with pytest.raises(ValueError, match="real"):
        hash_state_for(PureState(1, np.array([0.6, 0.8j])))
    with pytest.raises(ValueError, match="zero-norm"):
        hash_state_for(PureState(1, np.zeros(2, dtype=complex)))
    with pytest.raises(ValueError, match="norm"):
        hash_state_for(PureState(1, np.array([1.2, 0.0], dtype=complex)))


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


def test_trivial_hash_state():
    hs = trivial_hash_state(2)
    assert (hs.k, hs.support, hs.signs) == (0, (0,), (1,))
    assert np.allclose(hs.state_vector(), [1, 0, 0, 0])


def test_find_hash_matrix_cases():
    # k = 0: the 0 x n matrix exists vacuously for any singleton support.
    empty = find_hash_matrix({5}, 0, 4)
    assert (empty.rows, empty.cols) == (0, 4)

    full = find_hash_matrix(set(range(8)), 3, 3)
    images = {apply_to_index(full, x) for x in range(8)}
    assert len(images) == 8

    rng = substream(0, "test-hash-matrix")
    for trial in range(10):
        S = {int(x) for x in rng.choice(256, size=16, replace=False)}
        m = find_hash_matrix(S, 4, 8, seed=trial)
        assert (m.rows, m.cols) == (4, 8)
        images = {apply_to_index(m, x) for x in S}
        assert len(images) > 8

    with pytest.raises(ValueError):
        find_hash_matrix({0, 1, 2}, 2, 4)


#: sha256 of plan_to_oracle(plan).to_bytes() for the grid of
#: test_oracle_bytes_pinned, recorded before the batched Clifford kernel
#: replaced the per-index one.  Equal seeds must keep giving these bytes.
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
}


@pytest.mark.parametrize(
    "key", list(_ORACLE_DIGESTS), ids=["-".join(map(str, k)) for k in _ORACLE_DIGESTS]
)
def test_oracle_bytes_pinned(key):
    strategy, n, eps, mode = key
    derive = derive_params if strategy == "clifford" else derive_hash_params
    plan = build_plan(
        haar_random_state(n, 11 * n),
        derive(n, eps),
        strategy=strategy,
        mode=mode,
        perturb_bound=0.05 if mode == "perturbed" else None,
        seed=5,
    )
    digest = hashlib.sha256(plan_to_oracle(plan).to_bytes()).hexdigest()
    assert digest == _ORACLE_DIGESTS[key]
