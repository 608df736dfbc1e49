"""Tests for the 11-round Clifford description layer.

The dense-matrix oracle (`to_matrix`) is itself validated here against
explicit 2x2 gate constants, then used to check `apply` on larger inputs.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from statesynth import clifford, f2linalg
from statesynth.clifford import (
    CliffordDesc,
    CRound,
    HRound,
    PRound,
    ROUND_PATTERN,
    SearchExhaustedError,
    apply,
    apply_inverse,
    desc_from_bytes,
    desc_to_bytes,
    find_overlap_clifford,
    identity_desc,
    overlap_with_sign_state,
    random_clifford,
    random_clifford_from,
    sign_pattern_state,
    sr,
    to_matrix,
)
from statesynth.f2linalg import F2Matrix
from statesynth.numerics import PureState, haar_random_state, norm2
from statesynth.rng import substream

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)


def _ket(n: int, x: int) -> PureState:
    amps = np.zeros(1 << n, dtype=complex)
    amps[x] = 1.0
    return PureState(n, amps)


def _with_round(base: CliffordDesc, pos: int, rnd) -> CliffordDesc:
    rounds = list(base.rounds)
    rounds[pos] = rnd
    return CliffordDesc(base.n, tuple(rounds))


def _coset_key(u: np.ndarray) -> tuple:
    """Canonical form of a unitary modulo global phase."""
    flat = u.reshape(-1)
    first = flat[np.argmax(np.abs(flat) > 1e-6)]
    return tuple(np.round(u.reshape(-1) / (first / abs(first)), 6))


def test_sr_examples():
    assert sr(1 + 0j) == 1
    assert sr(-0.3 + 5j) == -1
    assert sr(0 + 1j) == 1  # nonnegative real part includes zero
    assert sr(0j) == 1


def test_identity_description_acts_trivially():
    for n in (1, 2, 3):
        v = haar_random_state(n, n)
        out = apply(identity_desc(n), v)
        assert np.max(np.abs(out.amps - v.amps)) < 1e-12


def test_identity_description_is_shared_and_copies():
    for n in (1, 3):
        d = identity_desc(n)
        assert identity_desc(n) is d
        v = haar_random_state(n, n)
        before = v.amps.copy()
        out = apply(d, v)
        assert out.amps is not v.amps
        out.amps[:] = 7.0
        apply_inverse(d, v).amps[:] = 7.0
        assert np.array_equal(v.amps, before)
        assert np.array_equal(apply(d, v).amps, before)
        assert np.array_equal(apply_inverse(d, v).amps, before)


def test_description_rejects_bad_cnot_round():
    eye = F2Matrix.identity(2)
    m = F2Matrix(2, 2, (0b11, 0b01))  # [[1, 1], [1, 0]], not its own inverse
    wrong_inverse = CRound(m, m)
    assert f2linalg.mul(m, m).row_bits != eye.row_bits
    for pos, kind in enumerate(ROUND_PATTERN):
        if kind != "C":
            continue
        with pytest.raises(ValueError, match="wrong inverse"):
            _with_round(identity_desc(2), pos, wrong_inverse)
        for bad in (CRound(F2Matrix.identity(3), eye), CRound(eye, F2Matrix.identity(3)),
                    CRound(eye, F2Matrix(2, 3, (1, 2)))):
            with pytest.raises(ValueError, match="not 2x2"):
                _with_round(identity_desc(2), pos, bad)
        # The correct pair is accepted at every C position.
        _with_round(identity_desc(2), pos, CRound(m, f2linalg.inverse(m)))


def test_full_h_round_builds_uniform_superposition():
    for n in (1, 2, 3):
        d = _with_round(identity_desc(n), 0, HRound((1,) * n))
        out = apply(d, _ket(n, 0))
        assert np.allclose(out.amps, np.full(1 << n, (1 << n) ** -0.5), atol=1e-12)


def _butterfly_reference(amps: np.ndarray, n: int, i: int) -> None:
    """The out-of-place all-rows butterfly: the bit-for-bit reference for
    `clifford._butterfly(..., None, scratch)`, in place or not."""
    view = amps.reshape(amps.shape[0], 1 << i, 2, 1 << (n - 1 - i))
    a0 = view[:, :, 0].copy()
    a1 = view[:, :, 1]
    view[:, :, 0] = (a0 + a1) * clifford._INV_SQRT2
    view[:, :, 1] = (a0 - a1) * clifford._INV_SQRT2


def test_all_row_butterfly_matches_reference_bit_for_bit():
    rng = np.random.default_rng(31)
    for n in range(1, 8):
        for k in (1, 3, 8):
            amps = rng.standard_normal((k, 1 << n)) + 1j * rng.standard_normal((k, 1 << n))
            amps[::2, ::3] = -0.0
            amps[1::3, 1::4] = complex(-0.0, 2.5)
            amps[:, -1] = complex(0.0, -0.0)
            want = amps.copy()
            out_of_place = amps.copy()
            # The in-place form, forced at every size: one scratch buffer
            # serves every qubit, as in the callers.
            scratch = np.empty(amps.size // 2, dtype=np.complex128)
            for i in range(n):
                _butterfly_reference(want, n, i)
                clifford._butterfly(amps, n, i, None, scratch)
                clifford._butterfly(out_of_place, n, i, None, None)
                for got in (amps, out_of_place):
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, k, i)
    # Large states get the scratch buffer, small ones the out-of-place form.
    assert clifford._butterfly_scratch(np.empty((2048, 256), dtype=complex)).size == 1 << 18
    assert clifford._butterfly_scratch(np.empty((256, 64), dtype=complex)) is None


def _layer_ops_reference(descs, invert: bool) -> list:
    """The ops of `CliffordLayer(descs, invert)`, compiled by the one loop it
    used before one-row layers took a short branch: every round builds per-row
    lists and stacks them, with no memo of index maps."""
    n = descs[0].n
    k = len(descs)
    eye = tuple(1 << c for c in range(n))
    no_phase = (0,) * n
    images = {}
    last = len(ROUND_PATTERN) - 1
    ops = []
    if all(d is descs[0] for d in descs):
        descs = descs[:1]
    rows = len(descs)
    for pos in range(last + 1) if invert else range(last, -1, -1):
        rounds = [d.rounds[pos] for d in descs]
        kind = ROUND_PATTERN[pos]
        if kind == "H":
            qubits = []
            for i, column in enumerate(zip(*[r.bits for r in rounds])):
                hits = rows - column.count(0)
                if hits:
                    qubits.append((i, None if hits == rows else np.flatnonzero(column)))
            if qubits:
                ops.append(("H", qubits))
        elif kind == "P":
            digits = [r.digits for r in rounds]
            if digits.count(no_phase) < rows:
                ops.append(("P", np.array([clifford._phase_row(d, invert) for d in digits])))
        else:
            mats = [r.m if invert else r.m_inv for r in rounds]
            keys = [m.row_bits for m in mats]
            if keys.count(eye) < rows:
                for key, m in zip(keys, mats):
                    if key not in images:
                        images[key] = f2linalg.apply_to_all(m)
                index = np.array([images[key] for key in keys])
                if k > 1:
                    index = index + (np.arange(k) << n)[:, None]
                ops.append(("C", index.reshape(-1)))
    return ops


def _assert_same_ops(got: list, want: list) -> None:
    assert [kind for kind, _ in got] == [kind for kind, _ in want]
    for (kind, a), (_, b) in zip(got, want):
        if kind == "H":
            assert [i for i, _ in a] == [i for i, _ in b]
            for (_, rows_a), (_, rows_b) in zip(a, b):
                assert (rows_a is None) == (rows_b is None)
                if rows_a is not None:
                    assert np.array_equal(rows_a, rows_b)
        else:
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert np.array_equal(a, b)


def test_layer_compile_matches_reference():
    # One-row, repeated-row and mixed layers, with identity rows and
    # matrices repeated within and across rows, compile to the reference
    # loop's ops and give its output bits, in both directions.
    for n in range(1, 7):
        rng = substream(n, "test-layer-compile")
        d, e = random_clifford_from(rng, n), random_clifford_from(rng, n)
        eye = identity_desc(n)
        # e's matrices with d's H and P rounds: the same matrix in two rows.
        same_mats = CliffordDesc(n, tuple(
            r if kind == "C" else s for kind, r, s in zip(ROUND_PATTERN, e.rounds, d.rounds)))
        # One matrix in every C round, and an identity-valued copy that is
        # not the shared identity object.
        one_mat = CliffordDesc(n, tuple(
            d.rounds[1] if kind == "C" else r for kind, r in zip(ROUND_PATTERN, d.rounds)))
        eye_copy = CliffordDesc(n, eye.rounds)
        layers = [[d], [e], [eye], [eye_copy], [one_mat], [d, d, d], [eye, eye],
                  [d, e, d], [d, eye], [eye, d, eye_copy], [d, same_mats, e], [one_mat, d]]
        for descs in layers:
            k = len(descs)
            amps = rng.standard_normal((k, 1 << n)) + 1j * rng.standard_normal((k, 1 << n))
            for invert in (False, True):
                layer = clifford.CliffordLayer(descs, invert)
                want_ops = _layer_ops_reference(descs, invert)
                _assert_same_ops(layer._ops, want_ops)
                reference = object.__new__(clifford.CliffordLayer)
                reference.n, reference.k, reference._ops = n, k, want_ops
                got, want = layer(amps), reference(amps)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, k, invert)


def _index_memo_lookups() -> int:
    info = clifford._memo_index_map.cache_info()
    return info.hits + info.misses


def test_index_map_memo_stops_at_n3():
    # Layers at n <= 3 look CNOT index maps up in the memo, whose arrays
    # every layer shares, so they are read-only; from n = 4 on no layer
    # touches it.  (Every C round at n = 1 is the identity, which compiles to
    # nothing.)
    for n in (2, 3):
        d = random_clifford(n, 5)
        m = next(r.m for r in d.rounds if isinstance(r, CRound) and r.m != F2Matrix.identity(n))
        before = _index_memo_lookups()
        clifford.CliffordLayer([d])
        clifford.CliffordLayer([d, identity_desc(n)], invert=True)
        assert _index_memo_lookups() > before
        assert not clifford._memo_index_map(m).flags.writeable
        assert not clifford._memo_phase_row((1,) * n, False).flags.writeable
    for n in (4, 6):
        d, e = random_clifford(n, 5), random_clifford(n, 6)
        before = _index_memo_lookups()
        for descs in ([d], [d, d], [d, e]):
            for invert in (False, True):
                clifford.CliffordLayer(descs, invert)
        assert _index_memo_lookups() == before


def test_to_matrix_gate_constants():
    assert np.allclose(to_matrix(identity_desc(1)), np.eye(2), atol=1e-12)
    h_only = _with_round(identity_desc(1), 0, HRound((1,)))
    assert np.allclose(to_matrix(h_only), _H, atol=1e-12)
    s_only = _with_round(identity_desc(1), 2, PRound((1,)))
    assert np.allclose(to_matrix(s_only), _S, atol=1e-12)


def test_to_matrix_rejects_large_n():
    with pytest.raises(ValueError):
        to_matrix(identity_desc(4))


def test_apply_matches_matrix_oracle():
    rng = substream(0, "test-apply-oracle")
    for _ in range(30):
        d = random_clifford_from(rng, 2)
        u = to_matrix(d)
        v = haar_random_state(2, int(rng.integers(0, 2**31)))
        assert np.max(np.abs(apply(d, v).amps - u @ v.amps)) < 1e-12


def test_to_matrix_is_unitary():
    rng = substream(0, "test-unitarity")
    for n in (1, 2):
        for _ in range(20):
            u = to_matrix(random_clifford_from(rng, n))
            assert np.max(np.abs(u @ u.conj().T - np.eye(1 << n))) < 1e-12


def test_apply_preserves_norm():
    rng = substream(0, "test-norm")
    for _ in range(40):
        n = 1 + int(rng.integers(0, 4))
        d = random_clifford_from(rng, n)
        v = haar_random_state(n, int(rng.integers(0, 2**31)))
        assert abs(norm2(apply(d, v)) - 1.0) < 1e-10


def test_apply_inverse_roundtrip():
    rng = substream(0, "test-roundtrip")
    for _ in range(40):
        n = 1 + int(rng.integers(0, 4))
        d = random_clifford_from(rng, n)
        v = haar_random_state(n, int(rng.integers(0, 2**31)))
        back = apply_inverse(d, apply(d, v))
        assert np.max(np.abs(back.amps - v.amps)) < 1e-10


def test_random_clifford_deterministic():
    a = random_clifford(3, 42)
    b = random_clifford(3, 42)
    assert desc_to_bytes(a) == desc_to_bytes(b)
    assert desc_to_bytes(a) != desc_to_bytes(random_clifford(3, 43))


def _round_at_a_time(rng: np.random.Generator, n: int) -> CliffordDesc:
    """Reference sampler: one draw call per round and per GL candidate."""
    rounds = []
    for kind in ROUND_PATTERN:
        if kind == "H":
            rounds.append(HRound(tuple(rng.integers(0, 2, size=n).tolist())))
        elif kind == "P":
            rounds.append(PRound(tuple(rng.integers(0, 4, size=n).tolist())))
        else:
            # Rejection sampling by rank, apart from the acceptance test
            # under test.
            m = F2Matrix(n, n, f2linalg.random_rows_from(rng, n, n))
            while f2linalg.rank(m) < n:
                m = F2Matrix(n, n, f2linalg.random_rows_from(rng, n, n))
            rounds.append(CRound(m, f2linalg.inverse(m)))
    return CliffordDesc(n, tuple(rounds))


def test_random_clifford_from_matches_round_at_a_time_draws():
    # The block sampler gives the descriptions, and leaves the stream in the
    # state, of the reference, also between other draws on the same stream.
    for n in range(1, 9):
        for seed in range(40):
            block = np.random.default_rng([seed, n])
            reference = np.random.default_rng([seed, n])
            for call in range(3):
                assert random_clifford_from(block, n) == _round_at_a_time(reference, n)
                assert block.bit_generator.state == reference.bit_generator.state
                # Other draws in between: a 64-bit double, a rejecting range
                # and an odd number of 32-bit values.
                for rng in (block, reference):
                    rng.random()
                    rng.integers(0, 7, size=call + 1)
                    rng.integers(0, 2, size=2 * call + 1)
                assert block.bit_generator.state == reference.bit_generator.state


class _CountingRng:
    """A Generator that counts its `integers` calls."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.integers_calls = 0

    def integers(self, *args, **kwargs):
        self.integers_calls += 1
        return self.rng.integers(*args, **kwargs)


def test_random_clifford_from_draws_in_few_calls():
    # A description takes one block of digits, and another only when
    # rejected candidates leave the parse short: about 6 calls at n = 3,
    # where one call per rejected candidate took about 11.
    rng = _CountingRng(np.random.default_rng(0))
    for _ in range(200):
        random_clifford_from(rng, 3)
    assert rng.integers_calls / 200 <= 7


def test_random_clifford_from_refuses_n_below_one():
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    for n in (0, -1):
        with pytest.raises(ValueError, match="need n >= 1"):
            random_clifford_from(rng, n)
        assert rng.bit_generator.state == state
        with pytest.raises(ValueError, match="need n >= 1"):
            random_clifford(n, 1)


def test_top_bit_of_a_four_way_draw_is_a_two_way_draw():
    # The sampler reads an H bit or matrix entry as integers(0, 4) >> 1.
    for seed in range(20):
        four = np.random.default_rng(seed)
        two = np.random.default_rng(seed)
        for size in (1, 2, 7, 64):
            top = four.integers(0, 4, size=size) >> 1
            assert np.array_equal(top, two.integers(0, 2, size=size))
            assert four.bit_generator.state == two.bit_generator.state


def test_single_qubit_coset_frequencies():
    """All 24 single-qubit Clifford cosets appear at their exact word rates.

    At n = 1 every C-round is the identity, so a sampled description
    collapses to the word H^a S^u H^b S^v with a, b uniform bits and u, v
    uniform mod 4 (each a sum of two phase digits): 64 equally likely words.
    Brute-force enumeration of those words gives the exact coset law --
    multiplicities 5, 2 or 1 out of 64 -- which the sampler must reproduce.
    """
    expected: dict[tuple, int] = {}
    for a in range(2):
        for u in range(4):
            for b in range(2):
                for v in range(4):
                    word = (
                        np.linalg.matrix_power(_H, a)
                        @ np.linalg.matrix_power(_S, u)
                        @ np.linalg.matrix_power(_H, b)
                        @ np.linalg.matrix_power(_S, v)
                    )
                    key = _coset_key(word)
                    expected[key] = expected.get(key, 0) + 1
    assert len(expected) == 24
    assert sorted(set(expected.values())) == [1, 2, 5]

    samples = 10_000
    rng = substream(0, "test-coset-frequency")
    observed: dict[tuple, int] = {}
    for _ in range(samples):
        key = _coset_key(to_matrix(random_clifford_from(rng, 1)))
        observed[key] = observed.get(key, 0) + 1

    assert set(observed) == set(expected)
    for key, mult in expected.items():
        p = mult / 64
        sigma = np.sqrt(p * (1 - p) / samples)
        assert abs(observed[key] / samples - p) < 5 * sigma
        # Every coset clears half its own rate with lots of room.
        assert observed[key] / samples > 0.5 * p


def test_sign_pattern_state_examples():
    # eta = |0>, identity: <0|I|x> is 1 then 0, both sr = +1 -> p = |+>.
    p, pattern = sign_pattern_state(_ket(1, 0), identity_desc(1))
    assert np.allclose(p.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)
    assert pattern.bits.tolist() == [0, 0]

    # eta = |0>, single H-round: <0|H|x> = 1/sqrt2 > 0 for both x, H|+> = |0>.
    h_only = _with_round(identity_desc(1), 0, HRound((1,)))
    p, pattern = sign_pattern_state(_ket(1, 0), h_only)
    assert np.allclose(p.amps, [1.0, 0.0], atol=1e-12)
    assert pattern.bits.tolist() == [0, 0]


def test_sign_pattern_state_always_unit_norm():
    rng = substream(0, "test-sign-norm")
    for _ in range(30):
        n = 1 + int(rng.integers(0, 3))
        d = random_clifford_from(rng, n)
        # Sub-normalized residual vectors are allowed inputs.
        eta = haar_random_state(n, int(rng.integers(0, 2**31)))
        eta = PureState(n, eta.amps * 0.3)
        p, _ = sign_pattern_state(eta, d)
        assert abs(norm2(p) - 1.0) < 1e-12


def test_sign_pattern_matches_definition():
    # Recompute sr(<eta|C|x>) from the dense matrix and compare.
    rng = substream(0, "test-sign-defn")
    for _ in range(20):
        d = random_clifford_from(rng, 2)
        eta = haar_random_state(2, int(rng.integers(0, 2**31)))
        u = to_matrix(d)
        p, pattern = sign_pattern_state(eta, d)
        signs = np.array([sr(complex(np.vdot(eta.amps, u[:, x]))) for x in range(4)])
        assert np.array_equal(pattern.signs(), signs)
        want = u @ (signs.astype(complex) / 2.0)
        assert np.max(np.abs(p.amps - want)) < 1e-12


@pytest.mark.parametrize("shape", [(256,), (64, 256), (512, 8), (0,), (0, 8), (3, 0)])
def test_signs_from_bits_is_one_minus_two_bits(shape):
    bits = np.random.default_rng(sum(shape) + len(shape)).integers(0, 2, shape).astype(np.uint8)
    got = clifford.signs_from_bits(bits)
    assert got.dtype == np.float64
    assert got.shape == bits.shape
    want = 1.0 - 2.0 * bits.astype(np.float64)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_find_overlap_clifford_uniform_target():
    plus = PureState(2, np.full(4, 0.5, dtype=complex))
    d, achieved, _ = find_overlap_clifford(plus, 0.35, seed=5)
    assert achieved == pytest.approx(1.0, abs=1e-12)
    # The identity qualifies immediately for nonnegative real amplitudes.
    assert desc_to_bytes(d) == desc_to_bytes(identity_desc(2))


def test_find_overlap_clifford_basis_target():
    d, achieved, _ = find_overlap_clifford(_ket(1, 0), 0.35, seed=5)
    assert achieved == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert desc_to_bytes(d) == desc_to_bytes(identity_desc(1))


def test_find_overlap_clifford_certificates_reverified():
    for seed in range(100):
        eta = haar_random_state(3, seed)
        d, achieved, _ = find_overlap_clifford(eta, 0.35, seed=seed)
        recomputed = overlap_with_sign_state(eta, d)
        assert achieved >= 0.35
        assert recomputed == pytest.approx(achieved, abs=1e-12)


def test_find_overlap_clifford_exhaustion():
    eta = haar_random_state(2, 99)
    with pytest.raises(SearchExhaustedError) as info:
        find_overlap_clifford(eta, 0.9999, max_trials=5, seed=17)
    err = info.value
    assert (err.alpha, err.trials, err.seed) == (0.9999, 5, 17)
    assert (err.step, err.residual_norm) == (None, None)
    # The best overlap is the largest of the five trials, replayed here.
    eta_hat = PureState(2, eta.amps / np.linalg.norm(eta.amps))
    rng = substream(17, "clifford-search-2")
    trials = [identity_desc(2)] + [random_clifford_from(rng, 2) for _ in range(4)]
    assert err.best == max(overlap_with_sign_state(eta_hat, d) for d in trials)
    assert err.best < 0.9999
    # The context survives a pickle round trip (e.g. out of a worker process).
    back = pickle.loads(pickle.dumps(err))
    assert (str(back), back.trials, back.best) == (str(err), 5, err.best)
    with pytest.raises(ValueError):
        find_overlap_clifford(PureState(1, np.zeros(2, dtype=complex)), 0.35)


def test_find_overlap_clifford_refuses_bad_budget_and_alpha():
    eta = haar_random_state(2, 99)
    for bad in (-1, -5):
        with pytest.raises(ValueError, match="max_trials"):
            find_overlap_clifford(eta, 0.35, max_trials=bad)
    for alpha in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="alpha"):
            find_overlap_clifford(eta, alpha)
    # An empty budget is still a search that found nothing.
    with pytest.raises(SearchExhaustedError):
        find_overlap_clifford(eta, 0.35, max_trials=0)


def test_description_serialization_roundtrip():
    rng = substream(0, "test-desc-serial")
    for n in (1, 2, 3, 4):
        for _ in range(10):
            d = random_clifford_from(rng, n)
            blob = desc_to_bytes(d)
            back, consumed = desc_from_bytes(blob, 0, n)
            assert consumed == len(blob)
            assert desc_to_bytes(back) == blob
            assert back == d


def test_round_pattern_is_fixed():
    assert ROUND_PATTERN == "HCPCPCHPCPC"
    d = identity_desc(2)
    assert len(d.rounds) == 11
