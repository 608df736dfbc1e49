"""Unit tests for the state-vector / density-matrix kernel.

Every nontrivial numeric path is checked against an independent oracle:
numpy's eigensolver for the Jacobi sweeps, einsum contractions for the
partial trace, and closed-form values for the distance functions.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from statesynth import numerics
from statesynth.executors import run_one_query
from statesynth.numerics import (
    DensityMatrix,
    EigensolverError,
    PureState,
    haar_random_state,
    hermitian_eigenvalues,
    norm2,
    partial_trace_keep_first,
    purify_rank1,
    trace_distance_mixed,
    trace_distance_pure,
)
from statesynth.synthesis import build_plan, derive_hash_params, derive_params


def _ket(n: int, x: int) -> PureState:
    amps = np.zeros(1 << n, dtype=complex)
    amps[x] = 1.0
    return PureState(n, amps)


def _random_density(n: int, rng: np.random.Generator) -> DensityMatrix:
    """Random mixture of 1-4 Haar pure states (an independent construction)."""
    dim = 1 << n
    k = int(rng.integers(1, 5))
    weights = rng.random(k)
    weights /= weights.sum()
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        rho += w * np.outer(v, v.conj())
    return DensityMatrix(n, rho)


def test_norm2_examples():
    assert norm2(_ket(1, 0)) == 1.0
    assert norm2(PureState(1, np.zeros(2, dtype=complex))) == 0.0
    assert norm2(PureState(1, np.array([0.6, 0.8j]))) == pytest.approx(1.0, abs=1e-15)


def test_pure_state_shape_validation():
    with pytest.raises(ValueError):
        PureState(2, np.zeros(3, dtype=complex))
    with pytest.raises(ValueError):
        PureState(-1, np.zeros(1, dtype=complex))


def test_trace_distance_pure_examples():
    zero = _ket(1, 0)
    one = _ket(1, 1)
    plus = PureState(1, np.array([1.0, 1.0]) / np.sqrt(2))
    assert trace_distance_pure(zero, zero) == 0.0
    assert trace_distance_pure(zero, one) == 1.0
    assert trace_distance_pure(zero, plus) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    with pytest.raises(ValueError):
        trace_distance_pure(zero, _ket(2, 0))


def test_trace_distance_pure_below_euclidean():
    # td(a, b) <= ||a - b||_2 for pure states.
    for seed in range(200):
        a = haar_random_state(2, seed)
        b = haar_random_state(2, seed + 10_000)
        td = trace_distance_pure(a, b)
        assert td <= norm2(PureState(2, a.amps - b.amps)) + 1e-9


def test_hermitian_eigenvalues_against_numpy():
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3, 4, 8, 16, 64):
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        herm = (raw + raw.conj().T) / 2
        got = hermitian_eigenvalues(herm)
        want = np.linalg.eigvalsh(herm)
        assert np.max(np.abs(got - want)) < 1e-9 * max(1.0, np.abs(want).max())


def test_hermitian_eigenvalues_rejects_non_square():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.zeros((2, 3)))


def _jacobi_reference(mat: np.ndarray) -> np.ndarray:
    """The allocate-per-rotation Jacobi loop, verbatim: the bit-for-bit
    reference for numerics._jacobi_eigvalsh."""
    a = np.array(mat, dtype=np.complex128)
    dim = a.shape[0]
    if dim == 1:
        return a.diagonal().real.copy()
    scale = max(float(np.linalg.norm(a)), 1.0)
    for _ in range(numerics.JACOBI_MAX_SWEEPS):
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        if float(np.linalg.norm(off)) <= numerics.JACOBI_TOL * scale:
            return np.sort(a.diagonal().real)
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                apq = a[p, q]
                if abs(apq) == 0.0:
                    continue
                app = a[p, p].real
                aqq = a[q, q].real
                phase = apq / abs(apq)
                tau = (aqq - app) / (2.0 * abs(apq))
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0.0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * np.conj(phase) * col_q
                a[:, q] = s * col_p + c * np.conj(phase) * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * row_p + c * phase * row_q
    raise EigensolverError("reference did not converge")


def _random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2


def _one_query_difference(psi: PureState, plan) -> np.ndarray:
    """rho - |psi><psi| of the plan's one-query output, with the operands in
    the order trace_distance_mixed subtracts them."""
    rho = run_one_query(psi, 0.25, plan=plan).output_reduced.entries
    target = np.outer(psi.amps, np.conj(psi.amps))
    first, second = sorted((rho, target), key=lambda m: m.tobytes())
    return first - second


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_jacobi_matches_reference_bit_for_bit():
    rng = np.random.default_rng(47)
    mats = [_random_hermitian(dim, rng) for dim in (1, 2, 3, 4, 8, 16, 33, 64)]
    clifford_psi = haar_random_state(6, 3)
    hash_psi = haar_random_state(5, 4)
    mats.append(_one_query_difference(
        clifford_psi, build_plan(clifford_psi, derive_params(6, 0.25), seed=3)))
    hash_plan = build_plan(hash_psi, derive_hash_params(5, 0.25), strategy="hash", seed=4)
    assert hash_plan.track_count == 2
    mats.append(_one_query_difference(hash_psi, hash_plan))
    # Two dense blocks with zero coupling: every cross pair takes the
    # abs(apq) == 0.0 skip.
    block = np.zeros((12, 12), dtype=complex)
    block[:5, :5] = _random_hermitian(5, rng)
    block[5:, 5:] = _random_hermitian(7, rng)
    mats.append(block)
    # A long p-phase through the column-p buffer: 127 rotations at p = 0.
    # Near-diagonal with spread diagonal entries, so it converges in one
    # or two sweeps (under a second for the solver and the reference).
    near_diag = 1e-6 * _random_hermitian(128, rng)
    near_diag[np.diag_indices(128)] += np.linspace(-1.0, 1.0, 128)
    mats.append(near_diag)
    # -0.0 real and imaginary entries in the buffered columns, and zero
    # couplings in the middle of the p = 0 and p = 1 phases: index 3 is
    # coupled to 4 and 5 only, so a[0, 3] and a[1, 3] are still zero when
    # their rotations come up, while index 0's later rotations (q = 4, 5)
    # still run.  Index 6 is all -0.0 and takes the skip in every phase.
    signed = _random_hermitian(7, rng)
    signed[3, :3] = complex(-0.0, -0.0)
    signed[:3, 3] = complex(-0.0, 0.0)
    signed[6, :] = complex(-0.0, -0.0)
    signed[:, 6] = complex(-0.0, 0.0)
    signed[6, 6] = complex(-0.0, 0.0)
    signed[4, 1] = complex(-0.0, 0.5)
    signed[1, 4] = complex(-0.0, -0.5)
    mats.append(signed)
    for mat in mats:
        before = mat.copy()
        _assert_same_bits(hermitian_eigenvalues(mat), _jacobi_reference(mat))
        # The solver works on its own copy: the caller's matrix is untouched.
        _assert_same_bits(mat, before)


_JACOBI_DIGEST = "0e00944ef63bda2faf4dc119e407bd01aa052dce447d9856f0002835a7a7489c"


def _jacobi_pin_matrices() -> list[np.ndarray]:
    """Random Hermitian matrices at d 2..64, rank-3 differences shaped like
    a one-query error (a near-target mixture minus the target's projector),
    and a matrix whose couplings are exact zeros off two blocks."""
    rng = np.random.default_rng(2024)
    mats = [_random_hermitian(dim, rng) for dim in (2, 3, 5, 8, 13, 32, 64)]
    for dim in (4, 16, 64):
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        near = psi + 1e-3 * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        near /= np.linalg.norm(near)
        junk = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        junk /= np.linalg.norm(junk)
        rho = 0.999 * np.outer(near, near.conj()) + 0.001 * np.outer(junk, junk.conj())
        mats.append(rho - np.outer(psi, psi.conj()))
    block = np.zeros((9, 9), dtype=complex)
    block[:4, :4] = _random_hermitian(4, rng)
    block[4:, 4:] = _random_hermitian(5, rng)
    mats.append(block)
    return mats


def test_jacobi_eigenvalue_bits_pinned():
    # The sha256 of the raw eigenvalue bytes, recorded before the solver's
    # scalar path moved to Python floats; any change of rounding fails it.
    digest = hashlib.sha256()
    for mat in _jacobi_pin_matrices():
        digest.update(numerics._jacobi_eigvalsh(mat).tobytes())
    assert digest.hexdigest() == _JACOBI_DIGEST


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_hermitian_eigenvalues_rejects_non_finite(bad):
    # Before the check, inf returned the diagonal (sixteen 1.0s) and NaN ran
    # every sweep before EigensolverError.
    mat = np.eye(16, dtype=complex)
    mat[3, 5] = mat[5, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        hermitian_eigenvalues(mat)
    with pytest.raises(ValueError, match="non-finite"):
        trace_distance_mixed(DensityMatrix(4, mat), DensityMatrix(4, np.eye(16) / 16))


def test_jacobi_sweep_cap_raises(monkeypatch):
    monkeypatch.setattr(numerics, "JACOBI_MAX_SWEEPS", 1)
    mat = _random_hermitian(8, np.random.default_rng(5))
    with pytest.raises(EigensolverError, match="within 1 sweeps"):
        hermitian_eigenvalues(mat)


def test_trace_distance_mixed_examples():
    zero = DensityMatrix(1, np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
    one = DensityMatrix(1, np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex))
    maximally_mixed = DensityMatrix(1, np.eye(2, dtype=complex) / 2)
    assert trace_distance_mixed(zero, zero) == 0.0
    assert trace_distance_mixed(zero, one) == pytest.approx(1.0, abs=1e-12)
    # Eigenvalues of |0><0| - I/2 are +1/2 and -1/2, so td = 0.5 exactly.
    assert trace_distance_mixed(zero, maximally_mixed) == pytest.approx(0.5, abs=1e-12)


def test_trace_distance_mixed_against_numpy_oracle():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        for _ in range(20):
            a = _random_density(n, rng)
            b = _random_density(n, rng)
            want = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(a.entries - b.entries)))
            assert trace_distance_mixed(a, b) == pytest.approx(want, abs=1e-9)


def test_trace_distance_mixed_is_a_metric_on_samples():
    rng = np.random.default_rng(31)
    for _ in range(30):
        a = _random_density(2, rng)
        b = _random_density(2, rng)
        c = _random_density(2, rng)
        ab = trace_distance_mixed(a, b)
        # Symmetry is exact by construction (operands ordered canonically).
        assert ab == trace_distance_mixed(b, a)
        assert ab <= trace_distance_mixed(a, c) + trace_distance_mixed(c, b) + 1e-8


def _subtracted(monkeypatch, a: DensityMatrix, b: DensityMatrix) -> np.ndarray:
    """The difference trace_distance_mixed(a, b) hands to the eigensolver."""
    seen = []

    def record(mat):
        seen.append(mat.copy())
        return np.zeros(mat.shape[0])

    monkeypatch.setattr(numerics, "hermitian_eigenvalues", record)
    trace_distance_mixed(a, b)
    monkeypatch.undo()
    return seen[0]


def test_trace_distance_mixed_orders_by_bytes_to_the_last_byte(monkeypatch):
    # The two matrices differ only in the last byte of their raw bytes: the
    # sign bit of the last entry's imaginary part (+0.0 against -0.0).  As
    # floats they are equal, so only a byte comparison orders them, and it
    # must read up to the last row to do so.
    rho = _random_density(3, np.random.default_rng(61)).entries
    rho[-1, -1] = complex(rho[-1, -1].real, 0.0)
    flipped = rho.copy()
    flipped[-1, -1] = complex(rho[-1, -1].real, -0.0)
    assert rho.tobytes()[:-1] == flipped.tobytes()[:-1]
    assert rho.tobytes() < flipped.tobytes()
    a, b = DensityMatrix(3, rho), DensityMatrix(3, flipped)
    want = rho - flipped
    _assert_same_bits(_subtracted(monkeypatch, a, b), want)
    _assert_same_bits(_subtracted(monkeypatch, b, a), want)
    assert not np.signbit(want[-1, -1].imag)  # 0.0 - -0.0
    assert trace_distance_mixed(a, b) == trace_distance_mixed(b, a) == 0.0


def test_trace_distance_mixed_of_equal_matrices(monkeypatch):
    rho = _random_density(2, np.random.default_rng(67))
    same = DensityMatrix(2, rho.entries.copy())
    _assert_same_bits(_subtracted(monkeypatch, rho, same), np.zeros((4, 4), dtype=complex))
    assert trace_distance_mixed(rho, same) == trace_distance_mixed(same, rho) == 0.0


def test_mixed_vs_pure_overlap_bound():
    # td(rho, psi) <= sqrt(tr(rho (I - psi))) on random inputs.
    rng = np.random.default_rng(47)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        rho = _random_density(n, rng)
        psi = haar_random_state(n, int(rng.integers(0, 2**31)))
        proj = np.outer(psi.amps, psi.amps.conj())
        td = trace_distance_mixed(rho, DensityMatrix(n, proj))
        overlap = float(np.real(np.vdot(psi.amps, rho.entries @ psi.amps)))
        assert td <= np.sqrt(max(0.0, 1.0 - overlap)) + 1e-8


def test_partial_trace_product_state():
    # |0> (x) |+>, keep 1 -> |0><0|
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    amps = np.kron(np.array([1.0, 0.0]), plus)
    rho = partial_trace_keep_first(PureState(2, amps), 1)
    assert np.allclose(rho.entries, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0b00] = bell[0b11] = 1 / np.sqrt(2)
    rho = partial_trace_keep_first(PureState(2, bell), 1)
    assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_against_einsum_oracle():
    rng = np.random.default_rng(59)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        keep = int(rng.integers(0, n + 1))
        psi = haar_random_state(n, int(rng.integers(0, 2**31)))
        block = psi.amps.reshape(1 << keep, 1 << (n - keep))
        want = np.einsum("ik,jk->ij", block, block.conj())
        got = partial_trace_keep_first(psi, keep)
        assert got.n == keep
        assert np.max(np.abs(got.entries - want)) < 1e-12
        assert np.trace(got.entries).real == pytest.approx(1.0, abs=1e-9)


def test_partial_trace_keep_all_is_outer_product():
    for seed in range(10):
        psi = haar_random_state(3, seed)
        rho = partial_trace_keep_first(psi, 3)
        assert np.max(np.abs(rho.entries - np.outer(psi.amps, psi.amps.conj()))) < 1e-12


def test_partial_trace_keep_out_of_range():
    with pytest.raises(ValueError):
        partial_trace_keep_first(haar_random_state(2, 0), 3)


def test_purify_rank1_exact_inputs():
    zero = DensityMatrix(1, np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
    got = purify_rank1(zero, 0.0)
    assert np.allclose(got.amps, [1.0, 0.0], atol=1e-12)

    plus = DensityMatrix(1, np.full((2, 2), 0.5, dtype=complex))
    got = purify_rank1(plus, 0.0)
    # Column y=0 divided by sqrt(1/2).
    assert np.allclose(got.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_purify_rank1_roundtrip_on_exact_rank1():
    for seed in range(20):
        n = 1 + seed % 3
        psi = haar_random_state(n, seed)
        rho = DensityMatrix(n, np.outer(psi.amps, psi.amps.conj()))
        out = purify_rank1(rho, 0.0)
        back = np.outer(out.amps, out.amps.conj())
        assert np.max(np.abs(back - rho.entries)) < 1e-9


def test_purify_rank1_perturbed_within_stated_bound():
    rng = np.random.default_rng(71)
    delta = 1e-8
    for trial in range(20):
        n = 1 + trial % 3
        dim = 1 << n
        psi = haar_random_state(n, 1000 + trial)
        exact = np.outer(psi.amps, psi.amps.conj())
        noise = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
        noise = (noise + noise.conj().T) / 2
        noise *= delta / np.abs(noise).max()
        got = purify_rank1(DensityMatrix(n, exact + noise), delta)
        want = purify_rank1(DensityMatrix(n, exact), 0.0)
        # Align the global phase before comparing entrywise.
        phase = np.vdot(want.amps, got.amps)
        phase /= abs(phase)
        diff = np.max(np.abs(got.amps - phase * want.amps))
        bound = 2 * np.sqrt(delta) / np.sqrt(0.125 * 2.0 ** (-2 * n))
        assert diff <= bound


def test_purify_rank1_rejects_flat_diagonal():
    # A corrupted description whose diagonal never reaches (3/4)*2^-n.
    shrunk = DensityMatrix(2, np.eye(4, dtype=complex) / 8)
    with pytest.raises(ValueError):
        purify_rank1(shrunk, 1e-6)


def test_purify_rank1_rejects_oversized_precision():
    zero = DensityMatrix(1, np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        purify_rank1(zero, 0.2)


def test_haar_random_state_deterministic_and_normalized():
    a = haar_random_state(2, 7)
    b = haar_random_state(2, 7)
    assert np.array_equal(a.amps, b.amps)
    assert norm2(a) == pytest.approx(1.0, abs=1e-12)
    assert not np.array_equal(a.amps, haar_random_state(2, 8).amps)


def test_haar_random_state_moments():
    # Mean |amps[x]|^2 should be 1/4 per basis state at n=2.
    total = np.zeros(4)
    samples = 100_000
    for seed in range(samples):
        total += np.abs(haar_random_state(2, seed).amps) ** 2
    mean = total / samples
    assert np.all(np.abs(mean - 0.25) < 0.01)
