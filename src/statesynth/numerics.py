"""State-vector and density-matrix kernel.

Dense complex vectors and matrices at desk scale: norms, trace distances,
partial traces, Hermitian spectra via cyclic Jacobi sweeps, Haar-random
states, and rank-1 purification extraction from an approximately known
density matrix.

Basis convention used everywhere in this package: ``amps[x]`` is the
amplitude of the basis string obtained by reading ``x`` as a big-endian
integer, i.e. qubit 0 is the most significant bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import substream

#: Off-diagonal Frobenius-norm threshold at which a Jacobi sweep stops.
JACOBI_TOL = 1e-12
#: Hard cap on Jacobi sweeps before declaring non-convergence.
JACOBI_MAX_SWEEPS = 100


class EigensolverError(RuntimeError):
    """Raised when Jacobi sweeps fail to converge within the sweep cap."""


@dataclass(frozen=True)
class PureState:
    """An n-qubit amplitude vector.

    Also used for sub-normalized residual vectors, so the constructor
    checks only the dimension, never the norm.
    """

    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"qubit count must be non-negative, got {self.n}")
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise ValueError(
                f"expected {1 << self.n} amplitudes for n={self.n}, got shape {amps.shape}"
            )
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return 1 << self.n


@dataclass(frozen=True)
class DensityMatrix:
    """An n-qubit density matrix (Hermitian, unit trace, PSD within tolerance)."""

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"qubit count must be non-negative, got {self.n}")
        entries = np.asarray(self.entries, dtype=np.complex128)
        dim = 1 << self.n
        if entries.shape != (dim, dim):
            raise ValueError(
                f"expected {dim}x{dim} matrix for n={self.n}, got shape {entries.shape}"
            )
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return 1 << self.n


def norm2(v: PureState) -> float:
    """Euclidean 2-norm of the amplitude vector."""
    return float(np.linalg.norm(v.amps))


def trace_distance_pure(a: PureState, b: PureState) -> float:
    """Trace distance between two normalized pure states: sqrt(1 - |<a|b>|^2)."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n} qubits")
    overlap = abs(np.vdot(a.amps, b.amps))
    # |<a|b>| can exceed 1 by rounding for (near-)identical inputs.
    return float(np.sqrt(max(0.0, 1.0 - min(overlap, 1.0) ** 2)))


def _jacobi_eigvalsh(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of a complex Hermitian matrix by cyclic Jacobi sweeps.

    Each sweep annihilates every off-diagonal pair (p, q) in turn with a
    complex rotation; stops once the off-diagonal Frobenius norm drops below
    JACOBI_TOL (scaled by the matrix norm) or raises after JACOBI_MAX_SWEEPS.

    The rotation works in place on row and column views of the matrix,
    through four scratch vectors and the column-p buffer below.  Every
    product is taken from the pre-rotation vectors before anything is
    written, and each element goes through the same complex-scalar times
    vector multiply and the same subtraction order as an
    allocate-per-rotation loop, so the eigenvalues are bit-identical to it.
    They must stay so: the benchmark's golden digests keep 12 significant
    digits of the one-query error, which is small enough that Jacobi
    rounding shows in those digits, and the pinned report tests keep full
    precision.  Only IEEE-exact real scalar
    operations (+, -, *, /, sqrt, copysign) may move from numpy to `math`;
    complex scalar arithmetic, abs and division stay in numpy.  Each
    product keeps the coefficient as its left operand: numpy's complex
    multiply rounds x * k differently from k * x.

    Two rules keep the per-rotation overhead down without moving a bit:

    - The six coefficients (c, s and their products with the phase and its
      conjugate) reach the ufuncs as preallocated 0-d complex128 arrays,
      written per rotation with ``k[()] = value``.  A Python float or numpy
      scalar operand would be converted on every call; the 0-d array takes
      the same complex128 loop with the coefficient still on the left.
    - Column p lives in one contiguous buffer for its whole p-phase (all
      q > p), and is written back to the matrix when the phase ends.  It
      shares two entries with the rows a rotation updates: a[p, p] with row
      p and a[q, p] with row q.  Before the row update they are copied from
      the buffer into the matrix, and after it back into the buffer.  No
      other entry of column p is read or written by the rows of a p-phase.
    """
    a = np.array(mat, dtype=np.complex128)
    dim = a.shape[0]
    if dim == 1:
        return a.diagonal().real.copy()
    scale = max(float(np.linalg.norm(a)), 1.0)
    rows, cols = list(a), list(a.T)
    col_p, b0, b1, b2, b3 = np.empty((5, dim), dtype=np.complex128)
    off = np.empty_like(a)
    kc, ks, ksc, kcc, ksr, kcr = (np.empty((), dtype=np.complex128) for _ in range(6))
    mul, add, sub, copyto = np.multiply, np.add, np.subtract, np.copyto
    for _ in range(JACOBI_MAX_SWEEPS):
        copyto(off, a)
        np.fill_diagonal(off, 0.0)
        if float(np.linalg.norm(off)) <= JACOBI_TOL * scale:
            return np.sort(a.diagonal().real)
        for p in range(dim - 1):
            row_p = rows[p]
            copyto(col_p, cols[p])
            for q in range(p + 1, dim):
                apq = row_p[q]
                mag = abs(apq)
                if mag == 0.0:
                    continue
                app = row_p[p].real
                aqq = rows[q][q].real
                # Diagonalize the 2x2 Hermitian block [[app, apq], [conj, aqq]]
                # with the unitary G = diag(1, e^{-i arg apq}) . (real Jacobi).
                phase = apq / mag
                tau = (aqq - app) / (2.0 * mag)
                if tau != 0.0:
                    t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                phase_conj = np.conj(phase)
                kc[()] = c
                ks[()] = s
                ksc[()] = s * phase_conj
                kcc[()] = c * phase_conj
                ksr[()] = s * phase
                kcr[()] = c * phase
                row_q, col_q = rows[q], cols[q]
                mul(kc, col_p, b0)
                mul(ksc, col_q, b1)
                mul(ks, col_p, b2)
                mul(kcc, col_q, b3)
                sub(b0, b1, col_p)
                add(b2, b3, col_q)
                row_p[p] = col_p[p]
                row_q[p] = col_p[q]
                mul(kc, row_p, b0)
                mul(ksr, row_q, b1)
                mul(ks, row_p, b2)
                mul(kcr, row_q, b3)
                sub(b0, b1, row_p)
                add(b2, b3, row_q)
                col_p[p] = row_p[p]
                col_p[q] = row_q[p]
            copyto(cols[p], col_p)
    raise EigensolverError(
        f"Jacobi sweeps did not converge within {JACOBI_MAX_SWEEPS} sweeps"
    )


def hermitian_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Sorted real eigenvalues of a Hermitian matrix (ascending).

    Non-finite entries are refused up front: an inf off-diagonal would pass
    the convergence test at once (inf <= tol * inf) and return the diagonal,
    and a NaN would run every sweep before failing.
    """
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix has non-finite entries")
    return _jacobi_eigvalsh(mat)


def trace_distance_mixed(a: DensityMatrix, b: DensityMatrix) -> float:
    """Trace distance 0.5 * ||a - b||_1 via the spectrum of the difference.

    The operands are ordered canonically (by raw bytes in C order) before
    subtracting, so td(a, b) and td(b, a) run the identical float
    computation and the metric's symmetry holds bitwise.  The bytes are
    compared a row at a time up to the first row that differs, which is the
    same lexicographic decision as comparing whole copies.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n} qubits")
    first, second = a.entries, b.entries
    for row_a, row_b in zip(first, second):
        bytes_a, bytes_b = row_a.tobytes(), row_b.tobytes()
        if bytes_a != bytes_b:
            if bytes_a > bytes_b:
                first, second = second, first
            break
    eigs = hermitian_eigenvalues(first - second)
    return float(0.5 * np.sum(np.abs(eigs)))


def partial_trace_keep_first(state: PureState, keep: int) -> DensityMatrix:
    """Reduced density matrix on the first `keep` qubits of a pure state."""
    if not 0 <= keep <= state.n:
        raise ValueError(f"keep must lie in [0, {state.n}], got {keep}")
    rest = state.n - keep
    block = state.amps.reshape(1 << keep, 1 << rest)
    reduced = block @ block.conj().T
    return DensityMatrix(keep, reduced)


def purify_rank1(rho_desc: DensityMatrix, delta_in: float) -> PureState:
    """Recover a pure state from an entrywise-δ-approximate rank-1 matrix.

    Picks the lexicographically first basis string y whose diagonal entry is
    at least (3/4)·2^{-n}, then returns the column amplitudes
    rho[x, y] / sqrt(rho[y, y]).  When the input carries entrywise precision
    δ_in ≤ (1/4)·2^{-n}, the output is entrywise within
    2·sqrt(δ_in) / sqrt((1/8)·2^{-2n}) of a global phase of the true state.

    The output is generally not normalized to 1e-9; callers needing a unit
    vector renormalize explicitly.
    """
    dim = rho_desc.dim
    threshold = 0.75 / dim
    if delta_in > 0.25 / dim:
        raise ValueError(
            f"stated precision {delta_in} exceeds the usable bound {0.25 / dim}"
        )
    diag = rho_desc.entries.diagonal().real
    candidates = np.nonzero(diag >= threshold)[0]
    if candidates.size == 0:
        raise ValueError(
            "no diagonal entry reaches (3/4)*2^-n; input is not a "
            "rank-1 matrix known to the stated precision"
        )
    y = int(candidates[0])
    column = rho_desc.entries[:, y] / np.sqrt(diag[y])
    return PureState(rho_desc.n, column)


def haar_random_state(n: int, seed: int) -> PureState:
    """Haar-random n-qubit pure state, deterministic per seed."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = substream(seed, f"haar-state-{n}")
    raw = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return PureState(n, raw / np.linalg.norm(raw))
