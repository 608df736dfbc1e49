"""Clifford unitaries in an 11-round canonical form.

A Clifford is described by rounds following the fixed pattern
H-C-P-C-P-C-H-P-C-P-C: Hadamard rounds (a bit per qubit), phase rounds (an
S-power in {0,1,2,3} per qubit), and CNOT rounds (an invertible GF(2)
matrix stored with its inverse).  The described unitary is the product of
the rounds as written, so `apply` walks them right-to-left.

One kernel applies descriptions: `CliffordLayer` compiles k descriptions
(they all share ROUND_PATTERN) into one whole-array operation per round on
a (k, 2^n) array, with each CNOT permutation built by
`f2linalg.apply_to_all`.  `apply`, `apply_inverse`, `sign_pattern_state`,
`overlap_with_sign_state` and `to_matrix` are k = 1 uses of it, and the
query circuit applies all of its step descriptions as one layer.

Sign-pattern states: for a residual vector eta and Clifford C, the state
C . 2^{-n/2} sum_x sr(<eta|C|x>) |x>, where sr(c) is +1 iff Re(c) >= 0.
The overlap search samples random Cliffords until this state's real overlap
with the normalized residual reaches a threshold.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import f2linalg
from .f2linalg import F2Matrix
from .numerics import PureState
from .rng import substream

#: Fixed round pattern; position p of a description holds a round of this kind.
ROUND_PATTERN = "HCPCPCHPCPC"

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class SearchExhaustedError(RuntimeError):
    """Raised when a randomized search uses up its trial budget."""


@dataclass(frozen=True)
class HRound:
    """Hadamard round: bits[i] == 1 applies H to qubit i."""

    bits: tuple[int, ...]


@dataclass(frozen=True)
class PRound:
    """Phase round: qubit i receives S^digits[i], S = diag(1, i)."""

    digits: tuple[int, ...]


@dataclass(frozen=True)
class CRound:
    """CNOT round: |x> -> |Mx> with the inverse matrix carried alongside."""

    m: F2Matrix
    m_inv: F2Matrix


Round = HRound | PRound | CRound


@dataclass(frozen=True)
class CliffordDesc:
    n: int
    rounds: tuple[Round, ...]

    def __post_init__(self) -> None:
        if len(self.rounds) != len(ROUND_PATTERN):
            raise ValueError(f"expected {len(ROUND_PATTERN)} rounds, got {len(self.rounds)}")
        for pos, (kind, rnd) in enumerate(zip(ROUND_PATTERN, self.rounds)):
            if kind == "H":
                if not isinstance(rnd, HRound) or len(rnd.bits) != self.n:
                    raise ValueError(f"round {pos} must be an H-round on {self.n} qubits")
            elif kind == "P":
                if not isinstance(rnd, PRound) or len(rnd.digits) != self.n:
                    raise ValueError(f"round {pos} must be a P-round on {self.n} qubits")
                if any(d not in (0, 1, 2, 3) for d in rnd.digits):
                    raise ValueError(f"round {pos} has a phase digit outside 0..3")
            else:
                if not isinstance(rnd, CRound):
                    raise ValueError(f"round {pos} must be a C-round")
                if rnd.m.rows != self.n or rnd.m.cols != self.n:
                    raise ValueError(f"round {pos} matrix is not {self.n}x{self.n}")
                if f2linalg.mul(rnd.m, rnd.m_inv).row_bits != F2Matrix.identity(self.n).row_bits:
                    raise ValueError(f"round {pos} carries a wrong inverse")


def sr(c: complex) -> int:
    """Sign of the real part, with sr = +1 at Re(c) == 0."""
    return 1 if c.real >= 0.0 else -1


@dataclass(frozen=True)
class SignPattern:
    """2^n sign bits; bit 1 means phase -1."""

    n: int
    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} sign bits, got shape {bits.shape}")
        if bits.max(initial=0) > 1:
            raise ValueError("sign bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    def signs(self) -> np.ndarray:
        """The bits as floats +1.0 / -1.0."""
        return 1.0 - 2.0 * self.bits.astype(np.float64)


def identity_desc(n: int) -> CliffordDesc:
    """The canonical description of the identity (all rounds trivial)."""
    eye = F2Matrix.identity(n)
    rounds: list[Round] = []
    for kind in ROUND_PATTERN:
        if kind == "H":
            rounds.append(HRound((0,) * n))
        elif kind == "P":
            rounds.append(PRound((0,) * n))
        else:
            rounds.append(CRound(eye, eye))
    return CliffordDesc(n, tuple(rounds))


#: S-power phase factors, indexed by the digit sum mod 4.
_PHASES = np.array([1, 1j, -1, -1j])


@functools.lru_cache(maxsize=None)
def _qubit_bits(n: int, negate: bool) -> np.ndarray:
    """(n, 2^n) int8 table: entry (i, x) is qubit i's bit of x (qubit 0 is the
    MSB), negated when asked, so digits @ table is a per-index S power."""
    xs = np.arange(1 << n)
    bits = ((xs >> (n - 1 - np.arange(n))[:, None]) & 1).astype(np.int8)
    table = -bits if negate else bits
    table.flags.writeable = False
    return table


def _butterfly(amps: np.ndarray, n: int, i: int, rows: np.ndarray | None) -> None:
    """H on qubit i of the given rows (all rows when None) of a (k, 2^n) array."""
    view = amps.reshape(amps.shape[0], 1 << i, 2, 1 << (n - 1 - i))
    if rows is None:
        a0 = view[:, :, 0].copy()
        a1 = view[:, :, 1]
        view[:, :, 0] = (a0 + a1) * _INV_SQRT2
        view[:, :, 1] = (a0 - a1) * _INV_SQRT2
    else:
        sub = view[rows]
        a0 = sub[:, :, 0]
        a1 = sub[:, :, 1]
        view[rows, :, 0] = (a0 + a1) * _INV_SQRT2
        view[rows, :, 1] = (a0 - a1) * _INV_SQRT2


class CliffordLayer:
    """k descriptions on n qubits, compiled into one operation per round.

    Row r of a (k, 2^n) array moves by description r, or by its inverse when
    compiled with invert=True (rounds in written order, P digits negated mod
    4, each C round gathering through the opposite matrix).  H rounds are
    butterflies on the rows whose bit is set, P rounds multiply by a per-row
    table of S-power digits (int8), and C rounds gather every row through
    `f2linalg.apply_to_all` of its matrix at once: out[Mx] = amps[x] is
    out[y] = amps[M^-1 y].  Every factor is an exact unit and every gather a
    permutation, so a row's values do not depend on the batch it is in.
    """

    def __init__(self, descs: Sequence[CliffordDesc], invert: bool = False) -> None:
        n = descs[0].n if descs else 0
        if not descs or {d.n for d in descs} != {n}:
            raise ValueError("a layer needs one or more descriptions on the same n")
        k = len(descs)
        self.n = n
        self.k = k
        eye = tuple(1 << c for c in range(n))
        no_phase = (0,) * n
        # Index maps by matrix rows, so a repeated matrix is mapped once.
        images: dict[tuple[int, ...], np.ndarray] = {}
        last = len(ROUND_PATTERN) - 1
        ops: list[tuple[str, object]] = []
        for pos in range(last + 1) if invert else range(last, -1, -1):
            rounds = [d.rounds[pos] for d in descs]
            kind = ROUND_PATTERN[pos]
            # Rounds that leave every row as it is compile to nothing.
            if kind == "H":
                qubits = []
                for i, column in enumerate(zip(*[r.bits for r in rounds])):
                    hits = k - column.count(0)
                    if hits:
                        qubits.append((i, None if hits == k else np.flatnonzero(column)))
                if qubits:
                    ops.append(("H", qubits))
            elif kind == "P":
                digits = [r.digits for r in rounds]
                if digits.count(no_phase) < k:
                    table = np.array(digits, dtype=np.int8) @ _qubit_bits(n, invert)
                    ops.append(("P", table & 3))
            else:
                mats = [r.m if invert else r.m_inv for r in rounds]
                keys = [m.row_bits for m in mats]
                if keys.count(eye) < k:
                    for key, m in zip(keys, mats):
                        if key not in images:
                            images[key] = f2linalg.apply_to_all(m)
                    # Flat indices into the (k, 2^n) array: row r starts at r 2^n.
                    index = np.array([images[key] for key in keys])
                    if k > 1:
                        index += (np.arange(k) << n)[:, None]
                    ops.append(("C", index.reshape(-1)))
        self._ops = ops

    def __call__(self, amps: np.ndarray) -> np.ndarray:
        """The layer on a (k, 2^n) array; returns a new array."""
        work = np.array(amps, dtype=np.complex128)
        if work.shape != (self.k, 1 << self.n):
            raise ValueError(f"expected shape {(self.k, 1 << self.n)}, got {work.shape}")
        for kind, data in self._ops:
            if kind == "H":
                for i, rows in data:
                    _butterfly(work, self.n, i, rows)
            elif kind == "P":
                work *= _PHASES[data]
            else:
                work = work.reshape(-1)[data].reshape(work.shape)
        return work


def _apply_amps(d: CliffordDesc, amps: np.ndarray, invert: bool) -> np.ndarray:
    """The described unitary (or its inverse) acting on a dense vector."""
    return CliffordLayer([d], invert)(np.reshape(amps, (1, -1)))[0]


def apply(d: CliffordDesc, v: PureState) -> PureState:
    """Apply the described Clifford: rounds compose right-to-left as written."""
    if d.n != v.n:
        raise ValueError(f"dimension mismatch: description n={d.n}, state n={v.n}")
    return PureState(d.n, _apply_amps(d, v.amps, invert=False))


def apply_inverse(d: CliffordDesc, v: PureState) -> PureState:
    """Apply the inverse Clifford (P digits negated mod 4, (M, M^-1) swapped)."""
    if d.n != v.n:
        raise ValueError(f"dimension mismatch: description n={d.n}, state n={v.n}")
    return PureState(d.n, _apply_amps(d, v.amps, invert=True))


def to_matrix(d: CliffordDesc) -> np.ndarray:
    """Dense unitary of a small description (test oracle; n <= 3)."""
    if d.n > 3:
        raise ValueError(f"to_matrix is limited to n <= 3, got n={d.n}")
    dim = 1 << d.n
    # Row x of the layer's output is the image of basis vector x.
    return CliffordLayer([d] * dim)(np.eye(dim)).T.copy()


def random_clifford_from(rng: np.random.Generator, n: int) -> CliffordDesc:
    """One description with every round sampled uniformly from the given stream."""
    rounds: list[Round] = []
    for kind in ROUND_PATTERN:
        if kind == "H":
            rounds.append(HRound(tuple(int(b) for b in rng.integers(0, 2, size=n))))
        elif kind == "P":
            rounds.append(PRound(tuple(int(p) for p in rng.integers(0, 4, size=n))))
        else:
            m = f2linalg.random_invertible_from(rng, n)
            rounds.append(CRound(m, f2linalg.inverse(m)))
    return CliffordDesc(n, tuple(rounds))


def random_clifford(n: int, seed: int) -> CliffordDesc:
    """Per-round-uniform random description, deterministic per seed.

    This sampler is NOT exactly uniform over the Clifford group (round
    parameters are drawn independently).  Nothing downstream relies on the
    distribution: every use certifies the found description by the overlap
    it achieves, never by distributional assumptions.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return random_clifford_from(substream(seed, f"clifford-{n}"), n)


def sign_pattern_state(eta: PureState, d: CliffordDesc) -> tuple[PureState, SignPattern]:
    """The state C . 2^{-n/2} sum_x sr(<eta|C|x>) |x> and its sign table.

    <eta|C|x> is the conjugate of (C^dagger eta)[x], so the table comes from
    one inverse application; signs follow sr with the Re = 0 tie going to +1.
    """
    if eta.n != d.n:
        raise ValueError(f"dimension mismatch: eta n={eta.n}, description n={d.n}")
    w = _apply_amps(d, eta.amps, invert=True)
    pattern = SignPattern(d.n, (w.real < 0.0).astype(np.uint8))
    base = pattern.signs().astype(np.complex128) / np.sqrt(1 << d.n)
    return PureState(d.n, _apply_amps(d, base, invert=False)), pattern


def overlap_with_sign_state(eta_hat: PureState, d: CliffordDesc) -> float:
    """Re(<eta_hat | p_{eta,C}>) = 2^{-n/2} ||Re(C^dagger eta_hat)||_1."""
    w = _apply_amps(d, eta_hat.amps, invert=True)
    return float(np.sum(np.abs(w.real)) / np.sqrt(1 << d.n))


def find_overlap_clifford(
    eta: PureState, alpha: float, max_trials: int = 1000, seed: int = 0
) -> tuple[CliffordDesc, float]:
    """Search for a Clifford whose sign-pattern state overlaps eta by >= alpha.

    Trial 0 is the identity description (so targets with nonnegative real
    amplitudes resolve deterministically); subsequent trials are random.
    Returns the first qualifying description with its achieved overlap.
    """
    nrm = float(np.linalg.norm(eta.amps))
    if nrm == 0.0:
        raise ValueError("zero residual has no overlap certificate")
    eta_hat = PureState(eta.n, eta.amps / nrm)
    rng = substream(seed, f"clifford-search-{eta.n}")
    for trial in range(max_trials):
        desc = identity_desc(eta.n) if trial == 0 else random_clifford_from(rng, eta.n)
        achieved = overlap_with_sign_state(eta_hat, desc)
        if achieved >= alpha:
            return desc, achieved
    raise SearchExhaustedError(
        f"no Clifford reached overlap {alpha} within {max_trials} trials"
    )


def desc_to_bytes(d: CliffordDesc) -> bytes:
    """Serialize: rounds in order; H-round n bits LSB-first, P-round n 2-bit
    digits LSB-first, C-round M then M^-1 in the matrix format."""
    out = bytearray()
    for rnd in d.rounds:
        if isinstance(rnd, HRound):
            acc = sum(bit << i for i, bit in enumerate(rnd.bits))
            out += acc.to_bytes((d.n + 7) // 8, "little")
        elif isinstance(rnd, PRound):
            acc = sum((digit & 3) << (2 * i) for i, digit in enumerate(rnd.digits))
            out += acc.to_bytes((2 * d.n + 7) // 8, "little")
        else:
            out += rnd.m.to_bytes()
            out += rnd.m_inv.to_bytes()
    return bytes(out)


def desc_from_bytes(data: bytes, offset: int, n: int) -> tuple[CliffordDesc, int]:
    """Parse one description at `offset`; returns (description, offset past it)."""
    rounds: list[Round] = []
    for kind in ROUND_PATTERN:
        if kind == "H":
            nbytes = (n + 7) // 8
            acc = int.from_bytes(data[offset : offset + nbytes], "little")
            offset += nbytes
            rounds.append(HRound(tuple((acc >> i) & 1 for i in range(n))))
        elif kind == "P":
            nbytes = (2 * n + 7) // 8
            acc = int.from_bytes(data[offset : offset + nbytes], "little")
            offset += nbytes
            rounds.append(PRound(tuple((acc >> (2 * i)) & 3 for i in range(n))))
        else:
            m, offset = F2Matrix.from_bytes(data, offset)
            m_inv, offset = F2Matrix.from_bytes(data, offset)
            rounds.append(CRound(m, m_inv))
    return CliffordDesc(n, tuple(rounds)), offset
