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
with the normalized residual reaches a threshold.  Each trial applies C^dagger
once, to the residual as given, and the search hands back the winning
w = C^dagger eta with the description: the sign table is read off w
(<eta|C|x> is conj(w[x])), so a planner never applies C^dagger again.

Most searches stop at trial 0, the identity, so that trial costs next to
nothing: `identity_desc(n)` is one shared immutable object per n, its
compiled (empty) layer and its serialized bytes are cached per n, and the
search builds its random substream only when it reaches trial 1.  A random
trial costs about what its draws cost: `random_clifford_from` draws a block
of digits for every round with one candidate per C round, and draws again
only when rejected GL_n(F2) candidates leave the parse short, then just the
digits the rounds left still need, so the values and the stream state are
those of a sampler drawing round by round and equal seeds give equal
descriptions; `f2linalg.invertible_pair` accepts or rejects each candidate,
from a memo up to n = 3.  A layer whose rows all hold one description (so
every one-description layer) compiles that one row, whose ops broadcast
over the others, and each round takes a short branch: the set H bits, one
P row, one CNOT index map.  Up to n = 3 a P row's S-power table and a CNOT
index map come from memos of read-only arrays.
"""

from __future__ import annotations

import functools
import math
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
    """Raised when a randomized search uses up its trial budget.

    It carries what reproduces the search: the `trials` used and the search
    `seed`, and for overlap searches the floor `alpha` and the `best`
    overlap seen.  A planner re-raises it through `at_step`, which adds the
    plan `step` index and the `residual_norm` the search started from.
    """

    def __init__(
        self,
        message: str,
        *,
        trials: int | None = None,
        seed: int | None = None,
        alpha: float | None = None,
        best: float | None = None,
        step: int | None = None,
        residual_norm: float | None = None,
    ) -> None:
        super().__init__(message)
        self.trials = trials
        self.seed = seed
        self.alpha = alpha
        self.best = best
        self.step = step
        self.residual_norm = residual_norm

    def at_step(self, step: int, residual_norm: float) -> SearchExhaustedError:
        """The same error with the plan step and its residual norm added."""
        return SearchExhaustedError(
            f"step {step} (residual norm {residual_norm:.6g}): {self}",
            trials=self.trials,
            seed=self.seed,
            alpha=self.alpha,
            best=self.best,
            step=step,
            residual_norm=residual_norm,
        )


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
        eye = tuple(1 << c for c in range(self.n))
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
                for m in (rnd.m, rnd.m_inv):
                    if m.rows != self.n or m.cols != self.n:
                        raise ValueError(f"round {pos} matrix is not {self.n}x{self.n}")
                if f2linalg.mul_rows(rnd.m.row_bits, rnd.m_inv.row_bits) != eye:
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
        return signs_from_bits(self.bits)


def signs_from_bits(bits: np.ndarray) -> np.ndarray:
    """The float64 signs 1 - 2 bit (+1.0 / -1.0) of an array of sign bits.

    Computed in place on one float64 copy, as (bit * -2.0) + 1.0: the same
    +-1.0 values as 1.0 - 2.0 * bit, without the two extra temporaries.
    """
    signs = bits.astype(np.float64)
    signs *= -2.0
    signs += 1.0
    return signs


@functools.lru_cache(maxsize=None)
def identity_desc(n: int) -> CliffordDesc:
    """The canonical description of the identity (all rounds trivial).

    One shared object per n: descriptions are immutable, and `_apply_amps`
    recognizes this object to reuse its compiled (empty) layer.
    """
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


def _phase_row(digits: tuple[int, ...], negate: bool) -> np.ndarray:
    """(2^n,) int8 S-power table of one row of a P round: entry x is the digit
    sum over the set qubits of x, negated when asked, mod 4 (read-only)."""
    row = np.array(digits, dtype=np.int8) @ _qubit_bits(len(digits), negate) & 3
    row.flags.writeable = False
    return row


def _index_map(m: F2Matrix) -> np.ndarray:
    """`f2linalg.apply_to_all` of a CNOT matrix, read-only."""
    index = f2linalg.apply_to_all(m)
    index.flags.writeable = False
    return index


#: Up to n = 3 the memos hold every P row, 2 (4 + 16 + 64), and every CNOT
#: index map, one per element of GL_1, GL_2 and GL_3 over F2 (1 + 6 + 168),
#: and the searches' one-description layers compile the same rows again and
#: again; from n = 4 on the rows seldom recur, so larger n skips them.  The
#: arrays are shared by every layer that compiles them, hence read-only.
_MEMO_MAX_N = 3
_memo_phase_row = functools.lru_cache(maxsize=2 * (4 + 16 + 64))(_phase_row)
_memo_index_map = functools.lru_cache(maxsize=1 + 6 + 168)(_index_map)


#: From this many amplitudes on, an all-rows butterfly runs in place through a
#: scratch buffer.  Below it the out-of-place form is faster: numpy's
#: contiguous loops on fresh temporaries beat strided in-place writes, by
#: 4-24 % per H layer from 2^12 to 2^17 amplitudes, while from 2^18 on the
#: in-place form saves 5-8 % (2-core x86-64, numpy 2.4.6).
_IN_PLACE_MIN_AMPS = 1 << 18


def _butterfly_scratch(amps: np.ndarray) -> np.ndarray | None:
    """The scratch buffer for all-rows butterflies on amps, or None where the
    out-of-place form is the faster one."""
    if amps.size < _IN_PLACE_MIN_AMPS:
        return None
    return np.empty(amps.size // 2, dtype=np.complex128)


def _butterfly(
    amps: np.ndarray, n: int, i: int, rows: np.ndarray | None, scratch: np.ndarray | None
) -> None:
    """H on qubit i of the given rows (all rows when None) of a (k, 2^n) array.

    Given a scratch buffer of k 2^(n-1) complex values, the all-rows form
    works in place: a0 + a1 goes to scratch, a1 becomes a0 - a1, and each is
    scaled by 1/sqrt(2) into place.  Those are the operations, operands and
    order of (a0 + a1) * 1/sqrt(2) and (a0 - a1) * 1/sqrt(2), so the bits are
    the same either way.
    """
    view = amps.reshape(amps.shape[0], 1 << i, 2, 1 << (n - 1 - i))
    if rows is None and scratch is not None:
        a0 = view[:, :, 0]
        a1 = view[:, :, 1]
        total = scratch.reshape(a0.shape)
        np.add(a0, a1, total)
        np.subtract(a0, a1, a1)
        np.multiply(a1, _INV_SQRT2, a1)
        np.multiply(total, _INV_SQRT2, a0)
    elif rows is None:
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
        phase_row = _memo_phase_row if n <= _MEMO_MAX_N else _phase_row
        index_map = _memo_index_map if n <= _MEMO_MAX_N else _index_map
        # Index maps by matrix rows, so a repeated matrix is mapped once.
        images: dict[tuple[int, ...], np.ndarray] = {}
        last = len(ROUND_PATTERN) - 1
        ops: list[tuple[str, object]] = []
        # A layer whose rows all hold one description (always when k = 1)
        # compiles that one row, whose ops broadcast over the others, and
        # each of its rounds takes the short branch.
        one_row = all(d is descs[0] for d in descs)
        for pos in range(last + 1) if invert else range(last, -1, -1):
            kind = ROUND_PATTERN[pos]
            if one_row:
                rnd = descs[0].rounds[pos]
            else:
                rounds = [d.rounds[pos] for d in descs]
            # Rounds that leave every row as it is compile to nothing.
            if kind == "H":
                if one_row:
                    qubits = [(i, None) for i, b in enumerate(rnd.bits) if b]
                else:
                    qubits = []
                    for i, column in enumerate(zip(*[r.bits for r in rounds])):
                        hits = k - column.count(0)
                        if hits:
                            qubits.append((i, None if hits == k else np.flatnonzero(column)))
                if qubits:
                    ops.append(("H", qubits))
            elif kind == "P":
                if one_row:
                    if rnd.digits != no_phase:
                        ops.append(("P", phase_row(rnd.digits, invert)[None, :]))
                else:
                    digits = [r.digits for r in rounds]
                    if digits.count(no_phase) < k:
                        ops.append(("P", np.array([phase_row(d, invert) for d in digits])))
            else:
                if one_row:
                    m = rnd.m if invert else rnd.m_inv
                    if m.row_bits == eye:
                        continue
                    index = index_map(m)
                else:
                    mats = [r.m if invert else r.m_inv for r in rounds]
                    keys = [m.row_bits for m in mats]
                    if keys.count(eye) == k:
                        continue
                    for key, m in zip(keys, mats):
                        if key not in images:
                            images[key] = index_map(m)
                    index = np.array([images[key] for key in keys])
                if k > 1:
                    # Flat indices into the (k, 2^n) array: row r starts at
                    # r 2^n (a one-row map broadcasts over the k rows).
                    index = index + (np.arange(k) << n)[:, None]
                ops.append(("C", index.reshape(-1)))
        self._ops = ops

    def __call__(self, amps: np.ndarray) -> np.ndarray:
        """The layer on a (k, 2^n) array; returns a new array."""
        work = np.array(amps, dtype=np.complex128)
        if work.shape != (self.k, 1 << self.n):
            raise ValueError(f"expected shape {(self.k, 1 << self.n)}, got {work.shape}")
        for kind, data in self._ops:
            if kind == "H":
                scratch = _butterfly_scratch(work)
                for i, rows in data:
                    _butterfly(work, self.n, i, rows, scratch)
            elif kind == "P":
                work *= _PHASES[data]
            else:
                work = work.reshape(-1)[data].reshape(work.shape)
        return work


@functools.lru_cache(maxsize=None)
def _identity_layer(n: int, invert: bool) -> CliffordLayer:
    """The compiled layer of `identity_desc(n)`: no ops, it only copies."""
    return CliffordLayer([identity_desc(n)], invert)


def _apply_amps(d: CliffordDesc, amps: np.ndarray, invert: bool) -> np.ndarray:
    """The described unitary (or its inverse) acting on a dense vector."""
    layer = (
        _identity_layer(d.n, invert) if d is identity_desc(d.n) else CliffordLayer([d], invert)
    )
    return layer(np.reshape(amps, (1, -1)))[0]


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
    """One description with every round sampled uniformly from the given stream.

    Rounds are sampled in written order: n H bits, n S-power digits, or for
    a C round n x n candidate entries until one is invertible (rejection
    sampling, so M is uniform over GL_n(F2)).  Every value is one
    `rng.integers(0, 4)` digit and an H bit or matrix entry is `digit >> 1`:
    at a power-of-two range each value takes one 32-bit draw and the bit is
    that draw's top bit, as `rng.integers(0, 2)` would give.  So a block of
    digits is the same digits drawn one by one, and the sampler draws them in
    as few blocks as it can without drawing past the description: first
    6n + 5n^2 digits (every round, one candidate each), and when a rejected
    candidate leaves the parse short of digits, the fewest that the rounds
    left still need, counting the candidate at hand.  The values and the
    stream state are those of a sampler drawing each round (and each
    candidate) on its own.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    # Every round is a whole number of n-digit chunks, so a round starts at
    # a chunk; each chunk is read as digits, bits or a packed matrix row.
    # A 0/1 row times the weights 2^c is its packed int.
    weights = 1 << np.arange(n, dtype=np.int64)
    digit_rows: list[list[int]] = []
    bit_rows: list[list[int]] = []
    packed: list[int] = []

    def refill(pos: int, i: int) -> None:
        # From chunk i on, rounds pos..10 take one chunk per H or P round and
        # n per C round (one candidate each); draw those not drawn yet.
        left = ROUND_PATTERN[pos:]
        need = i + len(left) + (n - 1) * left.count("C") - len(packed)
        chunks = rng.integers(0, 4, size=need * n).reshape(-1, n)
        bits = chunks >> 1
        digit_rows.extend(chunks.tolist())
        bit_rows.extend(bits.tolist())
        packed.extend((bits @ weights).tolist())

    # The first refill, at round 0, draws every round's digits; rejected
    # candidates use up digits of later rounds, so any round may find the
    # parse short.
    rounds: list[Round] = []
    i = 0
    for pos, kind in enumerate(ROUND_PATTERN):
        if kind == "C":
            while True:
                if i + n > len(packed):
                    refill(pos, i)
                if (pair := f2linalg.invertible_pair(tuple(packed[i : i + n]))) is not None:
                    break
                i += n
            rounds.append(CRound(*pair))
            i += n
            continue
        if i == len(packed):
            refill(pos, i)
        if kind == "H":
            rounds.append(HRound(tuple(bit_rows[i])))
        else:
            rounds.append(PRound(tuple(digit_rows[i])))
        i += 1
    return CliffordDesc(n, tuple(rounds))


def random_clifford(n: int, seed: int) -> CliffordDesc:
    """Per-round-uniform random description, deterministic per seed.

    This sampler is NOT exactly uniform over the Clifford group (round
    parameters are drawn independently).  Nothing downstream relies on the
    distribution: every use certifies the found description by the overlap
    it achieves, never by distributional assumptions.
    """
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
) -> tuple[CliffordDesc, float, np.ndarray]:
    """Search for a Clifford whose sign-pattern state overlaps eta by >= alpha.

    Trial 0 is the shared identity description (so targets with nonnegative
    real amplitudes resolve deterministically); subsequent trials are random
    draws from the search's substream, which is only built when trial 1 is
    reached.  Each trial computes w = C^dagger eta on the residual as given
    (through `apply_inverse`) and scores the real overlap with the normalized
    residual, sum |Re w| / (2^{n/2} ||eta||).  Returns the first qualifying
    description, its achieved overlap and its w; an exhausted budget raises
    SearchExhaustedError with the best overlap seen.  A negative budget or a
    non-finite alpha is refused with ValueError before any trial.
    """
    if max_trials < 0:
        raise ValueError(f"max_trials must be >= 0, got {max_trials}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    nrm = float(np.linalg.norm(eta.amps))
    if nrm == 0.0:
        raise ValueError("zero residual has no overlap certificate")
    scale = np.sqrt(1 << eta.n) * nrm
    rng = None
    best = -np.inf
    for trial in range(max_trials):
        if trial == 0:
            desc = identity_desc(eta.n)
        else:
            if rng is None:
                rng = substream(seed, f"clifford-search-{eta.n}")
            desc = random_clifford_from(rng, eta.n)
        w = apply_inverse(desc, eta).amps
        achieved = float(np.sum(np.abs(w.real)) / scale)
        if achieved >= alpha:
            return desc, achieved, w
        best = max(best, achieved)
    raise SearchExhaustedError(
        f"no Clifford reached overlap {alpha} within {max_trials} trials "
        f"(best {best:.6g}, seed {seed})",
        trials=max_trials,
        seed=seed,
        alpha=alpha,
        best=best,
    )


def desc_to_bytes(d: CliffordDesc) -> bytes:
    """Serialize: rounds in order; H-round n bits LSB-first, P-round n 2-bit
    digits LSB-first, C-round M then M^-1 in the matrix format."""
    if d is identity_desc(d.n):
        return _identity_bytes(d.n)
    return _rounds_to_bytes(d)


@functools.lru_cache(maxsize=None)
def _identity_bytes(n: int) -> bytes:
    return _rounds_to_bytes(identity_desc(n))


def _rounds_to_bytes(d: CliffordDesc) -> bytes:
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
    """Parse one description at `offset`; returns (description, offset past it).

    Each CNOT matrix header must read n x n, so that no header can size an
    allocation.
    """
    square = n.to_bytes(2, "little") * 2
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
            pair = []
            for _ in range(2):
                if data[offset : offset + 4] != square:
                    raise ValueError(f"CNOT matrix at offset {offset} is not {n}x{n}")
                m, offset = F2Matrix.from_bytes(data, offset)
                pair.append(m)
            rounds.append(CRound(*pair))
    return CliffordDesc(n, tuple(rounds)), offset
