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
nothing: `identity_desc(n)` is one shared immutable object per n, applying
it in either direction is a copy, its serialized bytes are cached per n, and
the search builds its random substream only when it reaches trial 1.  A random
trial costs little more than reading its stream: one parser (`_Chunks`)
turns blocks of phase digits into rounds, with the digits of each n-digit
chunk and its packed bits keyed as arrays per block, and the H, P and C
rounds interned by key up to n = 3.  A search feeds it its substream's raw
32-bit halves (`rng.RawHalves`, a digit being a half's top two bits), block
after block; `random_clifford_from` on a Generator saves the stream state,
draws one block sized for twice the expected GL_n(F2) candidates of every C
round, parses it, then restores the state and draws again just the digits
it used.  Either way the values, and on a Generator the stream state, are
those of a sampler drawing round by round, and equal seeds give equal
descriptions.  `f2linalg.invertible_pair` accepts or rejects each candidate,
so a sampled description skips the constructor's check.  Each interned round
is compiled and serialized once: a memo that the round carries holds its op
in each direction (its set H qubits, its read-only P phase factors, or its
CNOT index map from the matrix-keyed memo of read-only maps) and its bytes,
each made on first use.  So a one-description layer over interned rounds is
a list of memoized ops, and its serialized form a join of memoized bytes.
Every other round (from n = 4 on, or built by `desc_from_bytes` or a
constructor) carries no memo and goes through the same per-round functions
afresh.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from . import f2linalg
from .f2linalg import F2Matrix
from .numerics import PureState, _fields_equal, _norm, _unchecked
from .rng import RawHalves, substream

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


@dataclass(frozen=True, eq=False)
class SignPattern:
    """2^n sign bits, a read-only uint8 array; bit 1 means phase -1."""

    n: int
    bits: np.ndarray

    def __post_init__(self) -> None:
        # A read-only copy, so the caller's array keeps its own flags; bool
        # input is 0 and 1 by its type.
        bits = np.asarray(self.bits)
        boolean = bits.dtype == np.bool_
        bits = bits.astype(np.uint8)
        if bits.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} sign bits, got shape {bits.shape}")
        if not boolean and bits.max(initial=0) > 1:
            raise ValueError("sign bits must be 0 or 1")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    __eq__ = _fields_equal

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
    recognizes this object and copies its input, as its (empty) layer would.
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
#: and layers compile the same rows again and again; from n = 4 on the rows
#: seldom recur, so larger n skips them.  The arrays are shared by every
#: layer that compiles them, hence read-only.
_MEMO_MAX_N = 3
_memo_phase_row = functools.lru_cache(maxsize=2 * (4 + 16 + 64))(_phase_row)
_memo_index_map = functools.lru_cache(maxsize=1 + 6 + 168)(_index_map)

def _per_round(rounds: Iterable[Round], make, *args) -> list:
    """make(rnd, *args) of each round, kept under args in the memo of an
    interned round.

    `_Rounds` gives every round it interns (up to n = 3) an empty memo dict
    in the round's own __dict__, as `functools.cached_property` keeps its
    values, so a memo lives and dies with its round.  Its entries, made on
    first use, are the round's op in each direction, by (invert,), and its
    bytes, by ().  Rounds built anywhere else have no memo and are made
    afresh on every call.
    """
    out = []
    for rnd in rounds:
        memo = rnd.__dict__.get("_memo")
        if memo is None:
            out.append(make(rnd, *args))
        else:
            value = memo.get(args)
            if value is None:
                value = memo[args] = make(rnd, *args)
            out.append(value)
    return out


@functools.cache
def _eye_rows(n: int) -> tuple[int, ...]:
    return tuple(1 << c for c in range(n))


def _compile_round(rnd: Round, invert: bool) -> tuple:
    """The op of one round on one row, () for a round that moves no row:
    ("H", [(qubit, None), ...]) for the set H bits; for a P round up to
    n = 3 ("F", factors), the (1, 2^n) read-only phase factors of the row's
    S-power table, and from n = 4 on ("P", table), that int8 table itself;
    or ("C", index) with the index map of the matrix the row gathers
    through."""
    if isinstance(rnd, HRound):
        qubits = [(i, None) for i, b in enumerate(rnd.bits) if b]
        return ("H", qubits) if qubits else ()
    if isinstance(rnd, PRound):
        if not any(rnd.digits):
            return ()
        if len(rnd.digits) > _MEMO_MAX_N:
            return ("P", _phase_row(rnd.digits, invert)[None, :])
        factors = _PHASES[_memo_phase_row(rnd.digits, invert)[None, :]]
        factors.flags.writeable = False
        return ("F", factors)
    m = rnd.m if invert else rnd.m_inv
    if m.row_bits == _eye_rows(m.rows):
        return ()
    return ("C", (_memo_index_map if m.rows <= _MEMO_MAX_N else _index_map)(m))


def _butterfly(amps: np.ndarray, n: int, i: int, rows: np.ndarray | None) -> None:
    """H on qubit i of the given rows (all rows when None) of a (k, 2^n) array.

    Out of place: each pair (a0, a1) becomes (a0 + a1) * 1/sqrt(2) and
    (a0 - a1) * 1/sqrt(2), computed into fresh arrays and written back.  The
    query circuit hands it one block of rows at a time (about 2^14
    amplitudes, or one row where 2^n is larger), so those arrays stay small.
    """
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
    butterflies on the rows whose bit is set, P rounds multiply by per-row
    phase factors, read off a table of S-power digits, and C rounds gather
    every row through `f2linalg.apply_to_all` of its matrix at once:
    out[Mx] = amps[x] is out[y] = amps[M^-1 y].  Every factor is an exact
    unit and every gather a permutation, so a row's values do not depend on
    the batch it is in.  A layer whose rows all hold one description (always
    when k = 1) is that description's list of per-round ops, which broadcast
    over the rows: each is compiled by `_compile_round`, once per direction
    for an interned round, whose memo keeps it.  Other layers compile each
    round over all their rows.  A P op holds the int8 S-power table, one
    byte an entry in the layers a circuit keeps, whose factors are looked up
    per call; only a one-row P op up to n = 3 ("F") holds its 2^n factors
    themselves, which saves the lookup on the many small calls there.
    """

    def __init__(self, descs: Sequence[CliffordDesc], invert: bool = False) -> None:
        n = descs[0].n if descs else 0
        if not descs or {d.n for d in descs} != {n}:
            raise ValueError("a layer needs one or more descriptions on the same n")
        k = len(descs)
        self.n = n
        self.k = k
        if all(d is descs[0] for d in descs):
            rounds = descs[0].rounds if invert else reversed(descs[0].rounds)
            ops = [op for op in _per_round(rounds, _compile_round, invert) if op]
        else:
            eye = _eye_rows(n)
            no_phase = (0,) * n
            phase_row = _memo_phase_row if n <= _MEMO_MAX_N else _phase_row
            index_map = _memo_index_map if n <= _MEMO_MAX_N else _index_map
            # Index maps by matrix rows, so a repeated matrix is mapped once.
            images: dict[tuple[int, ...], np.ndarray] = {}
            ops = []
            columns = list(zip(ROUND_PATTERN, *[d.rounds for d in descs]))
            for kind, *rounds in columns if invert else reversed(columns):
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
                        ops.append(("P", np.array([phase_row(d, invert) for d in digits])))
                else:
                    mats = [r.m if invert else r.m_inv for r in rounds]
                    keys = [m.row_bits for m in mats]
                    if keys.count(eye) == k:
                        continue
                    for key, m in zip(keys, mats):
                        if key not in images:
                            images[key] = index_map(m)
                    ops.append(("C", np.array([images[key] for key in keys])))
        if k > 1:
            # Flat indices into the (k, 2^n) array: row r starts at r 2^n (a
            # one-row map broadcasts over the k rows).
            rows = (np.arange(k) << n)[:, None]
            ops = [(kind, (data + rows).reshape(-1) if kind == "C" else data) for kind, data in ops]
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
            elif kind == "F":
                work *= data
            else:
                work = work.reshape(-1)[data].reshape(work.shape)
        return work


def _apply_amps(d: CliffordDesc, amps: np.ndarray, invert: bool) -> np.ndarray:
    """The described unitary (or its inverse) acting on a dense vector; a new
    array, which for the shared identity description is a copy."""
    if d is identity_desc(d.n):
        return amps.astype(np.complex128)
    return CliffordLayer([d], invert)(np.reshape(amps, (1, -1)))[0]


def apply(d: CliffordDesc, v: PureState) -> PureState:
    """Apply the described Clifford: rounds compose right-to-left as written."""
    if d.n != v.n:
        raise ValueError(f"dimension mismatch: description n={d.n}, state n={v.n}")
    return _unchecked(PureState, n=d.n, amps=_apply_amps(d, v.amps, invert=False))


def apply_inverse(d: CliffordDesc, v: PureState) -> PureState:
    """Apply the inverse Clifford (P digits negated mod 4, (M, M^-1) swapped)."""
    if d.n != v.n:
        raise ValueError(f"dimension mismatch: description n={d.n}, state n={v.n}")
    return _unchecked(PureState, n=d.n, amps=_apply_amps(d, v.amps, invert=True))


def to_matrix(d: CliffordDesc) -> np.ndarray:
    """Dense unitary of a small description (test oracle; n <= 3)."""
    if d.n > 3:
        raise ValueError(f"to_matrix is limited to n <= 3, got n={d.n}")
    dim = 1 << d.n
    # Row x of the layer's output is the image of basis vector x.
    return CliffordLayer([d] * dim)(np.eye(dim)).T.copy()


class _Rounds(dict):
    """Rounds of one kind on n qubits by key, each built by `build` on first
    use and kept when asked (up to n = 3, where the keys recur); the round
    of a singular C candidate is None."""

    def __init__(self, build, keep: bool) -> None:
        self.build, self.keep = build, keep

    def __missing__(self, key: int | tuple[int, ...]) -> Round | None:
        rnd = self.build(key)
        if self.keep:
            self[key] = rnd
            if rnd is not None:
                rnd.__dict__["_memo"] = {}
        return rnd


@functools.cache
def _sampling(n: int) -> tuple:
    """What parsing n-qubit descriptions needs, made on first use: the block
    size in chunks, a chunk's digit and bit weights, and the H, P and C
    round tables.  A block has room for twice the expected GL_n(F2)
    candidates of every C round; a candidate is invertible with probability
    prod_i (1 - 2^-i)."""
    accepted = math.prod(1.0 - 0.5**i for i in range(1, n + 1))
    block = len(ROUND_PATTERN) + ROUND_PATTERN.count("C") * (n * math.ceil(2 / accepted) - 1)
    # uint32 weights keep a reader's uint32 digits uint32 while 4^n fits.
    bits = 1 << np.arange(n, dtype=np.uint32 if n <= 16 else np.int64)
    h_round = lambda key: HRound(tuple((key >> c) & 1 for c in range(n)))
    p_round = lambda key: PRound(tuple((key >> 2 * c) & 3 for c in range(n)))
    c_round = lambda key: (pair := f2linalg.invertible_pair(key)) and CRound(*pair)
    tables = (_Rounds(f, n <= _MEMO_MAX_N) for f in (h_round, p_round, c_round))
    return block, bits * bits, bits, *tables


class _Chunks:
    """A stream of phase digits read as n-digit chunks, keyed a block at a time.

    `draw(count)` returns the stream's next `count` digits.  Every round is a
    whole number of chunks.  Per chunk the block holds its digits in base 4,
    first digit lowest (the key of a P round there), and its bits
    digit >> 1 packed, first lowest (the key of an H round there, or one
    matrix row: the n rows from a chunk on are the key of the C candidate
    there, a tuple as `f2linalg.invertible_pair` takes it).  `at` is the
    first chunk not parsed yet and `start` the first of the last block.
    Built on a search's private `RawHalves`, it is the reader that
    `random_clifford_from` recognizes.
    """

    def __init__(self, n: int, draw) -> None:
        self.n, self.draw, self.sampling = n, draw, _sampling(n)
        self.at = self.start = 0
        self.digits: list[int] = []
        self.rows: list[int] = []

    def more(self) -> None:
        """Draw, key and append one more block."""
        block, digit_weights, bit_weights = self.sampling[:3]
        chunks = self.draw(block * self.n).reshape(-1, self.n)
        self.start = len(self.digits)
        self.digits += (chunks @ digit_weights).tolist()
        self.rows += ((chunks >> 1) @ bit_weights).tolist()

    def parse(self) -> CliffordDesc:
        """The next description: rounds in written order, each C round the
        first invertible candidate from where it starts."""
        n = self.n
        h_rounds, p_rounds, c_rounds = self.sampling[3:]
        digits, rows = self.digits, self.rows
        i = self.at
        rounds: list[Round] = []
        for kind in ROUND_PATTERN:
            if kind == "C":
                while True:
                    if i + n > len(rows):
                        self.more()
                    rnd = c_rounds[tuple(rows[i : i + n])]
                    i += n
                    if rnd is not None:
                        break
            else:
                if i >= len(rows):
                    self.more()
                rnd = h_rounds[rows[i]] if kind == "H" else p_rounds[digits[i]]
                i += 1
            rounds.append(rnd)
        self.at = i
        # Every round fits ROUND_PATTERN on n qubits and every C round comes
        # from invertible_pair, so the constructor's check could not fail.
        return _unchecked(CliffordDesc, n=n, rounds=tuple(rounds))


def random_clifford_from(rng: np.random.Generator, n: int) -> CliffordDesc:
    """One description with every round sampled uniformly from the given stream.

    Rounds are sampled in written order: n H bits, n S-power digits, or for
    a C round n x n candidate entries until one is invertible (rejection
    sampling, so M is uniform over GL_n(F2)).  Every value is one
    `rng.integers(0, 4)` digit and an H bit or matrix entry is `digit >> 1`:
    at a power-of-two range each value takes one 32-bit draw and the bit is
    that draw's top bit, as `rng.integers(0, 2)` would give.  So a block of
    digits is the same digits drawn one by one, and one parser (`_Chunks`)
    reads the rounds off per-chunk keys: the H, P and C rounds are interned
    by key up to n = 3, and `f2linalg.invertible_pair` accepts or rejects
    each candidate.  From a Generator the sampler saves the stream state,
    draws one block with room for twice the expected GL_n(F2) candidates of
    every C round, and parses it; in the rare case that rejected candidates
    use it up, it saves the state again and draws another block.  Then it
    restores the state saved before the last block and draws again just the
    digits the parse used from it.  The values and the stream state are
    those of a sampler drawing each round (and each candidate) on its own.
    An overlap search hands over its private reader instead (a `_Chunks`,
    recognized by its type, so anything else is used as a Generator), which
    parses its substream's raw 32-bit halves as the same digits, block after
    block, with nothing to restore.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if isinstance(rng, _Chunks):
        return rng.parse()
    gen = rng.bit_generator
    states = []

    def draw(count: int) -> np.ndarray:
        states.append(gen.state)
        return rng.integers(0, 4, size=count)

    chunks = _Chunks(n, draw)
    desc = chunks.parse()
    # Back to the state before the last block, and draw what was used of it.
    gen.state = states[-1]
    rng.integers(0, 4, size=(chunks.at - chunks.start) * n)
    return desc


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
    residual, sum |Re w| / (2^{n/2} ||eta||), with ||eta|| by np.linalg.norm's
    own formula, sqrt(re.re + im.im).  The random trials are the descriptions
    `random_clifford_from` would draw one by one from
    `substream(seed, f"clifford-search-{n}")`, parsed off that substream's
    raw outputs by the search's private reader.  Returns the first
    qualifying description, its achieved overlap and its w; an exhausted
    budget raises SearchExhaustedError with the best overlap seen.  A
    negative budget, a non-finite alpha, and a zero or non-finite (NaN or
    infinite) residual norm, which no trial could score, are refused with
    ValueError before any trial.
    """
    if max_trials < 0:
        raise ValueError(f"max_trials must be >= 0, got {max_trials}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    nrm = _norm(eta.amps)
    if nrm == 0.0:
        raise ValueError("zero residual has no overlap certificate")
    if not math.isfinite(nrm):
        raise ValueError(f"residual norm must be finite, got {nrm}")
    scale = math.sqrt(1 << eta.n) * nrm
    chunks = None
    best = -np.inf
    for trial in range(max_trials):
        if trial == 0:
            desc = identity_desc(eta.n)
        else:
            if chunks is None:
                reader = RawHalves(seed, f"clifford-search-{eta.n}")
                chunks = _Chunks(eta.n, lambda count: reader.read(count) >> 30)
            desc = random_clifford_from(chunks, eta.n)
        w = apply_inverse(desc, eta).amps
        achieved = float(np.abs(w.real).sum()) / scale
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
    digits LSB-first, C-round M then M^-1 in the matrix format.  Each round's
    bytes come from `_round_to_bytes`, once for an interned round."""
    if d is identity_desc(d.n):
        return _identity_bytes(d.n)
    return b"".join(_per_round(d.rounds, _round_to_bytes))


@functools.lru_cache(maxsize=None)
def _identity_bytes(n: int) -> bytes:
    return b"".join(map(_round_to_bytes, identity_desc(n).rounds))


def _round_to_bytes(rnd: Round) -> bytes:
    if isinstance(rnd, HRound):
        acc = sum(bit << i for i, bit in enumerate(rnd.bits))
        return acc.to_bytes((len(rnd.bits) + 7) // 8, "little")
    if isinstance(rnd, PRound):
        acc = sum((digit & 3) << (2 * i) for i, digit in enumerate(rnd.digits))
        return acc.to_bytes((2 * len(rnd.digits) + 7) // 8, "little")
    return rnd.m.to_bytes() + rnd.m_inv.to_bytes()


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
