"""Bit-packed linear algebra over GF(2).

Matrices are stored one integer per row, bit c of row r holding entry
(r, c).  Everything here is exact; the only contractual bit layout is the
serialization format used inside oracle files (dimensions as 16-bit
little-endian integers, then row-major entries packed 8 per byte,
least-significant bit first).

Index/vector convention (shared package-wide): the bit vector of a basis
index x on w wires has coordinate i equal to bit (w-1-i) of x, i.e. wire 0
is the most significant bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .rng import substream


def index_to_vector(x: int, width: int) -> tuple[int, ...]:
    """Coordinates of basis index x: coordinate i is bit (width-1-i) of x."""
    if not 0 <= x < (1 << width):
        raise ValueError(f"index {x} out of range for width {width}")
    return tuple((x >> (width - 1 - i)) & 1 for i in range(width))


def vector_to_index(coords: tuple[int, ...]) -> int:
    """Inverse of index_to_vector."""
    x = 0
    for bit in coords:
        x = (x << 1) | (bit & 1)
    return x


@dataclass(frozen=True)
class F2Matrix:
    """A rows x cols matrix over GF(2); row r packed as an int (bit c = entry r,c)."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError(f"negative dimensions: {self.rows}x{self.cols}")
        if len(self.row_bits) != self.rows:
            raise ValueError(f"expected {self.rows} packed rows, got {len(self.row_bits)}")
        mask = (1 << self.cols) - 1
        for r, bits in enumerate(self.row_bits):
            if bits & ~mask:
                raise ValueError(f"row {r} has bits beyond column {self.cols - 1}")

    @staticmethod
    def from_entries(entries: list[list[int]]) -> F2Matrix:
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        packed = []
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged entry lists")
            packed.append(sum((bit & 1) << c for c, bit in enumerate(row)))
        return F2Matrix(rows, cols, tuple(packed))

    @staticmethod
    def identity(n: int) -> F2Matrix:
        return F2Matrix(n, n, tuple(1 << c for c in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> F2Matrix:
        return F2Matrix(rows, cols, (0,) * rows)

    def entry(self, r: int, c: int) -> int:
        return (self.row_bits[r] >> c) & 1

    def to_entries(self) -> list[list[int]]:
        return [[self.entry(r, c) for c in range(self.cols)] for r in range(self.rows)]

    def to_bytes(self) -> bytes:
        """Serialize: rows, cols as u16 LE, then row-major bits LSB-first."""
        acc = sum(bits << (r * self.cols) for r, bits in enumerate(self.row_bits))
        nbytes = (self.rows * self.cols + 7) // 8
        return (
            self.rows.to_bytes(2, "little")
            + self.cols.to_bytes(2, "little")
            + acc.to_bytes(nbytes, "little")
        )

    @staticmethod
    def from_bytes(data: bytes, offset: int = 0) -> tuple["F2Matrix", int]:
        """Parse a matrix at `offset`; returns (matrix, offset past it)."""
        rows = int.from_bytes(data[offset : offset + 2], "little")
        cols = int.from_bytes(data[offset + 2 : offset + 4], "little")
        offset += 4
        nbytes = (rows * cols + 7) // 8
        acc = int.from_bytes(data[offset : offset + nbytes], "little")
        mask = (1 << cols) - 1
        packed = tuple((acc >> (r * cols)) & mask for r in range(rows))
        return F2Matrix(rows, cols, packed), offset + nbytes


def mul_rows(a_rows: tuple[int, ...], b_rows: tuple[int, ...]) -> tuple[int, ...]:
    """Packed rows of the GF(2) product of two matrices given by packed rows.

    Row r of the product XORs the rows of b picked by the set bits of a's
    row r; shapes are not checked (see `mul`).
    """
    out = []
    for bits in a_rows:
        acc = 0
        k = 0
        while bits:
            if bits & 1:
                acc ^= b_rows[k]
            bits >>= 1
            k += 1
        out.append(acc)
    return tuple(out)


def mul(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    """Matrix product over GF(2)."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    return F2Matrix(a.rows, b.cols, mul_rows(a.row_bits, b.row_bits))


def rank(m: F2Matrix) -> int:
    """GF(2) rank by elimination on packed rows.

    Each row is reduced by the basis rows in the order they joined:
    min(row, row ^ b) clears b's highest bit from row when it is set and
    leaves row as it is otherwise.  A basis row's highest bit is clear in
    every row that joined after it, so a reduced row has none of them set,
    and one left nonzero joins the basis.
    """
    return _rank_rows(m.row_bits)


def _rank_rows(rows: tuple[int, ...]) -> int:
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


def _inverse_rows(rows: tuple[int, ...]) -> tuple[int, ...] | None:
    """Packed rows of the inverse of the square matrix with these rows, by
    Gauss-Jordan elimination; None when it is singular."""
    n = len(rows)
    left = list(rows)
    right = [1 << c for c in range(n)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if (left[i] >> c) & 1), None)
        if pivot is None:
            return None
        left[c], left[pivot] = left[pivot], left[c]
        right[c], right[pivot] = right[pivot], right[c]
        for i in range(n):
            if i != c and (left[i] >> c) & 1:
                left[i] ^= left[c]
                right[i] ^= right[c]
    return tuple(right)


def inverse(m: F2Matrix) -> F2Matrix:
    """Inverse of a square full-rank matrix over GF(2)."""
    if m.rows != m.cols:
        raise ValueError(f"not square: {m.rows}x{m.cols}")
    inv = _inverse_rows(m.row_bits)
    if inv is None:
        raise ValueError("singular matrix has no inverse")
    return F2Matrix(m.rows, m.cols, inv)


def random_rows_from(rng: np.random.Generator, rows: int, cols: int) -> tuple[int, ...]:
    """Packed rows of a uniform rows x cols bit block drawn from the stream.

    One `rng.integers(0, 2, size=(rows, cols))` call: it gives the same bits,
    and leaves the stream in the same state, as `rows` draws of
    `size=cols` one row at a time.  Entry (r, c) is bit c of row r.
    """
    bits = rng.integers(0, 2, size=(rows, cols))
    return tuple((bits @ (1 << np.arange(cols, dtype=np.int64))).tolist())


def _invertible_pair(rows: tuple[int, ...]) -> tuple[F2Matrix, F2Matrix] | None:
    # The packed-row elimination tests a candidate in about a third of the
    # time Gauss-Jordan takes, so only the accepted one is inverted.
    n = len(rows)
    if _rank_rows(rows) < n:
        return None
    return F2Matrix(n, n, rows), F2Matrix(n, n, _inverse_rows(rows))


#: Up to n = 3 the memo holds every candidate, 2 + 16 + 512, and samplers
#: draw most of them again and again; from n = 4 on (2^16 candidates and
#: more) it would fill with candidates seldom seen twice, so those skip it.
_PAIR_MEMO_MAX_N = 3
_memo_pair = functools.lru_cache(maxsize=2 + 16 + 512)(_invertible_pair)


def invertible_pair(rows: tuple[int, ...]) -> tuple[F2Matrix, F2Matrix] | None:
    """(M, M^-1) for the n x n candidate with these n packed rows, None if singular.

    The acceptance test of every GL_n(F2) rejection sampler.  Memoized up to
    n = 3 and filled lazily; the matrices are immutable, so callers can share
    them.
    """
    return (_memo_pair if len(rows) <= _PAIR_MEMO_MAX_N else _invertible_pair)(rows)


def random_invertible_from(rng: np.random.Generator, n: int) -> F2Matrix:
    """Uniform element of GL_n(F2) by rejection sampling from the given stream."""
    while (pair := invertible_pair(random_rows_from(rng, n, n))) is None:
        pass
    return pair[0]


def random_invertible(n: int, seed: int) -> F2Matrix:
    """Uniform element of GL_n(F2) by rejection sampling; deterministic per seed."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return random_invertible_from(substream(seed, f"gl2-random-{n}"), n)


def apply_to_index(m: F2Matrix, x: int) -> int:
    """Image of basis index x under the linear map: index of m . (bits of x)."""
    if not 0 <= x < (1 << m.cols):
        raise ValueError(f"index {x} out of range for {m.cols} columns")
    xvec = index_to_vector(x, m.cols)
    xmask = sum(bit << c for c, bit in enumerate(xvec))
    ycoords = tuple(bin(m.row_bits[r] & xmask).count("1") & 1 for r in range(m.rows))
    return vector_to_index(ycoords)


def apply_to_all(m: F2Matrix) -> np.ndarray:
    """Images of every basis index 0..2^cols-1 at once, as an int64 array.

    The map is linear, so the image of x is the XOR of the column images of
    its set bits.  Input bit b (coordinate cols-1-b) has the column image
    with output bit (rows-1-r) set for each row r holding entry (r, cols-1-b).
    Taking the input bits from the lowest up, the images of 0..2^b-1 are
    doubled into those of 0..2^(b+1)-1 by XORing in column b's image, one
    array operation per column, so the whole table costs 2^cols integer
    XORs.  Works for any rows x cols shape; with no rows every image is 0.
    """
    images = np.zeros(1 << m.cols, dtype=np.int64)
    size = 1
    for c in range(m.cols - 1, -1, -1):
        img = 0
        for bits in m.row_bits:
            img = (img << 1) | ((bits >> c) & 1)
        np.bitwise_xor(images[:size], img, out=images[size : 2 * size])
        size *= 2
    return images
