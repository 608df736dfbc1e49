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
        out = bytearray()
        out += self.rows.to_bytes(2, "little")
        out += self.cols.to_bytes(2, "little")
        acc = 0
        for r in range(self.rows):
            for c in range(self.cols):
                pos = r * self.cols + c
                acc |= self.entry(r, c) << pos
        nbits = self.rows * self.cols
        out += acc.to_bytes((nbits + 7) // 8, "little")
        return bytes(out)

    @staticmethod
    def from_bytes(data: bytes, offset: int = 0) -> tuple["F2Matrix", int]:
        """Parse a matrix at `offset`; returns (matrix, offset past it)."""
        rows = int.from_bytes(data[offset : offset + 2], "little")
        cols = int.from_bytes(data[offset + 2 : offset + 4], "little")
        offset += 4
        nbits = rows * cols
        nbytes = (nbits + 7) // 8
        acc = int.from_bytes(data[offset : offset + nbytes], "little")
        offset += nbytes
        packed = []
        for r in range(rows):
            row = 0
            for c in range(cols):
                row |= ((acc >> (r * cols + c)) & 1) << c
            packed.append(row)
        return F2Matrix(rows, cols, tuple(packed)), offset


def mul(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    """Matrix product over GF(2)."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    out = []
    for r in range(a.rows):
        acc = 0
        bits = a.row_bits[r]
        k = 0
        while bits:
            if bits & 1:
                acc ^= b.row_bits[k]
            bits >>= 1
            k += 1
        out.append(acc)
    return F2Matrix(a.rows, b.cols, tuple(out))


def rank(m: F2Matrix) -> int:
    """GF(2) rank by Gaussian elimination on packed rows."""
    rows = list(m.row_bits)
    r = 0
    for c in range(m.cols):
        pivot = next((i for i in range(r, len(rows)) if (rows[i] >> c) & 1), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and (rows[i] >> c) & 1:
                rows[i] ^= rows[r]
        r += 1
    return r


def inverse(m: F2Matrix) -> F2Matrix:
    """Inverse of a square full-rank matrix over GF(2)."""
    if m.rows != m.cols:
        raise ValueError(f"not square: {m.rows}x{m.cols}")
    n = m.rows
    left = list(m.row_bits)
    right = [1 << c for c in range(n)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if (left[i] >> c) & 1), None)
        if pivot is None:
            raise ValueError("singular matrix has no inverse")
        left[c], left[pivot] = left[pivot], left[c]
        right[c], right[pivot] = right[pivot], right[c]
        for i in range(n):
            if i != c and (left[i] >> c) & 1:
                left[i] ^= left[c]
                right[i] ^= right[c]
    return F2Matrix(n, n, tuple(right))


def random_invertible_from(rng: np.random.Generator, n: int) -> F2Matrix:
    """Uniform element of GL_n(F2) by rejection sampling from the given stream."""
    while True:
        packed = []
        for _ in range(n):
            bits = rng.integers(0, 2, size=n)
            packed.append(sum(int(b) << c for c, b in enumerate(bits)))
        candidate = F2Matrix(n, n, tuple(packed))
        if rank(candidate) == n:
            return candidate


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
    doubled into those of 0..2^(b+1)-1 by XORing in column b's image, so the
    whole table costs 2^cols integer XORs.  Works for any rows x cols shape;
    with no rows every image is 0.
    """
    images = [0]
    for c in range(m.cols - 1, -1, -1):
        img = 0
        for bits in m.row_bits:
            img = (img << 1) | ((bits >> c) & 1)
        images += [p ^ img for p in images]
    return np.array(images, dtype=np.int64)
