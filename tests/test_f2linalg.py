"""Tests for bit-packed GF(2) linear algebra.

The multiplication and rank oracles here are deliberately naive
(triple loop, row-span enumeration) so they share no code with the
bit-twiddling implementation under test.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statesynth import f2linalg
from statesynth.f2linalg import (
    F2Matrix,
    apply_to_all,
    apply_to_index,
    index_to_vector,
    inverse,
    mul,
    random_invertible,
    rank,
    vector_to_index,
)


def _to_array(m: F2Matrix) -> np.ndarray:
    return np.array([[m.entry(r, c) for c in range(m.cols)] for r in range(m.rows)], dtype=np.uint8)


def _from_array(a: np.ndarray) -> F2Matrix:
    return F2Matrix.from_entries([[int(v) for v in row] for row in a])


def _naive_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    rows, inner, cols = a.shape[0], a.shape[1], b.shape[1]
    out = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        for j in range(cols):
            acc = 0
            for k in range(inner):
                acc ^= int(a[i, k]) & int(b[k, j])
            out[i, j] = acc
    return out


def _span_rank(a: np.ndarray) -> int:
    """Rank via brute-force row-span enumeration (rows <= 5)."""
    span = set()
    rows = [tuple(r) for r in a]
    for picks in itertools.product([0, 1], repeat=len(rows)):
        acc = np.zeros(a.shape[1], dtype=np.uint8)
        for flag, row in zip(picks, rows):
            if flag:
                acc ^= np.array(row, dtype=np.uint8)
        span.add(tuple(acc))
    return int(np.log2(len(span)))


def test_identity_times_identity():
    eye = F2Matrix.identity(3)
    assert mul(eye, eye).to_entries() == eye.to_entries()


def test_mul_matches_naive_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.integers(0, 2, (4, 4)).astype(np.uint8)
        b = rng.integers(0, 2, (4, 4)).astype(np.uint8)
        got = _to_array(mul(_from_array(a), _from_array(b)))
        assert np.array_equal(got, _naive_mul(a, b))


def test_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mul(F2Matrix.identity(2), F2Matrix.identity(3))


def test_rank_examples():
    assert rank(F2Matrix.zero(3, 3)) == 0
    assert rank(F2Matrix.identity(4)) == 4


def test_rank_matches_span_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(40):
        a = rng.integers(0, 2, (5, 8)).astype(np.uint8)
        assert rank(_from_array(a)) == _span_rank(a)


def test_rank_invariant_under_row_permutation():
    rng = np.random.default_rng(7)
    for _ in range(30):
        a = rng.integers(0, 2, (5, 6)).astype(np.uint8)
        perm = rng.permutation(5)
        assert rank(_from_array(a)) == rank(_from_array(a[perm]))


def test_inverse_examples():
    eye = F2Matrix.identity(4)
    assert inverse(eye).to_entries() == eye.to_entries()
    # [[1,1],[0,1]] is self-inverse over GF(2).
    m = F2Matrix.from_entries([[1, 1], [0, 1]])
    assert inverse(m).to_entries() == m.to_entries()


def test_inverse_times_input_is_identity():
    for seed in range(25):
        m = random_invertible(6, seed)
        assert mul(m, inverse(m)).to_entries() == F2Matrix.identity(6).to_entries()
        assert mul(inverse(m), m).to_entries() == F2Matrix.identity(6).to_entries()


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        inverse(F2Matrix.zero(3, 3))
    with pytest.raises(ValueError):
        inverse(F2Matrix.zero(2, 3))


def test_random_invertible_n1():
    m = random_invertible(1, 123)
    assert m.entry(0, 0) == 1


def test_random_invertible_full_rank_and_deterministic():
    for seed in range(20):
        n = 1 + seed % 8
        m = random_invertible(n, seed)
        assert rank(m) == n
        again = random_invertible(n, seed)
        assert m.to_entries() == again.to_entries()


def test_random_invertible_uniform_over_gl2():
    # GL_2(F_2) has (4-1)(4-2) = 6 elements; each should appear ~1/6 of the time.
    counts: dict[tuple[int, ...], int] = {}
    samples = 10_000
    for seed in range(samples):
        key = random_invertible(2, seed).row_bits
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    for value in counts.values():
        assert abs(value / samples - 1 / 6) < 0.02


def test_apply_to_index_examples():
    eye = F2Matrix.identity(3)
    assert apply_to_index(eye, 5) == 5
    m = F2Matrix.from_entries([[1, 1], [0, 1]])
    # Input bits (1, 0): M maps it to (1, 0) -> same index 0b10.
    assert apply_to_index(m, 0b10) == 0b10
    assert apply_to_index(m, 0b01) == 0b11


def test_apply_to_index_zero_and_range():
    for seed in range(10):
        m = random_invertible(4, seed)
        assert apply_to_index(m, 0) == 0
    with pytest.raises(ValueError):
        apply_to_index(F2Matrix.identity(2), 4)


def test_apply_composition_property():
    rng = np.random.default_rng(13)
    for _ in range(30):
        a = _from_array(rng.integers(0, 2, (3, 4)).astype(np.uint8))
        b = _from_array(rng.integers(0, 2, (4, 5)).astype(np.uint8))
        x = int(rng.integers(0, 32))
        assert apply_to_index(mul(a, b), x) == apply_to_index(a, apply_to_index(b, x))


def test_apply_to_all_matches_pointwise():
    rng = np.random.default_rng(17)
    shapes = [(int(rng.integers(1, 7)), int(rng.integers(1, 7))) for _ in range(20)]
    # Non-square hash shapes k x n, k < n, including the k = 0 matrix.
    shapes += [(0, 1), (0, 5), (1, 6), (2, 5), (3, 8), (5, 8), (6, 3)]
    for rows, cols in shapes:
        m = _from_array(rng.integers(0, 2, (rows, cols)).astype(np.uint8))
        if rows == 0:
            m = F2Matrix.zero(0, cols)
        table = apply_to_all(m)
        assert table.dtype == np.int64
        assert table.shape == (1 << cols,)
        for x in range(1 << cols):
            assert int(table[x]) == apply_to_index(m, x)
    assert not apply_to_all(F2Matrix.zero(0, 4)).any()


def test_index_vector_roundtrip():
    for width in (1, 3, 7):
        for x in range(1 << width):
            assert vector_to_index(index_to_vector(x, width)) == x


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_serialization_roundtrip(rows: int, cols: int, seed: int):
    rng = np.random.default_rng(seed)
    m = _from_array(rng.integers(0, 2, (rows, cols)).astype(np.uint8))
    blob = m.to_bytes()
    back, consumed = F2Matrix.from_bytes(blob)
    assert consumed == len(blob)
    assert back.rows == rows and back.cols == cols
    assert back.to_entries() == m.to_entries()
