"""Deterministic random-stream plumbing.

Every random draw in the package flows from one integer seed through a named
substream, so equal configs reproduce bit-identical runs and independent
components never share a stream.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(seed: int, label: str) -> int:
    """A 63-bit integer seed derived from (seed, label); stable across runs."""
    digest = hashlib.blake2b(
        f"{seed}:{label}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") >> 1


def _entropy_words(value: int) -> bytes:
    """The 32-bit words SeedSequence splits an int of its entropy into: the
    fewest that hold it (one for 0), lowest first, as little-endian bytes."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    return value.to_bytes(4 * max(1, -(-value.bit_length() // 32)), "little")


def _seed_sequence(seed: int, label: str) -> np.random.SeedSequence:
    """SeedSequence([seed, label key]), the key a 64-bit blake2b digest of the
    label, with the entropy handed over as the uint32 array it would make of
    that list, which skips its conversion of each int."""
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    label_key = int.from_bytes(digest, "little")
    words = _entropy_words(int(seed)) + _entropy_words(label_key)
    return np.random.SeedSequence(np.frombuffer(words, dtype="<u4"))


def substream(seed: int, label: str) -> np.random.Generator:
    """Return a generator keyed by (seed, label); same inputs, same stream."""
    return np.random.default_rng(_seed_sequence(seed, label))


def first_uniforms(seed: int, label: str, count: int) -> list[float]:
    """The first `count` values of `substream(seed, label).uniform()`.

    A Generator's uniform double is its PCG64 bit generator's next 64-bit
    output shifted right by 11 and scaled by 2^-53, so reading the raw
    outputs gives the same doubles without building the Generator.
    """
    raw = np.random.PCG64(_seed_sequence(seed, label)).random_raw(count)
    return [(r >> 11) * 2.0**-53 for r in raw.tolist()]


class RawHalves:
    """The uint32 halves of a fresh `substream(seed, label)`'s raw outputs.

    A Generator draws a 32-bit value as the low half of its PCG64 bit
    generator's next 64-bit output, then the high half, and
    `integers(0, 2**b, size)` for b <= 32 keeps each value's top b bits
    (Lemire's method, which never rejects at a power-of-two range).  So on a
    fresh stream `half >> 30` reads `integers(0, 4, size)` and `half >> 31`
    reads `integers(0, 2, size)`, without building the Generator or going
    through its per-call set-up.  `read` hands out the halves in stream
    order, as many as asked for; an odd count holds the next half back.
    """

    def __init__(self, seed: int, label: str) -> None:
        self._random_raw = np.random.PCG64(_seed_sequence(seed, label)).random_raw
        self._held = np.empty(0, dtype="<u4")

    def read(self, count: int) -> np.ndarray:
        """The next `count` halves as a uint32 array."""
        held = self._held
        fresh = self._random_raw((count - len(held) + 1) // 2).astype("<u8", copy=False)
        halves = np.concatenate((held, fresh.view("<u4"))) if len(held) else fresh.view("<u4")
        self._held = halves[count:]
        return halves[:count]
