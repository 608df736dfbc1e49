"""Sphere measures, cap fractions, and the circuit-count coverage gap.

The set of n-qubit pure states sits inside the real unit sphere of
dimension m - 1 with m = 2^(n+1).  The fraction of that sphere within
trace distance epsilon of a fixed pure state has the closed form
epsilon^(m-2), which a Monte-Carlo estimator validates here.  Combining
the cap fraction with a count of distinct circuits gives a coverage
deficit in bits: negative means the circuit family cannot reach every
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import substream

_CHUNK = 65536


@dataclass(frozen=True)
class GeometryQuery:
    """A qubit count and a trace-distance radius."""

    n: int
    epsilon: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got {self.n}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")

    @property
    def m(self) -> int:
        """Real dimension of the ambient space, 2^(n+1)."""
        return 1 << (self.n + 1)


def sphere_measure(d: int) -> float:
    """Total measure of the unit d-sphere: mu_0 = 2, mu_1 = 2*pi,
    mu_{n+1} = 2*pi*mu_{n-1}/n."""
    if d < 0:
        raise ValueError(f"dimension must be nonnegative, got {d}")
    if d == 0:
        return 2.0
    if d == 1:
        return 2.0 * math.pi
    measures = [2.0, 2.0 * math.pi]
    for n in range(1, d):
        measures.append(2.0 * math.pi * measures[n - 1] / n)
    return measures[d]


def cap_fraction(q: GeometryQuery) -> float:
    """Fraction of the sphere within trace distance epsilon of a pure state.

    Exact: epsilon^(m-2).  (The cap is a solid angle around the full great
    circle of global phases, which costs the two missing powers.)
    """
    if q.epsilon == 0.0:
        return 0.0
    return q.epsilon ** (q.m - 2)


def monte_carlo_cap(q: GeometryQuery, trials: int, seed: int = 0) -> float:
    """Fraction of Haar-random states within trace distance epsilon of a
    fixed state, estimated from `trials` samples; deterministic per seed.

    Samples are normalized complex Gaussians (the same distribution
    haar_random_state draws from), generated in chunked substreams.  By
    unitary invariance the fixed state can be taken to be the first basis
    state, so the test is |amplitude_0|^2 >= 1 - epsilon^2.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    dim = 1 << q.n
    threshold = 1.0 - q.epsilon**2
    hits = 0
    done = 0
    chunk_index = 0
    while done < trials:
        count = min(_CHUNK, trials - done)
        rng = substream(seed, f"sphere-cap-{chunk_index}")
        z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
        weight = np.abs(z[:, 0]) ** 2
        total = np.sum(np.abs(z) ** 2, axis=1)
        hits += int(np.count_nonzero(weight >= threshold * total))
        done += count
        chunk_index += 1
    return hits / trials


def sphere_measure_mc(d: int, trials: int = 400_000, seed: int = 0) -> float:
    """Monte-Carlo estimate of sphere_measure(d), for validation.

    The d-sphere measure is (d+1) times the unit-ball volume in d+1
    dimensions; the ball volume is estimated by uniform sampling of the
    enclosing cube.
    """
    if d < 0:
        raise ValueError(f"dimension must be nonnegative, got {d}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    dim = d + 1
    inside = 0
    done = 0
    chunk_index = 0
    while done < trials:
        count = min(_CHUNK, trials - done)
        rng = substream(seed, f"ball-volume-{d}-{chunk_index}")
        pts = rng.uniform(-1.0, 1.0, size=(count, dim))
        inside += int(np.count_nonzero(np.sum(pts * pts, axis=1) <= 1.0))
        done += count
        chunk_index += 1
    ball_volume = (2.0**dim) * inside / trials
    return dim * ball_volume


def coverage_deficit(
    n: int,
    epsilon: float,
    s: int,
    gate_set_size: int,
    max_arity: int,
    qubit_constant: float = 3.0,
) -> float:
    """log2(number of size-s circuits) + log2(fraction each one can cover).

    The circuit count bound is (gate_set_size * (qubit_constant * s)^max_arity)^s;
    each circuit's output covers at most an epsilon^((m-2)/2) fraction of the
    sphere (the mixed-center cap bound, which requires epsilon <= 1/4).  A
    negative value certifies that s-gate circuits cannot approximate every
    n-qubit state to within epsilon under the stated constants.
    """
    if n < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    if not 0.0 < epsilon <= 0.25:
        raise ValueError(
            f"the mixed-center cap bound needs 0 < epsilon <= 1/4, got {epsilon}"
        )
    if s < 0:
        raise ValueError(f"gate count must be nonnegative, got {s}")
    if gate_set_size < 1 or max_arity < 1:
        raise ValueError("gate set size and arity must be positive")
    if qubit_constant <= 0.0:
        raise ValueError(f"qubit constant must be positive, got {qubit_constant}")
    m = 1 << (n + 1)
    cap_term = 0.5 * (m - 2) * math.log2(epsilon)
    if s == 0:
        return cap_term
    count_term = s * math.log2(gate_set_size * (qubit_constant * s) ** max_arity)
    return count_term + cap_term
