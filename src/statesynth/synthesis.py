"""Residual-decomposition planner and oracle builder.

Given a normalized target state, produce an ordered sequence of cheap steps
(Clifford sign-pattern states or GF(2) hash states) with coefficients that
telescope to the target: eta_{k+1} = eta_k - c_k * phi_k, with the residual
norm certified to shrink geometrically.  The plan is then flattened into a
bit-exact addressable oracle: a sign table (one bit per step and basis
string) followed by the serialized step descriptions, which is exactly the
classical function the simulated circuits query.

Two step strategies:

* ``clifford``: coefficient schedule c_k = alpha * beta^k with alpha = 0.35;
  each step searches for a Clifford whose sign-pattern state overlaps the
  current residual by at least alpha, giving ||eta_k|| <= beta^k.
* ``hash``: real and imaginary parts are decomposed on separate tracks
  (imaginary-track steps carry phase i).  Each track uses the guaranteed
  hash-state overlap floor alpha_step = 1 / (2 sqrt(2) sqrt(H_{2^n})) and a
  per-track schedule scaled by the track's initial norm, so the combined
  residual obeys the same geometric decay at the strategy's own rate.

Sign modes: ``exact`` uses the true sign of every overlap; ``perturbed``
adds a deterministic pseudo-random complex error of magnitude at most
``bound`` to each value before taking the sign, modeling bounded-precision
amplitude estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import clifford as cliff
from . import f2linalg
from .clifford import CliffordDesc, SearchExhaustedError, SignPattern, sr
from .f2linalg import F2Matrix
from .numerics import PureState
from .rng import derive_seed, substream

#: Oracle file magic bytes.
ORACLE_MAGIC = b"OSYN1"
#: z is the desc section padded with zero bytes to a multiple of this.
Z_PAD_MULTIPLE = 64

_SQRT8 = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class SynthesisParams:
    """Schedule constants: contraction rate, step count, register width.

    alpha is the per-step overlap floor, beta = sqrt(1 - alpha^2) the
    residual contraction rate, gamma = (1 - beta) / alpha the nominal
    success amplitude of the postselected circuit.  T = 2^t steps drive
    beta^T below 0.01 * epsilon.  delta_fp = 0.01 * beta^(2T) is the
    perturbation tolerance used by the perturbed sign mode.
    """

    n: int
    epsilon: float
    alpha: float
    beta: float
    gamma: float
    t: int
    T: int
    delta_fp: float

    def __post_init__(self) -> None:
        if self.T != 1 << self.t:
            raise ValueError(f"T={self.T} is not 2^t for t={self.t}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 0.5:
        raise ValueError(
            f"epsilon must lie in the open interval (0, 1/2), got {epsilon}"
        )


def derive_params(n: int, epsilon: float, t_override: int | None = None) -> SynthesisParams:
    """Clifford-strategy parameters: alpha = 0.35 and t = ceil(log2 log2(1/eps)) + 7.

    t_override replaces the derived register width; it exists for
    cross-validation runs and voids the epsilon guarantee.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_epsilon(epsilon)
    alpha = 0.35
    beta = math.sqrt(1.0 - alpha * alpha)
    gamma = (1.0 - beta) / alpha
    t = math.ceil(math.log2(math.log2(1.0 / epsilon))) + 7
    if t_override is not None:
        t = t_override
    T = 1 << t
    return SynthesisParams(n, epsilon, alpha, beta, gamma, t, T, 0.01 * beta ** (2 * T))


def harmonic_number(m: int) -> float:
    return float(np.sum(1.0 / np.arange(1, m + 1)))


def derive_hash_params(n: int, epsilon: float, t_override: int | None = None) -> SynthesisParams:
    """Hash-strategy parameters.

    The guaranteed overlap floor is alpha_step = 1 / (2 sqrt(2) sqrt(H_m))
    with m = 2^n (harmonic number H_m), which decays like 1/sqrt(n); the
    fixed "+7" register width of the Clifford schedule is calibrated to
    alpha = 0.35 only, so here T is instead the smallest power of two with
    beta_step^T <= 0.01 * epsilon.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_epsilon(epsilon)
    alpha = 1.0 / (_SQRT8 * math.sqrt(harmonic_number(1 << n)))
    beta = math.sqrt(1.0 - alpha * alpha)
    t = 0
    while beta ** (1 << t) > 0.01 * epsilon:
        t += 1
    if t_override is not None:
        t = t_override
    T = 1 << t
    gamma = (1.0 - beta) / alpha
    return SynthesisParams(n, epsilon, alpha, beta, gamma, t, T, 0.01 * beta ** (2 * T))


def perturbed_sign(value: complex, bound: float, address: int, seed: int) -> int:
    """sr(value + e) for a deterministic pseudo-random |e| <= bound.

    The perturbation is keyed by (address, seed): querying the same address
    twice gives the same sign, so a perturbed oracle is still a function.
    bound = 0 degenerates to the exact sign.
    """
    if bound < 0.0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    if bound == 0.0:
        return sr(value)
    rng = substream(seed, f"sign-perturbation-{address}")
    radius = bound * math.sqrt(rng.uniform())
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return sr(complex(value) + radius * complex(math.cos(angle), math.sin(angle)))


@dataclass(frozen=True)
class HashState:
    """Uniform-magnitude signed state over a support hashed injectively.

    support holds 2^k basis indices (ascending) on which the k x n matrix
    is one-to-one; signs[i] is the +-1 sign of amplitude 2^(-k/2) at
    support[i].
    """

    n: int
    k: int
    matrix: F2Matrix
    support: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.support) != 1 << self.k or len(self.signs) != 1 << self.k:
            raise ValueError(f"support and signs must have exactly 2^{self.k} entries")
        if self.matrix.rows != self.k or self.matrix.cols != self.n:
            raise ValueError(f"matrix must be {self.k}x{self.n}")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +-1")
        if list(self.support) != sorted(set(self.support)):
            raise ValueError("support must be strictly ascending")
        if self.support and (self.support[0] < 0 or self.support[-1] >= 1 << self.n):
            raise ValueError("support index out of range")
        images = f2linalg.apply_to_all(self.matrix)[list(self.support)]
        if np.unique(images).size != len(self.support):
            raise ValueError("hash matrix is not one-to-one on the support")

    def state_vector(self) -> np.ndarray:
        amps = np.zeros(1 << self.n, dtype=np.complex128)
        scale = 2.0 ** (-self.k / 2.0)
        for idx, sign in zip(self.support, self.signs):
            amps[idx] = sign * scale
        return amps


def find_hash_matrix(
    S: set[int], k: int, n: int, max_trials: int = 200, seed: int = 0
) -> F2Matrix:
    """Random full-rank k x n matrix whose image of S exceeds 2^(k-1) points.

    Candidates are drawn until one passes the (directly evaluated) image-size
    check; rank-deficient draws count against the trial budget too.
    """
    if len(S) != 1 << k or len(S) > 1 << n:
        raise ValueError(f"need |S| = 2^{k} <= 2^{n}, got {len(S)}")
    if k == 0:
        return F2Matrix(0, n, ())
    s_array = np.fromiter(sorted(S), dtype=np.int64)
    rng = substream(seed, f"hash-matrix-{k}x{n}")
    for _ in range(max_trials):
        packed = []
        for _ in range(k):
            bits = rng.integers(0, 2, size=n)
            packed.append(sum(int(b) << c for c, b in enumerate(bits)))
        candidate = F2Matrix(k, n, tuple(packed))
        if f2linalg.rank(candidate) != k:
            continue
        images = f2linalg.apply_to_all(candidate)[s_array]
        if np.unique(images).size > 1 << (k - 1):
            return candidate
    raise SearchExhaustedError(
        f"no admissible {k}x{n} hash matrix within {max_trials} trials"
    )


def hash_state_for(
    psi_real: PureState, max_trials: int = 200, seed: int = 0
) -> tuple[HashState, float]:
    """Hash state guaranteed to overlap a real-amplitude state by mu / (2 sqrt 2).

    Magnitudes are sorted descending (ties by index ascending); with j* the
    first maximizer of beta_j * sqrt(j), mu that maximum, and 2^k <= j* <
    2^(k+1), the support is built from the top 2^k indices S: each k-bit y
    maps to the lexicographically first preimage in S when one exists, else
    to the lexicographically first preimage overall.  Signs follow the
    target's amplitude signs (zero counts as +).
    """
    amps = psi_real.amps
    if np.any(amps.imag != 0.0):
        raise ValueError("hash states require a real-amplitude target")
    nrm = float(np.linalg.norm(amps))
    if nrm == 0.0:
        raise ValueError("zero-norm target")
    if nrm > 1.0 + 1e-9:
        raise ValueError(f"norm must be <= 1, got {nrm}")
    n = psi_real.n
    dim = 1 << n
    reals = amps.real
    mags = np.abs(reals)
    order = np.lexsort((np.arange(dim), -mags))
    scores = mags[order] * np.sqrt(np.arange(1, dim + 1))
    jstar = int(np.argmax(scores)) + 1
    mu = float(scores[jstar - 1])
    k = jstar.bit_length() - 1
    S = {int(x) for x in order[: 1 << k]}
    matrix = find_hash_matrix(S, k, n, max_trials=max_trials, seed=seed)
    images = f2linalg.apply_to_all(matrix)
    in_S = np.zeros(dim, dtype=bool)
    in_S[list(S)] = True
    first_in_S: dict[int, int] = {}
    first_any: dict[int, int] = {}
    for x in range(dim):
        y = int(images[x])
        if y not in first_any:
            first_any[y] = x
        if in_S[x] and y not in first_in_S:
            first_in_S[y] = x
    support = sorted(first_in_S.get(y, first_any[y]) for y in range(1 << k))
    signs = tuple(1 if reals[x] >= 0.0 else -1 for x in support)
    return HashState(n, k, matrix, tuple(support), signs), mu


def trivial_hash_state(n: int) -> HashState:
    """The k = 0 hash state |0...0>; used when a residual track is exactly zero."""
    return HashState(n, 0, F2Matrix(0, n, ()), (0,), (1,))


@dataclass(frozen=True)
class PlanStep:
    """One decomposition step: a cheap state, its weight, and its sign table.

    signs always covers all 2^n strings (for hash steps the off-support
    extension is +1).  phase is 1 except on imaginary-track hash steps,
    where it is i.
    """

    kind: str
    coefficient: float
    phase: complex
    signs: SignPattern
    desc: CliffordDesc | None = None
    hash_state: HashState | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("clifford", "hash"):
            raise ValueError(f"unknown step kind {self.kind!r}")
        if self.coefficient <= 0.0:
            raise ValueError(f"coefficient must be positive, got {self.coefficient}")
        if self.kind == "clifford":
            if self.desc is None or self.hash_state is not None:
                raise ValueError("clifford steps carry a CliffordDesc only")
            if self.phase != 1:
                raise ValueError("clifford steps have phase 1")
        else:
            if self.hash_state is None or self.desc is not None:
                raise ValueError("hash steps carry a HashState only")
            if self.phase not in (1, 1j):
                raise ValueError("hash steps have phase 1 or i")

    def step_state(self) -> np.ndarray:
        """The unit vector phi this step contributes (phase excluded)."""
        if self.kind == "clifford":
            assert self.desc is not None
            base = self.signs.signs().astype(np.complex128) / math.sqrt(len(self.signs.bits))
            return cliff.apply(self.desc, PureState(self.signs.n, base)).amps
        assert self.hash_state is not None
        return self.hash_state.state_vector()


@dataclass(frozen=True)
class SynthesisPlan:
    """Ordered steps, the residual-norm trace, and the classical string z.

    residual_norms[k] is the combined residual norm after k rounds (a round
    is one step per active track), so residual_norms[0] = 1 for normalized
    targets.  z is the serialized step descriptions zero-padded to a
    multiple of 64 bytes.  target records the normalized input state the
    plan approximates.
    """

    params: SynthesisParams
    steps: tuple[PlanStep, ...]
    residual_norms: tuple[float, ...]
    z: bytes
    target: PureState

    def __post_init__(self) -> None:
        count = len(self.steps)
        if count == 0 or count & (count - 1):
            raise ValueError(f"step count must be a positive power of two, got {count}")

    @property
    def strategy(self) -> str:
        return self.steps[0].kind

    @property
    def t_register(self) -> int:
        """Qubits needed to index the steps (t, or t + 1 for two-track plans)."""
        return (len(self.steps) - 1).bit_length()

    @property
    def track_count(self) -> int:
        return len(self.steps) // self.params.T


def nominal_success_amplitude(plan: SynthesisPlan) -> float:
    """The designed amplitude of the all-zeros flag branch.

    Equals gamma for the Clifford schedule; for hash plans the coefficient
    mass is larger by the summed track norms, so the amplitude shrinks to
    (1 - beta) / (alpha * sum of track norms).
    """
    p = plan.params
    track_norm_sum = sum(s.coefficient for s in plan.steps[: plan.track_count]) / p.alpha
    return (1.0 - p.beta) / (p.alpha * track_norm_sum)


def _clifford_steps(
    psi: PureState,
    params: SynthesisParams,
    bound: float,
    seed: int,
    max_trials: int,
) -> tuple[list[PlanStep], list[float]]:
    n = psi.n
    dim = 1 << n
    eta = psi.amps.copy()
    norms = [float(np.linalg.norm(eta))]
    steps: list[PlanStep] = []
    for k in range(params.T):
        coeff = params.alpha * params.beta**k
        if norms[-1] == 0.0:
            desc = cliff.identity_desc(n)
        else:
            desc, _ = cliff.find_overlap_clifford(
                PureState(n, eta),
                params.alpha,
                max_trials=max_trials,
                seed=derive_seed(seed, f"clifford-step-{k}"),
            )
        w = cliff.apply_inverse(desc, PureState(n, eta)).amps
        if bound == 0.0:
            bits = (w.real < 0.0).astype(np.uint8)
        else:
            bits = np.fromiter(
                (
                    perturbed_sign(np.conj(w[x]), bound, k * dim + x, seed) < 0
                    for x in range(dim)
                ),
                dtype=np.uint8,
                count=dim,
            )
        pattern = SignPattern(n, bits)
        base = pattern.signs().astype(np.complex128) / math.sqrt(dim)
        phi = cliff.apply(desc, PureState(n, base)).amps
        eta = eta - coeff * phi
        steps.append(PlanStep("clifford", coeff, 1 + 0j, pattern, desc=desc))
        norms.append(float(np.linalg.norm(eta)))
    return steps, norms


def _hash_track_step(
    eta: np.ndarray,
    n: int,
    coeff: float,
    phase: complex,
    bound: float,
    step_index: int,
    seed: int,
    max_trials: int,
) -> tuple[PlanStep, np.ndarray]:
    dim = 1 << n
    nrm = float(np.linalg.norm(eta))
    if nrm == 0.0:
        hs = trivial_hash_state(n)
    else:
        hs, _mu = hash_state_for(
            PureState(n, (eta / nrm).astype(np.complex128)),
            max_trials=max_trials,
            seed=derive_seed(seed, f"hash-step-{step_index}"),
        )
    if bound != 0.0:
        perturbed = tuple(
            perturbed_sign(float(eta[x].real), bound, step_index * dim + x, seed)
            for x in hs.support
        )
        hs = HashState(hs.n, hs.k, hs.matrix, hs.support, perturbed)
    bits = np.zeros(dim, dtype=np.uint8)
    for idx, sign in zip(hs.support, hs.signs):
        bits[idx] = 1 if sign < 0 else 0
    phi = hs.state_vector().real
    step = PlanStep("hash", coeff, phase, SignPattern(n, bits), hash_state=hs)
    return step, eta - coeff * phi


def _hash_steps(
    psi: PureState,
    params: SynthesisParams,
    bound: float,
    seed: int,
    max_trials: int,
) -> tuple[list[PlanStep], list[float]]:
    expected_alpha = 1.0 / (_SQRT8 * math.sqrt(harmonic_number(1 << psi.n)))
    if params.alpha > expected_alpha + 1e-12:
        raise ValueError(
            "hash strategy needs alpha at or below the guaranteed overlap floor "
            f"{expected_alpha:.6g}; use derive_hash_params (got {params.alpha:.6g})"
        )
    real = psi.amps.real.copy()
    imag = psi.amps.imag.copy()
    tracks = [[real, 1 + 0j, float(np.linalg.norm(real))],
              [imag, 1j, float(np.linalg.norm(imag))]]
    tracks = [tr for tr in tracks if tr[2] > 0.0]
    if not tracks:
        raise ValueError("zero-norm target")
    # Larger initial residual goes first (ties keep the real track first);
    # the order is fixed for the whole plan so step weights stay a tensor
    # product over the index register.
    tracks.sort(key=lambda tr: -tr[2])
    norms = [math.sqrt(sum(tr[2] ** 2 for tr in tracks))]
    steps: list[PlanStep] = []
    for k in range(params.T):
        for eta, phase, initial_norm in tracks:
            coeff = initial_norm * params.alpha * params.beta**k
            step, updated = _hash_track_step(
                eta, psi.n, coeff, phase, bound, len(steps), seed, max_trials
            )
            eta[:] = updated.real
            steps.append(step)
        norms.append(
            math.sqrt(sum(float(np.linalg.norm(tr[0])) ** 2 for tr in tracks))
        )
    return steps, norms


def build_plan(
    psi: PureState,
    params: SynthesisParams,
    strategy: str = "clifford",
    mode: str = "exact",
    perturb_bound: float | None = None,
    seed: int = 0,
    max_trials: int = 1000,
) -> SynthesisPlan:
    """Decompose a normalized target into T scheduled steps (2T for two-track hash).

    mode "perturbed" computes every sign through perturbed_sign with
    perturbation magnitude perturb_bound (default 2^(-n/2) * delta_fp).
    The exact Clifford path certifies residual_norms[k] <= beta^k.
    """
    if params.n != psi.n:
        raise ValueError(f"params are for n={params.n}, target has n={psi.n}")
    nrm = float(np.linalg.norm(psi.amps))
    if nrm == 0.0:
        raise ValueError("zero-norm target")
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"target must be normalized, got norm {nrm}")
    if strategy not in ("clifford", "hash"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if mode not in ("exact", "perturbed"):
        raise ValueError(f"unknown mode {mode!r}")
    bound = 0.0
    if mode == "perturbed":
        bound = perturb_bound if perturb_bound is not None else (
            2.0 ** (-psi.n / 2.0) * params.delta_fp
        )
    if strategy == "clifford":
        steps, norms = _clifford_steps(psi, params, bound, seed, max_trials)
    else:
        steps, norms = _hash_steps(psi, params, bound, seed, max_trials)
    desc_section = steps_to_desc_section(steps)
    pad = -len(desc_section) % Z_PAD_MULTIPLE
    z = desc_section + b"\x00" * pad
    return SynthesisPlan(params, tuple(steps), tuple(norms), z, PureState(psi.n, psi.amps))


def step_record_bytes(step: PlanStep) -> bytes:
    """One step's oracle record: tag 0x01 + Clifford rounds, or tag 0x02 +
    k, matrix, support indices (u64 LE), and support sign bits."""
    if step.kind == "clifford":
        assert step.desc is not None
        return b"\x01" + cliff.desc_to_bytes(step.desc)
    hs = step.hash_state
    assert hs is not None
    out = bytearray(b"\x02")
    out += hs.k.to_bytes(2, "little")
    out += hs.matrix.to_bytes()
    for idx in hs.support:
        out += idx.to_bytes(8, "little")
    sign_bits = np.fromiter((1 if s < 0 else 0 for s in hs.signs), dtype=np.uint8)
    out += np.packbits(sign_bits, bitorder="little").tobytes()
    return bytes(out)


def steps_to_desc_section(steps: tuple[PlanStep, ...] | list[PlanStep]) -> bytes:
    return b"".join(step_record_bytes(s) for s in steps)


def parse_desc_section(
    data: bytes, n: int, count: int
) -> list[CliffordDesc | HashState]:
    """Parse `count` step records back into their payloads."""
    out: list[CliffordDesc | HashState] = []
    offset = 0
    for _ in range(count):
        tag = data[offset]
        offset += 1
        if tag == 0x01:
            desc, offset = cliff.desc_from_bytes(data, offset, n)
            out.append(desc)
        elif tag == 0x02:
            k = int.from_bytes(data[offset : offset + 2], "little")
            offset += 2
            matrix, offset = F2Matrix.from_bytes(data, offset)
            support = tuple(
                int.from_bytes(data[offset + 8 * i : offset + 8 * (i + 1)], "little")
                for i in range(1 << k)
            )
            offset += 8 * (1 << k)
            nbytes = ((1 << k) + 7) // 8
            packed = np.frombuffer(data[offset : offset + nbytes], dtype=np.uint8)
            bits = np.unpackbits(packed, count=1 << k, bitorder="little")
            offset += nbytes
            signs = tuple(-1 if b else 1 for b in bits)
            out.append(HashState(n, k, matrix, support, signs))
        else:
            raise ValueError(f"unknown step tag {tag:#x} at offset {offset - 1}")
    return out


@dataclass(frozen=True)
class OracleSpec:
    """Bit-exact truth table: T * 2^n sign bits, then the description string.

    Addresses [0, T * 2^n) return sign bits (bit j * 2^n + x is step j's sign
    at basis string x; 0 means +1).  Addresses beyond that return the bits of
    z (descriptions plus zero padding), LSB-first within each byte, and then
    zeros up to 2^total_input_bits.
    """

    n: int
    t: int
    T: int
    sign_bits: np.ndarray
    desc_section: bytes
    total_input_bits: int

    def __post_init__(self) -> None:
        if self.T != 1 << self.t:
            raise ValueError(f"T={self.T} is not 2^t for t={self.t}")
        bits = np.asarray(self.sign_bits, dtype=np.uint8)
        if bits.shape != (self.T << self.n,):
            raise ValueError(
                f"expected {self.T << self.n} sign bits, got shape {bits.shape}"
            )
        if bits.max(initial=0) > 1:
            raise ValueError("sign bits must be 0 or 1")
        object.__setattr__(self, "sign_bits", bits)

    @property
    def z(self) -> bytes:
        pad = -len(self.desc_section) % Z_PAD_MULTIPLE
        return self.desc_section + b"\x00" * pad

    def sign_rows(self) -> np.ndarray:
        """Sign bits as a (T, 2^n) array of 0/1."""
        return self.sign_bits.reshape(self.T, 1 << self.n)

    def query(self, address: int) -> int:
        """The oracle bit at `address`; deterministic, total on the input space."""
        if not 0 <= address < 1 << self.total_input_bits:
            raise ValueError(
                f"address {address} outside the {self.total_input_bits}-bit input space"
            )
        sign_count = self.T << self.n
        if address < sign_count:
            return int(self.sign_bits[address])
        address -= sign_count
        z = self.z
        if address < 8 * len(z):
            return (z[address >> 3] >> (address & 7)) & 1
        return 0

    def to_bytes(self) -> bytes:
        out = bytearray(ORACLE_MAGIC)
        out += self.n.to_bytes(4, "little")
        out += self.t.to_bytes(4, "little")
        out += self.T.to_bytes(4, "little")
        out += np.packbits(self.sign_bits, bitorder="little").tobytes()
        out += len(self.desc_section).to_bytes(8, "little")
        out += self.desc_section
        return bytes(out)

    @staticmethod
    def from_bytes(data: bytes) -> "OracleSpec":
        if data[: len(ORACLE_MAGIC)] != ORACLE_MAGIC:
            raise ValueError("bad oracle file magic")
        offset = len(ORACLE_MAGIC)
        n = int.from_bytes(data[offset : offset + 4], "little")
        t = int.from_bytes(data[offset + 4 : offset + 8], "little")
        T = int.from_bytes(data[offset + 8 : offset + 12], "little")
        offset += 12
        nbits = T << n
        nbytes = (nbits + 7) // 8
        packed = np.frombuffer(data[offset : offset + nbytes], dtype=np.uint8)
        sign_bits = np.unpackbits(packed, count=nbits, bitorder="little")
        offset += nbytes
        desc_len = int.from_bytes(data[offset : offset + 8], "little")
        offset += 8
        desc_section = bytes(data[offset : offset + desc_len])
        return OracleSpec(n, t, T, sign_bits, desc_section, _input_bits(n, T, desc_len))

    def write_file(self, path: str) -> None:
        with open(path, "wb") as handle:
            handle.write(self.to_bytes())

    @staticmethod
    def read_file(path: str) -> "OracleSpec":
        with open(path, "rb") as handle:
            return OracleSpec.from_bytes(handle.read())


def _input_bits(n: int, T: int, desc_len: int) -> int:
    z_len = desc_len + (-desc_len % Z_PAD_MULTIPLE)
    top_address = (T << n) + 8 * z_len - 1
    return top_address.bit_length()


def plan_to_oracle(plan: SynthesisPlan) -> OracleSpec:
    """Flatten a plan into its addressable truth table."""
    sign_bits = np.concatenate([step.signs.bits for step in plan.steps])
    desc_section = steps_to_desc_section(plan.steps)
    n = plan.params.n
    T = len(plan.steps)
    return OracleSpec(
        n,
        plan.t_register,
        T,
        sign_bits,
        desc_section,
        _input_bits(n, T, len(desc_section)),
    )


def merge_phase_oracles(fs, arities):
    """Merge parallel phase oracles into one: F(x1, ..., xk) = XOR of f_j(x_j).

    fs are callables on integer inputs; arities[j] is f_j's input width in
    bits.  The merged callable takes one integer whose most significant
    block is x1 (matching the package's big-endian register convention) and
    has total arity sum(arities).
    """
    fs = list(fs)
    arities = list(arities)
    if len(fs) != len(arities):
        raise ValueError(f"{len(fs)} functions but {len(arities)} arities")
    if any(a < 0 for a in arities):
        raise ValueError("arities must be nonnegative")
    total = sum(arities)

    def merged(x: int) -> int:
        if not 0 <= x < 1 << total:
            raise ValueError(f"input {x} outside {total} bits")
        out = 0
        shift = total
        for f, arity in zip(fs, arities):
            shift -= arity
            out ^= f((x >> shift) & ((1 << arity) - 1)) & 1
        return out

    return merged, total
