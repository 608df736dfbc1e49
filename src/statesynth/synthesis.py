"""Residual-decomposition planner and oracle builder.

Given a normalized target state, produce an ordered sequence of cheap steps
(Clifford sign-pattern states or GF(2) hash states) with coefficients that
telescope to the target: eta_{k+1} = eta_k - c_k * phi_k, with the residual
norm certified to shrink geometrically.  The plan is then flattened into a
bit-exact addressable oracle: a sign table (one bit per step and basis
string) followed by the serialized step descriptions, which is exactly the
classical function the simulated circuits query.

One loop plans both strategies.  It steps residual tracks, each a residual
with a phase and a scale.  Round k visits every track once: step j =
len(steps) gets coefficient scale * alpha * beta^k, finds a cheap state that
overlaps the track's residual, reads its signs, subtracts the scaled state,
and the round ends by recording the combined residual norm.  A zero residual
is not searched (the step takes the trivial state of its family), and an
exhausted search is re-raised with the step index and the residual norm.
The two step families differ only in these parts:

* ``clifford``: one complex track [psi, phase 1, scale 1], alpha = 0.35,
  giving ||eta_k|| <= beta^k.  The search finds a Clifford C whose
  sign-pattern state overlaps the residual by at least alpha, and the signs
  are those of conj(C^dagger eta) at every basis string.
* ``hash``: the nonzero real and imaginary parts are real tracks (phase 1
  and i), larger first, each scaled by its initial norm, with the guaranteed
  hash-state overlap floor alpha = 1 / (2 sqrt(2) sqrt(H_{2^n})); the
  combined residual obeys the same geometric decay at this rate.  The
  search builds the hash state of the normalized residual, and the signs
  are those of the residual on the state's support.

Sign modes: ``exact`` uses the true sign of every overlap; ``perturbed``
adds a deterministic pseudo-random complex error of magnitude at most
``bound`` to each value before taking the sign, modeling bounded-precision
amplitude estimation.  Step j's sign at basis string x is keyed by its
oracle address j * 2^n + x.

Checks: hash_state_for and find_hash_matrix refuse every bad argument,
and a ``HashState`` or ``PureState`` made from caller input is checked by
its constructor.  The hash planner's own values skip those checks, which
their construction guarantees: its hash states (a perturbed step's too)
and its float64 residual, handed to hash_state_for as a PureState.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import clifford as cliff
from . import f2linalg
from .clifford import CliffordDesc, SearchExhaustedError, SignPattern, sr
from .f2linalg import F2Matrix
from .numerics import PureState, _fields_equal, _norm, _unchecked
from .rng import RawHalves, derive_seed, first_uniforms

#: Oracle file magic bytes.
ORACLE_MAGIC = b"OSYN1"
#: z is the desc section padded with zero bytes to a multiple of this.
Z_PAD_MULTIPLE = 64

_SQRT8 = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class SynthesisParams:
    """Schedule constants: contraction rate, step count, register width.

    Only the inputs are fields: n, epsilon, the per-step overlap floor
    alpha, and the register width t.  The rest is derived from them: beta =
    sqrt(1 - alpha^2) the residual contraction rate, gamma = (1 - beta) /
    alpha the nominal success amplitude of the postselected circuit, T = 2^t
    the step count (chosen so that beta^T falls below 0.01 * epsilon), and
    delta_fp = 0.01 * beta^(2T) the perturbation tolerance used by the
    perturbed sign mode.
    """

    n: int
    epsilon: float
    alpha: float
    t: int

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.t < 0:
            raise ValueError(f"t must be nonnegative, got {self.t}")

    @cached_property
    def beta(self) -> float:
        return math.sqrt(1.0 - self.alpha * self.alpha)

    @cached_property
    def gamma(self) -> float:
        return (1.0 - self.beta) / self.alpha

    @cached_property
    def T(self) -> int:
        return 1 << self.t

    @cached_property
    def delta_fp(self) -> float:
        return 0.01 * self.beta ** (2 * self.T)


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
    t = math.ceil(math.log2(math.log2(1.0 / epsilon))) + 7
    return SynthesisParams(n, epsilon, 0.35, t if t_override is None else t_override)


def harmonic_number(m: int) -> float:
    return float(np.sum(1.0 / np.arange(1, m + 1)))


def _hash_alpha_floor(n: int) -> float:
    """The hash-state overlap floor 1 / (2 sqrt(2) sqrt(H_{2^n}))."""
    return 1.0 / (_SQRT8 * math.sqrt(harmonic_number(1 << n)))


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
    alpha = _hash_alpha_floor(n)
    beta = math.sqrt(1.0 - alpha * alpha)
    t = 0
    while beta ** (1 << t) > 0.01 * epsilon:
        t += 1
    return SynthesisParams(n, epsilon, alpha, t if t_override is None else t_override)


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
    # The two draws of substream(seed, label).uniform() and .uniform(0, 2 pi).
    u, v = first_uniforms(seed, f"sign-perturbation-{address}", 2)
    radius = bound * math.sqrt(u)
    angle = 0.0 + 2.0 * math.pi * v
    return sr(complex(value) + radius * complex(math.cos(angle), math.sin(angle)))


@dataclass(frozen=True, eq=False)
class HashState:
    """Uniform-magnitude signed state over a support hashed injectively.

    support holds 2^k basis indices (ascending) on which the k x n matrix
    is one-to-one; signs[i] is the +-1 sign of amplitude 2^(-k/2) at
    support[i].  They are read-only arrays, int64 and int8, made from any
    sequences given, and states are equal when all their fields are.  The
    constructor checks all of it with array operations, computing the
    matrix's image table.  The states hash_state_for and the planner build
    skip the check (`_built`): their construction guarantees it.
    """

    n: int
    k: int
    matrix: F2Matrix
    support: np.ndarray
    signs: np.ndarray

    def __post_init__(self) -> None:
        support, signs = np.asarray(self.support), np.asarray(self.signs)
        if support.shape != (1 << self.k,) or signs.shape != (1 << self.k,):
            raise ValueError(f"support and signs must have exactly 2^{self.k} entries")
        if self.matrix.rows != self.k or self.matrix.cols != self.n:
            raise ValueError(f"matrix must be {self.k}x{self.n}")
        if (np.abs(signs) != 1).any():
            raise ValueError("signs must be +-1")
        if support.dtype.kind not in "iu":
            raise ValueError("support indices must be integers")
        if (support[1:] <= support[:-1]).any():
            raise ValueError("support must be strictly ascending")
        if int(support[0]) < 0 or int(support[-1]) >= 1 << self.n:
            raise ValueError("support index out of range")
        support, signs = support.astype(np.int64), signs.astype(np.int8)
        images = f2linalg.apply_to_all(self.matrix)
        if _distinct_images(images[support], self.k) != len(support):
            raise ValueError("hash matrix is not one-to-one on the support")
        support.flags.writeable = signs.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "signs", signs)

    @classmethod
    def _built(cls, **fields) -> HashState:
        """A state with these fields, made without the constructor's check
        for a maker that guarantees it: support an ascending, in-range int64
        array on which the k x n matrix is one-to-one, signs an int8 array
        of +-1.  Both arrays are made read-only in place.

        The fields are set one by one, as the constructor sets them, so the
        state keeps the compact instance layout (about 120 bytes) where
        `numerics._unchecked` would give it a dict of its own (about 250):
        a plan keeps every one of its states."""
        fields["support"].flags.writeable = fields["signs"].flags.writeable = False
        state = object.__new__(cls)
        for name, value in fields.items():
            object.__setattr__(state, name, value)
        return state

    __eq__ = _fields_equal

    def amplitudes(self) -> np.ndarray:
        """The signed amplitudes +-2^(-k/2) on the support, in its order."""
        return self.signs * 2.0 ** (-self.k / 2.0)

    def state_vector(self) -> np.ndarray:
        amps = np.zeros(1 << self.n, dtype=np.complex128)
        amps[self.support] = self.amplitudes()
        return amps


def _distinct_images(images: np.ndarray, k: int) -> int:
    """How many distinct values, each in [0, 2^k), images holds."""
    return int(np.count_nonzero(np.bincount(images, minlength=1 << k)))


#: Hash candidates read per block of raw halves: a search takes about 1.5.
_HASH_BLOCK = 4


def find_hash_matrix(
    S: set[int] | np.ndarray, k: int, n: int, max_trials: int = 200, seed: int = 0
) -> tuple[F2Matrix, np.ndarray]:
    """Random full-rank k x n matrix whose image of S exceeds 2^(k-1) points.

    S is a set of indices, or the same indices as an int64 array.
    Candidates are drawn until one passes the (directly evaluated) image-size
    check; rank-deficient draws count against the trial budget too.  Trial t
    takes the candidate `f2linalg.random_rows_from` would draw t-th from
    `substream(seed, f"hash-matrix-{k}x{n}")`: its rows are read, a few
    candidates at a time, off that substream's raw 32-bit halves
    (`rng.RawHalves`, an entry being a half's top bit).  Returns the matrix
    with its image table (`f2linalg.apply_to_all`, the image of every
    index).  An exhausted budget raises SearchExhaustedError with the trials
    and seed; a negative budget is refused with ValueError.
    """
    if max_trials < 0:
        raise ValueError(f"max_trials must be >= 0, got {max_trials}")
    if len(S) != 1 << k or len(S) > 1 << n:
        raise ValueError(f"need |S| = 2^{k} <= 2^{n}, got {len(S)}")
    if k == 0:
        return F2Matrix(0, n, ()), np.zeros(1 << n, dtype=np.int64)
    s_array = S if isinstance(S, np.ndarray) else np.fromiter(sorted(S), dtype=np.int64)
    reader = RawHalves(seed, f"hash-matrix-{k}x{n}")
    for trial in range(max_trials):
        if trial % _HASH_BLOCK == 0:
            bits = (reader.read(_HASH_BLOCK * k * n) >> 31).reshape(-1, n)
            rows = (bits @ (1 << np.arange(n, dtype=np.int64))).tolist()
        at = trial % _HASH_BLOCK * k
        candidate = F2Matrix(k, n, tuple(rows[at : at + k]))
        if f2linalg.rank(candidate) != k:
            continue
        images = f2linalg.apply_to_all(candidate)
        if _distinct_images(images[s_array], k) > 1 << (k - 1):
            return candidate, images
    raise SearchExhaustedError(
        f"no admissible {k}x{n} hash matrix within {max_trials} trials (seed {seed})",
        trials=max_trials,
        seed=seed,
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

    The amplitudes may be complex with zero imaginary parts, as a checked
    PureState holds them, or a float64 vector (the planner's residual).  A
    nonzero imaginary part, a zero norm and a norm above 1 + 1e-9 or NaN
    are refused.  The state is made without HashState's check: the full-rank
    matrix maps onto all 2^k values of y, so the support holds 2^k distinct
    indices, one per y, and it is sorted.
    """
    amps = psi_real.amps
    if np.iscomplexobj(amps) and amps.imag.any():
        raise ValueError("hash states require a real-amplitude target")
    reals = amps.real
    # np.linalg.norm's own formula: the imaginary parts are zero.
    nrm = math.sqrt(reals.dot(reals))
    if nrm == 0.0:
        raise ValueError("zero-norm target")
    if not nrm <= 1.0 + 1e-9:  # NaN too
        raise ValueError(f"norm must be <= 1, got {nrm}")
    n = psi_real.n
    dim = 1 << n
    mags = np.abs(reals)
    order = np.argsort(-mags, kind="stable")
    scores = mags[order] * _sqrt_ranks(dim)
    jstar = int(np.argmax(scores)) + 1
    mu = float(scores[jstar - 1])
    k = jstar.bit_length() - 1
    s_array = order[: 1 << k]
    matrix, images = find_hash_matrix(s_array, k, n, max_trials=max_trials, seed=seed)
    # Each y takes its lowest preimage in S, else its lowest overall: the
    # lowest cost over the preimages, where x costs x in S and dim + x
    # outside it.
    cost = np.arange(dim, 2 * dim)
    cost[s_array] -= dim
    lowest = np.full(1 << k, 2 * dim)
    np.minimum.at(lowest, images, cost)
    support = np.sort(lowest & (dim - 1))
    signs = np.where(reals[support] >= 0.0, np.int8(1), np.int8(-1))
    return HashState._built(n=n, k=k, matrix=matrix, support=support, signs=signs), mu


@lru_cache(maxsize=None)
def _sqrt_ranks(dim: int) -> np.ndarray:
    """sqrt(1..dim), read-only; made on first use for each dimension, so
    the memo holds one table per qubit count in use."""
    out = np.sqrt(np.arange(1, dim + 1))
    out.flags.writeable = False
    return out


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
            # +-2^(-n/2) + 0j: the bytes of signs / sqrt(2^n) in complex128.
            a = 1.0 / math.sqrt(len(self.signs.bits))
            base = np.where(self.signs.bits, complex(-a), complex(a))
            return cliff.apply(self.desc, _unchecked(PureState, n=self.signs.n, amps=base)).amps
        assert self.hash_state is not None
        return self.hash_state.state_vector()


@dataclass(frozen=True)
class SynthesisPlan:
    """Ordered steps, the residual-norm trace, and the classical string z.

    residual_norms[k] is the combined residual norm after k rounds (a round
    is one step per active track), so residual_norms[0] = 1 for normalized
    targets.  target records the normalized input state the plan
    approximates.  Derived from the steps: desc_section, the serialized step
    descriptions, and z, that section zero-padded to a multiple of 64 bytes.
    """

    params: SynthesisParams
    steps: tuple[PlanStep, ...]
    residual_norms: tuple[float, ...]
    target: PureState

    def __post_init__(self) -> None:
        count = len(self.steps)
        if count == 0 or count & (count - 1):
            raise ValueError(f"step count must be a positive power of two, got {count}")
        kinds = {step.kind for step in self.steps}
        if len(kinds) != 1:
            raise ValueError(f"a plan's steps must be of one kind, got {sorted(kinds)}")

    @cached_property
    def desc_section(self) -> bytes:
        return steps_to_desc_section(self.steps)

    @cached_property
    def z(self) -> bytes:
        return _pad_z(self.desc_section)

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


def _perturbed_signs(values, xs, bound: float, index: int, n: int, seed: int) -> list[int]:
    """perturbed_sign of each value at step `index`'s oracle address index * 2^n + x."""
    base = index << n
    return [perturbed_sign(value, bound, base + x, seed) for value, x in zip(values, xs)]


def _plan_steps(
    psi: PureState,
    params: SynthesisParams,
    strategy: str,
    bound: float,
    seed: int,
    max_trials: int,
) -> tuple[list[PlanStep], list[float]]:
    """The planner loop of the module docstring: the steps and residual_norms."""
    n = psi.n

    # The step families: each returns its step and the step's state in the
    # track's dtype.  step_seed is None on a zero residual, which is not
    # searched: the family's trivial state stands in.
    def clifford_step(eta, norm, coeff, phase, index, step_seed):
        """Search for C; signs of conj(w), w = C^dagger eta, at every x; complex."""
        if step_seed is None:
            # C^dagger of the identity leaves the (zero) residual as it is.
            desc, w = cliff.identity_desc(n), eta
        else:
            desc, _, w = cliff.find_overlap_clifford(
                _unchecked(PureState, n=n, amps=eta), params.alpha, max_trials, step_seed
            )
        if bound == 0.0:
            bits = w.real < 0.0
        else:
            bits = np.array(_perturbed_signs(np.conj(w), range(1 << n), bound, index, n, seed)) < 0
        step = PlanStep("clifford", coeff, phase, SignPattern(n, bits), desc=desc)
        return step, step.step_state()

    def hash_step(eta, norm, coeff, phase, index, step_seed):
        """The hash state of eta / norm; signs of eta on its support; real."""
        if step_seed is None:
            hs = trivial_hash_state(n)
        else:
            hs, _mu = hash_state_for(
                _unchecked(PureState, n=n, amps=eta / norm), max_trials=max_trials, seed=step_seed
            )
        support = hs.support
        if bound != 0.0:
            signs = _perturbed_signs(eta[support], support, bound, index, n, seed)
            hs = HashState._built(
                n=n, k=hs.k, matrix=hs.matrix, support=support, signs=np.array(signs, np.int8)
            )
        # The real part of hs.state_vector(), negative where the signs are.
        state = np.zeros(1 << n)
        state[support] = hs.amplitudes()
        return PlanStep("hash", coeff, phase, SignPattern(n, state < 0.0), hash_state=hs), state

    # A track is [residual, phase, scale, current residual norm].
    if strategy == "clifford":
        eta = psi.amps.copy()
        tracks = [[eta, 1 + 0j, 1.0, _norm(eta)]]
        family_step = clifford_step
    else:
        expected_alpha = _hash_alpha_floor(n)
        if params.alpha > expected_alpha + 1e-12:
            raise ValueError(
                "hash strategy needs alpha at or below the guaranteed overlap floor "
                f"{expected_alpha:.6g}; use derive_hash_params (got {params.alpha:.6g})"
            )
        tracks = []
        for part, phase in ((psi.amps.real.copy(), 1 + 0j), (psi.amps.imag.copy(), 1j)):
            norm = float(np.linalg.norm(part))
            if norm > 0.0:
                tracks.append([part, phase, norm, norm])
        # Larger initial residual goes first (ties keep the real track first);
        # the order is fixed for the whole plan so step weights stay a tensor
        # product over the index register.
        tracks.sort(key=lambda tr: -tr[2])
        family_step = hash_step

    def residual_norm() -> float:
        # A Clifford plan records its track's norm, a hash plan (one track or
        # two) sqrt of the sum of `norm ** 2`: `norm * norm` can differ from
        # that in the last bit, and the trace is pinned.
        if strategy == "clifford":
            return tracks[0][3]
        return math.sqrt(sum(tr[3] ** 2 for tr in tracks))

    norms = [residual_norm()]
    steps: list[PlanStep] = []
    for k in range(params.T):
        for track in tracks:
            eta, phase, scale, norm = track
            index = len(steps)
            coeff = scale * params.alpha * params.beta**k
            step_seed = None if norm == 0.0 else derive_seed(seed, f"{strategy}-step-{index}")
            try:
                step, state = family_step(eta, norm, coeff, phase, index, step_seed)
            except SearchExhaustedError as err:
                raise err.at_step(index, norm) from err
            track[0] = eta = eta - coeff * state
            track[3] = _norm(eta)
            steps.append(step)
        norms.append(residual_norm())
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
    if not np.isfinite(psi.amps).all():
        raise ValueError("target amplitudes must be finite")
    nrm = float(np.linalg.norm(psi.amps))
    if nrm == 0.0:
        raise ValueError("zero-norm target")
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"target must be normalized, got norm {nrm}")
    if strategy not in ("clifford", "hash"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if mode not in ("exact", "perturbed"):
        raise ValueError(f"unknown mode {mode!r}")
    if max_trials < 0:
        raise ValueError(f"max_trials must be >= 0, got {max_trials}")
    bound = 0.0
    if mode == "perturbed":
        bound = perturb_bound if perturb_bound is not None else (
            2.0 ** (-psi.n / 2.0) * params.delta_fp
        )
    steps, norms = _plan_steps(psi, params, strategy, bound, seed, max_trials)
    return SynthesisPlan(params, tuple(steps), tuple(norms), PureState(psi.n, psi.amps))


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
    out += hs.support.astype("<u8").tobytes()
    out += np.packbits(hs.signs < 0, bitorder="little").tobytes()
    return bytes(out)


def steps_to_desc_section(steps: tuple[PlanStep, ...] | list[PlanStep]) -> bytes:
    return b"".join(step_record_bytes(s) for s in steps)


def _pad_z(desc_section: bytes) -> bytes:
    """z: the desc section zero-padded to a multiple of Z_PAD_MULTIPLE bytes."""
    return desc_section + bytes(-len(desc_section) % Z_PAD_MULTIPLE)


def _hash_record(record: bytes, n: int, k: int) -> HashState:
    """A hash step record (tag, k, k x n matrix, support, signs) whose length
    and matrix header were checked."""
    matrix, offset = F2Matrix.from_bytes(record, 3)
    support = np.frombuffer(record, "<u8", 1 << k, offset)
    packed = np.frombuffer(record[offset + 8 * (1 << k) :], dtype=np.uint8)
    bits = np.unpackbits(packed, count=1 << k, bitorder="little")
    return HashState(n, k, matrix, support, 1 - 2 * bits.astype(np.int64))


class OracleFormatError(ValueError):
    """Malformed oracle bytes; offset is where in the input the fault lies."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


def parse_desc_section(
    data: bytes, n: int, count: int
) -> list[CliffordDesc | HashState]:
    """Parse `count` step records back into their payloads.

    The section must hold exactly `count` well-formed records for n qubits
    and nothing after them.  Every record's length follows from n and its
    header, and is checked against the bytes left before its payload is
    built; any fault raises OracleFormatError at the record's offset.
    """
    clifford_size = 1 + len(cliff.desc_to_bytes(cliff.identity_desc(n)))
    out: list[CliffordDesc | HashState] = []
    offset = 0
    for _ in range(count):
        start = offset
        tag = data[start] if start < len(data) else None
        if tag == 0x01:
            size = clifford_size
        elif tag == 0x02:
            k = int.from_bytes(data[start + 1 : start + 3], "little")
            shape = k.to_bytes(2, "little") + n.to_bytes(2, "little")
            if k > n or data[start + 3 : start + 7] != shape:
                raise OracleFormatError(f"hash record is not a k x {n} matrix, k <= {n}", start)
            size = 7 + (k * n + 7) // 8 + 8 * (1 << k) + ((1 << k) + 7) // 8
        elif tag is None:
            raise OracleFormatError(f"section ends after {len(out)} of {count} records", start)
        else:
            raise OracleFormatError(f"unknown step tag {tag:#x}", start)
        if start + size > len(data):
            raise OracleFormatError(f"record needs {size} bytes, {len(data) - start} left", start)
        offset = start + size
        record = data[start:offset]
        try:
            if tag == 0x01:
                out.append(cliff.desc_from_bytes(record, 1, n)[0])
            else:
                out.append(_hash_record(record, n, k))
        except ValueError as err:
            raise OracleFormatError(f"bad step record: {err}", start) from err
    if offset != len(data):
        raise OracleFormatError(f"{len(data) - offset} bytes after the last record", offset)
    return out


@dataclass(frozen=True)
class OracleSpec:
    """Bit-exact truth table: T * 2^n sign bits, then the description string.

    Addresses [0, T * 2^n) return sign bits (bit j * 2^n + x is step j's sign
    at basis string x; 0 means +1).  Addresses beyond that return the bits of
    z (descriptions plus zero padding), LSB-first within each byte, and then
    zeros up to 2^total_input_bits.  The fields are n, t, the sign bits and
    the desc section; T = 2^t, z and total_input_bits (the width of the
    highest address holding a bit of z) are derived from them.
    """

    n: int
    t: int
    sign_bits: np.ndarray
    desc_section: bytes

    def __post_init__(self) -> None:
        bits = np.asarray(self.sign_bits, dtype=np.uint8)
        if bits.shape != (self.T << self.n,):
            raise ValueError(
                f"expected {self.T << self.n} sign bits, got shape {bits.shape}"
            )
        if bits.max(initial=0) > 1:
            raise ValueError("sign bits must be 0 or 1")
        object.__setattr__(self, "sign_bits", bits)

    @property
    def T(self) -> int:
        return 1 << self.t

    @cached_property
    def z(self) -> bytes:
        return _pad_z(self.desc_section)

    @cached_property
    def total_input_bits(self) -> int:
        return ((self.T << self.n) + 8 * len(self.z) - 1).bit_length()

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
        """Parse the binary format, rejecting malformed input before any
        allocation it sizes: a bad magic, n > 64 or t > 31 (the widths of
        the support indices and of T), T != 2^t, a length other than the
        one the header and the section length imply, or nonzero padding
        bits after the sign table, so that to_bytes gives the input back."""
        head = len(ORACLE_MAGIC) + 12
        if data[: len(ORACLE_MAGIC)] != ORACLE_MAGIC:
            raise OracleFormatError("bad oracle file magic", 0)
        if len(data) < head:
            raise OracleFormatError("file ends inside the header", len(data))
        n, t, T = (int.from_bytes(data[i : i + 4], "little") for i in range(5, head, 4))
        if n > 64 or t > 31:
            raise OracleFormatError(f"n={n}, t={t} outside n <= 64, t <= 31", 5)
        if T != 1 << t:
            raise OracleFormatError(f"T={T} is not 2^t for t={t}", 13)
        nbits = T << n
        offset = head + (nbits + 7) // 8
        if len(data) < offset + 8:
            raise OracleFormatError(
                f"file ends inside the {nbits}-bit sign table or the section length",
                len(data),
            )
        desc_len = int.from_bytes(data[offset : offset + 8], "little")
        if len(data) != offset + 8 + desc_len:
            raise OracleFormatError(
                f"section length {desc_len} but {len(data) - offset - 8} bytes follow",
                offset,
            )
        if nbits % 8 and data[offset - 1] >> (nbits % 8):
            raise OracleFormatError("nonzero padding after the sign bits", offset - 1)
        packed = np.frombuffer(data[head:offset], dtype=np.uint8)
        sign_bits = np.unpackbits(packed, count=nbits, bitorder="little")
        desc_section = bytes(data[offset + 8 :])
        return OracleSpec(n, t, sign_bits, desc_section)

    def write_file(self, path: str) -> None:
        with open(path, "wb") as handle:
            handle.write(self.to_bytes())

    @staticmethod
    def read_file(path: str) -> "OracleSpec":
        with open(path, "rb") as handle:
            return OracleSpec.from_bytes(handle.read())


def plan_to_oracle(plan: SynthesisPlan) -> OracleSpec:
    """Flatten a plan into its addressable truth table."""
    sign_bits = np.concatenate([step.signs.bits for step in plan.steps])
    return OracleSpec(plan.params.n, plan.t_register, sign_bits, plan.desc_section)
