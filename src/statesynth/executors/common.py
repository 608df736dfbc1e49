"""Shared circuit machinery for the query drivers.

The central object is :class:`PostselectCircuit`: the unitary A that loads
the step-weight superposition on the index register, queries the oracle once
(phase kickback on the sign table, XOR of the description string into a
classical register), applies the indexed step transforms, and unloads the
index register.  All drivers are built from forward/inverse applications of
this circuit, so query and z bookkeeping live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import clifford as cliff
from ..numerics import DensityMatrix, PureState
from ..synthesis import (
    OracleSpec,
    SynthesisPlan,
    build_plan,
    derive_hash_params,
    derive_params,
    nominal_success_amplitude,
    plan_to_oracle,
)


class OracleMismatchError(RuntimeError):
    """The supplied oracle does not serve the plan's bits."""


@dataclass(frozen=True)
class ExecutionReport:
    """What a driver measured: query count, branch amplitude, error metrics.

    output_pure is the final register state when the driver ends in a pure
    state it can afford to materialize; output_reduced is the traced-out
    output for mixed-output drivers.  Unused metrics are None.
    """

    query_count: int
    success_amplitude: float | None = None
    error_2norm: float | None = None
    error_trace: float | None = None
    output_pure: PureState | None = None
    output_reduced: DensityMatrix | None = None


def query_substitution_bound(query_count: int, deviation: float) -> float:
    """Output-error bound when each queried oracle call is off by `deviation`
    in operator distance: sqrt(2) * query_count * deviation."""
    if query_count < 0:
        raise ValueError(f"query_count must be nonnegative, got {query_count}")
    if deviation < 0.0:
        raise ValueError(f"deviation must be nonnegative, got {deviation}")
    return math.sqrt(2.0) * query_count * deviation


def _weight_factors(weights: np.ndarray, t_reg: int) -> list[np.ndarray]:
    """Per-qubit (a, b) columns whose tensor product is sqrt(weights / sum)."""
    sigma = np.sqrt(weights / weights.sum())
    factors = []
    for q in range(t_reg):
        ratio = sigma[1 << (t_reg - 1 - q)] / sigma[0]
        a = 1.0 / math.sqrt(1.0 + ratio * ratio)
        factors.append(np.array([a, ratio * a]))
    check = factors[0]
    for f in factors[1:]:
        check = np.kron(check, f)
    if not np.allclose(check, sigma, rtol=0.0, atol=1e-12):
        raise ValueError("step weights do not factor over the index register")
    return factors


def _index_qubit_gate(state: np.ndarray, t_reg: int, q: int, mat: np.ndarray) -> np.ndarray:
    """Apply a 2x2 gate to index-register qubit q of a (2^t_reg, 2^n) state."""
    tail = state.shape[1]
    view = state.reshape(1 << q, 2, 1 << (t_reg - 1 - q), tail)
    out = np.empty_like(view)
    out[:, 0] = mat[0, 0] * view[:, 0] + mat[0, 1] * view[:, 1]
    out[:, 1] = mat[1, 0] * view[:, 0] + mat[1, 1] * view[:, 1]
    return out.reshape(state.shape)


def _hadamard_target(state: np.ndarray, n: int) -> np.ndarray:
    """H on every target-register qubit of a (rows, 2^n) state."""
    for i in range(n):
        cliff._butterfly(state, n, i, None)
    return state


class _HashRotation:
    """The rank-two unitary taking the queried sign state to a hash step's state."""

    def __init__(self, w: np.ndarray, xi: np.ndarray) -> None:
        self.w = w.astype(np.complex128)
        self.xi = xi.astype(np.complex128)
        c = complex(np.vdot(self.w, self.xi))
        s = math.sqrt(max(0.0, 1.0 - abs(c) ** 2))
        self.c = c
        self.s = s
        if s > 1e-14:
            self.g = (self.xi - c * self.w) / s
            self.xi_perp = s * self.w - np.conj(c) * self.g
        else:
            self.g = None
            self.xi_perp = None

    def apply(self, v: np.ndarray) -> np.ndarray:
        aw = np.vdot(self.w, v)
        if self.g is None:
            return v + aw * (self.c - 1.0) * self.w
        ag = np.vdot(self.g, v)
        return v - aw * self.w - ag * self.g + aw * self.xi + ag * self.xi_perp

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        if self.g is None:
            return v + np.vdot(self.xi, v) * (np.conj(self.c) - 1.0) * self.w
        axi = np.vdot(self.xi, v)
        aperp = np.vdot(self.xi_perp, v)
        return (
            v
            - axi * self.xi
            - aperp * self.xi_perp
            + axi * self.w
            + aperp * self.g
        )


class PostselectCircuit:
    """The plan's circuit A as an applicable unitary with query accounting.

    States are (2^t_reg, 2^n) complex arrays: axis 0 is the step-index
    register (all-zeros row flags success), axis 1 the target register.
    Forward and inverse applications each consume one merged oracle query
    and XOR the oracle's z string into the classical register.
    """

    def __init__(self, plan: SynthesisPlan, oracle: OracleSpec) -> None:
        n = plan.params.n
        steps = plan.steps
        if oracle.n != n or oracle.T != len(steps) or oracle.t != plan.t_register:
            raise OracleMismatchError(
                f"oracle shape ({oracle.n}, {oracle.t}, {oracle.T}) does not match "
                f"plan ({n}, {plan.t_register}, {len(steps)})"
            )
        plan_bits = np.stack([step.signs.bits for step in steps])
        if not np.array_equal(oracle.sign_rows(), plan_bits):
            raise OracleMismatchError("oracle sign table disagrees with the plan")
        if oracle.z != plan.z:
            raise OracleMismatchError("oracle description string disagrees with the plan")
        self.plan = plan
        self.oracle = oracle
        self.n = n
        self.dim = 1 << n
        self.t_reg = plan.t_register
        self.rows = 1 << self.t_reg
        weights = np.array([s.coefficient for s in steps])
        factors = _weight_factors(weights, self.t_reg)
        self._gates = [
            np.array([[f[0], -f[1]], [f[1], f[0]]]) for f in factors
        ]
        self._sign_matrix = 1.0 - 2.0 * plan_bits.astype(np.float64)
        self._rotations: list[tuple[int, _HashRotation]] = []
        scale = 1.0 / math.sqrt(self.dim)
        for j, step in enumerate(steps):
            if step.kind == "hash":
                w = step.signs.signs() * scale
                xi = step.phase * step.hash_state.state_vector()
                self._rotations.append((j, _HashRotation(w, xi)))
        self._clifford_rows = [j for j, step in enumerate(steps) if step.kind == "clifford"]
        # The step descriptions compiled into one batched layer, per direction,
        # on first use.
        self._layers: dict[bool, cliff.CliffordLayer] = {}
        self.query_count = 0
        self.z_register = bytes(len(plan.z))

    def zero_state(self) -> np.ndarray:
        state = np.zeros((self.rows, self.dim), dtype=np.complex128)
        state[0, 0] = 1.0
        return state

    def _load(self, state: np.ndarray) -> np.ndarray:
        for q, gate in enumerate(self._gates):
            state = _index_qubit_gate(state, self.t_reg, q, gate)
        return state

    def _unload(self, state: np.ndarray) -> np.ndarray:
        for q, gate in enumerate(self._gates):
            state = _index_qubit_gate(state, self.t_reg, q, gate.T)
        return state

    def _query(self, state: np.ndarray) -> np.ndarray:
        self.query_count += 1
        z = self.oracle.z
        merged = int.from_bytes(self.z_register, "little") ^ int.from_bytes(z, "little")
        self.z_register = merged.to_bytes(len(z), "little")
        return state * self._sign_matrix

    def _steps(self, state: np.ndarray, invert: bool) -> np.ndarray:
        for j, rot in self._rotations:
            state[j] = rot.apply_inverse(state[j]) if invert else rot.apply(state[j])
        rows = self._clifford_rows
        if rows:
            layer = self._layers.get(invert)
            if layer is None:
                descs = [self.plan.steps[j].desc for j in rows]
                layer = self._layers[invert] = cliff.CliffordLayer(descs, invert)
            state[rows] = layer(state[rows])
        return state

    def apply(self, state: np.ndarray) -> np.ndarray:
        """A |state>: one query."""
        state = self._load(state.copy())
        state = _hadamard_target(state, self.n)
        state = self._query(state)
        state = self._steps(state, invert=False)
        return self._unload(state)

    def apply_dagger(self, state: np.ndarray) -> np.ndarray:
        """A^dagger |state>: one query."""
        state = self._load(state.copy())
        state = self._steps(state, invert=True)
        state = self._query(state)
        state = _hadamard_target(state, self.n)
        return self._unload(state)

    def prepare(self) -> np.ndarray:
        return self.apply(self.zero_state())


def ensure_plan(
    psi: PureState,
    epsilon: float,
    strategy: str = "clifford",
    mode: str = "exact",
    seed: int = 0,
    t_override: int | None = None,
    plan: SynthesisPlan | None = None,
    oracle: OracleSpec | None = None,
    max_trials: int = 1000,
) -> tuple[SynthesisPlan, OracleSpec]:
    """Build (or pass through) the plan and oracle a driver should query."""
    if plan is None:
        if strategy == "hash":
            params = derive_hash_params(psi.n, epsilon, t_override)
        else:
            params = derive_params(psi.n, epsilon, t_override)
        plan = build_plan(
            psi, params, strategy=strategy, mode=mode, seed=seed, max_trials=max_trials
        )
    if oracle is None:
        oracle = plan_to_oracle(plan)
    return plan, oracle


def success_branch(state: np.ndarray) -> np.ndarray:
    """The target-register amplitudes flagged by the all-zeros index row."""
    return state[0].copy()


def postselect_metrics(
    plan: SynthesisPlan, state: np.ndarray
) -> tuple[float, float, float]:
    """(success amplitude, 2-norm error, postselected trace distance).

    The 2-norm error is the distance from the prepared state to the nearest
    state of the designed form g |0..0>|psi> + sqrt(1 - g^2) |junk> with the
    junk branch orthogonal to the success flag and g the plan's nominal
    success amplitude.
    """
    theta = success_branch(state)
    g = nominal_success_amplitude(plan)
    psi = plan.target.amps
    amp = float(np.linalg.norm(theta))
    flag_err_sq = float(np.linalg.norm(theta - g * psi) ** 2)
    rest = math.sqrt(max(0.0, 1.0 - amp * amp))
    rest_err = rest - math.sqrt(max(0.0, 1.0 - g * g))
    error_2norm = math.sqrt(flag_err_sq + rest_err * rest_err)
    if amp > 0.0:
        overlap = min(1.0, abs(complex(np.vdot(psi, theta))) / amp)
    else:
        overlap = 0.0
    error_trace = math.sqrt(max(0.0, 1.0 - overlap * overlap))
    return amp, error_2norm, error_trace
