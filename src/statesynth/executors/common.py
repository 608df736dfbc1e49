"""Shared circuit machinery for the query drivers.

The central object is :class:`PostselectCircuit`: the unitary A that loads
the step-weight superposition on the index register, queries the oracle once
(phase kickback on the sign table, XOR of the description string into a
classical register), applies the indexed step transforms, and unloads the
index register.  All drivers are built from forward/inverse applications of
this circuit, so query and z bookkeeping live here.

:class:`PreparedCircuit` is where every driver starts, and the one owner of
A and A^dagger, ideal mode included.  It builds the circuit once per driver
call, runs A|0> once, and holds the pieces all constructions share: the
actual state, its normalized junk direction tau_hat, the nominal amplitude
gamma and delta = sqrt(1 - gamma^2).  In ideal mode the prepared state is
the designed gamma |0..0>|psi> + delta |tau_hat>, and A is composed with a
planar rotation that sends |0..0> to A^dagger of it, so the drivers see a
genuine unitary that prepares the designed state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .. import clifford as cliff
from ..numerics import DensityMatrix, PureState
from ..synthesis import (
    OracleSpec,
    SynthesisPlan,
    build_plan,
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
    output for mixed-output drivers.  copies is the number of circuit copies
    the one- and four-query drivers ran.  Unused metrics are None.
    """

    query_count: int
    success_amplitude: float | None = None
    error_2norm: float | None = None
    error_trace: float | None = None
    output_pure: PureState | None = None
    output_reduced: DensityMatrix | None = None
    copies: int | None = None


def query_substitution_bound(query_count: int, deviation: float) -> float:
    """Output-error bound when each queried oracle call is off by `deviation`
    in operator distance: sqrt(2) * query_count * deviation."""
    if query_count < 0:
        raise ValueError(f"query_count must be nonnegative, got {query_count}")
    if deviation < 0.0:
        raise ValueError(f"deviation must be nonnegative, got {deviation}")
    return math.sqrt(2.0) * query_count * deviation


def _ratio_gate(r: float) -> np.ndarray:
    """The rotation [[a, -ra], [ra, a]], a = 1 / sqrt(1 + r^2): it sends |0>
    to a|0> + ra|1>, amplitudes in the ratio 1 : r."""
    a = 1.0 / math.sqrt(1.0 + r * r)
    return np.array([[a, -r * a], [r * a, a]])


def _weight_gates(weights: np.ndarray, t_reg: int) -> list[np.ndarray]:
    """Per-qubit ratio gates whose tensor product maps |0..0> to
    sqrt(weights / sum)."""
    sigma = np.sqrt(weights / weights.sum())
    gates = [_ratio_gate(sigma[1 << (t_reg - 1 - q)] / sigma[0]) for q in range(t_reg)]
    check = gates[0][:, 0]
    for gate in gates[1:]:
        check = np.kron(check, gate[:, 0])
    if not np.allclose(check, sigma, rtol=0.0, atol=1e-12):
        raise ValueError("step weights do not factor over the index register")
    return gates


def _index_qubit_gate(view: np.ndarray, mat: np.ndarray, scratch: np.ndarray) -> None:
    """Apply the 2x2 gate mat in place to the qubit that axis 1 of view
    splits out, view being a (2^q, 2, 2^(t_reg-1-q), cols) reshape of an
    index-register state.  scratch has view's shape with the size-2 axis
    first.  Row 0 gets mat[0,0] v0 + mat[0,1] v1 and row 1 mat[1,0] v0 +
    mat[1,1] v1, each product with the real coefficient as its left operand,
    so the result is bit-identical to evaluating those sums into fresh
    arrays."""
    mul, add = np.multiply, np.add
    v0, v1 = view[:, 0], view[:, 1]
    s0, s1 = scratch
    mul(mat[0, 0], v0, s0)
    mul(mat[0, 1], v1, s1)
    add(s0, s1, s0)
    mul(mat[1, 0], v0, s1)
    mul(mat[1, 1], v1, v1)
    add(s1, v1, v1)
    np.copyto(v0, s0)


def _hadamard_target(state: np.ndarray, n: int) -> np.ndarray:
    """H on every target-register qubit of a (rows, 2^n) state."""
    for i in range(n):
        cliff._butterfly(state, n, i, None)
    return state


class _PlanarRotation:
    """The rank-two unitary taking unit vector w to xi: the queried sign state
    to a hash step's state, or (ideal mode) |0..0> to A^dagger |designed>.

    It stores the frame (w, g) of the plane and its image (xi, xi_perp);
    the inverse is the same map with the two frames swapped.  When xi = c w
    (s = 0) the plane degenerates and the map scales the w component by c,
    or by conj(c) for the inverse.
    """

    def __init__(self, w: np.ndarray, xi: np.ndarray) -> None:
        w = w.astype(np.complex128)
        xi = xi.astype(np.complex128)
        c = complex(np.vdot(w, xi))
        s = math.sqrt(max(0.0, 1.0 - abs(c) ** 2))
        self.c = c
        self.w = w
        self.frames = None
        if s > 1e-14:
            g = (xi - c * w) / s
            self.frames = ((w, g), (xi, s * w - np.conj(c) * g))

    def _map(self, v: np.ndarray, inverse: bool) -> np.ndarray:
        if self.frames is None:
            c = np.conj(self.c) if inverse else self.c
            return v + np.vdot(self.w, v) * (c - 1.0) * self.w
        (u0, u1), (d0, d1) = self.frames[::-1] if inverse else self.frames
        a0 = np.vdot(u0, v)
        a1 = np.vdot(u1, v)
        return v - a0 * u0 - a1 * u1 + a0 * d0 + a1 * d1

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self._map(v, inverse=False)

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        return self._map(v, inverse=True)


class PostselectCircuit:
    """The plan's circuit A as an applicable unitary with query accounting.

    States are (2^t_reg, 2^n) complex arrays: axis 0 is the step-index
    register (all-zeros row flags success), axis 1 the target register.
    Forward and inverse applications each consume one merged oracle query,
    which XORs the oracle's z string into the classical description
    register; that register is therefore the query parity times z, and
    z_register derives it from query_count.
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
        self._gates = _weight_gates(weights, self.t_reg)
        self._sign_matrix = 1.0 - 2.0 * plan_bits.astype(np.float64)
        self._rotations: list[tuple[int, _PlanarRotation]] = []
        scale = 1.0 / math.sqrt(self.dim)
        for j, step in enumerate(steps):
            if step.kind == "hash":
                w = step.signs.signs() * scale
                xi = step.phase * step.hash_state.state_vector()
                self._rotations.append((j, _PlanarRotation(w, xi)))
        self._clifford_rows = [j for j, step in enumerate(steps) if step.kind == "clifford"]
        # The step descriptions compiled into one batched layer, per direction,
        # on first use.
        self._layers: dict[bool, cliff.CliffordLayer] = {}
        self.query_count = 0

    @property
    def z_register(self) -> bytes:
        """The classical description register: every query XORs z into it,
        so it holds z after an odd number of queries and zeros after an
        even number."""
        z = self.oracle.z
        return z if self.query_count % 2 else bytes(len(z))

    def zero_state(self) -> np.ndarray:
        state = np.zeros((self.rows, self.dim), dtype=np.complex128)
        state[0, 0] = 1.0
        return state

    def _gate_index(self, state: np.ndarray, gates: list[np.ndarray], cols: int) -> np.ndarray:
        """Apply gates[q] to index qubit q of state, in place, on its
        first cols columns, through one scratch buffer."""
        scratch = np.empty(self.rows * cols, dtype=np.complex128)
        for q, gate in enumerate(gates):
            split = (1 << q, 1 << (self.t_reg - 1 - q))
            view = state.reshape(split[0], 2, split[1], self.dim)[..., :cols]
            _index_qubit_gate(view, gate, scratch.reshape(2, *split, cols))
        return state

    def _load(self, state: np.ndarray) -> np.ndarray:
        # Only the leading columns holding a nonzero bit pattern are gated
        # (-0.0 counts as occupied).  Columns act independently, and every
        # weight gate row has a positive entry, so it would map a column of
        # +0.0 to +0.0 anyway: the zero state loads one column, not 2^n.
        occupied = np.flatnonzero(state.view(np.uint64).any(axis=0))
        cols = int(occupied[-1]) // 2 + 1 if occupied.size else 0
        return self._gate_index(state, self._gates, cols)

    def _unload(self, state: np.ndarray) -> np.ndarray:
        return self._gate_index(state, [gate.T for gate in self._gates], self.dim)

    def _query(self, state: np.ndarray) -> np.ndarray:
        self.query_count += 1
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
    plan: SynthesisPlan | None = None,
    oracle: OracleSpec | None = None,
) -> tuple[SynthesisPlan, OracleSpec]:
    """Pass through the plan and oracle a driver should query, building the
    default plan (Clifford, exact signs, seed 0, derived t) and its oracle
    for whichever is missing.  A given plan must have been built for psi:
    drivers report on plan.target, so any other psi is refused."""
    if plan is None:
        plan = build_plan(psi, derive_params(psi.n, epsilon))
    elif psi.n != plan.target.n or not np.array_equal(psi.amps, plan.target.amps):
        raise ValueError("psi is not the target the plan was built for")
    if oracle is None:
        oracle = plan_to_oracle(plan)
    return plan, oracle


class PreparedCircuit:
    """The plan's A and A^dagger, and A|0..0>, for one driver call.

    actual is A|0..0> on the plan's circuit, tau_hat its normalized junk
    branch, gamma the nominal amplitude and delta = sqrt(1 - gamma^2).  The
    driver reads the prepared state, its success amplitude and its
    normalized success branch as state, amp and theta_hat: the actual
    state, the norm of its row 0 and that row normalized, or in ideal mode
    the designed state, gamma and the target psi.  circuit keeps counting
    the queries the driver applies next, through apply and apply_dagger.
    """

    def __init__(self, plan: SynthesisPlan, oracle: OracleSpec, ideal: bool = False) -> None:
        self.plan = plan
        self.ideal = ideal
        self.circuit = PostselectCircuit(plan, oracle)
        self.actual = self.circuit.prepare()
        self.gamma = nominal_success_amplitude(plan)
        self.delta = math.sqrt(1.0 - self.gamma**2)
        if ideal:
            self.state = self.designed
            self.amp = self.gamma
        else:
            self.state = self.actual
            self.amp = float(np.linalg.norm(self.actual[0]))

    @cached_property
    def theta_hat(self) -> np.ndarray:
        """The normalized success branch: psi in ideal mode."""
        if self.ideal:
            return self.plan.target.amps.copy()
        return self.actual[0] / self.amp

    @cached_property
    def tau_hat(self) -> np.ndarray:
        """The normalized junk branch: A|0..0> with the success row removed."""
        junk = self.actual.copy()
        junk[0] = 0.0
        norm = float(np.linalg.norm(junk))
        if norm == 0.0:
            raise ValueError("prepared state has no junk branch to amplify")
        return junk / norm

    @cached_property
    def designed(self) -> np.ndarray:
        """gamma |0..0>|psi> + delta |tau_hat>: the prepared state the ideal
        modes run on, with the circuit's own junk direction."""
        designed = self.delta * self.tau_hat
        designed[0] += self.gamma * self.plan.target.amps
        return designed

    @cached_property
    def _ideal_rotation(self) -> _PlanarRotation:
        """|0..0> -> A^dagger |designed>, so that A after it prepares the
        designed state.  Its construction applies A^dagger once."""
        e0 = np.zeros(self.circuit.rows * self.circuit.dim, dtype=np.complex128)
        e0[0] = 1.0
        return _PlanarRotation(e0, self.circuit.apply_dagger(self.designed).reshape(-1))

    def apply(self, state: np.ndarray) -> np.ndarray:
        """A |state>, A composed with the ideal-mode rotation in ideal mode."""
        if self.ideal:
            state = self._ideal_rotation.apply(state.reshape(-1)).reshape(state.shape)
        return self.circuit.apply(state)

    def apply_dagger(self, state: np.ndarray) -> np.ndarray:
        """A^dagger |state>, the exact inverse of apply."""
        state = self.circuit.apply_dagger(state)
        if self.ideal:
            state = self._ideal_rotation.apply_inverse(state.reshape(-1)).reshape(state.shape)
        return state
