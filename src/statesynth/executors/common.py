"""Shared circuit machinery for the query drivers.

The central object is :class:`PostselectCircuit`: the unitary A that loads
the step-weight superposition on the index register, queries the oracle once
(phase kickback on the sign table, XOR of the description string into a
classical register), applies the indexed step transforms, and unloads the
index register.  All drivers are built from forward/inverse applications of
this circuit, so query and z bookkeeping live here.

What A takes from the plan alone is built once per plan and shared by every
driver call on it: the weight gates, the stacked sign bits, the hash steps'
planar rotations stacked into one layer, one batched Clifford step layer per
direction over the steps whose description is not the identity, compiled on
first use, and A|0..0> itself, read-only, computed on the first call that
prepares it.  The rotation layer keeps two numbers per row and the hash
states in compact form.  A runs in the state's own register plus buffers of
a few blocks of about _BLOCK_AMPS amplitudes: the index gates, the target
H, the query's +-1 signs and the rotation frames are all made a block at a
time.  So the plan holds no (T, 2^n) array but A|0..0>, and the only
register-sized transient of a pass is the Clifford step layer's gather of
its non-identity rows.  The parts are cached on the plan, so they live
exactly as long as the plan does.  Each driver call still builds its own
:class:`PostselectCircuit`, which checks the oracle against the plan and
counts the queries of that call.

:class:`PreparedCircuit` is where every driver starts, and the one owner of
A and A^dagger, ideal mode included.  Per driver call it builds the circuit,
takes A|0..0> from it (one counted query, computed once per plan), and
holds the pieces all constructions share: the actual state, its normalized
junk direction tau_hat, the nominal amplitude gamma and
delta = sqrt(1 - gamma^2).  In ideal mode the prepared state is
the designed gamma |0..0>|psi> + delta |tau_hat>, and A is composed with a
planar rotation that sends |0..0> to A^dagger of it (the one-row case of
the hash steps' rotation layer), so the drivers see a genuine unitary that
prepares the designed state.
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
    """H on every target-register qubit of a (rows, 2^n) state, in place, a
    block of rows (from _blocks) at a time through clifford's _butterfly:
    the same operations and operands per amplitude as on the whole state."""
    for b in _blocks(state.shape[0], 1 << n):
        block = state[b]
        scratch = cliff._butterfly_scratch(block)
        for i in range(n):
            cliff._butterfly(block, n, i, None, scratch)
    return state


#: A works in blocks holding about this many amplitudes (256 KiB), so that
#: the index gates' scratch, the target H, the query's +-1 rows and the
#: rotation layer's rebuilt frames stay small next to the state.  Of
#: these, the rotation layer's buffer of five such blocks is the largest.
_BLOCK_AMPS = 1 << 14


def _blocks(rows: int, d: int) -> list[slice]:
    """Consecutive row slices covering rows rows of length d, a block each."""
    step = max(1, _BLOCK_AMPS // d)
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _row_dots(u: np.ndarray, v: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """np.vdot(u[r], v[r]) for every row r of two (rows, d) arrays, as a
    (rows, 1) column, through scratch, a (rows, d) buffer it overwrites.
    A stacked product of the conjugated rows gives vdot's bits."""
    np.conjugate(u, out=scratch)
    return np.matmul(scratch[:, None, :], v[:, :, None])[:, :, 0]


class _DenseRows:
    """Frame rows held as one stacked (rows, d) complex array."""

    #: Buffer slots that block() writes: none, it returns a view.
    slots = 0

    def __init__(self, array: np.ndarray) -> None:
        self.array = array
        self.shape = array.shape

    def block(self, b: slice, spare) -> np.ndarray:
        """Rows b: a view of the array, taking nothing from spare."""
        return self.array[b]


def _signs(bits: np.ndarray) -> np.ndarray:
    """The +-1 float64 signs 1 - 2 bit of a block of sign bits."""
    return 1.0 - 2.0 * bits.astype(np.float64)


class _SignRows:
    """The sign states of the given rows of a sign-bit table: each row's
    +-1 signs times scale, the same product, cast to complex, that a dense
    array of them would hold."""

    slots = 1

    def __init__(self, bits: np.ndarray, rows: np.ndarray, scale: float) -> None:
        self.bits = bits
        self.rows = rows
        self.scale = scale
        self.shape = (len(rows), bits.shape[1])

    def block(self, b: slice, spare) -> np.ndarray:
        """Rows b, written into the next buffer slot of spare and returned."""
        return np.multiply(_signs(self.bits[self.rows[b]]), self.scale, out=next(spare))


class _SparseRows:
    """Frame rows phase[i] * x[i] with x[i] real and nonzero only on a
    support: a hash state's phased state vector.  It holds the phases, one
    per row, and the supports' flat positions in the stacked (rows, d)
    array and their values, row after row in one array each; starts[i] is
    where row i's entries begin."""

    slots = 1

    def __init__(self, d: int, phases, supports, values) -> None:
        counts = [len(support) for support in supports]
        self.shape = (len(counts), d)
        self.phases = np.array(phases, dtype=np.complex128)[:, None]
        self.starts = np.concatenate(([0], np.cumsum(counts))).tolist()
        self.positions = np.repeat(np.arange(len(counts)) * d, counts) + np.concatenate(supports)
        self.values = np.concatenate(values)

    def block(self, b: slice, spare) -> np.ndarray:
        """Rows b, written into the next buffer slot of spare and returned:
        zeros, then the support values, then the product with the phases,
        as phase * state_vector() computes a row."""
        out = next(spare)
        lo, hi = self.starts[b.start], self.starts[b.stop]
        out.fill(0.0)
        flat = out.reshape(-1)
        flat[self.positions[lo:hi] - b.start * self.shape[1]] = self.values[lo:hi]
        return np.multiply(self.phases[b], out, out=out)


class _PlanarRotations:
    """A layer of rank-two unitaries on the given rows of a state: layer
    row i takes the unit vector w[i] to xi[i] in state row rows[i], the
    queried sign state to a hash step's state.  Ideal mode is the one-row
    case on the flattened register: |0..0> to A^dagger |designed>.

    The plane of row i is framed by (w, g) and its image by (xi, xi_perp),
    with g = (xi - c w) / s, xi_perp = s w - conj(c) g, c = <w, xi> and
    s = sqrt(max(0, 1 - |c|^2)); the inverse is the same map with the two
    frames swapped.  A row with xi = c w (s <= 1e-14) is degenerate: its
    map scales the w component by c, or by conj(c) for the inverse.

    w and xi are row sources (_DenseRows, _SignRows, _SparseRows) of the
    same (len(rows), d) shape; a source's block(b, spare) takes its
    ``slots`` buffer slots (1, or 0 for a view) from the iterator spare.
    The layer stores only c, s and the degenerate rows; each application
    rebuilds the four frames a block of rows at a time, into one buffer,
    by the formulas above.  Every formula
    is the one a single row would use, so neither stacking nor blocking
    the rows moves a bit.
    """

    def __init__(self, w, xi, rows: np.ndarray) -> None:
        self.w, self.xi, self.rows = w, xi, rows
        buf = self._buffer()
        c = np.empty((len(rows), 1), dtype=np.complex128)
        for b in _blocks(*w.shape):
            c[b] = _row_dots(*self._sources(b, buf), buf[0, : b.stop - b.start])
        cs = c[:, 0].tolist()
        s = np.array([math.sqrt(max(0.0, 1.0 - abs(ci) ** 2)) for ci in cs])
        degenerate = s <= 1e-14
        self.degenerate = [(i, cs[i]) for i in np.flatnonzero(degenerate).tolist()]
        # A degenerate row's frames are never read; dividing by 1 keeps them finite.
        self.s = np.where(degenerate, 1.0, s).astype(np.complex128)[:, None]
        self.c = c

    def _buffer(self) -> np.ndarray:
        """Room for one block's scratch, g and xi_perp, then for w and xi
        where their sources build the rows rather than view them."""
        rows, d = self.w.shape
        slots = 3 + self.w.slots + self.xi.slots
        return np.empty((slots, min(rows, max(1, _BLOCK_AMPS // d)), d), dtype=np.complex128)

    def _sources(self, b: slice, buf: np.ndarray) -> tuple:
        """(w, xi) of layer rows b, built in buf's slots from 3 on."""
        spare = iter(buf[3:, : b.stop - b.start])
        return self.w.block(b, spare), self.xi.block(b, spare)

    def frames(self, b: slice, buf: np.ndarray) -> tuple:
        """((w, g), (xi, xi_perp)) of layer rows b, rebuilt in buf (from
        _buffer), whose first slot is left as scratch."""
        scratch, g, xi_perp = buf[:3, : b.stop - b.start]
        w, xi = self._sources(b, buf)
        np.multiply(self.c[b], w, out=g)
        np.subtract(xi, g, out=g)
        np.divide(g, self.s[b], out=g)
        np.multiply(self.s[b], w, out=xi_perp)
        np.multiply(np.conj(self.c[b]), g, out=scratch)
        np.subtract(xi_perp, scratch, out=xi_perp)
        return (w, g), (xi, xi_perp)

    def __call__(self, state: np.ndarray, inverse: bool) -> np.ndarray:
        """The layer (or its inverse) on state, in place, a block of rows at
        a time: each row v becomes v - a0 u0 - a1 u1 + a0 d0 + a1 d1, with
        a_i = <u_i, v>."""
        kept = [state[self.rows[i]].copy() for i, _ in self.degenerate]
        buf = self._buffer()
        for b in _blocks(*self.w.shape):
            frames = self.frames(b, buf)
            (u0, u1), (d0, d1) = frames[::-1] if inverse else frames
            at = self.rows[b]
            v = state[at]
            scratch = buf[0, : len(v)]
            a0 = _row_dots(u0, v, scratch)
            a1 = _row_dots(u1, v, scratch)
            for a, u, op in ((a0, u0, np.subtract), (a1, u1, np.subtract),
                             (a0, d0, np.add), (a1, d1, np.add)):
                np.multiply(a, u, out=scratch)
                op(v, scratch, out=v)
            state[at] = v
        for (i, c), x in zip(self.degenerate, kept):
            w = self.w.block(slice(i, i + 1), iter(buf[3:, :1]))[0]
            state[self.rows[i]] = x + np.vdot(w, x) * ((np.conj(c) if inverse else c) - 1.0) * w
        return state


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _PlanCircuit:
    """What the circuit A takes from the plan alone, shared by every
    PostselectCircuit on the plan.

    It holds the index-register weight gates and their transposes, the
    stacked (T, 2^n) sign bits, from which the query and the rotations
    rebuild +-1 signs a block of rows at a time, the hash steps' planar
    rotations as one _PlanarRotations layer over their rows (None when there
    are none), which keeps c and s per row and rebuilds its frames per
    application from the sign bits and the hash states' supports, signs and
    phases held flat, and the Clifford step rows whose description is not
    ``identity_desc(n)``, with one CliffordLayer per direction over just
    those rows, compiled on first use.  The identity layer only copies, so
    leaving its rows out keeps every bit.  prepared is A|0..0>, read-only,
    once PostselectCircuit.prepare has built it (None before).  Nothing
    here refers back to the plan, so caching it on the plan keeps no plan
    alive.
    """

    def __init__(self, plan: SynthesisPlan) -> None:
        steps = plan.steps
        t_reg = plan.t_register
        self.sign_bits = _read_only(np.stack([step.signs.bits for step in steps]))
        weights = np.array([s.coefficient for s in steps])
        self.gates = tuple(_read_only(gate) for gate in _weight_gates(weights, t_reg))
        self.gates_t = tuple(gate.T for gate in self.gates)
        rows = _read_only(np.array(
            [j for j, step in enumerate(steps) if step.kind == "hash"], dtype=np.intp
        ))
        self.rotations = None
        if rows.size:
            dim = 1 << plan.params.n
            w = _SignRows(self.sign_bits, rows, 1.0 / math.sqrt(dim))
            hashed = [steps[j] for j in rows.tolist()]
            xi = _SparseRows(
                dim,
                [step.phase for step in hashed],
                [step.hash_state.support for step in hashed],
                [step.hash_state.amplitudes() for step in hashed],
            )
            self.rotations = _PlanarRotations(w, xi, rows)
        identity = cliff.identity_desc(plan.params.n)
        rows = [
            j for j, step in enumerate(steps)
            if step.kind == "clifford" and step.desc is not identity
        ]
        self.clifford_rows = _read_only(np.array(rows, dtype=np.intp))
        self._descs = tuple(steps[j].desc for j in rows)
        self._layers: dict[bool, cliff.CliffordLayer] = {}
        self.prepared: np.ndarray | None = None

    def layer(self, invert: bool) -> cliff.CliffordLayer:
        """The non-identity step rows compiled into one layer, per direction."""
        layer = self._layers.get(invert)
        if layer is None:
            layer = self._layers[invert] = cliff.CliffordLayer(self._descs, invert)
        return layer


def _plan_circuit(plan: SynthesisPlan) -> _PlanCircuit:
    """The plan's _PlanCircuit, built on first use and then cached in the
    plan's instance dict, the way its cached desc_section and z are, so that
    it is freed with the plan."""
    parts = plan.__dict__.get("_plan_circuit")
    if parts is None:
        parts = plan.__dict__["_plan_circuit"] = _PlanCircuit(plan)
    return parts


class PostselectCircuit:
    """The plan's circuit A as an applicable unitary with query accounting.

    States are (2^t_reg, 2^n) complex arrays: axis 0 is the step-index
    register (all-zeros row flags success), axis 1 the target register.
    Forward and inverse applications each consume one merged oracle query,
    which XORs the oracle's z string into the classical description
    register; that register is therefore the query parity times z, and
    z_register derives it from query_count.

    Each instance checks its oracle against the plan and counts its own
    queries; the gates, signs, rotations and compiled step layers come from
    the plan's shared, once-built _PlanCircuit.
    """

    def __init__(self, plan: SynthesisPlan, oracle: OracleSpec) -> None:
        n = plan.params.n
        steps = plan.steps
        if oracle.n != n or oracle.T != len(steps) or oracle.t != plan.t_register:
            raise OracleMismatchError(
                f"oracle shape ({oracle.n}, {oracle.t}, {oracle.T}) does not match "
                f"plan ({n}, {plan.t_register}, {len(steps)})"
            )
        parts = _plan_circuit(plan)
        if not np.array_equal(oracle.sign_rows(), parts.sign_bits):
            raise OracleMismatchError("oracle sign table disagrees with the plan")
        if oracle.z != plan.z:
            raise OracleMismatchError("oracle description string disagrees with the plan")
        self.plan = plan
        self.oracle = oracle
        self.n = n
        self.dim = 1 << n
        self.t_reg = plan.t_register
        self.rows = 1 << self.t_reg
        self._parts = parts
        self._gates = parts.gates
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

    def _gate_index(
        self, state: np.ndarray, gates: tuple[np.ndarray, ...], cols: int
    ) -> np.ndarray:
        """Apply gates[q] to index qubit q of state, in place, on its
        first cols columns.  Qubit q splits the rows as (a, 2, b); each gate
        runs over blocks of whole row pairs (a, 0, b) / (a, 1, b), a run of
        b for one a where the b axis holds a block's pairs, else runs of a
        with every b, through one scratch buffer of about _BLOCK_AMPS
        amplitudes.  The per-amplitude arithmetic is _index_qubit_gate's
        whatever the blocks, so they move no bit."""
        if cols == 0:
            return state
        pairs = min(self.rows // 2, max(1, _BLOCK_AMPS // (2 * cols)))
        scratch = np.empty(2 * pairs * cols, dtype=np.complex128)
        for q, gate in enumerate(gates):
            outer, inner = 1 << q, 1 << (self.t_reg - 1 - q)
            view = state.reshape(outer, 2, inner, self.dim)[..., :cols]
            step_a, step_b = max(1, pairs // inner), min(pairs, inner)
            for lo_a in range(0, outer, step_a):
                for lo_b in range(0, inner, step_b):
                    block = view[lo_a : lo_a + step_a, :, lo_b : lo_b + step_b]
                    rows_a, _, rows_b, _ = block.shape
                    work = scratch[: block.size].reshape(2, rows_a, rows_b, cols)
                    _index_qubit_gate(block, gate, work)
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
        return self._gate_index(state, self._parts.gates_t, self.dim)

    def _query(self, state: np.ndarray) -> np.ndarray:
        """The oracle's phase kickback, in place, a block of rows at a time:
        each amplitude times its float64 +-1 sign."""
        self.query_count += 1
        bits = self._parts.sign_bits
        for b in _blocks(*state.shape):
            block = state[b]
            np.multiply(block, _signs(bits[b]), out=block)
        return state

    def _steps(self, state: np.ndarray, invert: bool) -> np.ndarray:
        if self._parts.rotations is not None:
            self._parts.rotations(state, invert)
        rows = self._parts.clifford_rows
        if rows.size:
            state[rows] = self._parts.layer(invert)(state[rows])
        return state

    def _forward(self, state: np.ndarray) -> np.ndarray:
        """A |state>, overwriting state: one query."""
        state = self._load(state)
        state = _hadamard_target(state, self.n)
        state = self._query(state)
        state = self._steps(state, invert=False)
        return self._unload(state)

    def apply(self, state: np.ndarray) -> np.ndarray:
        """A |state>: one query."""
        return self._forward(state.copy())

    def apply_dagger(self, state: np.ndarray) -> np.ndarray:
        """A^dagger |state>: one query."""
        state = self._load(state.copy())
        state = self._steps(state, invert=True)
        state = self._query(state)
        state = _hadamard_target(state, self.n)
        return self._unload(state)

    def prepare(self) -> np.ndarray:
        """A |0..0>, read-only: one query.  The plan's first call computes
        it and keeps it on the plan's shared parts; later calls, on any
        circuit of the plan, count their query and return that array."""
        parts = self._parts
        if parts.prepared is None:
            parts.prepared = _read_only(self._forward(self.zero_state()))
        else:
            self.query_count += 1
        return parts.prepared


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

    Each instance builds its own PostselectCircuit, so the oracle is checked
    and the queries counted per call; what that circuit takes from the plan
    alone, A|0..0> included, is built once per plan and shared.

    actual is A|0..0> on the plan's circuit, the plan's one read-only array
    (preparing it counts this call's query), tau_hat its normalized junk
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
        junk /= norm
        return junk

    @cached_property
    def designed(self) -> np.ndarray:
        """gamma |0..0>|psi> + delta |tau_hat>: the prepared state the ideal
        modes run on, with the circuit's own junk direction."""
        designed = self.delta * self.tau_hat
        designed[0] += self.gamma * self.plan.target.amps
        return designed

    @cached_property
    def _ideal_rotation(self) -> _PlanarRotations:
        """|0..0> -> A^dagger |designed>, so that A after it prepares the
        designed state: one row over the flattened register.  Its
        construction applies A^dagger once."""
        xi = self.circuit.apply_dagger(self.designed).reshape(1, -1)
        e0 = _SparseRows(xi.shape[1], [1.0], [[0]], [[1.0]])
        return _PlanarRotations(e0, _DenseRows(xi), np.zeros(1, dtype=np.intp))

    def apply(self, state: np.ndarray) -> np.ndarray:
        """A |state>, A composed with the ideal-mode rotation in ideal mode."""
        if self.ideal:
            rotated = self._ideal_rotation(state.reshape(1, -1).copy(), inverse=False)
            state = rotated.reshape(state.shape)
        return self.circuit.apply(state)

    def apply_dagger(self, state: np.ndarray) -> np.ndarray:
        """A^dagger |state>, the exact inverse of apply."""
        state = self.circuit.apply_dagger(state)
        if self.ideal:
            # The circuit's output is a fresh array: rotate it in place.
            self._ideal_rotation(state.reshape(1, -1), inverse=True)
        return state
