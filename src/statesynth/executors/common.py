"""Shared circuit machinery for the query drivers.

The central object is :class:`PostselectCircuit`: the unitary A that loads
the step-weight superposition on the index register, queries the oracle once
(phase kickback on the sign table, XOR of the description string into a
classical register), applies the indexed step transforms, and unloads the
index register.  All drivers are built from forward/inverse applications of
this circuit, so query and z bookkeeping live here, and so does the one
reflection the ten- and four-query amplification share: about the prepared
state lifted beside a rotation qubit, on a (2, rows, 2^n) stack in place.

What A takes from the plan alone is built once per plan and shared by every
driver call on it: the weight gates, the stacked sign bits, the blocks of
index rows A works in, the step layer, and A|0..0> itself, read-only,
computed on the first call that prepares it.  A plan's steps are all of one
family, so its step layer is either the hash steps' planar rotations
stacked into one layer, which keeps two numbers per row and the hash states
in compact form, or per block of rows one Clifford layer per direction over
the steps whose description is not the identity, compiled on first use.

A is the index gates that load the weights, one pass over the blocks of
rows, and the gates that unload them.  The pass runs every row-local stage
on a block before it moves to the next: the target H, the query's +-1 signs
and the step layer, or their inverses in reverse order for A^dagger.  So A
runs in the state's own register plus buffers of a few blocks of about
_BLOCK_AMPS amplitudes, no stage gathers more than a block, and the plan
holds no (T, 2^n) array but A|0..0>.  The parts are cached on the plan, so
they live exactly as long as the plan does.  Each driver call still builds
its own :class:`PostselectCircuit`, which checks the oracle against the plan
and counts the queries of that call.

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
    index-register state, or (1, 2, rows, dim) for a rotation qubit beside
    the register.  scratch has view's shape with the size-2 axis first.
    Row 0 gets mat[0,0] v0 + mat[0,1] v1 and row 1 mat[1,0] v0 +
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


def _reflect_about_lift(state: np.ndarray, g: tuple, v: np.ndarray, scratch: np.ndarray) -> None:
    """v <- 2<theta|v> theta - v, in place, about theta = (g0 state, g1 state),
    the prepared state beside a rotation qubit in g0|0> + g1|1>: the
    reflection of the ten- and four-query amplification.  theta is built in
    scratch, a stack of v's shape that the call overwrites."""
    np.multiply(g[0], state, out=scratch[0])
    np.multiply(g[1], state, out=scratch[1])
    # <theta|v> is taken over the whole stack, a zero half of v included:
    # BLAS splits a sum over one half differently, and the four-query error
    # carries that last-bit change to its fourth digit.
    c = 2.0 * np.vdot(scratch, v)
    np.multiply(c, scratch, out=scratch)
    np.subtract(scratch, v, out=v)


def _hadamard_target(block: np.ndarray, n: int) -> None:
    """H on every target-register qubit of a (rows, 2^n) block of a state,
    in place, through clifford's all-rows _butterfly."""
    for i in range(n):
        cliff._butterfly(block, n, i, None)


#: A works in blocks holding about this many amplitudes (256 KiB), so that
#: the index gates' scratch and every stage of the pass, the target H, the
#: query's +-1 rows and the step layer, stay small next to the state.  Of
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


class _SignRows:
    """The sign states of the rows of a sign-bit table: each row's +-1
    signs times scale, the same product, cast to complex, that a dense array
    of them would hold."""

    slots = 1

    def __init__(self, bits: np.ndarray, scale: float) -> None:
        self.bits = bits
        self.scale = scale
        self.shape = bits.shape

    def block(self, b: slice, spare) -> np.ndarray:
        """Rows b, written into the next buffer slot of spare and returned."""
        signs = cliff.signs_from_bits(self.bits[b])
        return np.multiply(signs, self.scale, out=next(spare))


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
    """A layer of rank-two unitaries on the rows of a state: row i takes the
    unit vector w[i] to xi[i], the queried sign state to a hash step's
    state.  Ideal mode is the one-row case on the flattened register: |0..0>
    to A^dagger |designed>.

    The plane of row i is framed by (w, g) and its image by (xi, xi_perp),
    with g = (xi - c w) / s, xi_perp = s w - conj(c) g, c = <w, xi> and
    s = sqrt(max(0, 1 - |c|^2)); the inverse is the same map with the two
    frames swapped.  A row with xi = c w (s <= 1e-14) is degenerate: its
    map scales the w component by c, or by conj(c) for the inverse.

    w and xi are row sources (_DenseRows, _SignRows, _SparseRows) of one
    (rows, d) shape; a source's block(b, spare) takes its ``slots`` buffer
    slots (1, or 0 for a view) from the iterator spare.  The layer stores
    only c, s and the degenerate rows.  frames builds the four frames of a
    block of rows into a buffer by the formulas above, and rotate applies
    them to that block of the state in place: the circuit's pass does both
    for each block, and ideal mode builds g and xi_perp once and keeps them.
    Every formula is the one a single row would use, so neither stacking
    nor blocking the rows moves a bit.
    """

    def __init__(self, w, xi) -> None:
        self.w, self.xi = w, xi
        buf = self.buffer()
        c = np.empty((w.shape[0], 1), dtype=np.complex128)
        for b in _blocks(*w.shape):
            c[b] = _row_dots(*self.sources(b, buf[3:]), buf[0][: b.stop - b.start])
        cs = c[:, 0].tolist()
        s = np.array([math.sqrt(max(0.0, 1.0 - abs(ci) ** 2)) for ci in cs])
        degenerate = s <= 1e-14
        self.degenerate = [(i, cs[i]) for i in np.flatnonzero(degenerate).tolist()]
        # A degenerate row's frames are never read; dividing by 1 keeps them finite.
        self.s = np.where(degenerate, 1.0, s).astype(np.complex128)[:, None]
        self.c = c

    def buffer(self) -> list[np.ndarray]:
        """Room for one block's scratch, g and xi_perp, then for w and xi
        where their sources build the rows rather than view them: separate
        arrays, so that g and xi_perp can be kept without the rest."""
        rows, d = self.w.shape
        shape = (min(rows, max(1, _BLOCK_AMPS // d)), d)
        slots = 3 + self.w.slots + self.xi.slots
        return [np.empty(shape, dtype=np.complex128) for _ in range(slots)]

    def sources(self, b: slice, slots: list[np.ndarray]) -> tuple:
        """(w, xi) of rows b, built in the given buffer slots."""
        spare = iter([slot[: b.stop - b.start] for slot in slots])
        return self.w.block(b, spare), self.xi.block(b, spare)

    def frames(self, b: slice, buf: list[np.ndarray]) -> tuple:
        """((w, g), (xi, xi_perp)) of rows b, rebuilt in buf (from buffer),
        whose first slot is left as scratch."""
        scratch, g, xi_perp = (slot[: b.stop - b.start] for slot in buf[:3])
        w, xi = self.sources(b, buf[3:])
        np.multiply(self.c[b], w, out=g)
        np.subtract(xi, g, out=g)
        np.divide(g, self.s[b], out=g)
        np.multiply(self.s[b], w, out=xi_perp)
        np.multiply(np.conj(self.c[b]), g, out=scratch)
        np.subtract(xi_perp, scratch, out=xi_perp)
        return (w, g), (xi, xi_perp)

    def rotate(
        self, v: np.ndarray, b: slice, frames: tuple, inverse: bool, scratch: np.ndarray
    ) -> None:
        """The layer (or its inverse) on v, rows b of a state, in place, by
        the frames of those rows and through scratch, a buffer of at least
        v's rows: each row v becomes v - a0 u0 - a1 u1 + a0 d0 + a1 d1, with
        a_i = <u_i, v>.  A degenerate row is then remade from its value
        before by its own map."""
        kept = [(i - b.start, c, v[i - b.start].copy())
                for i, c in self.degenerate if b.start <= i < b.stop]
        w = frames[0][0]
        (u0, u1), (d0, d1) = frames[::-1] if inverse else frames
        scratch = scratch[: len(v)]
        a0 = _row_dots(u0, v, scratch)
        a1 = _row_dots(u1, v, scratch)
        for a, u, op in ((a0, u0, np.subtract), (a1, u1, np.subtract),
                         (a0, d0, np.add), (a1, d1, np.add)):
            np.multiply(a, u, out=scratch)
            op(v, scratch, out=v)
        for r, c, x in kept:
            v[r] = x + np.vdot(w[r], x) * ((np.conj(c) if inverse else c) - 1.0) * w[r]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _PlanCircuit:
    """What the circuit A takes from the plan alone, shared by every
    PostselectCircuit on the plan.

    It holds the index-register weight gates and their transposes, the
    stacked (T, 2^n) sign bits, from which the query and the rotations
    rebuild +-1 signs a block of rows at a time, the blocks of rows (from
    _blocks) that A's pass runs in, and the step layer, whose kind follows
    the plan's one step family.  Hash steps make one _PlanarRotations layer
    over all rows, which keeps c and s per row and rebuilds its frames per
    block from the sign bits and the hash states' supports, signs and
    phases held flat.  Clifford steps make, per block, the rows whose
    description is not ``identity_desc(n)``, with one CliffordLayer per
    direction over just those rows, compiled on first use.  The identity
    layer only copies, so leaving its rows out keeps every bit.  prepared
    is A|0..0>, read-only, once PostselectCircuit.prepare has built it
    (None before).  Nothing here refers back to the plan, so caching it on
    the plan keeps no plan alive.
    """

    def __init__(self, plan: SynthesisPlan) -> None:
        steps = plan.steps
        dim = 1 << plan.params.n
        self.sign_bits = _read_only(np.stack([step.signs.bits for step in steps]))
        weights = np.array([s.coefficient for s in steps])
        self.gates = tuple(_read_only(gate) for gate in _weight_gates(weights, plan.t_register))
        self.gates_t = tuple(gate.T for gate in self.gates)
        self.blocks = _blocks(len(steps), dim)
        self.rotations = None
        # Per block start: the block's non-identity rows and their descriptions.
        self._moved: dict[int, tuple[np.ndarray, tuple]] = {}
        self._layers: dict[tuple[int, bool], cliff.CliffordLayer] = {}
        if plan.strategy == "hash":
            xi = _SparseRows(
                dim,
                [step.phase for step in steps],
                [step.hash_state.support for step in steps],
                [step.hash_state.amplitudes() for step in steps],
            )
            self.rotations = _PlanarRotations(_SignRows(self.sign_bits, 1.0 / math.sqrt(dim)), xi)
        else:
            identity = cliff.identity_desc(plan.params.n)
            for b in self.blocks:
                rows = [j for j in range(b.start, b.stop) if steps[j].desc is not identity]
                if rows:
                    local = _read_only(np.array(rows, dtype=np.intp) - b.start)
                    self._moved[b.start] = (local, tuple(steps[j].desc for j in rows))
        self.prepared: np.ndarray | None = None

    def steps(self, block: np.ndarray, b: slice, invert: bool, buf) -> None:
        """The step layer (or its inverse) on block, rows b of a state, in
        place; buf is the rotation layer's buffer, None for Clifford steps."""
        if self.rotations is not None:
            self.rotations.rotate(block, b, self.rotations.frames(b, buf), invert, buf[0])
        elif b.start in self._moved:
            rows, descs = self._moved[b.start]
            layer = self._layers.get((b.start, invert))
            if layer is None:
                layer = self._layers[b.start, invert] = cliff.CliffordLayer(descs, invert)
            block[rows] = layer(block[rows])


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
    queries; the gates, signs, blocks and step layer come from the plan's
    shared, once-built _PlanCircuit.
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

    def _pass(self, state: np.ndarray, inverse: bool) -> np.ndarray:
        """The row-local stages of A on state, in place, a block of rows
        (from _PlanCircuit.blocks) at a time: the target H, the oracle's
        phase kickback (each amplitude times its float64 +-1 sign) and the
        step layer, or for A^dagger the inverse step layer, the signs and H.
        One query.  Each stage acts on every row alone, so blocking gives
        each amplitude the operations and operands of whole-state stages."""
        self.query_count += 1
        parts = self._parts
        buf = None if parts.rotations is None else parts.rotations.buffer()
        for b in parts.blocks:
            block = state[b]
            if inverse:
                parts.steps(block, b, True, buf)
            else:
                _hadamard_target(block, self.n)
            np.multiply(block, cliff.signs_from_bits(parts.sign_bits[b]), out=block)
            if inverse:
                _hadamard_target(block, self.n)
            else:
                parts.steps(block, b, False, buf)
        return state

    def _forward(self, state: np.ndarray) -> np.ndarray:
        """A |state>, overwriting state: one query."""
        return self._unload(self._pass(self._load(state), inverse=False))

    def apply(self, state: np.ndarray) -> np.ndarray:
        """A |state>: one query."""
        return self._forward(state.copy())

    def apply_dagger(self, state: np.ndarray) -> np.ndarray:
        """A^dagger |state>: one query."""
        return self._unload(self._pass(self._load(state.copy()), inverse=True))

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
    def _ideal_rotation(self) -> tuple:
        """|0..0> -> A^dagger |designed>, so that A after it prepares the
        designed state: one row over the flattened register, with its frames
        g and xi_perp, built once.  Its construction applies A^dagger once."""
        xi = self.circuit.apply_dagger(self.designed).reshape(1, -1)
        e0 = _SparseRows(xi.shape[1], [1.0], [[0]], [[1.0]])
        rotation = _PlanarRotations(e0, _DenseRows(xi))
        (_, g), (_, xi_perp) = rotation.frames(slice(0, 1), rotation.buffer())
        return rotation, g, xi_perp

    def _rotate(self, flat: np.ndarray, inverse: bool) -> None:
        """The ideal-mode rotation (or its inverse) on a (1, rows 2^n) view
        of a state, in place.  w = e0 is made for the call, not kept."""
        rotation, g, xi_perp = self._ideal_rotation
        row = slice(0, 1)
        w, xi = rotation.sources(row, [np.empty_like(g)])
        rotation.rotate(flat, row, ((w, g), (xi, xi_perp)), inverse, np.empty_like(g))

    def apply(self, state: np.ndarray) -> np.ndarray:
        """A |state>, A composed with the ideal-mode rotation in ideal mode."""
        if not self.ideal:
            return self.circuit.apply(state)
        # One copy: A runs in place on the rotated copy, as in apply_dagger.
        flat = state.reshape(1, -1).copy()
        self._rotate(flat, inverse=False)
        return self.circuit._forward(flat.reshape(state.shape))

    def apply_dagger(self, state: np.ndarray) -> np.ndarray:
        """A^dagger |state>, the exact inverse of apply."""
        state = self.circuit.apply_dagger(state)
        if self.ideal:
            # The circuit's output is a fresh array: rotate it in place.
            self._rotate(state.reshape(1, -1), inverse=True)
        return state
