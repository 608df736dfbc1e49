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
rotation that sends e0 = |0..0> to xi = A^dagger of it, so the drivers see
a genuine unitary that prepares the designed state.  That rotation is
PreparedCircuit's own, in closed form in the plane of e0 and xi: every
product against e0 is a scalar, so it holds no e0 register, and it keeps
xi alone beside the state, rebuilding its other frames per call.  The
hash steps' rotation layer, _PlanarRotations, serves only the hash steps.
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


class _SignRows:
    """The sign states of the rows of a sign-bit table: each row's +-1
    signs times scale, the same product, cast to complex, that a dense array
    of them would hold."""

    def __init__(self, bits: np.ndarray, scale: float) -> None:
        self.bits = bits
        self.scale = scale
        self.shape = bits.shape

    def block(self, b: slice, out: np.ndarray) -> np.ndarray:
        """Rows b, written into out and returned."""
        signs = cliff.signs_from_bits(self.bits[b])
        return np.multiply(signs, self.scale, out=out)


class _SparseRows:
    """Frame rows phase[i] * x[i] with x[i] real and nonzero only on a
    support: a hash state's phased state vector.  It holds the phases, one
    per row, and the supports' flat positions in the stacked (rows, d)
    array and their values, row after row in one array each; starts[i] is
    where row i's entries begin."""

    def __init__(self, d: int, phases, supports, values) -> None:
        counts = [len(support) for support in supports]
        self.shape = (len(counts), d)
        self.phases = np.array(phases, dtype=np.complex128)[:, None]
        self.starts = np.concatenate(([0], np.cumsum(counts))).tolist()
        self.positions = np.repeat(np.arange(len(counts)) * d, counts) + np.concatenate(supports)
        self.values = np.concatenate(values)

    def block(self, b: slice, out: np.ndarray) -> np.ndarray:
        """Rows b, written into out and returned: zeros, then the support
        values, then the product with the phases, as phase * state_vector()
        computes a row."""
        lo, hi = self.starts[b.start], self.starts[b.stop]
        out.fill(0.0)
        flat = out.reshape(-1)
        flat[self.positions[lo:hi] - b.start * self.shape[1]] = self.values[lo:hi]
        return np.multiply(self.phases[b], out, out=out)


class _PlanarRotations:
    """A layer of rank-two unitaries on the rows of a state: row i takes the
    unit vector w[i] to xi[i], the queried sign state to a hash step's
    state.

    The plane of row i is framed by (w, g) and its image by (xi, xi_perp),
    with g = (xi - c w) / s, xi_perp = s w - conj(c) g, c = <w, xi> and
    s = sqrt(max(0, 1 - |c|^2)); the inverse is the same map with the two
    frames swapped.  A row with xi = c w (s <= 1e-14) is degenerate: its
    map scales the w component by c, or by conj(c) for the inverse.

    w is a _SignRows and xi a _SparseRows of one (rows, d) shape, each
    building a block of its rows into a buffer slot.  The layer stores only
    c, s and the degenerate rows.  frames builds the four frames of a block
    of rows into a buffer by the formulas above, and rotate, which the
    circuit's pass calls per block, rebuilds them so and applies them to
    that block of the state in place.  Every formula is the one a single
    row would use, so neither stacking nor blocking the rows moves a bit.
    """

    def __init__(self, w: _SignRows, xi: _SparseRows) -> None:
        self.w, self.xi = w, xi
        buf = self.buffer()
        c = np.empty((w.shape[0], 1), dtype=np.complex128)
        for b in _blocks(*w.shape):
            c[b] = _row_dots(*self.sources(b, buf), buf[0][: b.stop - b.start])
        cs = c[:, 0].tolist()
        s = np.array([math.sqrt(max(0.0, 1.0 - abs(ci) ** 2)) for ci in cs])
        degenerate = s <= 1e-14
        self.degenerate = [(i, cs[i]) for i in np.flatnonzero(degenerate).tolist()]
        # A degenerate row's frames are never read; dividing by 1 keeps them finite.
        self.s = np.where(degenerate, 1.0, s).astype(np.complex128)[:, None]
        self.c = c

    def buffer(self) -> list[np.ndarray]:
        """Five slots of one block's rows: scratch, g, xi_perp, w and xi."""
        rows, d = self.w.shape
        shape = (min(rows, max(1, _BLOCK_AMPS // d)), d)
        return [np.empty(shape, dtype=np.complex128) for _ in range(5)]

    def sources(self, b: slice, buf: list[np.ndarray]) -> tuple:
        """(w, xi) of rows b, built in the last two slots of buf."""
        rows = b.stop - b.start
        return self.w.block(b, buf[3][:rows]), self.xi.block(b, buf[4][:rows])

    def frames(self, b: slice, buf: list[np.ndarray]) -> tuple:
        """((w, g), (xi, xi_perp)) of rows b, rebuilt in buf (from buffer),
        whose first slot is left as scratch."""
        scratch, g, xi_perp = (slot[: b.stop - b.start] for slot in buf[:3])
        w, xi = self.sources(b, buf)
        np.multiply(self.c[b], w, out=g)
        np.subtract(xi, g, out=g)
        np.divide(g, self.s[b], out=g)
        np.multiply(self.s[b], w, out=xi_perp)
        np.multiply(np.conj(self.c[b]), g, out=scratch)
        np.subtract(xi_perp, scratch, out=xi_perp)
        return (w, g), (xi, xi_perp)

    def rotate(self, v: np.ndarray, b: slice, buf: list[np.ndarray], inverse: bool) -> None:
        """The layer (or its inverse) on v, rows b of a state, in place, by
        the frames of those rows, which it rebuilds in buf (from buffer):
        each row v becomes v - a0 u0 - a1 u1 + a0 d0 + a1 d1, with
        a_i = <u_i, v>.  A degenerate row is then remade from its value
        before by its own map."""
        kept = [(i - b.start, c, v[i - b.start].copy())
                for i, c in self.degenerate if b.start <= i < b.stop]
        frames = self.frames(b, buf)
        w = frames[0][0]
        (u0, u1), (d0, d1) = frames[::-1] if inverse else frames
        scratch = buf[0][: len(v)]
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
            self.rotations.rotate(block, b, buf, invert)
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


#: e0 = |0..0> as its two kinds of entry: entry 0, and every other entry.
_E0 = _read_only(np.array([1.0, 0.0], dtype=np.complex128))


def _e0_dot(v: np.ndarray) -> np.complex128:
    """<e0|v> for a flat state v, with np.vdot(e0, v)'s bits.  Every term
    but conj(e0[0]) v[0] is an exact zero, so a nonzero part of v[0] comes
    out unchanged; the dot sums its terms from +0.0, so a zero part comes
    out +0.0, as adding +0.0 makes it."""
    return v[0] + 0j


def _e0_update(v: np.ndarray, a: complex, op) -> None:
    """v <- op(v, a e0) for a flat state v, in place, with the bits of that
    dense operation, -0.0 included: a e0 is a (1+0j) at entry 0 and
    a (0+0j) everywhere else, so it is one scalar op over v and one entry
    write, each product taken by the multiply a dense a e0 would use."""
    at0, rest = np.multiply(a, _E0)
    x0 = op(v[0], at0)
    op(v, rest, out=v)
    v[0] = x0


def _plane_g(out: np.ndarray, xi: np.ndarray, c: complex, s: float) -> np.ndarray:
    """g = (xi - c e0) / s of the plane of e0 and a flat xi, into out and
    returned, by the formula and operand order of _PlanarRotations.frames."""
    np.copyto(out, xi)
    _e0_update(out, c, np.subtract)
    return np.divide(out, s, out=out)


def _plane_perp(g: np.ndarray, c: complex, s: float) -> np.ndarray:
    """xi_perp = s e0 - conj(c) g in place of g, returned, by the formula
    and operand order of _PlanarRotations.frames: conj(c) g, and then
    _e0_update with the subtraction's operands swapped."""
    np.multiply(np.conj(c), g, out=g)
    _e0_update(g, s, lambda x, y, out=None: np.subtract(y, x, out=out))
    return g


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

    In ideal mode apply rotates its input by _ideal_rotation, which sends
    e0 = |0..0> to xi = A^dagger |designed>, and then applies A, so that A
    takes e0 to the designed state; apply_dagger undoes both.  Beside
    the prepared register that mode holds designed, tau_hat and xi, one
    register each, and c alone in place of xi on a degenerate plane.
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
        """The rotation in the plane of e0 = |0..0> and xi = A^dagger
        |designed> that sends e0 to xi, so that A after it prepares the
        designed state: (c, s, xi), xi flat, c = <e0|xi> and
        s = sqrt(max(0, 1 - |c|^2)); a degenerate plane (s <= 1e-14,
        xi = c e0) keeps only c, as (c, None, None).  Built once; it applies
        A^dagger once."""
        xi = self.circuit.apply_dagger(self.designed).reshape(-1)
        c = complex(_e0_dot(xi))
        s = math.sqrt(max(0.0, 1.0 - abs(c) ** 2))
        return (c, None, None) if s <= 1e-14 else (c, s, xi)

    def _rotate(self, flat: np.ndarray, inverse: bool) -> None:
        """The ideal-mode rotation (or its inverse) on a flat state, in
        place: v - a0 u0 - a1 u1 + a0 d0 + a1 d1 with a_i = <u_i|v>, through
        the frames (u0, u1) = (e0, g) and (d0, d1) = (xi, xi_perp), swapped
        for the inverse, as _PlanarRotations.rotate maps a row; on a
        degenerate plane v + <e0|v> (c - 1) e0, with conj(c) for the inverse.

        The terms are taken in that order, each over the whole register: one
        against e0 by _e0_update, any other a block of _BLOCK_AMPS
        amplitudes at a time through one scratch of that size, which is
        elementwise and so moves no bit.  g and xi_perp are rebuilt per call
        in one register, g for the forward map's first product and xi_perp
        for the inverse's second, and then turned into the other frame, so
        that the rotation keeps only xi beside the state."""
        c, s, xi = self._ideal_rotation
        if xi is None:
            _e0_update(flat, _e0_dot(flat) * ((np.conj(c) if inverse else c) - 1.0), np.add)
            return
        scratch = np.empty(min(flat.size, _BLOCK_AMPS), dtype=np.complex128)

        def add(a, u, op):
            if u is None:
                return _e0_update(flat, a, op)
            for lo in range(0, flat.size, _BLOCK_AMPS):
                part = flat[lo : lo + _BLOCK_AMPS]
                term = np.multiply(a, u[lo : lo + _BLOCK_AMPS], out=scratch[: part.size])
                op(part, term, out=part)

        frame = _plane_g(np.empty_like(flat), xi, c, s)
        if inverse:
            _plane_perp(frame, c, s)
        u0, d0 = (xi, None) if inverse else (None, xi)
        a0 = _e0_dot(flat) if u0 is None else np.vdot(u0, flat)
        a1 = np.vdot(frame, flat)
        add(a0, u0, np.subtract)
        add(a1, frame, np.subtract)
        add(a0, d0, np.add)
        # frame turns from u1 into d1: g into xi_perp, or xi_perp into g.
        add(a1, _plane_g(frame, xi, c, s) if inverse else _plane_perp(frame, c, s), np.add)

    def apply(self, state: np.ndarray) -> np.ndarray:
        """A |state>, A composed with the ideal-mode rotation in ideal mode."""
        if not self.ideal:
            return self.circuit.apply(state)
        # One copy: A runs in place on the rotated copy, as in apply_dagger.
        state = state.copy()
        self._rotate(state.reshape(-1), inverse=False)
        return self.circuit._forward(state)

    def apply_dagger(self, state: np.ndarray) -> np.ndarray:
        """A^dagger |state>, the exact inverse of apply."""
        state = self.circuit.apply_dagger(state)
        if self.ideal:
            # The circuit's output is a fresh array: rotate it in place.
            self._rotate(state.reshape(-1), inverse=True)
        return state
