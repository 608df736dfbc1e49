"""Four-query clean synthesis.

The driver runs s copies of the postselected circuit (one merged query),
XORs the index of the first successful copy into a counting register K,
routes that copy's payload to the output, and then *uncomputes everything*:
the key identity is that the junk branch tau is itself preparable exactly by
a one-step amplified circuit U (sin(pi/6) scaled by a fresh rotation qubit,
one reflection pair), so failed copies are erased by U^dagger while
untouched copies are erased by the plain inverse circuit.  The three
uncomputation layers merge across copies into three more queries, for a
total of four.  A final tensor-product gate folds the geometric weights on
K back onto |0>.

Two evaluators: :func:`run_four_query` tracks the s + 1 exactly-known
branches (first success at k, or all fail) as per-register factors, which
scales to the real copy counts; :func:`run_four_query_dense` simulates the
full register on tiny instances and is used to cross-check the structured
bookkeeping, including the classical description-register flow.  Of the
three factors only the junk image U^dagger |0>|tau> needs the rotation
qubit: it is a (2, rows, 2^n) stack, computed in two stacks of that shape.
A^dagger on a prepared or a junk copy leaves that qubit at |0>, so those two
factors are one register each.  The structured evaluator builds one factor
at a time, reads its amplitude at |0..0> (and the junk image's distance
from it) and drops it.  In the all-fail branch the routing swap entangles
the first copy with the output; the structured evaluator reads only that
branch's overlaps with |0..0> on the copy, whose output payload is
tau_hat[0], and only the dense reference :func:`expand_structured` builds
the branch's joint vector, padding each one-register factor with the
rotation qubit's |1> half.

Every entry point starts from one ``_setup``: the :class:`PreparedCircuit`
(plan passed in or the default one), the column h of the amplification
gate, and the copy count, which must be a power of two.  The prepared
circuit owns A, A^dagger and the ideal mode: with ``ideal=True`` its A
prepares the designed state, so every oracle-dependent object here takes
its textbook value while the circuit stays a genuine unitary.
"""

from __future__ import annotations

import math

import numpy as np

from ..numerics import PureState
from ..synthesis import OracleSpec, SynthesisPlan
from .common import ExecutionReport, PreparedCircuit, _ratio_gate, ensure_plan
from .common import _index_qubit_gate, _reflect_about_lift

_FOUR_QUERY_COUNT = 4
_SIN_PI_6 = math.sin(math.pi / 6.0)


def default_copy_count(epsilon: float, delta: float) -> int:
    """Smallest power of two s with delta^s <= epsilon / 4."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    s = 2
    while delta**s > epsilon / 4.0:
        s *= 2
    return s


def _junk_uncompute_image(prep: PreparedCircuit, h: tuple[float, float]) -> np.ndarray:
    """U^dagger applied to the clean junk state |0>|tau>, ideally |0..0>:
    a (2, rows, dim) stack over the rotation qubit.

    Temporal order of U^dagger: the reflection about the prepared state
    theta4 = W|0..0> (W R0 W^dagger), the junk-flag reflection, then
    W^dagger = (G (x) A)^dagger -- three oracle layers in total.  It runs
    in two stacks of that shape: v, which starts as |0>|tau> and takes every
    layer in place, and a scratch, through which the reflection lifts theta4
    and G^dagger mixes v's halves.  _index_qubit_gate keeps each real
    coefficient on the left of its product, as the sums h0 v0 + h1 v1 and
    -h1 v0 + h0 v1 into fresh arrays do.  The scratch is dropped before
    A^dagger replaces each half of v.
    """
    h0, h1 = h
    v = np.zeros((2,) + prep.tau_hat.shape, dtype=np.complex128)
    v[0] = prep.tau_hat
    scratch = np.empty_like(v)
    _reflect_about_lift(prep.state, h, v, scratch)
    v[0, 1:, :] *= -1.0
    _index_qubit_gate(v[None], np.array([[h0, h1], [-h1, h0]]), scratch[:, None])
    del scratch
    for half in v:
        half[...] = prep.apply_dagger(half)
    return v


def _structured_branches(prep: PreparedCircuit, s: int) -> tuple[list[float], float]:
    """The weights of the s + 1 branches after the uncomputation layers:
    first success at copy k, amp * delta_eff^k, and all copies failed,
    delta_eff^s.  A branch is a product over the copies of three
    per-register factors, which each evaluator computes from prep itself:
    _junk_uncompute_image on a failed copy, a rotation-qubit stack, and
    A^dagger on a prepared copy and on a junk copy, one register each, whose
    rotation qubit stays at |0>."""
    delta_eff = math.sqrt(max(0.0, 1.0 - prep.amp**2))
    return [prep.amp * delta_eff**k for k in range(s)], delta_eff**s


def _k_column_overlap(gamma: float, delta: float, s: int, k: int) -> float:
    """<0| L^dagger |k> for the geometric-weight counting gate."""
    return gamma * delta**k / math.sqrt(1.0 - delta ** (2 * s))


def _structured_run(
    prep: PreparedCircuit, h: tuple[float, float], s: int
) -> tuple[ExecutionReport, dict]:
    weights, fail_weight = _structured_branches(prep, s)
    psi = prep.plan.target.amps
    theta_hat = prep.theta_hat
    # The all-fail branch routes the first junk copy's payload to the
    # output: projected onto |0..0> of that copy, the output holds
    # tau_hat[0], the junk state's success row.
    fail_output = prep.tau_hat[0]
    # Each factor is reduced to what the overlaps read and dropped before
    # anything else is built: its amplitude at |0..0> on the copy and, for
    # the junk image, its distance from |0..0>.
    w_junk = _junk_uncompute_image(prep, h)
    a_junk = complex(w_junk[0, 0, 0])
    w_junk[0, 0, 0] -= 1.0
    junk_uncompute_gap = float(np.linalg.norm(w_junk))
    del w_junk
    w_back = prep.apply_dagger(prep.state)
    w_fail_copy = prep.apply_dagger(prep.tau_hat)
    a_back, a_fail = complex(w_back[0, 0]), complex(w_fail_copy[0, 0])
    back_fail = complex(np.vdot(w_back, w_fail_copy))
    del w_back, w_fail_copy
    o_psi = complex(np.vdot(psi, theta_hat))
    gamma_a, delta_a = prep.gamma, prep.delta

    # <0..0, psi_on_output | branch>: the counting-register column overlap
    # times the per-register factor overlaps.
    target_overlap = 0.0 + 0.0j
    for k, weight in enumerate(weights):
        target_overlap += (
            weight
            * _k_column_overlap(gamma_a, delta_a, s, k)
            * o_psi
            * a_junk**k
            * a_back ** (s - 1 - k)
        )
    fail_target = complex(np.tensordot(np.conj(psi), fail_output, axes=1))
    target_overlap += (
        fail_weight
        * _k_column_overlap(gamma_a, delta_a, s, 0)
        * fail_target
        * a_fail ** (s - 1)
    )

    # Branches are orthogonal through the counting register except the
    # all-fail branch against branch 0; their cross term vanishes because the
    # junk state has no support on the success flag (tau_hat[0] = 0), but it
    # is computed honestly here.
    theta_on_fail = complex(np.tensordot(np.conj(theta_hat), fail_output, axes=1))
    cross = weights[0] * fail_weight * theta_on_fail * back_fail ** (s - 1)
    norm_sq = sum(w * w for w in weights) + fail_weight**2 + 2.0 * cross.real
    gap_sq = norm_sq + 1.0 - 2.0 * target_overlap.real
    error_2norm = math.sqrt(max(0.0, gap_sq))

    # Checkpoint gap against the displayed branch form with nominal weights:
    # identical factors, so only the weights and the fail branch differ.
    psi7_sq = fail_weight**2
    for k, weight in enumerate(weights):
        psi7_sq += (weight - gamma_a * delta_a**k) ** 2
    diagnostics = {
        "success_overlap": abs(target_overlap),
        "fail_weight": fail_weight,
        "psi7_gap": math.sqrt(max(0.0, psi7_sq)),
        "norm_sq": norm_sq,
        "copies": s,
        "junk_uncompute_gap": junk_uncompute_gap,
        "prep_deviation": float(np.linalg.norm(prep.state - prep.designed)),
        "error_2norm": error_2norm,
        "delta_nominal": delta_a,
    }
    payload = PureState(prep.circuit.n, theta_hat)
    report = ExecutionReport(
        query_count=_FOUR_QUERY_COUNT,
        error_2norm=error_2norm,
        output_pure=payload,
        copies=s,
    )
    return report, diagnostics


def _setup(
    psi: PureState,
    epsilon: float,
    ideal: bool,
    s: int | None,
    plan: SynthesisPlan | None,
    oracle: OracleSpec | None,
) -> tuple[PreparedCircuit, tuple[float, float], int]:
    """What every four-query entry point starts from: the prepared circuit,
    the column (h0, h1) of the one-step amplification gate G, which scales
    the nominal junk amplitude delta to sin(pi/6), and the copy count: s if
    given, else the default for delta."""
    plan, oracle = ensure_plan(psi, epsilon, plan=plan, oracle=oracle)
    prep = PreparedCircuit(plan, oracle, ideal)
    h0 = _SIN_PI_6 / prep.delta
    if h0 > 1.0:
        raise ValueError(
            f"junk amplitude {prep.delta:.4f} below sin(pi/6); "
            "the one-step amplification gate is undefined"
        )
    if s is None:
        s = default_copy_count(epsilon, prep.delta)
    if s < 2 or s & (s - 1):
        raise ValueError(f"copy count must be a power of two >= 2, got {s}")
    return prep, (h0, math.sqrt(1.0 - h0 * h0)), s


def run_four_query(
    psi: PureState,
    epsilon: float,
    ideal: bool = False,
    s_override: int | None = None,
    plan: SynthesisPlan | None = None,
    oracle: OracleSpec | None = None,
) -> ExecutionReport:
    """Clean synthesis in exactly four queries, on the structured branch
    bookkeeping (any copy count)."""
    report, _ = _structured_run(*_setup(psi, epsilon, ideal, s_override, plan, oracle))
    return report


def four_query_diagnostics(
    psi: PureState,
    epsilon: float,
    ideal: bool = False,
    s_override: int | None = None,
    plan: SynthesisPlan | None = None,
    oracle: OracleSpec | None = None,
) -> dict:
    """Structured-run internals: checkpoint gaps, fail weight, deviations."""
    _, diagnostics = _structured_run(*_setup(psi, epsilon, ideal, s_override, plan, oracle))
    return diagnostics


# -- dense cross-check --------------------------------------------------------


def _field_shifts(s: int, t_reg: int, n: int) -> dict:
    """Bit offsets of each register in the dense layout, most significant
    first: K (log2 s), output (n), then per copy (rotation 1, index t_reg,
    payload n)."""
    k_bits = (s - 1).bit_length()
    copy_bits = 1 + t_reg + n
    total = k_bits + n + s * copy_bits
    shifts = {"total": total, "k": total - k_bits, "o": total - k_bits - n}
    for j in range(s):
        base = total - k_bits - n - (j + 1) * copy_bits
        shifts[("g", j)] = base + t_reg + n
        shifts[("b", j)] = base + n
        shifts[("a", j)] = base
    return shifts


def _apply_field_matrix(
    state: np.ndarray, total: int, shift: int, width: int, mat: np.ndarray
) -> np.ndarray:
    """Apply a 2^width unitary to the register occupying bits [shift, shift+width)."""
    pre = 1 << (total - shift - width)
    post = 1 << shift
    view = state.reshape(pre, 1 << width, post)
    return np.einsum("ab,pbq->paq", mat, view).reshape(-1)


def _dense_run(
    prep: PreparedCircuit, h: tuple[float, float], s: int
) -> tuple[PureState, dict]:
    rows, dim, n = prep.circuit.rows, prep.circuit.dim, prep.circuit.n
    t_reg = prep.circuit.t_reg
    sh = _field_shifts(s, t_reg, n)
    total = sh["total"]
    if total > 22:
        raise ValueError(f"dense evaluator refuses {total}-qubit instances")
    k_bits = (s - 1).bit_length()

    f_dim = rows * dim
    a_mat = np.zeros((f_dim, f_dim), dtype=np.complex128)
    for col, basis in enumerate(np.eye(f_dim, dtype=np.complex128).reshape(f_dim, rows, dim)):
        a_mat[:, col] = prep.apply(basis).reshape(-1)
    h0, h1 = h
    g_mat = np.array([[h0, -h1], [h1, h0]], dtype=np.complex128)
    w_mat = np.kron(g_mat, a_mat)
    w_dag = w_mat.conj().T
    r0 = -np.eye(2 * f_dim, dtype=np.complex128)
    r0[0, 0] = 1.0
    # The junk-flag reflection: -1 on the rotation qubit's |0> half off the
    # success row.
    r_flag = np.eye(2 * f_dim, dtype=np.complex128)
    np.fill_diagonal(r_flag[dim:f_dim, dim:f_dim], -1.0)

    state = np.zeros(1 << total, dtype=np.complex128)
    state[0] = 1.0
    # Line 1: prepare every copy (one merged query).  c[j][kval] says whether
    # copy j's description register holds z on the K = kval slice.
    for j in range(s):
        state = _apply_field_matrix(state, total, sh[("a", j)], t_reg + n, a_mat)
    c_table = np.ones((s, s), dtype=np.int64)

    # Line 2: K ^= index of the first successful copy.
    perm = np.arange(1 << total, dtype=np.int64)
    b_masks = [(((1 << t_reg) - 1) << sh[("b", j)]) for j in range(s)]
    for idx in range(1 << total):
        for j in range(s):
            if idx & b_masks[j] == 0:
                perm[idx] = idx ^ (j << sh["k"])
                break
    routed = np.zeros_like(state)
    routed[perm] = state
    state = routed

    # Line 3: route the selected payload to the output register.
    perm = np.arange(1 << total, dtype=np.int64)
    n_mask = (1 << n) - 1
    for idx in range(1 << total):
        kval = (idx >> sh["k"]) & ((1 << k_bits) - 1)
        o_val = (idx >> sh["o"]) & n_mask
        a_val = (idx >> sh[("a", kval)]) & n_mask
        new = idx & ~((n_mask << sh["o"]) | (n_mask << sh[("a", kval)]))
        perm[idx] = new | (a_val << sh["o"]) | (o_val << sh[("a", kval)])
    routed = np.zeros_like(state)
    routed[perm] = state
    state = routed
    psi7 = state.copy()

    # Line 4: cancel the selected copy's description register against a
    # partner copy's (both hold z; no query).
    for kval in range(s):
        c_table[kval, kval] ^= c_table[kval ^ 1, kval]

    # Lines 5-16: three uncomputation layers.  Failed copies (j < kval) get
    # the three-layer U^dagger; untouched copies (j > kval) get the plain
    # inverse circuit, merged into the first layer.
    k_slice_len = 1 << (total - k_bits)

    def on_slice(kval: int, j: int, mat: np.ndarray, width_bits: int, shift: int) -> None:
        lo = kval * k_slice_len
        segment = state[lo : lo + k_slice_len]
        state[lo : lo + k_slice_len] = _apply_field_matrix(
            segment, total - k_bits, shift, width_bits, mat
        )

    for kval in range(s):
        for j in range(s):
            if j < kval:
                on_slice(kval, j, w_dag, 1 + t_reg + n, sh[("a", j)])
                c_table[j, kval] ^= 1
            elif j > kval:
                on_slice(kval, j, a_mat.conj().T, t_reg + n, sh[("a", j)])
                c_table[j, kval] ^= 1
    for kval in range(s):
        for j in range(kval):
            if c_table[j, kval] == 0:
                on_slice(kval, j, r0, 1 + t_reg + n, sh[("a", j)])
            else:
                lo = kval * k_slice_len
                state[lo : lo + k_slice_len] *= -1.0
    for kval in range(s):
        for j in range(kval):
            on_slice(kval, j, w_mat, 1 + t_reg + n, sh[("a", j)])
            c_table[j, kval] ^= 1
    for kval in range(s):
        for j in range(kval):
            on_slice(kval, j, r_flag, 1 + t_reg + n, sh[("a", j)])
    for kval in range(s):
        for j in range(kval):
            on_slice(kval, j, w_dag, 1 + t_reg + n, sh[("a", j)])
            c_table[j, kval] ^= 1

    # Line 17: fold the geometric weights on K back onto |0>.
    for q in range(k_bits):
        gate = _ratio_gate(prep.delta ** (1 << (k_bits - 1 - q)))
        state = _apply_field_matrix(state, total, sh["k"] + k_bits - 1 - q, 1, gate.T)

    if np.any(c_table != 0):
        raise RuntimeError("description registers not cleaned by the layer schedule")

    target = np.zeros_like(state)
    psi_amps = prep.plan.target.amps
    for o_val in range(dim):
        target[o_val << sh["o"]] = psi_amps[o_val]
    info = {
        "psi7": psi7,
        "success_amplitude": abs(complex(np.vdot(target, state))),
        "error_2norm": float(np.linalg.norm(state - target)),
    }
    return PureState(total, state), info


def run_four_query_dense(
    psi: PureState,
    epsilon: float,
    s: int = 2,
    ideal: bool = False,
    plan: SynthesisPlan | None = None,
    oracle: OracleSpec | None = None,
) -> tuple[PureState, dict]:
    """Full-register simulation of the four-query driver (tiny instances)."""
    return _dense_run(*_setup(psi, epsilon, ideal, s, plan, oracle))


def expand_structured(
    psi: PureState,
    epsilon: float,
    s: int,
    ideal: bool = False,
    plan: SynthesisPlan | None = None,
    oracle: OracleSpec | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Structured branches expanded to the dense layout (tiny instances).

    Returns (state at the routing checkpoint, final state); used to validate
    the branch bookkeeping against the dense evaluator bit for bit.
    """
    prep, h, s = _setup(psi, epsilon, ideal, s, plan, oracle)
    rows, dim, n = prep.circuit.rows, prep.circuit.dim, prep.circuit.n
    sh = _field_shifts(s, prep.circuit.t_reg, n)
    if sh["total"] > 22:
        raise ValueError(f"refusing {sh['total']}-qubit expansion")
    k_bits = (s - 1).bit_length()
    weights, fail_weight = _structured_branches(prep, s)

    def padded(factor: np.ndarray) -> np.ndarray:
        """A one-register factor of a copy with its rotation qubit at |0>, flat."""
        return np.stack([factor, np.zeros_like(factor)]).reshape(-1)

    w_junk = _junk_uncompute_image(prep, h).reshape(-1)
    w_back = padded(prep.apply_dagger(prep.state))
    w_fail_copy = padded(prep.apply_dagger(prep.tau_hat))

    l_mat = np.ones((1, 1))
    for q in range(k_bits):
        l_mat = np.kron(l_mat, _ratio_gate(prep.delta ** (1 << (k_bits - 1 - q))))

    def branch_vector(kvec: np.ndarray, parts: list[np.ndarray]) -> np.ndarray:
        out = kvec
        for part in parts:
            out = np.kron(out, part)
        return out

    e_copy = padded(prep.circuit.zero_state())
    tau_stack = padded(prep.tau_hat)
    psi_eff_stack = padded(prep.state)
    theta_hat = prep.theta_hat
    # The fail branch's joint (output, rotation, index, payload) factor for
    # copy 0: the routing swap moved the output's |0..0> into the payload
    # slot and the junk payload into the output.
    fail_joint = np.zeros((dim, 2, rows, dim), dtype=np.complex128)
    fail_joint[:, 0, :, 0] = prep.tau_hat.T
    fail_joint = fail_joint.reshape(-1)

    checkpoint = np.zeros(1 << sh["total"], dtype=np.complex128)
    final = np.zeros_like(checkpoint)
    for k, weight in enumerate(weights):
        kvec = np.zeros(s, dtype=np.complex128)
        kvec[k] = 1.0
        copies_ck = [tau_stack] * k + [e_copy] + [psi_eff_stack] * (s - 1 - k)
        checkpoint += weight * branch_vector(kvec, [theta_hat] + copies_ck)
        copies_fin = [w_junk] * k + [e_copy] + [w_back] * (s - 1 - k)
        final += weight * branch_vector(l_mat.T @ kvec, [theta_hat] + copies_fin)
    kvec0 = np.zeros(s, dtype=np.complex128)
    kvec0[0] = 1.0
    checkpoint += fail_weight * branch_vector(kvec0, [fail_joint] + [tau_stack] * (s - 1))
    final += fail_weight * branch_vector(
        l_mat.T @ kvec0, [fail_joint] + [w_fail_copy] * (s - 1)
    )
    return checkpoint, final
