"""One-query synthesis with a mixed-state guarantee.

Runs s independent copies of the postselected circuit (their oracle calls
merge into a single query), coherently routes the first success to the
output register, and reports the reduced output state.  Because the copies
are identical and branch flags are orthogonal basis sectors, the reduced
state has a closed form which the driver computes directly:

    rho = (1 - q^s) |theta_hat><theta_hat| + q^s |0..0><0..0|,

where theta_hat is the normalized success branch and q the per-copy failure
probability.  A dense small-instance evaluator of the same selection
circuit backs this composition up bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from ..numerics import (
    DensityMatrix,
    PureState,
    partial_trace_keep_first,
    trace_distance_mixed,
)
from ..synthesis import OracleSpec, SynthesisPlan
from .common import ExecutionReport, PreparedCircuit, ensure_plan


def default_copy_count(epsilon: float, success_amplitude: float) -> int:
    """Copies needed so the all-fail weight drops below (epsilon / 2)^2."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return math.ceil(2.0 * math.log(2.0 / epsilon) / success_amplitude**2)


def run_one_query(
    psi: PureState,
    epsilon: float,
    s_override: int | None = None,
    plan: SynthesisPlan | None = None,
    oracle: OracleSpec | None = None,
) -> ExecutionReport:
    """Reduced output of the first-success composition; one merged query."""
    plan, oracle = ensure_plan(psi, epsilon, plan=plan, oracle=oracle)
    prep = PreparedCircuit(plan, oracle)
    s = s_override if s_override is not None else default_copy_count(epsilon, prep.gamma)
    if s < 1:
        raise ValueError(f"need at least one copy, got {s}")
    amp = prep.amp
    q = max(0.0, 1.0 - amp * amp)
    dim = 1 << plan.params.n
    rho = np.zeros((dim, dim), dtype=np.complex128)
    if amp > 0.0:
        rho += (1.0 - q**s) * np.outer(prep.theta_hat, np.conj(prep.theta_hat))
    rho[0, 0] += q**s
    reduced = DensityMatrix(plan.params.n, rho)
    target = DensityMatrix(
        plan.params.n, np.outer(plan.target.amps, np.conj(plan.target.amps))
    )
    return ExecutionReport(
        query_count=prep.circuit.query_count,
        error_trace=trace_distance_mixed(reduced, target),
        output_reduced=reduced,
        copies=s,
    )


def _first_success_permutation(
    total_bits: int, n: int, t_reg: int, s: int, copy_order: tuple[int, ...]
) -> np.ndarray:
    """Index permutation: route the first successful copy's payload to the output.

    Register layout, most significant first: output (n bits), then for each
    copy j its index register (t_reg bits) and payload (n bits).  For the
    first copy (in `copy_order` priority) whose index field is all zeros,
    the payload field and the output field are exchanged.

    A plain per-index loop, kept as the readable reference the dense
    cross-check compares the analytic composition against; only tiny
    registers reach it.
    """
    copy_bits = t_reg + n
    perm = np.empty(1 << total_bits, dtype=np.int64)
    for idx in range(1 << total_bits):
        new_idx = idx
        for j in copy_order:
            field_shift = total_bits - n - (j + 1) * copy_bits
            b = (idx >> (field_shift + n)) & ((1 << t_reg) - 1)
            if b == 0:
                o_shift = total_bits - n
                o = (idx >> o_shift) & ((1 << n) - 1)
                a = (idx >> field_shift) & ((1 << n) - 1)
                new_idx = idx & ~((((1 << n) - 1) << o_shift) | (((1 << n) - 1) << field_shift))
                new_idx |= a << o_shift
                new_idx |= o << field_shift
                break
        perm[idx] = new_idx
    return perm


def run_one_query_dense(
    psi: PureState,
    epsilon: float,
    s: int = 2,
    copy_order: tuple[int, ...] | None = None,
    plan: SynthesisPlan | None = None,
    oracle: OracleSpec | None = None,
) -> DensityMatrix:
    """Dense simulation of the s-copy selection circuit; returns the reduced output.

    Materializes the full register (output plus s copies), so it is only
    meant for small cross-check instances.  copy_order permutes the priority
    of the first-success rule; the reduced state must not depend on it.
    """
    plan, oracle = ensure_plan(psi, epsilon, plan=plan, oracle=oracle)
    n = plan.params.n
    prep = PreparedCircuit(plan, oracle)
    copy_state = prep.state.reshape(-1)
    t_reg = prep.circuit.t_reg
    total_bits = n + s * (t_reg + n)
    if total_bits > 22:
        raise ValueError(f"dense evaluator refuses {total_bits}-qubit instances")
    order = tuple(copy_order) if copy_order is not None else tuple(range(s))
    if sorted(order) != list(range(s)):
        raise ValueError(f"copy_order must permute range({s}), got {order}")
    output = np.zeros(1 << n, dtype=np.complex128)
    output[0] = 1.0
    full = output
    for _ in range(s):
        full = np.kron(full, copy_state)
    perm = _first_success_permutation(total_bits, n, t_reg, s, order)
    routed = np.zeros_like(full)
    routed[perm] = full
    return partial_trace_keep_first(PureState(total_bits, routed), n)
