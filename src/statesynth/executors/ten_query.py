"""Ten-query synthesis of a clean pure output.

A fresh rotation qubit scales the success amplitude to exactly sin(pi/18);
four rounds of amplitude amplification then rotate the state onto the
success flag (9 * pi/18 = pi/2), after which the description register is
uncomputed.  Query budget: 1 preparation + 4 * 2 reflections + 1 uncompute.

The `ideal` switch is PreparedCircuit's ideal mode: the prepared copy is
its designed form gamma |0..0>|psi> + sqrt(1 - gamma^2) |tau_hat> (keeping
the circuit's actual junk direction), under which the rotation lands
exactly on the target.
"""

from __future__ import annotations

import math

import numpy as np

from ..numerics import PureState
from ..synthesis import OracleSpec, SynthesisPlan, nominal_success_amplitude
from .common import ExecutionReport, PreparedCircuit, _reflect_about_lift, ensure_plan

_TEN_QUERY_COUNT = 10


def run_ten_query(
    psi: PureState,
    epsilon: float,
    ideal: bool = False,
    plan: SynthesisPlan | None = None,
    oracle: OracleSpec | None = None,
) -> ExecutionReport:
    plan, oracle = ensure_plan(psi, epsilon, plan=plan, oracle=oracle)
    g = nominal_success_amplitude(plan)
    lift = math.sin(math.pi / 18.0)
    if g < lift:
        raise ValueError(
            f"ten-query driver needs success amplitude >= sin(pi/18) ~ {lift:.4f}; "
            f"this plan provides {g:.4f}"
        )
    prep = PreparedCircuit(plan, oracle, ideal)
    g0 = lift / g
    g1 = math.sqrt(1.0 - g0 * g0)
    # Two stacks over the rotation qubit: the state, reflected in place, and
    # the scratch each reflection builds theta in.
    state = np.stack([g0 * prep.state, g1 * prep.state])
    scratch = np.empty_like(state)
    for _ in range(4):
        state[0, 0, :] *= -1.0
        _reflect_about_lift(prep.state, (g0, g1), state, scratch)
    # The error against the target |0>|0..0>|psi>, taken in scratch: the
    # difference is the state but for psi subtracted from its success row.
    np.copyto(scratch, state)
    scratch[0, 0, :] -= plan.target.amps
    final = PureState(1 + prep.circuit.t_reg + plan.params.n, state.reshape(-1))
    # The ten queries XOR z into the description register an even number of
    # times (1 prepare + 2 per reflection + 1 uncompute), leaving it zero.
    return ExecutionReport(
        query_count=_TEN_QUERY_COUNT,
        error_2norm=float(np.linalg.norm(scratch)),
        output_pure=final,
    )
