"""Single-query postselected synthesis."""

from __future__ import annotations

import math

import numpy as np

from ..numerics import PureState
from ..synthesis import OracleSpec, SynthesisPlan
from .common import (
    ExecutionReport,
    OracleMismatchError,
    PostselectCircuit,
    PreparedCircuit,
)


def run_postselect(plan: SynthesisPlan, oracle: OracleSpec) -> ExecutionReport:
    """Run the plan's circuit once and report the success-branch quality.

    The prepared state is g |0..0>|psi'>|z> + (junk orthogonal to the flag),
    with psi' within the schedule's terminal residual of the target.  Exactly
    one merged oracle query is consumed; the classical description register
    is checked to hold z afterwards.

    The 2-norm error is the distance from the prepared state to the nearest
    state of the designed form g |0..0>|psi> + sqrt(1 - g^2) |junk> with the
    junk branch orthogonal to the success flag and g the plan's nominal
    success amplitude; the trace error is the postselected output's.
    """
    prep = PreparedCircuit(plan, oracle)
    circuit = prep.circuit
    if circuit.z_register != plan.z:
        raise OracleMismatchError("description register does not hold z after the run")
    theta, amp, g = prep.actual[0], prep.amp, prep.gamma
    psi = plan.target.amps
    flag_err_sq = float(np.linalg.norm(theta - g * psi) ** 2)
    rest = math.sqrt(max(0.0, 1.0 - amp * amp))
    rest_err = rest - math.sqrt(max(0.0, 1.0 - g * g))
    if amp > 0.0:
        overlap = min(1.0, abs(complex(np.vdot(psi, theta))) / amp)
    else:
        overlap = 0.0
    return ExecutionReport(
        query_count=circuit.query_count,
        success_amplitude=amp,
        error_2norm=math.sqrt(flag_err_sq + rest_err * rest_err),
        error_trace=math.sqrt(max(0.0, 1.0 - overlap * overlap)),
        output_pure=PureState(circuit.t_reg + plan.params.n, prep.actual.reshape(-1)),
    )


def quantum_z_leakage(plan: SynthesisPlan, oracle: OracleSpec, z_bits: int = 8) -> tuple[float, int]:
    """Run one instance with the first z_bits description bits held as qubits.

    Everywhere else the description register is tracked classically, which is
    sound because the circuit only queries the description addresses with
    computational-basis constants.  This validation mode carries those bits
    through the run as genuine amplitudes and returns (max off-diagonal
    magnitude of their reduced density matrix, the basis value they hold);
    honest oracles give exactly zero leakage and the leading bits of z.
    """
    if not 1 <= z_bits <= 8 * len(plan.z):
        raise ValueError(f"z_bits must lie in [1, {8 * len(plan.z)}], got {z_bits}")
    circuit = PostselectCircuit(plan, oracle)
    zdim = 1 << z_bits
    if circuit.rows * circuit.dim * zdim > (1 << 24):
        raise ValueError("register too large for the quantum-z validation run")
    # Value packing mirrors the description string bytes: address-i bit is
    # bit i of the value, so for z_bits = 8 the register should hold z[0].
    zval = 0
    for i in range(z_bits):
        bit = oracle.query(oracle.T * circuit.dim + i)
        zval |= bit << i
    # The register starts in |0>, and the query's description output XORs
    # the constant zval into it, so the run is A|0..0> on the |zval> slice.
    flat = np.zeros((zdim, circuit.rows * circuit.dim), dtype=np.complex128)
    flat[zval] = circuit.prepare().reshape(-1)
    rho_z = flat @ flat.conj().T
    off = rho_z - np.diag(np.diag(rho_z))
    return float(np.max(np.abs(off))), zval
