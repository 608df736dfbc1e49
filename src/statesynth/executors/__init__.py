"""Circuit drivers that consume a synthesis plan through its oracle.

Four entry points, one per query regime:

* :func:`run_postselect` — the single-query postselected synthesizer.
* :func:`run_one_query` — s parallel copies, first success selected
  coherently; output is a reduced density matrix (analytic composition).
* :func:`run_ten_query` — amplitude amplification to a clean pure output
  in exactly ten queries.
* :func:`run_four_query` — the four-query clean synthesizer, evaluated on
  a structured branch decomposition (:func:`run_four_query_dense` simulates
  the full register on tiny instances).

A driver's inputs are the target, epsilon, and the plan and oracle to query
(``plan=``/``oracle=``); without them it builds the default plan (Clifford,
exact signs, seed 0, derived register width).  Other plans come from
:func:`statesynth.synthesis.build_plan`.
"""

from .common import (
    ExecutionReport,
    OracleMismatchError,
    PostselectCircuit,
    query_substitution_bound,
)
from .four_query import four_query_diagnostics, run_four_query, run_four_query_dense
from .one_query import run_one_query, run_one_query_dense
from .postselect import quantum_z_leakage, run_postselect
from .ten_query import run_ten_query

__all__ = [
    "ExecutionReport",
    "OracleMismatchError",
    "PostselectCircuit",
    "quantum_z_leakage",
    "query_substitution_bound",
    "run_postselect",
    "run_one_query",
    "run_one_query_dense",
    "run_ten_query",
    "run_four_query",
    "run_four_query_dense",
    "four_query_diagnostics",
]
