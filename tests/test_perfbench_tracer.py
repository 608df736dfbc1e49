"""The names perfbench's tracer wraps still exist and are still reached.

``perfbench/tracer.py`` replaces module attributes and the methods of
``PostselectCircuit`` and reads the circuit's ``rows`` and ``dim``, so a
rename in the package silently breaks ``perfbench/run.py --trace 1``.  The
tracer patches classes for the life of the process, so it runs in a
subprocess here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import json

import numpy as np

import tracer
from statesynth import executors, synthesis
from statesynth.numerics import PureState, haar_random_state

trace = tracer.Tracer()
tracer.install(trace)
psi = PureState(1, np.array([0.6, 0.8j]))
plan = synthesis.build_plan(psi, synthesis.derive_params(1, 0.1, t_override=2), seed=1)
oracle = synthesis.plan_to_oracle(plan)
kw = {"plan": plan, "oracle": oracle}
executors.run_postselect(plan, oracle)
executors.run_one_query(psi, 0.1, **kw)
executors.run_ten_query(psi, 0.1, **kw)
executors.run_four_query(psi, 0.1, **kw)
# A plan whose searches reach random trials (T = 4).
synthesis.build_plan(haar_random_state(2, 3), synthesis.derive_params(2, 0.25, t_override=2),
                     seed=3)
print(json.dumps(trace.layer_metrics()))
"""

#: The layers whose spans the tracer counts, one per wrapped entry point.
_CALL_METRICS = (
    "clifford.search.calls",
    "clifford.apply.calls",
    "executors.circuit_build.calls",
    "executors.circuit_apply.calls",
    "numerics.trace_distance_mixed.calls",
)


def test_tracer_reaches_every_wrapped_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.strip().splitlines()[-1])
    for key in _CALL_METRICS:
        assert metrics[key] > 0, key
    # One query each for postselect and one-query, ten and four.
    assert metrics["executors.queries"] == 16
    # One C^dagger per search trial and one C per step of the two T = 4 plans.
    assert metrics["clifford.apply.calls"] == metrics["clifford.search.trials"] + 8
    # Trials past the identity are counted at `random_clifford_from`, so a
    # search that drew its Cliffords some other way would count none.
    assert metrics["clifford.search.trials"] > metrics["clifford.search.calls"]
