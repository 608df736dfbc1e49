"""One fresh benchmark process: set up, then run at most one pass.

Usage: python3 perfbench/worker.py '<json config>'

The config names the workload, the seed and the mode: "setup" (set up and
exit), "pass" (untraced timed pass), "trace" (traced pass, spans written to
config["spans_path"]) or "profile" (pass under cProfile). The worker prints
one JSON line when set-up is done, then waits for "go" on stdin before the
pass, and prints one JSON line with the pass's results. Everything statesynth
prints goes to stderr, so stdout carries only these lines.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    config = json.loads(sys.argv[1])
    proto, sys.stdout = sys.stdout, sys.stderr

    def send(message: dict) -> None:
        proto.write(json.dumps(message) + "\n")
        proto.flush()

    import numpy as np

    import statesynth
    import statesynth.cli  # noqa: F401  (every lookup site exists before tracing)
    import workloads

    workloads.warm_up()
    cals = [workloads.calibrate() for _ in range(3)]
    send({"ready": True, "numpy": np.__version__, "statesynth": statesynth.__file__,
          "cal": sorted(cals)[1], "cal_s": sum(cals)})
    if config["mode"] == "setup" or sys.stdin.readline().strip() != "go":
        return 0

    import resource

    workload, mode = config["workload"], config["mode"]
    inputs = workloads.make_inputs(workload, config["seed"])
    tracer = profiler = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    elif mode == "profile":
        import cProfile

        # A profiled pass is not timed; keep the calibration loop's builtin
        # calls out of the profile.
        workloads.calibrate = lambda: 1.0

        profiler = cProfile.Profile()
        profiler.enable()
    wall_start, cpu_start = time.perf_counter(), time.process_time()
    ops, units = workloads.run_pass(workload, inputs, tracer)
    wall_s = time.perf_counter() - wall_start
    cpu_s = time.process_time() - cpu_start
    result = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "units": units,
        "ops": ops,
    }
    if profiler is not None:
        import io
        import pstats

        profiler.disable()
        text = io.StringIO()
        pstats.Stats(profiler, stream=text).sort_stats("tottime").print_stats(15)
        result["profile"] = text.getvalue()
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(config["spans_path"])
    send(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
