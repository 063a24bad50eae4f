"""One measured repetition of a workload, in a fresh interpreter.

    python3 bench/worker.py <workload> <seed> <trace 0|1> [full|tiny]
    python3 bench/worker.py --setup-only

The first thing timed is ``import riordan.cli`` (``setup_s``), which
builds the identity REGISTRY, as every CLI invocation does; the module
caches therefore start empty.  The last stdout line is one JSON object.
Only ``hostspeed`` and the few built-in modules it needs are imported
before that import, so its cost is not hidden.

Untraced runs time the import and the batch with ``hostspeed.SpeedProbe``
and report both the wall time and the time at the reference host speed
(``*_norm_s``).  Traced runs use a plain stopwatch, so that no probe
runs inside a traced span.
"""

import os
import sys

from hostspeed import SpeedProbe, Stopwatch

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv: list[str]) -> int:
    sys.path.insert(0, SRC)
    trace = len(argv) > 2 and argv[2] == "1"
    setup = Stopwatch() if trace else SpeedProbe()
    with setup:
        import riordan.cli

    if not os.path.abspath(riordan.cli.__file__).startswith(SRC + os.sep):
        print(f"worker: riordan imported from outside {SRC}", file=sys.stderr)
        return 2

    import json
    import resource

    setup_times = {"setup_s": setup.wall_s, "setup_norm_s": setup.norm_s}
    if argv == ["--setup-only"]:
        print(json.dumps(setup_times))
        return 0
    workload, seed = argv[0], int(argv[1])
    size = argv[3] if len(argv) > 3 else "full"

    import layertrace
    import workloads

    make, run = workloads.WORKLOADS[workload]
    inputs, expected = make(seed, size)
    tracer = None
    if trace:
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    outcome = run(inputs, expected, Stopwatch() if trace else SpeedProbe())
    record = {
        **setup_times,
        "wall_s": outcome.wall_s,
        "norm_s": outcome.norm_s,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "work": outcome.work,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        record["layers"] = layertrace.layer_metrics(tracer, outcome.wall_s)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
