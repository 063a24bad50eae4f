"""Run a benchmark workload and print its metrics.

    python3 bench/run.py --workload check-all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, by name

Every repetition is a fresh interpreter (``bench/worker.py``), the way a
CLI user starts, so module caches start empty and ``setup_s`` and
``peak_rss_mib`` come from the workload's own process.  Repetitions run
one after another (a closed loop with one client) until ``--seconds``
have passed; each metric is the median over them.  ``setup_s`` also
takes the median of extra import-only interpreters.

The times (``setup_s``, ``wall_s`` and the ``wall_s`` in ``work_per_s``)
are seconds at a reference host speed: ``hostspeed.py`` probes the
speed of the core every 50 ms while a region runs and rescales the
wall time by it, because a shared host's speed drifts too much for raw
wall times to compare from one run to the next.

With ``--trace 1`` each repetition is a pair: the same batch untraced,
then traced, and the per-layer metrics come from the traced one, with
``trace.overhead_s`` = traced ``wall_s`` - untraced ``wall_s``.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json, or
its per-layer metrics with ``--trace 1``).  Any failed operation makes
the run incorrect: no time is reported and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402  (stdlib only; riordan is not imported)

WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 7
REP_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The checkout or a worker is broken; no result can be printed."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_checkout() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "riordan", "cli.py")):
        raise BenchError(f"no riordan sources under {os.path.join(ROOT, 'src')}")


def worker(args: list[str]) -> dict:
    # bytecode caching on, as for an installed CLI, whatever the caller's setting,
    # so that setup_s never includes compiling the sources
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_samples() -> list[float]:
    worker(["--setup-only"])  # writes bytecode caches in a fresh checkout; not counted
    return [worker(["--setup-only"])["setup_norm_s"] for _ in range(SETUP_SAMPLES)]


def repeat(seconds: float, once) -> list:
    """Call ``once`` until ``seconds`` have passed, at least once."""
    out = []
    start = time.monotonic()
    while not out or time.monotonic() - start < seconds:
        out.append(once())
    return out


def measure(workload: str, seed: int, seconds: float) -> tuple[int, int, dict]:
    setups = setup_samples()
    reps = repeat(seconds, lambda: worker([workload, str(seed), "0"]))
    metrics = {
        "setup_s": statistics.median(setups + [r["setup_norm_s"] for r in reps]),
        "wall_s": statistics.median(r["norm_s"] for r in reps),
        "work_per_s": statistics.median(r["work"] / r["norm_s"] for r in reps),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps),
    }
    return sum(r["attempted"] for r in reps), sum(r["failed"] for r in reps), metrics


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[int, int, dict]:
    def pair():
        plain = worker([workload, str(seed), "0"])
        traced = worker([workload, str(seed), "1"])
        traced["layers"]["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        return plain, traced

    pairs = repeat(seconds, pair)
    reps = [r for p in pairs for r in p]
    layers = [traced["layers"] for _, traced in pairs]
    metrics = {name: statistics.median(ls[name] for ls in layers) for name in layers[0]}
    return sum(r["attempted"] for r in reps), sum(r["failed"] for r in reps), metrics


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    measure_fn = measure_traced if trace else measure
    attempted, failed, values = measure_fn(workload, seed, seconds)
    declared = spec["per_layer" if trace else "end_to_end"]
    mismatch = {m["name"] for m in declared} ^ set(values)
    if mismatch:
        raise BenchError(f"metrics do not match BENCHMARK.json: {sorted(mismatch)}")
    metrics = {} if failed else {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        spec = load_spec()
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            result = run_workload(spec, name, args.seed, seconds, bool(args.trace))
            results[name] = result
            if args.workload == "all":
                print(f"{name}: fail_frac {result['failed'] / result['attempted']:.6g}"
                      f" ({result['failed']}/{result['attempted']} operations failed)")
                for metric, m in result["metrics"].items():
                    print(f"{name}: {metric} {m['value']:.6g} {m['unit']}")
    except (BenchError, OSError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        failed = sum(r["failed"] for r in results.values())
        combined = {
            "correct": failed == 0,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": failed,
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    else:
        combined = results[args.workload]
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
