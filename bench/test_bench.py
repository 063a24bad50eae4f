"""Self-tests of the benchmark (no timing gates).

    python3 -m pytest -q bench
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))


def test_self_times_on_a_synthetic_span_tree():
    # root 0-10 with children a 1-4 and b 5-6; a has child a1 2-3;
    # c 3.5-11 overlaps a and runs past the root, so only 4-10 is new coverage
    names = ["root", "a", "b", "a1", "c"]
    starts = [0.0, 1.0, 5.0, 2.0, 3.5]
    ends = [10.0, 4.0, 6.0, 3.0, 11.0]
    parents = [-1, 0, 0, 1, 0]
    own = dict(zip(names, layertrace.self_times(starts, ends, parents)))
    assert own["a1"] == pytest.approx(1.0)
    assert own["a"] == pytest.approx(2.0)
    assert own["b"] == pytest.approx(1.0)
    assert own["root"] == pytest.approx(10.0 - (4.0 - 1.0) - (10.0 - 4.0))


def test_self_times_of_a_nested_tree_add_up_to_the_root():
    starts = [0.0, 1.0, 1.5, 2.5, 6.0]
    ends = [8.0, 5.0, 2.0, 4.0, 7.5]
    parents = [-1, 0, 1, 1, 0]
    assert sum(layertrace.self_times(starts, ends, parents)) == pytest.approx(8.0)


def test_rescale_divides_out_the_probed_speed():
    ref = hostspeed.REFERENCE_PROBE_S
    # probes at twice the reference time (a host at half speed) around two
    # 10 ms slices, then a probe at the reference time
    probes = [(0.0, 2 * ref), (0.010 + 2 * ref, 0.010 + 4 * ref),
              (0.020 + 4 * ref, 0.020 + 5 * ref)]
    wall, norm = hostspeed.rescale(probes)
    assert wall == pytest.approx(0.020)
    # each slice takes the median of the probes around it: (2 ref, 2 ref, ref)
    assert norm == pytest.approx(0.010 / 2 + 0.010 / 2)


def test_one_slow_probe_does_not_distort_its_neighbours():
    ref = hostspeed.REFERENCE_PROBE_S
    took = [ref, ref, 50 * ref, ref, ref]
    probes, t = [], 0.0
    for probe in took:
        probes.append((t, t + probe))
        t += probe + 0.010
    wall, norm = hostspeed.rescale(probes)
    assert wall == pytest.approx(0.040)
    assert norm == pytest.approx(0.040)


def test_speed_probe_times_a_region_without_its_probes():
    with hostspeed.SpeedProbe() as probe:
        end = time.perf_counter() + 4 * hostspeed.PROBE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(probe.probes) >= 3
    first, last = probe.probes[0][1], probe.probes[-1][0]
    inner = sum(e - s for s, e in probe.probes[1:-1])
    assert probe.wall_s == pytest.approx(last - first - inner)
    assert probe.norm_s > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("name", ["series-rational", "triangle-integer"])
def test_seed_fixes_the_inputs(name):
    make, _ = workloads.WORKLOADS[name]
    assert make(7, "tiny") == make(7, "tiny")
    assert make(7, "tiny")[0] != make(8, "tiny")[0]
    assert make(7)[0] != make(8)[0]


def _corrupt(name, expected):
    if name == "check-all":
        first, rest = expected.split(b"\n", 1)
        return first.replace(b"holds", b"fails") + b"\n" + rest, 1
    if name == "series-rational":
        wrong = dict(expected, round_trip=[0, 2] + expected["round_trip"][2:])
        return wrong, 2  # both round trips of the one tiny trial
    wrong = dict(expected, even_fib=[*expected["even_fib"][:-1], -1])
    return wrong, 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_and_a_wrong_expectation_fails(name):
    make, run = workloads.WORKLOADS[name]
    inputs, expected = make(3, "tiny")
    good = run(inputs, expected)
    assert good.attempted > 0 and good.failed == 0 and good.work > 0
    assert good.wall_s > 0 and good.norm_s == good.wall_s
    probed = run(inputs, expected, hostspeed.SpeedProbe())
    assert probed.failed == 0 and probed.norm_s > 0
    wrong, failures = _corrupt(name, expected)
    bad = run(inputs, wrong)
    assert bad.attempted == good.attempted
    assert bad.failed == failures
    assert bad.work < good.work


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_worker_reports_every_layer_metric(name):
    # a fresh interpreter, so the wrapping never leaks into this process
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), name, "3", "1", "tiny"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["failed"] == 0
    layers = record["layers"]
    declared = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_s"}
    assert set(layers) == declared
    assert layers["trace.self_total_s"] + layers["trace.remainder_s"] == pytest.approx(
        layers["trace.wall_s"])
    assert 0 <= layers["trace.self_total_s"] <= layers["trace.wall_s"]
    assert layers["series.mul.calls"] > 0


def test_a_failed_operation_hides_every_time(monkeypatch):
    import run

    values = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
    monkeypatch.setattr(run, "measure", lambda *args: (36, 1, values))
    result = run.run_workload(SPEC, "check-all", 1, 1.0, trace=False)
    assert result == {"correct": False, "attempted": 36, "failed": 1, "metrics": {}}
    monkeypatch.setattr(run, "measure", lambda *args: (36, 0, values))
    assert run.run_workload(SPEC, "check-all", 1, 1.0, trace=False)["correct"]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
