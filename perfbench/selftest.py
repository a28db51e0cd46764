"""The benchmark's own tests: tiny-scale smokes through the entry point.

Each smoke runs ``perfbench/run.py`` exactly as the benchmark is run, at the
``tiny`` scale, and checks that every metric is printed by name with its
unit and that the output check accepts the run.  The remaining tests prove
the guards: a wrong reference digest fails every run, a run past its timeout
is killed with its shard workers, and a checkout without the simulator's
sources is refused.

The file name keeps these subprocess-driven checks out of the repository's
own test run; run them explicitly from the repository root with
``python3 -m pytest perfbench/selftest.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import spec, speed
from perfbench.tracing import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--scale", "tiny", "--seed", "1"]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def assert_printed(completed: subprocess.CompletedProcess, metrics) -> None:
    payload = result(completed)
    assert set(payload["metrics"]) == {metric.name for metric in metrics}
    lines = completed.stdout.splitlines()[:-1]
    for metric in metrics:
        assert payload["metrics"][metric.name]["unit"] == metric.unit
        assert any(
            line.split()[:1] == [metric.name] and line.split()[2] == metric.unit for line in lines
        ), f"{metric.name} not printed with its unit"


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(workload):
    completed = bench("--workload", workload, "--seconds", "1")
    payload = result(completed)
    assert payload["correct"] and payload["failed"] == 0 and payload["attempted"] >= 1
    assert_printed(completed, spec.END_TO_END)
    assert "failed_frac" in completed.stdout


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_traced_smoke_prints_every_per_layer_metric(workload):
    completed = bench("--workload", workload, "--seconds", "1", "--trace", "1")
    payload = result(completed)
    assert payload["correct"] and payload["failed"] == 0
    assert_printed(completed, spec.PER_LAYER)
    coverage = payload["metrics"]["trace.drive_coverage"]["value"]
    assert 0.95 < coverage <= 1.0 + 1e-9
    trace = ROOT / "perfbench" / "out" / f"trace-{workload}-seed1.json"
    events = json.loads(trace.read_text())["traceEvents"]
    assert {"setup", "drive", "experiments.step"} <= {event["name"] for event in events}


def test_all_prints_every_workload_in_one_command():
    completed = bench("--all", "--seconds", "1")
    payload = result(completed)
    assert set(payload) == set(spec.WORKLOADS)
    for workload in spec.WORKLOADS:
        assert payload[workload]["correct"]
        assert set(payload[workload]["metrics"]) == {metric.name for metric in spec.END_TO_END}
        assert f"workload {workload} seed 1: runs" in completed.stdout


def test_wrong_reference_digest_fails_every_run(tmp_path):
    references = tmp_path / "references.json"
    draws = range(spec.WORKLOADS["flat-churn"].runs(1))
    wrong = {str(spec.draw_seed(1, draw)): "sha256:0" for draw in draws}
    references.write_text(json.dumps({"tiny": {"flat-churn": wrong}}))
    completed = bench("--workload", "flat-churn", "--seconds", "1",
                      "--references", str(references))
    payload = result(completed)
    assert not payload["correct"]
    assert payload["failed"] == payload["attempted"] >= 1
    assert "failed_frac                  1.0000" in completed.stdout
    assert "!= reference sha256:0" in completed.stdout


def test_hung_run_is_killed_with_its_workers():
    completed = bench("--workload", "clustered-10k", "--seconds", "1", "--run-timeout", "0.5")
    payload = result(completed)
    assert payload["failed"] == payload["attempted"] >= 1
    assert "timed out after" in completed.stdout
    leftover = subprocess.run(["ps", "-eo", "args"], capture_output=True, text=True).stdout
    assert "perfbench.child --workload clustered-10k --seed 1 --scale tiny" not in leftover


def test_checkout_without_sources_is_refused(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flat-churn", "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_benchmark_json_matches_spec():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == spec.benchmark_json()
    assert all(len(workload["why"]) <= 200 for workload in document["workloads"])
    assert all(metric["bound"] <= 0.25 for metric in document["end_to_end"])


def test_self_time_subtracts_direct_children():
    # parent [0, 10] holds children [1, 4] and [5, 6]; the first has a child [2, 3].
    spans = [["run", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1], ["a", 5.0, 6.0, 0]]
    assert self_times(spans) == {"run": 6.0, "a": 3.0, "b": 1.0}
    assert self_times(spans, within=1) == {"b": 1.0}


def test_wrap_records_nested_spans_and_restores():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "layer.outer")
    tracer.wrap(Layer, "inner", "layer.inner")
    assert Layer().outer() == 2
    tracer.restore()
    assert Layer().outer() == 2
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("layer.outer", -1), ("layer.inner", 0)
    ]


def test_meter_scales_each_span_by_the_probes_next_to_it():
    unit = speed.REFERENCE_KERNEL_S

    def sample(middle, seconds):
        # An untimed warm pass, then the timed pass centred on ``middle``.
        return (middle - 1.5 * seconds, middle - 0.5 * seconds, middle + 0.5 * seconds)

    meter = speed.Meter()
    # The host runs the kernel at reference speed around t=0 and at half
    # speed around t=10: one host second there is half a reference second.
    meter.samples = [sample(-0.05, unit), sample(1.05, unit),
                     sample(9.95, 2 * unit), sample(11.05, 2 * unit)]
    scaled = meter.scale([(0.0, 1.0), (10.0, 11.0), (5.0, 5.5)])
    # A span with no probe within the window takes the nearest one.
    assert scaled == [pytest.approx((1.0, 1.0)), pytest.approx((0.5, 1.0)),
                      pytest.approx((0.5, 0.5))]
    # A probe that fell inside a span is cut out of it.
    assert meter.scale([(0.0, 1.2)]) == [pytest.approx((1.2 - 2 * unit, 1.2 - 2 * unit))]
