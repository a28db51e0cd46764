"""Whole-run benchmark of the Bullet simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flat-churn --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all                # every workload, one table
    python3 perfbench/run.py --describe           # workloads, metrics, layer map
    python3 perfbench/run.py --write-spec         # re-render BENCHMARK.json
    python3 perfbench/run.py --make-references --seeds 1-10

One invocation measures one workload (see :mod:`perfbench.spec`).  It runs
whole simulations back to back, each in a fresh interpreter
(:mod:`perfbench.child`) and each on its own input draw derived from
``--seed``: as many as fill ``--seconds`` at the workload's ``run_s``, at
least the workload's ``draws``.  Then it adds set-up-only runs until the workload
has its set-up samples.  Every run has a timeout; a run that crashes, hangs
or fails the output check counts as failed, with its traceback, and the
benchmark carries on.

Output check: each run's ``ExperimentResult`` (series and scalars) is hashed
with the reproduction pipeline's canonical JSON digest and compared with the
reference stored for the workload and the run's seed in
``perfbench/references.json``.  References of sharded workloads are the
serial run's digest, so the check enforces the sharded == serial
byte-identity contract end to end.  Runs of a seed without a reference must
agree with each other.  Every run must also deliver positive useful
bandwidth, no receiver may count more useful packets than the source sent
(no more than the stream rate over the run; the plateau average itself may
exceed it briefly while a lagging receiver catches up), and the duplicate
ratio must lie in [0, 1).

Times are reported in reference seconds: the host's speed drifts, so each
run times a fixed probe kernel between its steps and, from a timer, during
its set-up, and scales every span by the probes around it (:mod:`perfbench.speed`).  The
unscaled host seconds are printed too, on the line before the result.

``--trace 0`` reports the end-to-end metrics from untraced runs; ``--trace 1``
runs one untraced run and then traced runs, reports the per-layer metrics
(span self times and layer counters) and writes the spans as Chrome
trace-event JSON to ``perfbench/out/``.  The last line of standard output is
always one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spec  # noqa: E402
from perfbench.tracing import chrome_events  # noqa: E402

OUT_DIR = ROOT / "perfbench" / "out"
REFERENCES = ROOT / "perfbench" / "references.json"
#: One invocation must end within this many seconds.
INVOCATION_LIMIT_S = 170.0
#: A single run is killed after this many seconds.
RUN_TIMEOUT_S = 120.0


@dataclass
class Run:
    """One child run as the orchestrator saw it."""

    mode: str
    #: The ``ExperimentConfig`` seed of this run's input draw.
    seed: int
    wall_s: float
    cpu_s: float
    record: Dict[str, object] = field(default_factory=dict)
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


# --------------------------------------------------------------- processes
def _become_subreaper() -> None:
    """Adopt orphaned grandchildren (shard workers of a crashed run).

    Linux only; elsewhere orphans fall back to init and the process-group
    kill below still stops them.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        libc.prctl.restype = ctypes.c_int
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a run's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    while True:
        try:
            os.waitpid(-pgid, 0)
        except ChildProcessError:
            return


def launch(workload: str, seed: int, scale: str, mode: str, timeout_s: float,
           serial: bool = False) -> Run:
    """Run one child interpreter to completion, or kill it at ``timeout_s``."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{os.getpid()}-{time.monotonic_ns()}"
    out_path = OUT_DIR / f"run-{tag}.json"
    err_path = OUT_DIR / f"run-{tag}.err"
    command = [sys.executable, "-m", "perfbench.child", "--workload", workload,
               "--seed", str(seed), "--scale", scale, "--mode", mode, "--out", str(out_path)]
    if serial:
        command.append("--serial")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    waited: List[tuple] = []
    with open(err_path, "wb") as err:
        started = time.perf_counter()
        process = subprocess.Popen(command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                   stdout=subprocess.DEVNULL, stderr=err,
                                   start_new_session=True)
        waiter = threading.Thread(target=lambda: waited.append(os.wait4(process.pid, 0)))
        waiter.start()
        waiter.join(timeout_s)
        timed_out = waiter.is_alive()
        if timed_out:
            os.killpg(process.pid, signal.SIGKILL)
            waiter.join()
        wall = time.perf_counter() - started
    _, status, usage = waited[0]
    process.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(process.pid)
    run = Run(mode=mode, seed=seed, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime)
    stderr = err_path.read_text(errors="replace")
    if timed_out:
        run.error = f"timed out after {timeout_s:.0f} s\n{stderr}"
    elif process.returncode != 0:
        run.error = f"exit code {process.returncode}\n{stderr}"
    else:
        run.record = json.loads(out_path.read_text())
    for path in (out_path, err_path):
        path.unlink(missing_ok=True)
    return run


# ------------------------------------------------------------------ checks
def load_references(path: Path) -> Dict[str, object]:
    return json.loads(path.read_text()) if path.exists() else {}


def check_runs(runs: List[Run], references: Dict[str, str]) -> None:
    """Mark runs whose output fails the check (see the module docstring).

    When the simulated output of these inputs is wrong, the set-up-only
    runs of the invocation fail with it: every number of the invocation
    then describes a bad run.
    """
    simulated = [run for run in runs if run.ok and "digest" in run.record]
    digests: Dict[int, set] = {}
    for run in simulated:
        digests.setdefault(run.seed, set()).add(run.record["digest"])
    for run in simulated:
        record = run.record
        reference = references.get(str(run.seed))
        if reference is None and len(digests[run.seed]) > 1:
            run.error = f"runs of seed {run.seed} disagree: {sorted(digests[run.seed])}"
        elif reference is not None and record["digest"] != reference:
            run.error = f"digest {record['digest']} != reference {reference}"
        elif not record["useful_kbps"] > 0.0:
            run.error = f"useful bandwidth {record['useful_kbps']} is not positive"
        elif record["max_useful_packets"] > record["packets_generated"]:
            run.error = (f"a receiver got {record['max_useful_packets']} useful packets;"
                         f" the source sent {record['packets_generated']}")
        elif not 0.0 <= record["duplicate_ratio"] < 1.0:
            run.error = f"duplicate ratio {record['duplicate_ratio']} outside [0, 1)"
    if any(not run.ok for run in simulated):
        for run in runs:
            if run.ok and run.mode == "setup":
                run.error = "the simulated output of these inputs failed the check"


# ----------------------------------------------------------------- metrics
def _quantile(values: List[float], share: float) -> float:
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(full: List[Run], setups: List[Run]) -> Dict[str, float]:
    """End-to-end metrics: medians over whole runs, percentiles over all steps.

    Times are in reference seconds (see :mod:`perfbench.speed`): the child
    scales each step and its set-up by the host-speed probes taken around
    them; whole-run times are scaled here by the run's ``run_factor``,
    the ratio of its scaled to its host seconds over set-up and drive.
    """
    steps = [value for run in full for value in run.record["step_s"]]
    return {
        "wall_s": statistics.median(run.wall_s * run.record["run_factor"] for run in full),
        "setup_s": statistics.median(run.record["setup_s"] for run in setups),
        "node_steps_per_s": statistics.median(
            run.record["participants"] * run.record["steps"] / run.record["drive_s"]
            for run in full
        ),
        "step_p50_ms": 1e3 * _quantile(steps, 0.5),
        "step_p90_ms": 1e3 * _quantile(steps, 0.9),
        "cpu_s": statistics.median(run.cpu_s * run.record["run_factor"] for run in full),
        "peak_rss_mb": statistics.median(run.record["peak_rss_mb"] for run in full),
    }


def raw_times(full: List[Run], setups: List[Run]) -> Dict[str, float]:
    """Medians of the unscaled host seconds, and of the host-speed factor."""
    return {
        "wall_s": statistics.median(run.wall_s for run in full),
        "setup_s": statistics.median(run.record["setup_raw_s"] for run in setups),
        "drive_s": statistics.median(run.record["drive_raw_s"] for run in full),
        "cpu_s": statistics.median(run.cpu_s for run in full),
        "factor": statistics.median(run.record["run_factor"] for run in full),
    }


def per_layer(traced: List[Run], untraced: Run) -> Dict[str, float]:
    """Per-layer metrics: medians over traced runs, plus the tracing overhead.

    The overhead compares the untraced run with the traced run of the same
    input draw.
    """
    names = [metric.name for metric in spec.PER_LAYER if metric.name != "trace.overhead_s"]
    metrics = {
        name: statistics.median(run.record["layers"][name] for run in traced) for name in names
    }
    twin = next((run for run in traced if run.seed == untraced.seed), traced[0])
    metrics["trace.overhead_s"] = twin.wall_s - untraced.wall_s
    return metrics


# -------------------------------------------------------------------- runs
@dataclass
class Outcome:
    workload: str
    seed: int
    runs: List[Run]
    metrics: Dict[str, float]
    samples: Dict[str, int]
    trace_path: Optional[Path] = None
    #: Untraced only: unscaled medians, printed next to the metrics.
    raw: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(not run.ok for run in self.runs)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str,
                 references: Dict[str, object], run_timeout_s: float = RUN_TIMEOUT_S) -> Outcome:
    """Measure one workload: whole runs for ``seconds``, then set-up samples."""
    deadline = time.perf_counter() + INVOCATION_LIMIT_S

    def timeout() -> float:
        return min(run_timeout_s, deadline - time.perf_counter())

    runs: List[Run] = []

    def launch_runs(mode: str, draws) -> None:
        for draw in draws:
            if timeout() <= 0:
                return
            runs.append(launch(workload, spec.draw_seed(seed, draw), scale, mode, timeout()))

    definition = spec.WORKLOADS[workload]
    count = definition.runs(seconds)
    if trace:
        # The untraced run shares the first traced run's inputs, so the
        # check also proves that tracing leaves the output untouched.
        launch_runs("run", [0])
        launch_runs("traced", range(max(1, count - 1)))
    else:
        launch_runs("run", range(count))
        launch_runs("setup", [0] * (definition.setup_samples - sum(run.ok for run in runs)))

    check_runs(runs, references.get(scale, {}).get(workload, {}))

    # Metrics come from the runs that completed; when none passed the check
    # the completed ones still carry their timings.
    def usable(mode: str) -> List[Run]:
        passed = [run for run in runs if run.mode == mode and run.ok]
        return passed or [run for run in runs if run.mode == mode and "step_s" in run.record]

    outcome = Outcome(workload, seed, runs, {}, {})
    if trace:
        traced, untraced = usable("traced"), usable("run")
        if traced and untraced:
            outcome.metrics = per_layer(traced, untraced[0])
            outcome.trace_path = write_trace(workload, seed, traced)
        outcome.samples = {"traced_runs": len(traced), "untraced_runs": len(untraced)}
    else:
        full = usable("run")
        setups = [run for run in runs if "setup_s" in run.record and run.ok]
        if full:
            outcome.metrics = end_to_end(full, setups or full)
            outcome.raw = raw_times(full, setups or full)
        outcome.samples = {
            "runs": len(full),
            "setup samples": len(setups),
            "steps": sum(len(run.record["step_s"]) for run in full),
        }
    return outcome


def write_trace(workload: str, seed: int, traced: List[Run]) -> Path:
    """Write the traced runs' spans as one Chrome trace-event JSON file."""
    events = []
    for index, run in enumerate(traced):
        spans = run.record["spans"]
        origin = spans[0][1] if spans else 0.0
        events.extend(chrome_events(spans, index, f"{workload}/seed{seed}/run{index}", origin))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    return path


# ------------------------------------------------------------------ output
def _units() -> Dict[str, str]:
    return {metric.name: metric.unit for metric in spec.END_TO_END + spec.PER_LAYER}


def report(outcome: Outcome, trace: bool) -> None:
    """Print the human-readable lines: every metric with unit and samples."""
    units = _units()
    workload = spec.WORKLOADS[outcome.workload]
    attempted = len(outcome.runs)
    samples = ", ".join(f"{key} {value}" for key, value in outcome.samples.items())
    print(f"workload {outcome.workload} seed {outcome.seed}: {samples}")
    for run in outcome.runs:
        if not run.ok:
            print(f"  FAILED {run.mode} run after {run.wall_s:.1f} s: {run.error.rstrip()}")
    print(f"  {'failed_frac':28s} {outcome.failed / attempted:.4f} frac"
          f"  ({outcome.failed} of {attempted} runs)")
    for name, value in outcome.metrics.items():
        note = ""
        if trace:
            metric = next(m for m in spec.PER_LAYER if m.name == name)
            if metric.layer not in workload.layers:
                note = f"  (absent: {outcome.workload} does not exercise the {metric.layer} layer)"
        print(f"  {name:28s} {value:.6g} {units[name]}{note}")
    if outcome.raw:
        raw = outcome.raw
        print(f"  host seconds, unscaled: wall {raw['wall_s']:.4f}, setup {raw['setup_s']:.4f},"
              f" drive {raw['drive_s']:.4f}, cpu {raw['cpu_s']:.4f};"
              f" reference seconds per host second {raw['factor']:.4f}")
    if trace and outcome.runs:
        breakdown = next((run.record["breakdown"] for run in outcome.runs
                          if run.mode == "traced" and "breakdown" in run.record), [])
        for phase in breakdown:
            print(f"  {phase['phase']} {phase['seconds']:.4f} s by span self time:")
            for name, value in sorted(phase["self"].items(), key=lambda item: -item[1]):
                print(f"    {name:32s} {value:.4f} s  {100 * value / phase['seconds']:5.1f}%")
            print(f"    {'(sum)':32s} {sum(phase['self'].values()):.4f} s")
    if outcome.trace_path is not None:
        print(f"  trace written to {outcome.trace_path.relative_to(ROOT)}")


def result_line(outcome: Outcome) -> str:
    units = _units()
    return json.dumps({
        "correct": outcome.correct,
        "attempted": len(outcome.runs),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in outcome.metrics.items()
        },
    })


def make_references(seeds: List[int], scale: str, workloads: List[str], path: Path) -> None:
    """Record in ``path``, from serial runs, the digest of every input draw
    an invocation with one of ``seeds`` makes at the default ``--seconds``."""
    references = load_references(path)
    for workload in workloads:
        table = references.setdefault(scale, {}).setdefault(workload, {})
        draws = spec.WORKLOADS[workload].runs(spec.RUN_SECONDS)
        for seed in seeds:
            for draw in range(draws):
                draw_seed = spec.draw_seed(seed, draw)
                if str(draw_seed) in table:
                    continue
                run = launch(workload, draw_seed, scale, "run", RUN_TIMEOUT_S, serial=True)
                if not run.ok:
                    raise SystemExit(f"reference run {workload} seed {draw_seed} failed: {run.error}")
                table[str(draw_seed)] = run.record["digest"]
                print(f"{scale} {workload} seed {draw_seed}: {run.record['digest']}", flush=True)
                path.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")


def _seed_list(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Whole-run benchmark of the Bullet simulator.")
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=spec.SCALES, default="full")
    parser.add_argument("--references", type=Path, default=REFERENCES,
                        help="reference digests (JSON: scale -> workload -> seed -> digest)")
    parser.add_argument("--run-timeout", type=float, default=RUN_TIMEOUT_S,
                        help="seconds after which one run is killed and counted as failed")
    parser.add_argument("--describe", action="store_true")
    parser.add_argument("--write-spec", action="store_true", help="re-render BENCHMARK.json")
    parser.add_argument("--make-references", action="store_true")
    parser.add_argument("--seeds", type=_seed_list, default=[1])
    args = parser.parse_args(argv)

    if args.describe:
        print(spec.describe())
        return 0
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _become_subreaper()
    workloads = list(spec.WORKLOADS) if args.all or args.make_references else [args.workload]
    if workloads == [None]:
        parser.error("one of --workload, --all, --describe, --write-spec is required")
    if args.make_references:
        make_references(args.seeds, args.scale, [args.workload] if args.workload else workloads,
                        args.references)
        return 0

    references = load_references(args.references)
    outcomes = []
    for workload in workloads:
        outcome = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.scale,
                               references, args.run_timeout)
        report(outcome, bool(args.trace))
        sys.stdout.flush()
        outcomes.append(outcome)
    if len(outcomes) == 1:
        print(result_line(outcomes[0]))
    else:
        print(json.dumps({outcome.workload: json.loads(result_line(outcome))
                          for outcome in outcomes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
