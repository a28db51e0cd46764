"""One benchmark run in a fresh interpreter.

``python3 -m perfbench.child --workload NAME --seed N --mode MODE --out FILE``
builds the workload's session through the public ``ExperimentConfig`` ->
``ExperimentSession`` / ``ShardedSession`` path and writes one JSON record to
``FILE``.  Every run starts in its own interpreter because users pay the
module-level caches (routes, hash families) on every ``repro run``.

Modes:

* ``setup``: build the session, time it, tear it down;
* ``run``: build, drive every step (each one timed), collect the
  ``ExperimentResult`` and hash it for the output check;
* ``traced``: as ``run``, with the span tracer of :mod:`perfbench.tracing`
  installed and a control-plane observer attached; the record also carries
  the spans and the per-layer metrics.

Every time a run records is in reference seconds: it probes the host's
speed during its set-up and between its steps and scales each span
by the probes next to it (:mod:`perfbench.speed`); ``run_factor`` converts
the run's host seconds, and ``setup_raw_s``/``drive_raw_s`` keep the
unscaled ones.

``--serial`` forces ``shard_workers=0``, which is how reference digests of
sharded workloads are made: a sharded run must export byte-identically to
the serial one.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import spec, speed  # noqa: E402
from repro.experiments.session import SessionObserver  # noqa: E402
from perfbench.tracing import Tracer, install  # noqa: E402


def build_session(workload: str, seed: int, scale: str, serial: bool):
    """Build the workload's session; returns ``(config, session)``."""
    from repro import ExperimentConfig, ExperimentSession
    from repro.experiments.workloads import build_workload, scaled_topology_config
    from repro.hierarchy.sharding import ShardedSession

    params = spec.WORKLOADS[workload].config(scale)
    if serial:
        params["shard_workers"] = 0
    config = ExperimentConfig(seed=seed, **params)
    topology = scaled_topology_config(
        config.n_overlay + config.churn_joins, config.bandwidth_class, spec.TOPOLOGY_SEED
    )
    prepared = build_workload(
        n_overlay=config.n_overlay,
        bandwidth_class=config.bandwidth_class,
        tree_kind=config.tree_kind,
        lossy=config.lossy,
        seed=spec.SCENARIO_SEED,
        max_fanout=config.max_fanout,
        topology_config=topology,
        routing_engine=config.routing_engine,
    )
    session_class = ShardedSession if config.shard_workers >= 2 else ExperimentSession
    return config, session_class(config, workload=prepared)


def shutdown(session) -> None:
    """Reap the session's shard workers, if it has any; idempotent."""
    stop = getattr(session.system, "shutdown_sharding", None)
    if stop is not None:
        stop()


def result_payload(result) -> Dict[str, object]:
    """Every series and scalar of an ``ExperimentResult``, JSON-ready."""
    return {
        "useful_series": result.useful_series,
        "raw_series": result.raw_series,
        "from_parent_series": result.from_parent_series,
        "control_series": result.control_series,
        "average_useful_kbps": result.average_useful_kbps,
        "duplicate_ratio": result.duplicate_ratio,
        "control_overhead_kbps": result.control_overhead_kbps,
        "link_stress_avg": result.link_stress_avg,
        "link_stress_max": result.link_stress_max,
        "per_node_bandwidth_final": {
            str(node): value for node, value in sorted(result.per_node_bandwidth_final.items())
        },
        "bandwidth_cdf_final": result.bandwidth_cdf_final,
        "failure_time_s": result.failure_time_s,
    }


def result_digest(result) -> str:
    from repro.report.manifest import canonical_json, export_digest

    return export_digest(canonical_json(result_payload(result)).encode())


def _hwm_mb(pid: str) -> float:
    """Peak resident set of one process, from /proc (MB)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for process {pid}")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its live shard workers, summed."""
    try:
        return _hwm_mb("self") + sum(
            _hwm_mb(str(child.pid)) for child in multiprocessing.active_children()
        )
    except OSError:
        # No /proc: fall back to this process alone (kilobytes on Linux).
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ControlTap(SessionObserver):
    """Session observer counting control-plane traffic."""

    def __init__(self) -> None:
        self.sent = 0
        self.dropped = 0
        self.bytes = 0

    def on_control(self, session, now, message, event) -> None:
        if event == "sent":
            self.sent += 1
            self.bytes += message.size_bytes()
        elif event == "dropped":
            self.dropped += 1


def layer_metrics(tracer: Tracer, drive_index: int, session, tap) -> Dict[str, float]:
    """Per-layer metrics of one traced run (see spec.PER_LAYER)."""
    spans = tracer.spans
    totals = tracer.self_times()
    counts = tracer.counts()
    metrics: Dict[str, float] = {}
    for metric in spec.PER_LAYER:
        if metric.unit == "s" and metric.name != "trace.overhead_s":
            metrics[metric.name] = totals.get(metric.name[: -len("_s")], 0.0)
    # experiments.setup_s is the setup span's own self time.
    metrics["experiments.setup_s"] = totals.get("setup", 0.0)

    simulator = session.simulator
    allocation = simulator.allocation_stats
    metrics["network.clean_frac"] = allocation.clean_fraction
    metrics["network.solve_frac"] = allocation.solve_fraction

    injector = session.injector
    fired = 0
    if injector is not None:
        fired = sum(e.fired for e in injector.events) + sum(e.fired for e in injector.join_events)
    metrics["failure.events"] = float(fired)

    metrics["control.messages"] = float(tap.sent)
    metrics["control.bytes"] = float(tap.bytes)
    metrics["control.drop_frac"] = tap.dropped / tap.sent if tap.sent else 0.0

    stats = simulator.stats
    receivers = session.system.receivers()
    raw = sum(stats.node_counters(node).raw_packets for node in receivers)
    useful = sum(stats.node_counters(node).useful_packets for node in receivers)
    metrics["core.useful_ratio"] = useful / raw if raw else 0.0

    engine = session.step_engine
    mesh = getattr(session.system, "mesh", session.system)
    units = engine.steps * (len(mesh.nodes) + 1) if engine is not None else 0
    metrics["sched.skipped_frac"] = engine.skipped / units if units else 0.0

    routing = simulator.topology.routing_stats
    metrics["topology.dijkstra_runs"] = float(routing.dijkstra_runs)
    queries = routing.cache_hits + routing.paths_extracted
    metrics["topology.cache_hit_frac"] = routing.cache_hits / queries if queries else 0.0
    metrics["topology.landmark_queries"] = float(counts.get("topology.landmark_rtt", 0))
    metrics["hierarchy.ipc_calls"] = float(sum(
        1 for name, _, _, parent in spans
        if name == "hierarchy.ipc" and (parent < 0 or spans[parent][0] != "hierarchy.ipc")
    ))

    drive = spans[drive_index]
    drive_s = drive[2] - drive[1]
    inside_drive = tracer.self_times(within=drive_index)
    metrics["trace.drive_coverage"] = sum(inside_drive.values()) / drive_s
    return metrics


def phase_breakdown(tracer: Tracer, index: int) -> Dict[str, object]:
    """A phase span's duration and the self time of each span inside it."""
    name, start, end, _ = tracer.spans[index]
    return {"phase": name, "seconds": end - start, "self": tracer.self_times(within=index)}


#: Probes of the host's speed taken in a row before and after the set-up
#: and after the drive.
SETUP_PROBES = 3


def run(workload: str, seed: int, scale: str, mode: str, serial: bool) -> Dict[str, object]:
    """One run.  Its times are in reference seconds (see :mod:`perfbench.speed`);
    ``run_factor`` converts the run's host seconds to them."""
    clock = time.perf_counter
    tracer: Optional[Tracer] = None
    if mode == "traced":
        tracer = Tracer()
        install(tracer)
    meter = speed.Meter(tracer)
    record: Dict[str, object] = {"mode": mode}

    meter.probe(SETUP_PROBES)
    setup_index = tracer.open("setup") if tracer else -1
    started = clock()
    # Traced runs probe only around the set-up: see Meter.interval_probes.
    with meter.interval_probes() if tracer is None else contextlib.nullcontext():
        config, session = build_session(workload, seed, scale, serial)
    ended = clock()
    if tracer:
        tracer.close(setup_index)
    meter.probe(SETUP_PROBES)
    [(record["setup_s"], record["setup_raw_s"])] = meter.scale([(started, ended)])
    record["run_factor"] = record["setup_s"] / record["setup_raw_s"]
    try:
        if mode == "setup":
            return record
        tap = None
        if tracer:
            tap = ControlTap()
            session.add_observer(tap)
        steps = int(round(config.duration_s / session.simulator.dt))
        step_spans: List[tuple] = []
        drive_index = tracer.open("drive") if tracer else -1
        for _ in range(steps):
            before = clock()
            session.step()
            step_spans.append((before, clock()))
            meter.maybe_probe()
        if tracer:
            tracer.close(drive_index)
        result = session.collect()
        record["peak_rss_mb"] = peak_rss_mb()
        if tracer:
            # Stop recording before the metrics below query the session.
            tracer.restore()
        meter.probe(SETUP_PROBES)
        step_times = [scaled for scaled, _ in meter.scale(step_spans)]
        drive_raw_s = sum(end - start for start, end in step_spans)
        record["run_factor"] = (record["setup_s"] + sum(step_times)) / (
            record["setup_raw_s"] + drive_raw_s
        )
        stats = session.simulator.stats
        record.update(
            steps=steps,
            step_s=step_times,
            drive_s=sum(step_times),
            drive_raw_s=drive_raw_s,
            participants=config.n_overlay,
            digest=result_digest(result),
            useful_kbps=result.average_useful_kbps,
            duplicate_ratio=result.duplicate_ratio,
            max_useful_packets=max(
                stats.node_counters(node).useful_packets for node in session.system.receivers()
            ),
            packets_generated=getattr(session.system, "mesh", session.system).packets_generated,
        )
        if tracer:
            record["layers"] = layer_metrics(tracer, drive_index, session, tap)
            record["breakdown"] = [
                phase_breakdown(tracer, setup_index), phase_breakdown(tracer, drive_index)
            ]
            record["spans"] = tracer.spans
        return record
    finally:
        shutdown(session)
        if tracer:
            tracer.restore()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=spec.SCALES)
    parser.add_argument("--mode", default="run", choices=("setup", "run", "traced"))
    parser.add_argument("--serial", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.scale, args.mode, args.serial)
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
