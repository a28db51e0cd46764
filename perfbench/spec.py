"""What the benchmark measures: workloads, end-to-end metrics, per-layer metrics.

Every definition lives here once.  ``BENCHMARK.json`` at the repository root
is rendered from this module (``python3 perfbench/run.py --write-spec``) and
``python3 perfbench/run.py --describe`` prints the layer -> end-to-end metric
-> workload mapping below as a table.

Each workload runs one fixed scenario, as the paper runs every experiment
on one ModelNet topology: the transit-stub underlay, the participants placed
on it, the source and the overlay tree all come from constant seeds.  The
benchmark's ``--seed`` drives everything the session draws: every protocol
RNG (RanSub, peer choice, loss), the churn victims and the joiners.  Run-to-run
cost then follows the code, not the luck of the scenario draw, which
otherwise moves a 200-node run's drive time by +-20%.  Each run of an
invocation simulates its own session seed (``draw_seed``), and the medians
over the runs damp what remains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Seconds one benchmark invocation spends measuring whole runs.
RUN_SECONDS = 30

#: Seed of the fixed underlay every workload runs on.
TOPOLOGY_SEED = 1

#: Seed of the fixed participant placement, source and overlay tree.
SCENARIO_SEED = 1

#: Scales a workload can run at: ``full`` is the benchmark, ``tiny`` the
#: seconds-long smoke the benchmark's own tests drive.
SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Workload:
    """One named scenario: an ``ExperimentConfig`` recipe per scale."""

    name: str
    why: str
    #: ``ExperimentConfig`` keyword arguments (all but ``seed``) per scale.
    configs: Dict[str, Dict[str, object]]
    #: Reference seconds (see :mod:`perfbench.speed`) of one whole run.  An
    #: invocation makes ``--seconds // run_s`` runs but at least ``draws``,
    #: so the number of runs, and with it the noise of the medians, does not
    #: depend on how fast the host happens to be that minute.
    run_s: float
    #: Fewest runs per invocation.  Each run of an invocation simulates its
    #: own session seed (see ``draw_seed``): the cost of one draw depends on
    #: which nodes join and fail and on the protocol's random choices, and
    #: the median over several draws keeps that luck out of the comparison
    #: between commits.
    draws: int
    #: Set-up samples one untraced invocation collects (whole runs count).
    setup_samples: int
    #: Layers the workload exercises; per-layer metrics of other layers
    #: read 0 on it, and the trace report says so.
    layers: Tuple[str, ...]

    def config(self, scale: str) -> Dict[str, object]:
        return dict(self.configs[scale])

    def runs(self, seconds: float) -> int:
        """Runs one invocation of ``seconds`` makes."""
        return max(self.draws, int(seconds // self.run_s))


def draw_seed(seed: int, draw: int) -> int:
    """The ``ExperimentConfig`` seed of an invocation's ``draw``-th run."""
    return seed + 1000 * draw


_FLAT_LAYERS = ("core", "network", "control", "sched", "topology", "trees", "experiments")
_CLUSTER_LAYERS = ("core", "network", "control", "sched", "topology", "trees",
                   "hierarchy", "experiments")

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="flat-churn",
            why="the paper's core scenario under churn: bullet over a random tree,"
            " 200 nodes, medium bandwidth, plus 200 flash-crowd joins and 50"
            " uniform departures, so the protocol plane and membership both run",
            configs={
                "full": dict(system="bullet", n_overlay=200, duration_s=100.0,
                             churn_joins=200, churn_failures=50),
                "tiny": dict(system="bullet", n_overlay=12, duration_s=30.0,
                             churn_joins=6, churn_failures=3),
            },
            run_s=16.0,
            draws=2,
            setup_samples=3,
            layers=_FLAT_LAYERS + ("failure",),
        ),
        Workload(
            name="clustered-10k",
            why="bullet-clustered at 10000 nodes, clusters of 125, 2 levels, exact"
            " latencies, 2 shard workers: setup layers weigh heavily and the"
            " head mesh crosses process boundaries every step",
            configs={
                "full": dict(system="bullet-clustered", n_overlay=10000,
                             cluster_size=125, hierarchy_levels=2,
                             latency_estimator="exact", shard_workers=2,
                             dt=0.25, duration_s=30.0),
                "tiny": dict(system="bullet-clustered", n_overlay=120,
                             cluster_size=20, hierarchy_levels=2,
                             latency_estimator="exact", shard_workers=2,
                             dt=0.25, duration_s=10.0),
            },
            run_s=9.0,
            draws=3,
            setup_samples=3,
            layers=_CLUSTER_LAYERS + ("sharding",),
        ),
        Workload(
            name="clustered-10k-landmark",
            why="the scale-100000 recipe at 10000 nodes (3 levels, landmark"
            " latencies, clusters of 50, dt 0.25), run serially: the only workload"
            " that runs topology/landmarks.py; setup outweighs the drive",
            # Serial: with two shard workers its 3 ms steps mostly wait on
            # pipe wake-ups, whose latency the host-speed probe does not
            # see, and their p90 spread by 0.2 to 0.36 of the median between
            # invocations of the same code.  Sharding is clustered-10k's.
            configs={
                "full": dict(system="bullet-clustered", n_overlay=10000,
                             cluster_size=50, hierarchy_levels=3,
                             latency_estimator="landmark", shard_workers=0,
                             dt=0.25, duration_s=60.0),
                "tiny": dict(system="bullet-clustered", n_overlay=200,
                             cluster_size=10, hierarchy_levels=3,
                             latency_estimator="landmark", shard_workers=0,
                             dt=0.25, duration_s=10.0),
            },
            run_s=6.0,
            draws=5,
            setup_samples=5,
            layers=_CLUSTER_LAYERS + ("landmark",),
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end only: share of the parent's median it may worsen by.
    bound: float = 0.0
    #: What the metric times or counts.
    what: str = ""
    #: Per-layer only: end-to-end metrics the layer should move.
    moves: str = ""
    #: Per-layer only: the layer the metric belongs to (see Workload.layers).
    layer: str = ""
    #: Per-layer only: workloads where the effect should show.
    shows_on: str = ""


#: Bounds: the 2-vCPU reference host is shared, and how fast it runs the
#: same code drifts by up to a factor of two within seconds and minutes.
#: Every time metric is therefore in reference seconds: host seconds scaled,
#: span by span, by a fixed probe kernel timed between the spans (see
#: :mod:`perfbench.speed`).  What remains of the run-to-run spread is mostly
#: the work itself moving with the session seed; every time metric carries
#: the largest bound BENCHMARK.json admits (0.25), peak memory 0.2.
END_TO_END: List[Metric] = [
    Metric("wall_s", "s", "lower", 0.25,
           "one whole run: fresh interpreter, imports, setup, drive, collect;"
           " scaled by the run's set-up and drive factor"),
    Metric("setup_s", "s", "lower", 0.25,
           "session construction incl. workload build and worker spawn"),
    Metric("node_steps_per_s", "1/s", "higher", 0.25,
           "initial participants x steps / drive seconds"),
    Metric("step_p50_ms", "ms", "lower", 0.25, "median wall time of one session step"),
    Metric("step_p90_ms", "ms", "lower", 0.25, "90th percentile step wall time"),
    Metric("cpu_s", "s", "lower", 0.25,
           "user + system time of a run, shard workers included; scaled as wall_s"),
    Metric("peak_rss_mb", "MB", "lower", 0.2,
           "peak resident set, main process plus shard workers summed"),
]

_FLAT = "flat-churn"
_CLUSTERED = "clustered-10k, clustered-10k-landmark"

PER_LAYER: List[Metric] = [
    Metric("core.protocol_s", "s", "lower", what="BulletMesh / HeadMeshCoordinator.protocol_phase",
           moves="node_steps_per_s, step_p50_ms", layer="core",
           shows_on="flat workloads; about zero on clustered-10k-landmark"),
    Metric("core.build_s", "s", "lower", what="BulletMesh construction",
           moves="setup_s", layer="core", shows_on="all"),
    Metric("network.allocate_s", "s", "lower", what="NetworkSimulator.begin_step",
           moves="node_steps_per_s", layer="network", shows_on="flat, most on flat-churn"),
    Metric("network.clean_frac", "frac", "higher", what="allocation rounds reusing the last solve",
           moves="node_steps_per_s", layer="network", shows_on=_FLAT),
    Metric("network.solve_frac", "frac", "lower", what="flow-rounds re-solved",
           moves="node_steps_per_s", layer="network", shows_on=_FLAT),
    Metric("network.deliver_s", "s", "lower", what="NetworkSimulator.end_step: loss, delivery, TFRC",
           moves="node_steps_per_s", layer="network", shows_on=_FLAT),
    Metric("network.sample_s", "s", "lower", what="StatsCollector.sample_interval",
           moves="guard only", layer="network", shows_on="all"),
    Metric("failure.membership_s", "s", "lower", what="FailureInjector.tick (add_node / fail_node)",
           moves="step_p90_ms", layer="failure", shows_on="flat-churn"),
    Metric("failure.events", "count", "lower", what="joins and departures fired",
           moves="step_p90_ms", layer="failure", shows_on="flat-churn"),
    Metric("topology.join_warm_routes_s", "s", "lower",
           what="Topology.warm_routes during the drive (joins, promotions)",
           moves="step_p90_ms", layer="failure", shows_on="flat-churn"),
    Metric("control.messages", "count", "lower", what="control messages sent (SessionObserver.on_control)",
           moves="explains core.protocol_s", layer="control", shows_on=_FLAT),
    Metric("control.bytes", "bytes", "lower", what="control bytes sent",
           moves="explains core.protocol_s", layer="control", shows_on=_FLAT),
    Metric("control.drop_frac", "frac", "lower", what="control messages dropped / sent",
           moves="explains core.protocol_s", layer="control", shows_on=_FLAT),
    Metric("core.useful_ratio", "frac", "higher", what="useful / raw packets received",
           moves="explains core.protocol_s", layer="core", shows_on=_FLAT),
    Metric("sched.skipped_frac", "frac", "higher",
           what="StepEngine.skipped / (steps x (mesh members + 1)) polling units",
           moves="explains core.protocol_s", layer="sched", shows_on=_FLAT),
    Metric("topology.generate_s", "s", "lower", what="generate_topology (validate excluded)",
           moves="setup_s", layer="topology", shows_on=_CLUSTERED),
    Metric("topology.validate_s", "s", "lower", what="Topology.validate",
           moves="setup_s", layer="topology", shows_on=_CLUSTERED),
    Metric("topology.place_s", "s", "lower", what="place_overlay_participants",
           moves="setup_s", layer="topology", shows_on=_CLUSTERED),
    Metric("topology.warm_routes_s", "s", "lower", what="Topology.warm_routes during setup",
           moves="setup_s", layer="topology", shows_on=_CLUSTERED),
    Metric("topology.dijkstra_runs", "count", "lower", what="RoutingStats.dijkstra_runs",
           moves="setup_s", layer="topology", shows_on=_CLUSTERED),
    Metric("topology.cache_hit_frac", "frac", "higher",
           what="route queries answered from the cache / all route queries",
           moves="setup_s", layer="topology", shows_on=_CLUSTERED),
    Metric("trees.build_s", "s", "lower", what="build_random_tree (overlay and head tree)",
           moves="setup_s", layer="trees", shows_on=_CLUSTERED),
    Metric("hierarchy.plan_s", "s", "lower", what="plan_hierarchy",
           moves="setup_s", layer="hierarchy", shows_on=_CLUSTERED),
    Metric("hierarchy.build_s", "s", "lower", what="ClusteredBullet construction (interior models)",
           moves="setup_s", layer="hierarchy", shows_on=_CLUSTERED),
    Metric("topology.landmark_build_s", "s", "lower", what="build_estimator (landmark coordinates)",
           moves="setup_s", layer="landmark", shows_on="clustered-10k-landmark"),
    Metric("topology.landmark_rtt_s", "s", "lower", what="LandmarkLatencyEstimator.estimate_rtt",
           moves="setup_s", layer="landmark", shows_on="clustered-10k-landmark"),
    Metric("topology.landmark_queries", "count", "lower", what="estimate_rtt calls",
           moves="setup_s", layer="landmark", shows_on="clustered-10k-landmark"),
    Metric("hierarchy.spawn_s", "s", "lower", what="ClusteredBullet.enable_sharding",
           moves="setup_s", layer="sharding", shows_on="clustered-10k"),
    Metric("hierarchy.protocol_s", "s", "lower", what="ClusteredBullet.protocol_phase",
           moves="wall_s, node_steps_per_s, cpu_s", layer="hierarchy", shows_on="clustered-10k"),
    Metric("hierarchy.ipc_s", "s", "lower",
           what="ProcessShardExecutor mesh_scatter/broadcast/call/flush: main-process wait",
           moves="wall_s, node_steps_per_s, cpu_s", layer="sharding", shows_on="clustered-10k"),
    Metric("hierarchy.ipc_calls", "count", "lower", what="outermost executor IPC calls",
           moves="wall_s, node_steps_per_s, cpu_s", layer="sharding", shows_on="clustered-10k"),
    Metric("hierarchy.barrier_s", "s", "lower", what="ClusteredBullet.receivers flushes",
           moves="wall_s, node_steps_per_s, cpu_s", layer="hierarchy", shows_on="clustered-10k"),
    Metric("experiments.setup_s", "s", "lower",
           what="session construction not covered by a layer span (simulator, injector)",
           moves="setup_s", layer="experiments", shows_on="all"),
    Metric("experiments.step_s", "s", "lower",
           what="ExperimentSession.step outside its layer calls (observers, timers)",
           moves="node_steps_per_s", layer="experiments", shows_on="all"),
    Metric("experiments.collect_s", "s", "lower", what="ExperimentSession.collect",
           moves="guard only", layer="experiments", shows_on="all"),
    Metric("trace.drive_coverage", "frac", "higher",
           what="self time of the spans inside the drive / traced drive time",
           layer="experiments", shows_on="all"),
    Metric("trace.overhead_s", "s", "lower",
           what="traced wall_s minus untraced wall_s", layer="experiments", shows_on="all"),
]


def benchmark_json() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document: exactly the keys that file admits."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def describe() -> str:
    """The layer -> end-to-end metric -> workload mapping as a text table."""
    lines = ["workloads:"]
    for workload in WORKLOADS.values():
        lines.append(f"  {workload.name}: {workload.why}")
    lines.append("end-to-end metrics (median over runs, untraced):")
    for metric in END_TO_END:
        lines.append(
            f"  {metric.name} [{metric.unit}, {metric.better} is better,"
            f" bound {metric.bound:g}]: {metric.what}"
        )
    lines.append("per-layer metrics (traced run, span self times):")
    for metric in PER_LAYER:
        moves = f" -> {metric.moves}" if metric.moves else ""
        lines.append(
            f"  {metric.name} [{metric.unit}]: {metric.what}{moves}; shows on {metric.shows_on}"
        )
    return "\n".join(lines)


__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "RUN_SECONDS",
    "SCALES",
    "SCENARIO_SEED",
    "TOPOLOGY_SEED",
    "WORKLOADS",
    "Metric",
    "Workload",
    "benchmark_json",
    "describe",
    "draw_seed",
]
