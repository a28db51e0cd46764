"""In-memory span tracer installed around the simulator's public layer calls.

The benchmark records spans from its own files: :func:`install` wraps the
functions, methods and module attributes that callers look up (for example
``repro.experiments.workloads.generate_topology`` or
``NetworkSimulator.begin_step``), so nothing under ``src/`` changes.  Spans
stay in memory as ``[name, start, end, parent]`` lists and are written out
once, as Chrome trace-event JSON, when the benchmark ends.

A span's *self time* is its duration minus the time its direct children
cover.  Calls on one thread nest strictly, so the children's durations never
overlap and their sum is exactly the covered time.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Union

#: One span: [name, start_s, end_s, parent index or -1].
Span = list

SpanName = Union[str, Callable[[], str]]


class Tracer:
    """Nested wall-clock spans kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ spans
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def is_open(self, name: str) -> bool:
        return any(self.spans[index][0] == name for index in self._stack)

    # --------------------------------------------------------------- patching
    def wrap(self, owner, attribute: str, name: SpanName) -> None:
        """Replace ``owner.attribute`` by a spanned wrapper (undone by restore)."""
        original = getattr(owner, attribute)
        tracer = self
        name_of = name if callable(name) else (lambda: name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.open(name_of())
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(index)

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # --------------------------------------------------------------- analysis
    def self_times(self, within: Optional[int] = None) -> Dict[str, float]:
        """Self time per span name, optionally only for descendants of ``within``."""
        return self_times(self.spans, within)

    def counts(self) -> Counter:
        return Counter(span[0] for span in self.spans)


def self_times(spans: List[Span], within: Optional[int] = None) -> Dict[str, float]:
    """Self time per span name: duration minus the direct children's durations.

    With ``within`` set, only spans descending from that span index count
    (the span itself excluded).  Spans are in start order, so a parent always
    precedes its children.
    """
    inside = [False] * len(spans)
    covered = [0.0] * len(spans)
    for index, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            covered[parent] += end - start
            inside[index] = inside[parent] or parent == within
    totals: Dict[str, float] = {}
    for index, (name, start, end, _) in enumerate(spans):
        if within is not None and not inside[index]:
            continue
        totals[name] = totals.get(name, 0.0) + (end - start) - covered[index]
    return totals


def chrome_events(spans: List[Span], pid: int, run_id: str, origin: float) -> List[dict]:
    """Chrome trace-event ("X" complete) events for one run's spans."""
    events = []
    for name, start, end, parent in spans:
        events.append({
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": pid,
            "tid": 0,
            "args": {"run": run_id, "parent": spans[parent][0] if parent >= 0 else None},
        })
    return events


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.core.mesh import BulletMesh
    from repro.experiments import workloads
    from repro.experiments.session import ExperimentSession
    from repro.failure.injector import FailureInjector
    from repro.hierarchy import system
    from repro.hierarchy.headmesh import HeadMeshCoordinator
    from repro.hierarchy.sharding import ProcessShardExecutor
    from repro.network.simulator import NetworkSimulator
    from repro.network.stats import StatsCollector
    from repro.topology.graph import Topology
    from repro.topology.landmarks import LandmarkLatencyEstimator

    def warm_routes_name() -> str:
        return "topology.join_warm_routes" if tracer.is_open("drive") else "topology.warm_routes"

    targets = [
        # setup
        (workloads, "generate_topology", "topology.generate"),
        (Topology, "validate", "topology.validate"),
        (workloads, "place_overlay_participants", "topology.place"),
        (workloads, "build_random_tree", "trees.build"),
        (system, "build_random_tree", "trees.build"),
        (Topology, "warm_routes", warm_routes_name),
        (system, "build_estimator", "topology.landmark_build"),
        (LandmarkLatencyEstimator, "estimate_rtt", "topology.landmark_rtt"),
        (system, "plan_hierarchy", "hierarchy.plan"),
        (BulletMesh, "__init__", "core.build"),
        (system.ClusteredBullet, "__init__", "hierarchy.build"),
        (system.ClusteredBullet, "enable_sharding", "hierarchy.spawn"),
        # each step
        (ExperimentSession, "step", "experiments.step"),
        (NetworkSimulator, "begin_step", "network.allocate"),
        (NetworkSimulator, "end_step", "network.deliver"),
        (FailureInjector, "tick", "failure.membership"),
        (BulletMesh, "protocol_phase", "core.protocol"),
        (HeadMeshCoordinator, "protocol_phase", "core.protocol"),
        (system.ClusteredBullet, "protocol_phase", "hierarchy.protocol"),
        (system.ClusteredBullet, "receivers", "hierarchy.barrier"),
        (ProcessShardExecutor, "mesh_scatter", "hierarchy.ipc"),
        (ProcessShardExecutor, "mesh_broadcast", "hierarchy.ipc"),
        (ProcessShardExecutor, "mesh_call", "hierarchy.ipc"),
        (ProcessShardExecutor, "flush", "hierarchy.ipc"),
        (StatsCollector, "sample_interval", "network.sample"),
        # result
        (ExperimentSession, "collect", "experiments.collect"),
    ]
    for owner, attribute, name in targets:
        tracer.wrap(owner, attribute, name)


__all__ = ["Tracer", "chrome_events", "install", "self_times"]
