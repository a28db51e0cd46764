"""Host-speed probe: a fixed pure-Python kernel timed between simulation steps.

The reference host is a share of a machine other tenants also load.  How
fast it runs the same interpreter-bound code drifts from second to second
and from minute to minute, by up to a factor of two, and the drift outlasts
any run: over a four-minute probe the mean time of a fixed loop, averaged
over 30-second windows, still spread by a fifth of its median.  Raw wall
times of two runs of the same code are then further apart than any
regression worth catching.

The probe measures that drift where it happens.  A run times
:func:`kernel` every :data:`PROBE_EVERY_S` seconds, between its steps and,
from a timer signal, during its set-up, and every time metric is converted to
*reference seconds*: the raw seconds times ``REFERENCE_KERNEL_S / t``, with
``t`` the median kernel time near the measured span.  On a host that runs
the kernel in :data:`REFERENCE_KERNEL_S` a reference second is a wall
second.  The kernel is benchmark code and never changes with the simulator,
so a slower simulator still reads slower; only the host's drift cancels.

The kernel mixes what the simulator's hot loops do: small-object attribute
access, dict lookups and updates keyed by ints and tuples, float arithmetic,
list appends, a sort, and function calls.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
import time
from typing import Iterator, List, Sequence, Tuple

#: Kernel time that defines a reference second: on a host that runs one
#: timed kernel pass in this many seconds, a reference second is a wall
#: second.  A 2-vCPU shared VM takes about 0.6 to 1.6 ms, depending on the
#: minute.
REFERENCE_KERNEL_S = 0.001

#: Seconds between two probes during the drive.
PROBE_EVERY_S = 0.05

#: Half-width, in seconds, of the window of probes a step is scaled by.
WINDOW_S = 0.1


class _Flow:
    __slots__ = ("rate", "sent", "lost")

    def __init__(self, rate: float) -> None:
        self.rate = rate
        self.sent = 0.0
        self.lost = 0


def _advance(flow: _Flow, share: float) -> float:
    flow.sent += flow.rate * share
    if flow.sent > 1e6:
        flow.lost += 1
        flow.sent -= 1e6
    return flow.sent


def kernel() -> float:
    """One pass of the fixed workload; returns a checksum."""
    flows = [_Flow(1.0 + (index % 17) * 0.25) for index in range(200)]
    table = {}
    links = {}
    total = 0.0
    for round_ in range(6):
        for index, flow in enumerate(flows):
            key = (index * 7919 + round_) % 251
            table[key] = table.get(key, 0.0) + _advance(flow, 0.5 + (key & 7) * 0.1)
            edge = (key, index & 15)
            links[edge] = links.get(edge, 0) + 1
        ordered = sorted(table.items(), key=lambda item: item[1])
        total += ordered[len(ordered) // 2][1] + len(links)
    return total


def probe() -> Tuple[float, float, float]:
    """Time one warm kernel pass.

    Returns ``(started, timed_from, ended)`` on perf_counter: the probe
    occupies ``[started, ended]`` and its timed pass ``[timed_from, ended]``.
    A first, untimed pass brings the kernel's data back into the caches the
    simulator has just filled, and the collector stays off, so the timed pass
    depends neither on the simulator's working set nor on its heap: every
    object the kernel makes dies by reference count.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        kernel()
        timed_from = time.perf_counter()
        kernel()
        ended = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return started, timed_from, ended


def factor(seconds: Sequence[float]) -> float:
    """Reference seconds per host second, given probe times."""
    return REFERENCE_KERNEL_S / statistics.median(seconds)


class Meter:
    """Probes the host's speed during a run and scales the run's spans.

    Between steps the run calls :meth:`maybe_probe`.  Inside a long call
    such as the session build, :meth:`interval_probes` takes a probe from a
    ``SIGALRM`` timer every :data:`PROBE_EVERY_S`; the time those probes
    take is cut out of the spans they land in.  ``tracer`` (a
    :class:`perfbench.tracing.Tracer`, optional) gets a ``perfbench.probe``
    span around every probe taken between calls.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        #: One ``probe()`` triple per probe, in the order taken.
        self.samples: List[Tuple[float, float, float]] = []
        self._last = float("-inf")

    def probe(self, count: int = 1) -> None:
        """Take ``count`` probes now."""
        index = self.tracer.open("perfbench.probe") if self.tracer else -1
        self.samples.extend(probe() for _ in range(count))
        if self.tracer:
            self.tracer.close(index)
        self._last = time.perf_counter()

    def maybe_probe(self) -> None:
        """Take one probe if the last is :data:`PROBE_EVERY_S` old."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    @contextlib.contextmanager
    def interval_probes(self) -> Iterator[None]:
        """Probe from a timer signal while the body runs (main thread only).

        Not for traced runs: the handler could fire inside the tracer's own
        bookkeeping.  Timers are not inherited across ``fork``, so shard
        workers started in the body are never interrupted.
        """
        previous = signal.signal(signal.SIGALRM, lambda *_: self.samples.append(probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._last = time.perf_counter()

    def scale(self, spans: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
        """Each ``(start, end)`` span's ``(reference seconds, host seconds)``.

        Probes that fell inside a span are cut out of it; each remaining
        piece is scaled by the median of the probes timed within
        :data:`WINDOW_S` of it, or by the nearest probe when none is.
        """
        samples = sorted(self.samples)
        starts = [started for started, _, _ in samples]
        middles = [(timed_from + ended) / 2.0 for _, timed_from, ended in samples]
        seconds = [ended - timed_from for _, timed_from, ended in samples]
        scaled = []
        for start, end in spans:
            inside = samples[bisect.bisect_left(starts, start):bisect.bisect_left(starts, end)]
            edges = [start] + [edge for started, _, ended in inside for edge in (started, ended)]
            edges.append(end)
            total = host = 0.0
            for piece_start, piece_end in zip(edges[::2], edges[1::2]):
                host += piece_end - piece_start
                low = bisect.bisect_left(middles, piece_start - WINDOW_S)
                high = bisect.bisect_right(middles, piece_end + WINDOW_S)
                if low == high:
                    low = min(range(len(middles)), key=lambda i: min(
                        abs(middles[i] - piece_start), abs(middles[i] - piece_end)))
                    high = low + 1
                total += (piece_end - piece_start) * factor(seconds[low:high])
            scaled.append((total, host))
        return scaled


__all__ = ["PROBE_EVERY_S", "REFERENCE_KERNEL_S", "WINDOW_S", "Meter", "factor", "kernel", "probe"]
