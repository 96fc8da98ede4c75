"""CPU time rescaled to a reference CPU speed.

On a shared machine the speed of a CPU changes by tens of percent for
seconds to minutes at a time (other tenants on the same cores), so the wall
time of CPU-bound work spreads far more between runs than a change under
test would move it.  While a ``SpeedMeter`` is active, an interval timer
interrupts the main thread every ``interval_s`` to time a fixed probe:
a breadth-first search over a fixed graph plus small dense products, the two
kinds of work kgcausal does.  Each stretch between two probes contributes its
waiting time (wall minus CPU time) unchanged and its CPU time scaled by
``REFERENCE_PROBE_S`` over the mean of the probes around it, which is the
time the stretch would have taken on a CPU that runs the probe in exactly
``REFERENCE_PROBE_S``.  Probe time is left out of both totals.

The probe touches no state of the workload, so outputs do not change;
interrupted system calls are retried by Python (PEP 475).
"""

from __future__ import annotations

import random
import signal
import time
from collections import deque

import numpy as np

REFERENCE_PROBE_S = 0.0125  # about the median probe on the 2-core machine it was sized on
_PROBE_NODES = 4300
_PROBE_RELATIONS = ("binds", "expresses", "participates_in", "associates")


def _probe_graph() -> dict[str, tuple[tuple[str, str, str], ...]]:
    """A graph stored like ``KnowledgeGraph``'s adjacency (string ids,
    sorted (neighbor, relation, direction) triples) and about as large as
    the hub-graph workload's, so that a search over it touches as much
    memory: a probe over a graph that fits a core's own cache can miss the
    slowdown that other tenants' use of the shared cache causes."""
    rng = random.Random(0)
    ids = [f"n{i:05d}" for i in range(_PROBE_NODES)]
    graph: dict[str, list] = {i: [] for i in ids}
    for u in ids:
        for _ in range(4):
            v = ids[rng.randrange(_PROBE_NODES)]
            rel = rng.choice(_PROBE_RELATIONS)
            graph[u].append((v, rel, "out"))
            graph[v].append((u, rel, "in"))
    return {k: tuple(sorted(v)) for k, v in graph.items()}


class SpeedMeter:
    """Context manager for the main thread; see the module docstring."""

    def __init__(self, interval_s: float = 0.3):
        self.interval_s = interval_s
        self.probes: list[float] = []
        self.wall_s = 0.0
        self.reference_s = 0.0
        self._graph = _probe_graph()
        rng = np.random.default_rng(0)
        self._x = rng.normal(size=(8, 64))
        self._w = rng.normal(size=(64, 64)) / 8.0
        self._last = None  # (wall, cpu, probe) at the end of the last probe
        self._busy = False
        self._previous_handler = None

    def _probe(self) -> float:
        start = time.perf_counter()
        graph = self._graph
        dist = {"n00000": 0}
        queue = deque(["n00000"])
        while queue:
            u = queue.popleft()
            for v, _rel, _direction in graph[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        h = self._x
        for _ in range(800):
            h = np.tanh(h @ self._w)
        return time.perf_counter() - start

    def _close_stretch(self) -> None:
        wall_now, cpu_now = time.perf_counter(), time.process_time()
        last_wall, last_cpu, last_probe = self._last
        probe = self._probe()
        self.probes.append(probe)
        wall = wall_now - last_wall
        busy = min(wall, cpu_now - last_cpu)
        self.wall_s += wall
        self.reference_s += (wall - busy) + busy * REFERENCE_PROBE_S * 2 / (last_probe + probe)
        self._last = (time.perf_counter(), time.process_time(), probe)

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a probe overran the interval; skip this tick
            return
        self._busy = True
        try:
            self._close_stretch()
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedMeter":
        probe = self._probe()
        self.probes.append(probe)
        self._last = (time.perf_counter(), time.process_time(), probe)
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._busy = True
        self._close_stretch()
