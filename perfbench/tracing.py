"""In-memory spans and counters recorded from the benchmark's side of each
call into a kgcausal module.

A span is (name, start, end, parent span index, pair id).  Spans are kept
in a list while the workload runs and written out once at the end; with
tracing off, ``span`` only yields, so untraced runs pay no clock reads.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

from kgcausal.errors import UnparseableLabel
from kgcausal.llm import label_probability


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, pair: Optional[str] = None):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, pair)

    def call(self, name: str, fn, *args, pair: Optional[str] = None, **kwargs):
        with self.span(name, pair):
            return fn(*args, **kwargs)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def top_level(self, window: tuple[float, float]) -> list:
        """Spans without a parent that lie inside the (start, end) window."""
        lo, hi = window
        return [s for s in self.spans if s[3] is None and lo <= s[1] and s[2] <= hi]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, pair) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "pair": pair}) + "\n")


def percentile_ms(values: list[float], q: float) -> float:
    """Nearest-rank percentile of durations in seconds, returned in ms."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1] * 1000.0


def timing_metrics(tracer: Tracer, name: str, prefix: str, latency: bool = False) -> dict:
    """``prefix.s`` and ``prefix.calls``, plus p50/p99 in ms when asked."""
    durations = tracer.durations(name)
    out = {f"{prefix}.s": sum(durations), f"{prefix}.calls": len(durations)}
    if latency:
        out[f"{prefix}.p50_ms"] = percentile_ms(durations, 50)
        out[f"{prefix}.p99_ms"] = percentile_ms(durations, 99)
    return out


class CountingBackend:
    """Backend wrapper that counts completions and unparseable answers and
    records one ``llm.complete`` span per call.

    The label is parsed here with the same rule the library uses, so the
    count does not depend on the wrapped backend keeping a counter.
    """

    def __init__(self, backend, tracer: Tracer):
        self._backend = backend
        self._tracer = tracer
        self.backend_id = backend.backend_id
        self.completions = 0
        self.errors = 0
        self.unparseable = 0

    def complete(self, request):
        self.completions += 1
        try:
            with self._tracer.span("llm.complete"):
                completion = self._backend.complete(request)
        except Exception:
            self.errors += 1
            raise
        if request.want_logprobs:
            try:
                label_probability(completion)
            except UnparseableLabel:
                self.unparseable += 1
        return completion
