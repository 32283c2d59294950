"""In-memory spans around the benchmark's calls into drokit.

A span is (operation id, name, parent name, start ns, end ns).  Spans are
kept in a list while the benchmark runs and written out once at the end.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, str, str | None, int, int]] = []

    def call(self, op: str, name: str, fn, *args, parent: str | None = "op"):
        """Run fn(*args) inside a span named ``name`` of operation ``op``."""
        t0 = time.perf_counter_ns()
        out = fn(*args)
        self.spans.append((op, name, parent, t0, time.perf_counter_ns()))
        return out

    def record(self, op: str, name: str, start_ns: int, end_ns: int, parent=None):
        self.spans.append((op, name, parent, start_ns, end_ns))

    def self_times(self) -> dict[str, float]:
        """Summed self time (s) per span name: each span's duration minus the
        durations of its children, which never overlap one another."""
        child_ns: dict[tuple[str, str], int] = defaultdict(int)
        for op, _, parent, t0, t1 in self.spans:
            if parent is not None:
                child_ns[(op, parent)] += t1 - t0
        totals: dict[str, float] = defaultdict(float)
        for op, name, _, t0, t1 in self.spans:
            totals[name] += (t1 - t0 - child_ns[(op, name)]) * 1e-9
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for op, name, parent, t0, t1 in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "parent": parent,
                                     "start_ns": t0, "end_ns": t1}) + "\n")
