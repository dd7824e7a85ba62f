"""In-memory span tracer driven by wrappers around ambiflow's public functions.

Nothing under ``src/`` knows about tracing.  ``Tracer.wrap`` replaces a name
in the module a caller looks it up from (``ambiflow.ambiguity.integrate_flow``
rather than ``ambiflow.dynamics.integrate_flow``, because ``ambiguity``
imported the name) with a function that records one span per call, and
``Tracer.restore`` puts every original back.  Spans are plain lists kept in
memory and written out once, at the end of a run.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import defaultdict
from types import SimpleNamespace
from typing import Callable


class Tracer:
    """Records spans (name, start, end, parent, run id) and named counters."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # Each span is [name, start, end, parent index]; -1 marks a root.
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        module: object,
        attr: str,
        name: str | Callable[..., str],
        before: Callable[..., None] | None = None,
    ) -> None:
        """Route ``module.attr`` through a span named ``name``.

        ``name`` may be a callable of the call's arguments, for spans whose
        name is classified from the inputs.  ``before`` sees the arguments
        ahead of the call, outside the span, to record keys or sizes.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            return self.call(label, original, *args, **kwargs)

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def restore(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    # --- summaries -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds.

        Busy time sums the durations of spans whose ancestors carry a
        different name, so a recursive call is not counted twice.  Self time
        is a span's duration minus the durations of its direct children.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            if not self._inside_same_name(i):
                entry["busy_s"] += end - start
        return dict(out)

    def _inside_same_name(self, index: int) -> bool:
        name = self.spans[index][0]
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent", "run"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent, self.run_id])


def span_cost_us(calls: int = 200_000) -> float:
    """Microseconds one traced call adds, measured on a wrapped no-op."""
    target = SimpleNamespace(noop=lambda: None)
    plain = time.perf_counter()
    for _ in range(calls):
        target.noop()
    plain = time.perf_counter() - plain
    tracer = Tracer("span-cost")
    tracer.wrap(target, "noop", "noop")
    traced = time.perf_counter()
    for _ in range(calls):
        target.noop()
    traced = time.perf_counter() - traced
    return 1e6 * (traced - plain) / calls
