"""In-memory span recorder used by the traced benchmark run.

A span has a name, a start and end (``perf_counter`` seconds), the id of the
span that caused it and the id of the op it belongs to.  Spans are appended
to a list and written out when the run ends; nothing is printed while the
timed loop runs.

Spans are recorded from the benchmark's own files: either around a call the
benchmark makes (``Tracer.span``) or by swapping a module attribute for a
timing wrapper (``Tracer.patch``).  The program itself is not modified.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op: int | None = None
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        # a span opened on a pool thread is caused by the innermost span the
        # main thread has open (the CLI command that owns the pool)
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "op": self.op}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.perf_counter()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the part of it covered by child spans."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append((s["start"], s["end"]))
        out = []
        for s in self.spans:
            covered, cursor = 0.0, s["start"]
            for a, b in sorted(children.get(s["id"], ())):
                a, b = max(a, cursor), min(b, s["end"])
                if b > a:
                    covered += b - a
                    cursor = b
            out.append(s["end"] - s["start"] - covered)
        return out

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def table(self) -> dict[str, dict]:
        """Per span name: call count, total duration and total self time."""
        rows: dict[str, dict] = {}
        for s, self_t in zip(self.spans, self.self_times()):
            row = rows.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s["end"] - s["start"]
            row["self_s"] += self_t
        return rows
