"""In-memory spans for the benchmark's traced runs.

Spans are opened by the benchmark around its calls into the library's
public functions, and around the one module attribute it wraps
(``cycleset.canon.canonical_form``); nothing inside ``src/`` is touched.
A span is ``[name, start, end, parent]``, where ``parent`` is the index of
the enclosing span or -1.  Spans stay in memory until the run ends and
:meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrapped(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        def call(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return call

    def mark(self) -> int:
        """Position to pass to :meth:`summary` for the spans recorded after now."""
        return len(self.spans)

    def summary(self, since: int = 0) -> dict[str, dict[str, float]]:
        """Per span name, the total time, the self time (duration minus the
        time covered by child spans) and the number of spans, over the spans
        recorded from index ``since`` on."""
        spans = self.spans[since:]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= since:
                child[parent - since] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), covered in zip(spans, child):
            row = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "count": 0})
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
            row["count"] += 1
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


class NullTracer:
    """Stands in for :class:`Tracer` on untraced passes."""

    def span(self, name: str):
        return nullcontext()

    def mark(self) -> int:
        return 0

    def summary(self, since: int = 0) -> dict:
        return {}
