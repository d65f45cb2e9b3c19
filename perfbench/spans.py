"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``(id, name, start, end, parent, run)``: ``parent`` is the id
of the span that was open when it began (``None`` at the root) and
``run`` tags every span of one simulation run with the same id.  Spans
stay in memory while the benchmark measures and are written out as
JSON lines when it ends.

A span's *self time* is its duration minus the part of its interval
that its child spans cover.  A span name's *layer* is the name without
its last dotted part (``core.sync.round`` -> ``core.sync``,
``sweep.cache.get`` -> ``sweep.cache``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    run: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_of(name: str) -> str:
    """``core.sync.round`` -> ``core.sync``; a one-part name is its own layer."""
    head, dot, _ = name.rpartition(".")
    return head if dot else name


class SpanRecorder:
    """Collects spans; ``begin``/``end`` nest through an open-span stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._runs = 0

    def new_run(self) -> int:
        """A fresh run id for the spans of one simulation run."""
        self._runs += 1
        return self._runs - 1

    def begin(self, name: str, *, run: int | None = None, start: float | None = None) -> int:
        parent = self._open[-1] if self._open else None
        if run is None and parent is not None:
            run = self.spans[parent].run
        span_id = len(self.spans)
        self.spans.append(
            Span(span_id, name, time.perf_counter() if start is None else start, None, parent, run)
        )
        self._open.append(span_id)
        return span_id

    def end(self, span_id: int, *, end: float | None = None) -> None:
        """Close ``span_id`` and any span still open inside it."""
        if span_id not in self._open:
            raise RuntimeError(f"span {span_id} is not open")
        stamp = time.perf_counter() if end is None else end
        while True:
            inner = self._open.pop()
            self.spans[inner].end = stamp
            if inner == span_id:
                return

    @contextmanager
    def span(self, name: str, *, run: int | None = None) -> Iterator[int]:
        span_id = self.begin(name, run=run)
        try:
            yield span_id
        finally:
            self.end(span_id)

    def write(self, path: Path) -> None:
        """Write every closed span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span.end is not None:
                    handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every closed span: duration minus what its children cover.

    Child intervals are clipped to the parent's interval before their
    union is taken, so overlapping or overhanging children are never
    subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.end is not None and span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        if span.end is None:
            continue
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.id, [])
            if min(end, span.end) > max(start, span.start)
        ]
        result[span.id] = span.duration - _covered(clipped)
    return result


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Sum of self times per layer (see :func:`layer_of`)."""
    totals: dict[str, float] = {}
    by_id = {span.id: span for span in spans}
    for span_id, value in self_times(spans).items():
        layer = layer_of(by_id[span_id].name)
        totals[layer] = totals.get(layer, 0.0) + value
    return totals
