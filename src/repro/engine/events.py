"""Event queue for the discrete-event simulation engine.

Events are plain ``(time, seq, action, payload)`` tuples on a binary
heap — no per-event object allocation on the hot path.  The
monotonically increasing sequence number gives deterministic FIFO
tie-breaking for events scheduled at the same simulated time (essential
for reproducibility) and guarantees ``heapq`` never has to compare
actions or payloads.

``action`` is any callable; ``payload`` is the single argument it is
dispatched with (``None`` means "call with no arguments").  Protocol
simulators pass bound methods with integer or small-tuple payloads,
which is far cheaper than allocating a fresh closure per event.

Cancellation is lazy, via tombstones over a *live set*: the first
:meth:`EventQueue.cancel` snapshots the pending sequence numbers, and a
cancelled entry is dropped — never dispatched — when it reaches the top
of the heap.  Tracking live seqs (rather than a set of cancelled ones)
makes cancelling an already-dispatched or already-cancelled handle a
harmless no-op, a property pinned down by the Hypothesis suite in
``tests/engine/test_event_queue_properties.py``.  Queues that never
cancel (all the protocol simulators) skip the set bookkeeping entirely.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.errors import SchedulingError

__all__ = ["EventQueue", "BatchEventQueue"]

#: One scheduled occurrence: ``(time, seq, action, payload)``.
Entry = tuple[float, int, Callable[..., Any], Any]

class EventQueue:
    """A binary-heap priority queue of ``(time, seq, action, payload)`` tuples.

    :meth:`push` returns the event's sequence number, which doubles as
    the cancellation handle: :meth:`cancel` marks the entry dead (a
    tombstone) and it is skipped and dropped when popped.

    ``_live`` is ``None`` until the first cancellation — the common
    all-events-fire case pays nothing for cancellation support.
    """

    __slots__ = ("_heap", "_next_seq", "_live", "cancels", "dead_pops")

    def __init__(self) -> None:
        self._heap: list[Entry] = []
        self._next_seq = 0
        self._live: set[int] | None = None
        #: Telemetry (plain ints on rare paths; harvested at run epilogue).
        self.cancels = 0
        self.dead_pops = 0

    def __len__(self) -> int:
        live = self._live
        return len(self._heap) if live is None else len(live)

    def __bool__(self) -> bool:
        live = self._live
        return bool(self._heap) if live is None else bool(live)

    def push(self, time: float, action: Callable[..., Any], payload: Any = None) -> int:
        """Schedule ``action(payload)`` at absolute ``time``; returns the seq handle.

        A ``None`` payload means ``action`` is invoked with no arguments.

        NOTE: ``Simulator.schedule``/``schedule_in`` inline this body for
        speed — any change to the seq/heap/live bookkeeping here must be
        mirrored there.
        """
        if time != time:  # NaN guard
            raise SchedulingError("cannot schedule an event at time NaN")
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap, (time, seq, action, payload))
        if self._live is not None:
            self._live.add(seq)
        return seq

    def reserve_handle(self) -> int:
        """Allocate a sequence handle without scheduling anything.

        Used by fault injection to hand callers a handle for an event it
        decided to *drop*: the handle behaves like an already-dispatched
        event (cancelling it is a no-op, it never fires).
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        return seq

    def cancel(self, seq: int) -> None:
        """Tombstone the event with handle ``seq``; it will never dispatch.

        Idempotent; cancelling a handle that already dispatched is a
        no-op.  The first cancellation snapshots the live set.
        """
        live = self._live
        if live is None:
            live = self._live = {entry[1] for entry in self._heap}
        live.discard(seq)
        self.cancels += 1

    def stats(self) -> dict[str, int]:
        """Queue telemetry counters (epilogue harvest, see engine.metrics)."""
        return {"queue.cancels": self.cancels, "queue.dead_pops": self.dead_pops}

    def peek_time(self) -> float | None:
        """Time of the next live event, or ``None`` if the queue is empty."""
        heap = self._heap
        live = self._live
        if live is not None:
            while heap and heap[0][1] not in live:
                heapq.heappop(heap)
                self.dead_pops += 1
        if not heap:
            return None
        return heap[0][0]

    def pop(self) -> Entry:
        """Remove and return the next live ``(time, seq, action, payload)``.

        Raises
        ------
        SchedulingError
            If the queue is empty.
        """
        heap = self._heap
        live = self._live
        if live is None:
            if not heap:
                raise SchedulingError("pop from an empty event queue")
            return heapq.heappop(heap)
        while heap:
            entry = heapq.heappop(heap)
            if entry[1] in live:
                live.remove(entry[1])
                return entry
            self.dead_pops += 1
        raise SchedulingError("pop from an empty event queue")

    def drain(self) -> Iterator[Entry]:
        """Yield live events in time order until the queue is empty.

        New events pushed while draining are interleaved correctly.
        """
        while self:
            yield self.pop()


class BatchEventQueue:
    """Event queue with a bulk :meth:`push_many` API and lazy block intake.

    Scalar pushes go straight onto the same C ``heapq`` the fallback
    engine uses — that path is already near-optimal in CPython.  What
    this queue adds is *deferred bulk intake*: a :meth:`push_many` block
    (typically one DrawPool block of pre-drawn tick/signal times) is
    stored as-is — two list appends, O(1) regardless of size — with only
    the block pool's running minimum tracked.  Blocks are *flushed* into
    the heap in one C-level loop when the clock approaches their
    earliest event, so a bulk insert costs one tuple + ``heappush`` per
    event total, with no per-event Python between schedule and flush.

    The struct-of-arrays layout lives at the edges: blocks arrive as
    numpy arrays straight from the draw pools (zero-copy slices) and are
    flattened column-wise at flush time.  Earlier revisions of this
    class sorted the columns into run/segment tiers instead of a heap;
    on CPython the per-call overhead of small-array numpy operations
    made that strictly slower than the C heap — the measured numbers
    live in ``benchmarks/output/`` and the design notes in
    ``docs/architecture.md``.

    Cancellation, FIFO tie-breaking by sequence number, and the lazy
    live-set tombstone semantics exactly mirror :class:`EventQueue`; the
    Hypothesis suite in ``tests/engine/test_event_queue_properties.py``
    pins the two implementations against each other under interleaved
    pushes, bulk pushes, cancels, and pops.
    """

    __slots__ = (
        "_heap",
        "_blk",
        "_blk_min",
        "_next_seq",
        "_live",
        "flushes",
        "flushed_events",
        "max_flush",
        "cancels",
        "dead_pops",
    )

    def __init__(self) -> None:
        self._heap: list[Entry] = []
        #: Raw (times, action, payloads, start_seq) blocks awaiting flush.
        self._blk: list[tuple] = []
        self._blk_min = float("inf")
        self._next_seq = 0
        self._live: set[int] | None = None
        #: Telemetry (plain ints on amortized paths; harvested at epilogue).
        self.flushes = 0
        self.flushed_events = 0
        self.max_flush = 0
        self.cancels = 0
        self.dead_pops = 0

    # -- sizing ---------------------------------------------------------
    def __len__(self) -> int:
        live = self._live
        if live is not None:
            return len(live)
        return len(self._heap) + sum(len(block[0]) for block in self._blk)

    def __bool__(self) -> bool:
        return len(self) > 0

    # -- insertion ------------------------------------------------------
    def push(self, time: float, action: Callable[..., Any], payload: Any = None) -> int:
        """Schedule ``action(payload)`` at absolute ``time``; returns the seq handle."""
        if time != time:  # NaN guard
            raise SchedulingError("cannot schedule an event at time NaN")
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap, (time, seq, action, payload))
        if self._live is not None:
            self._live.add(seq)
        return seq

    def push_many(
        self,
        times: "Sequence[float] | np.ndarray",
        action: Callable[..., Any],
        payloads: Sequence[Any] | None = None,
        *,
        not_before: float = -math.inf,
    ) -> range:
        """Bulk-schedule ``action`` at each absolute time; returns the seq handles.

        ``payloads`` is a parallel sequence (``None`` means every event
        dispatches with no arguments).  ``times`` may be a list or numpy
        array (protocol refills pass pool-array views); the block is
        stored as-is and flushed into the heap only when the clock gets
        near it.  Times must not contain NaN nor lie before
        ``not_before`` (the simulator passes its clock); one scan for the
        block's earliest time checks both, and a bad block is rejected
        whole.
        """
        k = len(times)
        if payloads is not None and len(payloads) != k:
            raise SchedulingError(
                f"push_many got {k} times but {len(payloads)} payloads"
            )
        start = self._next_seq
        if not k:
            return range(start, start)
        if isinstance(times, np.ndarray):
            lo = float(times.min())  # np.min propagates NaN
        else:
            lo = min(times)
            total = sum(times)  # a NaN anywhere poisons the sum
            if total != total:
                lo = float("nan")
        if not lo >= not_before:  # rejects NaN too
            raise SchedulingError(
                f"bulk schedule contains a NaN time or one before {not_before}"
            )
        self._next_seq = start + k
        if self._live is not None:
            self._live.update(range(start, start + k))
        self._blk.append((times, action, payloads, start))
        if lo < self._blk_min:
            self._blk_min = lo
        return range(start, start + k)

    def _flush_blocks(self) -> None:
        """Feed every stored block into the heap (one C heappush per event)."""
        heap = self._heap
        push = heapq.heappush
        flushed = sum(len(block[0]) for block in self._blk)
        self.flushes += 1
        self.flushed_events += flushed
        if flushed > self.max_flush:
            self.max_flush = flushed
        for times, action, payloads, start in self._blk:
            if isinstance(times, np.ndarray):
                times = times.tolist()
            seq = start
            if payloads is None:
                for time in times:
                    push(heap, (time, seq, action, None))
                    seq += 1
            else:
                for time, payload in zip(times, payloads):
                    push(heap, (time, seq, action, payload))
                    seq += 1
        self._blk = []
        self._blk_min = float("inf")

    # -- cancellation ---------------------------------------------------
    def reserve_handle(self) -> int:
        """Allocate a sequence handle without scheduling anything.

        Used by fault injection to hand callers a handle for an event it
        decided to *drop*: the handle behaves like an already-dispatched
        event (cancelling it is a no-op, it never fires).
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        return seq

    def cancel(self, seq: int) -> None:
        """Tombstone the event with handle ``seq``; it will never dispatch.

        Idempotent; cancelling a handle that already dispatched is a
        no-op.  The first cancellation snapshots the live set.
        """
        live = self._live
        if live is None:
            live = {entry[1] for entry in self._heap}
            for times, _, _, start in self._blk:
                live.update(range(start, start + len(times)))
            self._live = live
        live.discard(seq)
        self.cancels += 1

    def stats(self) -> dict[str, int]:
        """Queue telemetry counters (epilogue harvest, see engine.metrics)."""
        return {
            "queue.flushes": self.flushes,
            "queue.flushed_events": self.flushed_events,
            "queue.max_flush": self.max_flush,
            "queue.cancels": self.cancels,
            "queue.dead_pops": self.dead_pops,
        }

    # -- consumption ----------------------------------------------------
    def _ensure_head(self) -> bool:
        """Make the heap head the globally next live event.

        Flushes due blocks and prunes tombstones; returns ``False`` when
        the queue is empty.  The run loop inlines the common no-work
        check (heap head earlier than ``_blk_min``, no live set).
        """
        while True:
            heap = self._heap
            if heap:
                if self._blk_min <= heap[0][0]:
                    self._flush_blocks()
                live = self._live
                if live is None or heap[0][1] in live:
                    return True
                heapq.heappop(heap)
                self.dead_pops += 1
                continue
            if not self._blk:
                return False
            self._flush_blocks()

    def peek_time(self) -> float | None:
        """Time of the next live event, or ``None`` if the queue is empty."""
        if not self._ensure_head():
            return None
        return self._heap[0][0]

    def pop(self) -> Entry:
        """Remove and return the next live ``(time, seq, action, payload)``.

        Raises
        ------
        SchedulingError
            If the queue is empty.
        """
        if not self._ensure_head():
            raise SchedulingError("pop from an empty event queue")
        entry = heapq.heappop(self._heap)
        live = self._live
        if live is not None:
            live.remove(entry[1])
        return entry

    def drain(self) -> Iterator[Entry]:
        """Yield live events in time order until the queue is empty.

        New events pushed while draining are interleaved correctly.
        """
        while self:
            yield self.pop()
