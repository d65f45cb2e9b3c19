"""The discrete-event simulator.

:class:`Simulator` owns the simulated clock and the event queue and runs
the classic event loop: repeatedly pop the earliest event, advance the
clock to its timestamp, and execute its action.  Actions schedule
further events through :meth:`Simulator.schedule` /
:meth:`Simulator.schedule_in` / :meth:`Simulator.schedule_many`.

Two queue engines are available (``Simulator(engine=...)``):

* ``"batch"`` (the default) — :class:`~repro.engine.events.BatchEventQueue`:
  the C tuple heap plus *deferred bulk intake*.  :meth:`schedule_many`
  / :meth:`schedule_many_at` file a whole block of events (one
  DrawPool block worth of pre-drawn times, passed as a zero-copy
  array view) with two list appends, flushed into the heap in one
  C-level loop only when the clock approaches the block.  Protocol
  simulators key their tick-window batching off :attr:`tick_window`,
  which collapses to 1 when the draw-pool block size is 1 — that
  degenerate configuration replays the scalar-draw reference engine
  draw for draw (see ``tests/engine/test_fast_equivalence.py``).
* ``"heap"`` — the PR 1 tuple dispatcher: ``(time, seq, action,
  payload)`` tuples on a raw ``heapq`` with lazy tombstones.  This is
  the compatibility fallback; protocols running on it schedule one
  event per call exactly as before, so its trajectories are
  bit-identical to the pre-batching engine
  (``tests/scenarios/test_default_path_regression.py`` pins them).

Dispatching one event costs a couple of list loads and the callback
itself.  Protocol components (nodes, leaders, clocks) are plain Python
objects holding a reference to the simulator; there is no
process/coroutine machinery — the paper's protocols are reactive state
machines, which map naturally onto event callbacks with integer
payloads.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from typing import Any, Callable, Sequence

import numpy as np

import repro.engine.rng as engine_rng
from repro.engine.events import BatchEventQueue, EventQueue
from repro.engine.tracing import NULL_TRACER, Tracer
from repro.errors import ConfigurationError, SchedulingError

__all__ = ["Simulator", "DEFAULT_ENGINE", "DEFAULT_TICK_WINDOW", "schedule_tick_window"]

#: Engine used when ``Simulator(engine=None)`` and ``$REPRO_ENGINE`` is
#: unset.  ``"batch"`` = struct-of-arrays queue + window batching;
#: ``"heap"`` = the PR 1 tuple heap (bit-identical legacy trajectories).
DEFAULT_ENGINE = "batch"

#: Ticks a protocol simulator pre-schedules per node and refill on the
#: batch engine.  The effective window is
#: ``min(DEFAULT_TICK_WINDOW, rng.DEFAULT_BLOCK)`` so that forcing draw
#: pools to block size 1 (the equivalence suite) also forces
#: event-granular scheduling in the exact scalar draw order.
DEFAULT_TICK_WINDOW = 8

_ENGINES = ("batch", "heap")


class Simulator:
    """Event-loop driver for continuous-time simulations.

    Parameters
    ----------
    tracer:
        Receives structured trace records; defaults to a no-op tracer.
    engine:
        ``"batch"`` (struct-of-arrays queue, bulk scheduling) or
        ``"heap"`` (tuple-heap fallback).  ``None`` resolves the
        ``REPRO_ENGINE`` environment variable and then
        :data:`DEFAULT_ENGINE`.

    Notes
    -----
    Time starts at ``0.0`` and only moves forward. Scheduling an event in
    the past raises :class:`repro.errors.SchedulingError` — protocols in
    this library never need it and it is almost always a bug.
    """

    def __init__(self, *, tracer: Tracer | None = None, engine: str | None = None):
        if engine is None:
            engine = os.environ.get("REPRO_ENGINE") or DEFAULT_ENGINE
        if engine not in _ENGINES:
            raise ConfigurationError(
                f"unknown engine {engine!r}; available: {', '.join(_ENGINES)}"
            )
        self.engine = engine
        self._batched = engine == "batch"
        self.queue: BatchEventQueue | EventQueue = (
            BatchEventQueue() if self._batched else EventQueue()
        )
        self.now = 0.0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._events_executed = 0
        #: Protocol events counted without a dispatch of their own (see
        #: :meth:`record_elided`).
        self.events_elided = 0
        #: Set by a wrapper that intercepts the scheduling methods (fault
        #: injection).  The single-leader protocols then schedule every
        #: 0-signal they would otherwise elide, so the wrapper sees each
        #: one; multileader consensus keeps eliding through
        #: :meth:`admit_many_at`.
        self.intercepted = False
        #: Set by a fault wrapper whose churn guard rules on clock ticks
        #: at dispatch.  Multileader consensus then queues every tick
        #: instead of skipping the ones a locked node sleeps through.
        self.ticks_guarded = False
        self._stop_requested = False

    @property
    def events_executed(self) -> int:
        """Protocol events executed so far (telemetry).

        Elided events count once their protocol reports them through
        :meth:`record_elided` (the eliding protocols do so at run end).
        """
        return self._events_executed

    def record_elided(self, elided: int, stand_ins: int) -> None:
        """Count ``elided`` protocol events that were never dispatched.

        A protocol that folds events into its state instead of queueing
        them (leader 0-signals, the ticks a locked node sleeps through)
        reports them here, together with the
        ``stand_ins``: the bookkeeping events it dispatched in their
        place.  :attr:`events_executed` stays the count of protocol
        events, so it does not depend on whether elision ran.
        """
        self.events_elided += elided
        self._events_executed += elided - stand_ins

    @property
    def batched(self) -> bool:
        """True when the struct-of-arrays engine is active."""
        return self._batched

    @property
    def tick_window(self) -> int:
        """Events a protocol should pre-schedule per bulk call.

        ``min(DEFAULT_TICK_WINDOW, DEFAULT_BLOCK)`` on the batch engine
        (so block-1 pools imply window 1 and exact scalar draw order);
        always 1 on the heap fallback.
        """
        if not self._batched:
            return 1
        return max(1, min(DEFAULT_TICK_WINDOW, engine_rng.DEFAULT_BLOCK))

    def schedule(
        self, time: float, action: Callable[..., Any], payload: Any = None
    ) -> int:
        """Schedule ``action(payload)`` at absolute simulated ``time``.

        Returns the event's sequence handle (pass to :meth:`cancel`). A
        ``None`` payload means ``action`` runs with no arguments.
        """
        if not time >= self.now:  # rejects past times and NaN
            raise SchedulingError(
                f"cannot schedule event at {time} in the past (now={self.now})"
            )
        queue = self.queue
        if self._batched:
            return queue.push(time, action, payload)
        # Inlined EventQueue.push — one event is scheduled per event
        # executed in steady state, so this is as hot as the run loop.
        seq = queue._next_seq
        queue._next_seq = seq + 1
        heappush(queue._heap, (time, seq, action, payload))
        if queue._live is not None:
            queue._live.add(seq)
        return seq

    def schedule_in(
        self, delay: float, action: Callable[..., Any], payload: Any = None
    ) -> int:
        """Schedule ``action(payload)`` after a non-negative ``delay`` from now."""
        if not delay >= 0:  # rejects negative delays and NaN
            raise SchedulingError(f"negative delay {delay}")
        queue = self.queue
        if self._batched:
            return queue.push(self.now + delay, action, payload)
        seq = queue._next_seq
        queue._next_seq = seq + 1
        heappush(queue._heap, (self.now + delay, seq, action, payload))
        if queue._live is not None:
            queue._live.add(seq)
        return seq

    def schedule_many(
        self,
        delays: Sequence[float],
        action: Callable[..., Any],
        payloads: Sequence[Any] | None = None,
    ) -> range:
        """Bulk-schedule ``action`` after each non-negative delay from now.

        The bulk counterpart of :meth:`schedule_in`: one call files a
        whole block of events (typically a DrawPool block of delays).
        ``payloads`` is a parallel sequence; ``None`` dispatches every
        event with no arguments.  Returns the contiguous range of
        sequence handles.

        On the batch engine the block costs a few C-level column
        extends; on the heap fallback it degrades to a local
        ``heappush`` loop with identical semantics, so callers never
        need to branch on the engine.
        """
        if len(delays):
            # min() rejects negatives; a NaN anywhere poisons sum().
            total = sum(delays)
            if not min(delays) >= 0 or total != total:
                raise SchedulingError(
                    f"negative or NaN delay in bulk schedule: {list(delays)}"
                )
        now = self.now
        return self.schedule_many_at([now + d for d in delays], action, payloads)

    def schedule_many_at(
        self,
        times: Sequence[float],
        action: Callable[..., Any],
        payloads: Sequence[Any] | None = None,
    ) -> range:
        """Bulk-schedule ``action`` at each *absolute* simulated time.

        The absolute-time twin of :meth:`schedule_many` — the protocol
        hot path uses it because window refills compute cumulative tick
        times anyway.  Past and NaN times raise; semantics otherwise
        match :meth:`schedule_many`.
        """
        queue = self.queue
        if self._batched:
            return queue.push_many(times, action, payloads, not_before=self.now)
        now = self.now
        seq = queue._next_seq
        start = seq
        heap = queue._heap
        if payloads is None:
            for time in times:
                if not time >= now:
                    raise SchedulingError(
                        f"cannot schedule event at {time} in the past (now={now})"
                    )
                heappush(heap, (time, seq, action, None))
                seq += 1
        else:
            if len(payloads) != len(times):
                raise SchedulingError(
                    f"schedule_many got {len(times)} times but {len(payloads)} payloads"
                )
            for time, payload in zip(times, payloads):
                if not time >= now:
                    raise SchedulingError(
                        f"cannot schedule event at {time} in the past (now={now})"
                    )
                heappush(heap, (time, seq, action, payload))
                seq += 1
        queue._next_seq = seq
        if queue._live is not None:
            queue._live.update(range(start, seq))
        return range(start, seq)

    def admit_many_at(
        self, times: list[float], action: Callable[..., Any], payload: Any = None
    ) -> list[float]:
        """Rule on a block of events the caller counts instead of queueing.

        A protocol that elides events (folds their arrivals into its own
        state) asks here which of them the network delivers, and when:
        the result lists the admitted times as the queue would hold
        them, in order.  A plain simulator delivers everything as given;
        a fault wrapper overrides this with its schedule-time verdict
        (drops, delays), drawing exactly as if each event had been
        scheduled.  ``action`` and ``payload`` classify the events and
        are never called.
        """
        return times

    def cancel(self, handle: int) -> None:
        """Cancel a previously scheduled event by its sequence handle."""
        self.queue.cancel(handle)

    def publish_metrics(self, metrics) -> None:
        """Harvest engine counters into a metrics registry (run epilogue).

        Nothing on the event loop itself changes for metrics: the loop
        already counts executed events and the queues count their own
        amortized-path telemetry (flushes, cancels, tombstone pops), so
        enabling metrics costs one dict harvest after the run.
        """
        if metrics is None or not metrics.enabled:
            return
        metrics.counter(f"engine.runs.{self.engine}").inc()
        metrics.counter("engine.events_executed").inc(self._events_executed)
        metrics.counter("engine.events_elided").inc(self.events_elided)
        metrics.add_counters(self.queue.stats(), prefix="engine.")

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stop_requested = True

    def run(
        self,
        *,
        until: float | None = None,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> float:
        """Execute events until a stopping condition holds.

        Parameters
        ----------
        until:
            Stop (without executing) at the first event later than this
            time; the clock is then advanced to ``until``.
        max_events:
            Execute at most this many events (guards runaway loops).
        stop_when:
            Checked after every executed event; the loop exits as soon as
            it returns ``True``.

        Returns
        -------
        float
            The simulated time when the loop exited.
        """
        self._stop_requested = False
        if self._batched:
            return self._run_batch(until, max_events, stop_when)
        return self._run_heap(until, max_events, stop_when)

    def _run_batch(
        self,
        until: float | None,
        max_events: int | None,
        stop_when: Callable[[], bool] | None,
    ) -> float:
        executed = 0
        queue = self.queue
        heap = queue._heap
        horizon = float("inf") if until is None else until
        try:
            if max_events is None and stop_when is None:
                # Tight loop: protocol runs stop via Simulator.stop()
                # (convergence is detected at the state update, not
                # polled per event), so only the horizon is checked.
                # Deferred push_many blocks are flushed into the heap
                # the moment their earliest event could be next.
                while True:
                    if not heap:
                        if not queue._blk:
                            break
                        queue._flush_blocks()
                        continue
                    entry = heap[0]
                    if queue._blk_min <= entry[0]:
                        queue._flush_blocks()
                        entry = heap[0]
                    live = queue._live
                    if live is not None and entry[1] not in live:
                        heappop(heap)
                        queue.dead_pops += 1
                        continue
                    time = entry[0]
                    if time > horizon:
                        self.now = until
                        return self.now
                    heappop(heap)
                    if live is not None:
                        live.remove(entry[1])
                    self.now = time
                    payload = entry[3]
                    if payload is None:
                        entry[2]()
                    else:
                        entry[2](payload)
                    executed += 1
                    if self._stop_requested:
                        break
            else:
                while True:
                    if max_events is not None and executed >= max_events:
                        break
                    if not heap:
                        if not queue._blk:
                            break
                        queue._flush_blocks()
                        continue
                    entry = heap[0]
                    if queue._blk_min <= entry[0]:
                        queue._flush_blocks()
                        entry = heap[0]
                    live = queue._live
                    if live is not None and entry[1] not in live:
                        heappop(heap)
                        queue.dead_pops += 1
                        continue
                    time = entry[0]
                    if time > horizon:
                        self.now = until
                        return self.now
                    heappop(heap)
                    if live is not None:
                        live.remove(entry[1])
                    self.now = time
                    payload = entry[3]
                    if payload is None:
                        entry[2]()
                    else:
                        entry[2](payload)
                    executed += 1
                    if self._stop_requested:
                        break
                    if stop_when is not None and stop_when():
                        break
        finally:
            self._events_executed += executed
        if until is not None and not queue and self.now < until:
            self.now = until
        return self.now

    def _run_heap(
        self,
        until: float | None,
        max_events: int | None,
        stop_when: Callable[[], bool] | None,
    ) -> float:
        executed = 0
        queue = self.queue
        heap = queue._heap
        horizon = float("inf") if until is None else until
        try:
            if max_events is None and stop_when is None:
                # Tight loop; see _run_batch for the stop semantics.
                # queue._live is re-read per event because a callback
                # can trigger the first cancellation mid-run.
                while heap:
                    entry = heap[0]
                    live = queue._live
                    if live is not None and entry[1] not in live:
                        heappop(heap)
                        queue.dead_pops += 1
                        continue
                    time = entry[0]
                    if time > horizon:
                        self.now = until
                        return self.now
                    heappop(heap)
                    if live is not None:
                        live.remove(entry[1])
                    self.now = time
                    payload = entry[3]
                    if payload is None:
                        entry[2]()
                    else:
                        entry[2](payload)
                    executed += 1
                    if self._stop_requested:
                        break
            else:
                while heap:
                    if max_events is not None and executed >= max_events:
                        break
                    entry = heap[0]
                    live = queue._live
                    if live is not None and entry[1] not in live:
                        heappop(heap)
                        queue.dead_pops += 1
                        continue
                    time = entry[0]
                    if time > horizon:
                        self.now = until
                        return self.now
                    heappop(heap)
                    if live is not None:
                        live.remove(entry[1])
                    self.now = time
                    payload = entry[3]
                    if payload is None:
                        entry[2]()
                    else:
                        entry[2](payload)
                    executed += 1
                    if self._stop_requested:
                        break
                    if stop_when is not None and stop_when():
                        break
        finally:
            self._events_executed += executed
        if until is not None and not queue and self.now < until:
            self.now = until
        return self.now


def schedule_tick_window(sim: Simulator, wait_pool, tick, node: int, window: int) -> None:
    """Pre-schedule a node's next ``window`` ticks (wait-only chains).

    The shared refill for protocols whose ticks carry no pre-computable
    side events (clustering, broadcast): the soonest tick goes in as a
    scalar so the bulk block matures late, the rest as one
    :meth:`Simulator.schedule_many_at` array block.  ``window`` must be
    at least 2 (window 1 uses the caller's event-granular fallback).
    """
    waits = wait_pool.take_array(window)
    ticks = np.cumsum(waits)
    ticks += sim.now
    sim.schedule_in(float(waits[0]), tick, node)  # soonest tick: scalar
    sim.schedule_many_at(ticks[1:], tick, [node] * (window - 1))
