"""Leader-signal elision: count a leader's clock signals instead of dispatching them.

A leader that only *counts* a stream of identical signals (the 0-signals
of Algorithms 3 and 5) reacts to one arrival per count: the one that
reaches its next threshold.  A protocol can therefore keep the arrival
times in an :class:`ArrivalBuffer` instead of the event queue and queue
a single crossing event at the ``need``-th earliest.  The owner folds
the other arrivals into its counters lazily, at the crossing, when a
reset overwrites the count, and at run end, so counters and phase
records equal those of a run that dispatches every signal.

The buffer never touches the queue itself: methods that move the
crossing return its new time, and the owner schedules its crossing
handler there with the buffer's current :attr:`ArrivalBuffer.token`.
A crossing event whose token is stale was superseded and does nothing.
"""

from __future__ import annotations

from heapq import heapreplace

__all__ = ["ArrivalBuffer"]

#: Buffer length below which :meth:`ArrivalBuffer.compact` never scans.
_COMPACT_FLOOR = 1024


class ArrivalBuffer:
    """Pending arrival times of one leader's counted signals.

    ``arrivals`` holds every arrival not yet folded into the owner's
    counters, past ones included.  Once it holds ``need`` of them, a
    bounded max-heap (negated) keeps the ``need`` smallest seen since the
    last :meth:`restart`, and the crossing waits at its maximum; an
    admission that lowers it returns the new time (with a fresh token).
    """

    __slots__ = ("arrivals", "token", "_need", "_nearest", "_compact_at")

    def __init__(self) -> None:
        self.arrivals: list[float] = []
        #: Token of the live crossing; any older one is stale.
        self.token = 0
        self._need = 0
        self._nearest: list[float] = []
        self._compact_at = _COMPACT_FLOOR

    def admit(self, arrivals: list[float]) -> float | None:
        """Buffer arrival times; return the crossing time if it moved."""
        self.arrivals += arrivals
        nearest = self._nearest
        if not nearest:
            return self._arm()
        if min(arrivals) >= -nearest[0]:
            return None
        for arrival in arrivals:
            if arrival < -nearest[0]:
                heapreplace(nearest, -arrival)
        self.token += 1
        return -nearest[0]

    def restart(self, need: int) -> float | None:
        """Count afresh: the crossing is the ``need``-th buffered arrival.

        ``need`` of 0 means no threshold is ahead.  The previous crossing
        goes stale; the new crossing time is returned once the buffer
        holds enough arrivals (else :meth:`admit` returns it later).
        """
        self._need = need
        self._nearest = []
        self.token += 1
        return self._arm()

    def _arm(self) -> float | None:
        need = self._need
        if need <= 0 or len(self.arrivals) < need:
            return None
        # A sort beats heapq.nsmallest here: need is most of the buffer.
        ordered = sorted(self.arrivals, reverse=True)
        self._nearest = [-arrival for arrival in ordered[len(ordered) - need:]]
        self.token += 1
        return -self._nearest[0]

    def take(self, now: float, count: int) -> None:
        """Remove the ``count`` earliest arrivals, the crossing's at ``now`` last.

        Arrivals tied with the crossing that it did not need stay
        buffered, as they would still be queued behind it.
        """
        arrivals = self.arrivals
        later = [arrival for arrival in arrivals if arrival > now]
        self.arrivals = later + [now] * (len(arrivals) - len(later) - count)

    def drop_through(self, now: float) -> int:
        """Remove the arrivals at or before ``now``; return how many.

        For a reset at ``now`` that overwrites the owner's count: those
        arrivals counted for the overwritten phase.  Call
        :meth:`restart` next.
        """
        arrivals = self.arrivals
        later = [arrival for arrival in arrivals if arrival > now]
        self.arrivals = later
        return len(arrivals) - len(later)

    def fold_before(self, now: float) -> int:
        """Remove the arrivals before ``now``; return how many (run end).

        They reached the owner without crossing, so the owner adds them
        to its count, and the armed crossing (if any) stays where it is.
        Before arming, the threshold is that many arrivals nearer.
        """
        arrivals = self.arrivals
        later = [arrival for arrival in arrivals if arrival >= now]
        self.arrivals = later
        folded = len(arrivals) - len(later)
        if self._need and not self._nearest:
            self._need -= folded
        return folded

    def compact(self, now: float) -> int:
        """Fold the arrivals before ``now`` once the buffer has doubled.

        With no threshold ahead nothing else empties the buffer, so an
        owner that calls this after each admission keeps it bounded by
        about twice its arrivals ahead of the clock, at amortized
        constant cost.  Returns what :meth:`fold_before` returns (0 when
        it did not run).
        """
        if len(self.arrivals) < self._compact_at:
            return 0
        folded = self.fold_before(now)
        self._compact_at = max(_COMPACT_FLOOR, 2 * len(self.arrivals))
        return folded
