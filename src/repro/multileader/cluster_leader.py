"""Algorithm 5 — the cluster-leader state machine.

Each cluster leader publishes ``(gen, state)`` where ``state`` is

* ``1`` — **two-choices**: members may promote to generation ``gen`` by
  sampling two equal-colored nodes of generation ``gen − 1``;
* ``2`` — **sleeping**: members take no promotion action against this
  leader; the window absorbs inter-leader skew (Proposition 31) so no
  propagation starts anywhere before two-choices ended everywhere;
* ``3`` — **propagation**: members may adopt from nodes already in
  generation ``gen``.

Leaders never act spontaneously; they react to ``(i, s, hasChanged)``
signals from members:

* **lexicographic catch-up** (lines 1–3): if ``(i, s) >lex (gen, state)``
  adopt it — this is how leader states spread between clusters, relayed
  by members who observed a faster leader (Algorithm 4, line 18);
* **tick counting** (lines 4–9): ``i = 0`` signals arrive once per member
  tick, so ``t`` advances by ``card`` per time step; thresholds at
  ``C1·card·sleep_units`` and ``C1·card·propagation_units`` drive the
  1 → 2 → 3 phase progression in (approximate) wall-clock units;
* **generation counting** (lines 10–15): ``hasChanged`` signals with
  ``i = gen`` count members promoted to the newest generation; at
  ``⌈card · gen_size_fraction⌉`` the leader births the next generation
  (``gen += 1``, ``state ← 1``, counters reset).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.multileader.params import MultiLeaderParams

__all__ = ["ClusterLeaderState", "LeaderTransition", "STATE_TWO_CHOICES", "STATE_SLEEPING", "STATE_PROPAGATION"]

STATE_TWO_CHOICES = 1
STATE_SLEEPING = 2
STATE_PROPAGATION = 3


@dataclass(frozen=True, slots=True)
class LeaderTransition:
    """One ``(gen, state)`` transition of one cluster leader."""

    time: float
    generation: int
    state: int
    cause: str  # "ticks", "gen-size", or "relay"


class ClusterLeaderState:
    """Mutable Algorithm 5 state for one cluster leader."""

    __slots__ = (
        "node",
        "card",
        "gen",
        "state",
        "tick_count",
        "gen_size",
        "transitions",
        "tracer",
        "_sleep_threshold",
        "_prop_threshold",
        "_gen_threshold",
        "_max_generation",
    )

    def __init__(self, node: int, card: int, params: MultiLeaderParams):
        self.node = node
        self.card = card
        self.gen = 1
        self.state = STATE_TWO_CHOICES
        self.tick_count = 0
        self.gen_size = 0
        self.transitions: list[LeaderTransition] = []
        #: Optional trace sink; set by the owning simulation, not here,
        #: so the state machine stays constructible without an engine.
        self.tracer = None
        self._sleep_threshold = math.ceil(params.time_unit * card * params.sleep_units)
        self._prop_threshold = math.ceil(params.time_unit * card * params.propagation_units)
        self._gen_threshold = math.ceil(params.gen_size_fraction * card)
        self._max_generation = params.max_generation

    @property
    def public_state(self) -> tuple[int, int]:
        """The publicly readable ``(gen, state)`` pair."""
        return self.gen, self.state

    def _record(self, time: float, cause: str) -> None:
        self.transitions.append(
            LeaderTransition(time=time, generation=self.gen, state=self.state, cause=cause)
        )
        if self.tracer is not None:
            self.tracer.record(
                "phase", time, event="leader-state", leader=self.node,
                gen=self.gen, state=self.state, cause=cause,
            )

    def on_signal(self, i: int, s: int, has_changed: bool, time: float) -> None:
        """Handle one ``(i, s, hasChanged)`` member signal (Algorithm 5)."""
        if i > 0 and (i, s) > (self.gen, self.state):
            if i > self.gen:
                self.gen_size = 0
            self.gen, self.state = i, s
            if s == STATE_TWO_CHOICES:
                self.tick_count = 0
            elif s == STATE_SLEEPING:
                self.tick_count = self._sleep_threshold
            else:
                self.tick_count = self._prop_threshold
            self._record(time, "relay")
        if i == 0:
            self.tick_count += 1
            if self.tick_count >= self._sleep_threshold and self.state == STATE_TWO_CHOICES:
                self.state = STATE_SLEEPING
                self._record(time, "ticks")
            elif self.tick_count >= self._prop_threshold and self.state == STATE_SLEEPING:
                self.state = STATE_PROPAGATION
                self._record(time, "ticks")
            return
        if i == self.gen and has_changed:
            self.gen_size += 1
            if self.gen_size >= self._gen_threshold and self.gen < self._max_generation:
                self.gen += 1
                self.state = STATE_TWO_CHOICES
                self.tick_count = 0
                self.gen_size = 0
                self._record(time, "gen-size")

    def ticks_to_transition(self) -> int:
        """``i = 0`` signals until the next tick-driven transition (0: none).

        Mirrors lines 4–9 of :meth:`on_signal`: two-choices ends at the
        sleep threshold and sleeping at the propagation threshold, each
        on a signal of its own; propagation waits for a birth or relay.
        """
        if self.state == STATE_TWO_CHOICES:
            threshold = self._sleep_threshold
        elif self.state == STATE_SLEEPING:
            threshold = self._prop_threshold
        else:
            return 0
        return max(1, threshold - self.tick_count)

    def phase_times(self, generation: int) -> dict[int, float]:
        """Map state -> first time this leader entered it at ``generation``."""
        times: dict[int, float] = {}
        for transition in self.transitions:
            if transition.generation == generation and transition.state not in times:
                times[transition.state] = transition.time
        return times
