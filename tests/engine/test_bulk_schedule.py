"""Bulk-schedule validation on the batch engine: one scan per block.

``Simulator.schedule_many_at`` hands a block to
``BatchEventQueue.push_many`` with its clock as the floor; the queue
finds the block's earliest time once, so the past-time and NaN checks
must still catch a bad time anywhere in the block.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.events import BatchEventQueue
from repro.engine.simulator import Simulator
from repro.errors import SchedulingError


def noop(*_):
    pass


@pytest.fixture()
def sim() -> Simulator:
    sim = Simulator(engine="batch")
    sim.schedule(5.0, noop)
    sim.run()
    assert sim.now == 5.0
    return sim


@pytest.mark.parametrize("wrap", [list, np.array])
@pytest.mark.parametrize("bad", [4.0, float("nan")])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_bad_time_anywhere_in_block_is_rejected(sim, wrap, bad, where):
    times = [6.0, 7.0, 8.0]
    times[where] = bad
    with pytest.raises(SchedulingError):
        sim.schedule_many_at(wrap(times), noop)
    assert not sim.queue
    assert len(sim.schedule_many_at(wrap([6.0]), noop)) == 1  # no seq leaked


def test_block_dispatches_in_time_order(sim):
    fired = []
    ticks = np.cumsum([1.0, 0.5, 0.25]) + sim.now
    handles = sim.schedule_many_at(ticks, fired.append, [0, 1, 2])
    assert list(handles) == [1, 2, 3]
    sim.run()
    assert fired == [0, 1, 2]
    assert sim.now == pytest.approx(6.75)


def test_empty_block_schedules_nothing(sim):
    assert len(sim.schedule_many_at([], noop)) == 0
    assert len(sim.schedule_many_at(np.array([]), noop)) == 0
    assert not sim.queue


@pytest.mark.parametrize("wrap", [list, np.array])
def test_push_many_rejects_nan_and_times_before_floor(wrap):
    queue = BatchEventQueue()
    with pytest.raises(SchedulingError):
        queue.push_many(wrap([1.0, float("nan"), 2.0]), noop)
    with pytest.raises(SchedulingError):
        queue.push_many(wrap([3.0, 1.0, 2.0]), noop, not_before=2.0)
    assert not queue
    assert list(queue.push_many(wrap([2.0, 3.0]), noop, not_before=2.0)) == [0, 1]
