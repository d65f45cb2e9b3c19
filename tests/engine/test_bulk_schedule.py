"""Bulk-schedule validation on the batch engine: one scan per block.

``Simulator.schedule_many_at`` hands a block to
``BatchEventQueue.push_many`` with its clock as the floor; the queue
finds the block's earliest time once, so the past-time and NaN checks
must still catch a bad time anywhere in the block.  A fault-wrapped
simulator's bulk seams reject a bad block the same way: whole, before a
handle is allocated or a fault draw is consumed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.events import BatchEventQueue
from repro.engine.rng import RngRegistry
from repro.engine.simulator import Simulator
from repro.errors import SchedulingError
from repro.scenarios.faults import IidDrop, prepare_faulty_simulator


def noop(*_):
    pass


def _deliver_signal(*_):
    """Named like a protocol message, so a fault wrapper rules on it."""


@pytest.fixture()
def sim() -> Simulator:
    sim = Simulator(engine="batch")
    sim.schedule(5.0, noop)
    sim.run()
    assert sim.now == 5.0
    return sim


@pytest.fixture()
def drop() -> IidDrop:
    return IidDrop(0.5)


@pytest.fixture()
def wrapped_sim(drop) -> Simulator:
    """A batch simulator behind a fault wrapper that drops half its messages."""
    simulator, _ = prepare_faulty_simulator(
        4, [drop], RngRegistry(0).stream("faults"), engine="batch"
    )
    simulator.schedule(5.0, noop)
    simulator.run()
    assert simulator.now == 5.0
    return simulator


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


@pytest.mark.parametrize("action", [noop, _deliver_signal])
@pytest.mark.parametrize("wrap", [list, np.array])
@pytest.mark.parametrize("bad", [4.0, float("nan")])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_wrapped_bad_time_anywhere_in_block_is_rejected(
    wrapped_sim, drop, wrap, bad, where, action
):
    times = [6.0, 7.0, 8.0]
    times[where] = bad
    with pytest.raises(SchedulingError):
        wrapped_sim.schedule_many_at(wrap(times), action, [None] * 3)
    assert not wrapped_sim.queue
    assert drop.dropped == 0 and drop._pool.remaining == 0  # no draw consumed
    assert len(wrapped_sim.schedule_many_at(wrap([6.0]), noop)) == 1  # no seq leaked


@pytest.mark.parametrize("wrapped", [False, True], ids=["plain", "wrapped"])
def test_mismatched_payload_count_is_rejected(sim, wrapped_sim, wrapped):
    target = wrapped_sim if wrapped else sim
    with pytest.raises(SchedulingError):
        target.schedule_many_at([6.0, 7.0, 8.0], noop, [1, 2])
    assert not target.queue


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
