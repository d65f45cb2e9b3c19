"""Leader-signal elision against a run that dispatches every 0-signal.

On the batch engine in skip-tick mode the single-leader protocols count
line-1 0-signals in a buffer and dispatch only the phase crossing.  A
simulator pre-wrapped by ``prepare_faulty_simulator`` with a zero-rate
``IidDrop`` switches elision off without changing a single draw, so the
same seed on both must give the same run, counter for counter.
"""

from __future__ import annotations

import pytest

import repro.engine.simulator as engine_sim
from repro.core.delayed_exchange import DelayedExchangeSim
from repro.core.params import SingleLeaderParams
from repro.core.single_leader import SingleLeaderSim
from repro.engine.metrics import MetricsRegistry
from repro.engine.rng import RngRegistry
from repro.engine.simulator import Simulator
from repro.engine.tracing import TraceRecorder
from repro.scenarios.faults import IidDrop, inject_faults, prepare_faulty_simulator
from repro.workloads.opinions import biased_counts


@pytest.fixture(autouse=True)
def _batch_engine(monkeypatch):
    """Elision needs the batch engine at its default (window > 1) blocks."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.setattr(engine_sim, "DEFAULT_ENGINE", "batch")


def _build(cls, n: int, seed: int, *, elide: bool):
    params = SingleLeaderParams(n=n, k=3, alpha0=2.0)
    counts = biased_counts(n, 3, 2.0)
    rng = RngRegistry(seed).stream("sl")
    tracer = TraceRecorder(kinds={"phase", "end"})
    if elide:
        return cls(params, counts, rng, simulator=Simulator(tracer=tracer)), tracer
    simulator, wiring = prepare_faulty_simulator(
        n, [IidDrop(0.0)], RngRegistry(seed).stream("faults"), tracer=tracer
    )
    sim = cls(params, counts, rng, simulator=simulator)
    wiring.bind(sim)
    return sim, tracer


def _fingerprint(sim, result, tracer) -> dict:
    leader = sim.leader
    return {
        "converged": result.converged,
        "elapsed": repr(result.elapsed),
        "eps_time": repr(result.epsilon_convergence_time),
        "counts": result.final_color_counts.tolist(),
        "info": dict(result.info),
        "births": [(b.generation, repr(b.time), b.fraction) for b in result.births],
        "leader": (
            leader.zero_signals,
            leader.gen_signals,
            leader.tick_count,
            leader.gen,
            leader.prop,
        ),
        "ticks": (sim.total_ticks, sim.good_ticks),
        "phase_changes": [(c.kind, repr(c.time), c.generation) for c in leader.phase_changes],
        "events_executed": sim.sim.events_executed,
        "trace": [(r.kind, repr(r.time), sorted(r.fields.items())) for r in tracer.records],
    }


def _differential(cls, n: int, seed: int, **run):
    elided, elided_trace = _build(cls, n, seed, elide=True)
    dispatched, dispatched_trace = _build(cls, n, seed, elide=False)
    result = elided.run(**run)
    assert elided.sim.events_elided > 0
    assert dispatched.sim.events_elided == 0
    assert _fingerprint(elided, result, elided_trace) == _fingerprint(
        dispatched, dispatched.run(**run), dispatched_trace
    )
    return elided


# (class, n, seed): seeds picked so that crossings land on the clamped
# arrivals of overdue chain extensions (several 0-signals at one
# instant), where counting off by a few would show.
CROSSING_TIES = [(SingleLeaderSim, 200, 18), (DelayedExchangeSim, 100, 24)]
# ... and so that consensus comes right after such an extension: the
# stopping exchange unlocks its node, whose extension clamps 0-signals
# to the stop time.  They were never dispatched, so must not count.
STOP_TIES = [(SingleLeaderSim, 200, 15), (DelayedExchangeSim, 100, 9)]


@pytest.mark.parametrize("cls, n, seed", CROSSING_TIES + STOP_TIES)
def test_full_consensus_matches_dispatched_run(cls, n, seed):
    sim = _differential(cls, n, seed, max_time=2000.0)
    if (cls, n, seed) in STOP_TIES:
        assert sim.sim.now in sim._signals  # the case the seed was picked for


@pytest.mark.parametrize("cls, n, seed", CROSSING_TIES)
def test_epsilon_stop_matches_dispatched_run(cls, n, seed):
    _differential(cls, n, seed, max_time=2000.0, epsilon=0.05, stop_at_epsilon=True)


@pytest.mark.parametrize("cls, n, seed", CROSSING_TIES)
def test_horizon_stop_matches_dispatched_run(cls, n, seed):
    # Stops mid-phase, with the leader's two-choices window still open.
    _differential(cls, n, seed, max_time=7.0)


def test_crossing_events_are_rare():
    sim, _ = _build(SingleLeaderSim, 200, 18, elide=True)
    crossings = []
    crossing = sim._crossing

    def counted(token):
        crossings.append(token)
        crossing(token)

    sim._crossing = counted  # looked up per push, so this sees every one
    sim.run(max_time=2000.0)
    metrics = MetricsRegistry()
    sim.publish_metrics(metrics)
    counters = metrics.snapshot()["counters"]
    assert counters["engine.events_elided"] == sim.leader.zero_signals
    assert counters["engine.queue.cancels"] == 0
    assert counters["engine.queue.dead_pops"] == 0
    assert counters["engine.queue.flushed_events"] == 0  # no signal blocks queued
    assert 0 < len(crossings) <= 0.02 * counters["engine.events_elided"]


def test_prepared_simulator_governs_construction_signals():
    """On a pre-wrapped simulator even the construction-time 0-signals
    meet the fault chain (none is buffered for later)."""
    simulator, wiring = prepare_faulty_simulator(
        100, [IidDrop(0.5)], RngRegistry(7).stream("faults")
    )
    SingleLeaderSim(
        SingleLeaderParams(n=100, k=3, alpha0=2.0),
        biased_counts(100, 3, 2.0),
        RngRegistry(7).stream("sl"),
        simulator=simulator,
    )
    assert wiring.info()["fault_dropped_messages"] > 0


def test_inject_faults_after_construction_stops_eliding():
    """``inject_faults`` on a built protocol hands its buffered signals
    to the raw queue, so every later 0-signal meets the fault chain."""
    sim, _ = _build(SingleLeaderSim, 200, 18, elide=True)
    assert sim._signals
    wiring = inject_faults(sim, [IidDrop(0.5)], RngRegistry(18).stream("faults"))
    assert not sim._signals
    sim.run(max_time=30.0)
    assert sim.sim.events_elided == 0
    assert wiring.info()["fault_dropped_messages"] > 0


def test_heap_engine_never_elides(monkeypatch):
    monkeypatch.setattr(engine_sim, "DEFAULT_ENGINE", "heap")
    sim, _ = _build(SingleLeaderSim, 100, 1, elide=True)
    sim.run(max_time=50.0)
    assert sim.sim.events_elided == 0
    assert sim.leader.zero_signals > 0
