"""Signal elision and skip-tick chains against a run that dispatches everything.

On the batch engine at window > 1, multileader consensus counts the
line-1 ``(0, 3, ·)`` signals in per-leader arrival buffers and
dispatches one crossing event per tick threshold.  Without a churn
guard it also queues only a node's good ticks and the window's last
tick, counting the ticks a locked node sleeps through.  ``Dispatched``
below keeps the handlers that queue every signal and every tick, so the
same seed on both must give the same run: leader transitions, counters,
fault counters and trace records, under faults too (a leader signal has
no owner node, so every fault model rules on it when it is scheduled).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.engine.rng as engine_rng
import repro.engine.simulator as engine_sim
from repro.engine.rng import RngRegistry
from repro.engine.simulator import Simulator
from repro.engine.tracing import TraceRecorder
from repro.multileader.clustering import ideal_clustering
from repro.multileader.consensus import MultiLeaderConsensusSim
from repro.multileader.params import MultiLeaderParams
from repro.scenarios.faults import (
    CrashChurn,
    GilbertElliottDrop,
    IidDrop,
    Stragglers,
    gilbert_elliott_params,
    inject_faults,
    prepare_faulty_simulator,
)
from repro.workloads.opinions import biased_counts

N = 100


class Counted(MultiLeaderConsensusSim):
    """The engine under test, counting the tick events it dispatches."""

    tick_events = 0

    def _tick(self, node: int) -> None:
        self.tick_events += 1
        super()._tick(node)


class Dispatched(MultiLeaderConsensusSim):
    """Consensus with the signal and tick handlers from before elision."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._skip = False
        self._credit = [1] * self.n

    def _refill_window(self, node: int) -> None:
        """Next tick window + (0, 3, ·)-signal fan-out, two bulk inserts."""
        window = self._window
        sim = self.sim
        payload = self._tick_signal[node]
        if window == 1:
            # Event-granular fallback: the legacy draw/push sequence.
            sim.schedule_in(self._tick_wait(), self._tick, node)
            sim.schedule_in(self._latency(), self._deliver_signal, payload)
            return
        waits = self._tick_wait.take_array(window)
        lats = self._latency.take_array(window)
        # Soonest tick + the firing tick's signal as scalars; the rest
        # in two array blocks (see core.single_leader._refill_window).
        ticks = np.cumsum(waits)
        ticks += sim.now
        sim.schedule_in(float(lats[0]), self._deliver_signal, payload)  # line 1
        sigs = ticks[:-1] + lats[1:]
        sim.schedule_in(float(waits[0]), self._tick, node)
        sim.schedule_many_at(ticks[1:], self._tick, [node] * (window - 1))
        sim.schedule_many_at(sigs, self._deliver_signal, [payload] * (window - 1))
        self._credit[node] = window

    def _deliver_signal(self, payload) -> None:
        state, i, s, has_changed = payload
        state.on_signal(i, s, has_changed, self.sim.now)

    def _tick(self, node: int) -> None:
        self.total_ticks += 1
        credit = self._credit
        c = credit[node] - 1
        if c:
            credit[node] = c
        else:
            self._refill_window(node)
        if self._locked[node]:
            return
        self._locked[node] = True
        self.good_ticks += 1
        v1 = self._sample_other(node)
        v2 = self._sample_other(node)
        v3 = self._sample_other(node)
        self.sim.schedule_in(self._channel_delay(), self._exchange, (node, v1, v2, v3))

    def _unlock(self, node: int) -> None:
        self._locked[node] = False


@pytest.fixture(autouse=True)
def _batch_engine(monkeypatch):
    """Elision needs the batch engine at its default (window > 1) blocks."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.setattr(engine_sim, "DEFAULT_ENGINE", "batch")


def _build(cls, seed: int, faults, *, wiring: str = "prepare"):
    params = MultiLeaderParams(n=N, k=3, alpha0=2.5)
    clustering = ideal_clustering(N, params.target_cluster_size)
    counts = biased_counts(N, 3, 2.5)
    rng = RngRegistry(seed).stream("mlc")
    fault_rng = RngRegistry(seed).stream("faults")
    tracer = TraceRecorder(kinds={"phase", "end", "fault"})
    if not faults or wiring == "inject":
        sim = cls(params, clustering, counts, rng, simulator=Simulator(tracer=tracer))
        injection = inject_faults(sim, faults(), fault_rng) if faults else None
        return sim, injection, tracer
    simulator, injection = prepare_faulty_simulator(N, faults(), fault_rng, tracer=tracer)
    sim = cls(params, clustering, counts, rng, simulator=simulator)
    return sim, injection.bind(sim), tracer


def _fingerprint(sim, result, injection, tracer) -> dict:
    return {
        "result": (
            result.converged,
            result.winner,
            repr(result.elapsed),
            repr(result.epsilon_convergence_time),
            result.final_color_counts.tolist(),
            dict(result.info),
        ),
        "births": [
            (b.generation, repr(b.time), b.fraction, b.bias, b.collision_probability)
            for b in result.births
        ],
        "phase_table": sim.leader_phase_table(),
        "leaders": {
            leader: (state.transitions, state.tick_count, state.gen_size)
            for leader, state in sim.leaders.items()
        },
        "ticks": (sim.good_ticks, sim.total_ticks),
        "events_executed": sim.sim.events_executed,
        "faults": None if injection is None else injection.info(),
        "trace": [(r.kind, repr(r.time), sorted(r.fields.items())) for r in tracer.records],
    }


def _differential(seed: int, faults=None, *, wiring: str = "prepare", skip: bool = True, **run):
    elided, injection, tracer = _build(Counted, seed, faults, wiring=wiring)
    reference, ref_injection, ref_tracer = _build(Dispatched, seed, faults, wiring=wiring)
    assert elided._skip is skip
    result = elided.run(**run)
    expected = _fingerprint(reference, reference.run(**run), ref_injection, ref_tracer)
    assert elided.sim.events_elided > 0
    assert reference.sim.events_elided == 0
    assert _fingerprint(elided, result, injection, tracer) == expected
    # Same tick count; skip mode dispatches fewer of them.
    assert elided.total_ticks == reference.total_ticks > 0
    if skip:
        assert elided.tick_events < elided.total_ticks
    else:
        assert elided.tick_events == elided.total_ticks
    return elided, expected


def _bursty():
    return [GilbertElliottDrop(**gilbert_elliott_params(0.05))]


def _churn_and_stragglers():
    return [CrashChurn(0.5, mean_downtime=1.0), Stragglers(0.2)]


def test_fault_free_full_consensus():
    sim, expected = _differential(1, max_time=3000.0)
    assert expected["result"][0]  # converged
    causes = {t.cause for state in sim.leaders.values() for t in state.transitions}
    assert causes == {"ticks", "gen-size", "relay"}  # every reset path ran


def test_iid_drop_full_consensus():
    _, expected = _differential(2, lambda: [IidDrop(0.05)], max_time=3000.0)
    assert expected["faults"]["fault_dropped_messages"] > 0


def test_bursty_drop_injected_after_construction():
    _, expected = _differential(3, _bursty, wiring="inject", max_time=3000.0)
    assert expected["faults"]["fault_ge_bursts"] > 0


def test_churn_and_stragglers():
    _, expected = _differential(4, _churn_and_stragglers, skip=False, max_time=3000.0)
    assert expected["faults"]["fault_crashes"] > 0


def test_churn_injected_after_construction():
    _, expected = _differential(
        8, _churn_and_stragglers, wiring="inject", skip=False, max_time=40.0
    )
    assert expected["faults"]["fault_deferred_ticks"] > 0


def test_stragglers_keep_skipping():
    _differential(9, lambda: [Stragglers(0.3)], max_time=40.0)


def test_churn_injected_mid_run_queues_the_rest_of_each_chain():
    """Skip mode until a churn guard arrives, then every tick is queued."""
    runs = []
    for cls in (Counted, Dispatched):
        sim, _, tracer = _build(cls, 10, None)
        sim.run(max_time=6.0)
        injection = inject_faults(sim, _churn_and_stragglers(), RngRegistry(10).stream("faults"))
        runs.append((sim, sim.run(max_time=40.0), injection, tracer))
    skipping = runs[0][0]
    assert not skipping._skip
    assert skipping.sim.events_elided > 0
    assert injection.info()["fault_deferred_ticks"] > 0
    assert _fingerprint(*runs[0]) == _fingerprint(*runs[1])


def test_epsilon_stop():
    _, expected = _differential(
        5, lambda: [IidDrop(0.05)], max_time=3000.0, epsilon=0.1, stop_at_epsilon=True
    )
    assert expected["result"][3] != "None"


def test_horizon_stop_mid_phase():
    sim, expected = _differential(6, lambda: [IidDrop(0.05)], max_time=12.0)
    assert not expected["result"][0]
    assert any(buffer.arrivals for buffer in sim._buffers.values())


@pytest.mark.parametrize("engine, block", [("heap", None), ("batch", 1)])
def test_heap_engine_and_window_one_never_elide(monkeypatch, engine, block):
    monkeypatch.setattr(engine_sim, "DEFAULT_ENGINE", engine)
    if block is not None:
        monkeypatch.setattr(engine_rng, "DEFAULT_BLOCK", block)
    sim, _, _ = _build(MultiLeaderConsensusSim, 7, None)
    sim.run(max_time=20.0)
    assert sim.sim.events_elided == 0
    assert any(state.tick_count for state in sim.leaders.values())
