"""The four benchmark workloads and the calls each one makes into ``repro``.

Every workload turns a *pass seed* into a :class:`~repro.sweep.SweepSpec`
and runs it three ways, all through public entry points:

* ``run_pass`` — the measured (untraced) pass: ``SweepSpec.expand`` +
  ``execute_run`` for the simulation workloads, ``run_sweep`` +
  ``RunCache`` for ``sweep-cache``; then ``warm`` replays the same spec
  from a warm ``RunCache``, all hits (``warm_s``);
* ``run_traced`` — the same runs, driven through the simulator classes
  (``SingleLeaderSim``, ``run_multileader(instrument=, prepare=)``,
  ``PerNodeSynchronousSim.run(on_step=)``) or through ``run_sweep`` with
  a timed ``RunCache`` subclass, with spans around each call and the
  counters the program publishes collected in a ``MetricsRegistry``;
* ``build_first`` — what a fresh process does before its first run
  (the set-up probe, see ``harness.measure_setup``).

The traced calls replicate what the sweep targets do, so a traced run
reproduces its untraced twin exactly; the harness checks that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core import (
    AggregateSynchronousSim,
    FixedSchedule,
    PerNodeSynchronousSim,
    SingleLeaderParams,
    SingleLeaderSim,
)
from repro.engine import RngRegistry
from repro.engine.metrics import MetricsRegistry
from repro.multileader import ClusteringSim, MultiLeaderParams, run_multileader
from repro.scenarios.adversary import adversarial_counts
from repro.scenarios.faults import build_faults, prepare_faulty_simulator
from repro.sweep import RunCache, RunConfig, SweepSpec, execute_run, run_sweep
from repro.sweep.targets import target_params, validate_target_params

from perfbench.spans import SpanRecorder

#: Processes for the ``sweep-cache`` pool (the reference machine has 2 cores).
SWEEP_WORKERS = 2

#: Record fields two runs must agree on to count as the same trajectory.
SUMMARY_FIELDS = ("converged", "plurality_won", "winner", "elapsed", "epsilon_time")


def summary(record: dict | None) -> tuple | None:
    """The trajectory-identifying part of a run record (``None`` if the run raised)."""
    return None if record is None else tuple(record.get(key) for key in SUMMARY_FIELDS)


def result_record(result, time_unit: float | None = None) -> dict:
    """A record with the summary fields from a ``RunResult`` (traced runs)."""
    eps = result.epsilon_convergence_time
    record = {
        "converged": bool(result.converged),
        "plurality_won": bool(result.plurality_won),
        "winner": int(result.winner),
        "elapsed": float(result.elapsed),
        "epsilon_time": None if eps is None else float(eps),
    }
    if time_unit is not None and eps is not None:
        record["epsilon_units"] = float(eps) / time_unit
    return record


def pass_seed(seed: int, index: int) -> int:
    """Root seed of pass ``index`` under workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class PassResult:
    """One pass: records in spec order (``None`` = the run raised)."""

    records: list[dict | None]
    wall_s: float
    #: Median all-hit replay time; ``None`` when a run failed.
    warm_s: float | None = None
    warm_ok: bool = True


@dataclass
class TracedPass:
    """One traced pass: records, published counters, workload-specific counts.

    The harness fills in the pass's span-index range and duration.
    """

    records: list[dict | None]
    registry: MetricsRegistry
    extra: dict[str, float] = field(default_factory=dict)
    spans: tuple[int, int] = (0, 0)
    wall_s: float = 0.0


class TimedRunCache(RunCache):
    """A ``RunCache`` whose lookups and stores are recorded as spans."""

    def __init__(self, root: Path, spans: SpanRecorder):
        super().__init__(root)
        self.spans = spans
        self.bytes_written = 0

    def get(self, config):
        with self.spans.span("sweep.cache.get"):
            return super().get(config)

    def put(self, config, record):
        with self.spans.span("sweep.cache.put"):
            path = super().put(config, record)
        self.bytes_written += path.stat().st_size
        return path


@dataclass
class Workload:
    """A named sweep spec (target, fixed parameters, runs per pass) and
    the calls that run it untraced, traced, and for the set-up probe.

    Each workload is a subclass that overrides ``run_traced`` and
    ``build`` (build one run's simulator); ``sweep-cache`` overrides the
    untraced pass too."""

    name: str
    target: str
    base: dict[str, Any]
    grid: dict[str, list[Any]]
    repetitions: int
    #: All-hit replays per pass; ``warm_s`` is their median.
    warm_repeats: int

    def spec(self, seed: int) -> SweepSpec:
        return SweepSpec(
            target=self.target,
            base=dict(self.base),
            grid={key: list(values) for key, values in self.grid.items()},
            repetitions=self.repetitions,
            seed=seed,
            name=self.name,
        )

    def params(self, config: RunConfig) -> dict[str, Any]:
        """The run's full parameter set: target defaults + config."""
        return {**target_params(self.target), **config.params_dict}

    # -- measured pass ------------------------------------------------
    def run_pass(self, spec: SweepSpec, scratch: Path) -> PassResult:
        records: list[dict | None] = []
        started = time.perf_counter()
        for config in spec.expand():
            try:
                records.append(execute_run(config))
            except Exception:  # a raising run is counted, not fatal
                records.append(None)
        return PassResult(records, time.perf_counter() - started)

    def warm(self, spec: SweepSpec, scratch: Path, result: PassResult) -> None:
        """Store the pass's records in a fresh cache, then time all-hit replays."""
        if any(record is None for record in result.records):
            return
        cache = RunCache(scratch / "warm")
        for config, record in zip(spec.expand(), result.records):
            cache.put(config.as_dict(), record)
        result.warm_s, result.warm_ok = _replay(
            spec, cache, result.records, self.warm_repeats, workers=1
        )

    def run_traced(self, spec: SweepSpec, scratch: Path, spans: SpanRecorder) -> TracedPass:
        raise NotImplementedError

    def build(self, p: dict, rng: np.random.Generator) -> Any:
        raise NotImplementedError

    def absorbed(self, config: RunConfig, record: dict | None) -> bool:
        """Is this run's failure the protocol's own, verified outcome?
        (Only ``sweep-cache`` has one; see ``SweepCache.absorbed``.)"""
        return False

    def comparable_s(self, result: PassResult) -> float:
        """The untraced time that a traced pass of the same spec repeats."""
        return result.wall_s

    def build_first(self, spec: SweepSpec, scratch: Path) -> None:
        """Set-up probe: expand, validate and digest the pass, build run 0."""
        configs = _expand_checked(spec)
        self.build(self.params(configs[0]), _rng(configs[0]))


def _expand_checked(spec: SweepSpec) -> list[RunConfig]:
    """Expand the spec, validate every config and compute its digest."""
    configs = spec.expand()
    for config in configs:
        validate_target_params(config.target, config.params_dict)
        config.digest
    return configs


def _rng(config: RunConfig) -> np.random.Generator:
    return RngRegistry(config.seed).stream(config.stream)


def _replay(spec, cache, records, repeats: int, *, workers: int) -> tuple[float, bool]:
    """Median time of ``repeats`` all-hit ``run_sweep`` replays; are they exact?"""
    times = []
    ok = True
    expected = [summary(record) for record in records]
    for _ in range(repeats):
        started = time.perf_counter()
        report = run_sweep(spec, cache=cache, workers=workers)
        times.append(time.perf_counter() - started)
        ok = ok and report.executed == 0 and [
            summary(record) for record in report.records
        ] == expected
    return float(np.median(times)), ok


# --------------------------------------------------------------------------
# single-leader: Algorithms 2+3 on K_n, serial, to full consensus.


class SingleLeader(Workload):
    def build(self, p: dict, rng):
        counts = adversarial_counts(p["init"], p["n"], p["k"], p["alpha"])
        params = SingleLeaderParams(
            n=p["n"],
            k=int(counts.size),
            alpha0=p["alpha"],
            latency_rate=p["latency_rate"],
            gen_size_fraction=p["gamma"],
        )
        return SingleLeaderSim(params, counts, rng), params

    def run_traced(self, spec, scratch, spans) -> TracedPass:
        registry = MetricsRegistry()
        records: list[dict | None] = []
        for config in spec.expand():
            p = self.params(config)
            with spans.span("bench.run", run=spans.new_run()):
                with spans.span("core.init"):
                    sim, params = self.build(p, _rng(config))
                with spans.span("core.run"):
                    result = sim.run(max_time=p["max_time"], epsilon=p["epsilon"])
                sim.publish_metrics(registry)
            records.append(result_record(result, params.time_unit))
        return TracedPass(records, registry)


# --------------------------------------------------------------------------
# multileader-lossy: clustering + broadcast + Algorithms 4+5 under iid loss.


def _multileader_params(p: dict):
    counts = adversarial_counts(p["init"], p["n"], p["k"], p["alpha"])
    params = MultiLeaderParams(
        n=p["n"], k=int(counts.size), alpha0=p["alpha"], latency_rate=p["latency_rate"]
    )
    return params, counts


def _faults(p: dict) -> list:
    return build_faults(
        drop=p["drop"],
        drop_model=p["drop_model"],
        churn=p["churn"],
        churn_downtime=p["churn_downtime"],
        stragglers=p["stragglers"],
        straggler_slowdown=p["straggler_slowdown"],
    )


class MultiLeaderLossy(Workload):
    def build(self, p: dict, rng):
        params, _ = _multileader_params(p)
        simulator, wiring = prepare_faulty_simulator(params.n, _faults(p), rng)
        clustering = ClusteringSim(params, rng, simulator=simulator)
        if wiring is not None:
            wiring.bind(clustering)
        return clustering

    def run_traced(self, spec, scratch, spans) -> TracedPass:
        registry = MetricsRegistry()
        records: list[dict | None] = []
        extra = {"clustering_events": 0.0, "consensus_events": 0.0, "good": 0.0, "ticks": 0.0, "clusters": 0.0}
        for config in spec.expand():
            p = self.params(config)
            rng = _rng(config)
            params, counts = _multileader_params(p)
            pending: list = []
            phases: list = []
            phase_span: list[int] = []

            def prepare():
                if phase_span:
                    spans.end(phase_span.pop())
                simulator, wiring = prepare_faulty_simulator(params.n, _faults(p), rng)
                pending.append(wiring)
                return simulator

            def instrument(sim_obj) -> None:
                wiring = pending.pop()
                if wiring is not None:
                    wiring.bind(sim_obj)
                phases.append((sim_obj, wiring))
                name = "multileader.clustering" if len(phases) == 1 else "multileader.consensus"
                phase_span.append(spans.begin(name))

            with spans.span("bench.run", run=spans.new_run()):
                with spans.span("multileader.pipeline"):
                    result = run_multileader(
                        params,
                        counts,
                        rng,
                        clustering_max_time=p["clustering_max_time"],
                        max_time=p["max_time"],
                        epsilon=p["epsilon"],
                        instrument=instrument,
                        prepare=prepare,
                    )
            for sim_obj, wiring in phases:
                sim_obj.sim.publish_metrics(registry)
                if wiring is not None:
                    wiring.publish_metrics(registry)
            (clustering, _), (consensus, _) = phases
            extra["clustering_events"] += clustering.sim.events_executed
            extra["consensus_events"] += consensus.sim.events_executed
            extra["good"] += consensus.good_ticks
            extra["ticks"] += consensus.total_ticks
            extra["clusters"] += float(result.info.get("clusters", 0.0))
            records.append(result_record(result, params.time_unit))
        return TracedPass(records, registry, extra)


# --------------------------------------------------------------------------
# sync-pernode-1e6: per-node Algorithm 1 at n = 10^6.


def _algorithm1(simulator, p: dict, rng):
    """An Algorithm 1 simulator on the fixed schedule, as the target builds it."""
    counts = adversarial_counts(p["init"], p["n"], p["k"], p["alpha"])
    schedule = FixedSchedule(n=p["n"], k=int(counts.size), alpha0=p["alpha"], gamma=p["gamma"])
    return simulator(counts, schedule, rng)


class SyncPerNode(Workload):
    def build(self, p: dict, rng):
        return _algorithm1(PerNodeSynchronousSim, p, rng)

    def run_traced(self, spec, scratch, spans) -> TracedPass:
        registry = MetricsRegistry()
        records: list[dict | None] = []
        for config in spec.expand():
            p = self.params(config)
            with spans.span("bench.run", run=spans.new_run()):
                with spans.span("core.sync.init"):
                    sim = self.build(p, _rng(config))
                with spans.span("core.sync.run") as run_span:
                    last = [spans.spans[run_span].start]

                    def on_step(_stats) -> None:
                        now = time.perf_counter()
                        spans.end(spans.begin("core.sync.round", start=last[0]), end=now)
                        last[0] = now

                    result = sim.run(max_steps=p["max_steps"], epsilon=p["epsilon"], on_step=on_step)
                sim.publish_metrics(registry, result)
            records.append(result_record(result))
        return TracedPass(records, registry)


# --------------------------------------------------------------------------
# sweep-cache: cold run_sweep over a process pool, then an all-hit replay.


class SweepCache(Workload):
    def build(self, p: dict, rng):
        return _algorithm1(AggregateSynchronousSim, p, rng)

    def absorbed(self, config: RunConfig, record: dict | None) -> bool:
        """Did this unconverged run end in Algorithm 1's absorbing state?

        The fixed schedule has a finite generation budget: after its last
        two-choices step no node is promoted, and propagation only copies
        a strictly higher generation.  Once every node sits in one
        generation nothing changes any more, so a second color left in it
        stays for good (the paper's guarantee holds w.h.p.; at n=2000
        roughly 1 run in 10^5 ends so).  Such a run is accepted only if it
        reached ε-consensus with the initial plurality ahead, and a re-run
        of its config reproduces the record and ends in that state."""
        if (
            record is None
            or record.get("converged")
            or not record.get("plurality_won")
            or record.get("epsilon_time") is None
        ):
            return False
        p = self.params(config)
        sim = self.build(p, _rng(config))
        result = sim.run(max_steps=p["max_steps"], epsilon=p["epsilon"])
        frozen = (
            sim.steps_done >= max(sim.schedule.two_choices_times)
            and np.count_nonzero(sim.generation_color_matrix().sum(axis=1)) == 1
        )
        return frozen and summary(result_record(result)) == summary(record)

    def run_pass(self, spec: SweepSpec, scratch: Path) -> PassResult:
        started = time.perf_counter()
        try:
            report = run_sweep(spec, cache=RunCache(scratch / "cache"), workers=SWEEP_WORKERS)
        except Exception:  # the whole pass failed; every run counts
            return PassResult([None] * spec.size, time.perf_counter() - started)
        return PassResult(report.records, time.perf_counter() - started)

    def warm(self, spec: SweepSpec, scratch: Path, result: PassResult) -> None:
        """Replay the cold sweep from the cache it filled."""
        if any(record is None for record in result.records):
            return
        result.warm_s, result.warm_ok = _replay(
            spec, RunCache(scratch / "cache"), result.records, self.warm_repeats,
            workers=SWEEP_WORKERS,
        )

    def comparable_s(self, result: PassResult) -> float:
        return result.wall_s + (result.warm_s or 0.0)

    def run_traced(self, spec, scratch, spans) -> TracedPass:
        registry = MetricsRegistry()
        cache = TimedRunCache(scratch / "cache", spans)
        with spans.span("sweep.expand", run=spans.new_run()):
            spec.expand()
        with spans.span("sweep.cold"):
            cold = run_sweep(spec, cache=cache, workers=SWEEP_WORKERS, metrics=registry)
        with spans.span("sweep.warm"):
            warm = run_sweep(spec, cache=cache, workers=SWEEP_WORKERS, metrics=registry)
        extra = {"cache_bytes": float(cache.bytes_written)}
        if [summary(r) for r in warm.records] != [summary(r) for r in cold.records]:
            extra["warm_mismatch"] = 1.0
        return TracedPass(cold.records, registry, extra)

    def build_first(self, spec: SweepSpec, scratch: Path) -> None:
        """The sweep's runs happen on workers; its set-up is expansion + digests."""
        _expand_checked(spec)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Nearly all time is event dispatch, queue, draw pools and leader
        # handlers; most dispatched events are leader 0-signals.
        SingleLeader(
            name="single-leader",
            target="single_leader",
            base={"n": 1000, "k": 4, "alpha": 2.0, "latency_rate": 1.0, "epsilon": 0.02},
            grid={},
            repetitions=4,
            warm_repeats=51,
        ),
        # Under faults events go one by one through the fault chain, so
        # bulk intake is bypassed here; drop counters must repeat exactly.
        MultiLeaderLossy(
            name="multileader-lossy",
            target="multileader",
            base={"n": 1000, "k": 4, "alpha": 2.0, "epsilon": 0.02, "drop": 0.05},
            grid={},
            repetitions=1,
            warm_repeats=51,
        ),
        # Orchestration does the work (expansion, digests, pool pickling,
        # cache JSON I/O); the event engine is idle.
        SweepCache(
            name="sweep-cache",
            target="synchronous",
            base={"n": 2000, "k": 4, "epsilon": 0.02},
            grid={"alpha": [1.5, 2.0]},
            repetitions=512,
            warm_repeats=1,
        ),
        # Vectorised numpy rounds and memory; the event engine and the
        # sweep layers are idle, so engine changes must not move it.
        SyncPerNode(
            name="sync-pernode-1e6",
            target="synchronous",
            base={"n": 1_000_000, "k": 8, "alpha": 1.5, "engine": "pernode", "epsilon": 0.02},
            grid={},
            repetitions=1,
            warm_repeats=51,
        ),
    )
}
