"""Measurement loop, metrics, correctness checks and the report.

One invocation measures one workload (or all four, one after another,
in one process):

1. an untimed warm-up pass (pass 0), whose records give the workload's
   ``records sha256``;
2. timed passes 0, 1, 2, ... (each pass draws its own seed from the
   workload seed) until the next pass would overrun ``--seconds``, and
   at least ``MIN_PASSES``.  With ``--trace 1`` every timed pass is run
   twice, untraced and then traced, so the tracing overhead is a paired
   difference;
3. the set-up probe: ``SETUP_PROBES`` fresh interpreters each import the
   package, expand the first pass and build its first run.

Pass 0 is the same work on every machine, so counts read from it
repeat exactly; timings are medians over all timed passes.

Timings are reported at a reference machine speed.  The speed of a
shared machine drifts by tens of percent from one minute to the next, so
the harness times a fixed calibration kernel that does not touch
``repro`` before and after every timed pass and every set-up probe.  A
reported time is the measured time × ``REFERENCE_KERNEL_S`` / (median of
the kernel times bracketing it); a reported rate is divided by the same
factor.  The report also prints the raw values and the median factor.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from pathlib import Path

import numpy as np

from perfbench.spans import SpanRecorder, layer_self_times
from perfbench.workloads import (
    SWEEP_WORKERS,
    WORKLOADS,
    PassResult,
    TracedPass,
    Workload,
    pass_seed,
    summary,
)

MIN_PASSES = 3
SETUP_PROBES = 5

#: Calibration kernel runs between two timed passes or set-up probes.
KERNEL_REPEATS = 3
#: Kernel time that defines the reference machine speed (2-core x86
#: container, CPython 3.11.7, numpy 2.4.6).
REFERENCE_KERNEL_S = 0.033

#: ``(name, unit)`` of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("run_s.p50", "s"),
    ("run_s.p90", "s"),
    ("node_steps_per_s", "1/s"),
    ("runs_per_s", "1/s"),
    ("warm_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: ``(name, unit)`` of every per-layer metric, in report order.  A value
#: of 0 means the layer does no work on that workload (or its traced
#: run does not reach it); see README.md for which workload moves which.
PER_LAYER = (
    ("engine.events", "count"),
    ("engine.events_per_tick", "ratio"),
    ("engine.queue.flushes", "count"),
    ("engine.queue.flushed_events", "count"),
    ("engine.queue.cancels", "count"),
    ("engine.queue.dead_pops", "count"),
    ("core.init_s", "s"),
    ("core.run_s", "s"),
    ("core.ticks_total", "count"),
    ("core.ticks_good_ratio", "ratio"),
    ("core.ticks_suppressed", "count"),
    ("core.leader_zero_signals", "count"),
    ("core.leader_signal_share", "ratio"),
    ("core.pool_refills", "count"),
    ("core.eps_units.p50", "units"),
    ("core.sync.init_s", "s"),
    ("core.sync.round_s.p50", "s"),
    ("core.sync.rounds", "count"),
    ("multileader.clustering_s", "s"),
    ("multileader.consensus_s", "s"),
    ("multileader.clustering_events", "count"),
    ("multileader.consensus_events", "count"),
    ("multileader.ticks_good_ratio", "ratio"),
    ("multileader.clusters", "count"),
    ("scenarios.faults.iid_dropped", "count"),
    ("scenarios.faults.dropped_messages", "count"),
    ("scenarios.faults.dropped_exchanges", "count"),
    ("sweep.expand_s", "s"),
    ("sweep.target_s", "s"),
    ("sweep.orchestration_share", "ratio"),
    ("sweep.cache.get_s", "s"),
    ("sweep.cache.put_s", "s"),
    ("sweep.cache.hits", "count"),
    ("sweep.cache.misses", "count"),
    ("sweep.cache.bytes", "bytes"),
    ("trace.overhead_s", "s"),
    ("self_s.bench", "s"),
    ("self_s.core", "s"),
    ("self_s.core.sync", "s"),
    ("self_s.multileader", "s"),
    ("self_s.sweep", "s"),
    ("self_s.sweep.cache", "s"),
)


def failure(record: dict | None) -> bool:
    """A run fails if it raised, ran out of budget, lost the plurality, or
    has no ε-time.  A failing run that its workload verifies as the
    protocol's own outcome (``Workload.absorbed``) is counted apart."""
    return (
        record is None
        or not record.get("converged")
        or not record.get("plurality_won")
        or record.get("epsilon_time") is None
    )


def records_digest(records: list[dict | None]) -> str:
    """sha256 over the records, ``wall_time`` excluded (trajectory fingerprint)."""
    payload = [
        None if record is None else {k: v for k, v in record.items() if k != "wall_time"}
        for record in records
    ]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# The kernel's numpy arrays (about 22 MB), allocated once and written
# in place by every kernel run.  They stay resident for the life of the
# process, so the kernel adds a constant to ``peak_rss_mb`` and the
# program's own allocations add on top of it; temporaries made afresh on
# every run would set the peak themselves and hide the program's.
_kernel_rng = np.random.default_rng(2024)
_VALUES = _kernel_rng.integers(0, 1_000_000, size=1_000_000)
_INDEX = _kernel_rng.integers(0, 1_000_000, size=600_000)
_DRAWS = _kernel_rng.random(600_000)
_PICKED = _VALUES[_INDEX]


def calibration_kernel() -> int:
    """Fixed work independent of ``repro``: a heap and a dict in the
    interpreter, then random draws and a random gather over a
    1e6-element numpy array, all into preallocated arrays.  The
    workloads mix both kinds of work; of the kernels tried (each part
    alone and both), both together tracked all four workloads best."""
    rng = np.random.default_rng(2024)
    heap: list = []
    table: dict[int, int] = {}
    for index, key in enumerate(rng.random(8192).tolist()):
        heappush(heap, (key, index))
        table[index & 511] = table.get(index & 511, 0) + 1
    while heap:
        heappop(heap)
    total = len(table)
    for _ in range(2):  # numpy work is about two thirds of the kernel time
        rng.random(out=_DRAWS)
        np.take(_VALUES, _INDEX, out=_PICKED, mode="clip")  # "raise" would buffer `out`
        np.bitwise_and(_PICKED, 1023, out=_PICKED)
        total += int(np.bincount(_PICKED, minlength=1024).sum())
    return total


def time_kernel() -> list[float]:
    """``KERNEL_REPEATS`` timings of the calibration kernel."""
    samples = []
    for _ in range(KERNEL_REPEATS):
        started = time.perf_counter()
        calibration_kernel()
        samples.append(time.perf_counter() - started)
    return samples


def bracket_factors(batches: list[list[float]]) -> list[float]:
    """Speed factor of timed unit ``i`` from the kernel batches taken just
    before (``batches[i]``) and just after (``batches[i + 1]``) it."""
    return [
        REFERENCE_KERNEL_S / statistics.median(before + after)
        for before, after in zip(batches, batches[1:])
    ]


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _git_commit(root: Path) -> str:
    """HEAD of ``root/.git`` read from its files; ``unknown`` outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(root: Path) -> dict:
    """What a perf claim must carry: cores, interpreter, numpy, commit."""
    import repro

    return {
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "repro": repro.__version__,
        "commit": _git_commit(root),
    }


def children_maxrss() -> int:
    """High-water RSS (KiB) of the largest child this process has reaped."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def peak_rss_mb(children_before: int) -> float:
    """Peak resident memory of this process plus its largest reaped child
    (the sweep's pool workers), in MiB.

    A child counts only if it raised the children's high-water mark above
    ``children_before``, read when the workload started: the mark survives
    exec, so it may hold processes that the interpreter's launcher reaped.
    A forked worker's peak includes the pages it shares with this process
    at fork time.  Both marks never fall, so with ``--workload all`` a
    later workload's figure also carries the earlier workloads' peaks and
    set-up probes; only a one-workload invocation gives its own figure."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = children_maxrss()
    return (own + (children if children > children_before else 0)) / 1024.0


_PROBE = (
    "import sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3];"
    "from perfbench.workloads import WORKLOADS, pass_seed;"
    "w = WORKLOADS[sys.argv[3]];"
    "w.build_first(w.spec(pass_seed(int(sys.argv[4]), 0)), Path(sys.argv[5]))"
)


def measure_setup(
    workload: Workload, seed: int, root: Path, scratch: Path
) -> tuple[list[float], list[float]]:
    """Wall times of ``SETUP_PROBES`` fresh interpreters doing the set-up,
    and the speed factor of each."""
    times: list[float] = []
    batches = [time_kernel()]
    for index in range(SETUP_PROBES):
        probe_dir = scratch / f"probe{index}"
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _PROBE, str(root / "src"), str(root),
             workload.name, str(seed), str(probe_dir)],
            check=True, timeout=120, stdout=subprocess.DEVNULL, cwd=root,
        )
        times.append(time.perf_counter() - started)
        shutil.rmtree(probe_dir, ignore_errors=True)
        batches.append(time_kernel())
    return times, bracket_factors(batches)


@dataclass
class Outcome:
    """Everything one workload invocation measured."""

    workload: str
    metrics: dict[str, tuple[float, str]]
    attempted: int = 0
    failed: int = 0
    #: Unconverged runs verified to end in the protocol's absorbing state.
    absorbed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    #: The traced run's spans (``--trace 1`` only).
    spans: SpanRecorder | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


class Measurement:
    """The state of one workload's measurement (see the module docstring)."""

    def __init__(self, workload: Workload, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.absorbed = 0
        self.checks: dict[str, bool] = {}
        self.spans = SpanRecorder()
        self.kernel_batches: list[list[float]] = []

    def spec(self, index: int):
        return self.workload.spec(pass_seed(self.seed, index))

    def _count(self, spec, records) -> None:
        self.attempted += len(records)
        failing = [index for index, record in enumerate(records) if failure(record)]
        if not failing:
            return
        configs = spec.expand()
        for index in failing:
            if self.workload.absorbed(configs[index], records[index]):
                self.absorbed += 1
            else:
                self.failed += 1

    def _check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def untraced(self, index: int, *, timed: bool = True) -> PassResult:
        """Run pass ``index`` and its warm replay; when ``timed``, kernel
        batches bracket the runs and the replay separately."""
        directory = self.scratch / f"pass{index}"
        spec = self.spec(index)
        if timed:
            self.kernel_batches.append(time_kernel())
        result = self.workload.run_pass(spec, directory)
        if timed:
            self.kernel_batches.append(time_kernel())
        self.workload.warm(spec, directory, result)
        shutil.rmtree(directory, ignore_errors=True)
        self._count(spec, result.records)
        self._check("warm_replay_exact", result.warm_ok)
        return result

    def traced(self, index: int) -> TracedPass:
        directory = self.scratch / f"traced{index}"
        first = len(self.spans.spans)
        spec = self.spec(index)
        with self.spans.span("bench.pass") as root:
            result = self.workload.run_traced(spec, directory, self.spans)
        shutil.rmtree(directory, ignore_errors=True)
        result.spans = (first, len(self.spans.spans))
        result.wall_s = self.spans.spans[root].duration
        self._count(spec, result.records)
        self._check("warm_replay_exact", not result.extra.get("warm_mismatch"))
        return result

    def run(self, seconds: float, trace: bool) -> dict:
        warmup = self.untraced(0, timed=False)
        self.digest = records_digest(warmup.records)
        expected0 = [summary(record) for record in warmup.records]
        untraced: list[PassResult] = []
        traced: list[TracedPass] = []
        started = time.perf_counter()
        index = 0
        while True:
            pass_started = time.perf_counter()
            result = self.untraced(index)
            untraced.append(result)
            if index == 0:
                self._check(
                    "rerun_exact", [summary(r) for r in result.records] == expected0
                )
            if trace:
                traced.append(self.traced(index))
                self._check(
                    "traced_exact",
                    [summary(r) for r in traced[-1].records]
                    == [summary(r) for r in result.records],
                )
            index += 1
            now = time.perf_counter()
            if index >= MIN_PASSES and now - started + (now - pass_started) > seconds:
                break
        self.kernel_batches.append(time_kernel())
        return {"untraced": untraced, "traced": traced}


def end_to_end(
    workload: Workload,
    untraced: list[PassResult],
    run_factors: list[float],
    warm_factors: list[float],
) -> dict[str, float]:
    """End-to-end metrics over the timed passes.  Pass ``i``'s run times
    are multiplied by ``run_factors[i]``, its replay time by
    ``warm_factors[i]``; rates are totals over all passes."""
    n = float(workload.base["n"])
    run_times = [
        float(record["wall_time"]) * factor
        for result, factor in zip(untraced, run_factors)
        for record in result.records
        if record is not None
    ]
    walls = [result.wall_s * factor for result, factor in zip(untraced, run_factors)]
    records = [record for result in untraced for record in result.records]
    steps = sum(n * float(record["elapsed"]) for record in records if record is not None)
    return {
        "wall_s": _median(walls),
        "run_s.p50": float(np.percentile(run_times, 50)) if run_times else 0.0,
        "run_s.p90": float(np.percentile(run_times, 90)) if run_times else 0.0,
        "node_steps_per_s": steps / sum(walls),
        "runs_per_s": len(records) / sum(walls),
        "warm_s": _median(
            result.warm_s * factor
            for result, factor in zip(untraced, warm_factors)
            if result.warm_s is not None
        ),
    }


def per_layer(
    workload: Workload,
    spans: SpanRecorder,
    untraced: list[PassResult],
    traced: list[TracedPass],
) -> dict[str, float]:
    """The per-layer metrics: counts from traced pass 0, timings as medians."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    first = traced[0]
    counters = first.registry.snapshot()["counters"]

    def durations(name: str) -> list[float]:
        return [span.duration for span in spans.spans if span.name == name]

    def count(name: str) -> float:
        return float(counters.get(name, 0))

    events = count("engine.events_executed")
    values["engine.events"] = events
    for key in ("flushes", "flushed_events", "cancels", "dead_pops"):
        values[f"engine.queue.{key}"] = count(f"engine.queue.{key}")

    ticks = count("protocol.ticks_total")
    if ticks:
        zero_signals = count("protocol.leader_zero_signals")
        values.update(
            {
                "engine.events_per_tick": events / ticks,
                "core.ticks_total": ticks,
                "core.ticks_good_ratio": count("protocol.ticks_good") / ticks,
                "core.ticks_suppressed": count("protocol.ticks_suppressed"),
                "core.leader_zero_signals": zero_signals,
                "core.leader_signal_share": zero_signals / events,
                "core.pool_refills": count("protocol.pool_refills"),
            }
        )
    values["core.init_s"] = _median(durations("core.init"))
    values["core.run_s"] = _median(durations("core.run"))
    if workload.target == "single_leader":
        values["core.eps_units.p50"] = _median(
            r["epsilon_units"] for r in first.records if r and "epsilon_units" in r
        )

    values["core.sync.init_s"] = _median(durations("core.sync.init"))
    values["core.sync.round_s.p50"] = _median(durations("core.sync.round"))
    values["core.sync.rounds"] = count("sync.rounds")

    if workload.target == "multileader":
        extra = first.extra
        values.update(
            {
                "multileader.clustering_s": _median(durations("multileader.clustering")),
                "multileader.consensus_s": _median(durations("multileader.consensus")),
                "multileader.clustering_events": extra["clustering_events"],
                "multileader.consensus_events": extra["consensus_events"],
                "multileader.ticks_good_ratio": extra["good"] / extra["ticks"] if extra["ticks"] else 0.0,
                "multileader.clusters": extra["clusters"],
            }
        )
    for key in ("iid_dropped", "dropped_messages", "dropped_exchanges"):
        values[f"scenarios.faults.{key}"] = count(f"faults.{key}")

    if workload.name == "sweep-cache":
        target_s = [
            sum(float(r["wall_time"]) for r in result.records if r is not None)
            for result in untraced
        ]
        values.update(
            {
                "sweep.expand_s": _median(durations("sweep.expand")),
                "sweep.target_s": _median(target_s),
                "sweep.orchestration_share": _median(
                    1.0 - t / (SWEEP_WORKERS * result.wall_s)
                    for t, result in zip(target_s, untraced)
                ),
                "sweep.cache.hits": count("sweep.cache.hits"),
                "sweep.cache.misses": count("sweep.cache.misses"),
                "sweep.cache.bytes": first.extra["cache_bytes"],
            }
        )
    per_pass_self: dict[str, list[float]] = {}
    get_s, put_s = [], []
    for result in traced:
        window = spans.spans[slice(*result.spans)]
        for layer, value in layer_self_times(window).items():
            per_pass_self.setdefault(layer, []).append(value)
        get_s.append(sum(s.duration for s in window if s.name == "sweep.cache.get"))
        put_s.append(sum(s.duration for s in window if s.name == "sweep.cache.put"))
    if workload.name == "sweep-cache":
        values["sweep.cache.get_s"] = _median(get_s)
        values["sweep.cache.put_s"] = _median(put_s)
    for layer, samples in per_pass_self.items():
        if f"self_s.{layer}" in values:
            values[f"self_s.{layer}"] = _median(samples)
    values["trace.overhead_s"] = _median(
        twin.wall_s - workload.comparable_s(result) for twin, result in zip(traced, untraced)
    )
    return values


def measure(name: str, *, seed: int, seconds: float, trace: bool, root: Path, scratch: Path) -> Outcome:
    """Measure one workload; see the module docstring for the steps."""
    workload = WORKLOADS[name]
    children_before = children_maxrss()
    measurement = Measurement(workload, seed, scratch / name)
    passes = measurement.run(seconds, trace)
    untraced, traced = passes["untraced"], passes["traced"]
    factors = bracket_factors(measurement.kernel_batches)
    factor = _median(factors)
    info: dict = {
        "records_sha256": measurement.digest,
        "passes": len(untraced),
        "speed_factor": factor,
    }
    if trace:
        raw = per_layer(workload, measurement.spans, untraced, traced)
        metrics = {
            metric: (raw[metric] * factor if unit == "s" else raw[metric], unit)
            for metric, unit in PER_LAYER
        }
    else:
        ones = [1.0] * len(untraced)
        raw = end_to_end(workload, untraced, ones, ones)
        values = end_to_end(workload, untraced, factors[0::2], factors[1::2])
        raw["peak_rss_mb"] = values["peak_rss_mb"] = peak_rss_mb(children_before)
        info["run_samples"] = sum(len(result.records) for result in untraced)
        probes, probe_factors = measure_setup(workload, seed, root, scratch / name)
        raw["setup_s"] = _median(probes)
        values["setup_s"] = _median(t * f for t, f in zip(probes, probe_factors))
        metrics = {metric: (values[metric], unit) for metric, unit in END_TO_END}
    info["raw"] = {metric: raw[metric] for metric in metrics}
    outcome = Outcome(
        workload=name,
        metrics=metrics,
        attempted=measurement.attempted,
        failed=measurement.failed,
        absorbed=measurement.absorbed,
        checks=dict(measurement.checks),
        info=info,
        spans=measurement.spans if trace else None,
    )
    shutil.rmtree(scratch / name, ignore_errors=True)
    return outcome


def render(outcome: Outcome, header: dict) -> list[str]:
    """Human-readable report lines for one workload."""
    failed_frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    lines = [
        f"workload {outcome.workload} " + json.dumps(header, sort_keys=True),
        f"records sha256 {outcome.info['records_sha256']} (pass 0, wall_time excluded)",
        f"failed_frac {failed_frac:.6g} ({outcome.failed}/{outcome.attempted} runs) ratio",
        f"absorbed {outcome.absorbed} (unconverged runs verified frozen in the "
        "protocol's absorbing state after ε-consensus; not failures)",
        "checks " + " ".join(f"{k}={'ok' if v else 'FAILED'}" for k, v in sorted(outcome.checks.items())),
        f"passes {outcome.info['passes']}"
        + (f", run samples {outcome.info['run_samples']}" if "run_samples" in outcome.info else ""),
    ]
    if "spans" in outcome.info:
        lines.append(f"spans {outcome.info['spans']}")
    lines.append(
        f"speed factor {outcome.info['speed_factor']!r} "
        "(median over passes; reported time = raw time x factor, rate = raw rate / factor)"
    )
    for metric, (value, unit) in outcome.metrics.items():
        lines.append(f"raw {metric} {outcome.info['raw'][metric]!r} {unit}")
    for metric, (value, unit) in outcome.metrics.items():
        lines.append(f"metric {metric} {value!r} {unit}")
    return lines
