"""Smoke-scale tests of the benchmark itself.

Run from the repo root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, workloads  # noqa: E402
from perfbench.spans import Span, SpanRecorder, layer_self_times, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The four workloads shrunk so one pass takes well under a second.
SMOKE = {
    "single-leader": {"base": {**workloads.WORKLOADS["single-leader"].base, "n": 200}, "repetitions": 2},
    "multileader-lossy": {"base": {**workloads.WORKLOADS["multileader-lossy"].base, "n": 300}},
    "sweep-cache": {"repetitions": 4},
    "sync-pernode-1e6": {"base": {**workloads.WORKLOADS["sync-pernode-1e6"].base, "n": 5000}},
}


@pytest.fixture
def smoke(monkeypatch):
    shrunk = {
        name: dataclasses.replace(workload, **SMOKE[name])
        for name, workload in workloads.WORKLOADS.items()
    }
    monkeypatch.setattr(harness, "WORKLOADS", shrunk)
    monkeypatch.setattr(harness, "SETUP_PROBES", 1)
    return shrunk


def _measure(name: str, tmp_path: Path, trace: bool, seed: int = 3):
    return harness.measure(
        name, seed=seed, seconds=0.0, trace=trace, root=ROOT, scratch=tmp_path / "scratch",
    )


def test_benchmark_json_names_match_the_harness():
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(harness.PER_LAYER)
    every = names + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(every) == len(set(every))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in every)


@pytest.mark.parametrize("name", sorted(SMOKE))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(smoke, tmp_path, name, trace):
    outcome = _measure(name, tmp_path, trace)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: unit for m, (_, unit) in outcome.metrics.items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert all(NAME.fullmatch(metric) for metric in outcome.metrics)
    assert outcome.correct, (outcome.failed, outcome.checks)
    assert outcome.attempted >= 1 and outcome.failed == 0
    if not trace:
        assert outcome.spans is None
        assert all(value > 0 for value, _ in outcome.metrics.values())
    else:
        assert any(span.name == "bench.pass" for span in outcome.spans.spans)


def test_same_seed_same_records(smoke, tmp_path):
    first = _measure("single-leader", tmp_path / "a", trace=False)
    again = _measure("single-leader", tmp_path / "b", trace=False)
    other = _measure("single-leader", tmp_path / "c", trace=False, seed=4)
    assert first.info["records_sha256"] == again.info["records_sha256"]
    assert first.info["records_sha256"] != other.info["records_sha256"]


_RSS_PROBE = """
import dataclasses, mmap, sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import numpy as np
from perfbench import harness, workloads
ballast_bytes = int(sys.argv[3]) * 2**20
real = workloads.execute_run

def heavier(config):
    # Fresh anonymous pages, touched, held for the run: unlike a heap
    # buffer, they cannot reuse memory the allocator kept from before.
    with mmap.mmap(-1, ballast_bytes) as ballast:
        np.frombuffer(ballast, dtype=np.uint8)[:] = 1
        return real(config)

workloads.execute_run = heavier
w = workloads.WORKLOADS["single-leader"]
harness.WORKLOADS = {w.name: dataclasses.replace(w, base={**w.base, "n": 200}, repetitions=2)}
harness.SETUP_PROBES = 1
outcome = harness.measure(w.name, seed=3, seconds=0.0, trace=False,
                          root=Path(sys.argv[2]), scratch=Path(sys.argv[4]))
print(outcome.metrics["peak_rss_mb"][0])
"""


def test_peak_rss_sees_ten_more_mib_in_the_program(tmp_path):
    """The calibration kernel must not set the peak: 10 MiB more held by
    each run adds 10 MiB to ``peak_rss_mb``.  Both sides hold at least
    10 MiB, which lifts the smoke-size runs above the pass's other peaks;
    each side is a fresh interpreter, since the high-water mark never
    falls.  A kernel with fresh 18 MB temporaries per call fails this.

    The probe starts behind a shell that forks it: a child that this
    process starts directly inherits this process's high-water mark."""

    def peak(ballast_mib: int) -> float:
        proc = subprocess.run(
            ["sh", "-c", '"$@"; exit $?', "sh", sys.executable, "-c", _RSS_PROBE,
             str(ROOT / "src"), str(ROOT), str(ballast_mib),
             str(tmp_path / f"scratch{ballast_mib}")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        return float(proc.stdout.split()[-1])

    lower, upper = peak(10), peak(20)
    assert 9.0 <= upper - lower <= 11.0, (lower, upper)


def test_self_time_arithmetic():
    spans = [
        Span(0, "bench.pass", 0.0, 10.0, None, None),
        Span(1, "core.init", 1.0, 4.0, 0, 7),
        Span(2, "core.run", 3.0, 6.0, 0, 7),      # overlaps its sibling
        Span(3, "core.sync.round", 2.0, 3.0, 1, 7),
        Span(4, "sweep.cache.get", 9.0, 12.0, 0, 7),  # overhangs its parent
        Span(5, "core.run", 5.0, 5.0, None, None),  # zero length
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 1.0))  # union [1,6] + [9,10]
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)
    assert own[5] == 0.0
    assert layer_self_times(spans) == pytest.approx(
        {"bench": 4.0, "core": 5.0, "core.sync": 1.0, "sweep.cache": 3.0}
    )


def test_recorder_nests_and_closes_inner_spans():
    recorder = SpanRecorder()
    run = recorder.new_run()
    outer = recorder.begin("bench.run", run=run, start=0.0)
    inner = recorder.begin("core.run", start=1.0)
    recorder.end(outer, end=5.0)  # closes the inner span too
    assert recorder.spans[inner].parent == outer
    assert recorder.spans[inner].run == run
    assert recorder.spans[inner].end == recorder.spans[outer].end == 5.0
    with pytest.raises(RuntimeError):
        recorder.end(inner)
    assert layer_self_times(recorder.spans) == pytest.approx({"bench": 1.0, "core": 4.0})


def test_failure_rule():
    good = {"converged": True, "plurality_won": True, "epsilon_time": 3.0}
    assert not harness.failure(good)
    assert harness.failure(None)
    assert harness.failure({**good, "converged": False})
    assert harness.failure({**good, "plurality_won": False})
    assert harness.failure({**good, "epsilon_time": None})


def _stuck_sweep_run():
    """A sweep-cache run (workload seed 801804950, pass 6) that reaches
    ε-consensus and then freezes with 4 of 2000 nodes on a second color."""
    workload = workloads.WORKLOADS["sweep-cache"]
    (config,) = [
        config
        for config in workload.spec(workloads.pass_seed(801804950, 6)).expand()
        if config.rep == 189 and config.params_dict["alpha"] == 1.5
    ]
    return workload, config, workloads.execute_run(config)


def test_absorbed_run_is_verified_not_failed(monkeypatch):
    workload, config, record = _stuck_sweep_run()
    assert harness.failure(record)
    assert record["elapsed"] == 10_000 and record["epsilon_time"] is not None
    assert workload.absorbed(config, record)
    # A record the re-run does not reproduce is a failure.
    assert not workload.absorbed(config, {**record, "epsilon_time": record["epsilon_time"] + 1})
    assert not workload.absorbed(config, {**record, "plurality_won": False})
    # Stopped at the last two-choices step (round 35), the state is not
    # frozen yet: the newest generation is still spreading.
    short = {**workload.params(config), "max_steps": 35}
    sim = workload.build(short, workloads._rng(config))
    short_record = workloads.result_record(sim.run(max_steps=35, epsilon=short["epsilon"]))
    assert harness.failure(short_record) and short_record["epsilon_time"] is not None
    monkeypatch.setattr(workload, "params", lambda _config: short)
    assert not workload.absorbed(config, short_record)
    # Simulation workloads accept no failing run.
    assert not workloads.WORKLOADS["single-leader"].absorbed(config, record)


def test_injected_failing_run_raises_failed_frac(smoke, tmp_path, monkeypatch):
    real = workloads.execute_run
    calls = []

    def flaky(config):
        calls.append(config)
        if len(calls) == 2:
            raise RuntimeError("injected")
        if len(calls) == 3:
            return {**real(config), "plurality_won": False}
        return real(config)

    monkeypatch.setattr(workloads, "execute_run", flaky)
    outcome = _measure("single-leader", tmp_path, trace=False)
    assert outcome.failed == 2
    assert outcome.attempted > outcome.failed
    assert not outcome.correct
    lines = harness.render(outcome, {"seed": 3})
    (line,) = [line for line in lines if line.startswith("failed_frac ")]
    assert float(line.split()[1]) == pytest.approx(2 / outcome.attempted)


def test_records_digest_ignores_wall_time():
    a = [{"elapsed": 1.0, "wall_time": 0.1}, None]
    b = [{"elapsed": 1.0, "wall_time": 0.2}, None]
    c = [{"elapsed": 2.0, "wall_time": 0.1}, None]
    assert harness.records_digest(a) == harness.records_digest(b)
    assert harness.records_digest(a) != harness.records_digest(c)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "single-leader",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
