"""Benchmark harness plumbing.

Every ``test_bench_*`` module regenerates one paper artifact (table or
figure) through the experiment registry, times it with pytest-benchmark,
and writes the rendered tables to ``benchmarks/output/<id>.md`` so the
rows the paper reports can be inspected after a run:

    pytest benchmarks/ --benchmark-only

Experiments run their *quick* configuration here; the full
configurations are regenerated with ``python -m repro reproduce --full``.
The rendered tables live in ``benchmarks/output/``, and
``docs/paper-map.md`` maps each one to the paper claim it checks.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import run_experiment

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture()
def run_and_save(benchmark, output_dir):
    """Run one registered experiment exactly once, timed, and save it."""

    def runner(name: str, *, seed: int = 0) -> ExperimentResult:
        result = benchmark.pedantic(
            lambda: run_experiment(name, quick=True, seed=seed),
            rounds=1,
            iterations=1,
        )
        path = output_dir / f"{name}.md"
        path.write_text(result.render_markdown() + "\n")
        return result

    return runner


# --------------------------------------------------------------------------
# Machine-readable perf trajectory (BENCH_4.json).
#
# Every pytest-benchmark timing collected in a session is written to
# benchmarks/output/BENCH_4.json together with the seed-engine baseline
# recorded when the benchmark was first introduced, so future PRs can
# diff perf regressions numerically instead of by prose table.  The
# seed numbers are the PR 1 measurements of the *original seed commit*
# on the same benchmark definitions (ms; see ROADMAP.md's table).

SEED_BASELINES_MS = {
    "test_bench_simulator_event_loop": 33.2,
    "test_bench_event_queue_push_pop": 40.6,
    "test_bench_single_leader_events": 126.8,
    "test_bench_thm13": 29_800.0,
    "test_bench_thm26": 45_500.0,
    "test_bench_baselines": 4_700.0,
    "test_bench_pernode_step": 2.7,
}


def pytest_sessionfinish(session, exitstatus):
    benchsession = getattr(session.config, "_benchmarksession", None)
    if benchsession is None or not benchsession.benchmarks:
        return
    payload = {}
    for bench in benchsession.benchmarks:
        stats = getattr(bench, "stats", None)
        if stats is None:
            continue
        name = bench.name.split("[")[0]
        fast_ms = stats.min * 1000.0
        entry = {"fast_ms": round(fast_ms, 3)}
        if bench.name != name:
            entry["variant"] = bench.name
        seed_ms = SEED_BASELINES_MS.get(name)
        if seed_ms is not None:
            entry["seed_ms"] = seed_ms
            entry["speedup_vs_seed"] = round(seed_ms / fast_ms, 2)
        if bench.extra_info:
            entry["extra"] = dict(bench.extra_info)
        payload[bench.name] = entry
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / "BENCH_4.json"
    import json

    # Merge into the existing trajectory: a partial benchmark run (the
    # CI perf-floor / multicore-gate jobs, or a single local module)
    # must not clobber entries it did not re-measure.
    merged = {}
    if path.exists():
        try:
            merged = json.loads(path.read_text())
        except ValueError:
            merged = {}
    merged.update(payload)
    path.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
