"""Run the repo benchmark: ``python3 perfbench/run.py [options]``.

Run from the root of a checkout.  Options:

``--workload``  one of ``single-leader``, ``multileader-lossy``,
                ``sweep-cache``, ``sync-pernode-1e6``, or ``all``
                (default: all four, one after another, in this process)
``--seed``      workload seed (default 0); every input derives from it
``--seconds``   measuring time per workload (default 25)
``--trace``     0 (default): end-to-end metrics, untraced;
                1: per-layer metrics from a traced run, spans written
                to ``.perfbench_out/``

It prints a report, one ``metric <name> <value> <unit>`` line per
metric, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``correct`` is
false when a run failed or a check did not hold.  The exit code is 0
once that line is printed, 2 when the checkout has no ``src/repro`` to
measure, and non-zero without a result line on any other error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("single-leader", "multileader-lossy", "sweep-cache", "sync-pernode-1e6")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run it from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Every temporary file (sweep caches, metrics sidecars of the pool
    # workers) stays inside the checkout and goes when the run ends.
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    try:
        from perfbench.harness import measure, render, stamp

        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        header = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace, **stamp(ROOT)}
        outcomes = []
        for name in names:
            outcome = measure(
                name, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                root=ROOT, scratch=scratch,
            )
            if outcome.spans is not None:
                path = ROOT / ".perfbench_out" / f"spans-{name}-seed{args.seed}.jsonl"
                outcome.spans.write(path)
                outcome.info["spans"] = str(path.relative_to(ROOT))
            outcomes.append(outcome)
            for line in render(outcome, header):
                print(line, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass
    prefix = len(outcomes) > 1
    metrics = {
        (f"{outcome.workload}.{metric}" if prefix else metric): {"value": value, "unit": unit}
        for outcome in outcomes
        for metric, (value, unit) in outcome.metrics.items()
    }
    print(json.dumps({
        "correct": all(outcome.correct for outcome in outcomes),
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
