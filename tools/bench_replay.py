#!/usr/bin/env python3
"""Record replay-engine benchmark points into ``BENCH_replay.json``.

Runs the benches defined in ``benchmarks/test_bench_replay.py`` (the
same code the pytest benchmarks execute), prints each point as a
``BENCH {json}`` line, and appends one run entry to the committed
trajectory file::

    PYTHONPATH=src python tools/bench_replay.py                 # ~900-event run
    PYTHONPATH=src python tools/bench_replay.py --scale 114     # ~100k-event run
    PYTHONPATH=src python tools/bench_replay.py --points spill,multicore
    PYTHONPATH=src python tools/bench_replay.py --output /tmp/b.json

Points: ``throughput`` (serial vs parallel — fails if the pool speedup
is below the bound for the cores available, see ``check_speedup`` in
``benchmarks/test_bench_replay.py``), ``memory`` (pooled peak RSS on the
skewed trace), ``multicore`` (worker-count sweep), ``spill`` (pooled RSS
with the record sink at its default threshold vs unbounded — fails if
the default does not win at >= 50k events).

The ``memory``, ``multicore`` and ``spill`` replays each run in a
*fresh subprocess* so wall clock and the monotonic ``ru_maxrss``
high-water mark are isolated per replay — and so no replay's forked
workers inherit another's heap.  Report identity is asserted across
processes via the canonical rendering's SHA-256.

CI runs the throughput gate at scale 1.0 and the other points at reduced
scale, and uploads the result as an artifact (plus the full-scale spill
gate); full-scale runs are recorded manually and committed so the perf
trajectory of the engine is diffable across commits.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

_spec = importlib.util.spec_from_file_location(
    "bench_replay_module", ROOT / "benchmarks" / "test_bench_replay.py"
)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

DEFAULT_OUTPUT = ROOT / "BENCH_replay.json"


def memory_point(scale: float, workers: int) -> dict:
    """Pooled peak RSS over the skewed trace, isolated in a subprocess."""
    run = bench.replay_subprocess(scale, workers)
    return {
        "bench": "replay_memory",
        "events": run["events"],
        "workers": workers,
        "wall_s": run["wall_s"],
        "max_rss_mb": run["max_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="record replay bench points into BENCH_replay.json"
    )
    parser.add_argument("--scale", type=float, default=1.0,
                        help="trace duration multiplier (1.0 ~= 900 "
                        "events; ~114 gives the 100k-event trace)")
    parser.add_argument("--workers", type=int, default=bench.WORKERS,
                        help=f"worker processes (default: {bench.WORKERS})")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="trajectory file to append the run to "
                        "(default: BENCH_replay.json at the repo root)")
    parser.add_argument("--points", default="throughput,memory",
                        help="comma-separated subset of throughput,"
                        "memory,multicore,spill to record (full-scale "
                        "runs usually record memory/spill only)")
    args = parser.parse_args(argv)

    selected = {name.strip() for name in args.points.split(",") if name.strip()}
    unknown = selected - {"throughput", "memory", "multicore", "spill"}
    if unknown:
        parser.error(f"unknown --points: {sorted(unknown)}")
    if not selected:
        parser.error("--points selected nothing to record")
    points = []
    if "throughput" in selected:
        points.append(bench.throughput_point(args.scale))
    if "memory" in selected:
        points.append(memory_point(args.scale, args.workers))
    if "multicore" in selected:
        points.append(bench.multicore_point(args.scale))
    if "spill" in selected:
        points.append(bench.spill_point(args.scale, args.workers))
    for point in points:
        print("BENCH " + json.dumps(point, sort_keys=True))

    run = {
        "recorded": time.strftime("%Y-%m-%d"),
        "scale": args.scale,
        "points": points,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    if args.output.exists():
        payload = json.loads(args.output.read_text())
    else:
        payload = {"bench": "replay", "runs": []}
    payload["runs"].append(run)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[appended run to {args.output}]")
    if "throughput" in selected:
        try:
            bench.check_speedup(points[0])
        except AssertionError as exc:
            print(f"pool speedup below its bound: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
