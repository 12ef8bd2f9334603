"""Bench: replay engine throughput and memory.

One pytest bench, printing a machine-greppable ``BENCH {json}`` line so
the replay-throughput trajectory is tracked across commits
(``tools/bench_replay.py`` collects the points into
``BENCH_replay.json``):

``replay_throughput``
    The serial executor versus the work-stealing process pool on a
    mildly skewed multi-tenant trace — the end-to-end scale-up number.

The memory-facing points ``tools/bench_replay.py`` records (``memory``,
``multicore``, ``spill``) replay a deliberately skewed trace (one
``hot`` tenant with ~10x any other tenant's events) and run each replay
in a *fresh subprocess* (:func:`replay_subprocess`): within one process
a second replay's forked workers inherit the first run's heap (their
first collections traverse it, unsharing copy-on-write pages), and the
RSS high-water mark is monotonic — same-process comparison
systematically penalizes whichever run goes second.

The pool-speedup bounds (:func:`check_speedup`) scale with the cores
actually available — on a single-core runner they only bound overhead.
They are a wall-clock gate, so the pytest bench records the point but
does not assert them; ``tools/bench_replay.py --points throughput`` does
(the CI ``perf-smoke`` job, at scale 1.0).  ``BENCH_REPLAY_SCALE``
scales trace duration (1.0 ~= 900 events; ~114 gives the 100k-event
acceptance trace).
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.loadgen.trace import InvocationTrace, synthesize_trace
from repro.parallel import ReplaySpec, run_parallel_replay

SCALE = float(os.environ.get("BENCH_REPLAY_SCALE", "1.0"))
WORKERS = 4
SMALL_TENANTS = 24
SKEW_SEED = 7

_SRC = Path(__file__).resolve().parent.parent / "src"


def make_skewed_trace(scale: float = None, small_tenants: int = SMALL_TENANTS,
                      seed: int = SKEW_SEED) -> InvocationTrace:
    """A deliberately skewed trace: ``small_tenants`` uniform tenants
    plus one ``hot`` tenant with ~10x any small tenant's event count."""
    if scale is None:
        scale = SCALE
    duration_s = 60.0 * scale
    smalls = synthesize_trace(
        tenants=small_tenants, duration_s=duration_s, mean_rpm=25.0,
        apps=["wc"], rate_sigma=0.0, seed=seed, name="skew-small",
    )
    hot = synthesize_trace(
        tenants=1, duration_s=duration_s, mean_rpm=250.0,
        apps=["wc"], rate_sigma=0.0, seed=seed + 1, name="skew-hot",
    )
    events = list(smalls.events) + [
        dataclasses.replace(event, tenant="hot") for event in hot.events
    ]
    return InvocationTrace(events=events, name="skew")


def throughput_point(scale: float = None) -> dict:
    """Serial vs pooled wall clock on a lognormal trace."""
    if scale is None:
        scale = SCALE
    trace = synthesize_trace(
        tenants=8, duration_s=90.0 * scale, mean_rpm=40.0,
        apps=["wc", "etl"], seed=7, name="bench-replay",
    )
    spec = ReplaySpec(default_app="wc")
    cores = os.cpu_count() or 1
    workers = min(WORKERS, cores)

    start = time.perf_counter()
    serial = run_parallel_replay(trace, spec, workers=1)
    serial_wall = time.perf_counter() - start
    parallel = run_parallel_replay(trace, spec, workers=workers)

    # Parallelism must never change results: merged reports are identical.
    assert parallel.to_dict() == serial.to_dict()
    assert len(parallel.completed) == len(trace)

    speedup = serial_wall / parallel.wall_s if parallel.wall_s > 0 else 0.0
    return {
        "bench": "replay_throughput",
        "events": len(trace),
        "tenants": 8,
        "workers": workers,
        "cpu_count": cores,
        "serial_wall_s": round(serial_wall, 4),
        "parallel_wall_s": round(parallel.wall_s, 4),
        "serial_events_per_s": round(len(trace) / serial_wall, 2),
        "parallel_events_per_s": round(parallel.events_per_s(), 2),
        "speedup": round(speedup, 3),
    }


def isolated_replay(scale: float, workers: int,
                    max_records_in_memory: int = None) -> dict:
    """One replay of the skewed trace: events, wall clock, parent peak
    RSS, and the SHA-256 of the canonical report rendering, with the
    record sink at ``max_records_in_memory`` (``None``: its default
    threshold).  Meant to run alone in a fresh interpreter
    (:func:`replay_subprocess`)."""
    from repro.metrics.report import render_json
    from repro.parallel.sink import RecordSinkSpec

    spec = ReplaySpec(
        default_app="wc", seed=1,
        record_sink=(
            None if max_records_in_memory is None
            else RecordSinkSpec(max_records_in_memory=max_records_in_memory)
        ),
    )
    result = run_parallel_replay(
        make_skewed_trace(scale), spec, workers=workers
    )
    report = render_json(result.to_dict())
    return {
        "max_records_in_memory": max_records_in_memory,
        "events": result.offered,
        "wall_s": round(result.wall_s, 4),
        "max_rss_mb": round(result.rss_mb, 1),
        # Identity across subprocess boundaries: the canonical report
        # rendering hashed, compared by the parent per comparison point.
        "report_sha256": hashlib.sha256(report.encode("utf-8")).hexdigest(),
    }


def replay_subprocess(scale: float = None, workers: int = WORKERS,
                      max_records_in_memory: int = None) -> dict:
    """:func:`isolated_replay` in a fresh interpreter, so wall clock and
    the monotonic RSS high-water mark belong to that one replay — and
    report identity is still checked by hash across the boundary."""
    if scale is None:
        scale = SCALE
    code = (
        "import json, runpy, sys; "
        "bench = runpy.run_path(sys.argv[1]); "
        "print(json.dumps(bench['isolated_replay'](*json.loads(sys.argv[2]))))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_SRC), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", code, __file__,
         json.dumps([scale, workers, max_records_in_memory])],
        capture_output=True, text=True, check=True, env=env,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def multicore_point(scale: float = None, worker_counts=(1, 2, 4)) -> dict:
    """Worker-count sweep over the skewed trace, each in a fresh
    subprocess.

    One point with a ``sweep`` row per worker count; the report SHA-256
    must be identical across every row — the sweep doubles as the
    worker-invariance check at benchmark scale.
    """
    rows = []
    hashes = set()
    events = None
    for workers in worker_counts:
        run = replay_subprocess(scale, workers)
        hashes.add(run["report_sha256"])
        events = run["events"]
        rows.append({
            "workers": workers,
            "wall_s": run["wall_s"],
            "max_rss_mb": run["max_rss_mb"],
        })
    point = {
        "bench": "replay_multicore",
        "events": events,
        "cpu_count": os.cpu_count() or 1,
        "sweep": rows,
        "identical": len(hashes) == 1,
    }
    assert point["identical"], point
    return point


def spill_point(scale: float = None, workers: int = WORKERS) -> dict:
    """Pooled replay's parent peak RSS: the record sink at its default
    threshold vs unbounded (``sys.maxsize``: it never spills).

    Both runs are fresh subprocesses over the same skewed trace; the
    reports must be byte-identical (SHA-256 of the canonical
    rendering).  At acceptance scale (>= 50k events) the default
    threshold must hold parent peak RSS strictly below the unbounded
    run's — the CI gate that keeps "bounded by default" honest.  The
    ``memory_sink_*``/``spill_sink_*`` keys name the unbounded and
    default runs, so the ``BENCH_replay.json`` trajectory stays
    comparable across the sink's history.
    """
    memory = replay_subprocess(scale, workers, sys.maxsize)
    spill = replay_subprocess(scale, workers)
    point = {
        "bench": "replay_spill_rss",
        "events": memory["events"],
        "workers": workers,
        "cpu_count": os.cpu_count() or 1,
        "memory_sink_wall_s": memory["wall_s"],
        "spill_sink_wall_s": spill["wall_s"],
        "memory_sink_max_rss_mb": memory["max_rss_mb"],
        "spill_sink_max_rss_mb": spill["max_rss_mb"],
        "identical": memory["report_sha256"] == spill["report_sha256"],
    }
    assert point["identical"], point
    if point["events"] >= 50_000:
        assert (
            point["spill_sink_max_rss_mb"]
            < point["memory_sink_max_rss_mb"]
        ), point
    return point


def check_speedup(point: dict) -> None:
    """The pool must beat serial by the bound for the cores available:
    > 1.5x at >= 4 cores, > 1.1x at 2-3, and at one core (no speedup
    possible) stay under 3x the serial wall time."""
    cores = point["cpu_count"]
    if cores >= 4:
        assert point["speedup"] > 1.5, point
    elif cores >= 2:
        assert point["speedup"] > 1.1, point
    else:
        assert point["parallel_wall_s"] < point["serial_wall_s"] * 3.0, point


def test_bench_replay_throughput(benchmark):
    point = benchmark.pedantic(throughput_point, rounds=1, iterations=1)
    print("BENCH " + json.dumps(point, sort_keys=True))
    benchmark.extra_info.update(point)
