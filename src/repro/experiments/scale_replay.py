"""Beyond-paper scale-up: parallel replay throughput vs worker count.

Replays one synthesized multi-tenant trace (Azure-trace-style skewed
Poisson arrivals, the shape DataFlower's §9 workloads and follow-ups
like DFlow/Triggerflow stress) through :mod:`repro.parallel` at a sweep
of worker counts, measuring wall-clock replay throughput
(events/s) and the speedup over the serial path.  The merged simulated
metrics are asserted identical across the sweep — parallelism changes
wall-clock time only, never results.

On a single-core host the sweep shows process-pool overhead instead of
speedup; the table reports ``cpu_count`` so the trajectory is readable
either way.
"""

from __future__ import annotations

import os
from typing import List

from ..loadgen.trace import synthesize_trace
from ..parallel import ReplaySpec, run_parallel_replay
from .registry import ExperimentResult, subsample

EXPERIMENT_ID = "scale-replay"
TITLE = "Parallel replay: wall-clock throughput vs workers"

TENANTS = 8
DURATION_S = 120.0
MEAN_RPM = 40.0
APPS = ["wc", "etl"]
WORKER_GRID = [1, 2, 4]


def run(scale: float = 1.0) -> List[ExperimentResult]:
    trace = synthesize_trace(
        tenants=TENANTS,
        duration_s=max(20.0, DURATION_S * scale),
        mean_rpm=MEAN_RPM,
        apps=APPS,
        seed=7,
        name="scale-replay",
    )
    spec = ReplaySpec(default_app=APPS[0])
    rows = []
    serial_wall = None
    baseline_report = None
    for workers in subsample(WORKER_GRID, scale):
        result = run_parallel_replay(trace, spec, workers=workers)
        report = result.to_dict()
        if baseline_report is None:
            baseline_report = report
        elif report != baseline_report:  # pragma: no cover - determinism guard
            raise AssertionError(
                "parallel replay diverged from the serial report"
            )
        if serial_wall is None:
            serial_wall = result.wall_s
        rows.append(
            [
                workers,
                result.cell_count,
                len(trace),
                result.wall_s,
                result.events_per_s(),
                serial_wall / result.wall_s if result.wall_s > 0 else 0.0,
                len(result.completed),
                report["latency"]["p99_s"] if report["latency"] else None,
            ]
        )
    return [
        ExperimentResult(
            EXPERIMENT_ID,
            TITLE,
            [
                "workers", "cells", "events", "wall_s",
                "events_per_s", "speedup", "completed", "p99_s",
            ],
            rows,
            notes=[
                f"host cpu_count={os.cpu_count()}; speedup is wall-clock "
                f"vs the 1-worker serial path",
                "merged simulated metrics are identical at every worker "
                "count (tenant-cell isolation; see docs/scaling.md)",
            ],
        )
    ]
