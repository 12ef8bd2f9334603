#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer.

    python3 benchmarks/suite/run.py                          # every workload
    python3 benchmarks/suite/run.py --workload replay-pool --seed 11
    python3 benchmarks/suite/run.py --workload serve-mixed --trace 1
    python3 benchmarks/suite/run.py --pin                    # rewrite reference.json

Metric names, units, bounds and the measured window come from
``BENCHMARK.json`` at the repository root.  ``--trace 0`` (the default)
measures the end-to-end metrics with no instrumentation; ``--trace 1``
measures the per-layer metrics.  A per-layer metric reads 0 on a
workload that does not exercise its layer.

Before the measured window the benchmark computes the report of the
seed's input in-process and, at the pinned seed, checks it against
``reference.json``.  Every measured operation (a replay repeat or a
serve run) is checked against that reference; a mismatch counts as a
failed operation.  Each metric prints by name with its unit; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Results, with the machine's
CPU count, the Python version and the git commit, also go to
``<out>/results-<workload>.json``; the traced replay's spans go to
``<out>/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
REFERENCE = HERE / "reference.json"
CHILD = HERE / "replay_child.py"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"error: no repro sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from repro.metrics.report import render_json  # noqa: E402
from repro.parallel.engine import run_parallel_replay  # noqa: E402
from repro.serve.validation import parse_run_request  # noqa: E402

import serve_mixed  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, ReplayWorkload  # noqa: E402

class Run:
    """What one workload run measured."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.notes: Dict[str, object] = {}
        self.pin_ok = True

    @property
    def correct(self) -> bool:
        return self.pin_ok and self.failed == 0 and self.attempted > 0

    def check(self, sha256: str, reference: str, what: str) -> None:
        """Count one operation, failed if its report differs."""
        self.attempted += 1
        if sha256 != reference:
            self.failed += 1
            self.errors.append(
                f"{what}: report sha256 {sha256[:12]} != reference "
                f"{reference[:12]}"
            )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_sha256(workload, seed: int) -> str:
    """The report of the seed's input, replayed serially in this process."""
    if isinstance(workload, ReplayWorkload):
        trace, spec = workload.trace(seed), workload.spec(seed)
    else:
        request = parse_run_request(workload.body(seed))
        trace, spec = request.trace, request.spec
    return _sha256(render_json(run_parallel_replay(trace, spec).to_dict()))


def _child(workload: ReplayWorkload, seed: int, workers: int,
           traced: bool = False, trace_out: str = "") -> dict:
    args = {"workload": workload.name, "seed": seed, "workers": workers,
            "traced": traced, "trace_out": trace_out,
            "launched_at": time.monotonic()}
    proc = subprocess.run(
        [sys.executable, str(CHILD), json.dumps(args)],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"replay child exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _repeat(run: Run, reference: str, what: str, *args, **kwargs):
    """One child replay, checked; ``None`` when it failed."""
    try:
        sample = _child(*args, **kwargs)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        run.attempted += 1
        run.failed += 1
        run.errors.append(f"{what}: {exc}")
        return None
    run.check(sample["sha256"], reference, what)
    return sample


def replay_end_to_end(run: Run, workload: ReplayWorkload, seed: int,
                      seconds: float, reference: str) -> None:
    """Fresh-subprocess repeats until the window is spent; medians."""
    samples = []
    deadline = time.monotonic() + seconds
    while True:
        began = time.monotonic()
        sample = _repeat(run, reference, "repeat", workload, seed,
                         workload.workers)
        if sample is not None:
            samples.append(sample)
        if time.monotonic() + (time.monotonic() - began) > deadline:
            break
    if not samples:
        return
    run.notes["repeat_wall_s"] = [round(s["wall_s"], 4) for s in samples]
    run.metrics.update({
        "events_per_s": median(s["offered"] / s["wall_s"] for s in samples),
        "latency_p50_s": median(s["wall_s"] for s in samples),
        "setup_s": median(s["setup_s"] for s in samples),
        "peak_rss_mb": median(s["rss_mb"] for s in samples),
    })


def replay_per_layer(run: Run, workload: ReplayWorkload, seed: int,
                     seconds: float, reference: str, out_dir: Path) -> None:
    """One traced serial child, then untraced serial (and pool) children
    until the window is spent."""
    deadline = time.monotonic() + seconds
    trace_out = out_dir / f"trace-{workload.name}.json"
    traced = _repeat(run, reference, "traced repeat", workload, seed, 1,
                     traced=True, trace_out=str(trace_out))
    if traced is None:
        return
    for i, digest in enumerate(traced["traced_sha256"]):
        run.check(digest, reference, f"traced pass {i + 1}")
    serial, pooled = [traced], []
    while True:
        began = time.monotonic()
        sample = _repeat(run, reference, "serial repeat", workload, seed, 1)
        if sample is not None:
            serial.append(sample)
        if workload.workers > 1:
            sample = _repeat(run, reference, "pool repeat", workload, seed,
                             workload.workers)
            if sample is not None:
                pooled.append(sample)
        if time.monotonic() + (time.monotonic() - began) > deadline:
            break
    serial_wall = median(s["wall_s"] for s in serial)
    run.metrics.update(traced["layers"])
    run.metrics["trace.overhead"] = traced["traced_wall_s"] / serial_wall
    if pooled:
        run.metrics["parallel.speedup"] = serial_wall / median(
            s["wall_s"] for s in pooled
        )
        run.metrics["parallel.worker_busy_share"] = median(
            s["cell_busy_s"] / (workload.workers * s["execute_s"])
            for s in pooled
        )
    run.notes["serial_repeats"] = len(serial)
    run.notes["pool_repeats"] = len(pooled)
    run.notes["trace_file"] = str(trace_out)


def serve(run: Run, workload, seed: int, seconds: float, reference: str,
          out_dir: Path) -> None:
    result = serve_mixed.run(ROOT, out_dir, workload.body(seed), reference,
                             seconds)
    run.metrics.update(result["metrics"])
    run.attempted += result["attempted"]
    run.failed += result["failed"]
    run.errors.extend(result["errors"])
    run.notes["runs_with_seq_inversions"] = result["runs_with_inversions"]


def measure(name: str, seed: int, seconds: float, trace: bool,
            out_dir: Path, pinned: dict) -> Run:
    workload = WORKLOADS[name]
    run = Run()
    reference = reference_sha256(workload, seed)
    if seed == pinned.get("seed"):
        expected = pinned["sha256"].get(name)
        run.pin_ok = reference == expected
        if not run.pin_ok:
            run.errors.append(
                f"report at seed {seed} is {reference[:12]}, pinned "
                f"{str(expected)[:12]} in {REFERENCE.name}"
            )
    run.notes["reference_sha256"] = reference
    if not isinstance(workload, ReplayWorkload):
        serve(run, workload, seed, seconds, reference, out_dir)
    elif trace:
        replay_per_layer(run, workload, seed, seconds, reference, out_dir)
    else:
        replay_end_to_end(run, workload, seed, seconds, reference)
    return run


def _git_head() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def pin() -> None:
    """Recompute every workload's report at the default seed into
    ``reference.json``; for a change that alters reports on purpose."""
    shas = {name: reference_sha256(workload, DEFAULT_SEED)
            for name, workload in WORKLOADS.items()}
    REFERENCE.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "sha256": shas}, indent=2) + "\n")
    for name, digest in shas.items():
        print(f"{name:20} {digest}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]),
                        help="measured window per workload; must equal "
                        "BENCHMARK.json run_seconds, which fixes it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 measures the per-layer metrics")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                        help="directory for results and span files")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite reference.json at the default seed")
    args = parser.parse_args(argv)
    if args.seconds != bench["run_seconds"]:
        # Both sides of a comparison must measure the same window.
        parser.error(f"--seconds must be {bench['run_seconds']}, the "
                     "run_seconds of BENCHMARK.json")
    if args.pin:
        pin()
        return 0
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    reported = [m["name"] for m in bench[kind]]
    pinned = json.loads(REFERENCE.read_text())
    # Temp files of this process and every child stay in the output dir.
    (args.out / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(args.out.resolve() / "tmp")
    names = [args.workload] if args.workload else list(WORKLOADS)
    environment = {"nproc": os.cpu_count(), "python": platform.python_version(),
                   "git": _git_head()}

    runs = {}
    for name in names:
        run = measure(name, args.seed, args.seconds, bool(args.trace),
                      args.out, pinned)
        unknown = sorted(set(run.metrics) - set(units))
        if unknown:
            raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
        values = {m: run.metrics.get(m, 0.0) for m in reported}
        print(f"# {name}  seed={args.seed}  seconds={args.seconds:g}  "
              f"trace={args.trace}  " +
              "  ".join(f"{k}={v}" for k, v in environment.items()))
        for metric in sorted(run.metrics, key=lambda m: (m not in reported, m)):
            print(f"  {metric:34} {run.metrics[metric]:14.6g} {units[metric]}")
        ratio = run.failed / run.attempted if run.attempted else 1.0
        print(f"  {'failed_ratio':34} {ratio:14.6g} fraction "
              f"({run.failed}/{run.attempted})")
        for key, note in run.notes.items():
            print(f"  {key}: {note}")
        for error in run.errors:
            print(f"  error: {error}")
        record = {
            "workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **environment,
            "correct": run.correct,
            "attempted": run.attempted, "failed": run.failed,
            "metrics": run.metrics, "notes": run.notes, "errors": run.errors,
        }
        (args.out / f"results-{name}.json").write_text(
            json.dumps(record, indent=2) + "\n")
        runs[name] = (run, values)

    single = len(runs) == 1
    print(json.dumps({
        "correct": all(r.correct for r, _ in runs.values()),
        "attempted": sum(r.attempted for r, _ in runs.values()),
        "failed": sum(r.failed for r, _ in runs.values()),
        "metrics": {
            (m if single else f"{name}.{m}"): {"value": v, "unit": units[m]}
            for name, (_, values) in runs.items() for m, v in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
