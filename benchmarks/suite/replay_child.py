"""One replay repeat in a fresh process: the unit the replay workloads time.

``run.py`` starts this script once per repeat, so imports, trace
construction and the peak RSS high-water mark belong to one repeat
alone.  Its only argument is a JSON object::

    {"workload": "replay-dataflower", "seed": 7, "workers": 1,
     "launched_at": <time.monotonic() at launch>,
     "traced": false, "trace_out": null}

It prints one JSON line: the set-up time (launch to the replay call),
the replay wall time (replay call to rendered canonical report), the
report's SHA-256 and the process's peak RSS.  With ``"traced": true``
it replays twice more: once with the counting and span wrappers of
``layers.py`` installed, once under cProfile, and adds the per-layer
numbers; spans go to ``trace_out``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.metrics.report import render_json  # noqa: E402
from repro.parallel.engine import max_rss_mb, run_parallel_replay  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _traced(trace, spec, trace_out: str) -> dict:
    """The instrumented pass, then the profiled pass."""
    import cProfile
    import pstats

    import layers

    cells = []

    def on_cell(cell) -> None:
        # The measured ``wall_s`` is written as 0.0, so the size is a
        # count that repeats exactly instead of varying with its digits.
        cells.append(len(json.dumps(dict(cell.to_payload(), wall_s=0.0))))

    instrumentation = layers.Instrumentation()
    instrumentation.install()
    try:
        start = time.monotonic()
        with instrumentation.span("replay"):
            result = run_parallel_replay(trace, spec, on_cell=on_cell)
            with instrumentation.span("render"):
                text = render_json(result.to_dict())
        traced_wall_s = time.monotonic() - start
    finally:
        instrumentation.uninstall()
    Path(trace_out).write_text(json.dumps(instrumentation.spans) + "\n")

    profile = cProfile.Profile()
    profile.enable()
    profiled = render_json(run_parallel_replay(trace, spec).to_dict())
    profile.disable()
    shares = layers.self_time_by_layer(pstats.Stats(profile).stats)

    requests = result.offered
    metrics = {
        metric: count / requests
        for metric, count in instrumentation.counts.items()
    }
    metrics["cluster.flows_per_request"] = instrumentation.flows / requests
    for layer in ("sim", "cluster", "core", "systems", "workflow",
                  "loadgen", "metrics"):
        metrics[f"{layer}.self_share"] = shares.get(layer, 0.0)
    metrics["parallel.build_setup_s"] = instrumentation.seconds("build_setup")
    metrics["parallel.sim_s"] = instrumentation.seconds("run_trace")
    metrics["parallel.fold_s"] = instrumentation.seconds("fold")
    metrics["parallel.finalize_s"] = instrumentation.seconds("finalize")
    metrics["parallel.cell_payload_kb"] = sum(cells) / len(cells) / 1024.0
    metrics["metrics.render_s"] = instrumentation.seconds("render")
    return {
        "traced_wall_s": traced_wall_s,
        "traced_sha256": [_sha256(text), _sha256(profiled)],
        "layers": metrics,
    }


def main() -> None:
    args = json.loads(sys.argv[1])
    workload = WORKLOADS[args["workload"]]
    trace = workload.trace(args["seed"])
    spec = workload.spec(args["seed"])
    workers = args["workers"]
    started = time.monotonic()
    result = run_parallel_replay(trace, spec, shards=workers, workers=workers)
    text = render_json(result.to_dict())
    wall_s = time.monotonic() - started
    out = {
        "setup_s": started - args["launched_at"],
        "wall_s": wall_s,
        "offered": result.offered,
        "sha256": _sha256(text),
        "rss_mb": max_rss_mb(),
        "execute_s": result.phase_wall_s["execute"],
        "cell_busy_s": sum(result.cell_wall_s.values()),
    }
    if args["traced"]:
        out.update(_traced(trace, spec, args["trace_out"]))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
