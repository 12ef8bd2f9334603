"""An in-process remote fleet: the third executor for conformance tests.

:func:`fleet_replay` replays a trace through the real lease protocol —
``WorkerRegistry.submit`` → ``lease`` → ``complete`` → ``results`` —
with worker threads standing in for ``repro worker`` processes, and
folds the outcomes through the engine's one fold, exactly as ``repro
serve --workers remote`` does.  Each worker replays a leased cell via
the engine's per-attempt entry point and completes it with a
JSON-round-tripped ``to_payload`` (what crosses the wire), or with the
classified error a real worker reports when the attempt raises — so
injected faults are charged and requeued by the control plane.
"""

import json
import threading

from repro.parallel import RetryPolicy, get_shard_policy
from repro.parallel.engine import _failure_message, _replay_cell_task, replay
from repro.parallel.resilience import classify_failure
from repro.serve.workers import (
    FleetCancelled,
    StaleLease,
    UnknownWorker,
    WorkerRegistry,
)


def fleet_replay(
    trace, spec, workers, retry=None, fault_plan=None, metrics=None,
    registry=None, **fold,
):
    """``replay`` of ``trace`` on ``workers`` in-process fleet workers.

    ``registry`` (default: a fresh one) lets a test inspect the fleet
    after the call; ``fold`` passes through to the engine's fold
    (``on_cell``, ``completed_cells``, ``on_cell_failure``).
    """
    retry = retry or RetryPolicy()
    if registry is None:
        registry = WorkerRegistry(metrics=metrics)
    cells = dict(get_shard_policy("tenant").split(trace))

    def worker_loop(job):
        worker_id = registry.register()["worker"]
        while True:
            try:
                grant = registry.lease(worker_id, wait_s=0.2)
            except (UnknownWorker, FleetCancelled):
                return
            if grant is None:
                if job.done or job.cancelled:
                    return
                continue
            try:
                result = _replay_cell_task(
                    spec, grant["cell"], cells[grant["cell"]],
                    grant["attempt"], retry, fault_plan, backoff=False,
                )
                outcome = {
                    "result": json.loads(json.dumps(result.to_payload()))
                }
            except Exception as exc:  # noqa: BLE001 - reported, like a worker
                outcome = {"error": {
                    "kind": classify_failure(exc),
                    "message": _failure_message(exc),
                }}
            try:
                registry.complete(grant["lease"], worker_id, **outcome)
            except StaleLease:
                continue

    def execute(pending):
        job = registry.submit(
            "job-test", {}, [key for key, _ in pending], retry=retry
        )
        threads = [
            threading.Thread(target=worker_loop, args=(job,), daemon=True)
            for _ in range(workers)
        ]
        for thread in threads:
            thread.start()
        try:
            yield from registry.results(job)
        finally:
            registry.finish(job)
            for thread in threads:
                thread.join(timeout=30)

    return replay(trace, spec, execute, metrics=metrics, **fold)
