"""``repro serve``: the long-running HTTP orchestration service.

DataFlower's thesis is that workflow orchestration should be a
persistent service reacting to data availability — this package is that
front-end for the reproduction.  ``POST /v1/runs`` submits a workload
(inline trace or synthesis parameters, optional inline tenant
profiles), a worker pool executes it through the replay engine, and
clients poll ``GET /v1/runs/<id>`` for the deterministic merged report
or follow ``GET /v1/runs/<id>/events`` for an NDJSON progress stream
fed by the engine's per-cell completion hook.

Stdlib only (:mod:`http.server`); the REST surface is specified in
``docs/serve.md`` and enforced by ``tools/check_docs.py``.
"""

from .app import ROUTES, ReproServer, create_server
from .client import ServeClient, ServeError
from .jobs import Job, JobStore, UnknownJob
from .validation import BadRequest, RunRequest, parse_run_request
from .workers import (
    FleetCancelled,
    StaleLease,
    UnknownWorker,
    WorkerRegistry,
)

__all__ = [
    "BadRequest",
    "FleetCancelled",
    "Job",
    "JobStore",
    "ROUTES",
    "ReproServer",
    "RunRequest",
    "ServeClient",
    "ServeError",
    "StaleLease",
    "UnknownJob",
    "UnknownWorker",
    "WorkerRegistry",
    "create_server",
    "parse_run_request",
]
