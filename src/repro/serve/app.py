"""The HTTP front-end: stdlib ``ThreadingHTTPServer`` + route table.

``repro serve`` turns the simulator into a long-running orchestration
service (the DataFlower premise: orchestration is a persistent service
reacting to data availability, not a batch script).  The surface is
deliberately small and fully documented in ``docs/serve.md``:

=======  =====================  ==========================================
method   path                   purpose
=======  =====================  ==========================================
GET      /healthz               liveness + job-state counters
GET      /metrics               Prometheus text exposition of the registry
GET      /dashboard             live telemetry dashboard (static HTML)
GET      /v1/apps               the app registry (``repro apps``)
GET      /v1/systems            the system registry (``repro systems``)
GET      /v1/policies           placement + shard policy registries
GET      /v1/runs               submission-ordered job listing (paginated)
POST     /v1/runs               submit a run (202 + job id)
GET      /v1/runs/<id>          job status + the merged report
GET      /v1/runs/<id>/events   NDJSON progress stream (per-cell events)
GET      /v1/runs/<id>/records  paginated merged request records
GET      /v1/workers            remote worker fleet snapshot
POST     /v1/workers            register a remote worker
POST     /v1/workers/<id>/heartbeat  worker liveness refresh
POST     /v1/cells/lease        lease the next queued cell (long poll)
POST     /v1/cells/<lease>/result    deliver a leased cell's outcome
=======  =====================  ==========================================

Dependency-free by design: :mod:`http.server` handles the transport,
one daemon thread per connection, and the shared
:class:`~repro.serve.jobs.JobStore` owns all cross-request state —
optionally backed by a journal directory (``repro serve --journal``)
whose per-run event logs let runs survive restarts and resume from
completed cells.
``tools/check_docs.py`` asserts every route in :data:`ROUTES` appears
in ``docs/serve.md``, so the table above cannot drift from the docs.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..metrics.report import render_json
from ..parallel.profiles import TenantConfig
from .jobs import AdmissionDenied, JobStore, RecordsUnavailable, UnknownJob
from .validation import BadRequest, parse_run_request
from .workers import (
    FleetCancelled,
    StaleLease,
    UnknownWorker,
    WorkerAuthError,
)

__all__ = ["ROUTES", "ReproServer", "create_server"]

#: Every route the service answers: ``(method, path pattern, summary)``.
#: ``tools/check_docs.py`` fails if a pattern here has no matching
#: section in ``docs/serve.md`` — the docs are part of the API.
ROUTES = [
    ("GET", "/healthz", "liveness and job-state counters"),
    ("GET", "/metrics", "Prometheus text exposition of the metrics registry"),
    ("GET", "/dashboard", "live telemetry dashboard (single static page)"),
    ("GET", "/v1/apps", "registered applications"),
    ("GET", "/v1/systems", "execution systems"),
    ("GET", "/v1/policies", "placement and shard policies"),
    ("GET", "/v1/runs", "submission-ordered job listing (paginated)"),
    ("POST", "/v1/runs", "submit a run"),
    ("GET", "/v1/runs/<id>", "job status plus the merged report"),
    ("GET", "/v1/runs/<id>/events", "NDJSON progress stream"),
    ("GET", "/v1/runs/<id>/records", "paginated merged request records"),
    ("GET", "/v1/workers", "remote worker fleet snapshot"),
    ("POST", "/v1/workers", "register a remote worker"),
    ("POST", "/v1/workers/<id>/heartbeat", "worker liveness refresh"),
    ("POST", "/v1/cells/lease", "lease the next queued cell (long poll)"),
    ("POST", "/v1/cells/<lease>/result", "deliver a leased cell's outcome"),
]

#: Largest accepted request body; a trace bigger than this belongs on
#: disk and in `repro replay`, not inline in one POST.
MAX_BODY_BYTES = 64 * 1024 * 1024

_RUN_PATH = re.compile(r"^/v1/runs/([^/]+)$")
_EVENTS_PATH = re.compile(r"^/v1/runs/([^/]+)/events$")
_RECORDS_PATH = re.compile(r"^/v1/runs/([^/]+)/records$")
_HEARTBEAT_PATH = re.compile(r"^/v1/workers/([^/]+)/heartbeat$")
_RESULT_PATH = re.compile(r"^/v1/cells/([^/]+)/result$")

#: Longest lease long-poll one HTTP request may hold a thread for.
MAX_LEASE_WAIT_S = 30.0

#: ``GET /v1/runs/<id>/records`` page-size ceiling; a client asking for
#: more gets clamped, keeping one response body bounded.
MAX_RECORDS_PAGE = 10_000


@lru_cache(maxsize=1)
def _registry_payloads() -> Tuple[list, list, dict]:
    """(apps, systems, policies) registry listings, JSON-ready.

    The registries are static for the process lifetime, and building
    the apps listing constructs every registered workflow — cache the
    whole table instead of rebuilding it per GET.  Handlers treat the
    cached payloads as read-only.
    """
    from ..apps import registered_apps
    from ..experiments.common import SYSTEM_CLASSES
    from ..parallel.policy import shard_policy_names
    from ..systems.placement import policy_names

    apps = []
    for spec in registered_apps():
        workflow = spec.build()
        apps.append(
            {
                "name": spec.short_name,
                "title": spec.title,
                "functions": len(workflow.functions),
                "default_input_bytes": spec.default_input_bytes,
                "default_fanout": spec.default_fanout,
                # The declared DAG, topologically ordered — the
                # dashboard's workflow view renders straight from this.
                "workflow": {
                    "entry": workflow.entry,
                    "functions": [
                        {
                            "name": name,
                            "edges": [
                                {
                                    "data": edge.dataname,
                                    "kind": edge.kind.name,
                                    "to": list(edge.destinations),
                                }
                                for edge in workflow.functions[name].edges
                            ],
                        }
                        for name in workflow.topological_order()
                    ],
                },
            }
        )
    systems = [
        {
            "name": name,
            "class": cls.__name__,
            "summary": (cls.__doc__ or "").strip().splitlines()[0],
        }
        for name, cls in SYSTEM_CLASSES.items()
    ]
    policies = {
        "placement": policy_names(),
        "shard": shard_policy_names(),
    }
    return apps, systems, policies


class _Handler(BaseHTTPRequestHandler):
    """Route dispatch; all state lives on ``self.server`` (the store)."""

    server: "ReproServer"
    # HTTP/1.0 keeps the NDJSON stream simple: no Content-Length means
    # "read until the server closes the connection".
    protocol_version = "HTTP/1.0"

    # -- plumbing -------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    def _send_json(
        self,
        status: int,
        payload: object,
        headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        body = (render_json(payload) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self,
        status: int,
        message: str,
        headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        self._send_json(status, {"error": message}, headers=headers)

    def _query(self) -> dict:
        """Last-wins flat view of the request's query string."""
        return {
            key: values[-1]
            for key, values in parse_qs(urlsplit(self.path).query).items()
        }

    @staticmethod
    def _query_int(query: dict, key: str, minimum: int) -> Optional[int]:
        value = query.get(key)
        if value is None:
            return None
        try:
            parsed = int(value)
        except ValueError:
            raise BadRequest(
                f"query parameter {key!r} must be an integer, got {value!r}"
            ) from None
        if parsed < minimum:
            raise BadRequest(
                f"query parameter {key!r} must be >= {minimum}, got {parsed}"
            )
        return parsed

    # -- GET ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        try:
            if path == "/healthz":
                store = self.server.store
                counts = store.counts()
                # Load balancers shed on ready=false *before* clients
                # hit the 429 path: the flag flips as soon as the run
                # queue saturates (docs/robustness.md).
                ready = (
                    store.max_queued is None
                    or counts["queued"] < store.max_queued
                )
                return self._send_json(
                    200,
                    {
                        "status": "ok",
                        "ready": ready,
                        "jobs": counts,
                        "workers": store.workers,
                        "queued": counts["queued"],
                        "rejected": store.rejected,
                        "max_queued": store.max_queued,
                    },
                )
            if path in ("/v1/apps", "/v1/systems", "/v1/policies"):
                apps, systems, policies = _registry_payloads()
                payload = {
                    "/v1/apps": {"apps": apps},
                    "/v1/systems": {"systems": systems},
                    "/v1/policies": {"policies": policies},
                }[path]
                return self._send_json(200, payload)
            if path == "/metrics":
                store = self.server.store
                store.refresh_gauges()
                body = store.metrics.render_prometheus().encode("utf-8")
                self.send_response(200)
                self.send_header(
                    "Content-Type",
                    "text/plain; version=0.0.4; charset=utf-8",
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                return None
            if path == "/dashboard":
                if not self.server.dashboard:
                    return self._send_error_json(
                        404, "dashboard disabled (--no-dashboard)"
                    )
                from .dashboard import dashboard_html

                body = dashboard_html().encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "text/html; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                return None
            if path == "/v1/runs":
                query = self._query()
                limit = self._query_int(query, "limit", minimum=1)
                runs, next_cursor = self.server.store.list_page(
                    cursor=query.get("cursor"), limit=limit
                )
                return self._send_json(
                    200, {"runs": runs, "next_cursor": next_cursor}
                )
            match = _EVENTS_PATH.match(path)
            if match:
                return self._stream_events(match.group(1))
            match = _RECORDS_PATH.match(path)
            if match:
                query = self._query()
                cursor = self._query_int(query, "cursor", minimum=0) or 0
                limit = self._query_int(query, "limit", minimum=1)
                limit = min(limit or 1000, MAX_RECORDS_PAGE)
                return self._send_json(
                    200,
                    self.server.store.records_page(
                        match.group(1), cursor=cursor, limit=limit
                    ),
                )
            if path == "/v1/workers":
                return self._send_json(
                    200, self.server.store.fleet.snapshot()
                )
            match = _RUN_PATH.match(path)
            if match:
                return self._send_json(
                    200, self.server.store.snapshot(match.group(1))
                )
            self._send_error_json(404, f"no such path: {path}")
        except BadRequest as exc:
            self._send_error_json(400, str(exc))
        except RecordsUnavailable as exc:
            self._send_error_json(409, str(exc))
        except UnknownJob as exc:
            self._send_error_json(404, f"no such run: {exc.args[0]}")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response

    def _stream_events(self, job_id: str) -> None:
        """``GET /v1/runs/<id>/events``: one envelope per NDJSON line.

        The full history replays first (a late subscriber misses
        nothing), then lines follow live until the job is terminal.
        The response carries no Content-Length — end-of-stream is the
        connection closing.  While the run is quiet, a ``: keepalive``
        comment line goes out every ``keepalive_s`` so followers can
        distinguish an idle run from a dead connection (NDJSON
        consumers skip lines starting with ``:``).
        """
        store = self.server.store
        follower = store.follow_lines(
            job_id, keepalive_s=self.server.keepalive_s
        )
        try:
            # Resolving the run first turns an unknown id into a 404.
            first = next(follower, None)
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.end_headers()
            if first is not None:
                self.wfile.write(first)
                self.wfile.flush()
            # The run's log lines go out as stored: every event is
            # serialized once, however many followers stream it.
            for line in follower:
                self.wfile.write(b": keepalive\n" if line is None else line)
                self.wfile.flush()
        finally:
            follower.close()  # release the log file on a dropped client

    # -- POST -----------------------------------------------------------------

    def _read_body(self) -> Optional[dict]:
        """The POST body as a JSON object (``{}`` for an empty body).

        Returns ``None`` after answering the error itself — the caller
        just bails out.
        """
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._send_error_json(
                411, "a POST here needs a Content-Length body"
            )
            return None
        if length < 0:
            # rfile.read(-1) would block until client EOF, pinning
            # this connection thread forever.
            self._send_error_json(400, f"invalid Content-Length: {length}")
            return None
        if length > MAX_BODY_BYTES:
            self._send_error_json(
                413,
                f"request body over {MAX_BODY_BYTES} bytes; replay "
                f"large traces from disk via the CLI",
            )
            return None
        raw = self.rfile.read(length)
        if not raw:
            return {}
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            self._send_error_json(400, f"invalid JSON body: {exc}")
            return None
        if not isinstance(payload, dict):
            self._send_error_json(
                400,
                f"request body must be a JSON object, got "
                f"{type(payload).__name__}",
            )
            return None
        return payload

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        try:
            if path == "/v1/runs":
                return self._post_run()
            if path == "/v1/workers":
                return self._post_register()
            if path == "/v1/cells/lease":
                return self._post_lease()
            match = _HEARTBEAT_PATH.match(path)
            if match:
                return self._post_heartbeat(match.group(1))
            match = _RESULT_PATH.match(path)
            if match:
                return self._post_result(match.group(1))
            self._send_error_json(404, f"no such path: {path}")
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _post_run(self) -> None:
        payload = self._read_body()
        if payload is None:
            return
        try:
            request = parse_run_request(
                payload, self.server.default_tenant_config
            )
        except BadRequest as exc:
            return self._send_error_json(400, str(exc))
        try:
            job_id = self.server.store.submit(request)
        except AdmissionDenied as exc:
            # 429 + Retry-After is the documented backpressure
            # contract (docs/robustness.md); ServeClient honors it.
            retry_after = max(1, int(round(exc.retry_after_s)))
            return self._send_error_json(
                429, str(exc),
                headers=(("Retry-After", str(retry_after)),),
            )
        self._send_json(
            202,
            {
                "id": job_id,
                "status": "queued",
                "url": f"/v1/runs/{job_id}",
                "events_url": f"/v1/runs/{job_id}/events",
            },
        )

    # -- remote worker fleet (docs/workers.md) --------------------------------

    def _post_register(self) -> None:
        """``POST /v1/workers``: admit a worker into the fleet.

        The response carries the worker's per-registration ``secret``;
        every later fleet POST must echo it or is refused 403
        (``docs/workers.md``, "Trust model").
        """
        payload = self._read_body()
        if payload is None:
            return
        name = payload.get("name")
        if name is not None and not isinstance(name, str):
            return self._send_error_json(
                400, f"'name' must be a string, got {type(name).__name__}"
            )
        try:
            grant = self.server.store.fleet.register(name)
        except FleetCancelled as exc:
            return self._send_error_json(503, str(exc))
        self._send_json(200, grant)

    def _check_secret(self, worker_id: str, payload: dict) -> bool:
        """Enforce the per-worker secret on a fleet POST.

        Answers the 400/403 itself and returns False when the request
        must not proceed.  The check lives at the HTTP layer: in-process
        registry users (tests, the docs' executable block) are inside
        the trust boundary already.
        """
        secret = payload.get("secret")
        if secret is not None and not isinstance(secret, str):
            self._send_error_json(
                400,
                f"'secret' must be a string, got {type(secret).__name__}",
            )
            return False
        try:
            self.server.store.fleet.verify_secret(worker_id, secret)
        except WorkerAuthError as exc:
            self._send_error_json(403, str(exc))
            return False
        return True

    def _post_heartbeat(self, worker_id: str) -> None:
        """``POST /v1/workers/<id>/heartbeat``: refresh liveness."""
        payload = self._read_body()
        if payload is None:
            return
        if not self._check_secret(worker_id, payload):
            return
        try:
            self._send_json(
                200, self.server.store.fleet.heartbeat(worker_id)
            )
        except UnknownWorker as exc:
            self._send_error_json(404, str(exc))

    def _post_lease(self) -> None:
        """``POST /v1/cells/lease``: long-poll for the next queued cell.

        Answers 200 with the lease grant (lease id, run id, cell key,
        attempt number, and the run's validated request body), or 204
        when ``wait_s`` elapses with nothing to do.
        """
        payload = self._read_body()
        if payload is None:
            return
        worker_id = payload.get("worker")
        if not isinstance(worker_id, str):
            return self._send_error_json(
                400, "'worker' (the registered worker id) is required"
            )
        wait_s = payload.get("wait_s", 0.0)
        if isinstance(wait_s, bool) or not isinstance(wait_s, (int, float)):
            return self._send_error_json(
                400, f"'wait_s' must be a number, got {wait_s!r}"
            )
        wait_s = max(0.0, min(float(wait_s), MAX_LEASE_WAIT_S))
        if not self._check_secret(worker_id, payload):
            return
        try:
            grant = self.server.store.fleet.lease(worker_id, wait_s=wait_s)
        except UnknownWorker as exc:
            return self._send_error_json(404, str(exc))
        if grant is None:
            self.send_response(204)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        self._send_json(200, grant)

    def _post_result(self, lease_id: str) -> None:
        """``POST /v1/cells/<lease>/result``: deliver a cell's outcome.

        The body carries the worker id plus exactly one of ``result``
        (a :meth:`~repro.parallel.engine.CellResult.to_payload` object)
        or ``error`` (``{"kind", "message"}``).  A lease that already
        expired answers 409 — the cell was re-leased, and a second
        result would break the exactly-once fold.
        """
        payload = self._read_body()
        if payload is None:
            return
        worker_id = payload.get("worker")
        if not isinstance(worker_id, str):
            return self._send_error_json(
                400, "'worker' (the registered worker id) is required"
            )
        result = payload.get("result")
        error = payload.get("error")
        if (result is None) == (error is None):
            return self._send_error_json(
                400, "exactly one of 'result' or 'error' is required"
            )
        if result is not None and not isinstance(result, dict):
            return self._send_error_json(
                400, f"'result' must be an object, got "
                     f"{type(result).__name__}"
            )
        if error is not None and not isinstance(error, dict):
            return self._send_error_json(
                400, f"'error' must be an object, got "
                     f"{type(error).__name__}"
            )
        if not self._check_secret(worker_id, payload):
            return
        try:
            ack = self.server.store.fleet.complete(
                lease_id, worker_id, result=result, error=error
            )
        except StaleLease as exc:
            return self._send_error_json(409, str(exc))
        except (KeyError, TypeError, ValueError) as exc:
            return self._send_error_json(400, f"bad result payload: {exc}")
        self._send_json(200, ack)


class ReproServer(ThreadingHTTPServer):
    """The service: transport + the shared job store."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        store: JobStore,
        default_tenant_config: Optional[TenantConfig] = None,
        quiet: bool = False,
        dashboard: bool = True,
        keepalive_s: Optional[float] = 15.0,
    ) -> None:
        super().__init__(address, _Handler)
        self.store = store
        self.default_tenant_config = default_tenant_config
        self.quiet = quiet
        self.dashboard = dashboard
        self.keepalive_s = keepalive_s

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        """Stop serving and join the job workers (idempotent)."""
        self.shutdown()
        self.server_close()
        self.store.close()


def create_server(
    host: str = "127.0.0.1",
    port: int = 8080,
    workers: int = 2,
    default_tenant_config: Optional[TenantConfig] = None,
    quiet: bool = False,
    max_finished: int = 256,
    journal: Optional[str] = None,
    dashboard: bool = True,
    keepalive_s: Optional[float] = 15.0,
    max_queued: Optional[int] = None,
    lease_timeout_s: float = 30.0,
    heartbeat_timeout_s: float = 90.0,
) -> ReproServer:
    """Build a ready-to-serve :class:`ReproServer` (port 0 = ephemeral).

    The caller drives it: ``serve_forever()`` in the foreground (the
    CLI) or a background thread (tests), then :meth:`ReproServer.close`.
    ``max_finished`` bounds how many terminal jobs stay queryable
    (oldest evicted first) so the service's memory never grows with
    total jobs ever submitted.

    ``journal`` is the journal directory (``--journal`` on the CLI),
    where each run's event log is its journal: the store replays it
    before serving — retained finished runs restore read-only,
    unfinished runs resume from their logged cells — and every later
    submission, cell completion, and terminal status is fsync'd to the
    run's log (``docs/serve.md``).

    ``dashboard=False`` turns ``GET /dashboard`` into a 404
    (``--no-dashboard`` on the CLI) for deployments that want the API
    surface only.  ``keepalive_s`` is the idle interval between
    ``: keepalive`` comment lines on event streams (``None`` disables
    them).

    Each run's event stream is one append-only NDJSON file, in the
    journal directory or in the store's temp directory, that every event
    follower replays, so a huge trace streams without growing the
    server's resident memory per event (``docs/serve.md``).

    ``max_queued`` (``--max-queued`` on the CLI; ``None`` = unbounded)
    is the admission-control queue-depth bound: a submission arriving
    with that many jobs already queued is refused with ``429`` +
    ``Retry-After``, and ``/healthz`` reports ``ready: false`` until
    the queue drains (``docs/robustness.md``).

    ``lease_timeout_s`` / ``heartbeat_timeout_s`` (``--lease-timeout-s``
    / ``--heartbeat-timeout-s`` on the CLI) are the remote worker
    fleet's timing contract: how long a leased cell may run before it
    is reclaimed and requeued, and how long a worker may stay silent
    before it is evicted (``docs/workers.md``).
    """
    return ReproServer(
        (host, port),
        JobStore(
            workers=workers,
            max_finished=max_finished,
            journal=journal,
            default_tenant_config=default_tenant_config,
            max_queued=max_queued,
            lease_timeout_s=lease_timeout_s,
            heartbeat_timeout_s=heartbeat_timeout_s,
        ),
        default_tenant_config=default_tenant_config,
        quiet=quiet,
        dashboard=dashboard,
        keepalive_s=keepalive_s,
    )
