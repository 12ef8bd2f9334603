"""``repro worker`` — a remote cell-replay worker (stdlib HTTP loop).

One worker process serves one control plane (``repro serve``).  The
loop is deliberately boring:

1. **Register** — ``POST /v1/workers`` returns a worker id, a
   per-worker ``secret`` every later call must echo (the control
   plane answers 403 otherwise), and the fleet's timing contract
   (lease and heartbeat timeouts).
2. **Long-poll** — ``POST /v1/cells/lease`` blocks server-side up to
   ``wait_s`` for a cell; a 204 means "nothing to do, ask again".
   Every poll refreshes the worker's liveness, and a background
   heartbeat thread covers the gap while a long cell replay is
   running.
3. **Execute** — the grant carries the run's validated ``POST
   /v1/runs`` body verbatim; the worker re-validates it through the
   same :func:`~repro.serve.validation.parse_run_request` the control
   plane used, re-derives the cell sub-trace with the same shard
   policy, and replays it via the engine's resilient per-attempt entry
   point.  ``cell_seed`` is a pure function of (spec, cell), so the
   result is byte-identical no matter which worker runs it, how many
   times, or in what order.
4. **Report** — ``POST /v1/cells/<lease>/result`` delivers the
   :meth:`~repro.parallel.engine.CellResult.to_payload` round-trip, or
   a classified ``error`` (the control plane charges the attempt and
   requeues within the retry budget).  A 409 means the lease expired
   while we were working — the cell was already re-leased, so the
   outcome is dropped and the loop moves on (exactly-once folding is
   the control plane's invariant, not ours).

Injected ``kill`` faults degrade to
:class:`~repro.parallel.resilience.WorkerCrashError` here: the fault
plan is re-parsed from the run payload inside this process, so the
plan's parent-pid guard sees its own pid and raises instead of
SIGKILLing — remote runs exercise the deterministic retry path without
fault plans killing fleet members.  *Real* worker death (the chaos
harness's SIGKILL, an OOM kill) is what the lease deadline exists for.

See ``docs/workers.md`` for the protocol and a deployment walkthrough.
"""

from __future__ import annotations

import json
import signal
import threading
import urllib.error
import urllib.request
from typing import Optional

from .metrics.report import render_json
from .parallel.engine import _failure_message, _replay_cell_task
from .parallel.policy import get_shard_policy
from .parallel.resilience import RetryPolicy, classify_failure
from .serve.validation import parse_run_request

__all__ = ["WorkerError", "run_worker"]

#: Server-side long-poll length we ask for; bounded by the server's own
#: MAX_LEASE_WAIT_S cap either way.
DEFAULT_POLL_S = 20.0

#: Consecutive transport failures tolerated before the worker exits
#: non-zero (the control plane is gone, not busy).
MAX_TRANSPORT_FAILURES = 5


class WorkerError(RuntimeError):
    """The worker cannot continue (control plane unreachable or hostile)."""


class _Client:
    """Tiny urllib wrapper: JSON in/out, status-aware."""

    def __init__(self, base_url: str) -> None:
        self.base_url = base_url.rstrip("/")

    def post(
        self, path: str, payload: dict, timeout_s: float = 60.0
    ) -> tuple:
        """(status, parsed body or None) for one POST.

        The body is compact JSON: ``indent=None`` lets ``json`` use its
        C encoder, which matters for cell results, the largest bodies.
        """
        body = render_json(payload, indent=None).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + path,
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout_s) as resp:
                raw = resp.read()
                status = resp.status
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            status = exc.code
        if not raw:
            return status, None
        try:
            return status, json.loads(raw)
        except json.JSONDecodeError:
            return status, None


class _Heartbeat(threading.Thread):
    """Keep the worker live while a long cell replay blocks the loop."""

    def __init__(
        self, client: _Client, worker_id: str, secret: str, interval_s: float
    ) -> None:
        super().__init__(name="repro-worker-heartbeat", daemon=True)
        self.client = client
        self.worker_id = worker_id
        self.secret = secret
        self.interval_s = interval_s
        self.stop_event = threading.Event()

    def run(self) -> None:
        while not self.stop_event.wait(self.interval_s):
            try:
                self.client.post(
                    f"/v1/workers/{self.worker_id}/heartbeat",
                    {"secret": self.secret},
                    timeout_s=10.0,
                )
            except OSError:
                # Transient transport trouble; the main loop's poll is
                # the authoritative liveness/exit signal.
                pass


def _execute_grant(grant: dict) -> dict:
    """Replay one leased cell; returns the result-POST body fields.

    Any exception the replay raises — injected faults included —
    classifies into the deterministic failure taxonomy and reports as
    an ``error`` outcome; the control plane owns the retry budget.
    """
    try:
        request = parse_run_request(grant["request"])
        key = grant["cell"]
        cells = dict(get_shard_policy("tenant").split(request.trace))
        if key not in cells:
            raise KeyError(
                f"cell {key!r} is not a cell of the leased run's trace"
            )
        result = _replay_cell_task(
            request.spec,
            key,
            cells[key],
            int(grant.get("attempt", 1)),
            request.retry if request.retry is not None else RetryPolicy(),
            request.faults,
            # The lease deadline clock started at grant time: a backoff
            # sleep here would burn lease budget (and with a short
            # --lease-timeout-s could expire *every* retry before its
            # result lands).  The requeue round-trip through the
            # control plane already spaced the attempts.
            backoff=False,
        )
        return {"result": result.to_payload()}
    except Exception as exc:  # noqa: BLE001 - classified, never fatal
        return {
            "error": {
                "kind": classify_failure(exc),
                "message": _failure_message(exc),
            }
        }


def run_worker(
    server: str,
    name: Optional[str] = None,
    poll_s: float = DEFAULT_POLL_S,
    max_cells: Optional[int] = None,
    quiet: bool = False,
) -> int:
    """The ``repro worker`` loop; returns a process exit code.

    ``max_cells`` bounds how many cells this worker executes before
    exiting cleanly (tests and drain-style deployments); ``None`` runs
    until SIGTERM/SIGINT.
    """
    client = _Client(server)
    stop = threading.Event()

    def _graceful(signum, frame):  # noqa: ARG001 - signal API
        stop.set()

    try:
        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)
    except ValueError:
        pass  # not the main thread (embedded in tests)

    def _register() -> tuple:
        status, body = client.post(
            "/v1/workers", {} if name is None else {"name": name},
            timeout_s=10.0,
        )
        if status != 200 or not isinstance(body, dict):
            raise WorkerError(
                f"registration failed: HTTP {status} from {server}"
            )
        return (
            body["worker"],
            str(body.get("secret", "")),
            float(body["heartbeat_timeout_s"]),
        )

    try:
        worker_id, secret, heartbeat_timeout_s = _register()
    except (OSError, WorkerError) as exc:
        print(f"repro worker: {exc}", flush=True)
        return 1
    if not quiet:
        print(f"repro worker {worker_id} serving {server}", flush=True)
    heartbeat = _Heartbeat(
        client, worker_id, secret,
        interval_s=max(0.5, heartbeat_timeout_s / 3.0),
    )
    heartbeat.start()
    executed = 0
    transport_failures = 0
    try:
        while not stop.is_set():
            if max_cells is not None and executed >= max_cells:
                break
            try:
                status, grant = client.post(
                    "/v1/cells/lease",
                    {"worker": worker_id, "secret": secret,
                     "wait_s": poll_s},
                    timeout_s=poll_s + 30.0,
                )
            except OSError:
                transport_failures += 1
                if transport_failures >= MAX_TRANSPORT_FAILURES:
                    print(
                        f"repro worker {worker_id}: control plane "
                        f"unreachable at {server}; giving up",
                        flush=True,
                    )
                    return 1
                if stop.wait(min(2.0 ** transport_failures * 0.1, 2.0)):
                    break
                continue
            transport_failures = 0
            if status == 404:
                # Evicted (e.g. a long pause outlived the heartbeat
                # window): re-register and carry on.
                try:
                    worker_id, secret, _ = _register()
                    heartbeat.worker_id = worker_id
                    heartbeat.secret = secret
                    if not quiet:
                        print(
                            f"repro worker re-registered as {worker_id}",
                            flush=True,
                        )
                except (OSError, WorkerError) as exc:
                    print(f"repro worker: {exc}", flush=True)
                    return 1
                continue
            if status != 200 or not isinstance(grant, dict):
                continue  # 204: nothing to do yet
            outcome = _execute_grant(grant)
            executed += 1
            if not quiet:
                verdict = "ok" if "result" in outcome else (
                    outcome["error"]["kind"]
                )
                print(
                    f"repro worker {worker_id}: cell {grant['cell']!r} "
                    f"attempt {grant.get('attempt', 1)} -> {verdict}",
                    flush=True,
                )
            body = {"worker": worker_id, "secret": secret}
            body.update(outcome)
            try:
                status, ack = client.post(
                    f"/v1/cells/{grant['lease']}/result", body,
                    timeout_s=60.0,
                )
            except OSError:
                continue  # lease will expire; the cell re-leases
            if status == 409 and not quiet:
                # The lease expired while we replayed: the cell was
                # re-leased elsewhere and our outcome is dropped.
                print(
                    f"repro worker {worker_id}: lease for "
                    f"{grant['cell']!r} expired before the result landed",
                    flush=True,
                )
    finally:
        heartbeat.stop_event.set()
    if not quiet:
        print(
            f"repro worker {worker_id} exiting ({executed} cell(s) "
            f"executed)",
            flush=True,
        )
    return 0
