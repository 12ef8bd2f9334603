"""Cross-engine conformance suite for the remote worker fleet.

The control-plane split's acceptance criteria, proven end to end:

- **Byte-identity matrix** — the same trace replayed by the local
  serial executor, the local work-stealing pool (2/4 workers), and the
  remote fleet (1/2/4 in-process workers speaking the real
  lease/complete protocol, results JSON-round-tripped like the wire
  does — ``fleet_harness.py``) produces ONE SHA-256 over the rendered
  report.
- **Lease lifecycle under a fake clock** — expiry, requeue with a
  charged attempt, retry-budget exhaustion into a ``lease-expired``
  cell failure, stale-result rejection, and dead-worker eviction, all
  driven by ``WorkerRegistry(clock=...)`` + ``expire(now)`` with zero
  sleeps.
- **Chaos** — a real ``repro serve --journal`` control plane with two
  real ``repro worker`` subprocesses, one SIGKILLed while it provably
  holds a lease: the lease expires, the survivor re-leases the cell,
  and the finished report is byte-identical to an uninterrupted local
  run with every cell journaled exactly once.

All waiting is predicate-polling (`_await`) or blocking on the fleet's
own result iterator — never bare sleeps standing in for synchronization
(the ``tests/test_serve_recovery.py`` discipline).
"""

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.loadgen.trace import synthesize_trace
from repro.metrics.report import render_json
from repro.metrics.telemetry import MetricsRegistry
from repro.parallel import (
    CellFailedError,
    FaultSpec,
    HostFaultPlan,
    ReplaySpec,
    RetryPolicy,
    run_parallel_replay,
)
from repro.parallel.engine import CellFailure
from repro.serve.jobs import JobStore
from repro.serve.validation import BadRequest, parse_run_request
from repro.serve.workers import (
    FleetCancelled,
    StaleLease,
    UnknownWorker,
    WorkerAuthError,
    WorkerRegistry,
)
from repro.worker import _execute_grant

from fleet_harness import fleet_replay

ROOT = Path(__file__).resolve().parent.parent

_LISTENING = re.compile(r"listening on (http://[0-9.]+:\d+)")
_WORKER_BANNER = re.compile(r"repro worker (w-\d+) serving")


def _sha(report_text):
    return hashlib.sha256(report_text.encode("utf-8")).hexdigest()


def _await(predicate, timeout_s, what):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value is not None:
            return value
        time.sleep(0.02)
    raise AssertionError(f"timed out after {timeout_s}s waiting for {what}")


def _fleet_report(trace, spec, worker_count, metrics=None):
    return render_json(
        fleet_replay(trace, spec, worker_count, metrics=metrics).to_dict()
    )


def _conformance_trace(tenants=6, duration_s=30.0, mean_rpm=60.0, seed=5):
    return synthesize_trace(
        tenants=tenants, duration_s=duration_s, mean_rpm=mean_rpm, seed=seed
    )


def test_fleet_pool_serial_agree_byte_for_byte():
    """The headline matrix: the local serial executor, the local pool x
    worker counts, and the remote fleet x worker counts — one SHA-256."""
    trace = _conformance_trace()
    spec = ReplaySpec(default_app="wc", seed=7)
    hashes = {}
    for workers in (1, 2, 4):
        local = run_parallel_replay(trace, spec, workers=workers)
        hashes[f"local/workers={workers}"] = _sha(
            render_json(local.to_dict())
        )
    for workers in (1, 2, 4):
        hashes[f"fleet/workers={workers}"] = _sha(
            _fleet_report(trace, spec, workers)
        )
    assert len(set(hashes.values())) == 1, hashes


def test_fleet_fold_counts_cells_into_metrics():
    trace = _conformance_trace(tenants=3, duration_s=10.0, mean_rpm=40.0)
    spec = ReplaySpec(default_app="wc", seed=3)
    metrics = MetricsRegistry()
    _fleet_report(trace, spec, 2, metrics=metrics)
    assert metrics.counter_total("repro_leases_granted_total") == 3
    assert metrics.counter_total("repro_lease_results_total") == 3
    assert metrics.counter_total("repro_cells_completed_total") == 3


def test_aborted_fleet_fold_releases_every_cell():
    """A fleet fold that aborts — an exhausted cell under "fail", or an
    on_cell hook that raises — leaves none of the run's cells queued or
    leased in the registry."""
    trace = _conformance_trace(tenants=4, duration_s=10.0, mean_rpm=40.0)
    spec = ReplaySpec(default_app="wc", seed=3)
    poison = HostFaultPlan(
        faults=(FaultSpec(kind="poison", cell="tenant2", attempt=0),)
    )

    def hook(cell):
        raise RuntimeError("observer failed")

    aborts = [
        (CellFailedError, dict(
            retry=RetryPolicy(max_attempts=1), fault_plan=poison,
        )),
        (RuntimeError, dict(on_cell=hook)),
    ]
    for error, kwargs in aborts:
        registry = WorkerRegistry()
        with pytest.raises(error):
            fleet_replay(trace, spec, 2, registry=registry, **kwargs)
        snapshot = registry.snapshot()
        assert snapshot["queued_cells"] == 0, error
        assert snapshot["active_leases"] == 0, error


# -- hypothesis property -----------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from test_replay_properties import _skewed_events, events  # noqa: E402

from repro.loadgen.trace import InvocationTrace  # noqa: E402


@settings(max_examples=2, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(events=events, seed=st.integers(0, 2**16))
def test_fleet_matches_local_engines_on_skewed_traces(events, seed):
    """Property form of the matrix: over random skewed multi-tenant
    traces, 1/2/4 remote workers hash identically to the local serial
    executor and the local pool."""
    trace = InvocationTrace(events=_skewed_events(events), name="prop-fleet")
    spec = ReplaySpec(default_app="wc", seed=seed)
    local = {
        _sha(render_json(
            run_parallel_replay(trace, spec, workers=workers).to_dict()
        ))
        for workers in (1, 2)
    }
    fleet = {
        _sha(_fleet_report(trace, spec, workers)) for workers in (1, 2, 4)
    }
    assert local == fleet and len(local) == 1


# -- lease lifecycle under a fake clock --------------------------------------------


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _lifecycle_registry(max_attempts=3, on_event=None):
    clock = FakeClock()
    metrics = MetricsRegistry()
    registry = WorkerRegistry(
        lease_timeout_s=30.0, heartbeat_timeout_s=90.0,
        clock=clock, metrics=metrics, on_event=on_event,
    )
    job = registry.submit(
        "run-000001", {}, ["tenant-0"],
        retry=RetryPolicy(max_attempts=max_attempts),
    )
    return registry, clock, metrics, job


def test_expired_lease_requeues_with_charged_attempt():
    fleet_events = []
    registry, clock, metrics, job = _lifecycle_registry(
        on_event=lambda job_id, kind, body: fleet_events.append((kind, body))
    )
    worker = registry.register(name="flaky")["worker"]
    first = registry.lease(worker)
    assert first["cell"] == "tenant-0" and first["attempt"] == 1

    clock.advance(30.0)  # exactly the deadline: expired
    registry.expire()
    assert metrics.counter_total("repro_leases_expired_total") == 1

    second = registry.lease(worker)
    assert second["attempt"] == 2, "requeue must charge the attempt"
    assert second["lease"] != first["lease"]
    kinds = [kind for kind, _ in fleet_events]
    assert kinds == ["lease", "lease_expired", "lease"]
    expired_body = fleet_events[1][1]
    assert expired_body["requeued"] is True
    assert expired_body["cell"] == "tenant-0"

    # The original worker's late result is rejected, not folded.
    late = {
        "key": "tenant-0", "offered": 0, "duration_s": 0.0, "wall_s": 0.0,
        "tenant_of": {}, "usage": None, "latency": None, "records": [],
    }
    with pytest.raises(StaleLease):
        registry.complete(first["lease"], worker, result=late)
    snapshot = metrics.snapshot()["repro_lease_results_total"]
    assert snapshot[(("status", "stale"),)] == 1.0


def test_lease_expiry_exhausts_retries_into_lease_expired_failure():
    registry, clock, metrics, job = _lifecycle_registry(max_attempts=2)
    worker = registry.register()["worker"]
    for expected_attempt in (1, 2):
        grant = registry.lease(worker)
        assert grant["attempt"] == expected_attempt
        clock.advance(30.0)
        registry.expire()
    outcomes = list(registry.results(job))
    assert len(outcomes) == 1
    failure = outcomes[0]
    assert isinstance(failure, CellFailure)
    assert failure.kind == "lease-expired"
    assert failure.key == "tenant-0"
    assert failure.attempts == 2
    assert registry.lease(worker) is None  # nothing left to hand out
    assert metrics.counter_total("repro_leases_expired_total") == 2


def test_silent_worker_is_evicted_and_its_leases_requeue():
    registry, clock, metrics, job = _lifecycle_registry()
    dead = registry.register(name="doomed")["worker"]
    grant = registry.lease(dead)
    assert grant is not None

    clock.advance(90.0)  # past the heartbeat deadline
    live = registry.register(name="survivor")["worker"]  # entry sweeps
    assert metrics.counter_total("repro_workers_evicted_total") == 1
    with pytest.raises(UnknownWorker):
        registry.heartbeat(dead)
    with pytest.raises(UnknownWorker):
        registry.lease(dead)

    # The evicted worker's lease expired with it; the survivor gets the
    # cell on the next attempt.
    regrant = registry.lease(live)
    assert regrant["cell"] == grant["cell"]
    assert regrant["attempt"] == 2
    names = {w["name"] for w in registry.snapshot()["workers"]}
    assert names == {"survivor"}


def test_heartbeat_keeps_worker_alive_across_sweeps():
    registry, clock, metrics, job = _lifecycle_registry()
    worker = registry.register()["worker"]
    for _ in range(4):
        clock.advance(60.0)
        registry.heartbeat(worker)
    registry.expire()
    assert metrics.counter_total("repro_workers_evicted_total") == 0
    assert registry.lease(worker) is not None


def test_result_for_wrong_cell_key_leaves_lease_active():
    registry, clock, metrics, job = _lifecycle_registry()
    worker = registry.register()["worker"]
    grant = registry.lease(worker)
    bogus = {
        "key": "tenant-wrong", "offered": 0, "duration_s": 0.0,
        "wall_s": 0.0, "tenant_of": {}, "usage": None, "latency": None,
        "records": [],
    }
    with pytest.raises(ValueError):
        registry.complete(grant["lease"], worker, result=bogus)
    # The lease survived the bad payload; the real result still lands.
    snapshot = registry.snapshot()
    assert snapshot["active_leases"] == 1


# -- JobStore remote mode ----------------------------------------------------------

RUN_BODY = {
    "app": "wc",
    "seed": 7,
    "synth": {"tenants": 6, "duration_s": 30, "mean_rpm": 60, "seed": 5},
}


def _drive_store_fleet(store, stop):
    """A `repro worker` loop against an in-process JobStore's fleet."""
    worker_id = store.fleet.register(name="inproc")["worker"]
    while not stop.is_set():
        try:
            grant = store.fleet.lease(worker_id, wait_s=0.2)
        except (UnknownWorker, FleetCancelled):
            return
        if grant is None:
            continue
        outcome = _execute_grant(grant)
        try:
            store.fleet.complete(grant["lease"], worker_id, **outcome)
        except StaleLease:
            continue


def _finish(store, run_id, timeout_s=120):
    def finished():
        snap = store.snapshot(run_id)
        return snap if snap["status"] not in ("queued", "running") else None

    return _await(finished, timeout_s, f"run {run_id} to finish")


def test_jobstore_remote_run_matches_local_run_byte_for_byte(tmp_path):
    """`"workers": "remote"` through the full JobStore — validation,
    fleet, fold, journal — lands the same bytes as `"workers": 1`,
    with every cell journaled exactly once, including when the worker
    reports a retried failure."""
    from repro.serve.journal import RunJournal

    journal_path = tmp_path / "journal.jsonl"
    local_store = JobStore(workers=1)
    try:
        local_id = local_store.submit(
            parse_run_request({**RUN_BODY, "workers": 1})
        )
        local = _finish(local_store, local_id)
        assert local["status"] == "done", local.get("error")
        control = render_json(local["report"])
    finally:
        local_store.close()

    body = {
        **RUN_BODY,
        "workers": "remote",
        "retry": {"max_attempts": 2},
        # Poison the hottest cell's first attempt: the worker reports a
        # classified error, the control plane charges the attempt and
        # requeues, and attempt 2 succeeds.
        "faults": [{"kind": "poison", "cell": "tenant0", "attempt": 1}],
    }
    store = JobStore(workers=1, journal=RunJournal(str(journal_path)))
    stop = threading.Event()
    thread = threading.Thread(
        target=_drive_store_fleet, args=(store, stop), daemon=True
    )
    thread.start()
    try:
        run_id = store.submit(parse_run_request(body))
        snap = _finish(store, run_id)
        assert snap["status"] == "done", snap.get("error")
        assert render_json(snap["report"]) == control
        results = store.metrics.snapshot()["repro_lease_results_total"]
        assert results[(("status", "error"),)] == 1.0
        assert results[(("status", "ok"),)] == 6.0
    finally:
        stop.set()
        store.close()
        thread.join(timeout=30)

    journaled = [
        json.loads(line)["key"]
        for line in journal_path.read_text().splitlines()
        if line and json.loads(line).get("rec") == "cell"
    ]
    assert sorted(journaled) == sorted(set(journaled)), (
        "a cell was journaled more than once"
    )
    assert len(journaled) == 6


def test_fleet_event_during_cell_fsync_keeps_seqs_increasing(
    tmp_path, monkeypatch
):
    """A lease event that lands while a cell's journal fsync holds the
    cell's reserved seqs is appended *after* the cell's events, never
    ahead of them: the stream stays strictly seq-ordered and the
    validating client accepts a remote ``--journal`` run."""
    from repro.serve import ServeClient, create_server
    from repro.serve.journal import RunJournal

    srv = create_server(
        port=0, workers=1, quiet=True,
        journal=str(tmp_path / "journal.jsonl"),
    )
    store = srv.store
    real_record_cell = RunJournal.record_cell
    injected = []

    def record_cell(self, run_id, key, *args, **kwargs):
        # Between the seq reservation and the cell's append: the window
        # a real lease grant can hit while the fsync runs.
        store._fleet_event(run_id, "lease", {
            "run_id": run_id, "cell": key, "worker": "w-injected",
            "attempt": 1,
        })
        injected.append(key)
        return real_record_cell(self, run_id, key, *args, **kwargs)

    monkeypatch.setattr(RunJournal, "record_cell", record_cell)
    server = threading.Thread(target=srv.serve_forever, daemon=True)
    server.start()
    stop = threading.Event()
    driver = threading.Thread(
        target=_drive_store_fleet, args=(store, stop), daemon=True
    )
    driver.start()
    try:
        report = ServeClient(srv.url).run({**RUN_BODY, "workers": "remote"})
        assert report["offered"] > 0
        (run,) = store.list()
        events = list(store.follow(run["id"]))
    finally:
        stop.set()
        driver.join(timeout=10)
        srv.shutdown()
        srv.close()
    assert len(injected) == 6
    seqs = [event["seq"] for event in events]
    assert seqs == sorted(set(seqs)), seqs
    # Each injected lease event lands behind its cell's own event.
    cell_at = {
        event["cell"]: index
        for index, event in enumerate(events) if event["event"] == "cell"
    }
    for index, event in enumerate(events):
        if event["event"] == "lease" and event["worker"] == "w-injected":
            assert cell_at[event["cell"]] < index, event


def test_jobstore_remote_run_applies_server_default_tenant_config():
    """A serve-level ``--tenant-config`` must reach remote workers: the
    control plane injects it inline into the shipped payload, because a
    worker re-validates that payload with no server defaults in scope —
    a bare payload would replay cells without the profiles and fold the
    divergent residues silently."""
    from repro.parallel.profiles import TenantConfig

    config = TenantConfig.from_payload({"default": {"system": "faasflow"}})
    config.validate("dataflower", "round_robin")
    body = {**RUN_BODY, "workers": "remote"}  # no inline tenant_config
    request = parse_run_request(body, config)
    control = render_json(
        run_parallel_replay(
            request.trace, request.spec, workers=1
        ).to_dict()
    )
    bare = parse_run_request(dict(RUN_BODY))
    assert control != render_json(
        run_parallel_replay(
            bare.trace, bare.spec, workers=1
        ).to_dict()
    ), "the config must be load-bearing or this test proves nothing"

    store = JobStore(workers=1, default_tenant_config=config)
    stop = threading.Event()
    thread = threading.Thread(
        target=_drive_store_fleet, args=(store, stop), daemon=True
    )
    thread.start()
    try:
        run_id = store.submit(parse_run_request(body, config))
        snap = _finish(store, run_id)
        assert snap["status"] == "done", snap.get("error")
        assert render_json(snap["report"]) == control
    finally:
        stop.set()
        store.close()
        thread.join(timeout=30)


def test_worker_execution_skips_retry_backoff(monkeypatch):
    """A retried grant must not sleep out its backoff inside the lease
    window: the requeue round-trip already spaced the attempts, and with
    a short ``--lease-timeout-s`` the sleep would expire every retry
    before its result could land."""
    calls = []
    monkeypatch.setattr(
        RetryPolicy,
        "backoff_s",
        lambda self, seed, key, attempt: calls.append(attempt) or 0.0,
    )
    grant = {
        "lease": "l-00000001",
        "run_id": "run-000001",
        "cell": "tenant0",
        "attempt": 2,
        "request": {
            "app": "wc",
            "seed": 3,
            "synth": {"tenants": 1, "duration_s": 5,
                      "mean_rpm": 30, "seed": 5},
        },
    }
    outcome = _execute_grant(grant)
    assert "result" in outcome, outcome
    assert calls == [], "worker-side retry backoff must be skipped"


def test_workers_field_rejects_unknown_strings():
    with pytest.raises(BadRequest, match="'remote'"):
        parse_run_request({**RUN_BODY, "workers": "local"})


# -- per-worker secrets ------------------------------------------------------------


def test_registry_mints_and_verifies_worker_secrets():
    registry = WorkerRegistry()
    first = registry.register()
    second = registry.register()
    assert first["secret"] and first["secret"] != second["secret"]
    registry.verify_secret(first["worker"], first["secret"])  # no raise
    with pytest.raises(WorkerAuthError):
        registry.verify_secret(first["worker"], second["secret"])
    with pytest.raises(WorkerAuthError):
        registry.verify_secret(first["worker"], None)
    # Unknown ids pass through: the caller's own lookup answers the
    # accurate UnknownWorker/StaleLease instead.
    registry.verify_secret("w-999999", "whatever")
    assert "secret" not in json.dumps(registry.snapshot())


def _http(url, body, timeout=10):
    """(status, parsed JSON body or None) for one POST, errors included."""
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            raw = resp.read()
            return resp.status, json.loads(raw) if raw else None
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        return exc.code, json.loads(raw) if raw else None


def test_fleet_http_surface_requires_worker_secret():
    """The HTTP layer is the trust boundary: a fleet POST naming a live
    worker id but carrying a wrong or missing secret is refused 403 and
    changes nothing (``docs/workers.md``, "Trust model")."""
    from repro.serve import create_server

    srv = create_server(port=0, workers=1, quiet=True)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        base = srv.url
        status, grant = _http(f"{base}/v1/workers", {"name": "authed"})
        assert status == 200
        worker_id, secret = grant["worker"], grant["secret"]
        assert secret

        for body in ({"secret": "forged"}, {}):
            status, payload = _http(
                f"{base}/v1/workers/{worker_id}/heartbeat", body
            )
            assert status == 403, payload
        status, _payload = _http(
            f"{base}/v1/cells/lease",
            {"worker": worker_id, "secret": "forged", "wait_s": 0},
        )
        assert status == 403
        status, _payload = _http(
            f"{base}/v1/cells/l-00000001/result",
            {"worker": worker_id, "secret": "forged",
             "error": {"kind": "app-error", "message": "forged"}},
        )
        assert status == 403

        # The issued secret sails through (204: nothing queued).
        status, _payload = _http(
            f"{base}/v1/workers/{worker_id}/heartbeat", {"secret": secret}
        )
        assert status == 200
        status, _payload = _http(
            f"{base}/v1/cells/lease",
            {"worker": worker_id, "secret": secret, "wait_s": 0},
        )
        assert status == 204
        # An unknown worker id still reads 404, not 403 — the auth path
        # leaks nothing the fleet snapshot doesn't already publish.
        status, _payload = _http(
            f"{base}/v1/cells/lease", {"worker": "w-999999", "wait_s": 0}
        )
        assert status == 404
        assert "secret" not in json.dumps(_request(f"{base}/v1/workers"))
    finally:
        srv.close()
        thread.join(timeout=10)


# -- chaos: SIGKILL a real worker subprocess mid-cell ------------------------------

CHAOS_BODY = {
    "app": "wc",
    "seed": 7,
    "workers": "remote",
    "synth": {"tenants": 8, "duration_s": 60, "mean_rpm": 120, "seed": 5},
}

#: Lease deadline for the chaos run: far above any single cell's wall
#: time (cells run ~1s here), far below the test timeout, so recovery
#: from the SIGKILL is prompt but live cells never expire spuriously.
CHAOS_LEASE_TIMEOUT_S = 6.0


def _spawn(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=env, text=True,
    )


def _request(url, body=None, timeout=10):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if body else {},
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read())


def _metric_total(base, name):
    with urllib.request.urlopen(f"{base}/metrics", timeout=10) as resp:
        text = resp.read().decode()
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            rest = line[len(name):]
            if rest[:1] in (" ", "{"):
                total += float(line.rsplit(" ", 1)[1])
    return total


def _journaled_cells(journal_path, run_id):
    keys = []
    if not journal_path.exists():
        return keys
    for line in journal_path.read_text(errors="replace").split("\n")[:-1]:
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if record.get("rec") == "cell" and record.get("run") == run_id:
            keys.append(record["key"])
    return keys


def _freeze_a_lease_holder(base, procs_by_worker_id):
    """SIGSTOP a worker while the control plane shows it holding a
    lease; re-verify after the freeze (twice, with a round trip in
    between) so an in-flight result cannot have released it."""

    def try_freeze():
        snap = _request(f"{base}/v1/workers")
        for worker in snap["workers"]:
            if worker["leases"] and worker["id"] in procs_by_worker_id:
                proc = procs_by_worker_id[worker["id"]]
                os.kill(proc.pid, signal.SIGSTOP)
                held = all(
                    any(
                        w["id"] == worker["id"] and w["leases"]
                        for w in _request(f"{base}/v1/workers")["workers"]
                    )
                    for _ in range(2)
                )
                if held:
                    return worker["id"], proc
                os.kill(proc.pid, signal.SIGCONT)
        return None

    return _await(try_freeze, 60, "a worker holding a lease")


def test_sigkilled_worker_lease_expires_and_report_stays_identical(tmp_path):
    """The chaos pin: SIGKILL one of two real workers mid-cell; the
    lease expires, the survivor finishes the run, the report is
    byte-identical to an uninterrupted local run, and no cell is
    journaled twice."""
    spec_request = parse_run_request({**CHAOS_BODY, "workers": 1})
    control = render_json(
        run_parallel_replay(
            spec_request.trace, spec_request.spec, workers=1
        ).to_dict()
    )

    journal_path = tmp_path / "journal.jsonl"
    serve = _spawn([
        "serve", "--port", "0", "--workers", "1",
        "--journal", str(journal_path),
        "--lease-timeout-s", str(CHAOS_LEASE_TIMEOUT_S),
    ])
    workers = []
    try:
        banner = serve.stdout.readline()
        match = _LISTENING.search(banner)
        assert match, f"no listening banner: {banner!r}"
        base = match.group(1)

        procs_by_worker_id = {}
        for _ in range(2):
            proc = _spawn(["worker", "--server", base, "--poll-s", "1"])
            workers.append(proc)
            banner = proc.stdout.readline()
            match = _WORKER_BANNER.search(banner)
            assert match, f"no worker banner: {banner!r}"
            procs_by_worker_id[match.group(1)] = proc

        run_id = _request(f"{base}/v1/runs", CHAOS_BODY)["id"]

        # Kill only once the run is provably mid-flight: at least one
        # cell journaled, and a worker holding a live lease.
        _await(
            lambda: _journaled_cells(journal_path, run_id) or None,
            60, "first journaled cell",
        )
        victim_id, victim = _freeze_a_lease_holder(base, procs_by_worker_id)
        snap = _request(f"{base}/v1/runs/{run_id}")
        assert snap["status"] == "running", (
            f"run already {snap['status']}; workload too small to kill "
            f"mid-flight"
        )
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)

        # The frozen worker's lease must expire and requeue...
        _await(
            lambda: _metric_total(base, "repro_leases_expired_total") or None,
            CHAOS_LEASE_TIMEOUT_S + 30,
            "the killed worker's lease to expire",
        )

        # ...and the survivor finishes the run.
        def finished():
            snap = _request(f"{base}/v1/runs/{run_id}")
            return snap if snap["status"] not in ("queued", "running") \
                else None

        snap = _await(finished, 180, "chaos run to finish")
        assert snap["status"] == "done", snap.get("error")
        assert render_json(snap["report"]) == control

        journaled = _journaled_cells(journal_path, run_id)
        assert sorted(journaled) == sorted(set(journaled)), (
            "a cell was journaled more than once after the SIGKILL"
        )
        assert len(journaled) == 8
        assert _metric_total(base, "repro_lease_results_total") >= 8
    finally:
        for proc in [serve, *workers]:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=30)
