"""The resilience layer's acceptance suite (``docs/robustness.md``).

Three clusters of assertions:

* **Policy and taxonomy units** — deterministic seeded-jitter backoff,
  strict validation, the exception→kind classification, and payload
  round-trips for everything that crosses a process or wire boundary.
* **Crash identity** — the tentpole property: SIGKILL a pool worker
  (or its serial stand-in) mid-cell and the recovered report is
  *byte-identical* to the fault-free run, on the serial executor, the
  work-stealing pool, and the remote fleet alike.  Degraded runs
  (``on_cell_failure="skip"``) are deterministic too, and a fold that
  aborts leaves no worker process or fleet lease behind.
* **Admission control** — the serve layer's 429 contract: queue-depth
  bounds and per-tenant concurrent-run quotas reject with
  ``Retry-After``, ``/healthz`` flips ``ready``, and ``ServeClient``
  rides the 429 out transparently while other tenants keep completing.
"""

import json
import pickle
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.loadgen.trace import synthesize_trace
from repro.metrics.report import render_json
from repro.metrics.telemetry import MetricsRegistry
from repro.parallel import (
    CellDeadlineExceeded,
    CellFailedError,
    CellFailure,
    FaultSpec,
    HostFaultPlan,
    PoisonError,
    ReplaySpec,
    RetryPolicy,
    WorkerCrashError,
    classify_failure,
    run_parallel_replay,
)
from repro.parallel.resilience import FAILURE_KINDS, FAULT_KINDS
from repro.parallel.sink import RecordSinkSpec
from repro.serve import ServeClient, create_server, parse_run_request
import repro.serve.jobs as jobs_mod
from repro.serve.jobs import AdmissionDenied, JobStore

from fleet_harness import fleet_replay

SPEC = ReplaySpec(default_app="wc", seed=7)

#: Retries should be exercised, not waited for.
FAST_RETRY = RetryPolicy(max_attempts=2, backoff_base_s=0.0)


def _trace(tenants=3, seed=0):
    return synthesize_trace(
        tenants=tenants, duration_s=10.0, mean_rpm=40.0, apps=["wc"],
        seed=seed,
    )


def _poison(cell, attempt=1):
    return HostFaultPlan(
        faults=(FaultSpec(kind="poison", cell=cell, attempt=attempt),)
    )


# -- RetryPolicy: deterministic backoff, strict validation --------------------


def test_backoff_is_deterministic_and_bounded():
    policy = RetryPolicy()
    assert policy.backoff_s(7, "tenant0", 1) == 0.0  # attempt 1 never waits
    for attempt in range(2, 8):
        base = min(
            policy.backoff_max_s,
            policy.backoff_base_s * policy.backoff_factor ** (attempt - 2),
        )
        for key in ("tenant0", "tenant1"):
            pause = policy.backoff_s(7, key, attempt)
            assert pause == policy.backoff_s(7, key, attempt)  # pure
            assert base <= pause <= base * (1 + policy.jitter)
    # Jitter decorrelates cells: same attempt, different keys, different
    # pauses (for at least one attempt — they hash independently).
    assert any(
        policy.backoff_s(7, "tenant0", a) != policy.backoff_s(7, "tenant1", a)
        for a in range(2, 8)
    )
    # The cap holds no matter how deep the retry ladder goes.
    assert policy.backoff_s(7, "k", 40) <= policy.backoff_max_s * (
        1 + policy.jitter
    )


def test_retry_policy_validation():
    for bad in (
        RetryPolicy(max_attempts=0),
        RetryPolicy(backoff_base_s=-0.1),
        RetryPolicy(backoff_factor=0.5),
        RetryPolicy(backoff_max_s=-1),
        RetryPolicy(jitter=1.5),
        RetryPolicy(deadline_s=0.0),
    ):
        with pytest.raises(ValueError):
            bad.validate()
    RetryPolicy().validate()  # the default is valid


def test_retry_policy_wire_parsing():
    policy = RetryPolicy.from_payload({"max_attempts": 2, "deadline_s": 1.5})
    assert policy.max_attempts == 2 and policy.deadline_s == 1.5
    assert RetryPolicy.from_payload({}).max_attempts == 3
    with pytest.raises(ValueError, match="unknown retry keys"):
        RetryPolicy.from_payload({"max_attempts": 2, "backoff_base_s": 1})
    with pytest.raises(ValueError):
        RetryPolicy.from_payload([1, 2])
    with pytest.raises(ValueError):
        RetryPolicy.from_payload({"max_attempts": 0})


# -- failure taxonomy ---------------------------------------------------------


def test_classify_failure_covers_every_kind():
    from concurrent.futures.process import BrokenProcessPool

    cases = {
        "worker-crash": [WorkerCrashError("x"), BrokenProcessPool("x")],
        "poison": [PoisonError("x")],
        "timeout": [CellDeadlineExceeded("k", 1.0), TimeoutError("x")],
        "app-error": [ValueError("x"), RuntimeError("x")],
    }
    # ``lease-expired`` is the one kind no exception maps to: the
    # control plane's WorkerRegistry assigns it when a remote lease
    # deadline passes without a result (no worker-side throw exists).
    assert set(cases) | {"lease-expired"} == set(FAILURE_KINDS)
    for kind, excs in cases.items():
        for exc in excs:
            assert classify_failure(exc) == kind


def test_failure_payloads_and_pickling_round_trip():
    failure = CellFailure(
        key="tenant0", kind="poison", attempts=3, message="boom"
    )
    assert CellFailure.from_payload(failure.to_payload()) == failure
    assert failure.to_payload()["cell"] == "tenant0"

    # Both exceptions cross the worker→parent pickle boundary intact.
    error = pickle.loads(pickle.dumps(CellFailedError(failure)))
    assert error.failure == failure
    assert "tenant0" in str(error) and "poison" in str(error)

    deadline = pickle.loads(pickle.dumps(CellDeadlineExceeded("k", 1.5)))
    assert (deadline.key, deadline.deadline_s) == ("k", 1.5)
    assert classify_failure(deadline) == "timeout"


# -- fault plans --------------------------------------------------------------


def test_fault_spec_validation_and_matching():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec(kind="meteor", cell="a").validate()
    with pytest.raises(ValueError):
        FaultSpec(kind="kill", cell="a", attempt=-1).validate()
    with pytest.raises(ValueError):
        FaultSpec(kind="delay", cell="a", delay_s=-0.1).validate()

    once = FaultSpec(kind="poison", cell="a", attempt=2)
    assert once.matches("a", 2) and not once.matches("a", 1)
    assert not once.matches("b", 2)
    every = FaultSpec(kind="poison", cell="a", attempt=0)
    assert all(every.matches("a", n) for n in (1, 2, 9))


def test_fault_plan_wire_round_trip():
    plan = HostFaultPlan.from_payload(
        [{"kind": "delay", "cell": "a", "delay_s": 0.5},
         {"kind": "kill", "cell": "b", "attempt": 2}]
    )
    assert plan.to_payload() == [
        {"kind": "delay", "cell": "a", "attempt": 1, "delay_s": 0.5},
        {"kind": "kill", "cell": "b", "attempt": 2, "delay_s": 0.0},
    ]
    for bad in (
        {"not": "a list"},
        [{"kind": "poison"}],                      # missing cell
        [{"kind": "poison", "cell": "a", "pid": 1}],  # unknown key
        [{"kind": "meteor", "cell": "a"}],         # unknown kind
    ):
        with pytest.raises(ValueError):
            HostFaultPlan.from_payload(bad)
    assert sorted(FAULT_KINDS) == ["delay", "kill", "poison"]


# -- retries are invisible to the replay semantics ----------------------------


def test_poison_then_retry_yields_fault_free_report():
    trace = _trace()
    control = render_json(run_parallel_replay(trace, SPEC, workers=1).to_dict())
    metrics = MetricsRegistry()
    result = run_parallel_replay(
        trace, SPEC, workers=1,
        retry=FAST_RETRY, fault_plan=_poison("tenant0"), metrics=metrics,
    )
    assert render_json(result.to_dict()) == control
    assert metrics.snapshot()["repro_cell_retries_total"] == {(): 1.0}


def test_serial_kill_fault_counts_a_worker_crash():
    """On the in-process path a ``kill`` fault degrades to a raised
    WorkerCrashError — same classification, same retry path, host
    process intact."""
    trace = _trace()
    control = render_json(run_parallel_replay(trace, SPEC, workers=1).to_dict())
    metrics = MetricsRegistry()
    result = run_parallel_replay(
        trace, SPEC, workers=1,
        retry=FAST_RETRY,
        fault_plan=HostFaultPlan(
            faults=(FaultSpec(kind="kill", cell="tenant1", attempt=1),)
        ),
        metrics=metrics,
    )
    assert render_json(result.to_dict()) == control
    snapshot = metrics.snapshot()
    assert snapshot["repro_worker_crashes_total"] == {(): 1.0}
    assert snapshot["repro_cell_retries_total"] == {(): 1.0}


def test_skip_mode_degrades_deterministically():
    trace = _trace()
    reports = []
    for _ in range(2):
        result = run_parallel_replay(
            trace, SPEC, workers=1,
            retry=FAST_RETRY,
            fault_plan=_poison("tenant0", attempt=0),  # every attempt
            on_cell_failure="skip",
        )
        reports.append(render_json(result.to_dict()))
    assert reports[0] == reports[1]  # degradation is deterministic

    payload = json.loads(reports[0])
    failed = payload["replay"]["failed_cells"]
    assert [(f["cell"], f["kind"], f["attempts"]) for f in failed] == [
        ("tenant0", "poison", 2)
    ]
    assert "injected poison" in failed[0]["message"]
    # The surviving cells still merged.
    assert payload["offered"] > 0
    assert "tenant0" not in payload["tenants"]


def test_fail_mode_raises_cell_failed_error():
    with pytest.raises(CellFailedError) as err:
        run_parallel_replay(
            _trace(), SPEC, workers=1,
            retry=RetryPolicy(max_attempts=1),
            fault_plan=_poison("tenant2", attempt=0),
        )
    failure = err.value.failure
    assert (failure.key, failure.kind, failure.attempts) == (
        "tenant2", "poison", 1
    )


def test_delay_fault_past_deadline_is_a_timeout():
    result = run_parallel_replay(
        _trace(), SPEC, workers=1,
        retry=RetryPolicy(max_attempts=1, deadline_s=0.2),
        fault_plan=HostFaultPlan(
            faults=(FaultSpec(kind="delay", cell="tenant0", attempt=0,
                              delay_s=5.0),)
        ),
        on_cell_failure="skip",
    )
    failed = result.to_dict()["replay"]["failed_cells"]
    assert [(f["cell"], f["kind"]) for f in failed] == [("tenant0", "timeout")]
    assert "deadline" in failed[0]["message"]


def test_spill_scratch_cleaned_up_when_replay_fails(tmp_path):
    spec = ReplaySpec(
        default_app="wc", seed=7,
        record_sink=RecordSinkSpec(
            spill_dir=str(tmp_path), max_records_in_memory=1,
        ),
    )
    with pytest.raises(CellFailedError):
        run_parallel_replay(
            _trace(), spec, workers=1,
            retry=RetryPolicy(max_attempts=1),
            fault_plan=_poison("tenant2", attempt=0),
        )
    # The sink's scratch directory was removed on the failure path, not
    # leaked (the close() in the fold's except branch).
    assert list(tmp_path.iterdir()) == []


def test_aborted_pool_fold_leaves_no_worker_processes():
    """However a pooled fold aborts — an exhausted cell under "fail", or
    an on_cell hook that raises — the pool is shut down and its worker
    processes joined before the call returns."""
    import multiprocessing

    trace = _trace(tenants=4)
    with pytest.raises(CellFailedError):
        run_parallel_replay(
            trace, SPEC, workers=2,
            retry=RetryPolicy(max_attempts=1),
            fault_plan=_poison("tenant2", attempt=0),
        )
    assert multiprocessing.active_children() == []

    def hook(cell):
        raise RuntimeError("observer failed")

    with pytest.raises(RuntimeError, match="observer failed"):
        run_parallel_replay(trace, SPEC, workers=2, on_cell=hook)
    assert multiprocessing.active_children() == []


# -- the crash-identity property (the tentpole) -------------------------------


@settings(max_examples=2, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16 - 1))
def test_crash_identity_across_engines_and_shards(seed):
    """SIGKILL a worker mid-cell on attempt 1: the recovered report is
    byte-identical to the fault-free serial control — on the serial
    executor (a raised WorkerCrashError), the pool at 2 and 3 workers,
    and the remote fleet (a reported worker-crash, requeued)."""
    trace = synthesize_trace(
        tenants=3, duration_s=8.0, mean_rpm=40.0, apps=["wc"], seed=seed,
    )
    spec = ReplaySpec(default_app="wc", seed=seed)
    control = render_json(run_parallel_replay(trace, spec, workers=1).to_dict())
    victim = sorted(trace.tenants())[0]
    plan = HostFaultPlan(
        faults=(FaultSpec(kind="kill", cell=victim, attempt=1),)
    )
    retry = RetryPolicy(max_attempts=4, backoff_base_s=0.01)
    results = {
        f"local/workers={workers}": run_parallel_replay(
            trace, spec, workers=workers, retry=retry, fault_plan=plan,
        )
        for workers in (1, 2, 3)
    }
    results["fleet/workers=2"] = fleet_replay(
        trace, spec, 2, retry=retry, fault_plan=plan
    )
    for name, result in results.items():
        assert render_json(result.to_dict()) == control, (
            f"report diverged after worker crash ({name}, seed={seed})"
        )


# -- the CLI surface ----------------------------------------------------------

TRACE_CSV = (
    "at_s,tenant,app\n"
    "0.0,a,wc\n0.4,b,wc\n0.9,a,wc\n1.3,b,wc\n"
)


def _cli_replay(tmp_path, capsys, *argv):
    from repro.cli import main

    path = tmp_path / "t.csv"
    path.write_text(TRACE_CSV)
    code = main(["replay", str(path), "--format", "json", *argv])
    return code, capsys.readouterr()


def _report_body(captured):
    payload = json.loads(captured.out)
    payload.pop("parallel")
    payload.pop("trace")
    return payload


def test_cli_fault_injection_and_exit_codes(tmp_path, capsys):
    code, out = _cli_replay(tmp_path, capsys)
    assert code == 0
    control = _report_body(out)

    # A real pooled worker SIGKILL, recovered to the identical report.
    code, out = _cli_replay(
        tmp_path, capsys,
        "--workers", "2", "--fault", "kill:a", "--max-attempts", "3",
    )
    assert code == 0
    assert _report_body(out) == control

    # Skip mode degrades: exit 3, failed_cells in the payload.
    code, out = _cli_replay(
        tmp_path, capsys,
        "--fault", "poison:a:0", "--max-attempts", "2",
        "--on-cell-failure", "skip",
    )
    assert code == 3
    failed = _report_body(out)["replay"]["failed_cells"]
    assert [(f["cell"], f["kind"], f["attempts"]) for f in failed] == [
        ("a", "poison", 2)
    ]

    # Fail mode: exit 1 with a clean one-line error, never a traceback.
    code, out = _cli_replay(
        tmp_path, capsys, "--fault", "poison:a:0", "--max-attempts", "1",
    )
    assert code == 1
    assert "error: cell 'a' failed (poison)" in out.err
    assert "Traceback" not in out.err

    # Malformed fault specs are usage errors (exit 2), caught eagerly.
    code, out = _cli_replay(tmp_path, capsys, "--fault", "meteor:a")
    assert code == 2 and "unknown fault kind" in out.err
    code, out = _cli_replay(tmp_path, capsys, "--fault", "kill")
    assert code == 2


def test_cli_serve_validates_max_queued(capsys):
    from repro.cli import main

    assert main(["serve", "--max-queued", "0"]) == 2
    assert "--max-queued" in capsys.readouterr().err


# -- serve admission control --------------------------------------------------

TINY_TRACE = {"events": [{"at_s": 0.0, "tenant": "a"}]}

#: ``trace.name == "hold"`` marks runs the gated engine stub blocks on.
HELD_TRACE = dict(TINY_TRACE, name="hold")

QUOTA_CONFIG = {"tenants": {"hot": {"max_concurrent_runs": 1}}}


def _gated_engine(monkeypatch):
    """Replace the job store's engine fold with one that blocks runs
    whose trace is named ``hold`` until the returned gate opens."""
    gate = threading.Event()
    real = jobs_mod.replay

    def held(trace, spec, *args, **kwargs):
        if trace.name == "hold" and not gate.is_set():
            gate.wait(timeout=30)
        return real(trace, spec, *args, **kwargs)

    monkeypatch.setattr(jobs_mod, "replay", held)
    return gate


def _await(predicate, timeout_s, what):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value is not None:
            return value
        time.sleep(0.02)
    raise AssertionError(f"timed out after {timeout_s}s waiting for {what}")


def _await_status(store, run_id, status):
    _await(
        lambda: True if store.snapshot(run_id)["status"] == status else None,
        30, f"{run_id} to be {status}",
    )


def test_jobstore_bounds_its_queue(monkeypatch):
    gate = _gated_engine(monkeypatch)
    store = JobStore(workers=1, max_queued=1)
    body = {"app": "wc", "seed": 1, "trace": HELD_TRACE}
    try:
        first = store.submit(parse_run_request(body))
        _await_status(store, first, "running")
        second = store.submit(parse_run_request(body))  # fills the queue

        with pytest.raises(AdmissionDenied) as err:
            store.submit(parse_run_request(body))
        assert err.value.reason == "queue_full"
        assert err.value.retry_after_s > 0
        assert store.rejected == 1
        assert store.counts()["queued"] == 1
        assert store.metrics.snapshot()["repro_runs_rejected_total"] == {
            (("reason", "queue_full"),): 1.0
        }

        gate.set()
        for run_id in (first, second):
            _await_status(store, run_id, "done")
        # Pressure released: submissions are admitted again.
        store.submit(parse_run_request(dict(body, trace=TINY_TRACE)))
    finally:
        gate.set()
        store.close()


def test_jobstore_enforces_tenant_quota(monkeypatch):
    gate = _gated_engine(monkeypatch)
    store = JobStore(workers=2)
    hot = {"app": "wc", "seed": 1, "tenant": "hot",
           "tenant_config": QUOTA_CONFIG, "trace": HELD_TRACE}
    cold = {"app": "wc", "seed": 1, "tenant": "cold",
            "tenant_config": QUOTA_CONFIG, "trace": TINY_TRACE}
    try:
        held = store.submit(parse_run_request(hot))
        _await_status(store, held, "running")

        with pytest.raises(AdmissionDenied) as err:
            store.submit(parse_run_request(hot))
        assert err.value.reason == "tenant_quota"
        assert "hot" in str(err.value)

        # The quota is per tenant: an unthrottled tenant sails through
        # and *completes* while the hot tenant's run is still held.
        cold_id = store.submit(parse_run_request(cold))
        _await_status(store, cold_id, "done")
        assert store.snapshot(held)["status"] == "running"
        assert store.metrics.snapshot()["repro_runs_rejected_total"] == {
            (("reason", "tenant_quota"),): 1.0
        }

        gate.set()
        _await_status(store, held, "done")
        # The quota slot freed: the hot tenant is admitted again.
        store.submit(parse_run_request(dict(hot, trace=TINY_TRACE)))
    finally:
        gate.set()
        store.close()


@pytest.fixture
def admission_server(monkeypatch):
    gate = _gated_engine(monkeypatch)
    srv = create_server(port=0, workers=2, quiet=True, max_queued=2)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv, gate
    finally:
        gate.set()
        srv.close()
        thread.join(timeout=10)


def _raw_post(url, body):
    request = urllib.request.Request(
        url + "/v1/runs", data=json.dumps(body).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    return urllib.request.urlopen(request)


def test_http_quota_answers_429_and_client_rides_it_out(admission_server):
    """The acceptance scenario: a hot tenant over quota gets 429 +
    Retry-After while another tenant's run completes; ``ServeClient``
    retries the 429 transparently and lands the run once the quota
    frees."""
    srv, gate = admission_server
    hot = {"app": "wc", "seed": 1, "tenant": "hot",
           "tenant_config": QUOTA_CONFIG, "trace": HELD_TRACE}
    cold = {"app": "wc", "seed": 1, "tenant": "cold",
            "tenant_config": QUOTA_CONFIG, "trace": TINY_TRACE}
    client = ServeClient(srv.url, retries=8, backoff_s=0.05)

    held_id = client.submit(hot)
    _await(
        lambda: True if client.status(held_id)["status"] == "running"
        else None,
        30, "held run to start",
    )

    # A raw client sees the documented 429 + Retry-After contract.
    with pytest.raises(urllib.error.HTTPError) as err:
        _raw_post(srv.url, hot)
    assert err.value.code == 429
    assert float(err.value.headers["Retry-After"]) > 0
    assert "hot" in json.loads(err.value.read())["error"]

    # Another tenant completes while the hot tenant is saturated.
    report = client.run(cold)
    assert report["offered"] == 1

    # ServeClient retries the 429 transparently: open the gate shortly
    # after the submit starts, and the resubmission is admitted.
    threading.Timer(0.4, gate.set).start()
    second_id = client.submit(hot)
    assert second_id != held_id
    for run_id in (held_id, second_id):
        for _ in client.events(run_id):
            pass
        assert client.report(run_id)["offered"] == 1

    assert 'repro_runs_rejected_total{reason="tenant_quota"}' in (
        client.metrics_text()
    )


def test_healthz_ready_flips_under_queue_pressure(monkeypatch):
    gate = _gated_engine(monkeypatch)
    srv = create_server(port=0, workers=1, quiet=True, max_queued=1)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    body = {"app": "wc", "seed": 1, "trace": HELD_TRACE}

    def healthz():
        with urllib.request.urlopen(srv.url + "/healthz") as resp:
            return json.loads(resp.read())

    try:
        assert healthz()["ready"] is True
        with _raw_post(srv.url, body) as resp:
            first = json.loads(resp.read())["id"]
        _await(
            lambda: True
            if json.loads(urllib.request.urlopen(
                f"{srv.url}/v1/runs/{first}"
            ).read())["status"] == "running" else None,
            30, "first run to start",
        )
        with _raw_post(srv.url, body) as resp:
            second = json.loads(resp.read())["id"]

        health = healthz()
        assert health["ready"] is False  # queue at max_queued
        assert health["queued"] == 1 and health["max_queued"] == 1

        with pytest.raises(urllib.error.HTTPError) as err:
            _raw_post(srv.url, body)
        assert err.value.code == 429
        assert healthz()["rejected"] == 1

        gate.set()
        for run_id in (first, second):
            _await(
                lambda run_id=run_id: True
                if json.loads(urllib.request.urlopen(
                    f"{srv.url}/v1/runs/{run_id}"
                ).read())["status"] == "done" else None,
                30, f"{run_id} to finish",
            )
        health = healthz()
        assert health["ready"] is True and health["queued"] == 0
    finally:
        gate.set()
        srv.close()
        thread.join(timeout=10)
