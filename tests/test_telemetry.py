"""Tests for the versioned telemetry layer: event schema + metrics registry.

Two halves, mirroring :mod:`repro.metrics.telemetry`:

- schema-level unit tests (envelope shape, validation rejections, one
  canonical example per kind — set-equal to the schema, so adding a
  kind without an example fails here), and
- end-to-end coverage that every kind the engine and
  :class:`~repro.serve.jobs.JobStore` can emit actually appears on a
  real event stream — fresh, failed, journal-resumed, and interrupted
  runs — plus the hypothesis property that the serial executor, the
  pool, and the remote fleet carry identical counter totals.
"""

import json
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.serve.jobs as jobs_module
from repro.metrics.stats import percentile_sorted
from repro.metrics.telemetry import (
    METRICS,
    MetricsRegistry,
    SCHEMA_VERSION,
    SchemaError,
    event_envelope,
    event_kinds,
    metric_names,
    validate_event,
)
from repro.serve import parse_run_request
from repro.serve.jobs import JobStore

BODY = {
    "app": "wc",
    "seed": 5,
    "synth": {"tenants": 3, "duration_s": 10, "mean_rpm": 60, "seed": 2},
}


def _drain(store, run_id):
    events = list(store.follow(run_id))
    for event in events:
        validate_event(event)
    return events


# -- envelope + schema --------------------------------------------------------

#: One canonical, valid example per event kind.  The set-equality
#: assertion below makes this table the schema's regression net: a new
#: kind cannot land without a validated example.
EXAMPLES = {
    "queued": {
        "run_id": "run-000001", "request": {"app": "wc"}, "cells": 3,
        "payload": {"app": "wc", "synth": {"tenants": 3}},
    },
    "running": {"run_id": "run-000001"},
    "recovered": {"run_id": "run-000001", "cells_journaled": 2},
    "interrupted": {"run_id": "run-000001"},
    "cell": {
        "run_id": "run-000001", "cell": "tenant0", "offered": 4,
        "completed": 4, "failed": 0, "wall_s": 0.25,
        "latency": {"mean_s": 0.1}, "identity": "tenant0@7",
        "result": {"key": "tenant0", "records": []},
    },
    "progress": {
        "run_id": "run-000001", "cells_done": 1, "cells_total": 3,
        "offered": 4, "completed": 4, "failed": 0,
    },
    "counter": {
        "run_id": "run-000001", "name": "requests_completed", "value": 4,
    },
    "gauge": {
        "run_id": "run-000001", "name": "phase_seconds", "value": 0.5,
        "labels": {"phase": "execute"},
    },
    "report": {"run_id": "run-000001", "report": {"offered": 4}},
    "degraded": {
        "run_id": "run-000001", "report": {"offered": 4},
        "failed_cells": 1,
    },
    "error": {"run_id": "run-000001", "message": "boom"},
    "lease": {
        "run_id": "run-000001", "cell": "tenant0",
        "worker": "w-000001", "attempt": 1,
    },
    "lease_expired": {
        "run_id": "run-000001", "cell": "tenant0",
        "worker": "w-000001", "attempt": 1, "requeued": True,
    },
}


def test_every_kind_has_a_validating_example():
    assert set(EXAMPLES) == set(event_kinds())
    for kind, body in EXAMPLES.items():
        validate_event(event_envelope(kind, body, seq=0))


def test_envelope_sorts_body_and_stamps_version():
    envelope = event_envelope("error", {"run_id": "r", "message": "m"}, seq=3)
    assert list(envelope) == ["event", "v", "seq", "message", "run_id"]
    assert envelope["v"] == SCHEMA_VERSION
    with pytest.raises(ValueError):
        event_envelope("error", {"event": "spoofed"})


@pytest.mark.parametrize(
    "mutate",
    [
        lambda e: e.update(event="nonsense"),
        lambda e: e.update(v=SCHEMA_VERSION + 1),
        lambda e: e.pop("seq"),
        lambda e: e.update(seq=True),
        lambda e: e.update(seq=-1),
        lambda e: e.pop("message"),
        lambda e: e.update(message=42),
        lambda e: e.update(surprise="extra"),
    ],
    ids=[
        "unknown-kind", "wrong-version", "missing-seq", "bool-seq",
        "negative-seq", "missing-required", "mistyped-field",
        "undeclared-extra",
    ],
)
def test_validate_event_rejects(mutate):
    envelope = event_envelope("error", dict(EXAMPLES["error"]), seq=0)
    mutate(envelope)
    with pytest.raises(SchemaError):
        validate_event(envelope)


def test_validate_event_rejects_bool_where_int_expected():
    body = dict(EXAMPLES["cell"], offered=True)
    with pytest.raises(SchemaError):
        validate_event(event_envelope("cell", body, seq=0))


# -- metrics registry ---------------------------------------------------------


def test_registry_rejects_undeclared_and_retyped_names():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("repro_made_up_total")
    with pytest.raises(ValueError):
        registry.gauge("repro_cells_completed_total")  # declared a counter


def test_registry_get_or_create_is_stable_per_label_set():
    registry = MetricsRegistry()
    a = registry.counter("repro_tenant_requests_total", tenant="a")
    again = registry.counter("repro_tenant_requests_total", tenant="a")
    b = registry.counter("repro_tenant_requests_total", tenant="b")
    assert a is again and a is not b
    a.inc(2)
    b.inc()
    assert registry.counter_total("repro_tenant_requests_total") == 3


def test_histogram_quantiles_use_percentile_sorted():
    registry = MetricsRegistry()
    hist = registry.histogram(
        "repro_tenant_request_latency_seconds", tenant="a"
    )
    samples = [0.4, 0.1, 0.9, 0.2, 0.3]
    for s in samples:
        hist.observe(s)
    assert hist.count == 5
    assert hist.sum == pytest.approx(sum(samples))
    assert hist.quantile(50.0) == percentile_sorted(sorted(samples), 50.0)
    assert hist.quantile(99.0) == percentile_sorted(sorted(samples), 99.0)


def test_prometheus_rendering_shape():
    registry = MetricsRegistry()
    registry.counter("repro_runs_total", status="done").inc(2)
    registry.gauge("repro_jobs_inflight").set(1)
    hist = registry.histogram(
        "repro_tenant_request_latency_seconds", tenant='we"ird'
    )
    hist.observe(0.5)
    text = registry.render_prometheus()
    lines = text.splitlines()
    assert "# TYPE repro_runs_total counter" in lines
    assert 'repro_runs_total{status="done"} 2' in lines
    assert "# TYPE repro_jobs_inflight gauge" in lines
    # Exact-quantile histograms expose as Prometheus summaries.
    assert "# TYPE repro_tenant_request_latency_seconds summary" in lines
    assert (
        'repro_tenant_request_latency_seconds{tenant="we\\"ird",'
        'quantile="0.5"} 0.5' in lines
    )
    assert (
        'repro_tenant_request_latency_seconds_count{tenant="we\\"ird"} 1'
        in lines
    )
    # HELP precedes TYPE for every family, families sorted by name.
    helps = [l.split()[2] for l in lines if l.startswith("# HELP")]
    assert helps == sorted(helps)
    assert metric_names() == sorted(METRICS)


# -- every emittable kind appears on a real stream ----------------------------


def test_all_event_kinds_emitted_across_run_shapes(tmp_path, monkeypatch):
    seen = set()

    # 1. A fresh journaled run: queued/running/cell/progress/counter/
    #    gauge/report.
    journal_path = tmp_path / "journal"
    store = JobStore(workers=1, journal=journal_path)
    try:
        run_id = store.submit(parse_run_request(BODY))
        events = _drain(store, run_id)
        report = next(e for e in events if e["event"] == "report")["report"]
        counters = {
            e["name"]: e["value"] for e in events if e["event"] == "counter"
        }
        assert counters["requests_offered"] == report["offered"]
        assert counters["requests_completed"] == report["completed"]
        assert counters["requests_failed"] == report["failed"]
        assert counters["cells_completed"] == 3
        assert {
            e["labels"]["phase"] for e in events if e["event"] == "gauge"
        } == {"prepare", "execute", "finalize"}
        assert store.metrics.counter_total("repro_cells_completed_total") == 3
        assert (
            store.metrics.counter_total("repro_tenant_requests_total")
            == report["offered"]
        )
        assert store.metrics.counter_total("repro_journal_fsyncs_total") > 0
    finally:
        store.close()
    seen.update(e["event"] for e in events)

    # 2. Resume from a copy of that log cut just before its last cell
    #    line: recovered, then the one missing cell re-executed, seq
    #    strictly increasing across the cut.
    lines = (journal_path / f"{run_id}.ndjson").read_text().splitlines(True)
    last_cell = max(
        i for i, line in enumerate(lines)
        if json.loads(line)["event"] == "cell"
    )
    resume_path = tmp_path / "resume"
    resume_path.mkdir()
    (resume_path / f"{run_id}.ndjson").write_text("".join(lines[:last_cell]))
    store = JobStore(workers=1, journal=resume_path)
    try:
        events = _drain(store, run_id)
        resumed_report = next(
            e for e in events if e["event"] == "report"
        )["report"]
        assert resumed_report == report  # resume is invisible in the report
        cells = [e["cell"] for e in events if e["event"] == "cell"]
        assert sorted(cells) == ["tenant0", "tenant1", "tenant2"]
        assert events[last_cell]["event"] == "recovered"
        counters = {
            e["name"]: e["value"] for e in events if e["event"] == "counter"
        }
        assert counters["requests_offered"] == report["offered"]
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert store.metrics.counter_total("repro_cells_resumed_total") == 2
    finally:
        store.close()
    seen.update(e["event"] for e in events)

    # 3. A degraded run: a poison fault on every attempt of one cell
    #    under on_cell_failure=skip — the terminal event is "degraded"
    #    and the report carries the failed cell.
    store = JobStore(workers=1)
    try:
        run_id = store.submit(parse_run_request(dict(
            BODY,
            retry={"max_attempts": 1},
            faults=[{"kind": "poison", "cell": "tenant0", "attempt": 0}],
            on_cell_failure="skip",
        )))
        events = _drain(store, run_id)
        terminal = events[-1]
        assert terminal["event"] == "degraded"
        assert terminal["failed_cells"] == 1
        failed = terminal["report"]["replay"]["failed_cells"]
        assert [(f["cell"], f["kind"], f["attempts"]) for f in failed] == [
            ("tenant0", "poison", 1)
        ]
        snapshot = store.snapshot(run_id)
        assert snapshot["status"] == "done" and snapshot["degraded"] is True
        assert store.metrics.snapshot()["repro_runs_total"] == {
            (("status", "degraded"),): 1.0
        }
    finally:
        store.close()
    seen.update(e["event"] for e in events)

    # 4. A run whose engine raises: the error terminal event.
    def boom(*args, **kwargs):
        raise RuntimeError("engine exploded")

    real_replay = jobs_module.replay
    monkeypatch.setattr(jobs_module, "replay", boom)
    store = JobStore(workers=1)
    try:
        run_id = store.submit(parse_run_request(BODY))
        events = _drain(store, run_id)
        assert events[-1]["event"] == "error"
        assert "engine exploded" in events[-1]["message"]
        assert store.metrics.snapshot()["repro_runs_total"] == {
            (("status", "failed"),): 1.0
        }
    finally:
        store.close()
    seen.update(e["event"] for e in events)

    # 5. Interrupted runs: one swept while queued, one swept while its
    #    worker is stuck past close()'s timeout.  The attached follower
    #    terminates instead of hanging forever (the satellite bugfix).
    release = threading.Event()

    def stuck(*args, **kwargs):
        release.wait(timeout=10)
        return real_replay(*args, **kwargs)

    monkeypatch.setattr(jobs_module, "replay", stuck)
    store = JobStore(workers=1)
    running_id = store.submit(parse_run_request(BODY))
    queued_id = store.submit(parse_run_request(BODY))
    collected = []
    follower = threading.Thread(
        target=lambda: collected.extend(store.follow(running_id)),
        daemon=True,
    )
    follower.start()
    for _ in range(200):
        if store.counts()["running"]:
            break
        threading.Event().wait(0.02)
    store.close(timeout_s=0.2)
    release.set()
    follower.join(timeout=10)
    assert not follower.is_alive(), "follower hung on an interrupted run"
    assert collected[-1]["event"] == "interrupted"
    queued_events = list(store.follow(queued_id))
    assert queued_events[-1]["event"] == "interrupted"
    seen.update(e["event"] for e in collected)
    seen.update(e["event"] for e in queued_events)

    # 6. A remote-fleet run: lease events per grant, plus a
    #    lease_expired from a grant deliberately left to time out
    #    (requeued at attempt 2 and finished by the driver) — and a
    #    report byte-identical to the local run of shape 1.
    from repro.worker import _execute_grant

    import time as time_module

    remote_body = dict(BODY, workers="remote", retry={"max_attempts": 2})
    store = JobStore(workers=1, lease_timeout_s=30.0)
    stop = threading.Event()
    try:
        run_id = store.submit(parse_run_request(remote_body))
        lurker = store.fleet.register(name="lurker")["worker"]
        abandoned = None
        while abandoned is None:
            abandoned = store.fleet.lease(lurker, wait_s=1.0)
        # Expire the abandoned lease deterministically — sweep as if the
        # deadline already passed (no other lease is active yet, and the
        # heartbeat deadline is far beyond this horizon).
        store.fleet.expire(time_module.monotonic() + 31.0)

        def drive():
            worker = store.fleet.register(name="driver")["worker"]
            while not stop.is_set():
                try:
                    grant = store.fleet.lease(worker, wait_s=0.2)
                except Exception:
                    return
                if grant is None:
                    continue
                outcome = _execute_grant(grant)
                try:
                    store.fleet.complete(grant["lease"], worker, **outcome)
                except Exception:
                    pass

        driver = threading.Thread(target=drive, daemon=True)
        driver.start()
        events = _drain(store, run_id)
        assert events[-1]["event"] == "report"
        assert events[-1]["report"] == report
        leases = [e for e in events if e["event"] == "lease"]
        assert {e["cell"] for e in leases} == set(report["tenants"])
        expired = [e for e in events if e["event"] == "lease_expired"]
        assert [(e["cell"], e["attempt"], e["requeued"]) for e in expired] == [
            (abandoned["cell"], 1, True)
        ]
        assert any(
            e["cell"] == abandoned["cell"] and e["attempt"] == 2
            for e in leases
        )
    finally:
        stop.set()
        store.close()
        driver.join(timeout=10)
    seen.update(e["event"] for e in events)

    # Everything the schema declares was actually observed.
    assert seen == set(event_kinds())


# -- serial, pool, and fleet carry identical counter totals -------------------


@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=1023),
    tenants=st.integers(min_value=2, max_value=5),
)
def test_serial_pool_fleet_counter_totals_match(seed, tenants):
    body = {
        "app": "wc",
        "seed": seed,
        "synth": {
            "tenants": tenants, "duration_s": 10,
            "mean_rpm": 40, "seed": seed,
        },
    }
    from repro.worker import _execute_grant

    totals = {}
    for workers in (1, 2, "remote"):
        store = JobStore(workers=1)
        stop = threading.Event()

        def drive():
            worker = store.fleet.register(name="driver")["worker"]
            while not stop.is_set():
                grant = store.fleet.lease(worker, wait_s=0.2)
                if grant is not None:
                    store.fleet.complete(
                        grant["lease"], worker, **_execute_grant(grant)
                    )

        driver = threading.Thread(target=drive, daemon=True)
        driver.start()
        try:
            run_id = store.submit(
                parse_run_request(dict(body, workers=workers))
            )
            events = _drain(store, run_id)
        finally:
            stop.set()
            driver.join(timeout=10)
            store.close()
        report = next(e for e in events if e["event"] == "report")["report"]
        counters = {
            e["name"]: e["value"] for e in events if e["event"] == "counter"
        }
        assert counters["requests_offered"] == report["offered"]
        assert counters["requests_completed"] == report["completed"]
        assert counters["requests_failed"] == report["failed"]
        assert counters["cells_completed"] == sum(
            1 for e in events if e["event"] == "cell"
        )
        totals[workers] = counters
    assert totals[1] == totals[2] == totals["remote"]
