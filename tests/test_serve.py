"""In-process tests for the ``repro serve`` HTTP orchestration service.

The server boots on an ephemeral port (``port=0``) inside the test
process; clients are plain :mod:`urllib.request`.  The load-bearing
assertions mirror the acceptance criteria: a served report is
byte-identical to the same seed replayed via ``repro replay``, the
NDJSON stream yields per-cell progress before the final report, and a
bad inline ``tenant_config`` dies as a 400 naming the tenant.
"""

import contextlib
import io
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.metrics.report import render_json
from repro.metrics.telemetry import SCHEMA_VERSION, validate_event
from repro.parallel.profiles import TenantConfig
from repro.serve import create_server

TRACE = {
    "name": "t",
    "events": [
        {"at_s": 0.0, "tenant": "a"},
        {"at_s": 0.5, "tenant": "b", "input_bytes": "1MB"},
        {"at_s": 1.0, "tenant": "a", "fanout": 2},
    ],
}

RUN_BODY = {"app": "wc", "seed": 7, "trace": TRACE}

TENANT_CONFIG = {
    "default": {"placement": "round_robin"},
    "tenants": {"a": {"system": "faasflow", "placement": "hashed"}},
}


@pytest.fixture(scope="module")
def server():
    srv = create_server(port=0, workers=2, quiet=True)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.close()
    thread.join(timeout=10)


def _get(server, path):
    try:
        with urllib.request.urlopen(server.url + path) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post(server, path, payload, raw=None):
    data = raw if raw is not None else json.dumps(payload).encode()
    request = urllib.request.Request(server.url + path, data=data,
                                     method="POST")
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _await_done(server, run_id, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, snap = _get(server, f"/v1/runs/{run_id}")
        assert status == 200
        if snap["status"] in ("done", "failed"):
            return snap
        time.sleep(0.05)
    raise AssertionError(f"run {run_id} did not finish within {timeout_s}s")


def _submit_and_wait(server, body):
    status, submitted = _post(server, "/v1/runs", body)
    assert status == 202
    assert submitted["status"] == "queued"
    assert submitted["url"] == f"/v1/runs/{submitted['id']}"
    return _await_done(server, submitted["id"])


def _cli_replay_report(tmp_path, trace, argv_tail):
    """The `repro replay --format json` report for an inline trace."""
    path = tmp_path / f"{trace['name']}.json"
    path.write_text(json.dumps(trace))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["replay", str(path), "--format", "json"] + argv_tail)
    assert code == 0
    report = json.loads(out.getvalue())
    # Scheduling facts and the file path are not part of the
    # deterministic report body.
    report.pop("parallel")
    report.pop("trace")
    return report


# -- registries and liveness --------------------------------------------------


def test_healthz(server):
    status, payload = _get(server, "/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert set(payload["jobs"]) == {
        "queued", "running", "done", "failed", "interrupted"
    }
    assert payload["workers"] == 2


def test_registry_endpoints(server):
    status, apps = _get(server, "/v1/apps")
    assert status == 200
    assert "wc" in {app["name"] for app in apps["apps"]}
    status, systems = _get(server, "/v1/systems")
    assert status == 200
    assert {"dataflower", "faasflow", "sonic", "production"} <= {
        system["name"] for system in systems["systems"]
    }
    status, policies = _get(server, "/v1/policies")
    assert status == 200
    assert "round_robin" in policies["policies"]["placement"]
    assert "tenant" in policies["policies"]["shard"]


def test_unknown_paths_and_runs_404(server):
    assert _get(server, "/nope")[0] == 404
    assert _get(server, "/v1/runs/run-999999")[0] == 404
    assert _get(server, "/v1/runs/run-999999/events")[0] == 404
    assert _post(server, "/v1/nope", {})[0] == 404


# -- run lifecycle ------------------------------------------------------------


def test_run_report_byte_identical_to_cli_replay(server, tmp_path):
    snap = _submit_and_wait(server, RUN_BODY)
    assert snap["status"] == "done"
    assert snap["cells_done"] == 2
    reference = _cli_replay_report(
        tmp_path, TRACE, ["--app", "wc", "--seed", "7"]
    )
    assert render_json(snap["report"]) == render_json(reference)


def test_run_listing_contains_submitted_runs(server):
    snap = _submit_and_wait(server, RUN_BODY)
    status, listing = _get(server, "/v1/runs")
    assert status == 200
    assert {"id": snap["id"], "status": "done",
            "url": f"/v1/runs/{snap['id']}"} in listing["runs"]


def test_synth_run_and_engine_knobs(server, tmp_path):
    body = {
        "app": "wc",
        "seed": 3,
        "synth": {"tenants": 3, "duration_s": 10.0, "mean_rpm": 30.0,
                  "seed": 9, "name": "synthetic"},
        "workers": 2,
    }
    snap = _submit_and_wait(server, body)
    assert snap["status"] == "done", snap.get("error")
    # Same synthesis via the CLI: synth then replay must match exactly.
    out = io.StringIO()
    synth_path = tmp_path / "synthetic.json"
    with contextlib.redirect_stdout(out):
        assert main(["synth", "--tenants", "3", "--duration-s", "10",
                     "--mean-rpm", "30", "--seed", "9",
                     "--output", str(synth_path)]) == 0
    trace = json.loads(synth_path.read_text())
    reference = _cli_replay_report(
        tmp_path, trace, ["--app", "wc", "--seed", "3"]
    )
    assert render_json(snap["report"]) == render_json(reference)


def test_concurrent_submissions_converge(server, tmp_path):
    ids = []
    for _ in range(4):
        status, submitted = _post(server, "/v1/runs", RUN_BODY)
        assert status == 202
        ids.append(submitted["id"])
    reports = [
        render_json(_await_done(server, run_id)["report"]) for run_id in ids
    ]
    assert len(set(reports)) == 1  # same seed, same report, any scheduling
    reference = _cli_replay_report(
        tmp_path, TRACE, ["--app", "wc", "--seed", "7"]
    )
    assert reports[0] == render_json(reference)


def test_tenant_config_run_tags_report(server):
    body = dict(RUN_BODY, tenant_config=TENANT_CONFIG)
    snap = _submit_and_wait(server, body)
    assert snap["status"] == "done", snap.get("error")
    profile = snap["report"]["tenants"]["a"]["profile"]
    assert profile == {"system": "faasflow", "placement": "hashed",
                       "source": "tenant"}


# -- NDJSON event stream ------------------------------------------------------


def test_events_stream_cells_before_report(server):
    snap = _submit_and_wait(server, RUN_BODY)
    with urllib.request.urlopen(
        server.url + f"/v1/runs/{snap['id']}/events"
    ) as response:
        assert response.headers["Content-Type"] == "application/x-ndjson"
        lines = response.read().splitlines()
    events = [json.loads(line) for line in lines]
    kinds = [event["event"] for event in events]
    # Multi-cell replay: at least one per-cell progress record arrives
    # before the final merged report (the acceptance criterion).
    assert kinds[0] == "queued"
    assert "cell" in kinds
    assert kinds.index("cell") < kinds.index("report")
    assert kinds.count("cell") == 2
    assert [event["seq"] for event in events] == list(range(len(events)))
    assert all(event["v"] == SCHEMA_VERSION for event in events)
    for event in events:
        validate_event(event)
    cell = events[kinds.index("cell")]
    assert {"cell", "offered", "completed", "failed", "run_id"} <= set(cell)
    report_event = events[kinds.index("report")]
    assert report_event["report"] == snap["report"]


def test_events_stream_follows_live(server):
    """A subscriber attached before completion still sees every event."""
    status, submitted = _post(server, "/v1/runs", RUN_BODY)
    assert status == 202
    with urllib.request.urlopen(
        server.url + f"/v1/runs/{submitted['id']}/events"
    ) as response:
        kinds = [json.loads(line)["event"] for line in response]
    assert kinds[0] == "queued"
    assert kinds[-1] in ("report", "error")
    assert "cell" in kinds


# -- telemetry surfaces: /metrics, /dashboard, streaming client ---------------


def test_metrics_endpoint_exposes_tenant_and_worker_series(server):
    _submit_and_wait(server, RUN_BODY)
    with urllib.request.urlopen(server.url + "/metrics") as response:
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        text = response.read().decode("utf-8")
    # Per-tenant latency histograms (as Prometheus summaries) and the
    # worker-pool gauges — the acceptance criteria for /metrics.
    assert "# TYPE repro_tenant_request_latency_seconds summary" in text
    assert 'repro_tenant_request_latency_seconds{tenant="a",quantile="0.5"}' \
        in text
    assert 'repro_tenant_requests_total{tenant="a"}' in text
    assert "repro_job_workers 2" in text
    assert "repro_jobs_inflight " in text
    assert "repro_jobs_queued " in text
    assert 'repro_runs_total{status="done"}' in text
    assert "repro_cells_completed_total " in text
    assert "# TYPE repro_run_phase_seconds summary" in text


def test_dashboard_page_bakes_in_schema_version(server):
    with urllib.request.urlopen(server.url + "/dashboard") as response:
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/html")
        page = response.read().decode("utf-8")
    assert f"const SCHEMA_VERSION = {SCHEMA_VERSION};" in page
    assert "__SCHEMA_VERSION__" not in page  # placeholder fully substituted
    assert "__EVENT_KINDS__" not in page
    assert "/v1/runs" in page  # tails the events stream via fetch


def test_dashboard_opt_out_is_404():
    srv = create_server(port=0, workers=1, quiet=True, dashboard=False)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        status, payload = _get(srv, "/dashboard")
        assert status == 404
        assert "dashboard" in payload["error"]
        # The rest of the surface is unaffected by the opt-out.
        assert _get(srv, "/healthz")[0] == 200
    finally:
        srv.close()
        thread.join(timeout=10)


def test_streaming_client_end_to_end(server):
    from repro.serve import ServeClient, ServeError

    client = ServeClient(server.url)
    assert client.healthz()["status"] == "ok"
    assert "wc" in {app["name"] for app in client.apps()}
    run_id = client.submit(RUN_BODY)
    events = list(client.events(run_id))  # validates schema + seq order
    kinds = [event["event"] for event in events]
    assert kinds[0] == "queued"
    assert kinds[-1] == "report"
    report = client.report(run_id)
    counters = {
        event["name"]: event["value"]
        for event in events if event["event"] == "counter"
    }
    assert counters["requests_offered"] == report["offered"]
    assert counters["requests_completed"] == report["completed"]
    assert counters["requests_failed"] == report["failed"]
    assert run_id in {run["id"] for run in client.runs()}
    assert "repro_runs_total" in client.metrics_text()
    assert client.run(RUN_BODY) == report  # submit/stream/report one-liner
    with pytest.raises(ServeError) as excinfo:
        client.status("run-999999")
    assert excinfo.value.status == 404


def test_events_keepalive_comment_lines_on_idle_run(monkeypatch):
    """A follower on a stalled run gets ': keepalive' comment lines
    instead of unbounded silence, and still sees the terminal event."""
    import repro.serve.jobs as jobs_module

    real_replay = jobs_module.replay
    release = threading.Event()

    def slow_replay(*args, **kwargs):
        release.wait(timeout=30)
        return real_replay(*args, **kwargs)

    monkeypatch.setattr(jobs_module, "replay", slow_replay)
    srv = create_server(port=0, workers=1, quiet=True, keepalive_s=0.05)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        status, submitted = _post(srv, "/v1/runs", RUN_BODY)
        assert status == 202
        saw_keepalive = False
        events = []
        with urllib.request.urlopen(
            srv.url + f"/v1/runs/{submitted['id']}/events"
        ) as response:
            for raw in response:
                line = raw.decode("utf-8").strip()
                if line.startswith(":"):
                    saw_keepalive = True
                    release.set()  # un-stall the run; stream should end
                    continue
                if line:
                    events.append(json.loads(line))
        assert saw_keepalive
        assert events[-1]["event"] == "report"
    finally:
        release.set()
        srv.close()
        thread.join(timeout=10)


# -- fail-fast validation (400s) ---------------------------------------------


def test_bad_tenant_config_is_400_naming_tenant(server):
    body = dict(RUN_BODY,
                tenant_config={"tenants": {"a": {"system": "fooflow"}}})
    status, payload = _post(server, "/v1/runs", body)
    assert status == 400
    assert "tenant 'a'" in payload["error"]
    assert "unknown system 'fooflow'" in payload["error"]


@pytest.mark.parametrize("mutation, fragment", [
    ({"app": "nope"}, "unknown benchmark"),
    ({"system": "warpdrive"}, "unknown system"),
    ({"placement": "warp"}, "placement"),
    ({"workers": 0}, "workers"),
    # The batched-engine switch is gone: the key is now simply unknown.
    pytest.param({"stream": True}, "unknown request keys ['stream']",
                 id="mutation4-stream"),
    ({"seed": "seven"}, "seed"),
    ({"timeout_s": -1}, "timeout_s"),
    ({"unknown_key": 1}, "unknown request keys"),
    ({"synth": {"tenants": 2}}, "exactly one of"),
    ({"trace": {"events": []}}, "non-empty"),
])
def test_bad_run_bodies_are_400(server, mutation, fragment):
    status, payload = _post(server, "/v1/runs", dict(RUN_BODY, **mutation))
    assert status == 400, payload
    assert fragment in payload["error"]


def test_appless_trace_without_default_app_is_400(server):
    body = {"trace": TRACE, "seed": 1}
    status, payload = _post(server, "/v1/runs", body)
    assert status == 400
    assert "naming no app" in payload["error"]


def test_invalid_json_body_is_400(server):
    status, payload = _post(server, "/v1/runs", None, raw=b"{nope")
    assert status == 400
    assert "invalid JSON" in payload["error"]


def test_non_object_body_is_400(server):
    status, payload = _post(server, "/v1/runs", ["not", "an", "object"])
    assert status == 400
    assert "JSON object" in payload["error"]


def test_negative_content_length_is_400(server):
    # rfile.read(-1) would block until client EOF; must be rejected.
    import http.client

    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.putrequest("POST", "/v1/runs")
        conn.putheader("Content-Length", "-1")
        conn.endheaders()
        response = conn.getresponse()
        assert response.status == 400
        assert "Content-Length" in json.loads(response.read())["error"]
    finally:
        conn.close()


# -- bounded retention --------------------------------------------------------


def test_finished_jobs_evict_oldest_first():
    from repro.serve import UnknownJob, parse_run_request
    from repro.serve.jobs import JobStore

    store = JobStore(workers=1, max_finished=2)
    try:
        ids = [store.submit(parse_run_request(RUN_BODY)) for _ in range(4)]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            listing = store.list()
            if {entry["id"] for entry in listing} == set(ids[-2:]) and all(
                entry["status"] == "done" for entry in listing
            ):
                break
            time.sleep(0.05)
        else:
            raise AssertionError(f"eviction never converged: {store.list()}")
        with pytest.raises(UnknownJob):
            store.snapshot(ids[0])
        assert store.snapshot(ids[-1])["status"] == "done"
    finally:
        store.close()


# -- server-level default tenant config --------------------------------------


def test_server_default_tenant_config_applies():
    config = TenantConfig.from_payload(TENANT_CONFIG)
    srv = create_server(port=0, workers=1,
                        default_tenant_config=config, quiet=True)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        snap = _submit_and_wait(srv, RUN_BODY)
        assert snap["status"] == "done", snap.get("error")
        assert snap["report"]["tenants"]["a"]["profile"]["system"] == (
            "faasflow"
        )
        # An inline tenant_config overrides the server default entirely.
        body = dict(RUN_BODY, tenant_config={"tenants": {}})
        snap = _submit_and_wait(srv, body)
        assert "profile" not in snap["report"]["tenants"]["a"]
    finally:
        srv.close()
        thread.join(timeout=10)


# -- CLI wiring ---------------------------------------------------------------


def test_cli_serve_rejects_bad_flags(capsys):
    assert main(["serve", "--port", "-1"]) == 2
    assert "--port" in capsys.readouterr().err
    assert main(["serve", "--workers", "0"]) == 2
    assert "--workers" in capsys.readouterr().err


def test_cli_serve_bad_tenant_config_fails_at_boot(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"tenants": {"a": {"system": "fooflow"}}}')
    assert main(["serve", "--port", "0",
                 "--tenant-config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "tenant 'a'" in err and "fooflow" in err
