"""Bounded-memory serve surfaces: the per-run event log file,
paginated records, and paginated run listings.

Three families:

- **Event log**: each run's events live only in its append-only NDJSON
  file, so a follower — live, late, or attached before the run was
  evicted — sees the complete, gap-free, seq-ordered stream with the
  terminal event last (the client's strict seq validation is the
  witness); snapshot progress counters are counters, not log reads;
  and no file descriptor outlives the run that used it.
- **Records pagination**: ``GET /v1/runs/<id>/records`` pages the
  canonical merged record sequence by absolute index without
  materializing it per request — for both the in-RAM list and the
  disk-spilled sequence — with 409s once records are unavailable.
- **Runs pagination**: ``GET /v1/runs?cursor=&limit=`` walks the
  submission-ordered listing with a cursor that stays stable under
  eviction, and ``ServeClient`` pages both surfaces transparently.
"""

import json
import os
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro.serve.jobs as jobs_module
from repro.metrics.report import render_event
from repro.serve import ServeClient, create_server, parse_run_request
from repro.serve.jobs import Job, JobStore, RecordsUnavailable, UnknownJob

TRACE = {
    "name": "t",
    "events": [
        {"at_s": 0.0, "tenant": "a"},
        {"at_s": 0.5, "tenant": "b", "input_bytes": "1MB"},
        {"at_s": 1.0, "tenant": "a", "fanout": 2},
    ],
}

RUN_BODY = {"app": "wc", "seed": 7, "trace": TRACE}


def _get(server, path):
    try:
        with urllib.request.urlopen(server.url + path) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post(server, path, payload):
    request = urllib.request.Request(
        server.url + path, data=json.dumps(payload).encode(), method="POST"
    )
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


def _store_await_done(store, run_id, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        snap = store.snapshot(run_id)
        if snap["status"] in ("done", "failed"):
            assert snap["status"] == "done", snap.get("error")
            return snap
        time.sleep(0.05)
    raise AssertionError(f"run {run_id} did not finish within {timeout_s}s")


@pytest.fixture(scope="module")
def server():
    srv = create_server(port=0, workers=1, quiet=True)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.close()
    thread.join(timeout=10)


# -- event log ----------------------------------------------------------------


def _assert_complete(events):
    """Complete from seq 0, strictly consecutive, terminal last."""
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert events[0]["event"] == "queued"
    assert events[-1]["event"] == "report"


def test_late_follower_replays_the_logged_history():
    store = JobStore(workers=1)
    try:
        run_id = store.submit(parse_run_request(RUN_BODY))
        _store_await_done(store, run_id)
        lines = [
            line for line in store.follow_lines(run_id) if line is not None
        ]
        events = [json.loads(line) for line in lines]
        _assert_complete(events)
        # Each stored line is the envelope's one rendering.
        assert [line.decode() for line in lines] == [
            render_event(event) + "\n" for event in events
        ]
        # A second (late) follower replays the same full history.
        again = [e for e in store.follow(run_id) if e is not None]
        assert again == events
    finally:
        store.close()


def test_snapshot_progress_counts_every_cell():
    store = JobStore(workers=1)
    try:
        run_id = store.submit(parse_run_request(RUN_BODY))
        snap = _store_await_done(store, run_id)
        assert snap["cells_done"] == snap["cells"] == 2
        assert snap["report"] is not None
    finally:
        store.close()


def test_follower_attached_before_eviction_gets_the_whole_history():
    """The follower's open log file outlives the run's eviction."""
    store = JobStore(workers=1, max_finished=1)
    try:
        first = store.submit(parse_run_request(RUN_BODY))
        _store_await_done(store, first)
        follower = store.follow(first)
        events = [next(follower)]  # attached: the log file is open
        log = store._log_path(first)
        assert log.exists()
        # A second finished run pushes the first past max_finished.
        second = store.submit(parse_run_request(RUN_BODY))
        _store_await_done(store, second)
        with pytest.raises(UnknownJob):
            store.snapshot(first)
        assert not log.exists()
        events.extend(e for e in follower if e is not None)
        _assert_complete(events)
        assert all(e["run_id"] == first for e in events)
        assert [e["event"] for e in events].count("cell") == 2
    finally:
        store.close()


def test_concurrent_followers_never_read_a_partial_line():
    """More job workers and followers than cores, with a tiny switch
    interval: every follower still gets each run's complete history."""
    store = JobStore(workers=3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_ids = [
            store.submit(parse_run_request(RUN_BODY)) for _ in range(3)
        ]
        seen = {}

        def follow(key, run_id):
            seen[key] = [e for e in store.follow(run_id) if e is not None]

        threads = [
            threading.Thread(target=follow, args=((run_id, i), run_id))
            for run_id in run_ids
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        store.close()
    assert len(seen) == len(threads)
    for (run_id, _), events in seen.items():
        _assert_complete(events)
        assert events == seen[(run_id, 0)]
        assert all(e["run_id"] == run_id for e in events)


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="counts /proc/self/fd"
)
def test_open_file_descriptors_do_not_grow_with_finished_runs():
    store = JobStore(workers=1)
    try:
        def run_once():
            run_id = store.submit(parse_run_request(RUN_BODY))
            _store_await_done(store, run_id)
            assert list(store.follow(run_id))[-1]["event"] == "report"

        run_once()  # warm-up: lazy imports and first-use handles
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(20):
            run_once()
        after = len(os.listdir("/proc/self/fd"))
        assert after - before < 5, (before, after)
    finally:
        store.close()


def test_streaming_client_validates_spooled_history(server):
    """End-to-end: the client sees the run's whole logged stream,
    schema-valid with strictly increasing seq (the client raises on any
    gap-induced regression or missing terminal), and a late follower
    replays exactly what the live one saw."""
    client = ServeClient(server.url)
    run_id = client.submit(RUN_BODY)
    events = list(client.events(run_id))
    kinds = [event["event"] for event in events]
    assert kinds[0] == "queued"
    assert kinds[-1] == "report"
    assert kinds.count("cell") == 2
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert list(client.events(run_id)) == events


# -- records pagination -------------------------------------------------------


def _records_run(server, body=RUN_BODY):
    status, submitted = _post(server, "/v1/runs", body)
    assert status == 202
    snap = _await_done(server, submitted["id"])
    assert snap["status"] == "done", snap.get("error")
    return submitted["id"]


def test_records_endpoint_pages_canonical_sequence(server):
    run_id = _records_run(server)
    status, full = _get(server, f"/v1/runs/{run_id}/records")
    assert status == 200
    assert full["run"] == run_id
    assert full["total"] == len(full["records"]) == 3
    assert full["cursor"] == 0
    assert full["next_cursor"] is None
    # Canonical merge order: ascending (submit_time, request_id).
    keys = [(r["submit_time"], r["request_id"]) for r in full["records"]]
    assert keys == sorted(keys)

    paged = []
    cursor = 0
    while cursor is not None:
        status, page = _get(
            server, f"/v1/runs/{run_id}/records?cursor={cursor}&limit=2"
        )
        assert status == 200
        assert len(page["records"]) <= 2
        paged.extend(page["records"])
        cursor = page["next_cursor"]
    assert paged == full["records"]

    # Past-the-end cursor: an empty terminal page, not an error.
    status, past = _get(server, f"/v1/runs/{run_id}/records?cursor=99")
    assert status == 200
    assert past["records"] == [] and past["next_cursor"] is None


def test_records_endpoint_rejects_bad_query(server):
    run_id = _records_run(server)
    for query in ("cursor=x", "limit=0", "cursor=-1"):
        status, body = _get(server, f"/v1/runs/{run_id}/records?{query}")
        assert status == 400, (query, body)
    status, body = _get(server, "/v1/runs/run-999999/records")
    assert status == 404


def test_records_unavailable_before_done_and_after_drop(monkeypatch):
    monkeypatch.setattr(jobs_module, "MAX_RECORD_RUNS", 1)
    store = JobStore(workers=1)
    try:
        store._jobs["run-999990"] = Job(
            id="run-999990", request=None, status="running"
        )
        with pytest.raises(RecordsUnavailable, match="is running"):
            store.records_page("run-999990")
        first = store.submit(parse_run_request(RUN_BODY))
        _store_await_done(store, first)
        assert store.records_page(first)["total"] == 3
        second = store.submit(parse_run_request(RUN_BODY))
        _store_await_done(store, second)
        # The retention window holds one run's records: the older
        # handle dropped, its report stayed.
        with pytest.raises(RecordsUnavailable, match="no longer retains"):
            store.records_page(first)
        assert store.snapshot(first)["report"] is not None
        assert store.records_page(second)["total"] == 3
    finally:
        store.close()


def test_journal_restored_runs_answer_409_for_records(tmp_path):
    journal = tmp_path / "journal"
    store = JobStore(workers=1, journal=journal)
    try:
        run_id = store.submit(parse_run_request(RUN_BODY))
        _store_await_done(store, run_id)
    finally:
        store.close()
    restored = JobStore(workers=1, journal=journal)
    try:
        assert restored.snapshot(run_id)["status"] == "done"
        with pytest.raises(RecordsUnavailable, match="no longer retains"):
            restored.records_page(run_id)
    finally:
        restored.close()


def test_spill_sink_run_pages_records_and_matches_memory(server):
    memory_id = _records_run(server)
    spill_id = _records_run(
        server,
        dict(RUN_BODY, max_records_in_memory=1),
    )
    _, memory_snap = _get(server, f"/v1/runs/{memory_id}")
    _, spill_snap = _get(server, f"/v1/runs/{spill_id}")
    # The threshold is a memory tuning, not part of the request echo.
    assert "record_sink" not in spill_snap["request"]
    assert spill_snap["request"] == memory_snap["request"]
    assert spill_snap["report"] == memory_snap["report"]
    _, memory_records = _get(server, f"/v1/runs/{memory_id}/records")
    _, spill_records = _get(server, f"/v1/runs/{spill_id}/records")
    assert spill_records["records"] == memory_records["records"]


def test_record_sink_validation_errors(server):
    # The sink-kind switch is gone: the key is unknown, like "stream".
    for kind in ("spill", "memory"):
        status, body = _post(
            server, "/v1/runs", dict(RUN_BODY, record_sink=kind)
        )
        assert status == 400
        assert "unknown request keys ['record_sink']" in body["error"]
    status, body = _post(
        server, "/v1/runs", dict(RUN_BODY, max_records_in_memory=0)
    )
    assert status == 400 and "max_records_in_memory" in body["error"]
    status, body = _post(
        server, "/v1/runs", dict(RUN_BODY, max_records_in_memory="5")
    )
    assert status == 400 and "max_records_in_memory" in body["error"]


def test_client_records_generator_pages_transparently(server):
    client = ServeClient(server.url)
    run_id = _records_run(server)
    _, full = _get(server, f"/v1/runs/{run_id}/records")
    assert list(client.records(run_id, page_size=1)) == full["records"]
    with pytest.raises(Exception, match="HTTP 404"):
        list(client.records("run-999999"))


# -- runs pagination ----------------------------------------------------------


def test_runs_listing_pages_with_stable_cursor(server):
    ids = [_records_run(server) for _ in range(3)]
    status, full = _get(server, "/v1/runs")
    assert status == 200
    listed = [row["id"] for row in full["runs"]]
    assert full["next_cursor"] is None
    assert [i for i in listed if i in ids] == ids  # submission order

    seen = []
    cursor = ""
    while cursor is not None:
        suffix = f"&cursor={cursor}" if cursor else ""
        status, page = _get(server, f"/v1/runs?limit=2{suffix}")
        assert status == 200
        assert len(page["runs"]) <= 2
        seen.extend(row["id"] for row in page["runs"])
        cursor = page["next_cursor"]
    assert seen == listed

    status, _body = _get(server, "/v1/runs?limit=0")
    assert status == 400


def test_runs_cursor_stable_under_eviction():
    store = JobStore(workers=1, max_finished=2)
    try:
        ids = [store.submit(parse_run_request(RUN_BODY)) for _ in range(2)]
        for run_id in ids:
            _store_await_done(store, run_id)
        page, cursor = store.list_page(limit=1)
        assert [row["id"] for row in page] == [ids[0]] and cursor == ids[0]
        # Two more submissions evict both original runs (max_finished=2);
        # the held cursor still resumes correctly — monotonic ids mean
        # already-seen ids can only disappear, never reorder, so the
        # walk continues at the first retained id past the cursor.
        more = [store.submit(parse_run_request(RUN_BODY)) for _ in range(2)]
        for run_id in more:
            _store_await_done(store, run_id)
        rest, cursor = store.list_page(cursor=cursor)
        assert [row["id"] for row in rest] == more
        assert cursor is None
    finally:
        store.close()


def test_client_runs_pages_transparently(server):
    client = ServeClient(server.url)
    _records_run(server)
    status, full = _get(server, "/v1/runs")
    assert status == 200
    assert client.runs(page_size=2) == full["runs"]
    assert client.runs() == full["runs"]
