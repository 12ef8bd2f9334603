"""Fault-injection tests for the durable run journal.

The journal is the crash-safety spine of ``repro serve --journal``, so
these tests attack the file itself: torn final writes, corrupt lines,
duplicate and orphan records must all be absorbed at load time (the
affected work simply re-runs — startup never crashes on a journal a
dying process left behind).  The :class:`JobStore` lifecycle tests pin
the recovery semantics: finished runs restore read-only, ``close()``
marks still-queued runs ``interrupted`` instead of abandoning them
silently, and a restart on the same journal resumes them to a report
byte-identical to an uninterrupted run.
"""

import json
import time

import pytest

from repro.metrics.report import event_envelope, render_event, render_json
from repro.serve import RunJournal, load_journal, parse_run_request
from repro.serve.jobs import JobStore

TRACE = {
    "name": "t",
    "events": [
        {"at_s": 0.0, "tenant": "a"},
        {"at_s": 0.5, "tenant": "b", "input_bytes": "1MB"},
        {"at_s": 1.0, "tenant": "a", "fanout": 2},
    ],
}

RUN_BODY = {"app": "wc", "seed": 7, "trace": TRACE}

#: A run slow enough (~seconds) that close() catches later submissions
#: still queued behind it on a one-worker store.
SLOW_BODY = {
    "app": "wc",
    "seed": 7,
    "synth": {"tenants": 6, "duration_s": 60, "mean_rpm": 120, "seed": 5},
}


def _await_terminal(store, run_id, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        snap = store.snapshot(run_id)
        if snap["status"] in ("done", "failed", "interrupted"):
            return snap
        time.sleep(0.02)
    raise AssertionError(f"run {run_id} did not finish within {timeout_s}s")


def _run_to_completion(journal_path):
    """Submit RUN_BODY on a journaled store, return the done snapshot."""
    store = JobStore(workers=1, journal=RunJournal(journal_path))
    try:
        run_id = store.submit(parse_run_request(RUN_BODY))
        snap = _await_terminal(store, run_id)
        assert snap["status"] == "done", snap.get("error")
        return snap
    finally:
        store.close()


# -- journal records round-trip ----------------------------------------------


def test_journal_records_round_trip(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = RunJournal(str(path))
    journal.record_submit("run-000001", {"app": "wc"}, {"app": "wc"}, 2)
    journal.record_cell("run-000001", "a", "a@123", {"key": "a"})
    journal.record_done("run-000001", {"offered": 3})
    journal.record_submit("run-000002", {"app": "wc"}, {}, 1)
    # Older servers stamped an event seq on every record: still loads.
    journal.append("cell", "run-000002", key="b", identity="b@1",
                   cell={"key": "b"}, seq=3)
    journal.record_interrupted("run-000002")
    journal.close()

    state = load_journal(str(path))
    assert state.anomalies == []
    assert list(state.runs) == ["run-000001", "run-000002"]
    first = state.runs["run-000001"]
    assert first.status == "done"
    assert first.report == {"offered": 3}
    assert first.cells == {"a": ("a@123", {"key": "a"})}
    assert first.cells_total == 2
    second = state.runs["run-000002"]
    assert second.status == "interrupted"
    assert second.cells == {"b": ("b@1", {"key": "b"})}
    assert state.max_run_number() == 2


def test_missing_journal_loads_empty(tmp_path):
    state = load_journal(str(tmp_path / "never-written.jsonl"))
    assert state.runs == {} and state.anomalies == []


# -- fault injection: the file under attack ----------------------------------


def test_torn_final_write_is_cell_not_completed(tmp_path):
    """A crash mid-append leaves a truncated last line: the cell it was
    persisting is treated as not completed — discarded with an anomaly,
    never a startup crash."""
    path = tmp_path / "journal.jsonl"
    _run_to_completion(str(path))
    whole = path.read_text()
    cell_line = next(
        line for line in whole.splitlines()
        if json.loads(line)["rec"] == "cell"
    )
    # Re-append the cell record, torn mid-way and unterminated.
    path.write_text(whole + cell_line[: len(cell_line) // 2])

    state = load_journal(str(path))
    assert len(state.anomalies) == 1
    assert "torn final write" in state.anomalies[0]
    # The journaled run is intact; dedup would have caught the cell had
    # the append completed.
    assert state.runs["run-000001"].status == "done"

    store = JobStore(workers=1, journal=RunJournal(str(path)))
    try:
        assert store.snapshot("run-000001")["status"] == "done"
    finally:
        store.close()


def test_torn_final_log_line_is_dropped_and_its_seq_reused(tmp_path):
    """A kill mid-write leaves the run's event log with a torn last
    line (here the report, the longest write): recovery cuts it off, a
    follower never sees it, and the next event takes its seq."""
    path = tmp_path / "journal.jsonl"
    _run_to_completion(str(path))
    log = tmp_path / "journal.jsonl.events" / "run-000001.ndjson"
    lines = log.read_bytes().splitlines(keepends=True)
    torn = json.loads(lines[-1])
    assert torn["event"] == "report"
    log.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])

    store = JobStore(workers=1, journal=RunJournal(str(path)))
    try:
        streamed = list(store.follow_lines("run-000001"))
        assert streamed[:-2] == lines[:-1]
        recovered, report = (json.loads(line) for line in streamed[-2:])
        assert recovered["event"] == "recovered"
        assert recovered["seq"] == torn["seq"]
        assert (report["event"], report["seq"]) == ("report", torn["seq"] + 1)
        assert report["report"] == torn["report"]
        assert log.read_bytes() == b"".join(streamed)
    finally:
        store.close()


def test_recovery_continues_the_surviving_event_log(tmp_path):
    """A run killed after logging ``queued@0, running@1`` resumes on
    the same log: the old lines stay a verbatim prefix of the stream
    and seqs rise with no gap and no reuse across the restart."""
    path = tmp_path / "journal.jsonl"
    request = parse_run_request(RUN_BODY)
    journal = RunJournal(str(path))
    journal.record_submit("run-000001", RUN_BODY, request.summary, 2)
    journal.close()
    before = [
        render_event(event_envelope(kind, body, seq=seq)) + "\n"
        for seq, (kind, body) in enumerate([
            ("queued", {"run_id": "run-000001", "request": request.summary}),
            ("running", {"run_id": "run-000001"}),
        ])
    ]
    log = tmp_path / "journal.jsonl.events" / "run-000001.ndjson"
    log.parent.mkdir()
    log.write_text("".join(before))

    store = JobStore(workers=1, journal=RunJournal(str(path)))
    try:
        assert _await_terminal(store, "run-000001")["status"] == "done"
        streamed = [
            line.decode("utf-8") for line in store.follow_lines("run-000001")
        ]
    finally:
        store.close()
    assert streamed[: len(before)] == before
    events = [json.loads(line) for line in streamed]
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert [e["event"] for e in events][2:4] == ["recovered", "running"]


def test_corrupt_mid_file_line_is_skipped(tmp_path):
    path = tmp_path / "journal.jsonl"
    _run_to_completion(str(path))
    lines = path.read_text().splitlines()
    lines.insert(1, "\x00garbage not json\x00")
    lines.insert(3, '{"valid": "json", "but": "not a journal record"}')
    path.write_text("\n".join(lines) + "\n")

    state = load_journal(str(path))
    kinds = sorted(a.split(":")[1].strip() for a in state.anomalies)
    assert len(state.anomalies) == 2
    assert state.runs["run-000001"].status == "done"
    assert any("corrupt line" in a for a in state.anomalies)
    assert any("not a journal record" in a for a in state.anomalies)
    assert kinds  # anomaly messages carry line numbers


def test_duplicate_cell_records_dedupe_first_wins(tmp_path):
    path = tmp_path / "journal.jsonl"
    _run_to_completion(str(path))
    lines = path.read_text().splitlines()
    cell_lines = [l for l in lines if json.loads(l)["rec"] == "cell"]
    # Replay every cell record once more, as a crashed-then-restarted
    # writer might after losing its in-memory dedup state.
    path.write_text("\n".join(lines + cell_lines) + "\n")

    state = load_journal(str(path))
    run = state.runs["run-000001"]
    assert sorted(run.cells) == ["a", "b"]  # deduped, not doubled
    assert all("deduped" in a for a in state.anomalies)
    assert len(state.anomalies) == len(cell_lines)


def test_orphan_records_are_discarded(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = RunJournal(str(path))
    journal.record_cell("run-000099", "a", "a@1", {"key": "a"})
    journal.record_done("run-000099", {})
    journal.close()
    state = load_journal(str(path))
    assert state.runs == {}
    assert len(state.anomalies) == 2
    assert all("unknown run" in a for a in state.anomalies)


def test_stale_checkpoint_identity_is_rerun_not_merged(tmp_path):
    """A journal whose cell identities no longer match the request (the
    seed changed between runs of the same id) re-runs those cells; the
    resumed report reflects the *request*, never the stale residue."""
    path = tmp_path / "journal.jsonl"
    _run_to_completion(str(path))
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    # Tamper: change the journaled submission's seed but keep the old
    # cell residues (their identity tokens embed the old seed).
    doctored = []
    for record in lines:
        if record["rec"] == "submit":
            record["payload"] = dict(record["payload"], seed=99)
        if record["rec"] == "done":
            continue  # force a resume
        doctored.append(json.dumps(record, separators=(",", ":")))
    path.write_text("\n".join(doctored) + "\n")

    store = JobStore(workers=1, journal=RunJournal(str(path)))
    try:
        snap = _await_terminal(store, "run-000001")
        assert snap["status"] == "done", snap.get("error")
        resumed = render_json(snap["report"])
    finally:
        store.close()

    # Reference: seed 99 replayed fresh.
    fresh = JobStore(workers=1)
    try:
        run_id = fresh.submit(parse_run_request(dict(RUN_BODY, seed=99)))
        reference = render_json(_await_terminal(fresh, run_id)["report"])
    finally:
        fresh.close()
    assert resumed == reference


def test_unparseable_journaled_request_fails_cleanly(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = RunJournal(str(path))
    journal.record_submit("run-000001", {"app": "no-such-app"}, {}, 0)
    journal.close()
    store = JobStore(workers=1, journal=RunJournal(str(path)))
    try:
        snap = store.snapshot("run-000001")
        assert snap["status"] == "failed"
        assert "no longer valid" in snap["error"]
    finally:
        store.close()
    # The failure is journaled: the next boot restores it read-only
    # instead of retrying forever.
    assert load_journal(str(path)).runs["run-000001"].status == "failed"


def test_journaled_record_sink_key_restores_as_failed(tmp_path):
    """An older server accepted a ``"record_sink"`` key; a run it
    journaled restores as failed with the unknown-key message."""
    path = tmp_path / "journal.jsonl"
    journal = RunJournal(str(path))
    journal.record_submit(
        "run-000001", dict(RUN_BODY, record_sink="spill"), {}, 0
    )
    journal.close()
    store = JobStore(workers=1, journal=RunJournal(str(path)))
    try:
        snap = store.snapshot("run-000001")
        assert snap["status"] == "failed"
        assert "unknown request keys ['record_sink']" in snap["error"]
    finally:
        store.close()


# -- close() lifecycle: queued jobs become interrupted ------------------------


def test_close_interrupts_queued_jobs_and_restart_resumes(tmp_path):
    path = tmp_path / "journal.jsonl"
    store = JobStore(workers=1, journal=RunJournal(str(path)))
    slow_id = store.submit(parse_run_request(SLOW_BODY))
    deadline = time.monotonic() + 30
    while store.snapshot(slow_id)["status"] == "queued":
        assert time.monotonic() < deadline
        time.sleep(0.01)
    # The single worker is busy replaying SLOW_BODY: these stay queued.
    queued = [store.submit(parse_run_request(RUN_BODY)) for _ in range(2)]
    store.close(timeout_s=120)

    for run_id in queued:
        snap = store.snapshot(run_id)
        assert snap["status"] == "interrupted"  # not 'queued' forever
        events = [e["event"] for e in store.follow(run_id)]
        assert events[-1] == "interrupted"

    state = load_journal(str(path))
    assert [state.runs[i].status for i in queued] == ["interrupted"] * 2

    # Restart on the same journal: interrupted runs resume and finish.
    store2 = JobStore(workers=1, journal=RunJournal(str(path)))
    try:
        reports = set()
        for run_id in queued:
            snap = _await_terminal(store2, run_id)
            assert snap["status"] == "done", snap.get("error")
            assert snap["recovered"] is True
            reports.add(render_json(snap["report"]))
        assert len(reports) == 1  # same seed, same report
    finally:
        store2.close()


def test_submit_after_close_still_raises(tmp_path):
    store = JobStore(workers=1, journal=RunJournal(str(tmp_path / "j.jsonl")))
    store.close()
    with pytest.raises(RuntimeError):
        store.submit(parse_run_request(RUN_BODY))


def _journaled_cell_keys(path, run_id):
    """Raw scan of the journal file, keeping duplicates — load_journal
    dedupes, which would hide a double-journaled cell."""
    keys = []
    for line in path.read_text().splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if record.get("rec") == "cell" and record.get("run") == run_id:
            keys.append(record["key"])
    return keys


def test_cell_retried_to_success_is_journaled_exactly_once(tmp_path):
    """A cell that fails its first attempt and succeeds on retry folds —
    and journals — exactly once, and the report is identical to the
    fault-free run's (retries are invisible to the replay semantics)."""
    control = _run_to_completion(str(tmp_path / "control.jsonl"))

    path = tmp_path / "journal.jsonl"
    body = dict(
        RUN_BODY,
        retry={"max_attempts": 2},
        faults=[{"kind": "poison", "cell": "a", "attempt": 1}],
    )
    store = JobStore(workers=1, journal=RunJournal(str(path)))
    try:
        run_id = store.submit(parse_run_request(body))
        snap = _await_terminal(store, run_id)
        assert snap["status"] == "done", snap.get("error")
        assert snap.get("degraded") is not True
        assert render_json(snap["report"]) == render_json(control["report"])
    finally:
        store.close()

    keys = _journaled_cell_keys(path, run_id)
    assert sorted(keys) == ["a", "b"]  # once each — attempt 1's failure
    # never reached the journal, only attempt 2's fold did.
    assert load_journal(str(path)).anomalies == []

    # Restart: the run restores read-only, nothing re-executes.
    store2 = JobStore(workers=1, journal=RunJournal(str(path)))
    try:
        snap = store2.snapshot(run_id)
        assert snap["status"] == "done"
        assert render_json(snap["report"]) == render_json(control["report"])
    finally:
        store2.close()
    assert _journaled_cell_keys(path, run_id) == keys  # file untouched


def test_degraded_resume_reexecutes_only_unjournaled_cells(tmp_path):
    """Crash-resume of a degraded run: the journaled surviving cell
    folds back from its residue, only the unjournaled (poisoned) cell
    re-executes — and fails again, reproducing the identical degraded
    report."""
    path = tmp_path / "journal.jsonl"
    body = dict(
        RUN_BODY,
        retry={"max_attempts": 1},
        faults=[{"kind": "poison", "cell": "a", "attempt": 0}],
        on_cell_failure="skip",
    )
    store = JobStore(workers=1, journal=RunJournal(str(path)))
    try:
        run_id = store.submit(parse_run_request(body))
        snap = _await_terminal(store, run_id)
        assert snap["status"] == "done", snap.get("error")
        assert snap["degraded"] is True
        reference = render_json(snap["report"])
    finally:
        store.close()

    # The poisoned cell left no residue; only "b" is journaled.
    assert _journaled_cell_keys(path, run_id) == ["b"]

    # Surgery: drop the terminal record, as a crash between the last
    # fold and the terminal append would.  The run's event log stays.
    log = tmp_path / "journal.jsonl.events" / f"{run_id}.ndjson"
    before = [json.loads(line) for line in log.read_text().splitlines()]
    records = [json.loads(l) for l in path.read_text().splitlines()]
    kept = [r for r in records if r["rec"] != "done"]
    path.write_text(
        "\n".join(json.dumps(r, separators=(",", ":")) for r in kept) + "\n"
    )

    store2 = JobStore(workers=1, journal=RunJournal(str(path)))
    try:
        snap = _await_terminal(store2, run_id)
        assert snap["status"] == "done", snap.get("error")
        assert snap["degraded"] is True
        assert snap["recovered"] is True
        assert render_json(snap["report"]) == reference
        events = list(store2.follow(run_id))
        assert events[: len(before)] == before
        assert events[-1]["event"] == "degraded"
        # "b" folded from the journal, not re-executed: its one cell
        # event is the line the log kept from before the restart; "a"
        # replayed fresh (and was poisoned again), so it has none.
        assert [e["cell"] for e in events if e["event"] == "cell"] == ["b"]
    finally:
        store2.close()

    keys = _journaled_cell_keys(path, run_id)
    assert keys.count("b") == 1 and "a" not in keys


def test_recovered_ids_never_collide_with_new_submissions(tmp_path):
    path = tmp_path / "journal.jsonl"
    _run_to_completion(str(path))
    store = JobStore(workers=1, journal=RunJournal(str(path)))
    try:
        new_id = store.submit(parse_run_request(RUN_BODY))
        assert new_id == "run-000002"
        assert store.snapshot("run-000001")["status"] == "done"
    finally:
        store.close()


def test_recovery_honours_max_finished(tmp_path):
    path = tmp_path / "journal.jsonl"
    store = JobStore(workers=1, journal=RunJournal(str(path)))
    try:
        for _ in range(4):
            run_id = store.submit(parse_run_request(RUN_BODY))
            assert _await_terminal(store, run_id)["status"] == "done"
        before = list(store.follow("run-000004"))
    finally:
        store.close()
    assert len(load_journal(str(path)).runs) == 4

    # The boot itself evicts past the retention window: only the two
    # newest restored runs stay, and only their event logs stay on disk.
    store = JobStore(
        workers=1, journal=RunJournal(str(path)), max_finished=2
    )
    try:
        kept = ["run-000003", "run-000004"]
        assert [row["id"] for row in store.list()] == kept
        logs = sorted(p.stem for p in (tmp_path / "journal.jsonl.events")
                      .iterdir())
        assert logs == kept
        # An intact finished run restores with its history unchanged.
        assert list(store.follow("run-000004")) == before
        snap = store.snapshot("run-000004")
        assert snap["cells_done"] == snap["cells"] == 2
    finally:
        store.close()
