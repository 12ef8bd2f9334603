"""Fault-injection tests for the durable run journal.

The journal is the crash-safety spine of ``repro serve --journal``, so
these tests attack its per-run files themselves: torn final writes,
corrupt lines, duplicate records and a file with no submission must all
be absorbed at load time (the affected work simply re-runs — startup
never crashes on a journal a dying process left behind).  The
:class:`JobStore` lifecycle tests pin the recovery semantics: finished
runs restore read-only, ``close()`` marks still-queued runs
``interrupted`` instead of abandoning them silently, a restart on the
same journal resumes them to a report byte-identical to an
uninterrupted run, and retention bounds the journal directory.
"""

import json
import threading
import time

import pytest

from repro.cli import main
from repro.metrics.report import event_envelope, render_event, render_json
from repro.serve import RunJournal, load_journal, parse_run_request
from repro.serve.jobs import JobStore, UnknownJob

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


def _run_files(path):
    return sorted(p.name for p in path.iterdir())


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
    path = tmp_path / "journal"
    journal = RunJournal(str(path))
    journal.record_submit("run-000001", {"app": "wc"}, {"app": "wc"}, 2)
    journal.record_cell("run-000001", "a", "a@123", {"key": "a"})
    journal.record_done("run-000001", {"offered": 3})
    journal.record_submit("run-000002", {"app": "wc"}, {}, 1)
    # Older servers stamped an event seq on every record: still loads.
    journal.append("cell", "run-000002", key="b", identity="b@1",
                   cell={"key": "b"}, seq=3)
    journal.record_interrupted("run-000002")

    assert _run_files(path) == ["run-000001.jsonl", "run-000002.jsonl"]
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


def test_missing_journal_loads_empty(tmp_path):
    state = load_journal(str(tmp_path / "never-written"))
    assert state.runs == {} and state.anomalies == []


def test_single_file_journal_fails_boot_untouched(tmp_path, capsys):
    """A regular file at the journal path is an older server's
    single-file journal: boot refuses it and leaves it as it was."""
    legacy = tmp_path / "journal.jsonl"
    legacy.write_text('{"rec":"submit","run":"run-000001","v":1}\n')
    before = legacy.read_bytes()
    with pytest.raises(ValueError, match="single-file journal"):
        RunJournal(str(legacy))
    assert main(["serve", "--port", "0", "--journal", str(legacy)]) == 2
    assert "single-file journal" in capsys.readouterr().err
    assert legacy.read_bytes() == before


# -- fault injection: the file under attack ----------------------------------


def test_torn_final_write_is_cell_not_completed(tmp_path):
    """A crash mid-append leaves a truncated last line: the cell it was
    persisting is treated as not completed — discarded with an anomaly,
    never a startup crash."""
    path = tmp_path / "journal"
    _run_to_completion(str(path))
    run_file = path / "run-000001.jsonl"
    whole = run_file.read_text()
    cell_line = next(
        line for line in whole.splitlines()
        if json.loads(line)["rec"] == "cell"
    )
    # Re-append the cell record, torn mid-way and unterminated.
    run_file.write_text(whole + cell_line[: len(cell_line) // 2])

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
    path = tmp_path / "journal"
    _run_to_completion(str(path))
    log = path / "run-000001.ndjson"
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
    path = tmp_path / "journal"
    request = parse_run_request(RUN_BODY)
    journal = RunJournal(str(path))
    journal.record_submit("run-000001", RUN_BODY, request.summary, 2)
    before = [
        render_event(event_envelope(kind, body, seq=seq)) + "\n"
        for seq, (kind, body) in enumerate([
            ("queued", {"run_id": "run-000001", "request": request.summary}),
            ("running", {"run_id": "run-000001"}),
        ])
    ]
    log = path / "run-000001.ndjson"
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
    path = tmp_path / "journal"
    _run_to_completion(str(path))
    run_file = path / "run-000001.jsonl"
    lines = run_file.read_text().splitlines()
    lines.insert(1, "\x00garbage not json\x00")
    lines.insert(3, '{"valid": "json", "but": "not a journal record"}')
    run_file.write_text("\n".join(lines) + "\n")

    state = load_journal(str(path))
    kinds = sorted(a.split(":")[1].strip() for a in state.anomalies)
    assert len(state.anomalies) == 2
    assert state.runs["run-000001"].status == "done"
    assert any("corrupt line" in a for a in state.anomalies)
    assert any("not a journal record" in a for a in state.anomalies)
    assert kinds  # anomaly messages carry line numbers


def test_duplicate_cell_records_dedupe_first_wins(tmp_path):
    path = tmp_path / "journal"
    _run_to_completion(str(path))
    run_file = path / "run-000001.jsonl"
    lines = run_file.read_text().splitlines()
    cell_lines = [l for l in lines if json.loads(l)["rec"] == "cell"]
    # Replay every cell record once more, as a crashed-then-restarted
    # writer might after losing its in-memory dedup state.
    run_file.write_text("\n".join(lines + cell_lines) + "\n")

    state = load_journal(str(path))
    run = state.runs["run-000001"]
    assert sorted(run.cells) == ["a", "b"]  # deduped, not doubled
    assert all("deduped" in a for a in state.anomalies)
    assert len(state.anomalies) == len(cell_lines)


def test_orphan_records_are_discarded(tmp_path):
    """A run file with no ``submit`` record (a crash tore the run's
    first append) is discarded with an anomaly."""
    path = tmp_path / "journal"
    journal = RunJournal(str(path))
    journal.record_cell("run-000099", "a", "a@1", {"key": "a"})
    journal.record_done("run-000099", {})
    (path / "run-000099.ndjson").write_text("")
    state = load_journal(str(path))
    assert state.runs == {}
    assert state.anomalies == [
        "run-000099.jsonl: no submit record; run discarded"
    ]

    # The boot deletes the discarded run's files; new ids continue
    # past it all the same.
    store = JobStore(workers=1, journal=RunJournal(str(path)))
    try:
        assert store.list() == [] and _run_files(path) == []
        assert store.submit(parse_run_request(RUN_BODY)) == "run-000100"
    finally:
        store.close()


def test_stale_checkpoint_identity_is_rerun_not_merged(tmp_path):
    """A journal whose cell identities no longer match the request (the
    seed changed between runs of the same id) re-runs those cells; the
    resumed report reflects the *request*, never the stale residue."""
    path = tmp_path / "journal"
    _run_to_completion(str(path))
    run_file = path / "run-000001.jsonl"
    lines = [json.loads(l) for l in run_file.read_text().splitlines()]
    # Tamper: change the journaled submission's seed but keep the old
    # cell residues (their identity tokens embed the old seed).
    doctored = []
    for record in lines:
        if record["rec"] == "submit":
            record["payload"] = dict(record["payload"], seed=99)
        if record["rec"] == "done":
            continue  # force a resume
        doctored.append(json.dumps(record, separators=(",", ":")))
    run_file.write_text("\n".join(doctored) + "\n")

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
    path = tmp_path / "journal"
    journal = RunJournal(str(path))
    journal.record_submit("run-000001", {"app": "no-such-app"}, {}, 0)
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
    path = tmp_path / "journal"
    journal = RunJournal(str(path))
    journal.record_submit(
        "run-000001", dict(RUN_BODY, record_sink="spill"), {}, 0
    )
    store = JobStore(workers=1, journal=RunJournal(str(path)))
    try:
        snap = store.snapshot("run-000001")
        assert snap["status"] == "failed"
        assert "unknown request keys ['record_sink']" in snap["error"]
    finally:
        store.close()


# -- close() lifecycle: queued jobs become interrupted ------------------------


def test_close_interrupts_queued_jobs_and_restart_resumes(tmp_path):
    path = tmp_path / "journal"
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
    store = JobStore(workers=1, journal=RunJournal(str(tmp_path / "j")))
    store.close()
    with pytest.raises(RuntimeError):
        store.submit(parse_run_request(RUN_BODY))


def _journaled_cell_keys(path, run_id):
    """Raw scan of the run's journal file, keeping duplicates —
    load_journal dedupes, which would hide a double-journaled cell."""
    keys = []
    for line in (path / f"{run_id}.jsonl").read_text().splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if record.get("rec") == "cell":
            keys.append(record["key"])
    return keys


def test_cell_retried_to_success_is_journaled_exactly_once(tmp_path):
    """A cell that fails its first attempt and succeeds on retry folds —
    and journals — exactly once, and the report is identical to the
    fault-free run's (retries are invisible to the replay semantics)."""
    control = _run_to_completion(str(tmp_path / "control"))

    path = tmp_path / "journal"
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
    path = tmp_path / "journal"
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
    log = path / f"{run_id}.ndjson"
    before = [json.loads(line) for line in log.read_text().splitlines()]
    run_file = path / f"{run_id}.jsonl"
    records = [json.loads(l) for l in run_file.read_text().splitlines()]
    kept = [r for r in records if r["rec"] != "done"]
    run_file.write_text(
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
    path = tmp_path / "journal"
    _run_to_completion(str(path))
    store = JobStore(workers=1, journal=RunJournal(str(path)))
    try:
        new_id = store.submit(parse_run_request(RUN_BODY))
        assert new_id == "run-000002"
        assert store.snapshot("run-000001")["status"] == "done"
    finally:
        store.close()


def test_recovery_honours_max_finished(tmp_path, monkeypatch):
    path = tmp_path / "journal"
    store = JobStore(workers=1, journal=RunJournal(str(path)))
    try:
        for _ in range(4):
            run_id = store.submit(parse_run_request(RUN_BODY))
            assert _await_terminal(store, run_id)["status"] == "done"
        before = list(store.follow("run-000004"))
    finally:
        store.close()
    assert len(load_journal(str(path)).runs) == 4

    appended = []
    real_append = JobStore._append

    def spy(self, job, kind, body):
        appended.append(job.id)
        real_append(self, job, kind, body)

    monkeypatch.setattr(JobStore, "_append", spy)
    kept = ["run-000003", "run-000004"]
    # Two boots: the first selects the retention window, the second
    # boots over what the first left.  Neither touches an evicted run,
    # so boot work stays inside the window, and only the two newest
    # runs' journal files and event logs stay on disk.
    for _ in range(2):
        store = JobStore(
            workers=1, journal=RunJournal(str(path)), max_finished=2
        )
        try:
            assert [row["id"] for row in store.list()] == kept
            assert _run_files(path) == [
                f"{run_id}.{ext}" for run_id in kept
                for ext in ("jsonl", "ndjson")
            ]
            # An intact finished run restores with its history unchanged.
            assert list(store.follow("run-000004")) == before
            snap = store.snapshot("run-000004")
            assert snap["cells_done"] == snap["cells"] == 2
        finally:
            store.close()
    assert appended == []


def test_journal_directory_stays_flat_across_many_runs(tmp_path):
    """Soak: once the retention window is full, the journal
    directory's file count and size, and the thread count, stay flat
    however many runs pass through; a restart restores the window."""
    path = tmp_path / "journal"
    store = JobStore(workers=1, journal=RunJournal(str(path)), max_finished=3)
    samples = []
    try:
        for index in range(30):
            run_id = store.submit(parse_run_request(RUN_BODY))
            assert _await_terminal(store, run_id)["status"] == "done"
            if index >= 3:
                files = list(path.iterdir())
                samples.append((
                    len(files),
                    sum(p.stat().st_size for p in files),
                    threading.active_count(),
                ))
    finally:
        store.close()
    counts, sizes, threads = zip(*samples)
    assert set(counts) == {6}
    # Runs differ only in wall-clock digits, so the bytes stay level.
    assert max(sizes) - min(sizes) < 0.01 * min(sizes)
    assert len(set(threads)) == 1

    restarted = JobStore(
        workers=1, journal=RunJournal(str(path)), max_finished=3
    )
    try:
        assert [row["id"] for row in restarted.list()] == [
            "run-000028", "run-000029", "run-000030",
        ]
    finally:
        restarted.close()


def test_interrupted_runs_survive_eviction(tmp_path):
    """``close()`` interrupts more queued runs than ``max_finished``
    while a running one finishes.  That finish evicts the oldest
    interrupted runs from memory, but never their journal files or
    event logs: a restart resumes every one to the uninterrupted
    report."""
    reference = render_json(
        _run_to_completion(str(tmp_path / "control"))["report"]
    )
    path = tmp_path / "journal"
    store = JobStore(workers=1, journal=RunJournal(str(path)), max_finished=2)
    slow_id = store.submit(parse_run_request(SLOW_BODY))
    deadline = time.monotonic() + 30
    while store.snapshot(slow_id)["status"] == "queued":
        assert time.monotonic() < deadline
        time.sleep(0.01)
    queued = [store.submit(parse_run_request(RUN_BODY)) for _ in range(4)]
    store.close(timeout_s=120)

    # The slow run finished, and that evicted it and the two oldest
    # interrupted runs; only the finished run's files went with it.
    assert [row["id"] for row in store.list()] == queued[2:]
    for run_id in [slow_id] + queued[:2]:
        with pytest.raises(UnknownJob):
            store.snapshot(run_id)
    assert _run_files(path) == [
        f"{run_id}.{ext}" for run_id in queued for ext in ("jsonl", "ndjson")
    ]

    restarted = JobStore(workers=1, journal=RunJournal(str(path)))
    try:
        for run_id in queued:
            snap = _await_terminal(restarted, run_id)
            assert snap["status"] == "done", snap.get("error")
            assert snap["recovered"] is True
            assert render_json(snap["report"]) == reference
    finally:
        restarted.close()
