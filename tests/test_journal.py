"""Fault-injection tests for the durable run journal.

Under ``repro serve --journal`` a run's one file is its event log,
``<run-id>.ndjson``: its ``queued``, ``cell`` and terminal lines are
the run's journal.  These tests attack that file: torn final writes,
corrupt lines, duplicate cells, stale checkpoints and a file with no
``queued`` line must all be absorbed at boot (the log is cut at its
first bad line and the affected work simply re-runs — startup never
crashes on a log a dying process left behind).  The :class:`JobStore`
lifecycle tests pin the recovery semantics: finished runs restore
read-only, ``close()`` marks still-queued runs ``interrupted`` instead
of abandoning them silently, a restart on the same journal resumes them
to a report byte-identical to an uninterrupted run, durable lines are
fsync'd before anyone can see them, and retention bounds the journal
directory.
"""

import json
import os
import stat
import threading
import time

import pytest

from repro.cli import main
from repro.metrics.report import event_envelope, render_event, render_json
from repro.serve import parse_run_request
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

_DURABLE = ("queued", "cell", "report", "degraded", "error", "interrupted")


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


def _run_to_completion(journal_path, body=RUN_BODY):
    """Submit ``body`` on a journaled store, return the done snapshot."""
    store = JobStore(workers=1, journal=journal_path)
    try:
        run_id = store.submit(parse_run_request(body))
        snap = _await_terminal(store, run_id)
        assert snap["status"] == "done", snap.get("error")
        return snap
    finally:
        store.close()


def _lines(log):
    return log.read_bytes().splitlines(keepends=True)


def _events(log):
    return [json.loads(line) for line in _lines(log)]


def _cell_keys(log):
    """The cell keys of a log's ``cell`` lines, duplicates kept."""
    return [e["cell"] for e in _events(log) if e["event"] == "cell"]


def _line(kind, body, seq):
    return render_event(event_envelope(kind, body, seq=seq)) + "\n"


def _queued_line(run_id, payload, cells=2, summary=None):
    body = {"run_id": run_id, "request": summary or {}, "cells": cells,
            "payload": payload}
    return _line("queued", body, 0)


def _before_terminal(lines):
    """A finished log's lines up to its terminal batch: what a crash
    between the last cell and the run's end leaves."""
    first = next(
        i for i, line in enumerate(lines)
        if json.loads(line)["event"] in ("counter", "report", "degraded")
    )
    return lines[:first]


# -- the one-file layout ------------------------------------------------------


def test_journal_records_round_trip(tmp_path):
    """A run's only file is its event log: ``queued`` carries the body
    and cell count, each ``cell`` line its identity and residue, and a
    restart restores the report byte-identical from the log alone."""
    path = tmp_path / "journal"
    snap = _run_to_completion(path)
    assert _run_files(path) == ["run-000001.ndjson"]
    events = _events(path / "run-000001.ndjson")
    queued = events[0]
    assert queued["event"] == "queued"
    assert (queued["payload"], queued["cells"]) == (RUN_BODY, 2)
    cells = [e for e in events if e["event"] == "cell"]
    assert sorted(e["cell"] for e in cells) == ["a", "b"]
    for cell in cells:
        assert cell["identity"].startswith(cell["cell"] + "@")
        assert cell["result"]["key"] == cell["cell"]
        assert len(cell["result"]["records"]) == cell["offered"]
    assert events[-1]["event"] == "report"

    store = JobStore(workers=1, journal=path)
    try:
        restored = store.snapshot("run-000001")
        assert restored["status"] == "done" and restored["recovered"]
        assert render_json(restored["report"]) == render_json(snap["report"])
        assert store.anomalies == []
    finally:
        store.close()


def test_line_format_is_the_same_without_a_journal(tmp_path):
    """Only the fsyncs depend on the journal: a store without one logs
    the same durable fields, and fsyncs nothing."""
    path = tmp_path / "journal"
    run_id = _run_to_completion(path)["id"]
    journaled = _events(path / f"{run_id}.ndjson")
    store = JobStore(workers=1)
    try:
        run_id = store.submit(parse_run_request(RUN_BODY))
        _await_terminal(store, run_id)
        plain = list(store.follow(run_id))
        assert store.metrics.counter_total("repro_journal_fsyncs_total") == 0
    finally:
        store.close()

    def shape(events):
        return [(e["event"], sorted(e)) for e in events]

    assert shape(plain) == shape(journaled)


def test_missing_journal_loads_empty(tmp_path):
    path = tmp_path / "never-written"
    store = JobStore(workers=1, journal=path)
    try:
        assert store.list() == [] and path.is_dir()
    finally:
        store.close()


def test_single_file_journal_fails_boot_untouched(tmp_path, capsys):
    """A regular file at the journal path is an older server's
    single-file journal: boot refuses it and leaves it as it was."""
    legacy = tmp_path / "journal.jsonl"
    legacy.write_text('{"rec":"submit","run":"run-000001","v":1}\n')
    before = legacy.read_bytes()
    with pytest.raises(ValueError, match="single-file journal"):
        JobStore(workers=1, journal=legacy)
    assert main(["serve", "--port", "0", "--journal", str(legacy)]) == 2
    assert "single-file journal" in capsys.readouterr().err
    assert legacy.read_bytes() == before


def test_per_run_jsonl_journal_fails_boot_untouched(tmp_path, capsys):
    """A directory holding ``*.jsonl`` entries is an older server's
    layout (a journal file beside each event log): boot refuses it
    without migrating, and every file stays as it was."""
    path = tmp_path / "journal"
    path.mkdir()
    (path / "run-000001.jsonl").write_text(
        '{"rec":"submit","run":"run-000001","v":1}\n'
    )
    (path / "run-000001.ndjson").write_text('{"event":"queued"}\n')
    before = {p.name: p.read_bytes() for p in path.iterdir()}
    with pytest.raises(ValueError, match="older server"):
        JobStore(workers=1, journal=path)
    assert main(["serve", "--port", "0", "--journal", str(path)]) == 2
    assert "run-000001.jsonl" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in path.iterdir()} == before


def test_directory_named_like_a_jsonl_file_is_a_fresh_journal(tmp_path):
    """The refusal looks inside the path, never at its name: a fresh
    directory called ``journal-0.jsonl`` is a journal like any other."""
    path = tmp_path / "journal-0.jsonl"
    _run_to_completion(path)
    assert _run_files(path) == ["run-000001.ndjson"]
    store = JobStore(workers=1, journal=path)
    try:
        assert store.snapshot("run-000001")["status"] == "done"
    finally:
        store.close()


# -- durability before visibility --------------------------------------------


def test_durable_lines_are_fsynced_before_they_count(tmp_path, monkeypatch):
    """Each durable line is fsync'd before ``events_logged`` counts it,
    the file's first line fsyncs the directory too, ``submit()``
    returns only after the ``queued`` line's fsync, and no other line
    is ever fsync'd."""
    path = tmp_path / "journal"
    stores = []
    fsyncs = []  # (size of the synced file or None for a dir, logged)
    real_fsync = os.fsync

    def spy(fd):
        real_fsync(fd)
        info = os.fstat(fd)
        (job,) = stores[0]._jobs.values()
        size = None if stat.S_ISDIR(info.st_mode) else info.st_size
        fsyncs.append((size, job.events_logged))

    stores.append(JobStore(workers=1, journal=path))
    monkeypatch.setattr(os, "fsync", spy)
    store = stores[0]
    try:
        run_id = store.submit(parse_run_request(RUN_BODY))
        at_submit = list(fsyncs)
        _await_terminal(store, run_id)
    finally:
        store.close()
        monkeypatch.undo()

    lines = _lines(path / f"{run_id}.ndjson")
    queued = len(lines[0])
    # The queued line, then the directory, both before the line counts.
    assert at_submit[:2] == [(queued, 0), (None, 0)]
    assert [size for size, _ in fsyncs].count(None) == 1
    ends = {}
    offset = 0
    for index, line in enumerate(lines):
        offset += len(line)
        ends[offset] = index
    synced = [ends[size] for size, _ in fsyncs if size is not None]
    durable = [
        index for index, line in enumerate(lines)
        if json.loads(line)["event"] in _DURABLE
    ]
    assert synced == durable  # every durable line once, nothing else
    for size, logged in fsyncs:
        if size is not None:
            assert logged == ends[size]  # not yet counted at its fsync
    assert store.metrics.counter_total("repro_journal_fsyncs_total") == len(
        durable
    )


# -- fault injection: the file under attack ----------------------------------


def test_torn_final_write_is_cell_not_completed(tmp_path):
    """A crash mid-append leaves a truncated last line: boot cuts it
    off and notes it, and the finished run restores intact."""
    path = tmp_path / "journal"
    _run_to_completion(path)
    log = path / "run-000001.ndjson"
    whole = log.read_bytes()
    cell_line = next(
        line for line in _lines(log) if json.loads(line)["event"] == "cell"
    )
    log.write_bytes(whole + cell_line[: len(cell_line) // 2])

    store = JobStore(workers=1, journal=path)
    try:
        assert store.snapshot("run-000001")["status"] == "done"
        assert len(store.anomalies) == 1
        assert "torn final write" in store.anomalies[0]
    finally:
        store.close()
    assert log.read_bytes() == whole


def test_torn_final_log_line_is_dropped_and_its_seq_reused(tmp_path):
    """A kill mid-write of the report (the longest line) leaves the run
    unfinished: recovery cuts the torn line, a follower never sees it,
    and the resume folds every logged cell back, re-executing none,
    to the same report at the torn line's seq and after."""
    path = tmp_path / "journal"
    _run_to_completion(path)
    log = path / "run-000001.ndjson"
    lines = _lines(log)
    torn = json.loads(lines[-1])
    assert torn["event"] == "report"
    log.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])

    store = JobStore(workers=1, journal=path)
    try:
        assert _await_terminal(store, "run-000001")["status"] == "done"
        streamed = list(store.follow_lines("run-000001"))
        assert streamed[: len(lines) - 1] == lines[:-1]
        resumed = [json.loads(line) for line in streamed[len(lines) - 1:]]
        assert [e["event"] for e in resumed[:2]] == ["recovered", "running"]
        assert resumed[0]["seq"] == torn["seq"]
        assert resumed[0]["cells_journaled"] == 2
        assert resumed[-1]["event"] == "report"
        assert resumed[-1]["report"] == torn["report"]
        assert "cell" not in [e["event"] for e in resumed]
        assert log.read_bytes() == b"".join(streamed)
    finally:
        store.close()


def test_recovery_continues_the_surviving_event_log(tmp_path):
    """A run killed after logging ``queued@0, running@1`` resumes on
    the same log: the old lines stay a verbatim prefix of the stream
    and seqs rise with no gap and no reuse across the restart."""
    path = tmp_path / "journal"
    path.mkdir()
    request = parse_run_request(RUN_BODY)
    before = [
        _queued_line("run-000001", RUN_BODY, summary=request.summary),
        _line("running", {"run_id": "run-000001"}, 1),
    ]
    (path / "run-000001.ndjson").write_text("".join(before))

    store = JobStore(workers=1, journal=path)
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


def test_corrupt_middle_line_cuts_the_log_there(tmp_path):
    """A garbled line in the middle of an unfinished run's log ends the
    log: boot succeeds, the cut is noted, the cells after it re-run,
    and the report is byte-identical to an uninterrupted run."""
    body = {"app": "wc", "seed": 7,
            "synth": {"tenants": 3, "duration_s": 10, "mean_rpm": 60,
                      "seed": 5}}
    source = tmp_path / "source"
    reference = render_json(_run_to_completion(source, body)["report"])
    lines = _before_terminal(_lines(source / "run-000001.ndjson"))
    cell_at = [
        i for i, line in enumerate(lines)
        if json.loads(line)["event"] == "cell"
    ]
    assert len(cell_at) == 3
    first_cell = json.loads(lines[cell_at[0]])["cell"]
    cut = cell_at[1]  # keep one cell, garble the second
    for name, garbage in [
        ("not-json", b"{not json\n"),
        ("nul-bytes", b"\x00garbage\x00\n"),
        ("not-an-event", b'{"valid": "json", "but": "not an event"}\n'),
    ]:
        path = tmp_path / name
        path.mkdir()
        log = path / "run-000001.ndjson"
        log.write_bytes(
            b"".join(lines[:cut]) + garbage + b"".join(lines[cut + 1:])
        )
        store = JobStore(workers=1, journal=path)
        try:
            snap = _await_terminal(store, "run-000001")
            assert snap["status"] == "done", (name, snap.get("error"))
            assert render_json(snap["report"]) == reference, name
            (note,) = store.anomalies
            assert f"line {cut + 1}: undecodable" in note, name
            resumed = store.metrics.counter_total("repro_cells_resumed_total")
            assert resumed == 1, name
        finally:
            store.close()
        assert _lines(log)[:cut] == lines[:cut]
        assert _events(log)[cut]["event"] == "recovered"
        cells = _cell_keys(log)
        assert cells[0] == first_cell and sorted(cells) == sorted(set(cells))
        assert len(cells) == 3, name


def test_out_of_order_seq_cuts_the_log_there(tmp_path):
    """A line whose seq does not rise is as bad as an undecodable one:
    the log ends before it."""
    path = tmp_path / "journal"
    _run_to_completion(path)
    log = path / "run-000001.ndjson"
    lines = _before_terminal(_lines(log))
    log.write_bytes(b"".join(lines) + lines[1])
    store = JobStore(workers=1, journal=path)
    try:
        assert _await_terminal(store, "run-000001")["status"] == "done"
        assert "undecodable" in store.anomalies[0]
    finally:
        store.close()
    assert _lines(log)[: len(lines)] == lines


def test_duplicate_cell_records_dedupe_first_wins(tmp_path):
    """Each cell key folds from its first ``cell`` line; later ones are
    noted and ignored, and nothing re-executes."""
    path = tmp_path / "journal"
    reference = render_json(_run_to_completion(path)["report"])
    log = path / "run-000001.ndjson"
    lines = _before_terminal(_lines(log))
    events = [json.loads(line) for line in lines]
    seq = events[-1]["seq"]
    copies = []
    for event in events:
        if event["event"] == "cell":
            seq += 1
            body = {k: v for k, v in event.items()
                    if k not in ("event", "v", "seq")}
            copies.append(_line("cell", body, seq).encode())
    log.write_bytes(b"".join(lines + copies))

    store = JobStore(workers=1, journal=path)
    try:
        snap = _await_terminal(store, "run-000001")
        assert render_json(snap["report"]) == reference
        assert len(store.anomalies) == 2
        assert all("duplicate cell" in note for note in store.anomalies)
        assert store.metrics.counter_total("repro_cells_resumed_total") == 2
    finally:
        store.close()
    keys = [e["cell"] for e in events if e["event"] == "cell"]
    assert _cell_keys(log) == keys * 2


def test_orphan_records_are_discarded(tmp_path):
    """A log whose first line is not ``queued`` (a crash tore the run's
    first append) is discarded with a note; new ids continue past it."""
    path = tmp_path / "journal"
    path.mkdir()
    (path / "run-000099.ndjson").write_text(
        _line("running", {"run_id": "run-000099"}, 0)
    )
    (path / "run-000098.ndjson").write_text('{"event": "que')
    store = JobStore(workers=1, journal=path)
    try:
        assert store.list() == [] and _run_files(path) == []
        assert sorted(store.anomalies)[-2:] == [
            "run-000098.ndjson: no queued line; run discarded",
            "run-000099.ndjson: no queued line; run discarded",
        ]
        assert store.submit(parse_run_request(RUN_BODY)) == "run-000100"
    finally:
        store.close()


def test_stale_checkpoint_identity_is_rerun_not_merged(tmp_path):
    """A log whose cell identities no longer match the request (the
    seed changed between runs of the same id) re-runs those cells; the
    resumed report reflects the *request*, never the stale residue."""
    path = tmp_path / "journal"
    _run_to_completion(path)
    log = path / "run-000001.ndjson"
    lines = _before_terminal(_lines(log))
    # Tamper: change the logged submission's seed but keep the old cell
    # residues (their identity tokens embed the old seed).
    queued = json.loads(lines[0])
    lines[0] = _queued_line(
        "run-000001", dict(RUN_BODY, seed=99), summary=queued["request"]
    ).encode()
    log.write_bytes(b"".join(lines))

    store = JobStore(workers=1, journal=path)
    try:
        snap = _await_terminal(store, "run-000001")
        assert snap["status"] == "done", snap.get("error")
        resumed = render_json(snap["report"])
        assert store.metrics.counter_total("repro_cells_resumed_total") == 0
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


def _boot_on_queued(path, payload):
    path.mkdir()
    (path / "run-000001.ndjson").write_text(
        _queued_line("run-000001", payload, cells=0)
    )
    return JobStore(workers=1, journal=path)


def test_unparseable_journaled_request_fails_cleanly(tmp_path):
    path = tmp_path / "journal"
    store = _boot_on_queued(path, {"app": "no-such-app"})
    try:
        snap = store.snapshot("run-000001")
        assert snap["status"] == "failed"
        assert "no longer valid" in snap["error"]
    finally:
        store.close()
    # The failure is logged: the next boot restores it read-only
    # instead of retrying forever.
    assert _events(path / "run-000001.ndjson")[-1]["event"] == "error"
    store = JobStore(workers=1, journal=path)
    try:
        assert store.snapshot("run-000001")["status"] == "failed"
    finally:
        store.close()


def test_journaled_record_sink_key_restores_as_failed(tmp_path):
    """An older server accepted a ``"record_sink"`` key; a run logged
    with it restores as failed with the unknown-key message."""
    store = _boot_on_queued(
        tmp_path / "journal", dict(RUN_BODY, record_sink="spill")
    )
    try:
        snap = store.snapshot("run-000001")
        assert snap["status"] == "failed"
        assert "unknown request keys ['record_sink']" in snap["error"]
    finally:
        store.close()


# -- crash cuts: every prefix of a finished log resumes ---------------------


def test_every_crash_cut_of_a_log_resumes_to_the_same_report(tmp_path):
    """Cut a finished run's log at every line boundary and at one
    mid-line offset per line.  Each cut boots to the byte-identical
    report; the complete lines before the cut stay a prefix of the new
    log; seqs rise strictly; and each cell key has exactly one ``cell``
    line.  A cut inside the ``queued`` line leaves no accepted run, so
    that log is discarded."""
    source = tmp_path / "source"
    reference = render_json(_run_to_completion(source)["report"])
    whole = (source / "run-000001.ndjson").read_bytes()
    lines = whole.splitlines(keepends=True)
    cuts = []
    offset = 0
    for line in lines:
        cuts.append(offset + len(line) // 2)
        offset += len(line)
        cuts.append(offset)
    for cut in cuts:
        path = tmp_path / f"cut-{cut}"
        path.mkdir()
        log = path / "run-000001.ndjson"
        log.write_bytes(whole[:cut])
        kept = whole[: whole.rfind(b"\n", 0, cut) + 1] if cut else b""
        store = JobStore(workers=1, journal=path)
        try:
            if cut < len(lines[0]):
                assert store.list() == [] and _run_files(path) == [], cut
                continue
            snap = _await_terminal(store, "run-000001")
            assert snap["status"] == "done", (cut, snap.get("error"))
            assert render_json(snap["report"]) == reference, cut
        finally:
            store.close()
        after = log.read_bytes()
        assert after.startswith(kept), cut
        seqs = [e["seq"] for e in _events(log)]
        assert all(a < b for a, b in zip(seqs, seqs[1:])), (cut, seqs)
        assert sorted(_cell_keys(log)) == ["a", "b"], cut


# -- close() lifecycle: queued jobs become interrupted ------------------------


def test_close_interrupts_queued_jobs_and_restart_resumes(tmp_path):
    path = tmp_path / "journal"
    store = JobStore(workers=1, journal=path)
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
        logged = _events(path / f"{run_id}.ndjson")
        assert logged[-1]["event"] == "interrupted"

    # Restart on the same journal: interrupted runs resume and finish.
    store2 = JobStore(workers=1, journal=path)
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
    store = JobStore(workers=1, journal=tmp_path / "j")
    store.close()
    with pytest.raises(RuntimeError):
        store.submit(parse_run_request(RUN_BODY))


def test_cell_retried_to_success_is_journaled_exactly_once(tmp_path):
    """A cell that fails its first attempt and succeeds on retry folds —
    and logs — exactly once, and the report is identical to the
    fault-free run's (retries are invisible to the replay semantics)."""
    control = _run_to_completion(tmp_path / "control")

    path = tmp_path / "journal"
    body = dict(
        RUN_BODY,
        retry={"max_attempts": 2},
        faults=[{"kind": "poison", "cell": "a", "attempt": 1}],
    )
    store = JobStore(workers=1, journal=path)
    try:
        run_id = store.submit(parse_run_request(body))
        snap = _await_terminal(store, run_id)
        assert snap["status"] == "done", snap.get("error")
        assert snap.get("degraded") is not True
        assert render_json(snap["report"]) == render_json(control["report"])
    finally:
        store.close()

    log = path / f"{run_id}.ndjson"
    assert sorted(_cell_keys(log)) == ["a", "b"]  # once each — attempt
    # 1's failure never reached the log, only attempt 2's fold did.
    before = log.read_bytes()

    # Restart: the run restores read-only, nothing re-executes.
    store2 = JobStore(workers=1, journal=path)
    try:
        snap = store2.snapshot(run_id)
        assert snap["status"] == "done"
        assert render_json(snap["report"]) == render_json(control["report"])
        assert store2.anomalies == []
    finally:
        store2.close()
    assert log.read_bytes() == before  # file untouched


def test_degraded_resume_reexecutes_only_unjournaled_cells(tmp_path):
    """Crash-resume of a degraded run: the logged surviving cell folds
    back from its residue, only the unlogged (poisoned) cell
    re-executes — and fails again, reproducing the identical degraded
    report."""
    path = tmp_path / "journal"
    body = dict(
        RUN_BODY,
        retry={"max_attempts": 1},
        faults=[{"kind": "poison", "cell": "a", "attempt": 0}],
        on_cell_failure="skip",
    )
    store = JobStore(workers=1, journal=path)
    try:
        run_id = store.submit(parse_run_request(body))
        snap = _await_terminal(store, run_id)
        assert snap["status"] == "done", snap.get("error")
        assert snap["degraded"] is True
        reference = render_json(snap["report"])
    finally:
        store.close()

    # The poisoned cell left no residue; only "b" is logged.
    log = path / f"{run_id}.ndjson"
    assert _cell_keys(log) == ["b"]

    # Surgery: cut the terminal batch, as a crash between the last fold
    # and the run's end would.
    lines = _before_terminal(_lines(log))
    log.write_bytes(b"".join(lines))
    before = [json.loads(line) for line in lines]

    store2 = JobStore(workers=1, journal=path)
    try:
        snap = _await_terminal(store2, run_id)
        assert snap["status"] == "done", snap.get("error")
        assert snap["degraded"] is True
        assert snap["recovered"] is True
        assert render_json(snap["report"]) == reference
        events = list(store2.follow(run_id))
        assert events[: len(before)] == before
        assert events[-1]["event"] == "degraded"
    finally:
        store2.close()
    # "b" folded from the log, not re-executed: its one cell line is
    # the one kept from before the restart; "a" replayed fresh (and was
    # poisoned again), so it has none.
    assert _cell_keys(log) == ["b"]


def test_recovered_ids_never_collide_with_new_submissions(tmp_path):
    path = tmp_path / "journal"
    _run_to_completion(path)
    store = JobStore(workers=1, journal=path)
    try:
        new_id = store.submit(parse_run_request(RUN_BODY))
        assert new_id == "run-000002"
        assert store.snapshot("run-000001")["status"] == "done"
    finally:
        store.close()


def test_recovery_honours_max_finished(tmp_path, monkeypatch):
    path = tmp_path / "journal"
    store = JobStore(workers=1, journal=path)
    try:
        for _ in range(4):
            run_id = store.submit(parse_run_request(RUN_BODY))
            assert _await_terminal(store, run_id)["status"] == "done"
        before = list(store.follow("run-000004"))
    finally:
        store.close()
    assert len(_run_files(path)) == 4

    appended = []
    real_append = JobStore._append

    def spy(self, job, kind, body):
        appended.append(job.id)
        real_append(self, job, kind, body)

    monkeypatch.setattr(JobStore, "_append", spy)
    kept = ["run-000003", "run-000004"]
    # Two boots: the first selects the retention window, the second
    # boots over what the first left.  Neither appends to any run, and
    # only the two newest runs' event logs stay on disk.
    for _ in range(2):
        store = JobStore(workers=1, journal=path, max_finished=2)
        try:
            assert [row["id"] for row in store.list()] == kept
            assert _run_files(path) == [f"{run_id}.ndjson" for run_id in kept]
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
    store = JobStore(workers=1, journal=path, max_finished=3)
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
    assert set(counts) == {3}
    # Runs differ only in wall-clock digits, so the bytes stay level.
    assert max(sizes) - min(sizes) < 0.01 * min(sizes)
    assert len(set(threads)) == 1

    restarted = JobStore(workers=1, journal=path, max_finished=3)
    try:
        assert [row["id"] for row in restarted.list()] == [
            "run-000028", "run-000029", "run-000030",
        ]
    finally:
        restarted.close()


def test_interrupted_runs_survive_eviction(tmp_path):
    """``close()`` interrupts more queued runs than ``max_finished``
    while a running one finishes.  That finish evicts the oldest
    interrupted runs from memory, but never their event logs: a restart
    resumes every one to the uninterrupted report."""
    reference = render_json(
        _run_to_completion(tmp_path / "control")["report"]
    )
    path = tmp_path / "journal"
    store = JobStore(workers=1, journal=path, max_finished=2)
    slow_id = store.submit(parse_run_request(SLOW_BODY))
    deadline = time.monotonic() + 30
    while store.snapshot(slow_id)["status"] == "queued":
        assert time.monotonic() < deadline
        time.sleep(0.01)
    queued = [store.submit(parse_run_request(RUN_BODY)) for _ in range(4)]
    store.close(timeout_s=120)

    # The slow run finished, and that evicted it and the two oldest
    # interrupted runs; only the finished run's log went with it.
    assert [row["id"] for row in store.list()] == queued[2:]
    for run_id in [slow_id] + queued[:2]:
        with pytest.raises(UnknownJob):
            store.snapshot(run_id)
    assert _run_files(path) == [f"{run_id}.ndjson" for run_id in queued]

    restarted = JobStore(workers=1, journal=path)
    try:
        for run_id in queued:
            snap = _await_terminal(restarted, run_id)
            assert snap["status"] == "done", snap.get("error")
            assert snap["recovered"] is True
            assert render_json(snap["report"]) == reference
    finally:
        restarted.close()
