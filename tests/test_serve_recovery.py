"""Crash-recovery integration harness for ``repro serve --journal``.

The acceptance test for the durable run journal, end to end and out of
process: boot the real server as a subprocess with a journal, submit a
multi-cell run, SIGKILL the process mid-run — gated on the journal
showing a threshold of completed cells, never on sleeps — then restart
on the same journal and assert the resumed run finishes with a report
byte-identical to an uninterrupted control run, with the already-
completed cells *not* re-executed (each cell key has exactly one
``cell`` line in the run's event log across both incarnations).
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.metrics.report import render_json
from repro.metrics.telemetry import validate_event
from repro.serve import parse_run_request
from repro.serve.jobs import JobStore

ROOT = Path(__file__).resolve().parent.parent

#: ~1800 events over 8 tenant cells, several seconds of serial replay:
#: wide enough that a SIGKILL lands reliably between the Nth journaled
#: cell and completion, on fast and slow machines alike.
RUN_BODY = {
    "app": "wc",
    "seed": 7,
    "workers": 1,
    "synth": {"tenants": 8, "duration_s": 60, "mean_rpm": 120, "seed": 5},
}

#: SIGKILL once this many cells are journaled (of 8).
KILL_AFTER_CELLS = 2

_LISTENING = re.compile(r"listening on (http://[0-9.]+:\d+)")


def _start_server(journal_path):
    """Boot ``repro serve`` as a subprocess; returns (process, base_url).

    ``--port 0`` lets the OS pick a free port; the launch banner on
    stdout carries the resolved URL.  stderr (per-request logs) goes to
    DEVNULL so the pipe can never fill up and stall the server.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", "1",
            "--journal", str(journal_path),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        match = _LISTENING.search(line)
        assert match, f"no listening banner, got: {line!r}"
        return proc, match.group(1)
    except Exception:
        proc.kill()
        proc.wait()
        raise


def _request(url, body=None, timeout=10):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"} if body else {},
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read())


def _await(predicate, timeout_s, what):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value is not None:
            return value
        time.sleep(0.02)
    raise AssertionError(f"timed out after {timeout_s}s waiting for {what}")


def _logged_events(journal_path, run_id):
    """The complete lines of one run's event log, decoded; a torn tail
    (the write a kill cut short) is left out."""
    log = journal_path / f"{run_id}.ndjson"
    if not log.exists():
        return []
    return [json.loads(line) for line in log.read_text().split("\n")[:-1]]


def _journaled_cells(journal_path, run_id):
    """Cell keys logged for one run, in append order, duplicates kept
    (a duplicate is a re-executed cell)."""
    return [
        event["cell"] for event in _logged_events(journal_path, run_id)
        if event["event"] == "cell"
    ]


def _finished(journal_path, run_id):
    """Whether the run's log holds its terminal line."""
    return any(
        event["event"] in ("report", "degraded", "error")
        for event in _logged_events(journal_path, run_id)
    )


def _events(base, run_id):
    """Drain the NDJSON event stream of a terminal run, skipping
    keepalive comment lines."""
    with urllib.request.urlopen(
        f"{base}/v1/runs/{run_id}/events", timeout=30
    ) as resp:
        return [
            json.loads(line)
            for line in resp.read().decode("utf-8").splitlines()
            if line and not line.startswith(":")
        ]


def _control_report(body=RUN_BODY):
    """The uninterrupted run, in process: the byte-identical target."""
    store = JobStore(workers=1)
    try:
        run_id = store.submit(parse_run_request(body))
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            snap = store.snapshot(run_id)
            if snap["status"] == "done":
                return render_json(snap["report"])
            assert snap["status"] != "failed", snap.get("error")
            time.sleep(0.05)
        raise AssertionError("control run did not finish")
    finally:
        store.close()


def test_sigkill_mid_run_resumes_to_byte_identical_report(tmp_path):
    journal_path = tmp_path / "journal"
    control = _control_report()

    # -- first incarnation: submit, then die mid-run --------------------------
    proc, base = _start_server(journal_path)
    try:
        accepted = _request(f"{base}/v1/runs", RUN_BODY)
        run_id = accepted["id"]
        assert accepted["status"] == "queued"

        # Gate on durable progress, not on time: kill only once the
        # log proves >= KILL_AFTER_CELLS cells finished, and the run
        # hasn't finished (the log has no terminal line).
        def enough_progress():
            cells = _journaled_cells(journal_path, run_id)
            return cells if len(cells) >= KILL_AFTER_CELLS else None

        before_kill = _await(
            enough_progress, 60,
            f"{KILL_AFTER_CELLS} journaled cells",
        )
        assert not _finished(journal_path, run_id), (
            "run finished before the kill; workload too small for this "
            "machine"
        )
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    checkpointed = len(before_kill)
    assert len(set(before_kill)) == checkpointed  # no dupes pre-kill
    # The run's event log survives the kill; the resumed stream must
    # continue it.
    pre_crash = _logged_events(journal_path, run_id)
    assert len(pre_crash) > 1

    # -- second incarnation: same journal, resume, finish ---------------------
    proc, base = _start_server(journal_path)
    try:
        # The run is visible across the restart (GET /v1/runs survives).
        listing = _request(f"{base}/v1/runs")
        assert any(run["id"] == run_id for run in listing["runs"]), listing

        def finished():
            snap = _request(f"{base}/v1/runs/{run_id}")
            return snap if snap["status"] in ("done", "failed") else None

        snap = _await(finished, 120, "resumed run to finish")
        assert snap["status"] == "done", snap.get("error")
        assert snap["recovered"] is True
        assert snap["cells_done"] == snap["cells"] == 8

        # The resumed report is byte-identical to the uninterrupted run.
        assert render_json(snap["report"]) == control

        # Event seq is monotonic across the crash-resume boundary: the
        # recovered incarnation continues the first one's log, so every
        # event a pre-crash follower saw keeps its seq and no later
        # event reuses one.
        events = _events(base, run_id)
        for event in events:
            validate_event(event)
        assert events[: len(pre_crash)] == pre_crash
        seqs = [event["seq"] for event in events]
        assert seqs == list(range(len(events))), "seq gap or reuse"
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    # -- the log proves no re-execution ---------------------------------------
    after = _journaled_cells(journal_path, run_id)
    assert sorted(set(after)) == sorted(f"tenant{i}" for i in range(8))
    # Exactly one cell line per key across both incarnations: the
    # checkpointed cells were folded from the log, not re-executed.
    assert len(after) == 8, (
        f"cells journaled twice: {sorted(k for k in after if after.count(k) > 1)}"
    )
    assert after[:checkpointed] == before_kill  # append-only survived the kill

    (terminal,) = [
        event for event in _logged_events(journal_path, run_id)
        if event["event"] in ("report", "degraded", "error")
    ]
    assert terminal["event"] == "report"
    assert render_json(terminal["report"]) == control


def test_sigkill_mid_degraded_run_resumes_only_unjournaled_cells(tmp_path):
    """Crash-resume × retry policy, out of process: a run degraded by a
    poisoned cell (``on_cell_failure: skip``) is SIGKILLed mid-run; the
    restart folds the journaled cells back without re-executing them,
    replays only the unjournaled ones — the poisoned cell fails again,
    deterministically — and lands on a degraded report byte-identical
    to an uninterrupted degraded run's."""
    journal_path = tmp_path / "journal"
    body = dict(
        RUN_BODY,
        retry={"max_attempts": 1},
        faults=[{"kind": "poison", "cell": "tenant0", "attempt": 0}],
        on_cell_failure="skip",
    )
    control = _control_report(body)

    proc, base = _start_server(journal_path)
    try:
        run_id = _request(f"{base}/v1/runs", body)["id"]

        def enough_progress():
            cells = _journaled_cells(journal_path, run_id)
            return cells if len(cells) >= KILL_AFTER_CELLS else None

        before_kill = _await(
            enough_progress, 60, f"{KILL_AFTER_CELLS} journaled cells",
        )
        assert not _finished(journal_path, run_id)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    # The poisoned cell never journals a residue — only survivors do.
    assert "tenant0" not in before_kill

    proc, base = _start_server(journal_path)
    try:
        def finished():
            snap = _request(f"{base}/v1/runs/{run_id}")
            return snap if snap["status"] in ("done", "failed") else None

        snap = _await(finished, 120, "resumed degraded run to finish")
        assert snap["status"] == "done", snap.get("error")
        assert snap["recovered"] is True
        assert snap["degraded"] is True
        assert render_json(snap["report"]) == control
        failed = snap["report"]["replay"]["failed_cells"]
        assert [(f["cell"], f["kind"], f["attempts"]) for f in failed] == [
            ("tenant0", "poison", 1)
        ]
        events = _events(base, run_id)
        for event in events:
            validate_event(event)
        assert events[-1]["event"] == "degraded"
        assert events[-1]["failed_cells"] == 1
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    # One cell line per *surviving* key across both incarnations: the
    # checkpointed cells folded from the log, the poisoned cell re-ran
    # (and failed again) without ever logging one.
    after = _journaled_cells(journal_path, run_id)
    assert sorted(set(after)) == sorted(f"tenant{i}" for i in range(1, 8))
    assert len(after) == 7, (
        f"cells journaled twice: "
        f"{sorted(k for k in after if after.count(k) > 1)}"
    )
    assert after[: len(before_kill)] == before_kill


def test_restart_restores_finished_run_read_only(tmp_path):
    """No crash at all: a completed run survives a clean restart with
    its report byte-identical, served from the journal alone."""
    journal_path = tmp_path / "journal"
    body = {"app": "wc", "seed": 3, "synth": {
        "tenants": 3, "duration_s": 20, "mean_rpm": 60, "seed": 1,
    }}

    proc, base = _start_server(journal_path)
    try:
        run_id = _request(f"{base}/v1/runs", body)["id"]
        snap = _await(
            lambda: (
                lambda s: s if s["status"] in ("done", "failed") else None
            )(_request(f"{base}/v1/runs/{run_id}")),
            120, "run to finish",
        )
        assert snap["status"] == "done", snap.get("error")
        first = render_json(snap["report"])
    finally:
        proc.terminate()
        proc.wait(timeout=30)

    proc, base = _start_server(journal_path)
    try:
        snap = _request(f"{base}/v1/runs/{run_id}")
        assert snap["status"] == "done"
        assert snap["recovered"] is True
        assert render_json(snap["report"]) == first
        # New submissions keep working and get a fresh id.
        new_id = _request(f"{base}/v1/runs", body)["id"]
        assert new_id != run_id
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
