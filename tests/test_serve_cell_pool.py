"""Where ``repro serve`` runs local cells: a cell-process pool per job thread.

Each :class:`~repro.serve.jobs.JobStore` job thread owns one persistent
:class:`~repro.parallel.engine.CellPool`, so no simulation runs in the
server process.  These tests pin the pool's lifetime — reused across
runs, replaced after an abnormal fold, gone after ``close()`` and after
the server is SIGKILLed — and the semantics it brings to local runs:
deadlines apply, a ``kill`` fault kills a real process, and a terminal
job drops its request.
"""

import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.metrics.report import render_json
from repro.parallel import run_parallel_replay
from repro.serve import parse_run_request
from repro.serve.jobs import JobStore

ROOT = Path(__file__).resolve().parent.parent

#: Three small cells (tenant0..tenant2), well under a second of replay.
BODY = {
    "app": "wc",
    "seed": 7,
    "synth": {"tenants": 3, "duration_s": 10, "mean_rpm": 40, "seed": 0},
}

#: Seconds of replay on one worker: long enough to still be running
#: when a test closes the store or queues a second run behind it.
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


def _run(store, body=BODY):
    run_id = store.submit(parse_run_request(body))
    return run_id, _await_terminal(store, run_id)


def _children():
    return sorted(p.pid for p in multiprocessing.active_children())


def _control(body=BODY):
    request = parse_run_request(body)
    return render_json(
        run_parallel_replay(request.trace, request.spec, workers=1).to_dict()
    )


def _pin_cpus(monkeypatch, count=8):
    """Pin the host CPU count a persistent pool is capped at, so the
    process counts these tests expect hold on any host."""
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def test_one_job_thread_reuses_its_cell_process_across_runs(monkeypatch):
    _pin_cpus(monkeypatch)
    store = JobStore(workers=1)
    try:
        assert _children() == []  # the pool starts at the first run
        _, first = _run(store)
        assert first["status"] == "done", first.get("error")
        pids = _children()
        assert len(pids) == 1
        _, second = _run(store)
        assert second["status"] == "done", second.get("error")
        assert _children() == pids
        assert render_json(second["report"]) == render_json(first["report"])
        assert render_json(first["report"]) == _control()
        # A run asking for another size replaces the pool.
        _, wide = _run(store, dict(BODY, workers=2))
        assert render_json(wide["report"]) == _control()
        assert len(_children()) == 2 and not set(_children()) & set(pids)
    finally:
        store.close()
    assert multiprocessing.active_children() == []


def test_a_pool_never_has_more_processes_than_the_run_has_cells(monkeypatch):
    """A body's ``workers`` has no upper bound; the pool is capped at the
    run's cell count, so a large value forks no more processes."""
    _pin_cpus(monkeypatch)
    store = JobStore(workers=1)
    try:
        _, snap = _run(store, dict(BODY, workers=64))
        assert snap["status"] == "done", snap.get("error")
        assert render_json(snap["report"]) == _control()
        # The pool forks all its processes at once and keeps them.
        assert len(_children()) == 3
    finally:
        store.close()
    assert multiprocessing.active_children() == []


def test_a_pool_never_has_more_processes_than_the_host_has_cpus(monkeypatch):
    """The pool is also capped at the host's CPU count: a body with as
    many ``workers`` as tenants forks no more processes than that."""
    _pin_cpus(monkeypatch, 2)
    body = dict(BODY, workers=4, synth=dict(BODY["synth"], tenants=4))
    store = JobStore(workers=1)
    try:
        _, snap = _run(store, body)
        assert snap["status"] == "done", snap.get("error")
        assert render_json(snap["report"]) == _control(body)
        assert len(_children()) == 2
    finally:
        store.close()
    assert multiprocessing.active_children() == []


def test_a_failed_fold_does_not_hand_its_pool_to_the_next_run():
    store = JobStore(workers=1)
    try:
        _run(store)
        before = _children()
        _, failed = _run(store, dict(
            BODY, retry={"max_attempts": 1},
            faults=[{"kind": "poison", "cell": "tenant1", "attempt": 0}],
        ))
        assert failed["status"] == "failed"
        assert "poison" in failed["error"]
        assert _children() == []  # shut down with the aborted fold
        _, after = _run(store)
        assert after["status"] == "done"
        assert len(_children()) == 1 and _children() != before
    finally:
        store.close()
    assert multiprocessing.active_children() == []


def test_kill_fault_at_one_worker_kills_the_cell_process():
    """At ``workers: 1`` a ``kill`` fault SIGKILLs the real cell
    process: the pool is replaced, the attempt retried, and the report
    is byte-identical to a fault-free run."""
    store = JobStore(workers=1)
    try:
        _, snap = _run(store, dict(
            BODY, retry={"max_attempts": 2},
            faults=[{"kind": "kill", "cell": "tenant1", "attempt": 1}],
        ))
        assert snap["status"] == "done", snap.get("error")
        assert render_json(snap["report"]) == _control()
        assert len(_children()) == 1  # the replaced pool's process
        metrics = store.metrics.snapshot()
        assert metrics["repro_worker_crashes_total"] == {(): 1.0}
        assert metrics["repro_cell_retries_total"] == {(): 1.0}
    finally:
        store.close()
    assert multiprocessing.active_children() == []


def test_local_runs_enforce_the_cell_deadline():
    """``retry.deadline_s`` bounds a local serve cell as it bounds a
    ``repro replay`` cell: the cell replays on its process's main
    thread, where ``SIGALRM`` is delivered."""
    store = JobStore(workers=1)
    try:
        _, snap = _run(store, dict(
            BODY,
            retry={"max_attempts": 1, "deadline_s": 0.2},
            faults=[{"kind": "delay", "cell": "tenant0", "attempt": 0,
                     "delay_s": 5.0}],
            on_cell_failure="skip",
        ))
    finally:
        store.close()
    assert snap["status"] == "done" and snap.get("degraded") is True
    failed = snap["report"]["replay"]["failed_cells"]
    assert [(f["cell"], f["kind"]) for f in failed] == [("tenant0", "timeout")]
    assert "deadline" in failed[0]["message"]


def test_terminal_jobs_drop_their_request(tmp_path):
    journal = tmp_path / "journal"
    store = JobStore(workers=1, journal=journal)
    try:
        done_id, done = _run(store)
        failed_id, failed = _run(store, dict(
            BODY, retry={"max_attempts": 1},
            faults=[{"kind": "poison", "cell": "tenant0", "attempt": 0}],
        ))
        assert (done["status"], failed["status"]) == ("done", "failed")
        slow_id = store.submit(parse_run_request(SLOW_BODY))
        queued_id = store.submit(parse_run_request(BODY))
    finally:
        store.close(timeout_s=0.2)
    for run_id in (done_id, failed_id, slow_id, queued_id):
        job = store._jobs[run_id]
        assert job.status in ("done", "failed", "interrupted")
        assert job.request is None
        # Snapshots answer from the summary alone.
        assert store.snapshot(run_id)["request"]["app"] == "wc"
    assert store._jobs[queued_id].status == "interrupted"

    restarted = JobStore(workers=1, journal=journal)
    try:
        snap = _await_terminal(restarted, queued_id)
        assert snap["status"] == "done" and snap["recovered"] is True
        assert render_json(snap["report"]) == _control()
        assert restarted.snapshot(done_id)["report"] == done["report"]
    finally:
        restarted.close()
    assert multiprocessing.active_children() == []


def test_close_kills_a_cell_still_running_past_the_timeout():
    store = JobStore(workers=1)
    run_id = store.submit(parse_run_request(SLOW_BODY))
    deadline = time.monotonic() + 30
    while store.snapshot(run_id)["status"] != "running":
        assert time.monotonic() < deadline
        time.sleep(0.01)
    started = time.monotonic()
    store.close(timeout_s=0.2)
    assert time.monotonic() - started < 5
    assert store.snapshot(run_id)["status"] == "interrupted"
    assert multiprocessing.active_children() == []


def test_close_kills_the_cells_an_aborted_fold_is_still_waiting_for(
    monkeypatch,
):
    """A fold aborted under ``on_cell_failure: "fail"`` shuts its pool
    down, waiting for a sibling cell still running; a ``close()`` that
    arrives meanwhile kills that cell too."""
    _pin_cpus(monkeypatch)
    store = JobStore(workers=1)
    run_id = store.submit(parse_run_request(dict(
        BODY, workers=3, retry={"max_attempts": 1},
        faults=[
            {"kind": "delay", "cell": "tenant0", "attempt": 0,
             "delay_s": 30.0},
            {"kind": "poison", "cell": "tenant1", "attempt": 0},
        ],
    )))
    pool = store._cell_pools[0]
    deadline = time.monotonic() + 30
    while not pool._stopping:
        assert time.monotonic() < deadline, "the fold never aborted"
        time.sleep(0.01)
    started = time.monotonic()
    store.close(timeout_s=0.2)
    assert time.monotonic() - started < 5
    assert store.snapshot(run_id)["status"] == "interrupted"
    assert multiprocessing.active_children() == []


def _open_paths(pid):
    paths = []
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            paths.append(os.readlink(f"/proc/{pid}/fd/{fd}"))
        except FileNotFoundError:
            pass
    return paths


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/<pid>/fd"
)
def test_cell_processes_do_not_pin_an_evicted_event_log(monkeypatch):
    """A cell process forked while a follower holds a run's event log
    open keeps no copy of it, so evicting the run frees the file."""
    _pin_cpus(monkeypatch)
    store = JobStore(workers=1, max_finished=1)
    try:
        first_id, _ = _run(store)
        log = store._log_path(first_id)
        follower = store.follow_lines(first_id)
        next(follower)  # the follower now holds the log open
        # Another size replaces the pool: it forks with the log open,
        # and finishing evicts the first run (max_finished=1).
        _, wide = _run(store, dict(BODY, workers=2))
        assert wide["status"] == "done", wide.get("error")
        assert not log.exists()
        follower.close()
        pids = _children()
        assert len(pids) == 2
        for pid in pids:
            assert not any(str(log) in path for path in _open_paths(pid))
    finally:
        store.close()
    assert multiprocessing.active_children() == []


def _children_of(pid):
    out = subprocess.run(
        ["pgrep", "-P", str(pid)], capture_output=True, text=True
    ).stdout
    return [int(line) for line in out.split()]


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    # A zombie still answers kill(0); only a reaped or dying pid counts
    # as gone.
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="parent-death signal"
)
def test_cell_process_dies_with_a_sigkilled_server(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--no-dashboard"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
        text=True,
    )
    try:
        match = re.search(r"listening on (\S+)", proc.stdout.readline())
        assert match, "no listening banner"
        from repro.serve import ServeClient

        report = ServeClient(match.group(1), timeout_s=60.0).run(BODY)
        assert render_json(report) == _control()
        cells = _children_of(proc.pid)
        assert len(cells) == 1, cells
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5
        while _alive(cells[0]):
            assert time.monotonic() < deadline, "cell process outlived server"
            time.sleep(0.05)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
