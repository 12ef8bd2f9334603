"""The job store and worker pool behind ``repro serve``.

A submitted run becomes a :class:`Job` that moves through ``queued →
running → done | failed`` (or ``queued → interrupted`` when a clean
shutdown abandons it).  A fixed pool of daemon *job-worker threads*
pulls jobs off a FIFO queue and executes each through the engine's one
fold, :func:`repro.parallel.engine.replay`, picking only the executor —
the remote fleet for ``"workers": "remote"``, otherwise the
work-stealing process pool — so the service adds scheduling around the
engine, never a second execution path.

Local cells never simulate in the server process.  Each job thread owns
one persistent :class:`~repro.parallel.engine.CellPool`: it starts at
the thread's first local run, sized to that run's ``workers`` (1 unless
the body asks for more, never more than the run's cells), later runs of the same size reuse it, and a
run of another size, a broken pool, or a fold that ends abnormally
replaces it.  The server itself only folds, journals and streams, so
HTTP handlers and remote leases never wait behind a simulation for the
GIL.  :meth:`JobStore.close` shuts every thread's pool down, and each
cell process exits with the server however it dies.

Progress streams through the engine's ``on_cell`` hook: every folded
:class:`~repro.parallel.engine.CellResult` appends one stable event
envelope (:func:`repro.metrics.report.event_envelope`) to the run's
event log and wakes any ``GET /v1/runs/<id>/events`` subscriber waiting
on the store's condition variable.  The log is one append-only NDJSON
file per run — in the journal directory, or in the store's temp
directory without one — and it is the only copy: each envelope is
rendered once (:func:`repro.metrics.report.render_event`) and appended
as one line, and every follower, live or late, replays the file's lines
unchanged, history first, then live.  A follower reads only as many
lines as :attr:`Job.events_logged` says are written and flushed, so it
never sees a partial line, and it opens the file in the same critical
section that resolves the job, so eviction's unlink cannot cut it off.
Each append opens, writes and closes the file: open descriptors scale
with attached followers, never with retained runs.

Durability: a store built with a :class:`~repro.serve.journal.RunJournal`
persists every submission, cell completion, and terminal status to the
run's append-only fsync'd journal file, each before the events it makes
durable are appended.  Evicting a ``done``/``failed`` run deletes its
journal file with its event log.  On construction the store replays
the journal (see :meth:`JobStore._recover`): finished runs inside the
retention window restore read-only, and unfinished runs *resume* —
journaled cell residues fold back through ``StreamingMerge`` via the
engine's ``completed_cells`` entry point and only the missing cells
re-execute, so the resumed report is byte-identical to an
uninterrupted run at the same seed (snapshots say ``recovered: true``).
The event log, not the journal, is the run's one seq ledger: recovery
continues each run's surviving log past its last complete line and
appends only what the log lacks, so a follower's history before a
restart stays a prefix of the stream after it.

Determinism note: the *report* a job produces is the engine's merged
``to_dict`` — byte-identical to ``repro replay`` on the same spec and
seed.  The *event log* is progress telemetry: cell completion order and
wall-clock fields are scheduling-dependent and deliberately kept out of
the report.
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import shutil
import tempfile
import threading
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..metrics.report import event_envelope, render_event
from ..metrics.telemetry import MetricsRegistry, validate_event
from ..parallel.engine import CellPool, CellResult, local_executor, replay
from ..parallel.policy import get_shard_policy
from ..parallel.profiles import TenantConfig
from .journal import JournalState, RunJournal, run_number
from .validation import RunRequest, parse_run_request
from .workers import FleetCancelled, WorkerRegistry

__all__ = [
    "AdmissionDenied",
    "Job",
    "JobStore",
    "RecordsUnavailable",
    "UnknownJob",
]

#: States a job can rest in; the last three are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "interrupted")
_TERMINAL = ("done", "failed", "interrupted")

#: How long one follower wait sleeps before re-checking its run.
_POLL_S = 0.25


class UnknownJob(KeyError):
    """No job with that id; the HTTP layer answers 404."""


class RecordsUnavailable(RuntimeError):
    """The run exists but its records cannot be paged (not done yet,
    journal-restored, or past the record-retention window); the HTTP
    layer answers 409 with this message."""


class AdmissionDenied(RuntimeError):
    """A run submission the front door refused (``429 Too Many
    Requests``): the queue-depth bound (``reason="queue_full"``) or the
    submitting tenant's concurrent-run quota (``reason="tenant_quota"``).
    ``retry_after_s`` feeds the response's ``Retry-After`` header."""

    def __init__(
        self, reason: str, message: str, retry_after_s: float = 1.0
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after_s = retry_after_s


@dataclass
class Job:
    """One submitted run and everything it has produced so far.

    All mutable fields are guarded by the owning store's condition
    variable; readers outside the store go through
    :meth:`JobStore.snapshot` / :meth:`JobStore.follow`.
    """

    id: str
    #: The validated request, read once when execution starts; ``None``
    #: once the job is terminal (restored terminal jobs never had one):
    #: snapshots answer from :attr:`summary`, and a journal resume
    #: re-validates the journaled body.
    request: Optional[RunRequest]
    status: str = "queued"
    #: The deterministic merged report (``done`` jobs only).
    report: Optional[dict] = None
    error: Optional[str] = None
    #: Complete lines in the run's event log file, raised under the
    #: store lock only after a line is written and flushed: a follower
    #: that reads this many lines never reads a partial one.
    events_logged: int = 0
    #: Cells folded so far — journal-recovered plus newly executed (a
    #: counter, so snapshots never read the event log).
    cells_done: int = 0
    #: The merged request rows of a ``done`` run — an in-RAM list or a
    #: disk-backed :class:`~repro.parallel.sink.SpilledRecords` — paged
    #: by ``GET /v1/runs/<id>/records``.  ``None`` once the run leaves
    #: the record-retention window or for journal-restored runs (the
    #: journal persists reports, not merged row streams).
    records: Optional[Sequence] = None
    #: The validated request echo (kept off ``request`` so restored
    #: jobs can answer snapshots without re-validating).
    summary: dict = field(default_factory=dict)
    #: Total cells the run partitions into.
    cells: int = 0
    #: True for jobs restored or resumed from a journal at startup.
    recovered: bool = False
    #: Journal-recovered cell results awaiting the resume execution
    #: (dropped once the run reaches a terminal state).
    preloaded: Optional[List[CellResult]] = None
    #: The next event ``seq`` to assign — monotonic for the lifetime of
    #: the run *including across journal resume* (recovery continues
    #: the surviving event log past its last line, so post-restart
    #: events never reuse a number a pre-crash follower already saw).
    next_seq: int = 0


class JobStore:
    """Thread-safe job registry plus the worker pool that drains it.

    Retention is bounded: at most ``max_finished`` terminal (``done`` /
    ``failed`` / ``interrupted``) jobs are kept, oldest evicted first at
    submission time, so a long-running service's memory is bounded by
    the retention window — never by total jobs ever submitted.  Queued
    and running jobs are never evicted; an evicted id answers 404.

    ``journal`` makes the store durable (see the module docstring);
    recovery runs inside the constructor, *before* the worker threads
    start, so resumed jobs execute exactly like fresh submissions.
    ``default_tenant_config`` mirrors the server-level ``--tenant-config``
    so journaled requests re-validate under the same defaults they were
    accepted under.
    """

    def __init__(
        self,
        workers: int = 2,
        max_finished: int = 256,
        journal: Optional[RunJournal] = None,
        default_tenant_config: Optional[TenantConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        max_record_runs: int = 8,
        max_queued: Optional[int] = None,
        lease_timeout_s: float = 30.0,
        heartbeat_timeout_s: float = 90.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_finished < 1:
            raise ValueError("max_finished must be >= 1")
        if max_record_runs < 1:
            raise ValueError("max_record_runs must be >= 1")
        if max_queued is not None and max_queued < 1:
            raise ValueError("max_queued must be >= 1 (or None)")
        #: Admission control: refuse submissions once this many jobs sit
        #: queued (``None`` = unbounded, the historical behavior).
        self.max_queued = max_queued
        #: Submissions refused by admission control (process lifetime).
        self.rejected = 0
        self.max_finished = max_finished
        #: Done runs whose merged records stay pageable; older runs drop
        #: their record handles first (reports are kept for all retained
        #: runs — records are the bulky part).
        self.max_record_runs = max_record_runs
        self._cond = threading.Condition()
        self._jobs: Dict[str, Job] = {}
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._ids = itertools.count(1)
        self._closed = False
        self._journal = journal
        self._default_tenant_config = default_tenant_config
        if journal is not None:
            self._runs_dir = Path(journal.path)
        else:
            # Removed with the store, not at close(): a closed store
            # still answers snapshots and follows.
            self._runs_dir = Path(
                tempfile.mkdtemp(prefix="repro-serve-events-")
            )
            weakref.finalize(
                self, shutil.rmtree, str(self._runs_dir), True
            )
        #: The process-wide registry every run populates (engine cell /
        #: tenant / phase instruments, journal fsyncs, pool gauges) and
        #: ``GET /metrics`` renders.  Counts cover this process's
        #: lifetime: journal-restored terminal runs were counted by the
        #: process that executed them, so restores don't re-count.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.gauge("repro_job_workers").set(workers)
        #: The remote worker fleet (``workers="remote"`` runs): the HTTP
        #: layer routes worker registration, leases, and results here.
        self.fleet = WorkerRegistry(
            lease_timeout_s=lease_timeout_s,
            heartbeat_timeout_s=heartbeat_timeout_s,
            metrics=self.metrics,
            on_event=self._fleet_event,
        )
        if journal is not None:
            journal.metrics = self.metrics
            # The worker threads don't exist yet, so recovery cannot
            # race — the lock is held only because _append notifies
            # the condition it guards.
            with self._cond:
                resumed = self._recover(journal.load_state())
            for job_id in resumed:
                self._queue.put(job_id)
        self.workers = workers
        #: One persistent cell-process pool per job thread.
        self._cell_pools = [CellPool(persistent=True) for _ in range(workers)]
        self._threads = [
            threading.Thread(
                target=self._drain, args=(pool,),
                name=f"repro-serve-job-{i}", daemon=True,
            )
            for i, pool in enumerate(self._cell_pools)
        ]
        for thread in self._threads:
            thread.start()

    # -- journal recovery -----------------------------------------------------

    def _recover(self, state: JournalState) -> List[str]:
        """Rebuild jobs from a loaded journal; returns ids to re-enqueue.

        Runs before the worker threads exist (constructor-only, store
        lock held).  It keeps every unfinished run plus the newest
        ``max_finished`` finished ones and deletes all other runs' files
        unrestored, so boot work stays inside the retention window.
        Each kept run continues its surviving event log (see
        :meth:`_reopen_log`) and appends only what the log lacks, so the
        log stays the run's one seq ledger across restarts.
        ``done``/``failed`` runs restore read-only with their journaled
        report or error; one whose log does not end in its terminal
        event gets ``recovered`` plus that event.  Anything else —
        ``interrupted`` by a clean shutdown or simply cut off mid-run by
        a crash — re-validates its journaled request body and resumes:
        journaled cell residues whose identity tokens still match the
        request become ``preloaded`` results the engine folds without
        re-executing, and each one the log has no ``cell`` line for gets
        one.  A request that no longer validates (e.g. the registry
        changed) becomes ``failed``, never a startup crash.
        """
        files = list(self._runs_dir.iterdir())
        # New ids continue past every run with a file, deleted ones too.
        last = max([0, *(run_number(path.stem) for path in files)])
        self._ids = itertools.count(last + 1)
        finished = [r.run_id for r in state.runs.values() if r.finished]
        for run_id in finished[: -self.max_finished]:
            del state.runs[run_id]
        for path in files:
            if path.suffix in (".jsonl", ".ndjson") and path.stem not in state.runs:
                path.unlink()
        resume: List[str] = []
        for run in state.runs.values():
            job = Job(
                id=run.run_id,
                request=None,
                summary=dict(run.summary),
                cells=run.cells_total,
                cells_done=len(run.cells),
                recovered=True,
            )
            self._jobs[run.run_id] = job
            logged = self._reopen_log(job)
            if not logged:
                self._append(
                    job, "queued", {"run_id": job.id, "request": job.summary}
                )
            if run.finished:
                if run.status == "done":
                    job.status = "done"
                    job.report = run.report
                    failed_cells = self._report_failed_cells(run.report)
                    # Restore with the same terminal kind the original
                    # execution emitted.
                    terminal = (
                        ("degraded", {"run_id": job.id, "report": run.report,
                                      "failed_cells": failed_cells})
                        if failed_cells else
                        ("report", {"run_id": job.id, "report": run.report})
                    )
                else:
                    job.status = "failed"
                    job.error = run.error
                    terminal = ("error", {"run_id": job.id,
                                          "message": run.error})
                last = json.loads(logged[-1])["event"] if logged else None
                if last != terminal[0]:
                    self._append(
                        job, "recovered",
                        {"run_id": job.id, "cells_journaled": len(run.cells)},
                    )
                    self._append(job, *terminal)
                continue
            try:
                if run.payload is None:
                    raise ValueError("journal has no submission body")
                request = parse_run_request(
                    run.payload, self._default_tenant_config
                )
            except Exception as exc:  # noqa: BLE001 - recovery must not crash
                job.status = "failed"
                job.error = (
                    f"recovery: journaled request no longer valid: "
                    f"{type(exc).__name__}: {exc}"
                )
                self._journal.record_failed(job.id, job.error)
                self._append(
                    job, "error", {"run_id": job.id, "message": job.error}
                )
                self.metrics.counter("repro_runs_total", status="failed").inc()
                continue
            job.request = request
            job.summary = dict(request.summary)
            job.cells = len(request.trace.tenants())
            identities = {
                key: request.spec.cell_identity(key, cell_trace)
                for key, cell_trace in get_shard_policy("tenant").split(
                    request.trace
                )
            }
            preloaded: List[CellResult] = []
            for key, (identity, payload) in run.cells.items():
                if identities.get(key) != identity:
                    continue  # stale or foreign checkpoint: re-run the cell
                try:
                    preloaded.append(CellResult.from_payload(payload))
                except Exception:  # noqa: BLE001 - a bad residue re-runs
                    continue
            job.preloaded = preloaded
            job.cells_done = len(preloaded)
            self._append(
                job, "recovered",
                {"run_id": job.id, "cells_journaled": len(preloaded)},
            )
            logged_cells = {
                envelope["cell"]
                for envelope in map(json.loads, logged)
                if envelope["event"] == "cell"
            }
            totals = {"cells_done": 0, "offered": 0,
                      "completed": 0, "failed": 0}
            missing = 0
            for cell in preloaded:
                body = self._cell_event_body(job.id, cell, resumed=True)
                self._accumulate(totals, body)
                if cell.key not in logged_cells:
                    self._append(job, "cell", body)
                    missing += 1
            if missing:
                self._append(
                    job, "progress", self._progress_body(job, totals)
                )
            resume.append(job.id)
        self._evict()
        return resume

    # -- submission and lookup ------------------------------------------------

    def submit(self, request: RunRequest) -> str:
        """Enqueue a validated run; returns the new job id.

        With a journal attached, the submission record is fsync'd
        before the job becomes runnable — an accepted run survives a
        crash that lands immediately after the 202.

        Admission control runs first, under the same lock that guards
        the state it reads: the queue-depth bound, then the submitting
        tenant's concurrent-run quota (counting that tenant's queued +
        running jobs).  A refused submission raises
        :class:`AdmissionDenied` (HTTP 429 + ``Retry-After``) and
        leaves no trace beyond the rejection counters.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError("job store is shut down")
            if self.max_queued is not None:
                queued = sum(
                    1 for job in self._jobs.values()
                    if job.status == "queued"
                )
                if queued >= self.max_queued:
                    self.rejected += 1
                    self.metrics.counter(
                        "repro_runs_rejected_total", reason="queue_full"
                    ).inc()
                    raise AdmissionDenied(
                        "queue_full",
                        f"run queue is full ({queued} queued, "
                        f"max {self.max_queued}); retry later",
                    )
            if (
                request.tenant is not None
                and request.max_concurrent_runs is not None
            ):
                active = sum(
                    1 for job in self._jobs.values()
                    if job.status in ("queued", "running")
                    and job.summary.get("tenant") == request.tenant
                )
                if active >= request.max_concurrent_runs:
                    self.rejected += 1
                    self.metrics.counter(
                        "repro_runs_rejected_total", reason="tenant_quota"
                    ).inc()
                    raise AdmissionDenied(
                        "tenant_quota",
                        f"tenant {request.tenant!r} already has {active} "
                        f"active run(s), quota "
                        f"{request.max_concurrent_runs}; retry later",
                    )
            job_id = f"run-{next(self._ids):06d}"
            job = Job(
                id=job_id,
                request=request,
                summary=dict(request.summary),
                cells=len(request.trace.tenants()),
            )
            self._jobs[job_id] = job
            self._append(job, "queued", {"run_id": job_id,
                                         "request": request.summary})
            self._evict()
        if self._journal is not None:
            self._journal.record_submit(
                job_id, request.payload, request.summary, job.cells
            )
        self._queue.put(job_id)
        return job_id

    def _evict(self) -> None:
        """Drop the oldest terminal jobs beyond ``max_finished``, and
        the oldest *record handles* beyond ``max_record_runs`` (lock
        held; runs on every submission and terminal transition).
        An evicted run's event log and journal file are deleted with it,
        except an ``interrupted`` run's under a journal: the next boot
        resumes it from both.  Followers mid-stream keep their Job
        reference and their open log file, which the unlink leaves
        readable — an evicted job is terminal, so they drain its fixed
        event log and finish; only new lookups see the 404."""
        terminal = [
            job_id
            for job_id, job in self._jobs.items()
            if job.status in _TERMINAL
        ]
        for job_id in terminal[: -self.max_finished]:
            job = self._jobs.pop(job_id)
            self._drop_records(job)
            if job.status == "interrupted" and self._journal is not None:
                continue
            for suffix in (".ndjson", ".jsonl"):
                try:
                    os.unlink(self._runs_dir / f"{job_id}{suffix}")
                except OSError:
                    pass
        # Records are the bulky part of a done run: keep only the most
        # recent handles pageable, release the rest (their reports stay).
        holding = [
            job for job in self._jobs.values() if job.records is not None
        ]
        for job in holding[: -self.max_record_runs]:
            self._drop_records(job)

    @staticmethod
    def _drop_records(job: Job) -> None:
        records = job.records
        job.records = None
        close = getattr(records, "close", None)
        if close is not None:
            close()

    def _get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(job_id)
        return job

    @staticmethod
    def _report_failed_cells(report: Optional[dict]) -> int:
        """How many cells a report's ``replay.failed_cells`` records."""
        if not isinstance(report, dict):
            return 0
        replay = report.get("replay")
        if not isinstance(replay, dict):
            return 0
        return len(replay.get("failed_cells") or ())

    def snapshot(self, job_id: str) -> dict:
        """A consistent JSON-ready view of one job (``GET /v1/runs/<id>``)."""
        with self._cond:
            job = self._get(job_id)
            view: dict = {
                "id": job.id,
                "status": job.status,
                "request": dict(job.summary),
                "cells_done": job.cells_done,
                "cells": job.cells,
            }
            if job.recovered:
                view["recovered"] = True
            if self._report_failed_cells(job.report):
                view["degraded"] = True
            if job.error is not None:
                view["error"] = job.error
            # The report sub-object is the engine's to_dict verbatim —
            # byte-identical to `repro replay` on the same seed.
            view["report"] = job.report
            return view

    def list(self) -> List[dict]:
        """Submission-ordered one-line summaries (``GET /v1/runs``)."""
        page, _cursor = self.list_page()
        return page

    def list_page(
        self,
        cursor: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> Tuple[List[dict], Optional[str]]:
        """One page of the submission-ordered listing.

        ``cursor`` is the last job id of the previous page (an opaque
        token to clients); the page starts strictly after it.  The
        cursor is stable under eviction and new submissions: ids are
        monotonic in submission order, so already-seen ids can only
        disappear, never reorder — a paging client sees every job that
        stays retained for the duration of the walk, each exactly once.
        Returns ``(page, next_cursor)``; ``next_cursor`` is ``None`` on
        the last page.
        """
        if limit is not None and limit < 1:
            raise ValueError("limit must be >= 1")
        floor = run_number(cursor) if cursor is not None else -1
        with self._cond:
            rows = [
                {
                    "id": job.id,
                    "status": job.status,
                    "url": f"/v1/runs/{job.id}",
                }
                for job in self._jobs.values()
                if run_number(job.id) > floor
            ]
        if limit is None or len(rows) <= limit:
            return rows, None
        page = rows[:limit]
        return page, page[-1]["id"]

    def records_page(
        self, job_id: str, cursor: int = 0, limit: int = 1000
    ) -> dict:
        """One page of a done run's merged request rows
        (``GET /v1/runs/<id>/records``), each as ``row._asdict()``.

        ``cursor`` is the absolute row index the page starts at (the
        canonical merge order is deterministic, so indexes are stable);
        the response's ``next_cursor`` is ``None`` on the last page.
        Only ``limit`` rows are serialized per request — the backing
        store is sliced (in-RAM list) or seeked (disk spill file), never
        materialized whole.
        """
        if cursor < 0:
            raise ValueError("cursor must be >= 0")
        if limit < 1:
            raise ValueError("limit must be >= 1")
        with self._cond:
            job = self._get(job_id)
            status = job.status
            records = job.records
        if status != "done":
            raise RecordsUnavailable(
                f"run {job_id} is {status}; records are available once "
                f"it is done"
            )
        if records is None:
            raise RecordsUnavailable(
                f"run {job_id} no longer retains its merged records "
                f"(journal-restored or past the record-retention "
                f"window); resubmit the run to page them"
            )
        total = len(records)
        start = min(cursor, total)
        stop = min(start + limit, total)
        return {
            "run": job_id,
            "total": total,
            "cursor": start,
            "records": [row._asdict() for row in records[start:stop]],
            "next_cursor": stop if stop < total else None,
        }

    def counts(self) -> Dict[str, int]:
        """Jobs per state, every state present (``GET /healthz``)."""
        with self._cond:
            counts = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                counts[job.status] += 1
            return counts

    def refresh_gauges(self) -> Dict[str, int]:
        """Recompute the pool-occupancy gauges from live job states.

        Called by the ``/metrics`` handler at scrape time — deriving
        the gauges from :meth:`counts` on read means no transition
        bookkeeping can drift.  Returns the counts for convenience.
        """
        counts = self.counts()
        self.metrics.gauge("repro_jobs_inflight").set(counts["running"])
        self.metrics.gauge("repro_jobs_queued").set(counts["queued"])
        return counts

    # -- event streaming ------------------------------------------------------

    def _log_path(self, job_id: str) -> Path:
        return self._runs_dir / f"{job_id}.ndjson"

    def follow_lines(
        self, job_id: str, keepalive_s: Optional[float] = None
    ) -> Iterator[Optional[bytes]]:
        """Yield a job's event log lines (NDJSON, newline included):
        full history, then live.

        Terminates once the job is terminal and every event has been
        yielded.  The job resolves, and its log file opens, once, up
        front and in one critical section: eviction's unlink mid-stream
        cannot cut an attached follower off.  Only lines counted by
        :attr:`Job.events_logged` are read, so none is partial, and the
        yielded sequence is the run's complete, gap-free, seq-ordered
        history.

        ``keepalive_s`` (optional) yields ``None`` whenever that many
        seconds pass with no new event — the HTTP layer writes each
        ``None`` as a ``: keepalive`` comment line, so a follower of a
        quiet run can distinguish "alive but idle" from a dead
        connection and time out cleanly.
        """
        with self._cond:
            job = self._get(job_id)
            log = open(self._log_path(job.id), "rb")
        with log:
            read = 0
            last = time.monotonic()
            while True:
                with self._cond:
                    while job.events_logged <= read and (
                        job.status not in _TERMINAL
                    ):
                        self._cond.wait(_POLL_S)
                        if (
                            keepalive_s is not None
                            and time.monotonic() - last >= keepalive_s
                        ):
                            break
                    logged = job.events_logged
                    settled = job.status in _TERMINAL
                if logged > read:
                    for _ in range(logged - read):
                        yield log.readline()
                    read = logged
                    last = time.monotonic()
                elif not settled:
                    yield None  # keepalive tick: no event for keepalive_s
                    last = time.monotonic()
                if settled:
                    return

    def follow(
        self, job_id: str, keepalive_s: Optional[float] = None
    ) -> Iterator[Optional[dict]]:
        """:meth:`follow_lines`, each line decoded to its envelope."""
        for line in self.follow_lines(job_id, keepalive_s):
            yield None if line is None else json.loads(line)

    def _reopen_log(self, job: Job) -> List[bytes]:
        """Continue a restored run's surviving event log; returns its
        complete lines (lock held, recovery only).

        A kill can cut the log's last write short, so a torn tail is
        truncated away before anything is appended.  The next seq
        follows the last complete line's — not the line count, since a
        log can start above seq 0.
        """
        try:
            with open(self._log_path(job.id), "r+b") as log:
                data = log.read()
                end = data.rfind(b"\n") + 1
                log.truncate(end)
        except FileNotFoundError:
            return []
        lines = data[:end].splitlines()
        if lines:
            job.events_logged = len(lines)
            job.next_seq = json.loads(lines[-1])["seq"] + 1
        return lines

    def _append(self, job: Job, kind: str, body: dict) -> None:
        """Append one envelope, at the job's next seq, to the run's
        event log file and wake followers (lock held).

        Every envelope is validated against the telemetry schema on the
        way in — the store structurally cannot emit an invalid event.
        A fresh run's first line truncates the file: a journal directory
        reused across processes can hold a stale log under the same run
        id.
        """
        envelope = validate_event(
            event_envelope(kind, body, seq=job.next_seq)
        )
        line = (render_event(envelope) + "\n").encode("utf-8")
        mode = "ab" if job.events_logged else "wb"
        with open(self._log_path(job.id), mode) as log:
            log.write(line)
        job.next_seq += 1
        job.events_logged += 1
        self._cond.notify_all()

    @staticmethod
    def _accumulate(totals: Dict[str, int], cell_body: dict) -> None:
        """Fold one cell event body into a run's running totals."""
        totals["cells_done"] += 1
        for key in ("offered", "completed", "failed"):
            totals[key] += cell_body[key]

    @staticmethod
    def _progress_body(job: Job, totals: Dict[str, int]) -> dict:
        return {
            "run_id": job.id,
            "cells_done": totals["cells_done"],
            "cells_total": job.cells,
            "offered": totals["offered"],
            "completed": totals["completed"],
            "failed": totals["failed"],
        }

    @staticmethod
    def _cell_event_body(
        job_id: str, cell: CellResult, resumed: bool = False
    ) -> dict:
        completed = failed = 0
        for record in cell.records:
            if record.completed:
                completed += 1
            elif record.failed:
                failed += 1
        body = {
            "run_id": job_id,
            "cell": cell.key,
            "offered": cell.offered,
            "completed": completed,
            "failed": failed,
            "wall_s": round(cell.wall_s, 6),
        }
        if resumed:
            body["resumed"] = True
        latency = cell.latency
        if latency is not None:
            body["latency"] = {
                "mean_s": round(latency.mean_s, 6),
                "p50_s": round(latency.p50_s, 6),
                "p99_s": round(latency.p99_s, 6),
            }
        return body

    # -- execution ------------------------------------------------------------

    def _drain(self, pool: CellPool) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            job = self._jobs.get(job_id)
            if job is not None:  # close() interrupted and evicted it
                self._execute(job, pool)

    @staticmethod
    def _finish(job: Job, status: str) -> None:
        """Move a job to a terminal ``status`` (lock held): it drops the
        request and any journal-preloaded cells it no longer needs."""
        job.status = status
        job.request = None
        job.preloaded = None

    def _execute(self, job: Job, pool: CellPool) -> None:
        with self._cond:
            if job.status != "queued":
                # close() interrupted the job before a worker got it.
                return
            request = job.request
            job.status = "running"
            self._append(job, "running", {"run_id": job.id})

        # Running totals for the progress / terminal-counter events;
        # journal-recovered cells already have their cell events on the
        # log, so the resume starts from their sums.  on_cell runs
        # only on this worker thread, so the dict needs no lock.
        totals = {"cells_done": 0, "offered": 0, "completed": 0, "failed": 0}
        for cell in job.preloaded or ():
            self._accumulate(totals, self._cell_event_body(job.id, cell))

        def on_cell(cell: CellResult) -> None:
            # Durability before visibility: the residue is fsync'd to
            # the journal, then the progress events wake subscribers.
            # The hook fires only for newly executed cells — journal-
            # recovered ones folded without re-running and are already
            # journaled.
            body = self._cell_event_body(job.id, cell)
            if self._journal is not None:
                self._journal.record_cell(
                    job.id,
                    cell.key,
                    request.spec.cell_identity(cell.key),
                    cell.to_payload(),
                )
            self._accumulate(totals, body)
            progress = self._progress_body(job, totals)
            with self._cond:
                if job.status == "running":
                    job.cells_done = totals["cells_done"]
                    self._append(job, "cell", body)
                    self._append(job, "progress", progress)

        try:
            if request.workers == "remote":
                execute = self._fleet_executor(job, request)
            else:
                execute = local_executor(
                    request.spec,
                    request.workers,
                    retry=request.retry,
                    fault_plan=request.faults,
                    metrics=self.metrics,
                    pool=pool,
                )
            result = replay(
                request.trace,
                request.spec,
                execute,
                on_cell=on_cell,
                completed_cells=job.preloaded or None,
                metrics=self.metrics,
                on_cell_failure=request.on_cell_failure,
            )
            report = result.to_dict()
            failed_cells = len(result.failed_cells)
            # The terminal batch: the run's counter totals (matching
            # the report exactly), its phase-timing gauges, then the
            # report itself.
            batch = [
                ("counter", {"run_id": job.id, "name": name, "value": value})
                for name, value in (
                    ("requests_offered", totals["offered"]),
                    ("requests_completed", totals["completed"]),
                    ("requests_failed", totals["failed"]),
                    ("cells_completed", totals["cells_done"]),
                )
            ] + [
                ("gauge", {"run_id": job.id, "name": "phase_seconds",
                           "value": round(seconds, 6),
                           "labels": {"phase": phase}})
                for phase, seconds in sorted(result.phase_wall_s.items())
            ]
            if failed_cells:
                # The run finished but skipped cells that exhausted
                # their retries (on_cell_failure="skip"): terminal kind
                # "degraded", still a done run — the report is complete
                # for every surviving cell.
                batch.append(("degraded", {"run_id": job.id, "report": report,
                                           "failed_cells": failed_cells}))
            else:
                batch.append(("report", {"run_id": job.id, "report": report}))
            # Durability before visibility, as for each cell.
            if self._journal is not None:
                self._journal.record_done(job.id, report)
            with self._cond:
                if job.status != "running":
                    return  # the shutdown sweep already closed this run
                job.report = report
                self._finish(job, "done")
                # Keep the merged record handle (list or disk-backed
                # SpilledRecords) pageable via /records until the run
                # leaves the record-retention window.
                job.records = result.records
                for kind, body in batch:
                    self._append(job, kind, body)
                self._evict()
            self.metrics.counter(
                "repro_runs_total",
                status="degraded" if failed_cells else "done",
            ).inc()
        except FleetCancelled:
            # Shutdown (or cancellation) cut a remote run off mid-fold:
            # interrupted, not failed — the journal resumes it from its
            # checkpointed cells on the next boot.
            self._interrupt(("running",), job)
        except Exception as exc:  # noqa: BLE001 - a job must never kill its worker
            error = f"{type(exc).__name__}: {exc}"
            with self._cond:
                if job.status != "running":
                    # The shutdown sweep interrupted this run before
                    # close() killed its cell processes: journal no
                    # failure, so the next boot resumes it.
                    return
                # Durability before visibility; journaling under the
                # lock keeps the sweep from interrupting the run between
                # the check and the record.
                if self._journal is not None:
                    self._journal.record_failed(job.id, error)
                self._finish(job, "failed")
                job.error = error
                self._append(
                    job, "error", {"run_id": job.id, "message": job.error}
                )
                self._evict()
            self.metrics.counter("repro_runs_total", status="failed").inc()

    def _fleet_executor(self, job: Job, request: RunRequest):
        """The executor that runs a job's cells on the remote fleet.

        The pending cells queue into the :class:`~repro.serve.workers.\
WorkerRegistry` and its delivered outcomes feed the same fold a local
        run uses, so the report, the per-cell journal records, and the
        event stream are byte-identical to ``repro replay`` at the same
        seed.  Journal-recovered cells never re-queue: the fold hands
        the executor only the missing cells.  However the fold ends,
        closing the executor drops the job's queued and leased cells.
        """
        payload = dict(request.payload or {})
        if (
            payload.get("tenant_config") is None
            and self._default_tenant_config is not None
        ):
            # A worker rebuilds its ReplaySpec from this payload alone,
            # so the server-level --tenant-config must travel inline:
            # without it the worker replays against the bare base spec
            # and the folded cells silently diverge from the validated
            # run.
            payload["tenant_config"] = self._default_tenant_config.to_payload()

        def execute(cells):
            fleet_job = self.fleet.submit(
                job.id, payload, [key for key, _ in cells], request.retry
            )
            try:
                yield from self.fleet.results(fleet_job)
            finally:
                self.fleet.finish(fleet_job)

        return execute

    def _fleet_event(self, job_id: str, kind: str, body: dict) -> None:
        """Mirror fleet lease activity onto the owning run's stream.

        Fired by the registry outside its own lock (lease grants and
        expirations), so taking the store lock here cannot deadlock.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is not None and job.status == "running":
                self._append(job, kind, body)

    def _interrupt(self, statuses: tuple, only: Optional[Job] = None) -> None:
        """Mark every job in ``statuses`` — or just ``only``, if it is in
        one — interrupted (event + journal).

        The terminal event is what lets an attached follower finish:
        without it, a ``GET /v1/runs/<id>/events`` stream on an
        abandoned run would wait forever.
        """
        with self._cond:
            candidates = list(self._jobs.values()) if only is None else [only]
            swept = [job for job in candidates if job.status in statuses]
            for job in swept:
                self._finish(job, "interrupted")
                self._append(job, "interrupted", {"run_id": job.id})
        for job in swept:
            if self._journal is not None:
                self._journal.record_interrupted(job.id)
            self.metrics.counter(
                "repro_runs_total", status="interrupted"
            ).inc()

    def close(self, timeout_s: float = 10.0) -> None:
        """Stop accepting jobs, interrupt the unfinished ones, join workers.

        A job still ``queued`` at shutdown is marked ``interrupted`` —
        in memory (so ``GET /v1/runs/<id>`` says so instead of leaving
        it ``queued`` forever) and in the journal (so the next boot on
        the same journal resumes it).  Running jobs get ``timeout_s``
        to finish; one still running after that is swept ``interrupted``
        too, so every run ends in a terminal event and no follower
        hangs on a run nobody is executing anymore.  Then every job
        thread's cell pool shuts down, a cell still running killed
        mid-cell, so no cell process outlives the store.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
        self._interrupt(("queued",))
        # Wake remote folds first: a fleet run blocked on workers that
        # can no longer reach this process would otherwise pin its job
        # thread for the whole timeout.  The fold observes the
        # cancellation and marks the run interrupted (journal-resumable).
        self.fleet.close()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=timeout_s)
        self._interrupt(("queued", "running"))
        for pool in self._cell_pools:
            pool.close()
