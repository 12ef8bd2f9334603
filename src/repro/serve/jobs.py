"""The job store and worker pool behind ``repro serve``.

A submitted run becomes a :class:`Job` that moves through ``queued →
running → done | failed`` (or ``queued → interrupted`` when a clean
shutdown abandons it).  A fixed pool of daemon *job-worker threads*
pulls jobs off a FIFO queue and executes each through the engine's one
fold, :func:`repro.parallel.engine.replay`, picking only the executor —
the in-process serial executor when the request asked for one worker,
the work-stealing process pool for more, the remote fleet for
``"workers": "remote"`` — so the service adds scheduling around the
engine, never a second execution path.

Progress streams through the engine's ``on_cell`` hook: every folded
:class:`~repro.parallel.engine.CellResult` appends one stable event
envelope (:func:`repro.metrics.report.event_envelope`) to the job's
event log and wakes any ``GET /v1/runs/<id>/events`` subscriber waiting
on the store's condition variable.  The in-RAM log is a bounded ring
(``max_events_per_run``): when it fills, the oldest envelopes move to a
per-run disk spool (:class:`EventSpool`) the store replays history from
— a late subscriber still sees the full, gap-free, seq-ordered history,
but a long run can no longer grow resident memory without limit.  The
terminal event is always the newest, so it is never evicted before a
follower sees it.

Durability: a store built with a :class:`~repro.serve.journal.RunJournal`
persists every submission, cell completion, and terminal status to an
append-only fsync'd log.  On construction the store replays the
journal: finished runs restore read-only, and interrupted runs *resume*
— journaled cell residues fold back through ``StreamingMerge`` via the
engine's ``completed_cells`` entry point and only the missing cells
re-execute, so the resumed report is byte-identical to an uninterrupted
run at the same seed.  Restored jobs carry ``recovered: true`` in their
snapshots.

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
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from ..metrics.report import event_envelope
from ..metrics.telemetry import MetricsRegistry, validate_event
from ..parallel.engine import CellResult, local_executor, replay
from ..parallel.policy import get_shard_policy
from ..parallel.profiles import TenantConfig
from ..parallel.sink import record_to_payload
from .journal import JournalState, RunJournal
from .validation import RunRequest, parse_run_request
from .workers import FleetCancelled, WorkerRegistry

__all__ = [
    "AdmissionDenied",
    "EventSpool",
    "Job",
    "JobStore",
    "RecordsUnavailable",
    "UnknownJob",
]

#: States a job can rest in; the last three are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "interrupted")
_TERMINAL = ("done", "failed", "interrupted")


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


class EventSpool:
    """Disk-backed history for ring-evicted event envelopes.

    When a job's in-RAM event log reaches its cap, the oldest envelopes
    move here — one NDJSON file per run, strictly append-only, written
    under the store lock and flushed per append so followers reading
    outside the lock always see complete lines.  Spool line *i* is the
    run's absolute event position *i*: events only ever leave the ring
    from the head, in order, so the file is always the dense prefix
    ``[0, events_dropped)`` of the run's history and a follower's
    catch-up read is a plain line scan, no index needed.
    """

    def __init__(self, directory: str, owned: bool = False) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        #: Whether close() should delete the directory (tempdir spools).
        self._owned = owned
        self._handles: Dict[str, object] = {}

    def _path(self, run_id: str) -> Path:
        return self._dir / f"{run_id}.ndjson"

    def reset(self, run_id: str) -> None:
        """Drop any stale spool for a (re)created run.

        Recovery re-emits a restored run's history with fresh seqs; a
        spool file left by the previous process would misalign line
        numbers with the new log's absolute positions.
        """
        self.remove(run_id)

    def append(self, run_id: str, envelope: dict) -> None:
        handle = self._handles.get(run_id)
        if handle is None:
            handle = open(self._path(run_id), "a", encoding="utf-8")
            self._handles[run_id] = handle
        handle.write(json.dumps(envelope, separators=(",", ":")) + "\n")
        handle.flush()

    def read(self, run_id: str, start: int, stop: int) -> List[dict]:
        """Envelopes at absolute positions ``[start, stop)``."""
        out: List[dict] = []
        if start >= stop:
            return out
        try:
            with open(self._path(run_id), "r", encoding="utf-8") as handle:
                for position, line in enumerate(handle):
                    if position >= stop:
                        break
                    if position >= start:
                        out.append(json.loads(line))
        except FileNotFoundError:
            pass
        return out

    def remove(self, run_id: str) -> None:
        handle = self._handles.pop(run_id, None)
        if handle is not None:
            handle.close()
        try:
            os.unlink(self._path(run_id))
        except OSError:
            pass

    def close(self) -> None:
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()
        if self._owned:
            shutil.rmtree(self._dir, ignore_errors=True)


@dataclass
class Job:
    """One submitted run and everything it has produced so far.

    All mutable fields are guarded by the owning store's condition
    variable; readers outside the store go through
    :meth:`JobStore.snapshot` / :meth:`JobStore.follow`.
    """

    id: str
    #: ``None`` only for journal-restored terminal jobs, which never
    #: execute again and serve snapshots from :attr:`summary` instead.
    request: Optional[RunRequest]
    status: str = "queued"
    #: The deterministic merged report (``done`` jobs only).
    report: Optional[dict] = None
    error: Optional[str] = None
    #: The tail of the event log still in RAM (envelopes, append order).
    #: Bounded by the store's ``max_events_per_run``; older envelopes
    #: live in the store's :class:`EventSpool`.
    events: Deque[dict] = field(default_factory=deque)
    #: How many envelopes have been evicted from the head of
    #: :attr:`events` into the spool — i.e. the absolute position of
    #: ``events[0]`` in the run's full history.
    events_dropped: int = 0
    #: Cell events appended so far (counter, not an event-log scan —
    #: the scan would miss ring-evicted cell events).
    cells_done: int = 0
    #: The merged record sequence of a ``done`` run — an in-RAM list or
    #: a disk-backed :class:`~repro.parallel.sink.SpilledRecords` —
    #: paged by ``GET /v1/runs/<id>/records``.  ``None`` once the run
    #: leaves the record-retention window or for journal-restored runs
    #: (the journal persists reports, not merged record streams).
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
    #: the run *including across journal resume* (recovery seeds it
    #: past the highest journaled seq, so post-restart events never
    #: reuse a number a pre-crash follower already saw).
    next_seq: int = 0
    #: True while a :meth:`JobStore._reserved` block is open (its seqs
    #: claimed, its events not yet appended).
    reserving: bool = False
    #: Envelopes appended while :attr:`reserving`: their seqs follow
    #: the open block's, so they land right after it does.
    held: List[dict] = field(default_factory=list)


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
        max_events_per_run: Optional[int] = 10_000,
        max_record_runs: int = 8,
        max_queued: Optional[int] = None,
        lease_timeout_s: float = 30.0,
        heartbeat_timeout_s: float = 90.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_finished < 1:
            raise ValueError("max_finished must be >= 1")
        if max_events_per_run is not None and max_events_per_run < 1:
            raise ValueError("max_events_per_run must be >= 1 (or None)")
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
        self.max_events_per_run = max_events_per_run
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
        self._spool: Optional[EventSpool] = None
        if max_events_per_run is not None:
            journal_path = getattr(journal, "path", None)
            if journal_path is not None:
                # Journal-adjacent spool: history files sit next to the
                # durable log they complement.
                self._spool = EventSpool(f"{journal_path}.events")
            else:
                self._spool = EventSpool(
                    tempfile.mkdtemp(prefix="repro-serve-events-"),
                    owned=True,
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
        self._threads = [
            threading.Thread(
                target=self._drain, name=f"repro-serve-job-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- journal recovery -----------------------------------------------------

    def _recover(self, state: JournalState) -> List[str]:
        """Rebuild jobs from a loaded journal; returns ids to re-enqueue.

        Runs before the worker threads exist (constructor-only, store
        lock held).
        ``done``/``failed`` runs restore read-only with their journaled
        report or error.  Anything else — ``interrupted`` by a clean
        shutdown or simply cut off mid-run by a crash — re-validates its
        journaled request body and resumes: journaled cell residues
        whose identity tokens still match the request become
        ``preloaded`` results the engine folds without re-executing.  A
        request that no longer validates (e.g. the registry changed)
        becomes ``failed``, never a startup crash.
        """
        self._ids = itertools.count(state.max_run_number() + 1)
        resume: List[str] = []
        for run in state.runs.values():
            job = Job(
                id=run.run_id,
                request=None,
                summary=dict(run.summary),
                cells=run.cells_total,
                recovered=True,
                # Resume numbering past every journaled seq: a follower
                # that saw seq N before the crash never sees a
                # *different* event reuse a number <= N after it.
                next_seq=run.last_seq + 1,
            )
            self._jobs[run.run_id] = job
            if self._spool is not None:
                # Recovery re-emits history with fresh seqs; a spool
                # file from the previous process would misalign.
                self._spool.reset(run.run_id)
            self._append(
                job, "queued", {"run_id": job.id, "request": job.summary}
            )
            if run.status == "done":
                job.status = "done"
                job.report = run.report
                self._append(
                    job, "recovered",
                    {"run_id": job.id, "cells_journaled": len(run.cells)},
                )
                failed_cells = self._report_failed_cells(run.report)
                if failed_cells:
                    # The journaled report carries a failed_cells
                    # section: restore with the same terminal kind the
                    # original execution emitted.
                    self._append(
                        job, "degraded",
                        {"run_id": job.id, "report": run.report,
                         "failed_cells": failed_cells},
                    )
                else:
                    self._append(
                        job, "report",
                        {"run_id": job.id, "report": run.report},
                    )
                continue
            if run.status == "failed":
                job.status = "failed"
                job.error = run.error
                self._append(
                    job, "recovered",
                    {"run_id": job.id, "cells_journaled": len(run.cells)},
                )
                self._append(
                    job, "error", {"run_id": job.id, "message": run.error}
                )
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
                seq = self._append(
                    job, "error", {"run_id": job.id, "message": job.error}
                )
                if self._journal is not None:
                    self._journal.record_failed(job.id, job.error, seq=seq)
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
            self._append(
                job, "recovered",
                {"run_id": job.id, "cells_journaled": len(preloaded)},
            )
            totals = {"cells_done": 0, "offered": 0,
                      "completed": 0, "failed": 0}
            for cell in preloaded:
                body = self._cell_event_body(job.id, cell, resumed=True)
                self._accumulate(totals, body)
                self._append(job, "cell", body)
            if preloaded:
                self._append(
                    job, "progress", self._progress_body(job, totals)
                )
            resume.append(job.id)
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
            if self._spool is not None:
                # A fresh journal in a reused directory can leave stale
                # spool files whose line numbers belong to another run.
                self._spool.reset(job_id)
            seq = self._append(job, "queued", {"run_id": job_id,
                                               "request": request.summary})
            self._evict()
        if self._journal is not None:
            self._journal.record_submit(
                job_id, request.payload, request.summary, job.cells, seq=seq
            )
        self._queue.put(job_id)
        return job_id

    def _evict(self) -> None:
        """Drop the oldest terminal jobs beyond ``max_finished``, and
        the oldest *record handles* beyond ``max_record_runs`` (lock
        held; runs on every submission and terminal transition).
        Followers mid-stream keep their Job reference — an evicted job
        is terminal, so they drain its fixed event log and finish; only
        new lookups see the 404."""
        terminal = [
            job_id
            for job_id, job in self._jobs.items()
            if job.status in _TERMINAL
        ]
        for job_id in terminal[: max(0, len(terminal) - self.max_finished)]:
            self._drop_records(self._jobs[job_id])
            if self._spool is not None:
                self._spool.remove(job_id)
            del self._jobs[job_id]
        # Records are the bulky part of a done run: keep only the most
        # recent handles pageable, release the rest (their reports stay).
        holding = [
            job for job in self._jobs.values() if job.records is not None
        ]
        for job in holding[: max(0, len(holding) - self.max_record_runs)]:
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

    @staticmethod
    def _run_number(job_id: str) -> int:
        """The monotonic submission number inside a ``run-NNNNNN`` id."""
        try:
            return int(job_id.rsplit("-", 1)[-1])
        except ValueError:
            return -1

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
        floor = self._run_number(cursor) if cursor is not None else -1
        with self._cond:
            rows = [
                {
                    "id": job.id,
                    "status": job.status,
                    "url": f"/v1/runs/{job.id}",
                }
                for job in self._jobs.values()
                if self._run_number(job.id) > floor
            ]
        if limit is None or len(rows) <= limit:
            return rows, None
        page = rows[:limit]
        return page, page[-1]["id"]

    def records_page(
        self, job_id: str, cursor: int = 0, limit: int = 1000
    ) -> dict:
        """One page of a done run's merged records
        (``GET /v1/runs/<id>/records``).

        ``cursor`` is the absolute record index the page starts at (the
        canonical merge order is deterministic, so indexes are stable);
        the response's ``next_cursor`` is ``None`` on the last page.
        Only ``limit`` records are serialized per request — the backing
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
        iter_payloads = getattr(records, "iter_payloads", None)
        if iter_payloads is not None:
            page = list(iter_payloads(start, stop))
        else:
            page = [
                record_to_payload(record) for record in records[start:stop]
            ]
        return {
            "run": job_id,
            "total": total,
            "cursor": start,
            "records": page,
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

    def follow(
        self,
        job_id: str,
        poll_s: float = 0.25,
        keepalive_s: Optional[float] = None,
    ) -> Iterator[Optional[dict]]:
        """Yield a job's event envelopes: full history, then live.

        Terminates once the job is terminal and every event has been
        yielded.  ``poll_s`` bounds how long one wait sleeps, so a
        disconnected client is noticed promptly by the caller's write
        failing on the next yielded event.  The job resolves once, up
        front: eviction mid-stream cannot break an attached follower.

        ``keepalive_s`` (optional) yields ``None`` whenever that many
        seconds pass with no new event — the HTTP layer writes each
        ``None`` as a ``: keepalive`` comment line, so a follower of a
        quiet run can distinguish "alive but idle" from a dead
        connection and time out cleanly.

        ``index`` below is an *absolute* position in the run's event
        history.  History that has left the in-RAM ring is replayed
        from the disk spool (outside the lock — spool files are
        append-only and flushed per line); the ring serves the live
        tail.  Either way the yielded sequence is gap-free and
        seq-ordered.
        """
        with self._cond:
            job = self._get(job_id)
        index = 0
        last = time.monotonic()
        while True:
            batch: List[dict] = []
            spool_to = None
            with self._cond:
                if index >= job.events_dropped:
                    while (
                        job.events_dropped + len(job.events) <= index
                        and not self._settled(job)
                    ):
                        self._cond.wait(poll_s)
                        if (
                            keepalive_s is not None
                            and time.monotonic() - last >= keepalive_s
                        ):
                            break
                    dropped = job.events_dropped
                    if index >= dropped:
                        batch = list(
                            islice(job.events, index - dropped, None)
                        )
                        index += len(batch)
                    else:
                        # The ring advanced past us while we waited.
                        spool_to = dropped
                else:
                    spool_to = job.events_dropped
                finished = (
                    self._settled(job)
                    and spool_to is None
                    and index >= job.events_dropped + len(job.events)
                )
            if spool_to is not None:
                # Catch up from the spool in bounded chunks so one lap
                # never holds a huge history list in memory.
                stop = min(spool_to, index + 1000)
                batch = (
                    self._spool.read(job.id, index, stop)
                    if self._spool is not None
                    else []
                )
                if not batch:
                    # No spool (or a vanished file): the history below
                    # the ring is gone; resume at the ring start.  The
                    # suffix stays seq-ordered, so client-side
                    # monotonicity checks still hold.
                    index = spool_to
                    continue
                index += len(batch)
            if batch:
                yield from batch
                last = time.monotonic()
            elif not finished:
                yield None  # keepalive tick: no event for keepalive_s
                last = time.monotonic()
            if finished:
                return

    def _append(
        self, job: Job, kind: str, body: dict, seq: Optional[int] = None
    ) -> int:
        """Append one envelope and wake subscribers (lock held).

        ``seq`` defaults to the job's next number; passing one of a
        :meth:`_reserved` block appends at that reserved number.  An
        unreserved append while a block is open is held back until the
        block lands, so the log stays in seq order.  Every envelope is
        validated against the telemetry schema on the way in — the
        store structurally cannot emit an invalid event.  Returns the
        assigned seq.
        """
        if seq is None:
            seq = job.next_seq
            held = job.reserving
        else:
            held = False
        job.next_seq = max(job.next_seq, seq + 1)
        envelope = validate_event(event_envelope(kind, body, seq=seq))
        if held:
            job.held.append(envelope)
        else:
            self._push(job, envelope)
        return seq

    def _push(self, job: Job, envelope: dict) -> None:
        """Put one envelope on the job's event log (lock held)."""
        job.events.append(envelope)
        if envelope["event"] == "cell":
            job.cells_done += 1
        cap = self.max_events_per_run
        if cap is not None:
            # Ring eviction: move the oldest envelopes to the disk
            # spool.  The newest event — which is the terminal one on
            # any finished run — is never evicted, so the follower
            # termination guarantee is structural.
            while len(job.events) > cap:
                evicted = job.events.popleft()
                if self._spool is not None:
                    self._spool.append(job.id, evicted)
                job.events_dropped += 1
        self._cond.notify_all()

    @contextmanager
    def _reserved(self, job: Job, count: int) -> Iterator[int]:
        """Claim ``count`` consecutive seqs; yields the first.

        For event blocks the journal records before they become
        visible: the seqs are claimed *before* the journal fsync (which
        runs outside the store lock), so the journaled "last emitted
        seq" is exact.  Until the block exits, unreserved appends — a
        fleet lease event, the shutdown sweep — take seqs after the
        block's and are held back; they land as the block exits, right
        behind its events, so followers see strictly increasing seqs.
        """
        with self._cond:
            first = job.next_seq
            job.next_seq += count
            job.reserving = True
        try:
            yield first
        finally:
            with self._cond:
                job.reserving = False
                held, job.held = job.held, []
                for envelope in held:
                    self._push(job, envelope)
                self._cond.notify_all()

    @staticmethod
    def _settled(job: Job) -> bool:
        """Terminal, with every event the run will emit on its log."""
        return job.status in _TERMINAL and not job.reserving

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
        if cell.latency is not None:
            body["latency"] = {
                "mean_s": round(cell.latency.mean_s, 6),
                "p50_s": round(cell.latency.p50_s, 6),
                "p99_s": round(cell.latency.p99_s, 6),
            }
        return body

    # -- execution ------------------------------------------------------------

    def _drain(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            self._execute(self._jobs[job_id])

    def _execute(self, job: Job) -> None:
        request = job.request
        with self._cond:
            if job.status != "queued":
                # close() interrupted the job before a worker got it.
                return
            job.status = "running"
            self._append(job, "running", {"run_id": job.id})

        # Running totals for the progress / terminal-counter events;
        # journal-recovered cells already emitted their cell events in
        # _recover, so the resume starts from their sums.  on_cell runs
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
            with self._reserved(job, 2) as first:
                if self._journal is not None:
                    self._journal.record_cell(
                        job.id,
                        cell.key,
                        request.spec.cell_identity(cell.key),
                        cell.to_payload(),
                        seq=first + 1,
                    )
                self._accumulate(totals, body)
                progress = self._progress_body(job, totals)
                with self._cond:
                    if job.status == "running":
                        self._append(job, "cell", body, seq=first)
                        self._append(job, "progress", progress, seq=first + 1)

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
            # report itself — the journaled done record names the
            # report event's seq.
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
            with self._reserved(job, len(batch)) as first:
                if self._journal is not None:
                    self._journal.record_done(
                        job.id, report, seq=first + len(batch) - 1
                    )
                with self._cond:
                    if job.status != "running":
                        return  # the shutdown sweep already closed this run
                    job.report = report
                    job.status = "done"
                    # Keep the merged record handle (list or disk-backed
                    # SpilledRecords) pageable via /records until the run
                    # leaves the record-retention window.
                    job.records = result.records
                    job.preloaded = None
                    for seq, (kind, body) in enumerate(batch, first):
                        self._append(job, kind, body, seq=seq)
                    self._evict()
            self.metrics.counter(
                "repro_runs_total",
                status="degraded" if failed_cells else "done",
            ).inc()
        except FleetCancelled:
            # Shutdown (or cancellation) cut a remote run off mid-fold:
            # interrupted, not failed — the journal resumes it from its
            # checkpointed cells on the next boot.
            with self._cond:
                if job.status != "running":
                    return
                job.status = "interrupted"
                job.preloaded = None
                seq = self._append(job, "interrupted", {"run_id": job.id})
            if self._journal is not None:
                self._journal.record_interrupted(job.id, seq=seq)
            self.metrics.counter(
                "repro_runs_total", status="interrupted"
            ).inc()
        except Exception as exc:  # noqa: BLE001 - a job must never kill its worker
            error = f"{type(exc).__name__}: {exc}"
            with self._reserved(job, 1) as first:
                if self._journal is not None:
                    self._journal.record_failed(job.id, error, seq=first)
                with self._cond:
                    if job.status != "running":
                        return  # the shutdown sweep already closed this run
                    job.status = "failed"
                    job.error = error
                    job.preloaded = None
                    self._append(
                        job, "error",
                        {"run_id": job.id, "message": job.error},
                        seq=first,
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

    def _interrupt(self, statuses: tuple) -> None:
        """Mark every job in ``statuses`` interrupted (event + journal).

        The terminal event is what lets an attached follower finish:
        without it, a ``GET /v1/runs/<id>/events`` stream on an
        abandoned run would wait forever.
        """
        with self._cond:
            swept = [
                job for job in self._jobs.values() if job.status in statuses
            ]
            seqs = {}
            for job in swept:
                job.status = "interrupted"
                job.preloaded = None
                seqs[job.id] = self._append(
                    job, "interrupted", {"run_id": job.id}
                )
        for job in swept:
            if self._journal is not None:
                self._journal.record_interrupted(job.id, seq=seqs[job.id])
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
        hangs on a run nobody is executing anymore.
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
        if self._journal is not None:
            self._journal.close()
        if self._spool is not None:
            self._spool.close()
