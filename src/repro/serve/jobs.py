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
the body asks for more, never more than the run's cells or the host's
CPUs), later runs of the same size reuse it, and a run of another
size, a broken pool, or a fold that ends abnormally replaces it.  The
server itself only folds, logs and streams, so HTTP handlers and remote
leases never wait behind a simulation for the GIL.
:meth:`JobStore.close` shuts every thread's pool down, and each cell
process exits with the server however it dies.

Each run has one file: its event log, ``<run-id>.ndjson``, an
append-only NDJSON file in the journal directory, or in the store's
temp directory without one.  Every envelope
(:func:`repro.metrics.report.event_envelope`) is rendered once
(:func:`repro.metrics.report.render_event`) and appended as one line,
and every ``GET /v1/runs/<id>/events`` follower, live or late, replays
the file's lines unchanged, history first, then live.  A follower reads
only as many lines as :attr:`Job.events_logged` says are written, so it
never sees a partial line, and it opens the file in the same critical
section that resolves the job, so eviction's unlink cannot cut it off.
Each append opens, writes and closes the file: open descriptors scale
with attached followers, never with retained runs.

The log is also the run's journal.  Its durable lines — ``queued``
(the submitted body and cell count), each ``cell`` (the cell's identity
token and :meth:`~repro.parallel.engine.CellResult.to_payload`), and
the terminal ``report``, ``degraded``, ``error`` or ``interrupted`` —
hold everything a restart needs, and the line format is the same with
or without a journal.  With one, :meth:`JobStore._append` fsyncs each
durable line under the store lock before :attr:`Job.events_logged`
counts it (the file's first line fsyncs the directory too), so file
order, seq order and fsync order are one order and nothing is visible
before it is durable.  ``running``, ``progress``, ``counter``,
``gauge``, ``lease*`` and ``recovered`` lines are never fsync'd.
Evicting a ``done``/``failed`` run deletes its log.

On construction a journaled store replays the directory (see
:meth:`JobStore._recover`).  Each log is cut at its first torn or
undecodable line.  A log holding its ``report``, ``degraded`` or
``error`` line is finished and restores read-only inside the retention
window; any other run *resumes* — its checkpointed cells fold back
through ``StreamingMerge`` via the engine's ``completed_cells`` entry
point and only the missing cells re-execute, so the resumed report is
byte-identical to an uninterrupted run at the same seed (snapshots say
``recovered: true``).  A resume appends only ``recovered`` before it
runs on, so a follower's history before a restart stays a prefix of
the stream after it.

Determinism note: the *report* a job produces is the engine's merged
``to_dict`` — byte-identical to ``repro replay`` on the same spec and
seed.  The *event log* is not: its cell completion order and
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
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..metrics.report import event_envelope, render_event
from ..metrics.telemetry import MetricsRegistry, validate_event
from ..parallel.engine import CellPool, CellResult, local_executor, replay
from ..parallel.policy import get_shard_policy
from ..parallel.profiles import TenantConfig
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

#: Event kinds that carry a run's durable state: a journaled store
#: fsyncs these lines, and only these.
_DURABLE = ("queued", "cell", "report", "degraded", "error", "interrupted")
#: Terminal kinds after which a run never resumes: a log that holds one
#: is finished.
_FINISHED = ("report", "degraded", "error")

#: Done runs whose merged records stay pageable; older runs drop their
#: record handles first (reports are kept for all retained runs —
#: records are the bulky part).
MAX_RECORD_RUNS = 8


def run_number(run_id: str) -> int:
    """The submission number inside a ``run-NNNNNN`` id (-1 if none)."""
    try:
        return int(run_id.rsplit("-", 1)[-1])
    except ValueError:
        return -1


def _journal_dir(path: Union[str, "os.PathLike[str]"]) -> Path:
    """The journal directory at ``path``, created if missing.

    Older servers' layouts are refused, never migrated, and left as
    they are: a regular file at ``path`` (one journal file for every
    run) and a directory holding ``*.jsonl`` entries (a journal file
    per run beside its event log).  Only the entries inside ``path``
    are checked, never its own name.
    """
    journal = Path(path)
    if journal.is_file():
        raise ValueError(
            f"journal {journal} is a single-file journal of an older "
            f"server; pass a directory instead (the file is left as is)"
        )
    older = sorted(journal.glob("*.jsonl")) if journal.is_dir() else []
    if older:
        raise ValueError(
            f"journal {journal} holds {older[0].name}, a per-run journal "
            f"file of an older server; pass a fresh directory instead "
            f"(the files are left as they are)"
        )
    journal.mkdir(parents=True, exist_ok=True)
    return journal


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
    #: log persists reports and cell rows, not merged row streams).
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

    ``journal`` is the journal directory (see the module docstring):
    it makes the store durable, and recovery runs inside the
    constructor, *before* the worker threads start, so resumed jobs
    execute exactly like fresh submissions.  ``default_tenant_config``
    mirrors the server-level ``--tenant-config`` so journaled requests
    re-validate under the same defaults they were accepted under.
    """

    def __init__(
        self,
        workers: int = 2,
        max_finished: int = 256,
        journal: Union[str, "os.PathLike[str]", None] = None,
        default_tenant_config: Optional[TenantConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        max_queued: Optional[int] = None,
        lease_timeout_s: float = 30.0,
        heartbeat_timeout_s: float = 90.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_finished < 1:
            raise ValueError("max_finished must be >= 1")
        if max_queued is not None and max_queued < 1:
            raise ValueError("max_queued must be >= 1 (or None)")
        #: Admission control: refuse submissions once this many jobs sit
        #: queued (``None`` = unbounded, the historical behavior).
        self.max_queued = max_queued
        #: Submissions refused by admission control (process lifetime).
        self.rejected = 0
        self.max_finished = max_finished
        self._cond = threading.Condition()
        self._jobs: Dict[str, Job] = {}
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._ids = itertools.count(1)
        self._closed = False
        #: Whether durable lines are fsync'd: only under a journal.
        self._durable = journal is not None
        self._default_tenant_config = default_tenant_config
        #: What recovery cut or discarded from the journal, one note per
        #: damaged log, torn line or duplicate cell.
        self.anomalies: List[str] = []
        if journal is not None:
            self._runs_dir = _journal_dir(journal)
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
            # The worker threads don't exist yet, so recovery cannot
            # race — the lock is held only because _append notifies
            # the condition it guards.
            with self._cond:
                resumed = self._recover()
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

    def _recover(self) -> List[str]:
        """Rebuild jobs from the journal's event logs; returns the ids
        to re-enqueue.

        Runs before the worker threads exist (constructor-only, store
        lock held).  Each log is restored by :meth:`_restore`, in run
        number order, and the closing :meth:`_evict` keeps every
        unfinished run plus the newest ``max_finished`` finished ones,
        deleting the other logs.
        """
        files = list(self._runs_dir.iterdir())
        # New ids continue past every run with a file, discarded ones too.
        last = max([0, *(run_number(path.stem) for path in files)])
        self._ids = itertools.count(last + 1)
        logs = sorted(
            (path for path in files if path.suffix == ".ndjson"),
            key=lambda path: (run_number(path.stem), path.stem),
        )
        resume: List[str] = []
        for path in logs:
            job = self._restore(path)
            if job is not None:
                self._jobs[job.id] = job
                if job.status == "queued":
                    resume.append(job.id)
        self._evict()
        return resume

    def _restore(self, path: Path) -> Optional[Job]:
        """One run rebuilt from its log, or ``None`` for a log with no
        ``queued`` line, which is deleted (lock held, recovery only).

        A log holding its ``report``, ``degraded`` or ``error`` line
        restores read-only with that report or error and appends
        nothing.  Any other run re-validates its ``queued`` body and
        resumes: for each cell key, the first ``cell`` line whose
        identity token still matches the request becomes a
        ``preloaded`` result the engine folds without re-executing, and
        the log gains one ``recovered`` line.  A body that no longer
        validates (e.g. the registry changed) makes the run ``failed``,
        never a startup crash.
        """
        envelopes = self._read_log(path)
        if not envelopes or envelopes[0]["event"] != "queued":
            self.anomalies.append(
                f"{path.name}: no queued line; run discarded"
            )
            path.unlink()
            return None
        queued = envelopes[0]
        job = Job(
            id=path.stem,
            request=None,
            summary=queued["request"],
            cells=queued["cells"],
            recovered=True,
            events_logged=len(envelopes),
            next_seq=envelopes[-1]["seq"] + 1,
        )
        cell_lines = [e for e in envelopes if e["event"] == "cell"]
        terminal = next(
            (e for e in reversed(envelopes) if e["event"] in _FINISHED), None
        )
        if terminal is not None:
            failed = terminal["event"] == "error"
            self._finish(job, "failed" if failed else "done")
            job.report = terminal.get("report")
            job.error = terminal.get("message")
            job.cells_done = len({e["cell"] for e in cell_lines})
            return job
        try:
            if "payload" not in queued:
                raise ValueError("the queued line has no submission body")
            request = parse_run_request(
                queued["payload"], self._default_tenant_config
            )
        except Exception as exc:  # noqa: BLE001 - recovery must not crash
            self._finish(job, "failed")
            job.error = (
                f"recovery: journaled request no longer valid: "
                f"{type(exc).__name__}: {exc}"
            )
            self._append(
                job, "error", {"run_id": job.id, "message": job.error}
            )
            self.metrics.counter("repro_runs_total", status="failed").inc()
            return job
        job.request = request
        job.summary = dict(request.summary)
        job.cells = len(request.trace.tenants())
        identities = {
            key: request.spec.cell_identity(key, cell_trace)
            for key, cell_trace in get_shard_policy("tenant").split(
                request.trace
            )
        }
        preloaded: Dict[str, CellResult] = {}
        for envelope in cell_lines:
            key = envelope["cell"]
            if identities.get(key) != envelope["identity"]:
                continue  # stale or foreign checkpoint: re-run the cell
            if key in preloaded:
                self.anomalies.append(
                    f"{path.name} seq {envelope['seq']}: duplicate cell "
                    f"{key!r}; the first one wins"
                )
                continue
            try:
                preloaded[key] = CellResult.from_payload(envelope["result"])
            except Exception:  # noqa: BLE001 - a bad residue re-runs
                continue
        job.preloaded = list(preloaded.values())
        job.cells_done = len(preloaded)
        self._append(
            job, "recovered",
            {"run_id": job.id, "cells_journaled": len(preloaded)},
        )
        return job

    def _read_log(self, path: Path) -> List[dict]:
        """The envelopes of a run's log up to its first bad line, where
        the file is cut (lock held, recovery only).

        A kill can tear the last write short, and damage can garble any
        line.  The first line that is torn, undecodable, off the event
        schema or out of seq order ends the log: it and everything after
        it are truncated away and noted, so the cells they recorded
        re-run and later appends continue a clean file.
        """
        with open(path, "r+b") as log:
            data = log.read()
            *lines, tail = data.split(b"\n")
            envelopes: List[dict] = []
            end = 0
            for number, line in enumerate(lines, 1):
                try:
                    envelope = validate_event(json.loads(line))
                except ValueError:  # bad JSON, UTF-8 or schema
                    envelope = None
                if envelope is None or (
                    envelopes and envelope["seq"] <= envelopes[-1]["seq"]
                ):
                    self.anomalies.append(
                        f"{path.name} line {number}: undecodable; the log "
                        f"is cut there ({len(lines) - number + 1} line(s) "
                        f"dropped)"
                    )
                    break
                envelopes.append(envelope)
                end += len(line) + 1
            else:
                if tail:
                    self.anomalies.append(
                        f"{path.name} line {len(lines) + 1}: torn final "
                        f"write; cut"
                    )
            if end < len(data):
                log.truncate(end)
        return envelopes

    # -- submission and lookup ------------------------------------------------

    def submit(self, request: RunRequest) -> str:
        """Enqueue a validated run; returns the new job id.

        With a journal attached, the ``queued`` line (the body and the
        cell count) is fsync'd before the job becomes runnable — an
        accepted run survives a crash that lands immediately after the
        202.

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
            queued = {"run_id": job_id, "request": request.summary,
                      "cells": job.cells}
            if request.payload is not None:
                queued["payload"] = request.payload
            self._append(job, "queued", queued)
            self._evict()
        self._queue.put(job_id)
        return job_id

    def _evict(self) -> None:
        """Drop the oldest terminal jobs beyond ``max_finished``, and
        the oldest *record handles* beyond :data:`MAX_RECORD_RUNS` (lock
        held; runs on every submission and terminal transition).
        An evicted run's event log is deleted with it, except an
        ``interrupted`` run's under a journal: the next boot resumes it.
        Followers mid-stream keep their Job reference and their open
        log file, which the unlink leaves readable — an evicted job is
        terminal, so they drain its fixed event log and finish; only new
        lookups see the 404."""
        terminal = [
            job_id
            for job_id, job in self._jobs.items()
            if job.status in _TERMINAL
        ]
        for job_id in terminal[: -self.max_finished]:
            job = self._jobs.pop(job_id)
            self._drop_records(job)
            if job.status == "interrupted" and self._durable:
                continue
            try:
                os.unlink(self._log_path(job_id))
            except OSError:
                pass
        # Records are the bulky part of a done run: keep only the most
        # recent handles pageable, release the rest (their reports stay).
        holding = [
            job for job in self._jobs.values() if job.records is not None
        ]
        for job in holding[: -MAX_RECORD_RUNS]:
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

    def _append(self, job: Job, kind: str, body: dict) -> None:
        """Append one envelope, at the job's next seq, to the run's
        event log file and wake followers (lock held).

        Every envelope is validated against the telemetry schema on the
        way in — the store structurally cannot emit an invalid event.
        Under a journal a durable line is fsync'd before
        :attr:`Job.events_logged` counts it, and the line that creates
        the file fsyncs the directory too.  A fresh run's first line
        truncates the file: a journal directory reused across processes
        can hold a stale log under the same run id.
        """
        envelope = validate_event(
            event_envelope(kind, body, seq=job.next_seq)
        )
        line = (render_event(envelope) + "\n").encode("utf-8")
        mode = "ab" if job.events_logged else "wb"
        durable = self._durable and kind in _DURABLE
        with open(self._log_path(job.id), mode) as log:
            log.write(line)
            if durable:
                log.flush()
                os.fsync(log.fileno())
        if durable:
            if mode == "wb":
                directory = os.open(self._runs_dir, os.O_RDONLY)
                try:
                    os.fsync(directory)
                finally:
                    os.close(directory)
            self.metrics.counter("repro_journal_fsyncs_total").inc()
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
    def _cell_event_body(job_id: str, cell: CellResult) -> dict:
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
        # journal-recovered cells already have their cell lines on the
        # log, so the resume starts from their sums.  on_cell runs
        # only on this worker thread, so the dict needs no lock.
        totals = {"cells_done": 0, "offered": 0, "completed": 0, "failed": 0}
        for cell in job.preloaded or ():
            self._accumulate(totals, self._cell_event_body(job.id, cell))

        def on_cell(cell: CellResult) -> None:
            # The cell line carries the residue a resume folds back.
            # The hook fires only for newly executed cells — journal-
            # recovered ones folded without re-running and are already
            # on the log.
            body = self._cell_event_body(job.id, cell)
            body["identity"] = request.spec.cell_identity(cell.key)
            body["result"] = cell.to_payload()
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
                    # close() killed its cell processes: log no
                    # failure, so the next boot resumes it.
                    return
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
        run uses, so the report, the per-cell log lines, and the
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
        one — interrupted (one durable ``interrupted`` line).

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
            self.metrics.counter(
                "repro_runs_total", status="interrupted"
            ).inc()

    def close(self, timeout_s: float = 10.0) -> None:
        """Stop accepting jobs, interrupt the unfinished ones, join workers.

        A job still ``queued`` at shutdown is marked ``interrupted`` —
        in memory (so ``GET /v1/runs/<id>`` says so instead of leaving
        it ``queued`` forever) and on its log (so the next boot on the
        same journal resumes it).  Running jobs get ``timeout_s``
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
