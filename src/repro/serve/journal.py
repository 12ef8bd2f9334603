"""The durable run journal behind ``repro serve --journal``.

The journal is a directory with one append-only JSONL file per run,
``<run-id>.jsonl`` (stdlib only), next to that run's event log,
``<run-id>.ndjson``.  It makes the service's job state survive process
death — the Triggerflow move of persisting orchestration state so
workflow progress outlives the orchestrator.  One JSON record per line,
four durable facts per run:

==============  ============================================================
``rec``         meaning
==============  ============================================================
``submit``      a run was accepted: the full request body (``payload``),
                its validated echo (``summary``), and the cell count
``cell``        one cell finished: cell ``key``, its stable ``identity``
                (:meth:`~repro.parallel.spec.ReplaySpec.cell_identity`),
                and the full :meth:`~repro.parallel.engine.CellResult.\
to_payload` residue — enough to fold the cell back through
                ``StreamingMerge`` without re-executing it
``done``        the run finished: the merged ``report`` verbatim
``failed``      the run raised: the ``error`` string
``interrupted``  a clean shutdown abandoned the run while still queued
==============  ============================================================

Every append is flushed **and fsync'd** before :meth:`RunJournal.append`
returns, and the append that creates a run's file fsyncs the directory
too — the well-defined durability points are: after ``submit`` (an
accepted 202 survives), after each ``cell`` (completed work is never
redone), and after each terminal record.  A crash can therefore lose at
most the in-flight cell, and a torn final write leaves a truncated last
line that :func:`load_journal` detects and discards — the affected cell
is simply "not completed" and re-runs.

Retention bounds the journal: :class:`~repro.serve.jobs.JobStore`
deletes a ``done``/``failed`` run's file with its event log when it
evicts the run, and a boot deletes the files of every finished run past
the retention window without restoring it.

Records carry no event ``seq``: each run's event log is its one seq
ledger.  Records written by older servers may carry one; the loader
ignores it.  Recovery semantics live in
:class:`~repro.serve.jobs.JobStore`: ``done``/``failed`` runs restore
read-only, anything else resumes by re-submitting only the cells
without a journaled completion.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["JournalRun", "JournalState", "RunJournal", "load_journal"]

#: Journal format version, stamped on every record.
JOURNAL_VERSION = 1

#: Terminal record kinds: once journaled, a run never resumes.
_TERMINAL_RECS = ("done", "failed")


@dataclass
class JournalRun:
    """Everything the journal knows about one run, after replay."""

    run_id: str
    #: The original ``POST /v1/runs`` body, verbatim.
    payload: Optional[dict] = None
    #: The validated request echo (snapshots of restored runs).
    summary: dict = field(default_factory=dict)
    #: Total cells the run partitions into.
    cells_total: int = 0
    #: cell key -> ``(identity token, CellResult payload)``; duplicates
    #: are deduped first-wins (re-journaling a cell is idempotent).
    cells: Dict[str, Tuple[str, dict]] = field(default_factory=dict)
    #: ``submitted`` | ``done`` | ``failed`` | ``interrupted``.
    status: str = "submitted"
    report: Optional[dict] = None
    error: Optional[str] = None

    @property
    def finished(self) -> bool:
        return self.status in _TERMINAL_RECS


@dataclass
class JournalState:
    """The loaded journal: runs in run-number order, plus anomalies."""

    #: run id -> :class:`JournalRun`, ordered by run number.
    runs: Dict[str, JournalRun] = field(default_factory=dict)
    #: Human-readable notes on every record the loader discarded (torn
    #: last line, corrupt line, file with no submit, duplicate cell).
    anomalies: List[str] = field(default_factory=list)


def run_number(run_id: str) -> int:
    """The submission number inside a ``run-NNNNNN`` id (-1 if none)."""
    try:
        return int(run_id.rsplit("-", 1)[-1])
    except ValueError:
        return -1


def _load_run(path: str, run_id: str, anomalies: List[str]) -> Optional[JournalRun]:
    """Replay one run's journal file; ``None`` if it has no ``submit``."""
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        # A complete file ends in a newline: anything after the final
        # newline is a torn write.  splitlines() alone would hide that.
        lines = handle.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    run = JournalRun(run_id=run_id)
    submitted = False
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        where = f"{run_id}.jsonl line {index + 1}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            last = index == len(lines) - 1
            kind = "torn final write" if last else "corrupt line"
            anomalies.append(f"{where}: {kind} discarded")
            continue
        kind = record.get("rec") if isinstance(record, dict) else None
        if kind == "submit":
            submitted = True
            run.payload = record.get("payload")
            run.summary = record.get("summary") or {}
            run.cells_total = int(record.get("cells") or 0)
        elif kind == "cell":
            key = record.get("key")
            cell = record.get("cell")
            if not isinstance(key, str) or not isinstance(cell, dict):
                anomalies.append(f"{where}: malformed cell record; discarded")
            elif key in run.cells:
                anomalies.append(f"{where}: duplicate cell {key!r}; deduped")
            else:
                run.cells[key] = (str(record.get("identity") or ""), cell)
        elif kind == "done":
            run.status = "done"
            run.report = record.get("report")
        elif kind == "failed":
            run.status = "failed"
            run.error = str(record.get("error") or "unknown error")
        elif kind == "interrupted":
            if not run.finished:
                run.status = "interrupted"
        elif kind is None:
            anomalies.append(f"{where}: not a journal record; discarded")
        else:
            anomalies.append(
                f"{where}: unknown record kind {kind!r}; discarded"
            )
    if not submitted:
        anomalies.append(f"{run_id}.jsonl: no submit record; run discarded")
        return None
    return run


def load_journal(path: str) -> JournalState:
    """Replay a journal directory into a :class:`JournalState`.

    Tolerant by design — startup must never crash on a journal a dying
    process left behind.  In each run's file, a truncated or torn last
    line (the one write a crash can interrupt) is discarded; so is any
    line that is not valid JSON or not a journal record, and any
    duplicate cell completion (first wins — identical by determinism,
    so the dedupe is idempotent).  A file with no ``submit`` record (a
    crash tore the run's first append) is discarded whole.  Every
    discard is noted in :attr:`JournalState.anomalies`.
    """
    state = JournalState()
    if not os.path.isdir(path):
        return state
    run_ids = sorted(
        (name[:-6] for name in os.listdir(path) if name.endswith(".jsonl")),
        key=lambda run_id: (run_number(run_id), run_id),
    )
    for run_id in run_ids:
        run = _load_run(
            os.path.join(path, f"{run_id}.jsonl"), run_id, state.anomalies
        )
        if run is not None:
            state.runs[run_id] = run
    return state


class RunJournal:
    """Fsync'd writer for a journal directory: one append-only
    ``<run-id>.jsonl`` file per run.

    Thread-safe: job-worker threads journal cell completions while HTTP
    threads journal submissions; one lock serializes appends so records
    never interleave mid-line.  No file stays open between appends.

    A regular file at ``path`` is a single-file journal from an older
    server: construction refuses it, and leaves it untouched.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        if os.path.isfile(self.path):
            raise ValueError(
                f"journal {self.path} is a single-file journal of an older "
                f"server; pass a directory instead (the file is left as is)"
            )
        os.makedirs(self.path, exist_ok=True)
        self._lock = threading.Lock()
        #: Optional :class:`~repro.metrics.telemetry.MetricsRegistry`;
        #: when set (the JobStore wires its own), every durable append
        #: bumps ``repro_journal_fsyncs_total``.
        self.metrics = None

    def load_state(self) -> JournalState:
        """Replay the journal from disk (see :func:`load_journal`)."""
        return load_journal(self.path)

    def append(self, rec: str, run_id: str, **body: object) -> None:
        """Durably append one record to the run's file: open, write,
        flush, fsync, close.  The append that creates the file also
        fsyncs the directory, so the new file's entry is durable too."""
        record = {"rec": rec, "run": run_id, "v": JOURNAL_VERSION}
        record.update(body)
        # Insertion order, not sort_keys: a journaled report must come
        # back with its original key order so a restored snapshot is
        # byte-identical to the one served before the restart.
        line = json.dumps(record, separators=(",", ":"))
        with self._lock:
            path = os.path.join(self.path, f"{run_id}.jsonl")
            with open(path, "a", encoding="utf-8") as handle:
                created = handle.tell() == 0
                handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            if created:
                directory = os.open(self.path, os.O_RDONLY)
                try:
                    os.fsync(directory)
                finally:
                    os.close(directory)
        if self.metrics is not None:
            self.metrics.counter("repro_journal_fsyncs_total").inc()

    def record_submit(
        self, run_id: str, payload: Optional[dict], summary: dict, cells: int
    ) -> None:
        self.append(
            "submit", run_id, payload=payload, summary=summary, cells=cells
        )

    def record_cell(
        self, run_id: str, key: str, identity: str, cell_payload: dict
    ) -> None:
        self.append(
            "cell", run_id, key=key, identity=identity, cell=cell_payload
        )

    def record_done(self, run_id: str, report: dict) -> None:
        self.append("done", run_id, report=report)

    def record_failed(self, run_id: str, error: str) -> None:
        self.append("failed", run_id, error=error)

    def record_interrupted(self, run_id: str) -> None:
        self.append("interrupted", run_id)
