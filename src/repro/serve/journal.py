"""The durable run journal behind ``repro serve --journal``.

An append-only JSONL log (stdlib only) that makes the service's job
state survive process death — the Triggerflow move of persisting
orchestration state so workflow progress outlives the orchestrator.
One JSON record per line, four durable facts per run:

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
returns — the well-defined durability points are: after ``submit`` (an
accepted 202 survives), after each ``cell`` (completed work is never
redone), and after each terminal record.  A crash can therefore lose at
most the in-flight cell, and a torn final write leaves a truncated last
line that :func:`load_journal` detects and discards — the affected cell
is simply "not completed" and re-runs.

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
    """The loaded journal: runs in submission order, plus anomalies."""

    #: run id -> :class:`JournalRun`, insertion-ordered by submission.
    runs: Dict[str, JournalRun] = field(default_factory=dict)
    #: Human-readable notes on every record the loader discarded
    #: (torn last line, corrupt mid-file line, orphan, duplicate cell).
    anomalies: List[str] = field(default_factory=list)

    def max_run_number(self) -> int:
        """The largest ``run-NNNNNN`` numeric suffix seen (0 if none);
        a recovering store starts its id counter past this so new ids
        never collide with journaled ones."""
        best = 0
        for run_id in self.runs:
            tail = run_id.rsplit("-", 1)[-1]
            if tail.isdigit():
                best = max(best, int(tail))
        return best


def _parse_line(index: int, line: str, last: bool) -> Tuple[Optional[dict], Optional[str]]:
    """(record, anomaly) for one journal line — never raises."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        kind = "torn final write" if last else "corrupt line"
        return None, f"line {index + 1}: {kind} discarded"
    if not isinstance(record, dict) or "rec" not in record or "run" not in record:
        return None, f"line {index + 1}: not a journal record; discarded"
    return record, None


def load_journal(path: str) -> JournalState:
    """Replay a journal file into a :class:`JournalState`.

    Tolerant by design — startup must never crash on a journal a dying
    process left behind.  A truncated or torn last line (the one write
    a crash can interrupt) is discarded; so is any line that is not
    valid JSON or not a journal record, any record for a run with no
    ``submit`` line, and any duplicate cell completion (first wins —
    identical by determinism, so the dedupe is idempotent).  Every
    discard is noted in :attr:`JournalState.anomalies`.
    """
    state = JournalState()
    if not os.path.exists(path):
        return state
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        raw = handle.read()
    # A complete journal ends in a newline: anything after the final
    # newline is a torn write.  splitlines() alone would hide that.
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        record, anomaly = _parse_line(index, line, index == len(lines) - 1)
        if record is None:
            state.anomalies.append(anomaly)
            continue
        run_id = str(record["run"])
        kind = record["rec"]
        if kind == "submit":
            run = state.runs.get(run_id)
            if run is not None:
                state.anomalies.append(
                    f"line {index + 1}: duplicate submit for {run_id}; "
                    f"discarded"
                )
                continue
            run = JournalRun(
                run_id=run_id,
                payload=record.get("payload"),
                summary=record.get("summary") or {},
                cells_total=int(record.get("cells") or 0),
            )
            state.runs[run_id] = run
            continue
        run = state.runs.get(run_id)
        if run is None:
            state.anomalies.append(
                f"line {index + 1}: {kind!r} record for unknown run "
                f"{run_id}; discarded"
            )
            continue
        if kind == "cell":
            key = record.get("key")
            cell = record.get("cell")
            if not isinstance(key, str) or not isinstance(cell, dict):
                state.anomalies.append(
                    f"line {index + 1}: malformed cell record for "
                    f"{run_id}; discarded"
                )
            elif key in run.cells:
                state.anomalies.append(
                    f"line {index + 1}: duplicate cell {key!r} for "
                    f"{run_id}; deduped"
                )
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
        else:
            state.anomalies.append(
                f"line {index + 1}: unknown record kind {kind!r}; discarded"
            )
    return state


class RunJournal:
    """Append-only, fsync'd writer for one journal file.

    Thread-safe: job-worker threads journal cell completions while HTTP
    threads journal submissions; one lock serializes appends so records
    never interleave mid-line.  The file opens lazily on first append
    (loading state never creates the file).
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._file = None
        #: Optional :class:`~repro.metrics.telemetry.MetricsRegistry`;
        #: when set (the JobStore wires its own), every durable append
        #: bumps ``repro_journal_fsyncs_total``.
        self.metrics = None

    # -- reading --------------------------------------------------------------

    def load_state(self) -> JournalState:
        """Replay the journal from disk (see :func:`load_journal`)."""
        return load_journal(self.path)

    # -- writing --------------------------------------------------------------

    def append(self, rec: str, run_id: str, **body: object) -> None:
        """Durably append one record: write, flush, fsync."""
        record = {"rec": rec, "run": run_id, "v": JOURNAL_VERSION}
        record.update(body)
        # Insertion order, not sort_keys: a journaled report must come
        # back with its original key order so a restored snapshot is
        # byte-identical to the one served before the restart.
        line = json.dumps(record, separators=(",", ":"))
        with self._lock:
            if self._file is None:
                directory = os.path.dirname(os.path.abspath(self.path))
                os.makedirs(directory, exist_ok=True)
                self._file = open(self.path, "a", encoding="utf-8")
            self._file.write(line + "\n")
            self._file.flush()
            os.fsync(self._file.fileno())
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

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
