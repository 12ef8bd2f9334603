"""The record sink: where a merged replay keeps its request rows.

The paper's thesis is that intermediate data should live where it is
produced instead of materializing centrally; the replay pipeline's own
record stream is the same problem in miniature.  Every cell hands the
parent a list of :class:`~repro.metrics.latency.RequestRow`\\ s — what
a report reads of each request, without its task timeline — and the
merge must present them in one canonical order, but nothing forces the
canonical sequence to *live in parent RAM*.  A
:class:`StreamingMerge <repro.parallel.engine.StreamingMerge>` therefore
writes rows through one :class:`RecordSink`, bounded by default:

* Each cell's rows are buffered as a sorted in-memory run.  While the
  buffer stays at or below ``max_records_in_memory`` (default
  :data:`DEFAULT_MAX_RECORDS_IN_MEMORY`), ``finalize`` k-way merges the
  runs in RAM (``heapq.merge``) and returns a plain ``list``; no
  scratch directory is ever created.
* Once the buffer crosses the threshold, every buffered cell flushes to
  its own **sorted run file** (NDJSON of ``row._asdict()`` lines) and
  later cells buffer afresh.  ``finalize`` then k-way merges the disk
  runs with the still-buffered cells, streams the result into one
  merged file, and returns a :class:`SpilledRecords` sequence that
  reads rows lazily from it.  Parent peak RSS is bounded by the
  threshold plus one in-flight cell — not by the trace size.

A row's leading fields are the canonical ``(submit_time, request_id)``
key, which is globally unique (request ids are cell-qualified), so rows
sort and merge as plain tuples.  Both branches produce the merged
stream in that order and fold one
:class:`~repro.metrics.report.RecordAggregate` over it — the same
aggregate every other run report is rendered from, so the merged report
needs no second scan of the rows.  Reports are therefore byte-identical
at every threshold, worker count and executor; Python floats round-trip
JSON exactly (shortest repr), so a row that passed through a spill file
aggregates to the same bits as one that never left RAM.
"""

from __future__ import annotations

import heapq
import json
import os
import shutil
import tempfile
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..metrics.latency import RequestRow
from ..metrics.report import RecordAggregate

__all__ = [
    "DEFAULT_MAX_RECORDS_IN_MEMORY",
    "RecordSink",
    "RecordSinkSpec",
    "SpillError",
    "SpilledRecords",
]

#: Default spill threshold: records buffered in parent RAM before cells
#: flush to sorted run files.  ~10k records keeps the parent's share of
#: a 100k-event replay under a tenth of the in-memory footprint while
#: staying far above any per-page working set.
DEFAULT_MAX_RECORDS_IN_MEMORY = 10_000


class SpillError(RuntimeError):
    """A spill file failed integrity checks (torn write, truncation)."""


def _line(row: RequestRow) -> str:
    """One spill-file line: the row's JSON form, compact."""
    return json.dumps(row._asdict(), separators=(",", ":")) + "\n"


# -- sink configuration -------------------------------------------------------


@dataclass(frozen=True)
class RecordSinkSpec:
    """Picklable sink tunings carried on a
    :class:`~repro.parallel.spec.ReplaySpec`.

    Pure scheduling/memory policy: the sink never feeds back into cell
    seeds or the merged report, so two specs differing only here
    produce byte-identical reports.
    """

    #: Directory spill scratch lives under (``None``: the system temp
    #: dir).  Each spilling run creates and cleans up its own
    #: subdirectory; a run that never spills creates nothing.
    spill_dir: Optional[str] = None
    #: Records buffered in parent RAM before cells flush to run files.
    max_records_in_memory: int = DEFAULT_MAX_RECORDS_IN_MEMORY

    def __post_init__(self) -> None:
        if self.max_records_in_memory < 1:
            raise ValueError(
                f"max_records_in_memory must be >= 1, "
                f"got {self.max_records_in_memory}"
            )


# -- spilled results ----------------------------------------------------------


@dataclass
class _SpillRun:
    """One on-disk sorted run: a cell flushed to NDJSON."""

    path: Path
    count: int


class SpilledRecords(Sequence):
    """A lazily-read row sequence backed by the merged spill file.

    Supports ``len``/iteration/indexing/slicing like the in-memory list
    (rows rebuild on access).  Holds a byte offset per row, so random
    access is one seek and a slice reads its span once.  The backing
    directory is removed on :meth:`close` or garbage collection.
    """

    def __init__(
        self, path: Path, offsets: List[int], cleanup_dir: Optional[Path]
    ) -> None:
        self._path = Path(path)
        self._offsets = offsets
        self._finalizer = (
            weakref.finalize(
                self, shutil.rmtree, str(cleanup_dir), ignore_errors=True
            )
            if cleanup_dir is not None
            else None
        )

    @property
    def path(self) -> Path:
        return self._path

    def __len__(self) -> int:
        return len(self._offsets)

    def __iter__(self) -> Iterator[RequestRow]:
        return self._read(0, len(self._offsets))

    def _read(self, start: int, stop: int) -> Iterator[RequestRow]:
        """Yield the rows ``[start, stop)`` (``0 <= start <= stop <= len``)."""
        if start >= stop:
            return
        with open(self._path, "r", encoding="utf-8") as handle:
            handle.seek(self._offsets[start])
            for _ in range(stop - start):
                line = handle.readline()
                try:
                    payload = json.loads(line)
                except ValueError as exc:
                    raise SpillError(
                        f"merged spill file {self._path} is corrupt: {exc}"
                    ) from None
                yield RequestRow.from_payload(payload)

    def __getitem__(self, index):
        if isinstance(index, slice):
            # Read the covered span once (forward, whatever the step's
            # sign), then pick the slice's own indices out of it.
            picks = range(*index.indices(len(self._offsets)))
            if not picks:
                return []
            low = min(picks)
            span = list(self._read(low, max(picks) + 1))
            return [span[i - low] for i in picks]
        if index < 0:
            index += len(self._offsets)
        if not 0 <= index < len(self._offsets):
            raise IndexError(index)
        return next(self._read(index, index + 1))

    def close(self) -> None:
        if self._finalizer is not None:
            self._finalizer()


class RecordSink:
    """The one record sink: per-cell sorted runs in RAM, spilled to
    sorted run files once more than ``max_records_in_memory`` rows are
    buffered.

    Each cell's rows are sorted on arrival (cells emit them in
    submission order, so this is a near-no-op Timsort pass).  Below the
    threshold ``finalize`` drains the runs through ``heapq.merge`` into
    a plain list — O(n log k), each run released as it exhausts.  Past
    it, the spill format is one NDJSON line per row (``row._asdict()``,
    compact separators), one file per spilled cell, so every file is a
    sorted run and the merge never re-sorts.  Each run file's expected
    row count is kept in memory; a truncated or torn file raises
    :class:`SpillError` at finalize instead of yielding a silently
    short report.
    """

    def __init__(
        self,
        spill_dir: Optional[str] = None,
        max_records_in_memory: int = DEFAULT_MAX_RECORDS_IN_MEMORY,
    ) -> None:
        if max_records_in_memory < 1:
            raise ValueError("max_records_in_memory must be >= 1")
        self._threshold = max_records_in_memory
        self._parent_dir = spill_dir
        self._dir: Optional[Path] = None
        self._buffers: Dict[str, List[RequestRow]] = {}
        self._buffered = 0
        self._runs: List[_SpillRun] = []
        self._run_seq = 0
        self.spilled_records = 0
        self._finalized = False

    # -- plumbing -------------------------------------------------------------

    def _scratch_dir(self) -> Path:
        if self._dir is None:
            if self._parent_dir is not None:
                os.makedirs(self._parent_dir, exist_ok=True)
            self._dir = Path(
                tempfile.mkdtemp(prefix="repro-spill-", dir=self._parent_dir)
            )
        return self._dir

    def _flush_buffers(self) -> None:
        """Write every buffered cell to its own sorted run file."""
        for key in sorted(self._buffers):
            rows = self._buffers.pop(key)
            if not rows:
                continue
            path = self._scratch_dir() / f"run-{self._run_seq:06d}.ndjson"
            self._run_seq += 1
            with open(path, "w", encoding="utf-8") as handle:
                for row in rows:
                    handle.write(_line(row))
            self._runs.append(_SpillRun(path=path, count=len(rows)))
            self.spilled_records += len(rows)
        self._buffered = 0

    @staticmethod
    def _iter_run(run: _SpillRun) -> Iterator[RequestRow]:
        """Stream one run file, verifying integrity as it goes."""
        read = 0
        with open(run.path, "r", encoding="utf-8") as handle:
            for line in handle:
                try:
                    payload = json.loads(line)
                except ValueError:
                    raise SpillError(
                        f"spill run file {run.path} is corrupt at record "
                        f"{read}: torn or truncated write"
                    ) from None
                read += 1
                yield RequestRow.from_payload(payload)
        if read != run.count:
            raise SpillError(
                f"spill run file {run.path} is truncated: expected "
                f"{run.count} records, read {read}"
            )

    # -- the sink surface -----------------------------------------------------

    def add(self, key: str, rows: Sequence[RequestRow]) -> None:
        self._buffers[key] = sorted(rows)
        self._buffered += len(rows)
        if self._buffered > self._threshold:
            self._flush_buffers()

    def finalize(
        self, tenant_of: Dict[str, str]
    ) -> Tuple[Sequence[RequestRow], RecordAggregate]:
        if self._finalized:
            raise RuntimeError("record sink already finalized")
        self._finalized = True
        aggregate = RecordAggregate()
        observe = aggregate.observe_record
        # pop() drops the dict's references; heapq.merge drops each run
        # as it exhausts.
        streams = [self._iter_run(run) for run in self._runs]
        for key in sorted(self._buffers):
            streams.append(iter(self._buffers.pop(key)))
        self._buffered = 0
        if not self._runs:
            # Nothing spilled: merge in RAM.
            merged: List[RequestRow] = []
            append = merged.append
            for row in heapq.merge(*streams):
                append(row)
                observe(row, tenant_of)
            return merged, aggregate
        scratch = self._scratch_dir()
        merged_path = scratch / "merged.ndjson"
        offsets: List[int] = []
        try:
            with open(merged_path, "wb") as out:
                offset = 0
                for row in heapq.merge(*streams):
                    line = _line(row).encode("utf-8")
                    offsets.append(offset)
                    out.write(line)
                    offset += len(line)
                    observe(row, tenant_of)
        except SpillError:
            self.close()
            raise
        for run in self._runs:
            try:
                run.path.unlink()
            except OSError:  # pragma: no cover - cleanup is best-effort
                pass
        self._runs = []
        # SpilledRecords owns the scratch directory from here: the merged
        # file lives until the result is closed or garbage collected.
        self._dir = None
        return SpilledRecords(merged_path, offsets, cleanup_dir=scratch), (
            aggregate
        )

    def close(self) -> None:
        """Drop buffers and remove any scratch still owned by the sink."""
        self._buffers.clear()
        self._buffered = 0
        self._runs = []
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None
