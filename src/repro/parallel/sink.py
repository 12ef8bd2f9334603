"""The record sink: where a merged replay keeps its request records.

The paper's thesis is that intermediate data should live where it is
produced instead of materializing centrally; the replay pipeline's own
record stream is the same problem in miniature.  Every cell hands the
parent a list of :class:`~repro.metrics.latency.RequestRecord`\\ s and
the merge must present them in one canonical order — but nothing forces
the canonical sequence to *live in parent RAM*.  A
:class:`StreamingMerge <repro.parallel.engine.StreamingMerge>` therefore
writes records through one :class:`RecordSink`, bounded by default:

* Each cell's records are buffered as a sorted in-memory run.  While
  the buffer stays at or below ``max_records_in_memory`` (default
  :data:`DEFAULT_MAX_RECORDS_IN_MEMORY`), ``finalize`` k-way merges the
  runs in RAM (``heapq.merge`` — the k-way generalization of
  :func:`repro.metrics.latency._merge_sorted`) and returns a plain
  ``list``; no scratch directory is ever created.
* Once the buffer crosses the threshold, every buffered cell flushes to
  its own **sorted run file** (NDJSON of :func:`record_to_payload`
  lines) and later cells buffer afresh.  ``finalize`` then k-way merges
  the disk runs with the still-buffered cells, streams the result into
  one merged file, and returns a :class:`SpilledRecords` sequence that
  reads records lazily from it.  Parent peak RSS is bounded by the
  threshold plus one in-flight cell — not by the trace size.

Both branches produce the merged stream in the identical canonical
order (the ``(submit_time, request_id)`` key is globally unique:
request ids are cell-qualified), and both fold a
:class:`RecordAggregate` over it in that order — every count and float
the report's record-derived sections need, computed in exactly the
order the in-memory scan would have used.  Reports are therefore
byte-identical at every threshold, worker count and executor; Python
floats round-trip JSON exactly (shortest repr), so a record that passed
through a spill file aggregates to the same bits as one that never left
RAM.
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

from ..metrics.latency import LatencySummary, RequestRecord, TaskRecord

__all__ = [
    "DEFAULT_MAX_RECORDS_IN_MEMORY",
    "RecordAggregate",
    "RecordSink",
    "RecordSinkSpec",
    "SpillError",
    "SpilledRecords",
    "record_from_payload",
    "record_to_payload",
]

#: Default spill threshold: records buffered in parent RAM before cells
#: flush to sorted run files.  ~10k records keeps the parent's share of
#: a 100k-event replay under a tenth of the in-memory footprint while
#: staying far above any per-page working set.
DEFAULT_MAX_RECORDS_IN_MEMORY = 10_000


class SpillError(RuntimeError):
    """A spill file failed integrity checks (torn write, truncation)."""


# -- record (de)serialization -------------------------------------------------


def record_to_payload(record: RequestRecord) -> dict:
    """One record as a JSON-ready dict that round-trips exactly.

    The shared record schema: cell payloads in the durable run journal
    (:meth:`~repro.parallel.engine.CellResult.to_payload`), spill run
    files, and the ``GET /v1/runs/<id>/records`` pages all speak it.
    """
    return {
        "request_id": record.request_id,
        "workflow": record.workflow,
        "submit_time": record.submit_time,
        "end_time": record.end_time,
        "failed": record.failed,
        "error": record.error,
        "tasks": [
            {
                "task_id": task.task_id,
                "function": task.function,
                "node": task.node,
                "ready_time": task.ready_time,
                "trigger_time": task.trigger_time,
                "exec_start": task.exec_start,
                "exec_end": task.exec_end,
                "get_s": task.get_s,
                "compute_s": task.compute_s,
                "put_s": task.put_s,
                "cold_start": task.cold_start,
                "retries": task.retries,
            }
            for task in record.tasks
        ],
    }


def record_from_payload(payload: dict) -> RequestRecord:
    """Rebuild a :class:`RequestRecord` from :func:`record_to_payload`."""
    return RequestRecord(
        request_id=payload["request_id"],
        workflow=payload["workflow"],
        submit_time=payload["submit_time"],
        end_time=payload["end_time"],
        failed=payload["failed"],
        error=payload["error"],
        tasks=[TaskRecord(**task) for task in payload.get("tasks", ())],
    )


def _record_key(record: RequestRecord) -> Tuple[float, str]:
    return (record.submit_time, record.request_id)


def _payload_key(payload: dict) -> Tuple[float, str]:
    return (payload["submit_time"], payload["request_id"])


# -- the streaming aggregate --------------------------------------------------


class _Group:
    """Offered count plus completed latencies (merged order) for one
    tenant or workflow breakdown row."""

    __slots__ = ("offered", "latencies")

    def __init__(self) -> None:
        self.offered = 0
        self.latencies: List[float] = []


class RecordAggregate:
    """Everything ``to_dict`` derives from records, folded in one pass.

    Observed strictly in canonical merged order, so the per-group
    latency sample order — and therefore float-summation order inside
    :class:`~repro.metrics.latency.LatencySummary` — matches a scan of
    the materialized record list bit for bit.  This is what lets a
    spilled result render its report without ever holding the records.
    """

    __slots__ = ("total", "completed", "failed", "tenants", "workflows")

    def __init__(self) -> None:
        self.total = 0
        self.completed = 0
        self.failed = 0
        self.tenants: Dict[str, _Group] = {}
        self.workflows: Dict[str, _Group] = {}

    def observe(
        self,
        request_id: str,
        workflow: str,
        submit_time: float,
        end_time: Optional[float],
        failed: bool,
        tenant: str,
    ) -> None:
        self.total += 1
        tenant_group = self.tenants.get(tenant)
        if tenant_group is None:
            tenant_group = self.tenants[tenant] = _Group()
        workflow_group = self.workflows.get(workflow)
        if workflow_group is None:
            workflow_group = self.workflows[workflow] = _Group()
        tenant_group.offered += 1
        workflow_group.offered += 1
        if end_time is not None and not failed:
            self.completed += 1
            latency = end_time - submit_time
            tenant_group.latencies.append(latency)
            workflow_group.latencies.append(latency)
        elif failed:
            self.failed += 1

    def observe_record(
        self, record: RequestRecord, tenant_of: Dict[str, str]
    ) -> None:
        self.observe(
            record.request_id,
            record.workflow,
            record.submit_time,
            record.end_time,
            record.failed,
            tenant_of.get(record.request_id, "default"),
        )

    def observe_payload(
        self, payload: dict, tenant_of: Dict[str, str]
    ) -> None:
        self.observe(
            payload["request_id"],
            payload["workflow"],
            payload["submit_time"],
            payload["end_time"],
            payload["failed"],
            tenant_of.get(payload["request_id"], "default"),
        )

    def workflow_names(self) -> List[str]:
        return sorted(self.workflows)

    @staticmethod
    def _breakdown(groups: Dict[str, _Group]) -> dict:
        from ..metrics.report import summary_to_dict

        out = {}
        for key, group in sorted(groups.items()):
            out[key] = {
                "offered": group.offered,
                "completed": len(group.latencies),
                "latency": (
                    summary_to_dict(
                        LatencySummary.from_latencies(group.latencies)
                    )
                    if group.latencies
                    else None
                ),
            }
        return out

    def report_payload(
        self,
        system: str,
        workflow: str,
        duration_s: float,
        offered: int,
        latency: Optional[LatencySummary],
        usage,
    ) -> dict:
        """The record-derived report body, mirroring
        :meth:`~repro.loadgen.runner.RunResult.to_dict` plus the
        tenant/workflow breakdowns of
        :meth:`~repro.loadgen.trace.TraceRunResult.to_dict` field for
        field — any drift here breaks report byte-identity between the
        spilled and in-memory paths, which the sink property tests pin.
        """
        from ..metrics.report import summary_to_dict

        payload: dict = {
            "system": system,
            "workflow": workflow,
            "duration_s": duration_s,
            "offered": offered,
            "completed": self.completed,
            "failed": self.failed,
            "failure_rate": self.failed / self.total if self.total else 0.0,
            "throughput_rpm": (
                self.completed / duration_s * 60.0 if duration_s > 0 else 0.0
            ),
            "latency": (
                summary_to_dict(latency)
                if self.completed and latency is not None
                else None
            ),
            "usage": None,
        }
        if usage is not None:
            usage_dict = summary_to_dict(usage)
            per_request = usage.memory_gbs_per_request
            usage_dict["memory_gbs_per_request"] = (
                None if per_request != per_request else per_request
            )
            per_request = usage.cache_mbs_per_request
            usage_dict["cache_mbs_per_request"] = (
                None if per_request != per_request else per_request
            )
            payload["usage"] = usage_dict
        payload["tenants"] = self._breakdown(self.tenants)
        payload["workflows"] = self._breakdown(self.workflows)
        return payload


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
    """A lazily-read record sequence backed by the merged spill file.

    Supports ``len``/iteration/indexing like the in-memory list (records
    rebuild via :func:`record_from_payload` on access) plus
    :meth:`iter_payloads` for consumers — the records pagination
    endpoint — that want the raw JSON payloads without object
    construction.  Holds a byte offset per record, so random access is
    one seek.  The backing directory is removed on :meth:`close` or
    garbage collection.
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

    def __iter__(self) -> Iterator[RequestRecord]:
        for payload in self.iter_payloads():
            yield record_from_payload(payload)

    def iter_payloads(
        self, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[dict]:
        """Yield record payload dicts for ``[start, stop)``."""
        total = len(self._offsets)
        start = max(0, start)
        stop = total if stop is None else min(stop, total)
        if start >= stop:
            return
        with open(self._path, "r", encoding="utf-8") as handle:
            handle.seek(self._offsets[start])
            for _ in range(stop - start):
                line = handle.readline()
                try:
                    yield json.loads(line)
                except ValueError as exc:
                    raise SpillError(
                        f"merged spill file {self._path} is corrupt: {exc}"
                    ) from None

    def __getitem__(self, index):
        if isinstance(index, slice):
            # Read the covered span once (forward, whatever the step's
            # sign), then pick the slice's own indices out of it.
            picks = range(*index.indices(len(self._offsets)))
            if not picks:
                return []
            low = min(picks)
            span = list(self.iter_payloads(low, max(picks) + 1))
            return [record_from_payload(span[i - low]) for i in picks]
        if index < 0:
            index += len(self._offsets)
        if not 0 <= index < len(self._offsets):
            raise IndexError(index)
        for payload in self.iter_payloads(index, index + 1):
            return record_from_payload(payload)
        raise IndexError(index)  # pragma: no cover - range-checked above

    def close(self) -> None:
        if self._finalizer is not None:
            self._finalizer()


class RecordSink:
    """The one record sink: per-cell sorted runs in RAM, spilled to
    sorted run files once more than ``max_records_in_memory`` records
    are buffered.

    Each cell's records are sorted by the canonical ``(submit_time,
    request_id)`` key on arrival (cells emit records in submission
    order, so this is a near-no-op Timsort pass).  Below the threshold
    ``finalize`` drains the runs through ``heapq.merge`` into a plain
    list — O(n log k), each run released as it exhausts.  Past it, the
    spill format is one NDJSON line per record
    (:func:`record_to_payload`, compact separators), one file per
    spilled cell, so every file is a sorted run and the merge never
    re-sorts.  Each run file's expected record count is kept in memory;
    a truncated or torn file raises :class:`SpillError` at finalize
    instead of yielding a silently short report.
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
        self._buffers: Dict[str, List[RequestRecord]] = {}
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
            records = self._buffers.pop(key)
            if not records:
                continue
            path = self._scratch_dir() / f"run-{self._run_seq:06d}.ndjson"
            self._run_seq += 1
            with open(path, "w", encoding="utf-8") as handle:
                for record in records:
                    handle.write(
                        json.dumps(
                            record_to_payload(record), separators=(",", ":")
                        )
                    )
                    handle.write("\n")
            self._runs.append(_SpillRun(path=path, count=len(records)))
            self.spilled_records += len(records)
        self._buffered = 0

    @staticmethod
    def _iter_run(run: _SpillRun) -> Iterator[dict]:
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
                yield payload
        if read != run.count:
            raise SpillError(
                f"spill run file {run.path} is truncated: expected "
                f"{run.count} records, read {read}"
            )

    @staticmethod
    def _iter_buffer(records: List[RequestRecord]) -> Iterator[dict]:
        for record in records:
            yield record_to_payload(record)

    # -- the sink surface -----------------------------------------------------

    def add(self, key: str, records: Sequence[RequestRecord]) -> None:
        self._buffers[key] = sorted(records, key=_record_key)
        self._buffered += len(records)
        if self._buffered > self._threshold:
            self._flush_buffers()

    def finalize(
        self, tenant_of: Dict[str, str]
    ) -> Tuple[Sequence[RequestRecord], RecordAggregate]:
        if self._finalized:
            raise RuntimeError("record sink already finalized")
        self._finalized = True
        aggregate = RecordAggregate()
        if not self._runs:
            # Nothing spilled: merge in RAM.  pop() drops the dict's
            # reference; heapq.merge drops each run as it exhausts.
            keys = sorted(self._buffers)
            runs = [iter(self._buffers.pop(key)) for key in keys]
            self._buffered = 0
            observe_record = aggregate.observe_record
            merged: List[RequestRecord] = []
            append = merged.append
            for record in heapq.merge(*runs, key=_record_key):
                append(record)
                observe_record(record, tenant_of)
            return merged, aggregate
        streams = [self._iter_run(run) for run in self._runs]
        for key in sorted(self._buffers):
            streams.append(self._iter_buffer(self._buffers.pop(key)))
        scratch = self._scratch_dir()
        merged_path = scratch / "merged.ndjson"
        offsets: List[int] = []
        observe = aggregate.observe_payload
        try:
            with open(merged_path, "wb") as out:
                offset = 0
                for payload in heapq.merge(*streams, key=_payload_key):
                    line = (
                        json.dumps(payload, separators=(",", ":")) + "\n"
                    ).encode("utf-8")
                    offsets.append(offset)
                    out.write(line)
                    offset += len(line)
                    observe(payload, tenant_of)
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
