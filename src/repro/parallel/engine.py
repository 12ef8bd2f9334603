"""Trace replay: cells → executor → one fold → one report.

The pipeline:

1. A :class:`~repro.parallel.policy.ShardPolicy` splits the trace into
   *cells* — independent sub-traces that never interact (per tenant by
   default).  The cell partition depends only on trace + policy.
2. An **executor** runs the cells and yields one outcome per cell — a
   :class:`CellResult`, or the :class:`~repro.parallel.resilience.\
CellFailure` of a cell whose retry budget ran out — in completion
   order.  There are three: the in-process serial executor (``repro
   replay`` at one worker), the local work-stealing pool
   (:func:`local_executor` with ``workers > 1``, or at any size on a
   ``repro serve`` job thread's persistent :class:`CellPool`), and the
   remote fleet behind ``"workers": "remote"``.  The pool submits
   cells individually to a ``ProcessPoolExecutor``, costliest cell
   first, through a sliding window of ``2 * workers`` outstanding
   tasks: workers pull the next cell the moment they finish one, so
   fast workers steal the remaining queue instead of idling behind a
   skewed tenant.
3. One fold, :func:`replay`, consumes any executor's outcomes: each
   result folds into an online :class:`StreamingMerge` as it arrives
   and is then dropped, so peak memory is bounded by the final merged
   report plus the window's worth of in-flight cells.  The merge
   accepts cells in *any* arrival order and canonicalizes at
   :meth:`~StreamingMerge.finalize`: per-cell summaries fold in
   sorted-cell-key order (so even float-summation order is
   deterministic) and records sort by ``(submit_time, request_id)``.

A worker rebuilds a fresh simulated world per cell from the picklable
:class:`~repro.parallel.spec.ReplaySpec` — under the cell tenant's
resolved :class:`~repro.parallel.profiles.TenantProfile`, so tenants
may replay on different systems, placements, and clusters — with a
seed derived from (root seed, cell key, resolved profile), then runs
the ordinary :func:`~repro.loadgen.trace.run_trace` on the cell's
events.

Because cells, seeds, and the canonical merge order are all independent
of the executor, its worker count, and completion order, the merged
report is bit-identical at any ``--workers`` setting, local or remote —
parallelism and scheduling never change results, only wall-clock time
and memory.

**Resilience** (see :mod:`repro.parallel.resilience` and
``docs/robustness.md``): every cell attempt is byte-identical to every
other attempt of the same cell — ``cell_seed`` is a pure function of
(spec, cell) — so failed attempts are simply re-derived and re-run.
The pool survives worker death: a ``BrokenProcessPool`` is caught, the
pool is rebuilt, and the in-flight cells are resubmitted at the next
attempt number.  Cells retry per a deterministic
:class:`~repro.parallel.resilience.RetryPolicy` (seeded-jitter backoff,
optional per-attempt ``SIGALRM`` deadline); a cell that exhausts its
attempts either aborts the run (``on_cell_failure="fail"``, the
default — a :class:`~repro.parallel.resilience.CellFailedError`) or
degrades it (``"skip"`` — the merged report gains a deterministic
``replay.failed_cells`` section and the surviving cells still merge
canonically).  An optional
:class:`~repro.parallel.resilience.HostFaultPlan` injects
kill/delay/poison faults deterministically for tests and the chaos
harness.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import stat
import sys
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from ..loadgen.trace import InvocationTrace, TraceRunResult, run_trace
from ..metrics.latency import LatencySummary, RequestRow
from ..metrics.report import RecordAggregate, tag_tenant_profiles
from ..metrics.telemetry import MetricsRegistry
from ..metrics.usage import UsageSummary
from .policy import ShardPolicy, get_shard_policy
from .resilience import (
    CellFailedError,
    CellFailure,
    HostFaultPlan,
    RetryPolicy,
    cell_deadline,
    classify_failure,
)
from .sink import RecordSink, RecordSinkSpec
from .spec import ReplaySpec

__all__ = [
    "CellPool",
    "CellResult",
    "Executor",
    "Outcome",
    "ParallelReplayResult",
    "StreamingMerge",
    "local_executor",
    "max_rss_mb",
    "replay",
    "replay_cell",
    "run_parallel_replay",
]

#: Valid ``on_cell_failure`` modes: abort the run, or degrade the report.
ON_CELL_FAILURE_MODES = ("fail", "skip")

#: One cell: ``(cell key, sub-trace)``.
Cell = Tuple[str, InvocationTrace]


@dataclass
class CellResult:
    """The replay of one cell, ready to cross a process boundary: its
    requests travel as :class:`~repro.metrics.latency.RequestRow`\\ s,
    without their task timelines."""

    key: str
    offered: int
    duration_s: float
    records: List[RequestRow]
    tenant_of: Dict[str, str]
    usage: Optional[UsageSummary]
    wall_s: float
    #: Audit tag of the resolved tenant profile this cell replayed under
    #: (:meth:`~repro.parallel.spec.ResolvedProfile.tag`).
    profile: Dict[str, object] = field(default_factory=dict)

    @cached_property
    def latency(self) -> Optional[LatencySummary]:
        """Latencies of the cell's completed requests, in record order
        (``None`` when nothing completed) — derived from the rows, so
        the samples never travel twice.  Derived once, on first use
        in the parent (the serve cell event, then the merge)."""
        latencies = [r.latency for r in self.records if r.completed]
        return LatencySummary.from_latencies(latencies) if latencies else None

    def to_payload(self) -> dict:
        """This cell as a JSON-ready dict that round-trips exactly.

        The durable run journal (``repro serve --journal``) persists one
        payload per completed cell; :meth:`from_payload` rebuilds a
        :class:`CellResult` whose fold through :class:`StreamingMerge`
        is byte-identical to folding the original — Python floats
        round-trip exactly through JSON (shortest-repr), and the request
        rows (``row._asdict()`` each) keep their order, from which the
        cell's latency summary is derived.
        """
        return {
            "key": self.key,
            "offered": self.offered,
            "duration_s": self.duration_s,
            "wall_s": self.wall_s,
            "tenant_of": dict(self.tenant_of),
            "profile": dict(self.profile),
            "usage": None if self.usage is None else {
                "memory_gbs": self.usage.memory_gbs,
                "cache_mbs": self.usage.cache_mbs,
                "completed_requests": self.usage.completed_requests,
            },
            "records": [row._asdict() for row in self.records],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CellResult":
        """Rebuild a :class:`CellResult` from :meth:`to_payload` output.

        Older payloads may carry a ``"latency"`` sample list (the rows
        hold the same samples) or a ``"tasks"`` timeline per row; both
        are ignored.
        """
        usage = payload.get("usage")
        return cls(
            key=payload["key"],
            offered=payload["offered"],
            duration_s=payload["duration_s"],
            wall_s=payload["wall_s"],
            tenant_of=dict(payload["tenant_of"]),
            profile=dict(payload.get("profile") or {}),
            usage=None if usage is None else UsageSummary(**usage),
            records=[
                RequestRow.from_payload(row) for row in payload["records"]
            ],
        )


@dataclass
class ParallelReplayResult(TraceRunResult):
    """A merged :class:`TraceRunResult` plus replay-engine bookkeeping.

    Its :attr:`records` are the merged
    :class:`~repro.metrics.latency.RequestRow`\\ s: a ``list``, or a
    disk-backed :class:`~repro.parallel.sink.SpilledRecords`.

    ``to_dict`` stays deterministic — it reports the policy and cell
    count (functions of trace + policy alone) but *not* worker counts,
    the executor, or wall-clock times, so two runs of the
    same trace at different parallelism produce byte-identical reports.
    The scheduling facts live on the object (:attr:`workers`,
    :attr:`wall_s`, :attr:`rss_mb`, per-cell :attr:`cell_wall_s`) for
    benchmarks and the CLI to surface separately.
    """

    policy_name: str = "tenant"
    cell_count: int = 0
    workers: int = 1
    wall_s: float = 0.0
    #: Parent-process peak RSS after the run, MB — where merge/pickle
    #: memory lives (a high-water mark including everything the host
    #: process did before the replay; 0.0 when unmeasurable).
    rss_mb: float = 0.0
    #: Wall-clock per engine phase: ``prepare`` (validation, checkpoint
    #: folding, cell partition), ``execute`` (the replay itself),
    #: ``finalize`` (the canonical merge).  Scheduling facts — kept out
    #: of the deterministic report, surfaced via telemetry gauges.
    phase_wall_s: Dict[str, float] = field(default_factory=dict)
    cell_wall_s: Dict[str, float] = field(default_factory=dict)
    #: Per-cell latency summaries folded via :meth:`LatencySummary.fold`
    #: in sorted-cell-key order (``None`` when nothing completed).
    merged_latency: Optional[LatencySummary] = None
    #: tenant -> resolved-profile tag, populated only when the spec
    #: carried tenant profiles (heterogeneous replay); functions of
    #: (trace, spec) alone, so including them in reports stays
    #: executor-invariant.
    tenant_profile_tags: Dict[str, dict] = field(default_factory=dict)
    #: Cells that terminally failed under ``on_cell_failure="skip"``.
    #: Deterministic (canonical messages, no PIDs/timings); rendered
    #: into the report's ``replay.failed_cells`` section sorted by key,
    #: and only when non-empty — a run that recovered from every fault
    #: reports byte-identically to a fault-free run.
    failed_cells: List[CellFailure] = field(default_factory=list)
    #: Streaming aggregate the record sink folded in canonical merge
    #: order.  ``to_dict`` renders the record-derived report sections
    #: from it instead of re-scanning :attr:`records` — which is what
    #: lets a disk-spilled result report without reading its records
    #: back into RAM.  Required: :meth:`StreamingMerge.finalize`, the
    #: only constructor, always sets it (the ``None`` default exists
    #: only because dataclass fields after defaulted ones need one).
    record_stats: Optional[RecordAggregate] = None

    def latency(self) -> LatencySummary:
        """The merged latency summary (falls back to recomputation)."""
        if self.merged_latency is not None:
            return self.merged_latency
        return super().latency()

    def events_per_s(self) -> float:
        """Replayed trace events per wall-clock second (host speed)."""
        return self.offered / self.wall_s if self.wall_s > 0 else 0.0

    def record_aggregate(self) -> RecordAggregate:
        if self.record_stats is None:
            raise ValueError(
                "ParallelReplayResult.record_stats is unset; results come "
                "from StreamingMerge.finalize"
            )
        return self.record_stats

    def to_dict(self) -> dict:
        payload = super().to_dict()
        payload["replay"] = {
            "policy": self.policy_name,
            "cells": self.cell_count,
        }
        if self.failed_cells:
            payload["replay"]["failed_cells"] = [
                failure.to_payload()
                for failure in sorted(
                    self.failed_cells, key=lambda failure: failure.key
                )
            ]
        if self.tenant_profile_tags:
            payload["replay"]["profiles"] = {
                tenant: dict(tag)
                for tenant, tag in sorted(self.tenant_profile_tags.items())
            }
            tag_tenant_profiles(payload, self.tenant_profile_tags)
        return payload


def max_rss_mb() -> float:
    """Peak RSS high-water mark of *this* process, in MB.

    Parent-side only, deliberately: the merge memory — the streamed
    per-cell results and the record sink — lives in the parent, while
    each worker holds one cell world at a time.
    (``RUSAGE_CHILDREN``'s ``ru_maxrss`` is the max over any single
    reaped child, not a sum, so folding it in would only blur the
    signal.)  ``getrusage`` reports kilobytes on Linux and bytes on
    macOS; 0.0 on platforms without the ``resource`` module (Windows).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return peak / scale


def replay_cell(spec: ReplaySpec, key: str, cell_trace: InvocationTrace) -> CellResult:
    """Replay one cell in a fresh world built from the spec.

    The cell replays under its tenant's resolved profile: system,
    placement, cluster, and request defaults may all differ per tenant
    (heterogeneous tenancy), but resolution is a pure function of
    (spec, cell), so the report stays executor-invariant.
    """
    start = time.perf_counter()
    resolved = spec.resolve(key, cell_trace)
    setup = spec.build_setup(cell_trace, key, resolved=resolved)
    # Cell-qualified request ids stay unique in the merged record stream.
    setup.system.request_id_prefix = f"{key}/"
    result = run_trace(
        setup.system,
        cell_trace,
        default_app=spec.default_app,
        timeout_s=resolved.timeout_s,
        input_bytes=resolved.input_bytes,
        fanout=resolved.fanout,
    )
    return CellResult(
        key=key,
        offered=result.offered,
        duration_s=result.duration_s,
        records=[record.row() for record in result.records],
        tenant_of=result.tenant_of,
        usage=result.usage,
        wall_s=time.perf_counter() - start,
        profile=resolved.tag(),
    )


def _failure_message(exc: BaseException) -> str:
    """A deterministic failure description for degraded reports.

    Worker crashes collapse to fixed text — ``BrokenProcessPool``
    messages vary by Python version and carry no replayable detail —
    while everything else keeps its (deterministic) exception text.
    """
    if classify_failure(exc) == "worker-crash":
        return "worker process died mid-cell"
    return f"{type(exc).__name__}: {exc}"


def _replay_cell_task(
    spec: ReplaySpec,
    key: str,
    cell_trace: InvocationTrace,
    attempt: int,
    retry: RetryPolicy,
    faults: Optional[HostFaultPlan],
    backoff: bool = True,
) -> CellResult:
    """One *attempt* at one cell — the resilient worker entry point.

    Retry backoff sleeps here, on the worker side, so the parent's fold
    loop never blocks behind a backing-off cell; the deadline timer and
    any injected faults wrap the replay itself.  Every attempt replays
    byte-identically (``cell_seed`` ignores the attempt number), which
    is what makes retry-after-crash safe.

    ``backoff=False`` skips the pause: remote fleet workers
    (:mod:`repro.worker`) pass it because their lease clock is already
    running when an attempt starts — sleeping would burn the lease
    budget — and the requeue round-trip through the control plane has
    spaced the attempts anyway.
    """
    if backoff and attempt > 1:
        time.sleep(retry.backoff_s(spec.seed, key, attempt))
    with cell_deadline(key, retry.deadline_s):
        if faults is not None:
            faults.apply(key, attempt)
        return replay_cell(spec, key, cell_trace)


@dataclass
class _CellFold:
    """The bounded-size residue one folded cell leaves behind: every
    per-cell quantity whose canonical merge order matters, minus the
    records (which stream straight into the record sink)."""

    offered: int
    duration_s: float
    wall_s: float
    tenant_of: Dict[str, str]
    usage: Optional[UsageSummary]
    latency: Optional[LatencySummary]
    profile: Dict[str, object]


class StreamingMerge:
    """Online, order-insensitive fold of :class:`CellResult`\\ s.

    ``add`` accepts cells in *any* arrival order (work stealing
    completes them unpredictably) and keeps only two things: the cell's
    record run handed to the **record sink** (per-cell sorted runs in
    RAM, spilled to disk past the spec's record threshold — see
    :mod:`repro.parallel.sink`) and a small per-cell residue (counters,
    usage integrals, the latency sample chunk, the tenant map).
    ``finalize`` canonicalizes: residues fold in sorted-cell-key order —
    so float summation order, profile tags, and tenant maps are
    independent of scheduling — and the sink k-way merges its per-cell
    sorted runs by the globally unique ``(submit_time, request_id)``
    key, releasing each run as it drains.  The result is byte-identical
    at every worker count, arrival order and sink threshold.

    Parent memory for records stays bounded by the sink's threshold —
    never by the trace size or a second sort buffer.
    """

    def __init__(
        self,
        trace: InvocationTrace,
        spec: ReplaySpec,
    ) -> None:
        self._trace = trace
        self._spec = spec
        tunings = spec.record_sink or RecordSinkSpec()
        self.sink = RecordSink(
            tunings.spill_dir, tunings.max_records_in_memory
        )
        self._cells: Dict[str, _CellFold] = {}

    def __len__(self) -> int:
        return len(self._cells)

    def add(self, cell: CellResult) -> None:
        """Fold one cell's result; the cell may be garbage-collected
        afterwards (its record list is absorbed, not referenced)."""
        if cell.key in self._cells:
            raise ValueError(f"cell {cell.key!r} already merged")
        self.sink.add(cell.key, cell.records)
        self._cells[cell.key] = _CellFold(
            offered=cell.offered,
            duration_s=cell.duration_s,
            wall_s=cell.wall_s,
            tenant_of=cell.tenant_of,
            usage=cell.usage,
            latency=cell.latency,
            profile=cell.profile,
        )

    def finalize(self) -> ParallelReplayResult:
        """Canonicalize the fold into the deterministic merged report."""
        spec = self._spec
        keys = sorted(self._cells)
        cells = [self._cells[key] for key in keys]
        usage: Optional[UsageSummary] = None
        tenant_of: Dict[str, str] = {}
        for cell in cells:
            tenant_of.update(cell.tenant_of)
            if cell.usage is not None:
                usage = cell.usage if usage is None else usage.merge(cell.usage)
        # The sink needs the full tenant map to aggregate per-tenant
        # breakdowns while the merged stream is still flowing past.
        records, stats = self.sink.finalize(tenant_of)
        latencies = [c.latency for c in cells if c.latency is not None]
        latency = LatencySummary.fold(latencies) if latencies else None
        workflows = stats.workflow_names()
        profile_tags: Dict[str, dict] = {}
        system_name = spec.system_name
        if spec.has_profiles:
            for cell in cells:
                for tenant in sorted(set(cell.tenant_of.values())):
                    profile_tags[tenant] = cell.profile
            # The headline system field must name what actually ran, not
            # the base spec's default a profile may have overridden
            # everywhere.
            systems = sorted(
                {str(cell.profile["system"]) for cell in cells if cell.profile}
            )
            if systems:
                system_name = "+".join(systems)
        return ParallelReplayResult(
            system_name=system_name,
            workflow="+".join(workflows) if workflows else self._trace.name,
            duration_s=max((cell.duration_s for cell in cells), default=0.0),
            offered=sum(cell.offered for cell in cells),
            records=records,
            usage=usage,
            tenant_of=tenant_of,
            cell_count=len(cells),
            cell_wall_s={key: self._cells[key].wall_s for key in keys},
            merged_latency=latency,
            tenant_profile_tags=profile_tags,
            record_stats=stats,
        )


def _validate(trace: InvocationTrace, spec: ReplaySpec, policy: ShardPolicy) -> None:
    if spec.has_profiles and policy.name != "tenant":
        # Profiles key on tenant cells.  Under other partitions the same
        # tenant's events could run under different profiles depending on
        # which cells they share with other tenants, and the merged
        # per-tenant tags could not describe what actually ran.
        raise ValueError(
            f"tenant profiles require the 'tenant' shard policy, got "
            f"{policy.name!r}"
        )
    if spec.default_app is None and any(e.app is None for e in trace.events):
        raise ValueError(
            f"trace {trace.name!r} has events naming no app and the replay "
            f"spec has no default_app (--app on the CLI)"
        )


def observe_cell_metrics(
    metrics: MetricsRegistry, cell: CellResult, resumed: bool = False
) -> None:
    """Fold one cell's facts into the registry.

    Counts the cell (``resumed`` distinguishes journal-restored residues
    from freshly executed replays), bumps the per-tenant request
    counter, and observes each completed request's end-to-end latency
    into the tenant's histogram — the same samples the merged report's
    per-tenant summaries are built from, so scraped quantiles and
    reported quantiles agree over identical windows.
    """
    metrics.counter(
        "repro_cells_resumed_total" if resumed
        else "repro_cells_completed_total"
    ).inc()
    for record in cell.records:
        tenant = cell.tenant_of.get(record.request_id, cell.key)
        metrics.counter("repro_tenant_requests_total", tenant=tenant).inc()
        if record.completed:
            metrics.histogram(
                "repro_tenant_request_latency_seconds", tenant=tenant
            ).observe(record.latency)


@contextmanager
def _frozen_gc():
    """Freeze the parent heap across worker-pool forks.

    On fork start methods, workers inherit every tracked object the
    parent holds; their first full collections then traverse that
    inherited heap — touching reference counts and copy-on-write
    unsharing pages for objects the worker will never free.  With a
    large parent (a server holding earlier runs' merged records, or a
    benchmark that already replayed once in-process) that churn
    dominates small-cell replays.  ``gc.freeze()`` moves the pre-fork
    heap into the permanent generation, which neither parent nor
    children collections walk; the parent unfreezes once the pool is
    gone, returning its own objects to normal collection.
    """
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


#: What an executor yields per cell: its result, or the terminal
#: failure of a cell whose retry budget ran out.
Outcome = Union[CellResult, CellFailure]

#: An executor: given the cells still to run, yield exactly one
#: :data:`Outcome` per cell, in completion order.  The in-process
#: serial fold, the local work-stealing pool, and the remote fleet
#: (``"workers": "remote"`` on ``repro serve``) are the three
#: executors; all of them feed the one fold in :func:`replay`.
Executor = Callable[[List[Cell]], Generator[Outcome, None, None]]

#: One pooled task: ``(cell key, sub-trace, attempt number)``.
_CellTask = Tuple[str, InvocationTrace, int]


def _exhausted(key: str, attempt: int, exc: BaseException) -> CellFailure:
    """The terminal failure of a cell whose last attempt raised ``exc``."""
    return CellFailure(
        key=key,
        kind=classify_failure(exc),
        attempts=attempt,
        message=_failure_message(exc),
    )


#: ``prctl`` option: the signal the kernel sends when the parent dies.
_PR_SET_PDEATHSIG = 1

#: Cell processes fork on Linux, where :func:`_cell_process_init` ties
#: each to its parent; elsewhere the platform's default start method.
_FORK = (
    multiprocessing.get_context("fork")
    if sys.platform.startswith("linux") else None
)


def _cell_process_init(parent_pid: int) -> None:
    """The first thing every cell process runs: exit with its parent.

    A forked worker inherits the parent's signal handlers and a copy of
    its call queue's write end, so after the parent dies it would never
    read EOF, and SIGTERM would run the parent's handler.  SIGTERM gets
    its default action back, and on Linux the kernel SIGKILLs the worker
    when its parent dies (``PR_SET_PDEATHSIG``).  The kernel counts the
    *thread* that forked as the parent, so a pool must not outlive the
    thread that started it.  Spawn-start platforms need neither: their
    workers hold no inherited write end, so they read EOF.

    A forked worker also holds a copy of every file and socket the
    parent had open, and a persistent pool keeps them for the server's
    lifetime: an event log the server later unlinks would keep its disk
    space.  :func:`_drop_inherited_files` lets them go.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if _FORK is not None:
        import ctypes

        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
        if os.getppid() != parent_pid:  # the parent died before the prctl
            os._exit(1)
        _drop_inherited_files()


def _drop_inherited_files() -> None:
    """Point every inherited regular file and socket at ``/dev/null``.

    The worker's own channels are pipes (its call and result queues,
    its sentinel), so they stay.  ``dup2`` rather than ``close`` keeps
    each descriptor number taken: a parent file object the worker still
    holds then writes to ``/dev/null`` instead of to whatever file the
    worker might later open under the same number.
    """
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for name in os.listdir("/proc/self/fd"):
            fd = int(name)
            if fd < 3 or fd == devnull:
                continue
            try:
                mode = os.fstat(fd).st_mode
            except OSError:  # the listing's own, now closed, descriptor
                continue
            if stat.S_ISREG(mode) or stat.S_ISSOCK(mode):
                os.dup2(devnull, fd)
    finally:
        os.close(devnull)


class CellPool:
    """The cell processes one thread replays its local cells on.

    A thin owner around one ``ProcessPoolExecutor``, whose processes run
    :func:`_cell_process_init` first.  :func:`_stream_cells` gets the
    executor from :meth:`get` and swaps a broken one through
    :meth:`replace`.  A per-run pool (``repro replay --workers N``) is
    built and shut down by each fold.  A *persistent* pool — one per
    ``repro serve`` job thread — outlives its runs: :meth:`get` keeps
    the executor while runs ask for the same size, and its fork happens
    with the GC frozen (see :func:`_frozen_gc`), right at the start.
    :meth:`close` stops the processes for good, killing any mid-cell —
    also those of a :meth:`shutdown` still waiting for its cells — and
    makes every later :meth:`get` or :meth:`replace` raise, so a fold
    still running at shutdown cannot start a new pool.
    """

    def __init__(self, persistent: bool = False) -> None:
        self._persistent = persistent
        self._lock = threading.Condition()
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Executors a :meth:`shutdown` is waiting on, outside the lock.
        self._stopping: List[ProcessPoolExecutor] = []
        self._workers = 0
        self._closed = False

    def get(self, workers: int) -> ProcessPoolExecutor:
        """The executor with ``workers`` processes, started if needed."""
        with self._lock:
            if self._executor is None or self._workers != workers:
                self._start(workers)
            return self._executor

    def replace(self) -> ProcessPoolExecutor:
        """A fresh executor of the same size in place of a broken one."""
        with self._lock:
            self._start(self._workers)
            return self._executor

    def _start(self, workers: int) -> None:
        if self._closed:
            raise RuntimeError("cell pool is closed")
        self._stop(self._executor)
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_FORK,
            initializer=_cell_process_init,
            initargs=(os.getpid(),),
        )
        self._workers = workers
        if self._persistent:
            # With the fork start method the first submit forks every
            # process: freeze the heap for that moment only.
            with _frozen_gc():
                self._executor.submit(os.getpid)

    @staticmethod
    def _stop(executor: Optional[ProcessPoolExecutor]) -> None:
        if executor is not None:
            # wait=True joins the processes; it is cheap on a broken
            # pool (its processes are gone) and retires the management
            # thread, so no dead executor machinery lingers.
            executor.shutdown(wait=True, cancel_futures=True)

    def shutdown(self) -> None:
        """Stop the processes once their running cells finish; the next
        :meth:`get` starts new ones."""
        with self._lock:
            executor, self._executor = self._executor, None
            if executor is None:
                return
            self._stopping.append(executor)
        try:
            self._stop(executor)
        finally:
            with self._lock:
                self._stopping.remove(executor)
                self._lock.notify_all()

    def close(self) -> None:
        """Shut down for good, SIGKILLing any process still mid-cell, and
        return once every process is joined."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
            for each in [executor, *self._stopping]:
                if each is not None:
                    # ProcessPoolExecutor gains a public kill only in 3.14.
                    for process in list((each._processes or {}).values()):
                        process.kill()
        self._stop(executor)
        with self._lock:
            # A killed pool's shutdown returns as soon as it sees the
            # processes gone.
            self._lock.wait_for(lambda: not self._stopping)


def _stream_cells(
    cells: List[Cell],
    spec: ReplaySpec,
    workers: int,
    policy: ShardPolicy,
    retry: RetryPolicy,
    fault_plan: Optional[HostFaultPlan],
    metrics: Optional[MetricsRegistry] = None,
    pool: Optional[CellPool] = None,
) -> Generator[Outcome, None, None]:
    """Work-stealing fan-out: one task per cell, yielded as completed.

    Cells submit costliest-first (:meth:`ShardPolicy.cell_cost`, key as
    tie-break) — the LPT heuristic — so a skewed tenant starts
    immediately while the small cells pack around it.  Submission runs
    through a sliding window of ``2 * workers`` outstanding tasks: a
    replacement cell is submitted as each result is consumed, so
    workers never starve while the consumer folds, and — unlike
    submitting everything up front, where every completed-but-unfolded
    future would hold its unpickled records — no more than the window's
    worth of cell results ever exists outside the merge.

    The loop survives worker death: when any future raises
    ``BrokenProcessPool``, every in-flight task is re-derived from the
    future→task map, the dead pool is replaced, and the tasks requeue at
    their next attempt number — results that completed before the crash
    have already been yielded, and re-running the rest is
    byte-identical.  Other exceptions charge only their own cell, which
    retries per ``retry`` until its budget runs out and then yields its
    :class:`CellFailure`.

    The pool has ``workers`` processes, but never more than there are
    cells.  Without ``pool`` the fold builds its own and shuts it down
    at the end, with the parent heap frozen throughout.  A persistent
    ``pool`` (a ``repro serve`` job thread's) also never has more
    processes than the host has CPUs, since they outlive the run and the
    report does not depend on their number.  It stays up for the next
    run — unless the fold ends abnormally: closing the generator early,
    or an exception, shuts the pool down with its queued cells cancelled
    and its worker processes joined, so no busy process passes to the
    next run.
    """
    ordered = sorted(
        cells, key=lambda cell: (-policy.cell_cost(cell[1]), cell[0])
    )
    if not ordered:
        return
    todo: "deque[_CellTask]" = deque(
        (key, cell_trace, 1) for key, cell_trace in ordered
    )
    window = 2 * workers
    initial_fill = min(window, len(ordered))
    submitted = 0
    workers = min(workers, len(ordered))
    if pool is None:
        pool, keep, frozen = CellPool(), False, _frozen_gc()
    else:
        workers = min(workers, os.cpu_count() or 1)
        keep, frozen = True, nullcontext()

    def handle_failure(
        task: _CellTask, exc: BaseException
    ) -> Optional[CellFailure]:
        key, cell_trace, attempt = task
        if attempt < retry.max_attempts:
            todo.append((key, cell_trace, attempt + 1))
            if metrics is not None:
                metrics.counter("repro_cell_retries_total").inc()
            return None
        return _exhausted(key, attempt, exc)

    with frozen:
        executor = pool.get(workers)
        inflight: Dict[object, _CellTask] = {}
        finished = False
        try:
            while todo or inflight:
                while todo and len(inflight) < window:
                    task = todo.popleft()
                    key, cell_trace, attempt = task
                    try:
                        future = executor.submit(
                            _replay_cell_task,
                            spec, key, cell_trace, attempt, retry, fault_plan,
                        )
                    except BrokenProcessPool:
                        # The pool died between completions.  Requeue the
                        # task unconsumed; if futures are in flight the
                        # wait() below observes the crash and charges
                        # them, otherwise just replace the pool.
                        todo.appendleft(task)
                        if inflight:
                            break
                        executor = pool.replace()
                        continue
                    inflight[future] = task
                    submitted += 1
                    # Every submission past the initial window fill is a
                    # steal: a worker that finished early claimed a cell
                    # beyond the LPT window instead of idling behind a
                    # skewed tenant.
                    if submitted > initial_fill and metrics is not None:
                        metrics.counter("repro_cells_stolen_total").inc()
                if not inflight:
                    continue
                done, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
                crashed: List[_CellTask] = []
                broken: Optional[BaseException] = None
                for future in done:
                    task = inflight.pop(future)
                    exc = future.exception()
                    if exc is None:
                        # Yield results that survived before charging
                        # any crash — a completed-but-unfolded result is
                        # still good even when a sibling died.
                        yield future.result()
                    elif isinstance(exc, BrokenProcessPool):
                        broken = exc
                        crashed.append(task)
                    else:
                        failure = handle_failure(task, exc)
                        if failure is not None:
                            yield failure
                if broken is not None:
                    crashed.extend(inflight.values())
                    inflight.clear()
                    if metrics is not None:
                        metrics.counter("repro_worker_crashes_total").inc()
                    executor = pool.replace()
                    for task in crashed:
                        failure = handle_failure(task, broken)
                        if failure is not None:
                            yield failure
            finished = True
        finally:
            if not (keep and finished):
                pool.shutdown()


def _serial_stream(
    cells: List[Cell],
    spec: ReplaySpec,
    retry: RetryPolicy,
    fault_plan: Optional[HostFaultPlan],
    metrics: Optional[MetricsRegistry] = None,
) -> Generator[Outcome, None, None]:
    """The in-process serial executor, with full retry/failure semantics
    (``repro replay`` at one worker; ``repro serve`` never uses it).

    Kill faults raise :class:`~repro.parallel.resilience.\
WorkerCrashError` here instead of SIGKILLing (the plan's parent-pid
    guard), so single-worker replays exercise the same classify → retry
    → degrade path the pool does — and the crash-identity property
    holds at ``workers=1``.
    """
    for key, cell_trace in cells:
        attempt = 1
        while True:
            try:
                outcome: Outcome = _replay_cell_task(
                    spec, key, cell_trace, attempt, retry, fault_plan
                )
            except Exception as exc:
                if metrics is not None and (
                    classify_failure(exc) == "worker-crash"
                ):
                    metrics.counter("repro_worker_crashes_total").inc()
                if attempt < retry.max_attempts:
                    attempt += 1
                    if metrics is not None:
                        metrics.counter("repro_cell_retries_total").inc()
                    continue
                outcome = _exhausted(key, attempt, exc)
            yield outcome
            break


def local_executor(
    spec: ReplaySpec,
    workers: int,
    policy: Union[str, ShardPolicy] = "tenant",
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[HostFaultPlan] = None,
    metrics: Optional[MetricsRegistry] = None,
    pool: Optional[CellPool] = None,
) -> Executor:
    """The executor for ``workers`` local processes.

    Given a persistent ``pool`` (``repro serve``'s job threads), every
    run streams its cells through that pool, resized to ``workers``.
    Without one, one worker (or at most one pending cell) runs the
    in-process serial executor; more run a per-run work-stealing
    process pool.  ``retry``
    (default :class:`RetryPolicy()
    <repro.parallel.resilience.RetryPolicy>`) governs per-cell attempt
    budgets, backoff, and deadlines; ``fault_plan`` deterministically
    injects host faults (tests/chaos harness).  Neither perturbs cell
    seeds, so a run that recovers from every fault stays byte-identical
    to a fault-free run.
    """
    if isinstance(policy, str):
        policy = get_shard_policy(policy)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if retry is None:
        retry = RetryPolicy()
    retry.validate()
    if fault_plan is not None:
        fault_plan.validate()

    def execute(cells: List[Cell]) -> Generator[Outcome, None, None]:
        if pool is None and (workers == 1 or len(cells) <= 1):
            return _serial_stream(cells, spec, retry, fault_plan, metrics)
        return _stream_cells(
            cells, spec, workers, policy, retry, fault_plan, metrics, pool
        )

    return execute


def replay(
    trace: InvocationTrace,
    spec: ReplaySpec,
    execute: Executor,
    policy: Union[str, ShardPolicy] = "tenant",
    on_cell: Optional[Callable[[CellResult], None]] = None,
    completed_cells: Optional[Iterable[CellResult]] = None,
    metrics: Optional[MetricsRegistry] = None,
    on_cell_failure: str = "fail",
) -> ParallelReplayResult:
    """Fold one executor's outcomes into the canonical merged report.

    The single fold every executor shares: validate, pre-fold the
    ``completed_cells`` checkpoint, hand the remaining cells to
    ``execute``, fold each yielded outcome, and finalize.  The merged
    report depends only on ``(trace, spec, policy)`` — never on the
    executor, its worker count, or completion order.

    ``on_cell`` is an observation hook: it runs in the calling thread
    with each :class:`CellResult` immediately after that cell folds
    into the merge, in completion order (which is scheduling-dependent
    under parallelism — observers must not infer order).  The HTTP
    service journals and streams per-cell progress through it.  The
    hook must treat the cell as read-only; an exception it raises
    aborts the replay.

    ``completed_cells`` is the checkpoint/resume entry point: cells
    already replayed (e.g. rebuilt from a durable run journal via
    :meth:`CellResult.from_payload`) fold straight into the merge and
    are *skipped* by the executor — only the remaining cells execute.
    Because per-cell seeds and the canonical merge order are functions
    of (trace, spec, policy) alone, resuming from any subset of
    completed cells produces a report byte-identical to an
    uninterrupted run.  ``on_cell`` fires only for newly executed
    cells, never for pre-folded ones.  A completed cell whose key is
    not a cell of this trace/policy raises ``ValueError`` (the
    checkpoint belongs to a different run).

    ``metrics`` is an optional
    :class:`~repro.metrics.telemetry.MetricsRegistry` the run
    populates as it goes: cells completed/resumed, per-tenant request
    counts and latency histograms, and per-phase wall-clock (also
    recorded on the result's :attr:`~ParallelReplayResult.\
phase_wall_s`).  Telemetry never feeds back into the replay, so the
    merged report stays byte-identical with or without a registry.

    ``on_cell_failure`` picks between aborting on the first exhausted
    cell (``"fail"`` — a :class:`~repro.parallel.resilience.\
CellFailedError`) and degrading the report with a ``failed_cells``
    section (``"skip"``).

    However the fold ends — finished, a failed cell, a raising hook —
    it closes the executor's generator, so a pool shuts down and a
    fleet run releases its queued and leased cells before the call
    returns, and the record sink removes any spill files on error.
    """
    t_prepare = time.perf_counter()
    if isinstance(policy, str):
        policy = get_shard_policy(policy)
    _validate(trace, spec, policy)
    if on_cell_failure not in ON_CELL_FAILURE_MODES:
        raise ValueError(
            f"on_cell_failure must be one of {list(ON_CELL_FAILURE_MODES)}, "
            f"got {on_cell_failure!r}"
        )
    failures: List[CellFailure] = []
    merge = StreamingMerge(trace, spec)
    try:
        cells = policy.split(trace)
        resumed: set = set()
        for cell in completed_cells or ():
            merge.add(cell)  # a duplicate key raises here
            resumed.add(cell.key)
            if metrics is not None:
                observe_cell_metrics(metrics, cell, resumed=True)
        unknown = sorted(resumed - {key for key, _ in cells})
        if unknown:
            raise ValueError(
                f"completed cells {unknown} are not cells of this "
                f"trace under the {policy.name!r} policy"
            )
        start = time.perf_counter()
        prepare_s = start - t_prepare
        outcomes = execute([cell for cell in cells if cell[0] not in resumed])
        try:
            for outcome in outcomes:
                if isinstance(outcome, CellFailure):
                    if on_cell_failure == "fail":
                        raise CellFailedError(outcome)
                    failures.append(outcome)
                    continue
                merge.add(outcome)
                if metrics is not None:
                    observe_cell_metrics(metrics, outcome)
                if on_cell is not None:
                    on_cell(outcome)
        finally:
            outcomes.close()
        wall_s = time.perf_counter() - start
        t_finalize = time.perf_counter()
        merged = merge.finalize()
    except BaseException:
        # The sink may hold scratch state (spilled NDJSON run files); a
        # failed replay must not leak it — retries and subsequent runs
        # would accumulate orphan runs otherwise.
        merge.sink.close()
        raise
    merged.failed_cells = sorted(failures, key=lambda failure: failure.key)
    finalize_s = time.perf_counter() - t_finalize
    merged.policy_name = policy.name
    merged.wall_s = wall_s
    merged.phase_wall_s = {
        "prepare": prepare_s,
        "execute": wall_s,
        "finalize": finalize_s,
    }
    if metrics is not None:
        for phase, seconds in merged.phase_wall_s.items():
            metrics.histogram("repro_run_phase_seconds", phase=phase).observe(
                seconds
            )
        if merge.sink.spilled_records:
            metrics.counter("repro_records_spilled_total").inc(
                merge.sink.spilled_records
            )
    merged.rss_mb = max_rss_mb()
    return merged


def run_parallel_replay(
    trace: InvocationTrace,
    spec: ReplaySpec,
    shards: int = 1,
    workers: Optional[int] = None,
    policy: Union[str, ShardPolicy] = "tenant",
    on_cell: Optional[Callable[[CellResult], None]] = None,
    completed_cells: Optional[Iterable[CellResult]] = None,
    metrics: Optional[MetricsRegistry] = None,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[HostFaultPlan] = None,
    on_cell_failure: str = "fail",
) -> ParallelReplayResult:
    """Replay a trace on ``workers`` local processes and merge the results.

    :func:`replay` over :func:`local_executor`: at one worker the cells
    replay in-process, serially; at more, ``workers`` processes pull
    cells from a longest-first queue and results fold into the merge as
    they complete.  ``workers`` defaults to ``min(shards, cpu_count)``
    — ``shards`` means nothing else.  ``on_cell``, ``completed_cells``,
    ``metrics``, and ``on_cell_failure`` are :func:`replay`'s;
    ``retry`` and ``fault_plan`` are :func:`local_executor`'s.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if workers is None:
        workers = min(shards, os.cpu_count() or 1)
    execute = local_executor(spec, workers, policy, retry, fault_plan, metrics)
    result = replay(
        trace, spec, execute, policy, on_cell, completed_cells, metrics,
        on_cell_failure,
    )
    result.workers = workers
    return result
