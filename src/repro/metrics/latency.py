"""Request and task records: the raw material of every experiment."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .stats import mean, percentile_sorted, stddev


@dataclass
class TaskRecord:
    """Timing of one function invocation within one request.

    Fields follow the paper's Figure 13 timeline semantics:

    ``ready_time``
        When the task *could* run (all control/data dependencies met).
    ``trigger_time``
        When the scheduler actually dispatched it — the gap to
        ``ready_time`` is the triggering overhead of Figure 2(c).
    ``exec_start`` / ``exec_end``
        The container-resident window (includes Get/compute/Put for
        control-flow systems; fetch+compute for DataFlower).
    ``get_s`` / ``compute_s`` / ``put_s``
        The Figure 2(a) breakdown components.
    """

    task_id: str
    function: str
    node: str = ""
    ready_time: float = 0.0
    trigger_time: float = 0.0
    exec_start: float = 0.0
    exec_end: float = 0.0
    get_s: float = 0.0
    compute_s: float = 0.0
    put_s: float = 0.0
    cold_start: bool = False
    retries: int = 0

    @property
    def trigger_overhead(self) -> float:
        return max(self.trigger_time - self.ready_time, 0.0)

    @property
    def comm_s(self) -> float:
        return self.get_s + self.put_s


@dataclass
class RequestRecord:
    """Timing and outcome of one workflow invocation."""

    request_id: str
    workflow: str
    submit_time: float
    end_time: Optional[float] = None
    failed: bool = False
    error: Optional[str] = None
    tasks: List[TaskRecord] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return self.end_time is not None and not self.failed

    @property
    def latency(self) -> float:
        if self.end_time is None:
            raise ValueError(f"request {self.request_id} has not completed")
        return self.end_time - self.submit_time

    def task(self, task_id: str) -> TaskRecord:
        for record in self.tasks:
            if record.task_id == task_id:
                return record
        raise KeyError(task_id)

    def row(self) -> "RequestRow":
        """This request without its task timeline."""
        return RequestRow(
            self.submit_time,
            self.request_id,
            self.workflow,
            self.end_time,
            self.failed,
            self.error,
        )


class RequestRow(NamedTuple):
    """What a report reads of one request: the form a replay cell
    returns, and that the journal, spill files and ``/records`` pages
    carry.

    The leading ``(submit_time, request_id)`` pair is the canonical
    merge key and is unique (request ids are cell-qualified), so rows
    sort and merge as plain tuples.  The JSON form is ``row._asdict()``.
    """

    submit_time: float
    request_id: str
    workflow: str
    end_time: Optional[float]
    failed: bool
    error: Optional[str]

    @property
    def completed(self) -> bool:
        return self.end_time is not None and not self.failed

    @property
    def latency(self) -> float:
        if self.end_time is None:
            raise ValueError(f"request {self.request_id} has not completed")
        return self.end_time - self.submit_time

    @classmethod
    def from_payload(cls, payload: dict) -> "RequestRow":
        """Rebuild a row from its JSON form; other keys (the ``tasks``
        timeline of older payloads) are ignored."""
        return cls(*[payload[name] for name in cls._fields])


class LatencySummary:
    """Aggregate latency statistics over completed requests.

    A summary retains its underlying samples (excluded from reports and
    equality), which makes summaries *mergeable*: :meth:`fold` over
    several summaries equals :meth:`from_latencies` on their
    concatenated samples exactly, so sharded runs can combine per-shard
    summaries without losing the percentiles.

    Statistics are **exact but lazy**: computed on the first read of any
    statistic, not at construction or fold time.  A replay that folds
    thousands of per-cell summaries therefore pays one sort at first
    read, not one per fold — and the values are byte-identical to an
    eager computation: means and σ sum the samples in their original
    record order, percentiles interpolate over the sorted samples.
    """

    __slots__ = ("_samples", "_stats")

    #: Report schema, in serialization order (mirrors the former
    #: dataclass field order so JSON output is unchanged).
    _STAT_FIELDS = ("count", "mean_s", "p50_s", "p99_s", "sigma_s", "max_s")

    def __init__(self, samples: Iterable[float]) -> None:
        self._samples = tuple(samples)
        if not self._samples:
            raise ValueError("no completed requests to summarize")
        self._stats: Optional[tuple] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_latencies(cls, latencies: Sequence[float]) -> "LatencySummary":
        return cls(latencies)

    @classmethod
    def from_records(cls, records: List[RequestRecord]) -> "LatencySummary":
        return cls.from_latencies(
            [r.latency for r in records if r.completed]
        )

    @classmethod
    def fold(cls, summaries: Iterable["LatencySummary"]) -> "LatencySummary":
        """Merge summaries into the summary of their concatenated
        samples, in the order given, with one O(total) concatenation.

        The streaming replay merge folds per-cell summaries in
        sorted-cell-key order through this, so even the float-summation
        order of the merged statistics is deterministic.
        """
        parts = list(summaries)
        if not parts:
            raise ValueError("fold of no summaries")
        for part in parts:
            if not isinstance(part, LatencySummary):
                raise TypeError(
                    f"cannot merge LatencySummary with {type(part).__name__}"
                )
        if len(parts) == 1:
            return parts[0]
        return cls(chain.from_iterable(p._samples for p in parts))

    # -- lazy materialization ------------------------------------------------

    def _materialize(self) -> tuple:
        if self._stats is None:
            samples = self._samples
            ordered = sorted(samples)
            self._stats = (
                len(samples),
                mean(samples),
                percentile_sorted(ordered, 50),
                percentile_sorted(ordered, 99.0),
                stddev(samples),
                ordered[-1],
            )
        return self._stats

    @property
    def count(self) -> int:
        return self._materialize()[0]

    @property
    def mean_s(self) -> float:
        return self._materialize()[1]

    @property
    def p50_s(self) -> float:
        return self._materialize()[2]

    @property
    def p99_s(self) -> float:
        return self._materialize()[3]

    @property
    def sigma_s(self) -> float:
        return self._materialize()[4]

    @property
    def max_s(self) -> float:
        return self._materialize()[5]

    @property
    def samples(self) -> Tuple[float, ...]:
        """Latencies the summary was computed from, in record order.
        Carried so summaries fold exactly; excluded from reports and
        from ``==`` so the JSON schema and comparisons match the plain
        six-field summary."""
        return self._samples

    def report_dict(self) -> dict:
        """The six-statistic report mapping (samples excluded); the
        serialization :func:`repro.metrics.report.summary_to_dict`
        emits."""
        return dict(zip(self._STAT_FIELDS, self._materialize()))

    # -- comparison / presentation -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencySummary):
            return NotImplemented
        return self._materialize() == other._materialize()

    __hash__ = None  # type: ignore[assignment]  # mutable cache, like eq dataclass

    def __repr__(self) -> str:
        stats = self.report_dict()
        body = ", ".join(f"{k}={v!r}" for k, v in stats.items())
        return f"LatencySummary({body})"

    # -- pickling (slots) ----------------------------------------------------

    def __getstate__(self) -> tuple:
        return (self._samples, self._stats)

    def __setstate__(self, state: tuple) -> None:
        self._samples, self._stats = state
