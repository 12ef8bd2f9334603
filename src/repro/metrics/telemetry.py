"""The live telemetry layer: versioned event schema + metrics registry.

Two halves, one module, because they share a vocabulary:

**Events.**  Every line the service streams over ``GET
/v1/runs/<id>/events`` is one :func:`event_envelope` — ``event`` (the
kind), ``v`` (:data:`SCHEMA_VERSION`), ``seq`` (monotonic per run,
*including across journal resume*), then the kind's body fields in
sorted order.  :data:`EVENT_SCHEMAS` is the authoritative field-level
schema for every kind the engine and :class:`~repro.serve.jobs.JobStore`
can emit; :func:`validate_event` rejects anything that drifts — unknown
kinds, wrong schema version, missing or mistyped fields, undeclared
extras.  The streaming client (:mod:`repro.serve.client`) validates by
default, and ``tools/check_docs.py`` fails CI unless every kind is
documented in ``docs/observability.md``.

**Metrics.**  :class:`MetricsRegistry` is a lightweight in-process
registry — :class:`Counter`, :class:`Gauge`, :class:`Histogram` — that
the replay engine and job store populate and ``GET
/metrics`` exposes in Prometheus text format.  Histograms retain exact
samples and report interpolated quantiles through the single
:func:`~repro.metrics.stats.percentile_sorted` implementation (exposed
as a Prometheus ``summary``: exact quantiles, not bucketed
approximations).  :data:`METRICS` names every metric the reproduction
exports, with type and help text; undeclared names are rejected so the
``/metrics`` surface cannot grow undocumented.

Stdlib only, deliberately: the registry is a dict and a lock, not a
client-library dependency.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from .stats import percentile_sorted

__all__ = [
    "Counter",
    "EVENT_SCHEMAS",
    "Gauge",
    "Histogram",
    "METRICS",
    "MetricsRegistry",
    "SCHEMA_VERSION",
    "SchemaError",
    "event_envelope",
    "event_kinds",
    "metric_names",
    "validate_event",
]

#: Version stamp every event envelope carries (the ``v`` field).  Bumped
#: whenever a kind is added/removed or a field changes shape, so NDJSON
#: consumers detect schema changes without sniffing field sets.
#: History: 1 = the ad-hoc PR-5 envelope (cell/report/error only);
#: 2 = this module: typed progress/counter/gauge events, per-cell
#: latency stats, seq monotonic across journal resume;
#: 3 = the ``degraded`` terminal kind (a run that finished with a
#: non-empty ``failed_cells`` section under ``on_cell_failure=skip``);
#: 4 = the remote worker fleet: ``lease`` and ``lease_expired`` kinds
#: (cell leases granted to / reclaimed from ``repro worker`` processes
#: under ``workers="remote"``);
#: 5 = the event log is the run's journal: ``queued`` carries the
#: submitted body (``payload``) and ``cells``, each ``cell`` carries its
#: ``identity`` token and ``result`` residue, and ``cell`` loses
#: ``resumed`` (recovery no longer re-appends cells).
SCHEMA_VERSION = 5


class SchemaError(ValueError):
    """An event envelope that does not conform to the telemetry schema."""


# -- the event envelope -------------------------------------------------------


def event_envelope(kind: str, body: dict, seq: Optional[int] = None) -> dict:
    """A stable JSON event envelope for streamed progress records.

    The envelope fixes the leading keys — ``event`` (the kind), ``v``
    (:data:`SCHEMA_VERSION`), and ``seq`` when given — and sorts the
    body's keys, so the serialized line for a given event is byte-stable
    across producers and Python versions.
    """
    envelope: dict = {"event": kind, "v": SCHEMA_VERSION}
    if seq is not None:
        envelope["seq"] = seq
    for key in sorted(body):
        if key in envelope:
            raise ValueError(f"event body may not override envelope key {key!r}")
        envelope[key] = body[key]
    return envelope


#: Sentinel types for field specs (JSON-level types, bool excluded from
#: the numeric kinds because ``isinstance(True, int)`` holds in Python).
_STR = ("str",)
_INT = ("int",)
_NUM = ("int", "float")
_DICT = ("dict",)

_TYPE_OF = {"str": str, "int": int, "float": float, "dict": dict}


def _check_type(value: object, spec: Tuple[str, ...]) -> bool:
    if isinstance(value, bool):  # bool is not an accepted JSON number here
        return False
    return isinstance(value, tuple(_TYPE_OF[name] for name in spec))


#: kind -> {field: (accepted types, required)}.  The authoritative
#: schema for every event the engine and job store can emit; every body
#: field must be declared here (undeclared extras fail validation).
EVENT_SCHEMAS: Dict[str, Dict[str, Tuple[Tuple[str, ...], bool]]] = {
    # lifecycle
    "queued": {
        "run_id": (_STR, True),
        "request": (_DICT, True),
        "cells": (_INT, True),
        "payload": (_DICT, False),
    },
    "running": {"run_id": (_STR, True)},
    "recovered": {"run_id": (_STR, True), "cells_journaled": (_INT, True)},
    "interrupted": {"run_id": (_STR, True)},
    # per-cell progress (one per folded cell, scheduling-ordered)
    "cell": {
        "run_id": (_STR, True),
        "cell": (_STR, True),
        "offered": (_INT, True),
        "completed": (_INT, True),
        "failed": (_INT, True),
        "wall_s": (_NUM, True),
        "latency": (_DICT, False),
        "identity": (_STR, True),
        "result": (_DICT, True),
    },
    # run-level progress after every cell event
    "progress": {
        "run_id": (_STR, True),
        "cells_done": (_INT, True),
        "cells_total": (_INT, True),
        "offered": (_INT, True),
        "completed": (_INT, True),
        "failed": (_INT, True),
    },
    # typed instruments mirrored onto the stream
    "counter": {
        "run_id": (_STR, True),
        "name": (_STR, True),
        "value": (_INT, True),
        "labels": (_DICT, False),
    },
    "gauge": {
        "run_id": (_STR, True),
        "name": (_STR, True),
        "value": (_NUM, True),
        "labels": (_DICT, False),
    },
    # remote worker fleet (workers="remote"): a cell lease granted to a
    # worker, and a lease reclaimed after its deadline passed
    "lease": {
        "run_id": (_STR, True),
        "cell": (_STR, True),
        "worker": (_STR, True),
        "attempt": (_INT, True),
    },
    "lease_expired": {
        "run_id": (_STR, True),
        "cell": (_STR, True),
        "worker": (_STR, True),
        "attempt": (_INT, True),
        "requeued": (("bool",), True),
    },
    # terminal payloads
    "report": {"run_id": (_STR, True), "report": (_DICT, True)},
    # terminal for a run that completed but skipped failed cells: the
    # report's replay.failed_cells is non-empty (docs/robustness.md)
    "degraded": {
        "run_id": (_STR, True),
        "report": (_DICT, True),
        "failed_cells": (_INT, True),
    },
    "error": {"run_id": (_STR, True), "message": (_STR, True)},
}

_ENVELOPE_KEYS = ("event", "v", "seq")


def event_kinds() -> List[str]:
    """Every event kind the schema declares, sorted."""
    return sorted(EVENT_SCHEMAS)


def validate_event(envelope: object) -> dict:
    """Check one envelope against the versioned schema.

    Returns the envelope (for chaining) or raises :class:`SchemaError`
    naming exactly what is wrong: not a dict, unknown kind, wrong
    ``v``, missing/mistyped ``seq``, a missing required field, a
    mistyped field, or an undeclared body field.
    """
    if not isinstance(envelope, dict):
        raise SchemaError(
            f"event must be a JSON object, got {type(envelope).__name__}"
        )
    kind = envelope.get("event")
    if kind not in EVENT_SCHEMAS:
        raise SchemaError(
            f"unknown event kind {kind!r}; expected one of {event_kinds()}"
        )
    if envelope.get("v") != SCHEMA_VERSION:
        raise SchemaError(
            f"{kind!r} event carries schema version {envelope.get('v')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    seq = envelope.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise SchemaError(f"{kind!r} event needs an integer seq >= 0, got {seq!r}")
    fields = EVENT_SCHEMAS[kind]
    for name, (types, required) in fields.items():
        if name not in envelope:
            if required:
                raise SchemaError(f"{kind!r} event is missing field {name!r}")
            continue
        value = envelope[name]
        if "bool" in types:
            if not isinstance(value, bool):
                raise SchemaError(
                    f"{kind!r} event field {name!r} must be a bool, "
                    f"got {type(value).__name__}"
                )
        elif not _check_type(value, types):
            raise SchemaError(
                f"{kind!r} event field {name!r} must be {' or '.join(types)}, "
                f"got {type(value).__name__} ({value!r})"
            )
    extras = sorted(set(envelope) - set(fields) - set(_ENVELOPE_KEYS))
    if extras:
        raise SchemaError(
            f"{kind!r} event carries undeclared fields {extras}"
        )
    return envelope


# -- metrics instruments ------------------------------------------------------


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        self.value += amount


class Gauge:
    """A value that can go up and down (occupancy, queue depth)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Exact sample-retaining distribution with interpolated quantiles.

    Samples accumulate unsorted; quantiles sort lazily on read through
    the one :func:`~repro.metrics.stats.percentile_sorted`
    implementation — the same interpolation the replay reports use, so
    a scraped p99 and a reported p99 over the same samples are equal to
    the last bit.  Exposed over ``/metrics`` as a Prometheus ``summary``
    (exact quantiles), not a bucketed histogram approximation.
    """

    __slots__ = ("_samples", "_sorted", "sum")

    QUANTILES = (50.0, 90.0, 99.0)

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._sorted = True
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self._samples.append(float(value))
        self._sorted = False
        self.sum += value

    @property
    def count(self) -> int:
        return len(self._samples)

    def quantile(self, q: float) -> float:
        if not self._samples:
            raise ValueError("quantile of an empty histogram")
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return percentile_sorted(self._samples, q)


#: Every metric the reproduction exports: name -> (type, help).  The
#: registry rejects undeclared names, and ``tools/check_docs.py`` fails
#: CI unless each name appears in ``docs/observability.md`` — the
#: ``/metrics`` surface is documented by construction.
METRICS: Dict[str, Tuple[str, str]] = {
    "repro_cells_completed_total": (
        "counter", "Trace cells replayed to completion by the engine"),
    "repro_cells_resumed_total": (
        "counter",
        "Journal-checkpointed cells folded back without re-execution"),
    "repro_cells_stolen_total": (
        "counter",
        "Cells pulled by idle workers beyond the initial scheduling "
        "window (work stealing)"),
    "repro_cell_retries_total": (
        "counter",
        "Cell attempts re-queued after a failed attempt (retry policy)"),
    "repro_worker_crashes_total": (
        "counter",
        "Worker-process deaths the engine recovered from by rebuilding "
        "the pool and resubmitting in-flight cells"),
    "repro_runs_rejected_total": (
        "counter",
        "Run submissions rejected by admission control, labeled by "
        "reason (queue_full or tenant_quota)"),
    "repro_records_spilled_total": (
        "counter",
        "Request records written to disk-spill run files by the "
        "spilling record sink"),
    "repro_tenant_requests_total": (
        "counter", "Workflow invocations replayed, labeled by tenant"),
    "repro_tenant_request_latency_seconds": (
        "histogram",
        "End-to-end latency of completed invocations, labeled by tenant"),
    "repro_run_phase_seconds": (
        "histogram",
        "Per-run wall-clock spent in each engine phase "
        "(prepare/execute/finalize), labeled by phase"),
    "repro_runs_total": (
        "counter",
        "Runs that reached a terminal state, labeled by status"),
    "repro_jobs_inflight": (
        "gauge", "Jobs currently executing on the worker pool"),
    "repro_jobs_queued": (
        "gauge", "Jobs accepted but not yet picked up by a worker"),
    "repro_job_workers": (
        "gauge", "Job worker threads serving the run queue"),
    "repro_journal_fsyncs_total": (
        "counter",
        "Durable event-log appends (write+flush+fsync) under a journal"),
    "repro_workers_registered": (
        "gauge", "Remote workers currently registered with the control "
        "plane (heartbeats fresh)"),
    "repro_workers_evicted_total": (
        "counter",
        "Remote workers evicted after missing their heartbeat deadline"),
    "repro_leases_granted_total": (
        "counter", "Cell leases handed to remote workers"),
    "repro_leases_expired_total": (
        "counter",
        "Cell leases reclaimed because the deadline passed without a "
        "result"),
    "repro_lease_results_total": (
        "counter",
        "Lease outcomes delivered by remote workers, labeled by status "
        "(ok, error, or stale)"),
}


def metric_names() -> List[str]:
    """Every declared metric name, sorted (docs-coverage surface)."""
    return sorted(METRICS)


LabelPairs = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> LabelPairs:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(pairs: LabelPairs, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    items = pairs + extra
    if not items:
        return ""
    body = ",".join(
        '{}="{}"'.format(
            key,
            value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n"),
        )
        for key, value in items
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """Thread-safe home of every instrument one process exports.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the same
    (name, labels) pair always returns the same instrument, so callers
    hold no references and never race on creation.  Names must be
    declared in :data:`METRICS` with the matching type — an undeclared
    or re-typed name raises immediately, keeping the ``/metrics``
    surface equal to the documented one.

    A registry is cheap; the service owns one per
    :class:`~repro.serve.jobs.JobStore` and the CLI may pass its own to
    :func:`~repro.parallel.engine.run_parallel_replay`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Dict[LabelPairs, object]] = {}

    def _get(self, name: str, kind: str, labels: Mapping[str, str], factory):
        declared = METRICS.get(name)
        if declared is None:
            raise ValueError(
                f"undeclared metric {name!r}; declare it in "
                f"repro.metrics.telemetry.METRICS"
            )
        if declared[0] != kind:
            raise ValueError(
                f"metric {name!r} is declared as a {declared[0]}, not a {kind}"
            )
        key = _label_key(labels)
        with self._lock:
            series = self._metrics.setdefault(name, {})
            instrument = series.get(key)
            if instrument is None:
                instrument = series[key] = factory()
            return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(name, "counter", labels, Counter)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(name, "gauge", labels, Gauge)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get(name, "histogram", labels, Histogram)

    # -- reading --------------------------------------------------------------

    def counter_total(self, name: str) -> int:
        """Sum of one counter across all label sets (0 when unused)."""
        with self._lock:
            series = self._metrics.get(name, {})
            return sum(c.value for c in series.values())  # type: ignore[union-attr]

    def snapshot(self) -> Dict[str, Dict[LabelPairs, float]]:
        """Plain numbers for tests: counters/gauges by (name, labels)."""
        out: Dict[str, Dict[LabelPairs, float]] = {}
        with self._lock:
            for name, series in self._metrics.items():
                kind = METRICS[name][0]
                if kind == "histogram":
                    out[name] = {
                        key: float(h.count)  # type: ignore[union-attr]
                        for key, h in series.items()
                    }
                else:
                    out[name] = {
                        key: float(i.value)  # type: ignore[union-attr]
                        for key, i in series.items()
                    }
        return out

    def _lines(self) -> Iterator[str]:
        with self._lock:
            items = {
                name: dict(series) for name, series in self._metrics.items()
            }
        for name in sorted(items):
            kind, help_text = METRICS[name]
            yield f"# HELP {name} {help_text}"
            # Exact-quantile histograms expose as Prometheus summaries.
            yield f"# TYPE {name} {'summary' if kind == 'histogram' else kind}"
            for key in sorted(items[name]):
                instrument = items[name][key]
                if kind == "histogram":
                    hist: Histogram = instrument  # type: ignore[assignment]
                    if hist.count:
                        for q in Histogram.QUANTILES:
                            yield (
                                f"{name}{_render_labels(key, (('quantile', repr(q / 100.0)),))} "
                                f"{_format_value(hist.quantile(q))}"
                            )
                    yield f"{name}_sum{_render_labels(key)} {_format_value(hist.sum)}"
                    yield f"{name}_count{_render_labels(key)} {hist.count}"
                else:
                    value = instrument.value  # type: ignore[union-attr]
                    yield f"{name}{_render_labels(key)} {_format_value(float(value))}"

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format.

        Deterministic: metric families sort by name, series by label
        pairs.  Families with no series yet are simply absent — scrape
        targets treat a missing series as zero.
        """
        return "\n".join(self._lines()) + "\n"
