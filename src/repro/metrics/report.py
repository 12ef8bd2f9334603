"""Report rendering: fixed-width tables, JSON serialization, and the
one builder of a run's report body.

Every experiment module prints its figure/table through these helpers so
`python -m repro.experiments <id>` output is uniform and diffable; the
CLI's ``--format json`` path serializes the same summaries through
:func:`summary_to_dict` / :func:`render_json`.  Every run report —
``repro run``, a trace replay, a merged (possibly disk-spilled) replay —
gets its record-derived body from :class:`RecordAggregate`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Union,
)

from .latency import LatencySummary

if TYPE_CHECKING:  # pragma: no cover
    from .latency import RequestRecord, RequestRow
    from .usage import UsageSummary


def format_cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "fail"
        magnitude = abs(value)
        if magnitude >= 1000 or (magnitude < 0.01 and magnitude > 0):
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".") or "0"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table."""
    cells = [[format_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(items: Sequence[str]) -> str:
        return "  ".join(item.ljust(widths[i]) for i, item in enumerate(items)).rstrip()

    parts: List[str] = []
    if title:
        parts.append(title)
        parts.append("=" * len(title))
    parts.append(line(list(headers)))
    parts.append(line(["-" * w for w in widths]))
    parts.extend(line(row) for row in cells)
    return "\n".join(parts)


def summary_to_dict(summary: Any) -> dict:
    """A metrics summary (LatencySummary, UsageSummary, ...) as a dict.

    Summaries are either dataclasses (fields whose metadata carries
    ``report=False`` are left out) or expose a ``report_dict()`` method
    naming their reportable statistics (e.g. the lazily materialized
    :class:`~repro.metrics.latency.LatencySummary`, whose retained
    samples stay out of reports).  Non-finite values (e.g. per-request
    usage with zero completions) become ``None`` so the result is
    strict-JSON serializable.
    """
    if hasattr(summary, "report_dict"):
        out = summary.report_dict()
    elif dataclasses.is_dataclass(summary) and not isinstance(summary, type):
        out = {}
        for spec in dataclasses.fields(summary):
            if not spec.metadata.get("report", True):
                continue
            out[spec.name] = getattr(summary, spec.name)
    else:
        raise TypeError(
            f"expected a dataclass or report_dict() summary, got "
            f"{type(summary).__name__}"
        )
    for key, value in out.items():
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            out[key] = summary_to_dict(value)
        elif isinstance(value, float) and not math.isfinite(value):
            out[key] = None
    return out


class _Group:
    """Offered count plus completed latencies (observation order) for
    one tenant or workflow breakdown row."""

    __slots__ = ("offered", "latencies")

    def __init__(self) -> None:
        self.offered = 0
        self.latencies: List[float] = []


class RecordAggregate:
    """Everything a report derives from records, folded in one pass.

    Callers observe records in their canonical order — a run's own
    submission order, or a replay's merged ``(submit_time,
    request_id)`` order — so each group's latency samples, and
    therefore the float-summation order inside
    :class:`~repro.metrics.latency.LatencySummary`, match a scan of the
    record list bit for bit.  This is what lets a spilled replay render
    its report without ever holding the records.
    """

    __slots__ = ("total", "completed", "failed", "tenants", "workflows")

    def __init__(self) -> None:
        self.total = 0
        self.completed = 0
        self.failed = 0
        self.tenants: Dict[str, _Group] = {}
        self.workflows: Dict[str, _Group] = {}

    @classmethod
    def of_records(
        cls,
        records: Iterable["RequestRecord"],
        tenant_of: Optional[Dict[str, str]] = None,
    ) -> "RecordAggregate":
        """Observe ``records`` in order; requests missing from
        ``tenant_of`` count under the ``"default"`` tenant."""
        aggregate = cls()
        tenant_of = tenant_of or {}
        for record in records:
            aggregate.observe_record(record, tenant_of)
        return aggregate

    def observe_record(
        self,
        record: Union["RequestRecord", "RequestRow"],
        tenant_of: Dict[str, str],
    ) -> None:
        """Count one request, read by attribute, under its tenant
        (``"default"`` when ``tenant_of`` lacks it) and workflow."""
        self.total += 1
        tenant = tenant_of.get(record.request_id, "default")
        tenant_group = self.tenants.get(tenant)
        if tenant_group is None:
            tenant_group = self.tenants[tenant] = _Group()
        workflow_group = self.workflows.get(record.workflow)
        if workflow_group is None:
            workflow_group = self.workflows[record.workflow] = _Group()
        tenant_group.offered += 1
        workflow_group.offered += 1
        end_time = record.end_time
        if end_time is not None and not record.failed:
            self.completed += 1
            latency = end_time - record.submit_time
            tenant_group.latencies.append(latency)
            workflow_group.latencies.append(latency)
        elif record.failed:
            self.failed += 1

    def workflow_names(self) -> List[str]:
        return sorted(self.workflows)

    def report_body(
        self,
        system: str,
        workflow: str,
        duration_s: float,
        offered: int,
        latency: Optional[LatencySummary],
        usage: Optional["UsageSummary"],
    ) -> dict:
        """The base report: run identity, offered/completed/failed
        counts, throughput, ``latency`` (``None`` when nothing
        completed) and ``usage`` (integrals plus per-request values,
        ``None`` where nothing completed).

        ``latency`` is the caller's summary of all completed requests —
        a run's own, or a replay's per-cell summaries folded in
        cell-key order — so its samples keep the caller's order; the
        caller passes ``None`` when nothing completed.
        """
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
            "latency": None if latency is None else summary_to_dict(latency),
            "usage": None,
        }
        if usage is not None:
            usage_dict = summary_to_dict(usage)
            for name in ("memory_gbs_per_request", "cache_mbs_per_request"):
                per_request = getattr(usage, name)
                usage_dict[name] = (
                    None if per_request != per_request else per_request
                )
            payload["usage"] = usage_dict
        return payload

    def breakdowns(self) -> dict:
        """The ``tenants`` and ``workflows`` sections of a trace report:
        offered, completed and latency per group, sorted by name."""
        return {
            "tenants": self._breakdown(self.tenants),
            "workflows": self._breakdown(self.workflows),
        }

    @staticmethod
    def _breakdown(groups: Dict[str, _Group]) -> dict:
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


def tag_tenant_profiles(payload: dict, profiles: dict) -> dict:
    """Annotate a report's per-tenant sections with resolved profiles.

    Heterogeneous replays (``--tenant-config``) attach each tenant's
    resolved profile tag — system, placement, source layer — to its
    ``tenants`` section so mixed-system runs stay auditable.  Tenants
    absent from the report (no records) are skipped; the payload is
    returned for chaining.
    """
    tenants = payload.get("tenants") or {}
    for tenant, tag in profiles.items():
        if tenant in tenants:
            tenants[tenant]["profile"] = dict(tag)
    return payload


# The envelope and its schema live in :mod:`repro.metrics.telemetry`
# (the versioned telemetry layer); re-exported here because rendering
# and the envelope grew up together and callers import both from one
# place.  ``EVENT_SCHEMA_VERSION`` is the historical alias of
# :data:`~repro.metrics.telemetry.SCHEMA_VERSION`.
from .telemetry import SCHEMA_VERSION as EVENT_SCHEMA_VERSION  # noqa: E402
from .telemetry import event_envelope  # noqa: E402, F401


def render_event(envelope: dict) -> str:
    """Serialize one event envelope as a compact single NDJSON line.

    Same strict-JSON rules as :func:`render_json` (NaN/inf become
    null, summaries serialize through :func:`summary_to_dict`), but
    compact separators and no indentation — one event, one line.
    """
    text = render_json(envelope, indent=None)
    if "\n" in text:  # pragma: no cover - json.dumps never wraps here
        raise ValueError("event envelope serialized to multiple lines")
    return text


def render_json(payload: Any, indent: Optional[int] = 2) -> str:
    """Serialize a report payload as strict JSON (NaN/inf become null)."""

    def default(value: Any) -> Any:
        if hasattr(value, "report_dict") or (
            dataclasses.is_dataclass(value) and not isinstance(value, type)
        ):
            return summary_to_dict(value)
        raise TypeError(
            f"{type(value).__name__} is not JSON serializable"
        )

    def sanitize(value: Any) -> Any:
        if isinstance(value, float) and not math.isfinite(value):
            return None
        if isinstance(value, dict):
            return {k: sanitize(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [sanitize(v) for v in value]
        return value

    separators = (",", ":") if indent is None else None
    return json.dumps(
        sanitize(payload), indent=indent, separators=separators, default=default
    )
