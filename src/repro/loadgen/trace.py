"""Trace-driven load generation: Azure-Functions-style invocation replay.

Production serverless traffic is not a constant rate: many tenants share
a platform, each invoking its own workflow at its own (heavy-tailed)
rate with its own input sizes.  This module models that as an
:class:`InvocationTrace` — a time-ordered list of :class:`TraceEvent`
records carrying per-tenant arrival timestamps and request shapes — and
replays it against any :class:`~repro.systems.base.WorkflowSystem` with
:func:`run_trace`, the open-loop pattern generalized to mixed workflows.

Traces load from JSON (a list of event objects, or ``{"name": ...,
"events": [...]}``) or CSV (header ``at_s,tenant,app,input_bytes,fanout,
seed``; only ``at_s`` is required).  Input sizes accept ``4MB``-style
suffixes.  :func:`synthesize_trace` generates a deterministic multi-tenant
trace in the Azure-trace spirit: per-tenant Poisson arrivals with
lognormally skewed rates, so a few tenants dominate the load.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..metrics.latency import LatencySummary, RequestRecord
from ..metrics.report import RecordAggregate
from ..metrics.usage import collect_usage
from ..systems.base import WorkflowSystem
from ..workflow.dsl import parse_size
from ..workflow.instance import RequestSpec
from .runner import DEFAULT_TIMEOUT_S, RunResult, _guarded_submit, _produce


@dataclass(frozen=True)
class TraceEvent:
    """One invocation in a trace."""

    #: Arrival time relative to replay start, seconds.
    at_s: float
    #: Tenant issuing the request (per-tenant breakdowns key on this).
    tenant: str = "default"
    #: Registry app short name; ``None`` means the replay's default app.
    app: Optional[str] = None
    #: Request input size; ``None`` means the app's default.
    input_bytes: Optional[float] = None
    #: FOREACH width; ``None`` means the app's default.
    fanout: Optional[int] = None
    #: SWITCH-selector seed for this invocation.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError("at_s must be non-negative")
        if self.input_bytes is not None and self.input_bytes < 0:
            raise ValueError("input_bytes must be non-negative")
        if self.fanout is not None and self.fanout < 1:
            raise ValueError("fanout must be >= 1")


@dataclass
class InvocationTrace:
    """A named, time-ordered collection of invocation events."""

    events: List[TraceEvent]
    name: str = "trace"

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda e: e.at_s)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def duration_s(self) -> float:
        return self.events[-1].at_s if self.events else 0.0

    def tenants(self) -> List[str]:
        return sorted({event.tenant for event in self.events})

    def sole_tenant(self) -> Optional[str]:
        """The single tenant every event shares, or ``None`` when mixed/empty.

        Tenant-profile resolution keys on this: a cell whose events all
        belong to one tenant gets that tenant's profile, while mixed
        cells (e.g. timeslice sharding) fall back to the default.
        """
        tenants = {event.tenant for event in self.events}
        return tenants.pop() if len(tenants) == 1 else None

    def apps(self) -> List[str]:
        """Distinct app names named by events (``None`` defaults excluded)."""
        return sorted({event.app for event in self.events if event.app})

    # -- loading -----------------------------------------------------------------

    @staticmethod
    def _event_from_row(row: dict) -> TraceEvent:
        """Parse one JSON/CSV row dict into a :class:`TraceEvent`."""
        if row.get("at_s") in ("", None):
            raise ValueError(
                f"trace event missing required 'at_s' field: {row!r}"
            )
        raw_size = row.get("input_bytes")
        if isinstance(raw_size, str) and raw_size.strip():
            raw_size = parse_size(raw_size)
        elif raw_size in ("", None):
            raw_size = None
        else:
            raw_size = float(raw_size)
        return TraceEvent(
            at_s=float(row["at_s"]),
            tenant=str(row.get("tenant") or "default"),
            app=(str(row["app"]) if row.get("app") else None),
            input_bytes=raw_size,
            fanout=(int(row["fanout"]) if row.get("fanout") else None),
            seed=int(row.get("seed") or 0),
        )

    @classmethod
    def from_events(
        cls, rows: Sequence[dict], name: str = "trace"
    ) -> "InvocationTrace":
        """Build from dict rows (the JSON/CSV schema)."""
        return cls(events=[cls._event_from_row(row) for row in rows], name=name)

    @classmethod
    def from_json(cls, text: str, name: str = "trace") -> "InvocationTrace":
        payload = json.loads(text)
        if isinstance(payload, dict):
            name = payload.get("name", name)
            rows = payload.get("events", [])
        else:
            rows = payload
        return cls.from_events(rows, name=name)

    @classmethod
    def from_csv(cls, text: str, name: str = "trace") -> "InvocationTrace":
        """Parse CSV text, tolerating blank lines and ``#`` comments.

        The first contentful line is the header.  Malformed rows raise
        :class:`ValueError` naming the 1-indexed source line, so a bad
        row in a million-line trace is findable.
        """
        # Filter comment/blank physical lines but keep line endings and a
        # map back to source line numbers, then let csv.reader consume the
        # remainder so quoted fields (embedded newlines included) parse as
        # real CSV.
        lines: List[str] = []
        origin: List[int] = []
        for line_no, raw in enumerate(text.splitlines(keepends=True), start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            lines.append(raw)
            origin.append(line_no)
        header: Optional[List[str]] = None
        events: List[TraceEvent] = []
        reader = csv.reader(lines)
        consumed = 0
        for values in reader:
            row_line = origin[consumed]
            consumed = reader.line_num
            if header is None:
                header = [column.strip() for column in values]
                continue
            if len(values) > len(header):
                raise ValueError(
                    f"trace CSV line {row_line}: {len(values)} fields but "
                    f"header has {len(header)} columns"
                )
            row = dict(zip(header, (value.strip() for value in values)))
            try:
                events.append(cls._event_from_row(row))
            except ValueError as exc:
                raise ValueError(
                    f"trace CSV line {row_line}: {exc}"
                ) from None
        return cls(events=events, name=name)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "InvocationTrace":
        """Load a trace file, dispatching on the ``.json``/``.csv`` suffix."""
        path = Path(path)
        text = path.read_text()
        if path.suffix.lower() == ".csv":
            return cls.from_csv(text, name=path.stem)
        return cls.from_json(text, name=path.stem)

    def to_json(self) -> str:
        rows = []
        for event in self.events:
            row: dict = {"at_s": event.at_s, "tenant": event.tenant}
            if event.app is not None:
                row["app"] = event.app
            if event.input_bytes is not None:
                row["input_bytes"] = event.input_bytes
            if event.fanout is not None:
                row["fanout"] = event.fanout
            if event.seed:
                row["seed"] = event.seed
            rows.append(row)
        return json.dumps({"name": self.name, "events": rows}, indent=2)

    def to_csv(self) -> str:
        """The trace in the loader's CSV schema (round-trips via
        :meth:`from_csv`)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["at_s", "tenant", "app", "input_bytes", "fanout", "seed"])
        for event in self.events:
            writer.writerow(
                [
                    event.at_s,
                    event.tenant,
                    event.app or "",
                    "" if event.input_bytes is None else event.input_bytes,
                    "" if event.fanout is None else event.fanout,
                    event.seed,
                ]
            )
        return buffer.getvalue()


def synthesize_trace(
    tenants: int,
    duration_s: float,
    mean_rpm: float,
    apps: Optional[Sequence[str]] = None,
    rate_sigma: float = 1.0,
    size_jitter: float = 0.25,
    input_bytes: Optional[float] = None,
    seed: int = 0,
    name: str = "synthetic",
) -> InvocationTrace:
    """Generate a deterministic multi-tenant trace.

    Each tenant gets a Poisson arrival process whose rate is ``mean_rpm``
    scaled by a lognormal weight (``rate_sigma`` controls the skew — 0
    gives uniform tenants, ~1 reproduces the Azure-trace shape where a
    few tenants dominate), a fixed app drawn round-robin from ``apps``,
    and per-event input sizes jittered around ``input_bytes`` (or the
    app default when ``None``).  Identical arguments always produce an
    identical trace.
    """
    if tenants < 1:
        raise ValueError("tenants must be >= 1")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    rng = random.Random(seed)
    app_cycle = list(apps) if apps else [None]
    events: List[TraceEvent] = []
    for i in range(tenants):
        tenant = f"tenant{i}"
        app = app_cycle[i % len(app_cycle)]
        weight = rng.lognormvariate(0.0, rate_sigma) if rate_sigma > 0 else 1.0
        rate_per_s = mean_rpm * weight / 60.0
        if rate_per_s <= 0:
            continue
        t = rng.expovariate(rate_per_s)
        while t < duration_s:
            size = None
            if input_bytes is not None:
                size = max(1.0, rng.gauss(input_bytes, input_bytes * size_jitter))
            events.append(
                TraceEvent(
                    at_s=t,
                    tenant=tenant,
                    app=app,
                    input_bytes=size,
                    seed=rng.randrange(1 << 16),
                )
            )
            t += rng.expovariate(rate_per_s)
    return InvocationTrace(events=events, name=name)


@dataclass
class TraceRunResult(RunResult):
    """A :class:`RunResult` plus per-tenant and per-workflow breakdowns."""

    tenant_of: Dict[str, str] = field(default_factory=dict)

    def tenant_records(self) -> Dict[str, List[RequestRecord]]:
        grouped: Dict[str, List[RequestRecord]] = {}
        for record in self.records:
            tenant = self.tenant_of.get(record.request_id, "default")
            grouped.setdefault(tenant, []).append(record)
        return grouped

    def tenant_latency(self, tenant: str) -> LatencySummary:
        return LatencySummary.from_records(self.tenant_records()[tenant])

    def workflow_records(self) -> Dict[str, List[RequestRecord]]:
        grouped: Dict[str, List[RequestRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.workflow, []).append(record)
        return grouped

    def record_aggregate(self) -> RecordAggregate:
        """The records folded in run order, grouped by tenant and
        workflow."""
        return RecordAggregate.of_records(self.records, self.tenant_of)

    def to_dict(self) -> dict:
        """The base report plus ``tenants`` and ``workflows`` breakdowns."""
        aggregate = self.record_aggregate()
        payload = self._report_body(aggregate)
        payload.update(aggregate.breakdowns())
        return payload


def run_trace(
    system: WorkflowSystem,
    trace: InvocationTrace,
    default_app: Optional[str] = None,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    input_bytes: Optional[float] = None,
    fanout: Optional[int] = None,
) -> TraceRunResult:
    """Replay a trace against a system with every workflow pre-deployed.

    Events resolve to registry apps (``event.app`` falling back to
    ``default_app``); missing input sizes and fan-outs fall back to
    ``input_bytes``/``fanout`` and then to the app's defaults.  The
    caller deploys each involved workflow first — the replay raises up
    front if one is missing (or an event has no resolvable app), rather
    than mid-run.
    """
    from ..apps import get_app  # local import: loadgen stays app-agnostic

    env = system.env
    if default_app is None and any(e.app is None for e in trace.events):
        raise ValueError(
            f"trace {trace.name!r} has events naming no app and no "
            f"default_app was given"
        )
    specs = {}
    for app_name in trace.apps() + ([default_app] if default_app else []):
        if app_name and app_name not in specs:
            specs[app_name] = get_app(app_name)
    for app_name, spec in specs.items():
        if spec.workflow_name not in system.deployments:
            raise KeyError(
                f"trace names app {app_name!r} but workflow "
                f"{spec.workflow_name!r} is not deployed on {system.name}"
            )

    run_records: List[RequestRecord] = []
    tenant_of: Dict[str, str] = {}
    guards = []

    def arrive(index: int) -> None:
        event = trace.events[index]
        spec = specs[event.app or default_app]
        size = event.input_bytes
        if size is None:
            size = input_bytes if input_bytes is not None else spec.default_input_bytes
        width = event.fanout
        if width is None:
            width = fanout if fanout is not None else spec.default_fanout
        request = RequestSpec(
            request_id=system.next_request_id(spec.workflow_name),
            input_bytes=size,
            fanout=width,
            seed=event.seed,
        )
        record, guard = _guarded_submit(
            system, spec.workflow_name, request, timeout_s
        )
        run_records.append(record)
        tenant_of[record.request_id] = event.tenant
        guards.append(guard)

    env.run(until=_produce(env, [e.at_s for e in trace.events], arrive))
    if guards:
        env.run(until=env.all_of(guards))
    workflows = sorted({r.workflow for r in run_records})
    return TraceRunResult(
        system_name=system.name,
        workflow="+".join(workflows) if workflows else trace.name,
        duration_s=trace.duration_s,
        offered=len(trace),
        records=run_records,
        usage=collect_usage(
            system.cluster, sum(1 for r in run_records if r.completed)
        ),
        tenant_of=tenant_of,
    )
