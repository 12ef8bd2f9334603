"""Fail-fast validation of ``POST /v1/runs`` request bodies.

Everything a run request can get wrong dies *here*, at submission time,
as a :class:`BadRequest` the HTTP layer maps to ``400`` — never inside a
job worker thread or a replay worker process.  The checks mirror the
CLI's exactly: registries for apps/systems/placements, the engine's
app-resolution precondition, and — for inline ``tenant_config`` bodies —
the same named-tenant errors ``repro replay --tenant-config`` emits,
via :func:`repro.parallel.profiles.validated_tenant_config`.

A validated request becomes a :class:`RunRequest`: the
:class:`~repro.loadgen.trace.InvocationTrace` to replay, the
:class:`~repro.parallel.spec.ReplaySpec` built exactly the way the CLI
builds it (so a served run's report is byte-identical to the same seed
replayed via ``repro replay``), and the scheduling knob (``workers``)
that never affects the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..loadgen.trace import InvocationTrace, synthesize_trace
from ..parallel.engine import ON_CELL_FAILURE_MODES
from ..parallel.profiles import TenantConfig, TenantProfileError
from ..parallel.resilience import HostFaultPlan, RetryPolicy
from ..parallel.spec import ReplaySpec
from ..workflow.dsl import parse_size

__all__ = ["BadRequest", "RunRequest", "parse_run_request"]


class BadRequest(ValueError):
    """A malformed run request; the HTTP layer answers 400 with this."""


#: The ``POST /v1/runs`` body schema (``docs/serve.md``).
_REQUEST_KEYS = {
    "app",
    "system",
    "placement",
    "seed",
    "timeout_s",
    "input_bytes",
    "fanout",
    "trace",
    "synth",
    "tenant_config",
    "workers",
    "max_records_in_memory",
    "tenant",
    "retry",
    "faults",
    "on_cell_failure",
}

#: Keyword arguments a ``synth`` body may forward to
#: :func:`~repro.loadgen.trace.synthesize_trace`.
_SYNTH_KEYS = {
    "tenants",
    "duration_s",
    "mean_rpm",
    "apps",
    "rate_sigma",
    "size_jitter",
    "input_bytes",
    "seed",
    "name",
}

_DEFAULT_TIMEOUT_S = 60.0


@dataclass
class RunRequest:
    """One validated run, ready for a job worker to execute."""

    trace: InvocationTrace
    spec: ReplaySpec
    #: Size of the job thread's cell-process pool, or
    #: the string ``"remote"``: cells execute on the registered
    #: ``repro worker`` fleet via the lease queue (``docs/workers.md``).
    workers: Union[int, str] = 1
    #: Who submitted the run (admission-control identity; free-form).
    tenant: Optional[str] = None
    #: The submitting tenant's concurrent-run quota, resolved from the
    #: tenant config (``None`` = unlimited).
    max_concurrent_runs: Optional[int] = None
    #: Per-cell retry/deadline policy (``None`` = engine default).
    retry: Optional[RetryPolicy] = None
    #: Deterministic fault injection (tests/chaos only).
    faults: Optional[HostFaultPlan] = None
    #: ``"fail"`` aborts on an exhausted cell; ``"skip"`` degrades.
    on_cell_failure: str = "fail"
    #: The echo of the submitted parameters (listings and audits).
    summary: dict = field(default_factory=dict)
    #: The original request body, verbatim — what the durable run
    #: journal persists so a recovering server can re-validate the run
    #: through this very parser and resume it.
    payload: Optional[dict] = None


def _type_error(key: str, expected: str, value) -> BadRequest:
    return BadRequest(
        f"{key!r} must be {expected}, got {type(value).__name__} ({value!r})"
    )


def _opt_number(payload: dict, key: str, minimum: Optional[float] = None):
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _type_error(key, "a number", value)
    if minimum is not None and value < minimum:
        raise BadRequest(f"{key!r} must be >= {minimum:g}, got {value!r}")
    return value


def _opt_int(payload: dict, key: str, minimum: int):
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise _type_error(key, "an integer", value)
    if value < minimum:
        raise BadRequest(f"{key!r} must be >= {minimum}, got {value!r}")
    return value


def _opt_size(payload: dict, key: str):
    """An input size: a number of bytes or a ``"4MB"``-style string."""
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, str):
        try:
            return parse_size(value)
        except ValueError as exc:
            raise BadRequest(f"{key!r}: {exc}") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _type_error(key, "a size (number or '4MB'-style string)", value)
    if value < 0:
        raise BadRequest(f"{key!r} must be non-negative, got {value!r}")
    return float(value)


def _check_app(name: str) -> None:
    from ..apps import get_app

    try:
        get_app(name)
    except KeyError as exc:
        raise BadRequest(str(exc.args[0] if exc.args else exc)) from None


def _check_system(name: str) -> None:
    from ..experiments.common import SYSTEM_CLASSES

    if name not in SYSTEM_CLASSES:
        raise BadRequest(
            f"unknown system {name!r}; choose from {list(SYSTEM_CLASSES)}"
        )


def _check_placement(spec: str) -> None:
    from ..systems.placement import get_policy

    try:
        get_policy(spec)
    except (KeyError, ValueError) as exc:
        raise BadRequest(str(exc.args[0] if exc.args else exc)) from None


def _parse_trace(payload: dict) -> InvocationTrace:
    """The run's trace: inline events, or synthesized from parameters."""
    inline = payload.get("trace")
    synth = payload.get("synth")
    if (inline is None) == (synth is None):
        raise BadRequest(
            "a run needs exactly one of 'trace' (inline events) or "
            "'synth' (synthesis parameters)"
        )
    if inline is not None:
        if isinstance(inline, list):
            inline = {"events": inline}
        if not isinstance(inline, dict):
            raise _type_error("trace", "a mapping or an event list", inline)
        events = inline.get("events")
        if not isinstance(events, list) or not events:
            raise BadRequest("'trace' must carry a non-empty 'events' list")
        try:
            return InvocationTrace.from_events(
                events, name=str(inline.get("name", "request"))
            )
        except (TypeError, ValueError, KeyError) as exc:
            raise BadRequest(f"bad trace event: {exc}") from None
    if not isinstance(synth, dict):
        raise _type_error("synth", "a mapping", synth)
    unknown = sorted(set(synth) - _SYNTH_KEYS)
    if unknown:
        raise BadRequest(
            f"unknown synth keys {unknown}; expected {sorted(_SYNTH_KEYS)}"
        )
    kwargs = dict(synth)
    kwargs.setdefault("tenants", 4)
    kwargs.setdefault("duration_s", 30.0)
    kwargs.setdefault("mean_rpm", 30.0)
    if "input_bytes" in kwargs:
        kwargs["input_bytes"] = _opt_size(kwargs, "input_bytes")
    try:
        return synthesize_trace(**kwargs)
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"bad synth parameters: {exc}") from None


def parse_run_request(
    payload: object,
    default_tenant_config: Optional[TenantConfig] = None,
) -> RunRequest:
    """Validate one ``POST /v1/runs`` body into a :class:`RunRequest`.

    ``default_tenant_config`` is the server-level ``--tenant-config``
    (already file-loaded); a request carrying its own inline
    ``tenant_config`` overrides it entirely.  Either way the config is
    (re)validated against *this request's* base system and placement,
    so profile errors surface as 400s naming the tenant.
    """
    if not isinstance(payload, dict):
        raise BadRequest(
            f"request body must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    unknown = sorted(set(payload) - _REQUEST_KEYS)
    if unknown:
        raise BadRequest(
            f"unknown request keys {unknown}; expected {sorted(_REQUEST_KEYS)}"
        )

    app = payload.get("app")
    if app is not None:
        if not isinstance(app, str):
            raise _type_error("app", "a string", app)
        _check_app(app)
    system = payload.get("system", "dataflower")
    if not isinstance(system, str):
        raise _type_error("system", "a string", system)
    _check_system(system)
    placement = payload.get("placement", "round_robin")
    if not isinstance(placement, str):
        raise _type_error("placement", "a string", placement)
    _check_placement(placement)

    seed = _opt_int(payload, "seed", minimum=0)
    timeout_s = _opt_number(payload, "timeout_s", minimum=0)
    if timeout_s is not None and timeout_s <= 0:
        raise BadRequest(f"'timeout_s' must be positive, got {timeout_s!r}")
    input_bytes = _opt_size(payload, "input_bytes")
    fanout = _opt_int(payload, "fanout", minimum=1)
    workers_raw = payload.get("workers")
    if isinstance(workers_raw, str):
        if workers_raw != "remote":
            raise BadRequest(
                f"'workers' must be an integer >= 1 or the string "
                f"'remote', got {workers_raw!r}"
            )
        workers: Union[int, str] = "remote"
    else:
        workers = _opt_int(payload, "workers", minimum=1) or 1
    tenant = payload.get("tenant")
    if tenant is not None and not isinstance(tenant, str):
        raise _type_error("tenant", "a string", tenant)
    on_cell_failure = payload.get("on_cell_failure", "fail")
    if on_cell_failure not in ON_CELL_FAILURE_MODES:
        raise BadRequest(
            f"'on_cell_failure' must be one of "
            f"{list(ON_CELL_FAILURE_MODES)}, got {on_cell_failure!r}"
        )
    retry = None
    if payload.get("retry") is not None:
        try:
            retry = RetryPolicy.from_payload(payload["retry"])
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"retry: {exc}") from None
    faults = None
    if payload.get("faults") is not None:
        try:
            faults = HostFaultPlan.from_payload(payload["faults"])
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"faults: {exc}") from None
    max_records = _opt_int(payload, "max_records_in_memory", minimum=1)

    trace = _parse_trace(payload)
    # The engine would reject these too, but only after the job was
    # accepted — surface them as 400s at submission instead.
    if app is None and any(event.app is None for event in trace.events):
        raise BadRequest(
            f"trace {trace.name!r} has events naming no app and the "
            f"request has no default 'app'"
        )
    for name in trace.apps():
        _check_app(name)

    record_sink = None
    if max_records is not None:
        from ..parallel.sink import RecordSinkSpec

        # The spill directory is always server-chosen scratch (the
        # system temp dir): clients tune the threshold, never a path on
        # the server's filesystem.
        record_sink = RecordSinkSpec(max_records_in_memory=max_records)

    spec = ReplaySpec(
        system_name=system,
        default_app=app,
        placement=placement,
        seed=seed if seed is not None else 0,
        timeout_s=timeout_s if timeout_s is not None else _DEFAULT_TIMEOUT_S,
        input_bytes=input_bytes,
        fanout=fanout,
        record_sink=record_sink,
    )

    inline_config = payload.get("tenant_config")
    config = default_tenant_config
    if inline_config is not None:
        from ..parallel.profiles import validated_tenant_config

        try:
            config = validated_tenant_config(inline_config, system, placement)
        except TenantProfileError as exc:
            raise BadRequest(f"tenant_config: {exc}") from None
    elif config is not None:
        try:
            config.validate(system, placement)
        except TenantProfileError as exc:
            raise BadRequest(f"server tenant config: {exc}") from None
    if config is not None:
        spec = spec.with_tenant_config(config)

    # The submitting tenant's quota comes from the tenant config: the
    # tenant's own profile first, the config default as fallback.
    max_concurrent_runs = None
    if tenant is not None and config is not None:
        profile = config.tenants.get(tenant) or config.default
        if profile is not None:
            max_concurrent_runs = profile.max_concurrent_runs

    summary = {
        "app": app,
        "system": system,
        "placement": placement,
        "seed": spec.seed,
        "trace": {"name": trace.name, "events": len(trace),
                  "tenants": len(trace.tenants())},
        "workers": workers,
        "tenant_config": config is not None,
    }
    if tenant is not None:
        summary["tenant"] = tenant
    return RunRequest(
        trace=trace, spec=spec, workers=workers,
        tenant=tenant, max_concurrent_runs=max_concurrent_runs,
        retry=retry, faults=faults, on_cell_failure=on_cell_failure,
        summary=summary, payload=payload,
    )
