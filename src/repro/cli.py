"""The unified ``repro`` command-line front-end.

One entry point for everything the reproduction can do::

    repro run --app wc --system dataflower --arrivals constant:60:20
    repro run --app ml_ensemble --format json \\
        --arrivals trace:examples/traces/mixed_tenants.csv
    repro replay examples/traces/mixed_tenants.csv --workers 4
    repro synth --tenants 16 --duration-s 120 --mean-rpm 30 \\
        --apps wc,etl --seed 7 --output big.csv
    repro experiments fig11 --scale 0.25
    repro apps
    repro systems
    repro validate my_workflow.dsl
    repro serve --port 8080 --workers 2
    repro worker --server http://127.0.0.1:8080

Installed as a ``console_scripts`` entry (``repro``) and runnable as
``python -m repro``.  Subcommands:

``run``
    Drive any registered app on any system under an arrival pattern and
    print a latency/usage report (table or JSON).  Arrival specs:

    * ``constant:<rpm>:<duration_s>`` — paced open loop;
    * ``burst:<base_rpm>:<burst_rpm>:<base_s>:<burst_s>`` — Figure 15 step;
    * ``closed:<clients>:<duration_s>`` — synchronous closed loop;
    * ``trace:<path.json|path.csv>`` — multi-tenant trace replay
      (see :mod:`repro.loadgen.trace`).

``replay``
    Parallel trace replay (:mod:`repro.parallel`): partition a trace
    into cells by ``--policy`` and replay them across ``--workers``
    processes (default 1: in-process, serially) through the
    cell-granular work-stealing scheduler with an online merge.  The
    merged report is bit-identical at any ``--workers`` setting
    (``docs/scaling.md``); wall-clock and peak-RSS facts print
    separately under ``parallel``.
    ``--tenant-config`` makes the replay heterogeneous: each tenant's
    cell runs under its own profile — system, placement, cluster, and
    request limits — and the report tags per-tenant sections with the
    profile used (``docs/tenancy.md``).

``synth``
    Generate a deterministic multi-tenant trace file (Azure-trace-style
    skewed Poisson arrivals) for ``replay``/``run`` to consume; the
    ``--seed`` makes every synthesis reproducible.

``experiments``
    List or re-run the paper-figure registry (wraps
    ``python -m repro.experiments``).

``apps`` / ``systems``
    Show the registries the ``run`` flags accept.

``validate``
    Lint a Figure-7 DSL workflow file and print its structure.

``serve``
    Run the long-running HTTP orchestration service
    (:mod:`repro.serve`): submit runs over REST (``POST /v1/runs``),
    poll for merged reports, and stream NDJSON per-cell progress
    (``docs/serve.md``).

``worker``
    Join a ``repro serve`` control plane as a remote replay worker:
    register, long-poll for cell leases, replay them, and report the
    results.  Runs submitted with ``"workers": "remote"`` execute on
    the fleet and merge byte-identically to a local replay
    (``docs/workers.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .apps import get_app, registered_apps
from .experiments.common import make_setup, system_names
from .experiments.registry import experiment_ids, run_experiment
from .loadgen.arrivals import burst, constant
from .loadgen.runner import RunResult, run_closed_loop, run_open_loop
from .loadgen.trace import InvocationTrace, run_trace
from .metrics.report import render_json, render_table
from .workflow.dsl import DslError, parse_size
from .workflow.validation import WorkflowValidationError


class CliError(ValueError):
    """A bad flag/spec; printed as an error and exit code 2."""


# -- arrival-spec parsing ----------------------------------------------------------


def _split_spec(spec: str, kind: str, argc: int) -> List[str]:
    parts = spec.split(":")[1:]
    if len(parts) != argc:
        raise CliError(
            f"arrivals spec {spec!r}: {kind} takes {argc} ':'-separated "
            f"values after the kind"
        )
    return parts


def parse_arrivals(spec: str):
    """Parse an ``--arrivals`` spec into (kind, payload).

    Returns one of ``("open", schedule)``, ``("closed", (clients,
    duration_s))``, or ``("trace", InvocationTrace)``.
    """
    kind = spec.split(":", 1)[0]
    if kind == "constant":
        rpm, duration = _split_spec(spec, kind, 2)
        return "open", constant(float(rpm), float(duration))
    if kind == "burst":
        base, surge, base_s, surge_s = _split_spec(spec, kind, 4)
        return "open", burst(float(base), float(surge), float(base_s), float(surge_s))
    if kind == "closed":
        clients, duration = _split_spec(spec, kind, 2)
        return "closed", (int(clients), float(duration))
    if kind == "trace":
        path = spec.partition(":")[2]
        if not path:
            raise CliError("arrivals spec 'trace:' needs a file path")
        return "trace", _load_trace(path)
    raise CliError(
        f"unknown arrivals kind {kind!r}; expected constant, burst, "
        f"closed, or trace"
    )


# -- subcommands --------------------------------------------------------------------


def _emit(text: str, output: Optional[str]) -> None:
    """Print a report, or write it to ``output`` and say so."""
    if output:
        with open(output, "w") as handle:
            handle.write(text + "\n")
        print(f"[wrote {output}]")
    else:
        print(text)


def _load_tenant_config(path: str, base_system: str, base_placement: str):
    """Load + fail-fast-validate a ``--tenant-config`` file.

    Validation happens here, against the system/placement registries,
    so a profile naming an unknown system dies with a named-tenant
    message at the CLI — never deep inside a replay worker process.
    """
    from .parallel.profiles import TenantConfig, TenantProfileError

    try:
        config = TenantConfig.load(path)
        config.validate(base_system, base_placement)
    except FileNotFoundError:
        raise CliError(f"tenant config not found: {path}") from None
    except OSError as exc:
        raise CliError(f"cannot read tenant config {path}: {exc}") from None
    except TenantProfileError as exc:
        raise CliError(f"tenant config {path}: {exc}") from None
    return config


def _profile_table(spec, trace) -> str:
    """The resolved per-tenant profile table a heterogeneous run echoes."""
    rows = []
    for tenant in trace.tenants():
        resolved = spec.resolve(tenant)
        rows.append(
            [
                tenant,
                resolved.system,
                resolved.placement,
                resolved.timeout_s,
                resolved.source,
            ]
        )
    return render_table(
        ["tenant", "system", "placement", "timeout_s", "source"],
        rows,
        title="tenant profiles",
    )


def cmd_run(args: argparse.Namespace) -> int:
    app = get_app(args.app)
    kind, payload = parse_arrivals(args.arrivals)
    if kind == "trace" and args.poisson:
        raise CliError(
            "--poisson only applies to constant/burst arrivals; trace "
            "events carry their own timestamps"
        )
    if args.tenant_config:
        if kind != "trace":
            raise CliError(
                "--tenant-config requires trace arrivals "
                "(--arrivals trace:<file>); per-tenant profiles have no "
                "meaning under single-tenant open/closed loops"
            )
        return _run_heterogeneous_trace(args, payload)

    deploy_apps = [args.app]
    if kind == "trace":
        deploy_apps += [a for a in payload.apps() if a != args.app]
    overrides = {"seed": args.seed} if args.seed else None
    setup = make_setup(
        args.system,
        args.app,
        system_overrides=overrides,
        placement=args.placement,
        apps=deploy_apps,
    )

    input_bytes = parse_size(args.input_bytes) if args.input_bytes else None
    factory = setup.request_factory(
        input_bytes=input_bytes, fanout=args.fanout
    )
    if kind == "open":
        result: RunResult = run_open_loop(
            setup.system,
            app.workflow_name,
            factory,
            payload,
            timeout_s=args.timeout_s,
            poisson=args.poisson,
            seed=args.seed,
        )
    elif kind == "closed":
        clients, duration_s = payload
        result = run_closed_loop(
            setup.system,
            app.workflow_name,
            factory,
            clients,
            duration_s,
            timeout_s=args.timeout_s,
        )
    else:
        result = run_trace(
            setup.system,
            payload,
            default_app=args.app,
            timeout_s=args.timeout_s,
            input_bytes=input_bytes,
            fanout=args.fanout,
        )

    payload_dict = result.to_dict()
    payload_dict["app"] = args.app
    payload_dict["arrivals"] = args.arrivals
    text = (
        render_json(payload_dict)
        if args.format == "json"
        else _run_report_table(payload_dict)
    )
    _emit(text, args.output)
    return _report_exit_code(payload_dict)


def _replay_spec_from_args(args: argparse.Namespace):
    """The ReplaySpec shared by ``repro replay`` and the heterogeneous
    ``repro run`` path — one place to thread new spec fields through."""
    from .parallel import ReplaySpec
    from .parallel.sink import DEFAULT_MAX_RECORDS_IN_MEMORY, RecordSinkSpec

    # The spill flags only tune the one record sink; it never changes
    # the report, only where merged records wait.
    max_records = getattr(args, "max_records_in_memory", None)
    if max_records is not None and max_records < 1:
        raise CliError("--max-records-in-memory must be >= 1")
    record_sink = RecordSinkSpec(
        spill_dir=getattr(args, "spill_dir", None),
        max_records_in_memory=max_records or DEFAULT_MAX_RECORDS_IN_MEMORY,
    )
    return ReplaySpec(
        system_name=args.system,
        default_app=args.app,
        placement=args.placement,
        seed=args.seed,
        timeout_s=args.timeout_s,
        input_bytes=parse_size(args.input_bytes) if args.input_bytes else None,
        fanout=args.fanout,
        record_sink=record_sink,
    )


def _run_heterogeneous_trace(args: argparse.Namespace, trace) -> int:
    """``repro run --tenant-config``: per-tenant worlds via the replay
    engine's serial path (one cell per tenant, merged report)."""
    from .parallel import run_parallel_replay

    config = _load_tenant_config(args.tenant_config, args.system, args.placement)
    spec = _replay_spec_from_args(args).with_tenant_config(config)
    result = run_parallel_replay(trace, spec, workers=1)
    payload = result.to_dict()
    payload["app"] = args.app
    payload["arrivals"] = args.arrivals
    if args.format == "json":
        text = render_json(payload)
    else:
        text = _profile_table(spec, trace) + "\n\n" + _run_report_table(payload)
    _emit(text, args.output)
    return _report_exit_code(payload)


def _report_table(title: str, identity_rows: List[List], report: dict) -> str:
    """Render the common report-table tail after caller-specific rows."""
    rows = identity_rows + [
        ["offered", report["offered"]],
        ["completed", report["completed"]],
        ["failed", report["failed"]],
        ["failure_rate", report["failure_rate"]],
        ["throughput_rpm", report["throughput_rpm"]],
    ]
    latency = report.get("latency")
    if latency:
        for key in ("mean_s", "p50_s", "p99_s", "max_s"):
            rows.append([f"latency.{key}", latency[key]])
    usage = report.get("usage")
    if usage:
        rows.append(["memory_gbs", usage["memory_gbs"]])
        rows.append(["cache_mbs", usage["cache_mbs"]])
    parts = [render_table(["metric", "value"], rows, title=title)]
    tenants = report.get("tenants")
    if tenants and len(tenants) > 1:
        tenant_rows = [
            [
                tenant,
                stats["offered"],
                stats["completed"],
                stats["latency"]["p50_s"] if stats["latency"] else None,
                stats["latency"]["p99_s"] if stats["latency"] else None,
            ]
            for tenant, stats in tenants.items()
        ]
        parts.append("")
        parts.append(
            render_table(
                ["tenant", "offered", "completed", "p50_s", "p99_s"],
                tenant_rows,
                title="per-tenant",
            )
        )
    return "\n".join(parts)


def _run_report_table(report: dict) -> str:
    return _report_table(
        "run report",
        [
            ["app", report["app"]],
            ["system", report["system"]],
            ["workflow", report["workflow"]],
            ["arrivals", report["arrivals"]],
        ],
        report,
    )


def _load_trace(path: str) -> InvocationTrace:
    try:
        return InvocationTrace.load(path)
    except FileNotFoundError:
        raise CliError(f"trace file not found: {path}") from None
    except ValueError as exc:
        raise CliError(f"bad trace file {path}: {exc}") from None


def _report_exit_code(payload: dict) -> int:
    """Exit code from a finished report: 3 degraded, 1 failed, 0 clean.

    Degraded means the replay completed but skipped cells
    (``replay.failed_cells`` non-empty under ``--on-cell-failure
    skip``); failed means individual requests inside the run errored
    (``failed > 0``).  Degraded outranks failed: a partial report is
    the stronger signal for scripts gating on the exit code.
    """
    if payload.get("replay", {}).get("failed_cells"):
        return 3
    if payload.get("failed", 0) > 0:
        return 1
    return 0


def _parse_fault(text: str):
    """Parse one ``--fault KIND:CELL[:ATTEMPT[:DELAY_S]]`` spec."""
    from .parallel import FaultSpec

    parts = text.split(":")
    if not 2 <= len(parts) <= 4:
        raise CliError(
            f"fault spec {text!r}: expected KIND:CELL[:ATTEMPT[:DELAY_S]]"
        )
    kind, cell = parts[0], parts[1]
    try:
        attempt = int(parts[2]) if len(parts) >= 3 else 1
        delay_s = float(parts[3]) if len(parts) >= 4 else 0.0
    except ValueError as exc:
        raise CliError(f"fault spec {text!r}: {exc}") from None
    fault = FaultSpec(kind=kind, cell=cell, attempt=attempt, delay_s=delay_s)
    try:
        fault.validate()
    except ValueError as exc:
        raise CliError(f"fault spec {text!r}: {exc}") from None
    return fault


def cmd_replay(args: argparse.Namespace) -> int:
    from .parallel import (
        HostFaultPlan,
        RetryPolicy,
        get_shard_policy,
        run_parallel_replay,
    )
    from .systems.placement import get_policy as get_placement_policy

    trace = _load_trace(args.trace)
    try:
        policy = get_shard_policy(args.policy)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    try:
        get_placement_policy(args.placement)
    except (KeyError, ValueError) as exc:
        raise CliError(str(exc.args[0] if exc.args else exc)) from None
    if args.workers < 1:
        raise CliError("--workers must be >= 1")
    retry = RetryPolicy(
        max_attempts=args.max_attempts, deadline_s=args.deadline_s
    )
    try:
        retry.validate()
    except ValueError as exc:
        raise CliError(str(exc)) from None
    fault_plan = None
    if args.fault:
        fault_plan = HostFaultPlan(
            faults=tuple(_parse_fault(text) for text in args.fault)
        )
    spec = _replay_spec_from_args(args)
    if args.tenant_config:
        if policy.name != "tenant":
            # Profiles key on tenants; under other partitions a tenant's
            # events can land in mixed or multiple cells, and the echoed
            # profile table would not describe what actually ran.
            raise CliError(
                f"--tenant-config requires --policy tenant (got "
                f"{args.policy!r}): profiles resolve per tenant cell"
            )
        config = _load_tenant_config(
            args.tenant_config, args.system, args.placement
        )
        spec = spec.with_tenant_config(config)
    metrics = None
    if args.metrics_out:
        from .metrics.telemetry import MetricsRegistry

        metrics = MetricsRegistry()
    result = run_parallel_replay(
        trace, spec, workers=args.workers, policy=policy,
        retry=retry, fault_plan=fault_plan,
        on_cell_failure=args.on_cell_failure, metrics=metrics,
    )
    if metrics is not None:
        # The same Prometheus text GET /metrics serves, dumped for
        # one-shot runs (scrapeless CI, ad-hoc analysis).
        with open(args.metrics_out, "w") as handle:
            handle.write(metrics.render_prometheus())
        print(f"[wrote {args.metrics_out}]", file=sys.stderr)

    payload = result.to_dict()
    payload["trace"] = args.trace
    # Scheduling facts live outside the deterministic report body: the
    # merged results above are identical at any --workers.
    payload["parallel"] = {
        "policy": result.policy_name,
        "cells": result.cell_count,
        "workers": result.workers,
        "wall_s": result.wall_s,
        "events_per_s": result.events_per_s(),
        "max_rss_mb": result.rss_mb,
    }
    if args.format == "json":
        text = render_json(payload)
    else:
        text = _replay_report_table(payload)
        if spec.has_profiles:
            # Echo the resolved profile table so heterogeneous runs are
            # auditable at a glance.
            text = _profile_table(spec, trace) + "\n\n" + text
    _emit(text, args.output)
    return _report_exit_code(payload)


def _replay_report_table(report: dict) -> str:
    parallel = report["parallel"]
    return _report_table(
        "sharded replay report",
        [
            ["trace", report["trace"]],
            ["system", report["system"]],
            ["workflow", report["workflow"]],
            ["policy", parallel["policy"]],
            ["cells", parallel["cells"]],
            ["workers", parallel["workers"]],
            ["wall_s", parallel["wall_s"]],
            ["events_per_s", parallel["events_per_s"]],
            ["max_rss_mb", parallel["max_rss_mb"]],
        ],
        report,
    )


def cmd_synth(args: argparse.Namespace) -> int:
    from .loadgen.trace import synthesize_trace

    apps = [a for a in (args.apps or "").split(",") if a] or None
    if apps:
        for app in apps:
            get_app(app)  # raises KeyError -> exit 2 on unknown names
    try:
        trace = synthesize_trace(
            tenants=args.tenants,
            duration_s=args.duration_s,
            mean_rpm=args.mean_rpm,
            apps=apps,
            rate_sigma=args.rate_sigma,
            input_bytes=parse_size(args.input_bytes) if args.input_bytes else None,
            seed=args.seed,
            name=args.name,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if args.output:
        text = (
            trace.to_csv()
            if args.output.lower().endswith(".csv")
            else trace.to_json() + "\n"
        )
        with open(args.output, "w") as handle:
            handle.write(text)
        print(
            f"[wrote {args.output}: {len(trace)} events, "
            f"{len(trace.tenants())} tenants, {trace.duration_s:.1f}s]"
        )
    else:
        print(trace.to_json())
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    if not args.experiment:
        print("available experiments:")
        for experiment_id in experiment_ids():
            print(f"  {experiment_id}")
        return 0
    targets = experiment_ids() if args.experiment == "all" else [args.experiment]
    for experiment_id in targets:
        results = run_experiment(experiment_id, scale=args.scale)
        for result in results:
            print(result.render())
            print()
            if args.csv_dir:
                import pathlib

                directory = pathlib.Path(args.csv_dir)
                directory.mkdir(parents=True, exist_ok=True)
                path = directory / f"{result.experiment_id}.csv"
                path.write_text(result.to_csv())
                print(f"[wrote {path}]")
    return 0


def cmd_apps(args: argparse.Namespace) -> int:
    rows = []
    for spec in registered_apps():
        workflow = spec.build()
        rows.append(
            [
                spec.short_name,
                spec.title,
                len(workflow.functions),
                f"{spec.default_input_bytes / (1024 * 1024):g}MB",
                spec.default_fanout,
            ]
        )
    print(
        render_table(
            ["name", "title", "functions", "input", "fanout"],
            rows,
            title="registered apps",
        )
    )
    return 0


def cmd_systems(args: argparse.Namespace) -> int:
    from .experiments.common import SYSTEM_CLASSES

    rows = [
        [name, cls.__name__, (cls.__doc__ or "").strip().splitlines()[0]]
        for name, cls in SYSTEM_CLASSES.items()
    ]
    print(render_table(["name", "class", "summary"], rows, title="systems"))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve import create_server

    if not 0 <= args.port <= 65535:
        raise CliError(f"--port must be 0..65535, got {args.port}")
    if args.workers < 1:
        raise CliError("--workers must be >= 1")
    if args.max_events_per_run is not None and args.max_events_per_run < 1:
        raise CliError("--max-events-per-run must be >= 1")
    if args.max_queued is not None and args.max_queued < 1:
        raise CliError("--max-queued must be >= 1")
    if args.lease_timeout_s <= 0:
        raise CliError("--lease-timeout-s must be > 0")
    if args.heartbeat_timeout_s <= 0:
        raise CliError("--heartbeat-timeout-s must be > 0")
    default_config = None
    if args.tenant_config:
        # Same fail-fast gate as replay: a bad profile file kills the
        # server at boot with the tenant's name, not the first request.
        default_config = _load_tenant_config(
            args.tenant_config, "dataflower", "round_robin"
        )
    try:
        server = create_server(
            host=args.host,
            port=args.port,
            workers=args.workers,
            default_tenant_config=default_config,
            journal=args.journal,
            dashboard=not args.no_dashboard,
            max_events_per_run=args.max_events_per_run,
            max_queued=args.max_queued,
            lease_timeout_s=args.lease_timeout_s,
            heartbeat_timeout_s=args.heartbeat_timeout_s,
        )
    except OSError as exc:
        raise CliError(
            f"cannot bind {args.host}:{args.port}: {exc}"
        ) from None
    # Ctrl-C raises KeyboardInterrupt already; make SIGTERM (what CI,
    # shells backgrounding the server, and orchestrators send) take the
    # same clean-shutdown path instead of the default hard kill.
    import signal

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    durability = f"journal: {args.journal}" if args.journal else "no journal"
    dash = "dashboard off" if args.no_dashboard else \
        f"dashboard: {server.url}/dashboard"
    # flush: orchestrators and test harnesses parse this line from a
    # pipe to learn the ephemeral port before the first request.
    print(f"repro serve listening on {server.url} "
          f"({args.workers} job worker(s); {durability}; {dash}; "
          f"see docs/serve.md)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.close()
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    from .worker import run_worker

    if args.poll_s <= 0:
        raise CliError("--poll-s must be > 0")
    if args.max_cells is not None and args.max_cells < 1:
        raise CliError("--max-cells must be >= 1")
    return run_worker(
        args.server,
        name=args.name,
        poll_s=args.poll_s,
        max_cells=args.max_cells,
        quiet=args.quiet,
    )


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        text = open(args.file).read()
    except FileNotFoundError:
        raise CliError(f"no such file: {args.file}") from None
    try:
        from .workflow.dsl import parse_workflow

        workflow = parse_workflow(text)
    except (DslError, WorkflowValidationError) as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    from .workflow.visualize import render_workflow

    print(f"OK: workflow {workflow.name!r}, entry {workflow.entry!r}, "
          f"{len(workflow.functions)} functions")
    print(render_workflow(workflow))
    return 0


# -- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DataFlower reproduction: run workloads, experiments, "
        "and workflow validation from one entry point.",
    )
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="run one app x system x arrival pattern")
    run.add_argument("--app", required=True,
                     help="registered app short name (see 'repro apps')")
    run.add_argument("--system", default="dataflower", choices=system_names(),
                     help="execution system (default: dataflower)")
    run.add_argument("--arrivals", default="constant:60:20",
                     help="constant:<rpm>:<s> | burst:<rpm>:<rpm>:<s>:<s> | "
                     "closed:<clients>:<s> | trace:<file> "
                     "(default: constant:60:20)")
    run.add_argument("--placement", default="round_robin",
                     help="placement policy (round_robin, single_node, "
                     "hashed, offset:<n>)")
    run.add_argument("--tenant-config", default=None,
                     help="per-tenant profile file (JSON or YAML-lite; "
                     "requires trace arrivals, see docs/tenancy.md)")
    run.add_argument("--input-bytes", default=None,
                     help="request input size, e.g. 4MB (default: app default)")
    run.add_argument("--fanout", type=int, default=None,
                     help="FOREACH width (default: app default)")
    run.add_argument("--timeout-s", type=float, default=60.0,
                     help="per-request timeout (default: 60)")
    run.add_argument("--poisson", action="store_true",
                     help="Poisson (instead of paced) open-loop arrivals")
    run.add_argument("--seed", type=int, default=0,
                     help="system + arrival RNG seed")
    run.add_argument("--format", choices=["table", "json"], default="table",
                     help="report format (default: table)")
    run.add_argument("--output", default=None,
                     help="write the report to a file instead of stdout")
    run.set_defaults(func=cmd_run)

    replay = sub.add_parser(
        "replay",
        help="sharded parallel trace replay with a merged report",
    )
    replay.add_argument("trace", help="trace file (.json or .csv)")
    replay.add_argument("--app", default=None,
                        help="default app for events naming none")
    replay.add_argument("--system", default="dataflower",
                        choices=system_names(),
                        help="execution system (default: dataflower)")
    replay.add_argument("--placement", default="round_robin",
                        help="placement policy (round_robin, single_node, "
                        "hashed, offset:<n>)")
    replay.add_argument("--tenant-config", default=None,
                        help="per-tenant profile file: default profile + "
                        "per-tenant system/placement/limit overrides "
                        "(JSON or YAML-lite, see docs/tenancy.md)")
    replay.add_argument("--workers", type=int, default=1,
                        help="worker processes (default: 1, in-process "
                        "serial replay)")
    replay.add_argument("--spill-dir", default=None, metavar="PATH",
                        help="directory for sorted run files once merged "
                        "records pass --max-records-in-memory (default: "
                        "the system temp dir; the report is byte-identical "
                        "either way)")
    replay.add_argument("--max-records-in-memory", type=int, default=None,
                        metavar="N",
                        help="records buffered in RAM before cells spill "
                        "to disk (default: 10000)")
    replay.add_argument("--policy", default="tenant",
                        help="cell partition policy: tenant | "
                        "timeslice[:<seconds>] (default: tenant)")
    replay.add_argument("--seed", type=int, default=0,
                        help="root seed; per-cell seeds derive from it")
    replay.add_argument("--input-bytes", default=None,
                        help="input size for events carrying none, e.g. 4MB")
    replay.add_argument("--fanout", type=int, default=None,
                        help="FOREACH width for events carrying none")
    replay.add_argument("--timeout-s", type=float, default=60.0,
                        help="per-request timeout (default: 60)")
    replay.add_argument("--max-attempts", type=int, default=3,
                        help="replays of one cell before it counts as "
                        "failed; worker crashes, deadlines, and cell "
                        "errors all consume attempts (default: 3)")
    replay.add_argument("--deadline-s", type=float, default=None,
                        help="wall-clock budget per cell attempt; an "
                        "attempt over budget fails as 'timeout' and "
                        "retries (default: none)")
    replay.add_argument("--on-cell-failure", choices=["fail", "skip"],
                        default="fail",
                        help="after attempts are exhausted: 'fail' aborts "
                        "the replay, 'skip' drops the cell and reports it "
                        "under replay.failed_cells — exit code 3 "
                        "(default: fail)")
    replay.add_argument("--fault", action="append", default=None,
                        metavar="KIND:CELL[:ATTEMPT[:DELAY_S]]",
                        help="inject a host fault for chaos testing: kill "
                        "(SIGKILL the worker mid-cell), delay (sleep "
                        "DELAY_S first), or poison (raise); ATTEMPT picks "
                        "which attempt fires (1-based; 0 = every "
                        "attempt).  Repeatable (see docs/robustness.md)")
    replay.add_argument("--format", choices=["table", "json"],
                        default="table", help="report format (default: table)")
    replay.add_argument("--output", default=None,
                        help="write the report to a file instead of stdout")
    replay.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="also write the run's telemetry counters and "
                        "histograms as Prometheus text — the same format "
                        "'repro serve' exposes at GET /metrics "
                        "(see docs/observability.md)")
    replay.set_defaults(func=cmd_replay)

    synth = sub.add_parser(
        "synth", help="synthesize a deterministic multi-tenant trace file"
    )
    synth.add_argument("--tenants", type=int, default=8,
                       help="tenant count (default: 8)")
    synth.add_argument("--duration-s", type=float, default=60.0,
                       help="trace length in seconds (default: 60)")
    synth.add_argument("--mean-rpm", type=float, default=30.0,
                       help="mean per-tenant request rate (default: 30)")
    synth.add_argument("--apps", default=None,
                       help="comma-separated app names cycled over tenants")
    synth.add_argument("--rate-sigma", type=float, default=1.0,
                       help="lognormal tenant-rate skew; 0 = uniform "
                       "(default: 1.0)")
    synth.add_argument("--input-bytes", default=None,
                       help="mean input size with jitter, e.g. 4MB")
    synth.add_argument("--seed", type=int, default=0,
                       help="synthesis RNG seed (default: 0)")
    synth.add_argument("--name", default="synthetic",
                       help="trace name (default: synthetic)")
    synth.add_argument("--output", default=None,
                       help="output file; .csv writes CSV, anything else "
                       "JSON (default: JSON to stdout)")
    synth.set_defaults(func=cmd_synth)

    experiments = sub.add_parser(
        "experiments", help="list or re-run the paper-figure registry"
    )
    experiments.add_argument(
        "experiment", nargs="?",
        help=f"experiment id ({', '.join(experiment_ids())}) or 'all'"
    )
    experiments.add_argument("--scale", type=float, default=1.0,
                             help="shrink sweeps/durations (0 < scale <= 1)")
    experiments.add_argument("--csv-dir", default=None,
                             help="also write each table as <dir>/<id>.csv")
    experiments.set_defaults(func=cmd_experiments)

    apps = sub.add_parser("apps", help="list registered applications")
    apps.set_defaults(func=cmd_apps)

    systems = sub.add_parser("systems", help="list execution systems")
    systems.set_defaults(func=cmd_systems)

    validate = sub.add_parser(
        "validate", help="lint a Figure-7 DSL workflow file"
    )
    validate.add_argument("file", help="path to a workflow definition")
    validate.set_defaults(func=cmd_validate)

    serve = sub.add_parser(
        "serve",
        help="long-running HTTP orchestration service (REST + NDJSON)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port; 0 picks an ephemeral port "
                       "(default: 8080)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent job worker threads; each run may "
                       "additionally request its own replay process pool "
                       "(default: 2)")
    serve.add_argument("--tenant-config", default=None,
                       help="default per-tenant profile file applied to "
                       "runs that carry no inline tenant_config "
                       "(JSON or YAML-lite, see docs/tenancy.md)")
    serve.add_argument("--journal", default=None, metavar="PATH",
                       help="durable run journal (append-only JSONL): "
                       "runs survive restarts and resume from completed "
                       "cells; restarting on the same path recovers all "
                       "journaled runs (see docs/serve.md)")
    serve.add_argument("--max-events-per-run", type=int, default=10_000,
                       metavar="N",
                       help="in-RAM event-log cap per run (default "
                       "10000); older events spill to a per-run disk "
                       "spool that history replays come from")
    serve.add_argument("--max-queued", type=int, default=None, metavar="N",
                       help="admission control: reject new runs with "
                       "429 + Retry-After once N submissions are queued "
                       "(default: unbounded; see docs/robustness.md)")
    serve.add_argument("--lease-timeout-s", type=float, default=30.0,
                       metavar="S",
                       help="remote fleet: seconds a leased cell may run "
                       "before the lease expires and the cell requeues "
                       "(default: 30; see docs/workers.md)")
    serve.add_argument("--heartbeat-timeout-s", type=float, default=90.0,
                       metavar="S",
                       help="remote fleet: seconds of worker silence "
                       "before it is evicted and its leases expire "
                       "(default: 90; see docs/workers.md)")
    serve.add_argument("--no-dashboard", action="store_true",
                       help="disable GET /dashboard (the live telemetry "
                       "page); the API and GET /metrics stay up "
                       "(see docs/observability.md)")
    serve.set_defaults(func=cmd_serve)

    worker = sub.add_parser(
        "worker",
        help="join a 'repro serve' control plane as a remote replay "
        "worker (lease cells, replay, report)",
    )
    worker.add_argument("--server", required=True, metavar="URL",
                        help="control plane base URL, e.g. "
                        "http://127.0.0.1:8080")
    worker.add_argument("--name", default=None,
                        help="human-readable label shown in GET "
                        "/v1/workers and the dashboard")
    worker.add_argument("--poll-s", type=float, default=20.0, metavar="S",
                        help="long-poll length per lease request; the "
                        "server caps it at 30 (default: 20)")
    worker.add_argument("--max-cells", type=int, default=None, metavar="N",
                        help="exit cleanly after executing N cells "
                        "(default: run until SIGTERM)")
    worker.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")
    worker.set_defaults(func=cmd_worker)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from .parallel import CellFailedError

    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CellFailedError as exc:
        # A cell exhausted its retries under --on-cell-failure fail:
        # a run outcome (exit 1, like failed requests), not a usage
        # error — and never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
