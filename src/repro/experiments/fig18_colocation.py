"""Figure 18: co-locating all four benchmarks on the shared workers.

All four workflows deploy onto the same three workers (offset round-robin
so functions interleave across nodes) and run concurrently at increasing
asynchronous load: Solo (alone, baseline), then Low/Mid/High/Ultra
multipliers.  Paper observations: DataFlower has the shortest latency in
every co-location case; FaaSFlow and SONIC *fail* at Ultra load (no
efficient container scaling policy on overtaxed machines); no benchmark
degrades more than 2x vs Solo under DataFlower at high load.

A second table (``fig18-tenancy``) extends the co-location theme to
heterogeneous tenancy: two tenants from one trace replay on *different*
systems and placements via tenant profiles (``docs/tenancy.md``).
"""

from __future__ import annotations

from typing import Dict, List

from ..apps import APP_ORDER, get_app
from ..cluster.cluster import Cluster, ClusterConfig
from ..loadgen.arrivals import arrival_times, constant
from ..loadgen.runner import _guarded_submit, _produce
from ..metrics.stats import mean
from ..sim.deadlines import Deadlines
from ..sim.environment import Environment
from ..systems.placement import offset_round_robin
from ..workflow.instance import RequestSpec
from .common import COMPARED_SYSTEMS, _CONFIG_CLASSES, _SYSTEM_CLASSES, open_loop_run
from .registry import ExperimentResult

EXPERIMENT_ID = "fig18"
TITLE = "Co-located benchmarks at increasing load"
TENANCY_ID = "fig18-tenancy"
TENANCY_TITLE = "Heterogeneous per-tenant replay (one trace, mixed systems)"

#: Per-benchmark offered load at the "Low" level (rpm).
BASE_RPM: Dict[str, float] = {"img": 10, "vid": 5, "svd": 10, "wc": 20}
LEVELS: Dict[str, float] = {"low": 1.0, "mid": 3.0, "high": 6.0, "ultra": 20.0}
DURATION_S = 60.0
TIMEOUT_S = 45.0


def _co_run(system_name: str, multiplier: float, duration: float):
    """Run all four benchmarks concurrently on one cluster."""
    env = Environment()
    cluster = Cluster(env, ClusterConfig())
    system = _SYSTEM_CLASSES[system_name](
        env, cluster, _CONFIG_CLASSES[system_name]()
    )
    for offset, app_name in enumerate(APP_ORDER):
        workflow = get_app(app_name).build()
        system.deploy(
            workflow, offset_round_robin(offset)(workflow, cluster.workers)
        )

    records_by_app: Dict[str, list] = {name: [] for name in APP_ORDER}
    guards = []
    timeouts = Deadlines(env, TIMEOUT_S)

    def generate(app_name: str, workflow_name: str):
        app = get_app(app_name)
        times = arrival_times(
            constant(BASE_RPM[app_name] * multiplier, duration)
        )

        def arrive(_index: int) -> None:
            request = RequestSpec(
                request_id=system.next_request_id(workflow_name),
                input_bytes=app.default_input_bytes,
                fanout=app.default_fanout,
            )
            record, guard = _guarded_submit(
                system, workflow_name, request, timeouts
            )
            records_by_app[app_name].append(record)
            guards.append(guard)

        return _produce(env, times, arrive)

    app_to_workflow = {
        "img": "imageproc", "vid": "video", "svd": "svd", "wc": "wordcount",
    }
    producers = [
        generate(app_name, app_to_workflow[app_name])
        for app_name in APP_ORDER
    ]
    env.run(until=env.all_of(producers))
    if guards:
        env.run(until=env.all_of(guards))
    return records_by_app


def _tenancy_result(scale: float) -> ExperimentResult:
    """Two tenants from one trace replayed on different systems.

    The roadmap's multi-tenant item realized: one synthesized trace,
    tenant cells resolved through heterogeneous profiles (DataFlower vs
    FaaSFlow on different placements), merged into one report whose
    per-tenant sections are tagged with the profile used.
    """
    from ..loadgen.trace import synthesize_trace
    from ..parallel import ReplaySpec, TenantProfile, run_parallel_replay

    trace = synthesize_trace(
        tenants=2,
        duration_s=max(20.0, 45.0 * scale),
        mean_rpm=30.0,
        apps=["wc"],
        rate_sigma=0.0,
        seed=18,
        name="tenancy",
    )
    spec = ReplaySpec(
        default_app="wc",
        seed=18,
        tenant_profiles={
            "tenant0": TenantProfile(system="dataflower"),
            "tenant1": TenantProfile(system="faasflow", placement="offset:1"),
        },
    )
    report = run_parallel_replay(trace, spec, workers=1).to_dict()
    rows = []
    for tenant, stats in sorted(report["tenants"].items()):
        profile = stats.get("profile", {})
        latency = stats.get("latency") or {}
        rows.append(
            [
                tenant,
                profile.get("system"),
                profile.get("placement"),
                stats["offered"],
                stats["completed"],
                latency.get("p50_s"),
                latency.get("p99_s"),
            ]
        )
    return ExperimentResult(
        TENANCY_ID,
        TENANCY_TITLE,
        ["tenant", "system", "placement", "offered", "completed",
         "p50_s", "p99_s"],
        rows,
        notes=[
            "one trace, per-tenant profiles (repro replay --tenant-config); "
            "merged report is bit-identical at any --workers",
        ],
    )


def run(scale: float = 1.0) -> List[ExperimentResult]:
    # Overload failures need time to develop: queues must outgrow the
    # request timeout, so the duration floor stays close to full scale.
    duration = max(40.0, DURATION_S * scale)
    rows = []
    solo_latency: Dict[tuple, float] = {}

    # Solo baselines: each benchmark alone at its Low rate.
    for system_name in COMPARED_SYSTEMS:
        for app_name in APP_ORDER:
            result = open_loop_run(
                system_name, app_name,
                constant(BASE_RPM[app_name], duration),
                timeout_s=TIMEOUT_S,
            )
            avg = (
                mean([r.latency for r in result.completed])
                if result.completed
                else float("nan")
            )
            solo_latency[(system_name, app_name)] = avg
            rows.append([app_name, "solo", system_name, avg, 0.0,
                         len(result.failed)])

    # Co-located levels (reduced scale keeps the two extremes).
    levels = (
        LEVELS
        if scale >= 0.5
        else {"low": LEVELS["low"], "ultra": LEVELS["ultra"]}
    )
    for level, multiplier in levels.items():
        for system_name in COMPARED_SYSTEMS:
            records_by_app = _co_run(system_name, multiplier, duration)
            for app_name in APP_ORDER:
                records = records_by_app[app_name]
                completed = [r for r in records if r.completed]
                failed = [r for r in records if r.failed]
                if completed:
                    avg = mean([r.latency for r in completed])
                    baseline = solo_latency[(system_name, app_name)]
                    degradation = avg / baseline if baseline > 0 else float("nan")
                else:
                    avg = float("nan")
                    degradation = float("nan")
                rows.append(
                    [app_name, level, system_name, avg, degradation, len(failed)]
                )

    return [
        ExperimentResult(
            EXPERIMENT_ID,
            TITLE,
            ["bench", "level", "system", "avg_latency_s", "vs_solo", "failed"],
            rows,
            notes=[
                "paper: DataFlower shortest in all cases; FaaSFlow/SONIC fail "
                "at Ultra; DataFlower degradation < 2x at high load",
            ],
        ),
        _tenancy_result(scale),
    ]
