"""The benchmark's four workloads and the inputs each makes from a seed.

Every workload builds its trace with :func:`make_trace`: each tenant is
a Poisson process conditioned on a fixed event count, with tenant rates
at fixed lognormal quantiles.  The seed moves arrival times and
per-request seeds but not the tenant mix or the event count, so two
seeds load the system alike and runs at different seeds are
comparable.  (``synthesize_trace`` draws the tenant weights from the
seed too; on 16 tenants, seeds 7 and 11 differ by nearly half in event
count and by a fifth in events/s from that alone.)

The program under test receives only what is built here: a trace and a
:class:`~repro.parallel.spec.ReplaySpec`, or a ``POST /v1/runs`` body.
Why each workload exists is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from statistics import NormalDist
from typing import Dict, Tuple, Union

from repro.loadgen.trace import InvocationTrace, TraceEvent
from repro.parallel.spec import ReplaySpec

DEFAULT_SEED = 7


def make_trace(
    seed: int,
    name: str,
    tenants: int,
    duration_s: float,
    mean_rpm: float,
    apps: Tuple[str, ...],
    rate_sigma: float,
) -> InvocationTrace:
    """A multi-tenant trace whose shape is fixed and whose timing is seeded.

    Tenant ``i`` invokes ``apps[i % len(apps)]`` at ``mean_rpm`` times
    the lognormal(0, ``rate_sigma``) quantile at ``1 - (i + 0.5) /
    tenants`` (tenant 0 is the heaviest), with exactly
    ``round(duration_s * rate)`` arrivals placed uniformly at random:
    a Poisson process conditioned on its count.  Tenants whose count
    rounds to zero send nothing.
    """
    normal = NormalDist()
    events = []
    for i in range(tenants):
        weight = math.exp(rate_sigma * normal.inv_cdf(1 - (i + 0.5) / tenants))
        count = round(duration_s * mean_rpm * weight / 60.0)
        rng = random.Random(f"{name}:{seed}:{i}")
        app = apps[i % len(apps)]
        for at_s in sorted(rng.uniform(0.0, duration_s) for _ in range(count)):
            events.append(
                TraceEvent(
                    at_s=at_s,
                    tenant=f"tenant{i}",
                    app=app,
                    seed=rng.randrange(1 << 16),
                )
            )
    return InvocationTrace(events=events, name=name)


@dataclass(frozen=True)
class ReplayWorkload:
    """A trace replayed through ``run_parallel_replay`` in a subprocess."""

    name: str
    system: str
    tenants: int
    duration_s: float
    mean_rpm: float
    apps: Tuple[str, ...]
    rate_sigma: float
    #: Replay worker processes (and shards); 1 is the in-process serial fold.
    workers: int = 1

    def trace(self, seed: int) -> InvocationTrace:
        return make_trace(
            seed, self.name, self.tenants, self.duration_s, self.mean_rpm,
            self.apps, self.rate_sigma,
        )

    def spec(self, seed: int) -> ReplaySpec:
        return ReplaySpec(system_name=self.system, default_app="wc", seed=seed)


@dataclass(frozen=True)
class ServeWorkload:
    """Closed-loop local and remote runs against ``repro serve``."""

    name: str
    tenants: int
    duration_s: float
    mean_rpm: float
    app: str

    def body(self, seed: int) -> dict:
        """The local run's ``POST /v1/runs`` body: an inline trace + seed.

        The remote client sends the same body plus ``"workers":
        "remote"``, which changes the executor and not the report.
        """
        trace = make_trace(
            seed, self.name, self.tenants, self.duration_s, self.mean_rpm,
            (self.app,), 0.0,
        )
        return {
            "app": self.app,
            "seed": seed,
            "trace": {
                "name": trace.name,
                "events": [
                    {"at_s": e.at_s, "tenant": e.tenant, "app": e.app,
                     "seed": e.seed}
                    for e in trace.events
                ],
            },
        }


Workload = Union[ReplayWorkload, ServeWorkload]

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # DataFlower's own path on a skewed mix of four apps: sim, core
        # (DLU/pipes) and cluster share the time.
        ReplayWorkload(
            name="replay-dataflower", system="dataflower",
            tenants=16, duration_s=60.0, mean_rpm=40.0,
            apps=("wc", "etl", "ml_ensemble", "vid"), rate_sigma=1.0,
        ),
        # The control-flow baseline just below saturation: every 24 MB
        # intermediate crosses the shared backend links, core is idle.
        # Near saturation the work per request follows how arrivals
        # cluster, so the trace is long enough to average that over seeds.
        ReplayWorkload(
            name="replay-controlflow", system="production",
            tenants=8, duration_s=150.0, mean_rpm=70.0,
            apps=("vid",), rate_sigma=0.0,
        ),
        # ~400 small cells on a 2-process pool: world build, pickling,
        # fold and finalize weigh against simulation.
        ReplayWorkload(
            name="replay-pool", system="dataflower",
            tenants=400, duration_s=70.0, mean_rpm=3.0,
            apps=("wc", "ml_ensemble"), rate_sigma=1.0, workers=2,
        ),
        # ~80 events per run, so HTTP, the job queue, journal fsyncs and
        # lease round trips dominate.
        ServeWorkload(
            name="serve-mixed", tenants=4, duration_s=20.0, mean_rpm=60.0,
            app="wc",
        ),
    )
}
