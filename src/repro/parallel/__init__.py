"""Streaming parallel trace replay: scale replay across CPU cores.

The layer between the load generator and the simulator: it partitions an
:class:`~repro.loadgen.trace.InvocationTrace` into independent cells
(:mod:`~repro.parallel.policy`), replays each in its own fresh simulated
world — in worker processes when ``workers > 1``, scheduled by a
cell-granular work-stealing queue — from a picklable
:class:`~repro.parallel.spec.ReplaySpec`, and folds every executor's
per-cell outcomes into one online, deterministic merge
(:mod:`~repro.parallel.engine`).  ``repro replay`` is the CLI front-end;
``docs/scaling.md`` covers the architecture and policy trade-offs.
"""

from .engine import (
    CellResult,
    ParallelReplayResult,
    StreamingMerge,
    max_rss_mb,
    replay_cell,
    run_parallel_replay,
)
from .policy import (
    ShardPolicy,
    TenantShardPolicy,
    TimeSliceShardPolicy,
    get_shard_policy,
    shard_policy_names,
)
from .profiles import (
    TenantConfig,
    TenantProfile,
    TenantProfileError,
    validated_tenant_config,
)
from .resilience import (
    FAILURE_KINDS,
    CellDeadlineExceeded,
    CellFailedError,
    CellFailure,
    FaultSpec,
    HostFaultPlan,
    PoisonError,
    RetryPolicy,
    WorkerCrashError,
    classify_failure,
)
from .spec import ReplaySpec, ResolvedProfile

__all__ = [
    "CellDeadlineExceeded",
    "CellFailedError",
    "CellFailure",
    "CellResult",
    "FAILURE_KINDS",
    "FaultSpec",
    "HostFaultPlan",
    "ParallelReplayResult",
    "PoisonError",
    "ReplaySpec",
    "ResolvedProfile",
    "RetryPolicy",
    "ShardPolicy",
    "StreamingMerge",
    "TenantConfig",
    "TenantProfile",
    "TenantProfileError",
    "TenantShardPolicy",
    "TimeSliceShardPolicy",
    "WorkerCrashError",
    "classify_failure",
    "get_shard_policy",
    "max_rss_mb",
    "replay_cell",
    "run_parallel_replay",
    "shard_policy_names",
    "validated_tenant_config",
]
