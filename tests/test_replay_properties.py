"""Property-based executor/worker invariance for (heterogeneous) replay.

The engine's core guarantee: the merged report is a pure function of
(trace, spec, policy).  Seeded random traces crossed with random
tenant-profile maps must merge to byte-identical report dicts on the
serial executor, the work-stealing pool, and the remote fleet, at any
worker count, and per-cell seeds must never depend on which other cells
share a run or a worker.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.loadgen.trace import InvocationTrace, TraceEvent  # noqa: E402
from repro.parallel import (  # noqa: E402
    ReplaySpec,
    TenantProfile,
    run_parallel_replay,
)
from repro.parallel.policy import TenantShardPolicy  # noqa: E402

from fleet_harness import fleet_replay  # noqa: E402

TENANTS = ["t0", "t1", "t2", "t3"]
SYSTEMS = ["dataflower", "faasflow", "sonic", "production"]
PLACEMENTS = ["round_robin", "single_node", "hashed", "offset:1"]
APPS = ["wc", "etl"]

events = st.lists(
    st.builds(
        TraceEvent,
        at_s=st.floats(
            min_value=0.0, max_value=8.0,
            allow_nan=False, allow_infinity=False,
        ),
        tenant=st.sampled_from(TENANTS),
        app=st.sampled_from(APPS),
        fanout=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
        seed=st.integers(min_value=0, max_value=999),
    ),
    min_size=1,
    max_size=6,
)

profiles = st.dictionaries(
    st.sampled_from(TENANTS),
    st.builds(
        TenantProfile,
        system=st.one_of(st.none(), st.sampled_from(SYSTEMS)),
        placement=st.one_of(st.none(), st.sampled_from(PLACEMENTS)),
        timeout_s=st.one_of(st.none(), st.sampled_from([30.0, 60.0])),
        fanout=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
    ),
    max_size=3,
)

SLOW = settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)


@SLOW
@given(events=events, profile_map=profiles, seed=st.integers(0, 2**16))
def test_shard_count_never_changes_merged_report(events, profile_map, seed):
    """shards 1/2/4 — the ``workers`` default — merge to byte-identical
    report dicts."""
    from repro.metrics.report import render_json

    trace = InvocationTrace(events=events, name="prop")
    spec = ReplaySpec(
        default_app="wc", seed=seed, tenant_profiles=profile_map or None
    )
    reports = [
        run_parallel_replay(trace, spec, shards=shards).to_dict()
        for shards in (1, 2, 4)
    ]
    assert reports[0] == reports[1] == reports[2]
    # Byte-identical once serialized, not merely ==-equal as dicts.
    texts = {render_json(report) for report in reports}
    assert len(texts) == 1


@settings(max_examples=2, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(events=events, profile_map=profiles)
def test_worker_count_never_changes_merged_report(events, profile_map):
    """workers 1 vs 2 (real process pool) merge identically."""
    trace = InvocationTrace(events=events, name="prop")
    spec = ReplaySpec(
        default_app="wc", seed=3, tenant_profiles=profile_map or None
    )
    one = run_parallel_replay(trace, spec, workers=1).to_dict()
    two = run_parallel_replay(trace, spec, workers=2).to_dict()
    assert one == two


def _skewed_events(draw_events):
    """Skew a random event list: the first tenant gets ~10x the events."""
    hot = [
        TraceEvent(
            at_s=event.at_s + 0.1 * i,
            tenant=TENANTS[0],
            app=event.app,
            fanout=event.fanout,
            seed=event.seed + i,
        )
        for event in draw_events
        for i in range(3)
    ]
    return draw_events + hot


@settings(max_examples=2, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(events=events, profile_map=profiles, seed=st.integers(0, 2**16))
def test_streamed_work_stealing_matches_serial_byte_for_byte(
    events, profile_map, seed
):
    """The tentpole invariant: the work-stealing pool (2/3 workers) and
    the remote fleet (2 workers) merge byte-identical to the serial
    executor over random skewed traces — completion/steal/lease order
    never leaks."""
    from repro.metrics.report import render_json

    trace = InvocationTrace(events=_skewed_events(events), name="prop-skew")
    spec = ReplaySpec(
        default_app="wc", seed=seed, tenant_profiles=profile_map or None
    )
    serial = render_json(
        run_parallel_replay(trace, spec, workers=1).to_dict()
    )
    for workers in (2, 3):
        pooled = run_parallel_replay(trace, spec, workers=workers)
        assert render_json(pooled.to_dict()) == serial, workers
    fleet = fleet_replay(trace, spec, 2)
    assert render_json(fleet.to_dict()) == serial


@settings(max_examples=25, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(
    events=events,
    profile_map=profiles,
    seed=st.integers(0, 2**16),
    shards=st.integers(min_value=1, max_value=5),
)
def test_cell_seeds_are_independent_of_sharding(
    events, profile_map, seed, shards
):
    """Per-cell seeds derive from (spec, cell) alone — regrouping the
    same cells into any number of sub-traces yields the same seed per
    key, so no batch, worker, or neighbouring cell can leak into a
    cell's RNG streams."""
    trace = InvocationTrace(events=events, name="prop")
    spec = ReplaySpec(
        default_app="wc", seed=seed, tenant_profiles=profile_map or None
    )
    cells = TenantShardPolicy().split(trace)
    direct = {key: spec.cell_seed(key, cell) for key, cell in cells}
    tags = {key: spec.resolve(key, cell).tag() for key, cell in cells}
    regrouped = {}
    for index in range(shards):
        group = InvocationTrace(
            events=[
                event
                for position, (_key, cell) in enumerate(cells)
                if position % shards == index
                for event in cell.events
            ],
            name="prop",
        )
        for key, cell in TenantShardPolicy().split(group):
            regrouped[key] = spec.cell_seed(key, cell)
            # Resolution itself is cell-pure: same profile tag either way.
            assert spec.resolve(key, cell).tag() == tags[key]
    assert regrouped == direct


@settings(max_examples=25, deadline=None)
@given(profile_map=profiles, seed=st.integers(0, 2**16))
def test_distinct_cells_get_distinct_seeds(profile_map, seed):
    spec = ReplaySpec(
        default_app="wc", seed=seed, tenant_profiles=profile_map or None
    )
    seeds = [spec.cell_seed(tenant) for tenant in TENANTS]
    assert len(set(seeds)) == len(seeds)
