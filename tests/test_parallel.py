"""Tests for the parallel replay engine (`repro.parallel`)."""

import pytest

from repro.loadgen.trace import InvocationTrace, synthesize_trace
from repro.parallel import (
    ReplaySpec,
    StreamingMerge,
    TenantShardPolicy,
    TimeSliceShardPolicy,
    get_shard_policy,
    replay_cell,
    run_parallel_replay,
)

MIXED_CSV = """at_s,tenant,app,input_bytes,fanout,seed
0.0,a,wc,4MB,4,0
0.7,b,etl,2MB,,1
1.5,a,wc,2MB,2,2
2.2,c,ml_ensemble,,,0
3.0,b,etl,1MB,,3
4.1,c,ml_ensemble,2MB,,1
"""


@pytest.fixture(scope="module")
def mixed_trace():
    return InvocationTrace.from_csv(MIXED_CSV, name="mixed")


# -- policies -----------------------------------------------------------------


def test_tenant_policy_splits_per_tenant(mixed_trace):
    cells = TenantShardPolicy().split(mixed_trace)
    assert [key for key, _ in cells] == ["a", "b", "c"]
    for key, cell in cells:
        assert all(e.tenant == key for e in cell.events)
    assert sum(len(cell) for _, cell in cells) == len(mixed_trace)


def test_timeslice_policy_splits_by_window(mixed_trace):
    cells = TimeSliceShardPolicy(slice_s=2.0).split(mixed_trace)
    keys = [key for key, _ in cells]
    assert keys == ["slice000000", "slice000001", "slice000002"]
    for _, cell in cells:
        starts = {int(e.at_s // 2.0) for e in cell.events}
        assert len(starts) == 1


def test_policy_registry_specs():
    assert isinstance(get_shard_policy("tenant"), TenantShardPolicy)
    policy = get_shard_policy("timeslice:30")
    assert isinstance(policy, TimeSliceShardPolicy)
    assert policy.slice_s == 30.0
    with pytest.raises(ValueError):
        get_shard_policy("tenant:5")
    with pytest.raises(ValueError):
        get_shard_policy("timeslice:-1")
    with pytest.raises(ValueError):
        get_shard_policy("bogus")


# -- spec ---------------------------------------------------------------------


def test_cell_seeds_differ_by_cell_not_by_shard_count():
    spec = ReplaySpec(seed=3)
    assert spec.cell_seed("a") == ReplaySpec(seed=3).cell_seed("a")
    assert spec.cell_seed("a") != spec.cell_seed("b")
    assert spec.cell_seed("a") != ReplaySpec(seed=4).cell_seed("a")


def test_spec_rejects_appless_cell():
    spec = ReplaySpec()  # no default_app
    trace = InvocationTrace.from_events([{"at_s": 0.0}])
    with pytest.raises(ValueError):
        spec.build_setup(trace, "default")


# -- engine -------------------------------------------------------------------


def test_replay_cell_prefixes_request_ids(mixed_trace):
    cells = TenantShardPolicy().split(mixed_trace)
    key, cell_trace = cells[0]
    result = replay_cell(ReplaySpec(), key, cell_trace)
    assert result.key == "a"
    assert result.offered == 2
    assert all(r.request_id.startswith("a/") for r in result.records)
    assert set(result.tenant_of.values()) == {"a"}


def test_cell_latency_is_derived_once_and_not_pickled(mixed_trace):
    """A worker's pickled cell carries its latency samples only in the
    records; the parent derives the summary on first use and keeps it."""
    import pickle

    key, cell_trace = TenantShardPolicy().split(mixed_trace)[0]
    result = replay_cell(ReplaySpec(), key, cell_trace)
    assert "latency" not in vars(pickle.loads(pickle.dumps(result)))
    latency = result.latency
    assert latency is result.latency
    assert latency.samples == tuple(
        r.latency for r in result.records if r.completed
    )


def test_shard_count_does_not_change_report(mixed_trace):
    """``shards`` only defaults ``workers``; the report never moves."""
    import os

    spec = ReplaySpec()
    results = [
        run_parallel_replay(mixed_trace, spec, shards=shards)
        for shards in (1, 2, 4)
    ]
    assert [result.workers for result in results] == [
        min(shards, os.cpu_count() or 1) for shards in (1, 2, 4)
    ]
    reports = [result.to_dict() for result in results]
    assert reports[0] == reports[1] == reports[2]
    with pytest.raises(ValueError):
        run_parallel_replay(mixed_trace, spec, shards=0)


def test_worker_processes_do_not_change_report(mixed_trace):
    """The serial executor and the work-stealing pool, byte for byte."""
    import sys

    from repro.metrics.report import render_json

    spec = ReplaySpec()
    serial = run_parallel_replay(mixed_trace, spec, workers=1)
    parallel = run_parallel_replay(mixed_trace, spec, workers=2)
    assert render_json(serial.to_dict()) == render_json(parallel.to_dict())
    assert parallel.workers == 2
    assert parallel.cell_count == 3
    assert parallel.wall_s > 0
    assert parallel.events_per_s() > 0
    if sys.platform != "win32":  # max_rss_mb() is documented 0.0 there
        assert parallel.rss_mb > 0


def test_merged_report_preserves_breakdowns(mixed_trace):
    result = run_parallel_replay(mixed_trace, ReplaySpec(), workers=1)
    report = result.to_dict()
    assert report["offered"] == len(mixed_trace)
    assert report["completed"] == len(mixed_trace)
    assert set(report["tenants"]) == {"a", "b", "c"}
    assert report["tenants"]["a"]["offered"] == 2
    assert set(report["workflows"]) == {"wordcount", "etl", "ml_ensemble"}
    assert report["replay"] == {"policy": "tenant", "cells": 3}
    assert report["usage"]["completed_requests"] == len(mixed_trace)
    # duration_s is the whole trace's span, not any one cell's.
    assert report["duration_s"] == mixed_trace.duration_s


def test_merge_order_is_shard_invariant(mixed_trace):
    """The merged records come out in canonical order, whatever order
    the executor delivered the cells in."""
    spec = ReplaySpec()
    cells = TenantShardPolicy().split(mixed_trace)
    results = [replay_cell(spec, key, cell) for key, cell in cells]
    merged = []
    for order in (results, results[::-1], results[1:] + results[:1]):
        merge = StreamingMerge(mixed_trace, spec)
        for cell in order:
            merge.add(cell)
        merged.append(merge.finalize())
    reference = [r.request_id for r in merged[0].records]
    for result in merged[1:]:
        assert result.to_dict() == merged[0].to_dict()
        assert [r.request_id for r in result.records] == reference


def test_streaming_merge_is_arrival_order_insensitive(mixed_trace):
    """Work stealing completes cells in any order; the fold canonicalizes."""
    from itertools import permutations

    spec = ReplaySpec()
    results = [
        replay_cell(spec, key, cell)
        for key, cell in TenantShardPolicy().split(mixed_trace)
    ]
    reference = None
    for order in permutations(range(len(results))):
        merge = StreamingMerge(mixed_trace, spec)
        for index in order:
            merge.add(results[index])
        report = merge.finalize().to_dict()
        if reference is None:
            reference = report
        assert report == reference, order


def test_streaming_merge_rejects_duplicate_cells(mixed_trace):
    spec = ReplaySpec()
    key, cell = TenantShardPolicy().split(mixed_trace)[0]
    result = replay_cell(spec, key, cell)
    merge = StreamingMerge(mixed_trace, spec)
    merge.add(result)
    with pytest.raises(ValueError):
        merge.add(result)


def test_timeslice_policy_also_shard_invariant(mixed_trace):
    spec = ReplaySpec()
    a = run_parallel_replay(
        mixed_trace, spec, workers=1, policy="timeslice:2"
    )
    b = run_parallel_replay(
        mixed_trace, spec, workers=2, policy="timeslice:2"
    )
    assert a.to_dict() == b.to_dict()
    assert a.policy_name == "timeslice"


def test_synthetic_trace_replay_deterministic_across_runs():
    trace = synthesize_trace(
        tenants=4, duration_s=20.0, mean_rpm=30, apps=["wc"], seed=11
    )
    spec = ReplaySpec(default_app="wc", seed=5)
    first = run_parallel_replay(trace, spec, workers=1)
    second = run_parallel_replay(trace, spec, workers=1)
    assert first.to_dict() == second.to_dict()
    # A different root seed steers every cell's world differently.
    reseeded = run_parallel_replay(
        trace, ReplaySpec(default_app="wc", seed=6), workers=1
    )
    assert reseeded.to_dict()["latency"] != first.to_dict()["latency"]


def test_appless_trace_requires_default_app():
    trace = InvocationTrace.from_events([{"at_s": 0.0, "tenant": "a"}])
    with pytest.raises(ValueError):
        run_parallel_replay(trace, ReplaySpec(), workers=1)


def test_empty_trace_merges_to_empty_report():
    trace = InvocationTrace(events=[], name="empty")
    result = run_parallel_replay(
        trace, ReplaySpec(default_app="wc"), workers=2
    )
    assert result.offered == 0
    assert result.records == []
    assert result.usage is None
    assert result.cell_count == 0
    assert result.to_dict()["latency"] is None
