"""Tests for statistics, latency records, usage summaries, and reporting."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    LatencySummary,
    RequestRecord,
    TaskRecord,
    cdf_at,
    cdf_points,
    mean,
    p50,
    p99,
    percentile,
    render_table,
    stddev,
)
from repro.metrics.report import format_cell
from repro.metrics.usage import UsageSummary


# -- stats ----------------------------------------------------------------------


def test_mean_and_stddev():
    values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
    assert mean(values) == pytest.approx(5.0)
    assert stddev(values) == pytest.approx(2.0)


def test_empty_sequences_rejected():
    for fn in [mean, stddev, p50, p99]:
        with pytest.raises(ValueError):
            fn([])
    with pytest.raises(ValueError):
        cdf_at([], 1.0)


def test_percentile_interpolation():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)
    assert p50([5.0]) == 5.0


def test_percentile_bounds():
    with pytest.raises(ValueError):
        percentile([1.0], -1)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_cdf_points_monotone():
    points = cdf_points([3.0, 1.0, 2.0])
    assert points == [(1.0, pytest.approx(1 / 3)), (2.0, pytest.approx(2 / 3)),
                      (3.0, pytest.approx(1.0))]


def test_cdf_at():
    values = [1.0, 2.0, 3.0, 4.0]
    assert cdf_at(values, 2.5) == 0.5
    assert cdf_at(values, 0.0) == 0.0
    assert cdf_at(values, 10.0) == 1.0


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50),
    q=st.floats(min_value=0, max_value=100),
)
def test_property_percentile_within_range(values, q):
    result = percentile(values, q)
    assert min(values) <= result <= max(values)


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=50)
)
def test_property_percentile_monotone_in_q(values):
    assert percentile(values, 25) <= percentile(values, 75)
    assert percentile(values, 50) <= percentile(values, 99)


# -- latency records ------------------------------------------------------------


def make_record(latency, request_id="r"):
    return RequestRecord(
        request_id=request_id, workflow="w", submit_time=10.0,
        end_time=10.0 + latency,
    )


def test_request_record_latency():
    record = make_record(2.5)
    assert record.completed
    assert record.latency == pytest.approx(2.5)


def test_request_record_incomplete_latency_raises():
    record = RequestRecord(request_id="r", workflow="w", submit_time=0.0)
    assert not record.completed
    with pytest.raises(ValueError):
        _ = record.latency


def test_failed_record_not_completed():
    record = make_record(1.0)
    record.failed = True
    assert not record.completed


def test_task_lookup():
    record = make_record(1.0)
    record.tasks.append(TaskRecord(task_id="t1", function="f"))
    assert record.task("t1").function == "f"
    with pytest.raises(KeyError):
        record.task("missing")


def test_task_record_derived_fields():
    task = TaskRecord(
        task_id="t", function="f", ready_time=1.0, trigger_time=1.05,
        get_s=0.2, compute_s=0.5, put_s=0.3,
    )
    assert task.trigger_overhead == pytest.approx(0.05)
    assert task.comm_s == pytest.approx(0.5)


def test_latency_summary():
    records = [make_record(lat, f"r{i}") for i, lat in enumerate([1, 2, 3, 4])]
    summary = LatencySummary.from_records(records)
    assert summary.count == 4
    assert summary.mean_s == pytest.approx(2.5)
    assert summary.max_s == 4.0
    assert summary.p50_s == pytest.approx(2.5)


def test_latency_summary_empty_raises():
    with pytest.raises(ValueError):
        LatencySummary.from_records([])


def test_latency_merge_equals_union():
    """Folding split record-sets equals from_records on the union, exactly."""
    latencies = [0.5, 3.0, 1.25, 2.0, 0.75, 4.5, 1.0]
    records = [make_record(lat, f"r{i}") for i, lat in enumerate(latencies)]
    for split in (1, 3, 5):
        merged = LatencySummary.fold([
            LatencySummary.from_records(records[:split]),
            LatencySummary.from_records(records[split:]),
        ])
        union = LatencySummary.from_records(records)
        assert merged == union
        assert merged.mean_s == union.mean_s  # bit-identical, not approx
        assert merged.p99_s == union.p99_s
        assert merged.sigma_s == union.sigma_s


@given(
    st.lists(st.floats(min_value=0.001, max_value=100.0), min_size=1, max_size=40),
    st.lists(st.floats(min_value=0.001, max_value=100.0), min_size=1, max_size=40),
)
@settings(max_examples=50, deadline=None)
def test_latency_merge_matches_union_property(left, right):
    merged = LatencySummary.fold([
        LatencySummary.from_latencies(left),
        LatencySummary.from_latencies(right),
    ])
    assert merged == LatencySummary.from_latencies(left + right)


def test_lazy_latency_merge_equals_union_from_latencies():
    """The lazy summary's fold equals from_latencies on the union —
    the statistics materialize on first read, byte-identical to eager
    computation, whether or not the operands were already read."""
    left = [0.5, 3.0, 1.25, 2.0]
    right = [0.75, 4.5, 1.0]
    union = LatencySummary.from_latencies(left + right)

    # Never-read operands: the fold is pure concatenation, stats deferred.
    merged = LatencySummary.fold([
        LatencySummary.from_latencies(left),
        LatencySummary.from_latencies(right),
    ])
    assert merged.samples == tuple(left + right)
    assert merged == union
    assert merged.mean_s == union.mean_s  # bit-identical, not approx
    assert merged.p99_s == union.p99_s
    assert merged.sigma_s == union.sigma_s

    # Already-materialized operands fold to the same statistics.
    a, b = LatencySummary.from_latencies(left), LatencySummary.from_latencies(right)
    assert a.p50_s and b.p50_s  # force materialization
    assert LatencySummary.fold([a, b]) == union
    assert LatencySummary.fold([a, b]).p99_s == union.p99_s


def test_lazy_latency_fold_equals_chained_merges():
    chunks = [[1.0, 3.0], [0.5], [2.0, 0.25, 4.0]]
    summaries = [LatencySummary.from_latencies(c) for c in chunks]
    folded = LatencySummary.fold(summaries)
    chained = LatencySummary.fold([
        LatencySummary.fold(summaries[:2]), summaries[2],
    ])
    assert folded == chained
    assert folded.samples == chained.samples
    assert folded.samples == (1.0, 3.0, 0.5, 2.0, 0.25, 4.0)
    assert LatencySummary.fold([summaries[0]]) is summaries[0]
    with pytest.raises(ValueError):
        LatencySummary.fold([])
    with pytest.raises(TypeError):
        LatencySummary.fold([summaries[0], "nope"])


def test_lazy_latency_summary_pickles():
    """CellResults carry summaries across process boundaries."""
    import pickle

    summary = LatencySummary.from_latencies([2.0, 1.0, 3.0])
    clone = pickle.loads(pickle.dumps(summary))
    assert clone == summary
    assert clone.samples == summary.samples


def test_latency_samples_stay_out_of_reports():
    from repro.metrics.report import summary_to_dict

    summary = LatencySummary.from_latencies([1.0, 2.0, 3.0])
    assert summary.samples == (1.0, 2.0, 3.0)
    assert set(summary_to_dict(summary)) == {
        "count", "mean_s", "p50_s", "p99_s", "sigma_s", "max_s",
    }


# -- usage ------------------------------------------------------------------------


def test_usage_summary_per_request():
    usage = UsageSummary(memory_gbs=10.0, cache_mbs=100.0, completed_requests=5)
    assert usage.memory_gbs_per_request == pytest.approx(2.0)
    assert usage.cache_mbs_per_request == pytest.approx(20.0)


def test_usage_summary_zero_requests_is_nan():
    usage = UsageSummary(memory_gbs=10.0, cache_mbs=1.0, completed_requests=0)
    assert math.isnan(usage.memory_gbs_per_request)


def test_usage_merge_adds_integrals():
    a = UsageSummary(memory_gbs=10.0, cache_mbs=100.0, completed_requests=5)
    b = UsageSummary(memory_gbs=2.5, cache_mbs=30.0, completed_requests=3)
    merged = a.merge(b)
    assert merged == UsageSummary(12.5, 130.0, 8)
    assert merged.memory_gbs_per_request == pytest.approx(12.5 / 8)
    with pytest.raises(TypeError):
        a.merge(3.0)


# -- report -----------------------------------------------------------------------


def test_render_table_alignment():
    table = render_table(["name", "value"], [["a", 1.5], ["bbb", 22]], title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[2]
    assert lines[-1].startswith("bbb")


def test_render_table_row_length_mismatch():
    with pytest.raises(ValueError):
        render_table(["a"], [["x", "y"]])


def test_format_cell_variants():
    assert format_cell(None) == "-"
    assert format_cell(True) == "yes"
    assert format_cell(float("nan")) == "fail"
    assert format_cell(0.5) == "0.5"
    assert format_cell(123456.0) == "1.23e+05"
    assert format_cell("txt") == "txt"
    assert format_cell(0.0) == "0"
