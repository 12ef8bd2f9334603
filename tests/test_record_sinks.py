"""The record sink: bounded-memory merges that never change bytes.

Three guarantee families, mirroring ``src/repro/parallel/sink.py``:

- **Identity**: the merged report and the canonical record sequence are
  byte-identical at every spill threshold — ``1``, a small value, and
  unbounded (``sys.maxsize``) — on every executor: serial, pool, remote
  fleet (hypothesis property over skewed traces).  The oracle never
  touches the sink: every cell replayed on its own, records
  concatenated and ``sorted`` by ``(submit_time, request_id)``.
- **Integrity**: a torn or truncated spill run file raises
  :class:`~repro.parallel.sink.SpillError` at finalize — never a
  silently short report.
- **Boundedness**: buffers flush at the threshold, finalize streams the
  k-way merge without materializing the record list, a run that never
  crosses the threshold creates no scratch at all, and the engine
  counts spilled records into telemetry.
"""

import json
import sys
import tracemalloc

import pytest

from repro.loadgen.trace import InvocationTrace, TraceEvent
from repro.metrics.report import render_json
from repro.parallel import (
    ReplaySpec,
    StreamingMerge,
    get_shard_policy,
    run_parallel_replay,
)
from repro.parallel.engine import replay_cell
from repro.parallel.sink import (
    DEFAULT_MAX_RECORDS_IN_MEMORY,
    RecordSink,
    RecordSinkSpec,
    SpillError,
    SpilledRecords,
    record_from_payload,
    record_to_payload,
)

from fleet_harness import fleet_replay

TENANTS = ["t0", "t1", "t2", "t3"]
UNBOUNDED = sys.maxsize


def _trace(events_per_tenant=3, tenants=TENANTS):
    events = [
        TraceEvent(at_s=0.5 * i, tenant=tenant, app="wc", seed=i)
        for tenant in tenants
        for i in range(events_per_tenant)
    ]
    return InvocationTrace(events=events, name="sink-test")


def _sink_spec(tmp_path, max_records=4):
    return RecordSinkSpec(
        spill_dir=str(tmp_path),
        max_records_in_memory=max_records,
    )


def _oracle_records(trace, spec):
    """The canonical record sequence without the sink: each cell
    replayed alone, all records concatenated, globally sorted."""
    records = []
    for key, cell_trace in get_shard_policy("tenant").split(trace):
        records.extend(replay_cell(spec, key, cell_trace).records)
    return sorted(records, key=lambda r: (r.submit_time, r.request_id))


# -- configuration ------------------------------------------------------------


def test_sink_spec_rejects_nonpositive_threshold():
    with pytest.raises(ValueError, match="max_records_in_memory"):
        RecordSinkSpec(max_records_in_memory=0)
    with pytest.raises(ValueError, match="max_records_in_memory"):
        RecordSink(max_records_in_memory=0)


def test_default_sink_is_bounded():
    assert RecordSinkSpec().max_records_in_memory == (
        DEFAULT_MAX_RECORDS_IN_MEMORY
    )
    merge = StreamingMerge(_trace(), ReplaySpec(default_app="wc"))
    assert merge.sink._threshold == DEFAULT_MAX_RECORDS_IN_MEMORY


# -- record payload round-trip ------------------------------------------------


def test_record_payload_round_trips_exactly():
    result = run_parallel_replay(
        _trace(), ReplaySpec(default_app="wc", seed=3), workers=1
    )
    for record in result.records:
        payload = json.loads(
            json.dumps(record_to_payload(record), separators=(",", ":"))
        )
        rebuilt = record_from_payload(payload)
        assert rebuilt == record


# -- engine-level identity across thresholds ----------------------------------


def _report(trace, workers, record_sink=None):
    spec = ReplaySpec(default_app="wc", seed=11, record_sink=record_sink)
    return run_parallel_replay(trace, spec, workers=workers)


def test_spill_sink_report_and_records_match_memory(tmp_path):
    """Spilled (thresholds 1 and 4) and in-RAM (unbounded) results
    agree with the unbounded report and the sink-free oracle."""
    trace = _trace(events_per_tenant=5)
    oracle = _oracle_records(trace, ReplaySpec(default_app="wc", seed=11))
    canonical = render_json(_report(
        trace, workers=1, record_sink=_sink_spec(tmp_path, UNBOUNDED)
    ).to_dict())
    for threshold in (1, 4, UNBOUNDED):
        result = _report(
            trace, workers=1, record_sink=_sink_spec(tmp_path, threshold)
        )
        assert render_json(result.to_dict()) == canonical, threshold
        assert list(result.records) == oracle, threshold
        spilled = threshold < len(oracle)
        assert isinstance(result.records, SpilledRecords) is spilled
        assert isinstance(result.records, list) is not spilled
        if spilled:
            result.records.close()
        assert list(tmp_path.iterdir()) == []


def test_spill_branch_point(tmp_path):
    """Below the threshold nothing touches ``spill_dir``; above it the
    result is disk-backed and its directory goes away on ``close()``."""
    trace = _trace(events_per_tenant=2)
    total = len(trace)
    below = _report(
        trace, workers=1, record_sink=_sink_spec(tmp_path, total)
    )
    assert type(below.records) is list
    assert len(below.records) == total
    assert list(tmp_path.iterdir()) == []

    above = _report(
        trace, workers=1, record_sink=_sink_spec(tmp_path, total - 1)
    )
    assert isinstance(above.records, SpilledRecords)
    assert list(above.records) == below.records
    scratch = above.records.path.parent
    assert scratch.parent == tmp_path and scratch.is_dir()
    above.records.close()
    assert not scratch.exists()
    assert list(tmp_path.iterdir()) == []


def test_spill_scratch_cleaned_up_on_close(tmp_path):
    spill = _report(
        trace=_trace(), workers=1,
        record_sink=_sink_spec(tmp_path, max_records=1),
    )
    assert isinstance(spill.records, SpilledRecords)
    assert spill.records.path.exists()
    spill.records.close()
    assert not spill.records.path.exists()
    assert list(tmp_path.iterdir()) == []


def test_empty_cells_spill_to_empty_list(tmp_path):
    sink = RecordSink(spill_dir=str(tmp_path))
    records, aggregate = sink.finalize({})
    assert records == []
    assert aggregate.total == 0
    assert list(tmp_path.iterdir()) == []


def test_engine_counts_spilled_records(tmp_path):
    from repro.metrics.telemetry import MetricsRegistry

    metrics = MetricsRegistry()
    trace = _trace(events_per_tenant=5)
    result = _report(trace, workers=1)
    offered = result.offered
    spec = ReplaySpec(
        default_app="wc", seed=11,
        record_sink=_sink_spec(tmp_path, max_records=2),
    )
    run_parallel_replay(trace, spec, workers=1, metrics=metrics)
    spilled = metrics.counter("repro_records_spilled_total").value
    assert 0 < spilled <= offered


# -- hypothesis: thresholds x executors, byte-identical -----------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

events_strategy = st.lists(
    st.builds(
        TraceEvent,
        at_s=st.floats(
            min_value=0.0, max_value=8.0,
            allow_nan=False, allow_infinity=False,
        ),
        tenant=st.sampled_from(TENANTS),
        app=st.sampled_from(["wc", "etl"]),
        fanout=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
        seed=st.integers(min_value=0, max_value=999),
    ),
    min_size=1,
    max_size=6,
)


def _skewed(events):
    """First tenant gets ~4x the events: spilling hits skewed cells."""
    hot = [
        TraceEvent(
            at_s=event.at_s + 0.1 * i,
            tenant=TENANTS[0],
            app=event.app,
            fanout=event.fanout,
            seed=event.seed + i,
        )
        for event in events
        for i in range(3)
    ]
    return events + hot


@settings(max_examples=4, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(events=events_strategy, seed=st.integers(0, 2**16),
       small=st.integers(min_value=2, max_value=8))
def test_sinks_and_engines_merge_byte_identical(
    tmp_path_factory, events, seed, small
):
    """The tentpole property: thresholds 1, small and unbounded x
    serial/pool/fleet over skewed traces — one canonical report, to the
    byte, and the oracle's record sequence."""
    trace = InvocationTrace(events=_skewed(events), name="prop-spill")
    spill_dir = str(tmp_path_factory.mktemp("spill"))
    base = ReplaySpec(default_app="wc", seed=seed)
    records = _oracle_records(trace, base)
    canonical = None
    for threshold in (UNBOUNDED, 1, small):
        spec = ReplaySpec(
            default_app="wc", seed=seed,
            record_sink=_sink_spec(spill_dir, threshold),
        )
        for executor, result in (
            ("serial", run_parallel_replay(trace, spec, workers=1)),
            ("pool", run_parallel_replay(trace, spec, workers=2)),
            ("fleet", fleet_replay(trace, spec, 2)),
        ):
            rendered = render_json(result.to_dict())
            if canonical is None:  # the unbounded serial run
                canonical = rendered
            assert rendered == canonical, (executor, threshold)
            assert list(result.records) == records, (executor, threshold)


# -- torn-spill fault injection -----------------------------------------------


def _spilled_sink(tmp_path):
    """A sink with every cell flushed to disk run files."""
    result = run_parallel_replay(
        _trace(events_per_tenant=4),
        ReplaySpec(default_app="wc", seed=5),
        workers=1,
    )
    sink = RecordSink(spill_dir=str(tmp_path), max_records_in_memory=1)
    by_tenant = {}
    for record in result.records:
        tenant = record.request_id.split("/", 1)[0]
        by_tenant.setdefault(tenant, []).append(record)
    for tenant, records in sorted(by_tenant.items()):
        sink.add(tenant, records)
    sink._flush_buffers()
    assert sink._runs, "expected disk run files"
    return sink


def test_torn_spill_run_raises_spill_error(tmp_path):
    sink = _spilled_sink(tmp_path)
    path = sink._runs[0].path
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - len(raw.splitlines()[-1]) // 2 - 1])
    with pytest.raises(SpillError, match="torn or truncated"):
        list(sink.finalize({})[0])


def test_truncated_spill_run_raises_spill_error(tmp_path):
    sink = _spilled_sink(tmp_path)
    path = sink._runs[0].path
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(lines) > 1
    path.write_bytes(b"".join(lines[:-1]))  # drop one whole record
    with pytest.raises(SpillError, match="truncated"):
        list(sink.finalize({})[0])


def test_deleted_spill_run_raises_at_finalize(tmp_path):
    sink = _spilled_sink(tmp_path)
    sink._runs[0].path.unlink()
    with pytest.raises(FileNotFoundError):
        sink.finalize({})


# -- boundedness --------------------------------------------------------------


def test_buffers_flush_at_threshold(tmp_path):
    result = run_parallel_replay(
        _trace(events_per_tenant=4),
        ReplaySpec(default_app="wc", seed=5),
        workers=1,
    )
    sink = RecordSink(spill_dir=str(tmp_path), max_records_in_memory=6)
    by_tenant = {}
    for record in result.records:
        tenant = record.request_id.split("/", 1)[0]
        by_tenant.setdefault(tenant, []).append(record)
    for tenant, records in sorted(by_tenant.items()):
        sink.add(tenant, records)
        # The buffer never rests above the threshold: crossing it
        # flushes every buffered cell to disk runs.
        assert sink._buffered <= 6
    total = sum(len(records) for records in by_tenant.values())
    assert sink.spilled_records + sink._buffered == total
    assert sink.spilled_records > 0
    records, aggregate = sink.finalize({})
    assert len(records) == total == aggregate.total


def test_spilling_finalize_streams_without_materializing(tmp_path):
    """Finalize's k-way merge must stream: its peak allocation stays a
    small constant even though the merged file holds thousands of
    records (the regression this pins: materializing the record list,
    or a global re-sort, would allocate proportionally)."""
    sink = RecordSink(spill_dir=str(tmp_path), max_records_in_memory=64)
    result = run_parallel_replay(
        _trace(events_per_tenant=2),
        ReplaySpec(default_app="wc", seed=5),
        workers=1,
    )
    template = record_to_payload(result.records[0])
    # Synthesize ~6000 records across 6 cells from the template.
    for cell in range(6):
        records = []
        for i in range(1000):
            payload = dict(template)
            payload["request_id"] = f"c{cell}/req-{i:05d}"
            payload["submit_time"] = float(i)
            records.append(record_from_payload(payload))
        sink.add(f"c{cell}", records)
    assert sink.spilled_records > 0
    tracemalloc.start()
    records, aggregate = sink.finalize({})
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert aggregate.total == len(records) == 6000
    # Offsets (one int per record) plus bounded merge state; far below
    # the ~2 MB the materialized record objects would cost.
    assert peak < 1_000_000, peak
    records.close()


def test_spilled_records_sequence_semantics(tmp_path):
    trace = _trace(events_per_tenant=2)
    listed = _report(trace, workers=1).records
    assert type(listed) is list
    records = _report(
        trace, workers=1, record_sink=_sink_spec(tmp_path, max_records=1)
    ).records
    assert isinstance(records, SpilledRecords)
    assert list(records) == listed
    n = len(records)
    assert n == len(listed) == 8
    assert records[0] == listed[0]
    assert records[-1] == listed[-1]
    with pytest.raises(IndexError):
        records[n]
    with pytest.raises(IndexError):
        records[-n - 1]
    for window in (
        slice(1, 3), slice(None), slice(None, None, -1), slice(6, 1, -2),
        slice(None, None, 3), slice(-2, None), slice(None, -3, -1),
        slice(-1, -n - 5, -3), slice(5, 2), slice(2, 5, -1),
        slice(-100, 100, 2),
    ):
        assert records[window] == listed[window], window
    pages = list(records.iter_payloads(2, 5))
    assert [record_from_payload(p) for p in pages] == listed[2:5]
    assert list(records.iter_payloads(n, None)) == []
    records.close()


# -- the CLI flags ------------------------------------------------------------


def test_replay_cli_spill_flags_byte_identical(tmp_path, capsys):
    from repro.cli import main

    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({
        "events": [
            {"at_s": 0.4 * i, "tenant": f"t{i % 3}", "app": "wc"}
            for i in range(9)
        ]
    }))
    assert main(["replay", str(trace), "--format", "json"]) == 0
    plain = capsys.readouterr().out
    assert main([
        "replay", str(trace), "--format", "json",
        "--spill-dir", str(tmp_path / "scratch"),
        "--max-records-in-memory", "2",
    ]) == 0
    spilled = capsys.readouterr().out
    plain_report = json.loads(plain)
    spilled_report = json.loads(spilled)
    # The "parallel" sub-object is wall-clock telemetry (events/s, RSS)
    # and legitimately varies run to run; the report body must not.
    plain_telemetry = plain_report.pop("parallel")
    spilled_telemetry = spilled_report.pop("parallel")
    assert plain_report == spilled_report
    assert plain_telemetry["cells"] == spilled_telemetry["cells"]
    assert plain_telemetry["policy"] == spilled_telemetry["policy"]


def test_replay_cli_rejects_bad_spill_threshold(tmp_path, capsys):
    from repro.cli import main

    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({
        "events": [{"at_s": 0.0, "tenant": "a", "app": "wc"}]
    }))
    assert main([
        "replay", str(trace),
        "--max-records-in-memory", "0",
    ]) != 0
    assert "--max-records-in-memory must be >= 1" in capsys.readouterr().err
