"""Every run report body comes from ``RecordAggregate``; these tests pin
it to the renderers it replaced.

``_oracle_run_dict`` and ``_oracle_trace_dict`` are the former bodies of
``RunResult.to_dict`` and ``TraceRunResult.to_dict``, kept verbatim
(bar ``self`` → ``result``) as a reference.  Over generated record
lists — completed, failed and unfinished requests, several tenants and
workflows, runs where nothing completed — the live renderers must
serialize byte-identically to them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.loadgen.runner import RunResult
from repro.loadgen.trace import TraceRunResult
from repro.metrics.latency import LatencySummary, RequestRecord
from repro.metrics.report import render_json, summary_to_dict
from repro.metrics.usage import UsageSummary


def _oracle_run_dict(result: RunResult) -> dict:
    completed = failed = 0
    for record in result.records:
        if record.completed:
            completed += 1
        elif record.failed:
            failed += 1
    payload: dict = {
        "system": result.system_name,
        "workflow": result.workflow,
        "duration_s": result.duration_s,
        "offered": result.offered,
        "completed": completed,
        "failed": failed,
        "failure_rate": (
            failed / len(result.records) if result.records else 0.0
        ),
        "throughput_rpm": (
            completed / result.duration_s * 60.0
            if result.duration_s > 0 else 0.0
        ),
        "latency": summary_to_dict(result.latency()) if completed else None,
        "usage": None,
    }
    if result.usage is not None:
        usage = summary_to_dict(result.usage)
        per_request = result.usage.memory_gbs_per_request
        usage["memory_gbs_per_request"] = (
            None if per_request != per_request else per_request
        )
        per_request = result.usage.cache_mbs_per_request
        usage["cache_mbs_per_request"] = (
            None if per_request != per_request else per_request
        )
        payload["usage"] = usage
    return payload


def _oracle_trace_dict(result: TraceRunResult) -> dict:
    def breakdown(groups):
        out = {}
        for key, records in sorted(groups.items()):
            completed = [r for r in records if r.completed]
            out[key] = {
                "offered": len(records),
                "completed": len(completed),
                "latency": (
                    summary_to_dict(LatencySummary.from_records(records))
                    if completed
                    else None
                ),
            }
        return out

    payload = _oracle_run_dict(result)
    payload["tenants"] = breakdown(result.tenant_records())
    payload["workflows"] = breakdown(result.workflow_records())
    return payload


_times = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


@st.composite
def _records(draw):
    """Records in submission order with unique ids; outcomes mix
    completed, timed-out (failed with an end time), crashed (failed
    without one) and unfinished requests."""
    count = draw(st.integers(min_value=0, max_value=25))
    records = []
    submit = 0.0
    for index in range(count):
        submit += draw(st.floats(min_value=0.0, max_value=50.0))
        outcome = draw(st.sampled_from(
            ["completed", "completed", "timeout", "crashed", "unfinished"]
        ))
        end = None
        if outcome in ("completed", "timeout"):
            end = submit + draw(st.floats(min_value=0.0, max_value=100.0))
        records.append(RequestRecord(
            request_id=f"r{index}",
            workflow=draw(st.sampled_from(["wordcount", "etl", "video"])),
            submit_time=submit,
            end_time=end,
            failed=outcome in ("timeout", "crashed"),
            error=outcome if outcome in ("timeout", "crashed") else None,
        ))
    return records


@st.composite
def _usages(draw, records):
    if not draw(st.booleans()):
        return None
    completed = sum(1 for r in records if r.completed)
    return UsageSummary(
        memory_gbs=draw(_times),
        cache_mbs=draw(_times),
        # 0 completions make the per-request values NaN.
        completed_requests=draw(st.sampled_from([completed, 0])),
    )


@st.composite
def _trace_results(draw):
    records = draw(_records())
    tenant_of = {
        record.request_id: draw(st.sampled_from(["acme", "globex", "initech"]))
        for record in records
        # Requests missing from the map report under "default".
        if draw(st.integers(min_value=0, max_value=4))
    }
    return TraceRunResult(
        system_name=draw(st.sampled_from(["dataflower", "production"])),
        workflow="+".join(sorted({r.workflow for r in records})) or "empty",
        duration_s=draw(st.sampled_from([0.0, 1.0, 60.0, 93.5])),
        offered=len(records) + draw(st.integers(min_value=0, max_value=3)),
        records=records,
        usage=draw(_usages(records)),
        tenant_of=tenant_of,
    )


@settings(max_examples=150, deadline=None)
@given(result=_trace_results())
def test_run_report_matches_oracle(result):
    plain = RunResult(
        system_name=result.system_name,
        workflow=result.workflow,
        duration_s=result.duration_s,
        offered=result.offered,
        records=result.records,
        usage=result.usage,
    )
    assert render_json(plain.to_dict()) == render_json(_oracle_run_dict(plain))


@settings(max_examples=150, deadline=None)
@given(result=_trace_results())
def test_trace_report_matches_oracle(result):
    assert render_json(result.to_dict()) == render_json(
        _oracle_trace_dict(result)
    )
