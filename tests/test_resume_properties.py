"""Property-based checkpoint/resume invariance for the replay engine.

The durability claim behind ``repro serve --journal`` reduces to one
engine property: resuming from *any* prefix of journaled cell
completions — the residues round-tripped through JSON exactly as the
journal stores them — must merge to a report byte-identical to the
uninterrupted run, on every executor: serial, pool, and remote fleet.
These tests drive the fold's ``completed_cells`` entry point directly
(no server, no file), so a failure localizes to the engine rather than
the journal plumbing.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.loadgen.trace import InvocationTrace, TraceEvent  # noqa: E402
from repro.metrics.report import render_json  # noqa: E402
from repro.parallel import ReplaySpec, TenantProfile, run_parallel_replay  # noqa: E402
from repro.parallel.engine import CellResult  # noqa: E402

from fleet_harness import fleet_replay  # noqa: E402

TENANTS = ["t0", "t1", "t2", "t3"]
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
        system=st.one_of(st.none(), st.sampled_from(["dataflower", "sonic"])),
        fanout=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
    ),
    max_size=2,
)


def _journal_round_trip(payload):
    """What a residue looks like after the journal: JSON text and back."""
    return CellResult.from_payload(json.loads(json.dumps(payload)))


@settings(max_examples=4, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(events=events, profile_map=profiles, seed=st.integers(0, 2**16))
def test_resume_from_any_prefix_is_byte_identical(events, profile_map, seed):
    """For every prefix of completed cells, on the serial executor, the
    pool, and the fleet: resumed report == uninterrupted report, byte
    for byte."""
    trace = InvocationTrace(events=events, name="prop-resume")
    spec = ReplaySpec(
        default_app="wc", seed=seed, tenant_profiles=profile_map or None
    )
    payloads = []
    full = run_parallel_replay(
        trace, spec, workers=1,
        on_cell=lambda cell: payloads.append(cell.to_payload()),
    )
    baseline = render_json(full.to_dict())

    for cut in range(len(payloads) + 1):
        checkpoint = [_journal_round_trip(p) for p in payloads[:cut]]
        remaining = []
        fold = dict(
            on_cell=lambda cell: remaining.append(cell.key),
            completed_cells=checkpoint or None,
        )
        for executor, resumed in (
            ("serial", run_parallel_replay(trace, spec, workers=1, **fold)),
            ("pool", run_parallel_replay(trace, spec, workers=2, **fold)),
            ("fleet", fleet_replay(trace, spec, 2, **fold)),
        ):
            assert render_json(resumed.to_dict()) == baseline, (cut, executor)
        # The hook fires only for cells actually re-executed: never for
        # a checkpointed cell (that would mean redone work).
        done = {cell.key for cell in checkpoint}
        assert not done.intersection(remaining), (cut, sorted(done))
        assert len(remaining) == 3 * (len(payloads) - cut)


@settings(max_examples=6, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(events=events, seed=st.integers(0, 2**16))
def test_full_checkpoint_executes_nothing(events, seed):
    """Resuming with every cell checkpointed is a pure merge."""
    trace = InvocationTrace(events=events, name="prop-resume")
    spec = ReplaySpec(default_app="wc", seed=seed)
    payloads = []
    full = run_parallel_replay(
        trace, spec, workers=1,
        on_cell=lambda cell: payloads.append(cell.to_payload()),
    )
    executed = []
    resumed = run_parallel_replay(
        trace, spec, workers=1,
        on_cell=lambda cell: executed.append(cell.key),
        completed_cells=[_journal_round_trip(p) for p in payloads],
    )
    assert executed == []
    assert render_json(resumed.to_dict()) == render_json(full.to_dict())


def test_duplicate_completed_cell_is_rejected():
    trace = InvocationTrace(
        events=[TraceEvent(at_s=0.0, tenant="t0")], name="dup"
    )
    spec = ReplaySpec(default_app="wc", seed=1)
    cells = []
    run_parallel_replay(trace, spec, workers=1, on_cell=cells.append)
    with pytest.raises(ValueError):
        run_parallel_replay(
            trace, spec, workers=1, completed_cells=cells + cells
        )


def test_foreign_completed_cell_is_rejected():
    trace = InvocationTrace(
        events=[TraceEvent(at_s=0.0, tenant="t0")], name="home"
    )
    other = InvocationTrace(
        events=[TraceEvent(at_s=0.0, tenant="elsewhere")], name="away"
    )
    spec = ReplaySpec(default_app="wc", seed=1)
    foreign = []
    run_parallel_replay(other, spec, workers=1, on_cell=foreign.append)
    with pytest.raises(ValueError, match="elsewhere"):
        run_parallel_replay(
            trace, spec, workers=1, completed_cells=foreign
        )


def test_cell_payload_round_trip_is_lossless():
    """to_payload -> JSON text -> from_payload reproduces the residue
    exactly: folding the round-tripped cell changes nothing."""
    trace = InvocationTrace(
        events=[
            TraceEvent(at_s=0.0, tenant="t0", fanout=3),
            TraceEvent(at_s=1.5, tenant="t0", app="etl"),
        ],
        name="round-trip",
    )
    spec = ReplaySpec(default_app="wc", seed=42)
    cells = []
    run_parallel_replay(trace, spec, workers=1, on_cell=cells.append)
    (cell,) = cells
    clone = _journal_round_trip(cell.to_payload())
    assert clone.key == cell.key
    assert clone.records == cell.records
    assert clone.latency == cell.latency
    assert clone.usage == cell.usage
    assert clone.to_payload() == cell.to_payload()
