"""Tests for arrival schedules and the run harness."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    Cluster,
    ClusterConfig,
    DataFlowerSystem,
    Environment,
    burst,
    constant,
    default_request_factory,
    round_robin,
    run_closed_loop,
    run_open_loop,
)
from repro.apps import get_app
from repro.loadgen.arrivals import RateSegment, arrival_times, total_duration


# -- arrivals -----------------------------------------------------------------


def test_constant_schedule_paced():
    times = arrival_times(constant(60, 10.0))
    assert len(times) == 10
    assert times[0] == 0.0
    assert times[1] == pytest.approx(1.0)


def test_zero_rate_produces_nothing():
    assert arrival_times(constant(0, 60.0)) == []


def test_burst_schedule_counts():
    # The paper's Figure 15: 10 rpm for 60 s then 100 rpm for 60 s = 110.
    times = arrival_times(burst(10, 100, 60.0, 60.0))
    assert len(times) == 110
    assert sum(1 for t in times if t < 60.0) == 10


def test_poisson_is_deterministic_per_seed():
    a = arrival_times(constant(120, 30.0), poisson=True, seed=5)
    b = arrival_times(constant(120, 30.0), poisson=True, seed=5)
    c = arrival_times(constant(120, 30.0), poisson=True, seed=6)
    assert a == b
    assert a != c


def test_rate_segment_validation():
    with pytest.raises(ValueError):
        RateSegment(duration_s=0, rate_rpm=10)
    with pytest.raises(ValueError):
        RateSegment(duration_s=10, rate_rpm=-1)


def test_total_duration():
    assert total_duration(burst(1, 2, 30.0, 45.0)) == 75.0


@settings(max_examples=40, deadline=None)
@given(
    rate=st.floats(min_value=1, max_value=600),
    duration=st.floats(min_value=1, max_value=120),
)
# Summing gaps once piled rounding error into a 931st arrival here.
@example(rate=599.9999999999999, duration=93.0)
def test_property_arrivals_within_schedule(rate, duration):
    times = arrival_times(constant(rate, duration))
    assert all(0 <= t < duration for t in times)
    expected = rate / 60.0 * duration
    assert abs(len(times) - expected) <= 1


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_property_poisson_arrivals_sorted(seed):
    times = arrival_times(constant(300, 20.0), poisson=True, seed=seed)
    assert times == sorted(times)
    assert all(0 <= t < 20.0 for t in times)


# -- runner -------------------------------------------------------------------


def make_system():
    env = Environment()
    cluster = Cluster(env, ClusterConfig())
    system = DataFlowerSystem(env, cluster)
    app = get_app("wc")
    workflow = app.build()
    system.deploy(workflow, round_robin(workflow, cluster.workers))
    factory = default_request_factory(
        system, workflow.name, app.default_input_bytes, app.default_fanout
    )
    return system, workflow, factory


def test_open_loop_offers_scheduled_count():
    system, workflow, factory = make_system()
    result = run_open_loop(system, workflow.name, factory, constant(30, 20.0))
    assert result.offered == 10
    assert len(result.completed) == 10
    assert result.failure_rate == 0.0
    assert result.usage is not None


def test_open_loop_timeout_marks_failure():
    system, workflow, factory = make_system()
    result = run_open_loop(
        system, workflow.name, factory, constant(30, 10.0), timeout_s=0.05
    )
    assert len(result.failed) == result.offered
    assert all(r.error == "timeout" for r in result.failed)
    assert result.all_failed


def test_closed_loop_throughput():
    system, workflow, factory = make_system()
    result = run_closed_loop(system, workflow.name, factory, clients=4,
                             duration_s=20.0)
    assert result.offered > 4
    assert result.throughput_rpm() > 0
    # Clients never have more than one request outstanding each: the
    # number in flight is bounded, so offered stays sane.
    assert result.offered < 4 * 20.0 / 0.1


def test_closed_loop_requires_clients():
    system, workflow, factory = make_system()
    with pytest.raises(ValueError):
        run_closed_loop(system, workflow.name, factory, clients=0, duration_s=5)


def test_latency_summary_from_run():
    system, workflow, factory = make_system()
    result = run_open_loop(system, workflow.name, factory, constant(60, 10.0))
    summary = result.latency()
    assert summary.count == result.offered
    assert summary.p99_s >= summary.p50_s
