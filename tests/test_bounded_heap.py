"""The simulator's heap holds live work, not one dead timer per arm.

A request's timeout, a container's keep-alive and a sink entry's TTL are
armed far more often than they act.  Each kind shares one heap entry per
owner (:class:`repro.sim.Deadlines`), so what is left on the heap after
a run does not grow with the number of requests the run served.
"""

from repro.apps import get_app
from repro.experiments.common import make_setup
from repro.loadgen.arrivals import constant
from repro.loadgen.runner import (
    DEFAULT_TIMEOUT_S,
    default_request_factory,
    run_open_loop,
)
from repro.loadgen.trace import InvocationTrace, TraceEvent, run_trace

APPS = ("wc", "etl", "ml_ensemble", "vid")


def test_finished_requests_leave_at_most_one_timeout_entry():
    setup = make_setup("dataflower", "wc")
    app = get_app("wc")
    factory = default_request_factory(
        setup.system, setup.workflow_names[0], app.default_input_bytes,
        app.default_fanout,
    )
    result = run_open_loop(
        setup.system, setup.workflow_names[0], factory, constant(60, 20.0)
    )
    assert result.offered == 20
    assert all(record.completed for record in result.records)
    # A request's timeout is due exactly ``DEFAULT_TIMEOUT_S`` after its
    # submission; a cancelled one that stayed queued would sit there.
    due = {record.submit_time + DEFAULT_TIMEOUT_S for record in result.records}
    guards = [at for at, _, _ in setup.env._queue if at in due]
    assert len(guards) <= 1


def _trace(requests: int) -> InvocationTrace:
    events = [
        TraceEvent(at_s=0.25 * i, tenant="t", app=APPS[i % 4], seed=i)
        for i in range(requests)
    ]
    return InvocationTrace(events=events, name="bounded-heap")


def _heap_after_replay(requests: int) -> int:
    setup = make_setup("dataflower", "wc", apps=APPS)
    result = run_trace(setup.system, _trace(requests), default_app="wc")
    assert result.offered == requests
    return len(setup.env._queue)


def test_heap_after_a_replay_does_not_grow_with_the_trace():
    assert _heap_after_replay(96) <= _heap_after_replay(48)
