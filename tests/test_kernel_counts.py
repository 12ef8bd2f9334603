"""Deterministic gate on the simulator's work per request.

Replays two small fixed traces and counts, per offered request, the
``Process`` objects built, the events scheduled
(``Environment.schedule`` + ``schedule_urgent`` calls) and the
``SharedLink.share`` calls of the network fabric's rebalancing.  The
counts are exact for a trace and seed, unlike wall time, so a hot-path
regression that parks more generators, schedules more events or
re-rates more flows fails here.

* ``dataflower``: DataFlower on a four-app mix.  The generator-per-wait
  kernel measured 4140 processes (86.25 per request) and 17875 events
  (372.40); one-shot timers and transfer wrappers as callbacks brought
  that to 486 processes and 14725 events (306.77).
* ``production``: the centralized control-flow baseline on ``vid``,
  where every intermediate crosses the shared backend links.  With a
  fresh completion timer per flow re-arm and a ``share()`` call per flow
  per link it measured 1006 processes (31.44 per request), 19223 events
  (600.72) and 36252 share calls (1132.88).

Once each flow kept one heap entry and each rebalance pass asked each
link for its share once, events fell to 14453 (301.10 per request) on
``dataflower`` and 9332 (291.63) on ``production``, share calls from
3304 (68.83) to 2728 (56.83) and from 36252 to 10151 (317.22);
processes did not change.

Once each link cached its share until a flow joined or left it, share
calls fell from 2728 to 2458 (51.21 per request) on ``dataflower`` and
from 10151 to 3034 (94.81) on ``production``; events and processes did
not change.

Once the FLU became a callback chain with an explicit abort instead of
an interruptible generator, processes fell from 486 to 150 (3.13 per
request) on ``dataflower`` and events from 14453 to 14117 (294.10), the
FLU processes' completion events; ``production`` runs no FLU and did not
change.

``PINNED`` holds the counts once every process left under ``src/`` became
a callback chain in the same queue slots: processes fell to 0 on both
traces; on ``production`` events fell from 9332 to 8948 (279.63 per
request), the completion events of the trigger, run and request-guard
processes nothing waited on; on ``dataflower`` (dispatcher loop, DLU
drain, guards and producer) events stayed at 14117.  Share calls did not
change.  To re-pin after a change that lowers a count, run
``python -m pytest -s tests/test_kernel_counts.py``: the first test
prints the measured totals; copy them into ``PINNED``.  Raise a pin
only with the reason written in CHANGES.md.
"""

from __future__ import annotations

from collections import Counter

from repro.cluster.network import SharedLink
from repro.loadgen.trace import InvocationTrace, TraceEvent
from repro.parallel.engine import run_parallel_replay
from repro.parallel.spec import ReplaySpec
from repro.sim.environment import Environment
from repro.sim.process import Process

APPS = ("wc", "etl", "ml_ensemble", "vid")

#: Totals over the replay of each trace at seed 7 (divide by the trace's
#: request count for per-request values).
PINNED = {
    "dataflower": {"processes": 0, "events": 14117, "share_calls": 2458},
    "production": {"processes": 0, "events": 8948, "share_calls": 3034},
}


def _dataflower_trace() -> InvocationTrace:
    """Four tenants, one app each, staggered arrivals."""
    events = [
        TraceEvent(
            at_s=0.25 * i + 0.05 * (i % 4),
            tenant=f"tenant{i % 4}",
            app=APPS[i % 4],
            seed=1000 + i,
        )
        for i in range(48)
    ]
    return InvocationTrace(events=events, name="kernel-counts")


def _production_trace() -> InvocationTrace:
    """Two tenants of ``vid`` close enough that backend links are shared."""
    events = [
        TraceEvent(at_s=0.15 * i, tenant=f"tenant{i % 2}", app="vid",
                   seed=2000 + i)
        for i in range(32)
    ]
    return InvocationTrace(events=events, name="kernel-counts-controlflow")


TRACES = {
    "dataflower": _dataflower_trace,
    "production": _production_trace,
}


def _count(monkeypatch, system: str) -> Counter:
    counts: Counter = Counter()

    def counting(metric, original):
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        Process, "__init__", counting("processes", Process.__init__)
    )
    for name in ("schedule", "schedule_urgent"):
        monkeypatch.setattr(
            Environment, name, counting("events", getattr(Environment, name))
        )
    monkeypatch.setattr(
        SharedLink, "share", counting("share_calls", SharedLink.share)
    )
    trace = TRACES[system]()
    spec = ReplaySpec(system_name=system, default_app="wc", seed=7)
    result = run_parallel_replay(trace, spec)
    monkeypatch.undo()
    assert result.offered == len(trace.events)
    return counts


def test_kernel_counts_stay_at_or_below_pins(monkeypatch):
    for system, pins in PINNED.items():
        measured = _count(monkeypatch, system)
        print(system, dict(measured))
        requests = len(TRACES[system]().events)
        for name, pinned in pins.items():
            assert measured[name] <= pinned, (
                f"{system}: {name} per request rose to "
                f"{measured[name] / requests:.2f} (pinned at "
                f"{pinned / requests:.2f})"
            )


def test_kernel_counts_are_deterministic(monkeypatch):
    for system in PINNED:
        assert _count(monkeypatch, system) == _count(monkeypatch, system)
