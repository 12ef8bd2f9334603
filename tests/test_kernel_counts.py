"""Deterministic gate on the simulation kernel's work per request.

Replays a small fixed DataFlower trace and counts, per offered request,
the ``Process`` objects built and the events scheduled
(``Environment.schedule`` + ``schedule_urgent`` calls).  The counts are
exact for a trace and seed, unlike wall time, so a hot-path regression
that parks more generators or schedules more events fails here.

``PINNED`` holds the counts measured once one-shot timers and transfer
wrappers became callbacks; the generator-per-wait kernel before that
measured 4140 processes (86.25 per request) and 17875 events (372.40)
on the same trace.  To re-pin after a change that lowers a count, run
``python -m pytest -s tests/test_kernel_counts.py``: the first test
prints the measured totals; copy them into ``PINNED``.  Raise a pin
only with the reason written in CHANGES.md.
"""

from __future__ import annotations

from collections import Counter

from repro.loadgen.trace import InvocationTrace, TraceEvent
from repro.parallel.engine import run_parallel_replay
from repro.parallel.spec import ReplaySpec
from repro.sim.environment import Environment
from repro.sim.process import Process

APPS = ("wc", "etl", "ml_ensemble", "vid")
REQUESTS = 48

#: Totals over the replay of :func:`_trace` at seed 7 (divide by
#: ``REQUESTS`` for per-request values).
PINNED = {"processes": 486, "events": 14725}


def _trace() -> InvocationTrace:
    """Four tenants, one app each, staggered arrivals."""
    events = [
        TraceEvent(
            at_s=0.25 * i + 0.05 * (i % 4),
            tenant=f"tenant{i % 4}",
            app=APPS[i % 4],
            seed=1000 + i,
        )
        for i in range(REQUESTS)
    ]
    return InvocationTrace(events=events, name="kernel-counts")


def _count(monkeypatch) -> Counter:
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
    spec = ReplaySpec(system_name="dataflower", default_app="wc", seed=7)
    result = run_parallel_replay(_trace(), spec)
    monkeypatch.undo()
    assert result.offered == REQUESTS
    return counts


def test_kernel_counts_stay_at_or_below_pins(monkeypatch):
    measured = _count(monkeypatch)
    print(dict(measured))
    for name, pinned in PINNED.items():
        assert measured[name] <= pinned, (
            f"{name} per request rose to {measured[name] / REQUESTS:.2f} "
            f"(pinned at {pinned / REQUESTS:.2f})"
        )


def test_kernel_counts_are_deterministic(monkeypatch):
    assert _count(monkeypatch) == _count(monkeypatch)
