"""Run harness: drives a system with a workload and collects metrics.

Two patterns, matching the paper's §9.1 methodology:

* **Open loop** (asynchronous invocations): requests arrive on a schedule
  regardless of completions; reveals tail latency at a given load
  (Figures 10, 15, 18).
* **Closed loop** (synchronous invocations): N client threads each submit
  the next request when the previous one returns; reveals the achievable
  peak throughput (Figures 11, 12, 16, 17).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..metrics.latency import LatencySummary, RequestRecord
from ..sim.deadlines import Deadlines
from ..sim.environment import Environment
from ..sim.events import Event
from ..metrics.report import RecordAggregate
from ..metrics.usage import UsageSummary, collect_usage
from ..systems.base import WorkflowSystem
from ..workflow.instance import RequestSpec
from .arrivals import RateSegment, arrival_times, total_duration

#: A request a runner marks failed after waiting this long (the paper's
#: "missing points mean the benchmark suffers from timeout").
DEFAULT_TIMEOUT_S = 60.0

RequestFactory = Callable[[int], RequestSpec]


@dataclass
class RunResult:
    """Everything an experiment needs from one run."""

    system_name: str
    workflow: str
    duration_s: float
    offered: int
    records: List[RequestRecord] = field(default_factory=list)
    usage: Optional[UsageSummary] = None

    @property
    def completed(self) -> List[RequestRecord]:
        return [r for r in self.records if r.completed]

    @property
    def failed(self) -> List[RequestRecord]:
        return [r for r in self.records if r.failed]

    @property
    def failure_rate(self) -> float:
        return len(self.failed) / len(self.records) if self.records else 0.0

    def latency(self) -> LatencySummary:
        return LatencySummary.from_records(self.records)

    def throughput_rpm(self) -> float:
        """Completed requests per minute over the run duration."""
        if self.duration_s <= 0:
            return 0.0
        return len(self.completed) / self.duration_s * 60.0

    @property
    def all_failed(self) -> bool:
        return bool(self.records) and not self.completed

    def to_dict(self) -> dict:
        """The run as a JSON-ready report (the CLI's ``--format json``).

        Schema: run identity (``system``, ``workflow``), offered/completed
        counts, ``latency`` (a :class:`LatencySummary` dict, ``None`` when
        nothing completed), and ``usage`` (integrals plus per-request).
        """
        return self._report_body(RecordAggregate.of_records(self.records))

    def _report_body(self, aggregate: RecordAggregate) -> dict:
        return aggregate.report_body(
            system=self.system_name,
            workflow=self.workflow,
            duration_s=self.duration_s,
            offered=self.offered,
            latency=self.latency() if aggregate.completed else None,
            usage=self.usage,
        )


def default_request_factory(
    system: WorkflowSystem, workflow_name: str, input_bytes: float, fanout: int
) -> RequestFactory:
    """Uniform requests with sequential ids."""

    def factory(index: int) -> RequestSpec:
        return RequestSpec(
            request_id=system.next_request_id(workflow_name),
            input_bytes=input_bytes,
            fanout=fanout,
            seed=index,
        )

    return factory


def _guarded_submit(system, workflow_name, request, timeouts: Deadlines):
    """Submit and cap the wait at ``timeouts.delay``, the run's request
    timeout; returns (record, guard), where ``guard`` fires with the
    record once the request finished or timed out.  Completion cancels
    the request's timer, so a run's finished requests leave none behind.
    """
    env = system.env
    done = system.submit(workflow_name, request)
    record = system.records[-1]
    guard = env.event()
    first: List[Optional[Event]] = []
    timer: List[list] = []

    def settle(event: Optional[Event] = None) -> None:
        # The first of completion (``done``) and timeout (no event),
        # relayed one slot on.
        if not first:
            first.append(event)
            timeouts.cancel(timer[0])
            env.call_later(0.0, resolve)

    def resolve() -> None:
        if first[0] is not done and record.end_time is None:
            record.end_time = env.now
            record.failed = True
            record.error = "timeout"
        guard.succeed(record)

    def start() -> None:
        timer.append(timeouts.arm(settle))
        done.callbacks.append(settle)

    env.call_soon(start)
    return record, guard


def _produce(env: Environment, offsets: Sequence[float],
             arrive: Callable[[int], None]) -> Event:
    """Call ``arrive(index)`` at ``offsets[index]`` seconds from now, in
    order, in the slots of a producer process that sleeps to each
    arrival; the returned event fires where that process would end."""
    finished = env.event()

    def produce(index: int, start: float, due: bool = False) -> None:
        for index in range(index, len(offsets)):
            delay = start + offsets[index] - env.now
            if delay > 0 and not due:
                env.call_later(
                    delay, lambda i=index: produce(i, start, True)
                )
                return
            due = False
            arrive(index)
        finished.succeed()

    env.call_soon(lambda: produce(0, env.now))
    return finished


def run_open_loop(
    system: WorkflowSystem,
    workflow_name: str,
    request_factory: RequestFactory,
    schedule: Sequence[RateSegment],
    timeout_s: float = DEFAULT_TIMEOUT_S,
    poisson: bool = False,
    seed: int = 0,
    drain_s: Optional[float] = None,
) -> RunResult:
    """Asynchronous invocation pattern at a given offered load."""
    env = system.env
    times = arrival_times(schedule, poisson=poisson, seed=seed)
    duration = total_duration(schedule)
    run_records: List[RequestRecord] = []
    guards = []
    timeouts = Deadlines(env, timeout_s)

    def arrive(index: int) -> None:
        record, guard = _guarded_submit(
            system, workflow_name, request_factory(index), timeouts
        )
        run_records.append(record)
        guards.append(guard)

    env.run(until=_produce(env, times, arrive))
    if guards:
        env.run(until=env.all_of(guards))
    if drain_s:
        env.run(until=env.now + drain_s)
    return RunResult(
        system_name=system.name,
        workflow=workflow_name,
        duration_s=duration,
        offered=len(times),
        records=run_records,
        usage=collect_usage(system.cluster, sum(1 for r in run_records if r.completed)),
    )


def run_closed_loop(
    system: WorkflowSystem,
    workflow_name: str,
    request_factory: RequestFactory,
    clients: int,
    duration_s: float,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    ramp_s: Optional[float] = None,
) -> RunResult:
    """Synchronous invocation pattern with N closed-loop clients.

    Clients connect staggered over ``ramp_s`` (default: the first quarter
    of the run) rather than in one instant — like real load generators,
    and essential for observing scaling-policy differences: an
    instantaneous all-client burst pre-provisions one container per
    client and hides dispatch-policy effects entirely.
    """
    if clients < 1:
        raise ValueError("clients must be >= 1")
    env = system.env
    run_records: List[RequestRecord] = []
    deadline = env.now + duration_s
    counter = [0]
    if ramp_s is None:
        ramp_s = duration_s / 4.0
    stagger = ramp_s / clients
    timeouts = Deadlines(env, timeout_s)

    def client(client_id: int) -> Event:
        finished = env.event()

        def submit(_event=None) -> None:
            if env.now >= deadline:
                finished.succeed()
                return
            index = counter[0]
            counter[0] += 1
            record, guard = _guarded_submit(
                system, workflow_name, request_factory(index), timeouts
            )
            run_records.append(record)
            guard.callbacks.append(submit)

        delay = client_id * stagger
        if delay > 0:
            env.defer(delay, submit)
        else:
            env.call_soon(submit)
        return finished

    env.run(until=env.all_of([client(i) for i in range(clients)]))
    return RunResult(
        system_name=system.name,
        workflow=workflow_name,
        duration_s=duration_s,
        offered=len(run_records),
        records=run_records,
        usage=collect_usage(system.cluster, sum(1 for r in run_records if r.completed)),
    )
