"""Unit tests for the discrete-event simulation kernel."""

import itertools
from collections import deque
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Deadlines,
    EmptySchedule,
    Environment,
    Event,
    Fifo,
    Resource,
    RngRegistry,
)


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc(env):
        yield env.timeout(2.5)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [2.5]
    assert env.now == 2.5


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


@pytest.mark.parametrize("arm", [
    lambda env, delay: env.timeout(delay),
    lambda env, delay: env.call_later(delay, lambda: None),
    lambda env, delay: env.reserve(delay),
], ids=["timeout", "call_later", "reserve"])
def test_nan_delay_rejected(arm):
    env = Environment()
    with pytest.raises(ValueError, match="delay"):
        arm(env, float("nan"))
    assert env.now == 0.0
    assert not env._queue


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def waiter(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(waiter(env, 3, "c"))
    env.process(waiter(env, 1, "a"))
    env.process(waiter(env, 2, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_insertion_order():
    env = Environment()
    order = []

    def waiter(env, tag):
        yield env.timeout(1)
        order.append(tag)

    for tag in "abcd":
        env.process(waiter(env, tag))
    env.run()
    assert order == ["a", "b", "c", "d"]


def test_process_return_value():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        return 42

    def parent(env):
        value = yield env.process(child(env))
        return value * 2

    proc = env.process(parent(env))
    env.run()
    assert proc.value == 84


def test_run_until_time_stops_midway():
    env = Environment()
    seen = []

    def ticker(env):
        while True:
            yield env.timeout(1)
            seen.append(env.now)

    env.process(ticker(env))
    env.run(until=3.5)
    assert seen == [1, 2, 3]
    assert env.now == 3.5


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env):
        yield env.timeout(5)
        return "finished"

    result = env.run(until=env.process(proc(env)))
    assert result == "finished"
    assert env.now == 5


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    got = []

    def waiter(env):
        value = yield gate
        got.append(value)

    def opener(env):
        yield env.timeout(2)
        gate.succeed("open")

    env.process(waiter(env))
    env.process(opener(env))
    env.run()
    assert got == ["open"]


def test_event_cannot_trigger_twice():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_event_value_before_trigger_raises():
    env = Environment()
    with pytest.raises(RuntimeError):
        _ = env.event().value


def test_failed_event_raises_in_waiting_process():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter(env):
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter(env))

    def failer(env):
        yield env.timeout(1)
        gate.fail(ValueError("boom"))

    env.process(failer(env))
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_failure_propagates_from_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("unhandled")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_all_of_collects_all_values():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(2, value="b")
        values = yield env.all_of([t1, t2])
        results.append(sorted(values.values()))

    env.process(proc(env))
    env.run()
    assert results == [["a", "b"]]
    assert env.now == 2


def test_all_of_empty_fires_immediately():
    env = Environment()
    results = []

    def proc(env):
        value = yield env.all_of([])
        results.append(value)

    env.process(proc(env))
    env.run()
    assert results == [{}]


def test_condition_on_already_processed_event():
    env = Environment()
    results = []

    def proc(env):
        t = env.timeout(1, value="x")
        yield t
        # t is processed; a condition on it must fire immediately.
        values = yield env.all_of([t])
        results.append(list(values.values()))

    env.process(proc(env))
    env.run()
    assert results == [["x"]]


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_yielding_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    proc = env.process(bad(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()
    assert proc.triggered


def test_call_soon_runs_before_normal_events_in_fifo_order():
    env = Environment()
    order = []
    env.timeout(0).callbacks.append(lambda _e: order.append("timeout"))
    env.call_soon(lambda: order.append("a"))
    env.call_soon(lambda: order.append("b"))
    assert env.peek() == 0.0
    env.run()
    assert order == ["a", "b", "timeout"]


def test_call_later_fires_after_delay():
    env = Environment()
    fired = []
    env.call_later(1.5, lambda: fired.append(env.now))
    with pytest.raises(ValueError):
        env.call_later(-1, lambda: None)
    env.run()
    assert fired == [1.5]


def _noop():
    pass


def test_reserve_takes_the_slot_schedule_would_take():
    reserved, scheduled = Environment(), Environment()
    for env in (reserved, scheduled):
        env.call_later(0.5, _noop)
    slot = reserved.reserve(1.0)
    scheduled.call_later(1.0, _noop)
    assert slot == max(scheduled._queue)[:2]
    assert len(reserved._queue) == 1  # nothing pushed
    with pytest.raises(ValueError):
        reserved.reserve(-1.0)


def test_reserved_slot_orders_like_an_immediate_schedule():
    def run(late):
        env = Environment()
        log = []

        def tagged(tag):
            return lambda: log.append((tag, env.now))

        env.call_later(1.0, tagged("before"))
        if late:
            slot = env.reserve(1.0)
            # Pushed from inside the run, after "after" was scheduled.
            env.call_later(0.5, lambda: env.call_at(slot, tagged("slot")))
        else:
            env.call_later(1.0, tagged("slot"))
            env.call_later(0.5, _noop)
        env.call_later(1.0, tagged("after"))
        env.run()
        return log

    assert run(late=True) == run(late=False) == [
        ("before", 1.0), ("slot", 1.0), ("after", 1.0),
    ]


def test_pushing_a_past_slot_raises():
    env = Environment()
    slot = env.reserve(1.0)
    env.run(until=2.0)
    with pytest.raises(ValueError, match="past"):
        env.call_at(slot, _noop)


def test_peek_reports_now_while_urgent_events_are_pending():
    env = Environment()
    env.timeout(4.0)
    env.run(until=2.0)
    env.call_soon(lambda: None)
    assert env.peek() == 2.0
    env.step()
    assert env.peek() == 4.0
    assert env.now == 2.0


# -- callbacks take the queue slots of the processes they replace -----------

_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 2.0])
_OPS = st.one_of(
    st.tuples(st.just("wait"), _DELAYS),
    st.tuples(st.just("chain"), _DELAYS, _DELAYS),
    st.tuples(st.just("join"), _DELAYS),
    st.tuples(st.just("queue"), st.one_of(st.none(), _DELAYS), _DELAYS),
    st.tuples(st.just("hold"), st.one_of(st.none(), _DELAYS), _DELAYS),
    st.tuples(st.just("zero")),
    # Timer ``k`` armed at once or after a wait, in ``call_later``'s slot
    # or ``defer``'s (``True``), re-arming itself from its own callback
    # up to twice; arming a timer again cancels its live arm.
    st.tuples(
        st.just("arm"), st.integers(0, 2), st.one_of(st.none(), _DELAYS),
        st.booleans(), st.integers(0, 2),
    ),
    st.tuples(st.just("cancel"), st.integers(0, 2),
              st.one_of(st.none(), _DELAYS)),
)
#: Each timer's fixed delay: timers 1 and 2 share one :class:`Deadlines`.
_TIMER_DELAYS = (0.5, 1.0, 1.0)
_CONTROLS = st.one_of(
    st.tuples(st.just("run_until"), st.sampled_from([0.0, 0.5, 1.0, 3.0])),
    st.tuples(st.just("step"), st.integers(min_value=1, max_value=4)),
)
_PROGRAMS = st.lists(
    st.tuples(st.lists(_OPS, max_size=5), _CONTROLS), min_size=1, max_size=6
)


class _StoreOracle:
    """The FIFO store the simulator's queues were written with: a get
    succeeds at once on a non-empty store, else at the put that fills it,
    and the getting process resumes when the get event is processed."""

    def __init__(self, env):
        self.env = env
        self.items = deque()
        self.getters = deque()

    def put(self, item):
        self.items.append(item)
        self._dispatch()

    def get(self):
        event = self.env.event()
        self.getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self):
        while self.getters and self.items:
            self.getters.popleft().succeed(self.items.popleft())


class _RequestOracle(Event):
    """A pending acquisition of one unit of a :class:`_ResourceOracle`,
    released on leaving its ``with`` block."""

    def __init__(self, resource):
        super().__init__(resource.env)
        self.resource = resource
        resource.queue.append(self)
        resource.grant_next()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.resource.release(self)


class _ResourceOracle:
    """The one-unit resource the trigger slots were written with: a
    request succeeds at once on a free, unqueued resource, else at the
    release that hands the unit over, and the requesting process resumes
    when the request event is processed."""

    def __init__(self, env):
        self.env = env
        self.user = None
        self.queue = deque()

    def request(self):
        return _RequestOracle(self)

    def release(self, request):
        assert self.user is request
        self.user = None
        self.grant_next()

    def grant_next(self):
        if self.user is None and self.queue:
            self.user = self.queue.popleft()
            self.user.succeed()


class _OneHeapEnvironment(Environment):
    """The kernel without the urgent lane: one heap keyed on (time,
    priority, insertion order), urgent entries at priority 0."""

    __slots__ = ()

    def schedule(self, entry, delay=0.0):
        self._eid += 1
        heappush(self._queue, (self._now + delay, 1, self._eid, entry))

    def schedule_urgent(self, entry):
        self._eid += 1
        heappush(self._queue, (self._now, 0, self._eid, entry))

    def peek(self):
        return self._queue[0][0] if self._queue else float("inf")

    def step(self):
        if not self._queue:
            raise EmptySchedule()
        self._now, _, _, entry = heappop(self._queue)
        entry()

    def run(self, until=None):
        stop = float("inf") if until is None else float(until)
        while self._queue and self._queue[0][0] <= stop:
            self.step()
        if until is not None:
            self._now = stop


def _run_program(program, form, env_class=Environment):
    """Run ``program`` and log what happened when.

    Every "wait d, then act" is written in ``form``: an ``env.process``
    (``"process"``), ``call_soon`` -> ``call_later`` (``"callbacks"``
    and ``"deadlines"``), or ``env.defer`` (``"defer"``).  The zero-delay timeouts and the
    driver calls (``run(until=...)``, ``step()``, ``peek()``) are the
    same in every form.
    The driver runs between batches of ops issued from outside the run
    loop, so urgent kick-offs are pending when it peeks and steps.

    A "join" is a process that starts a child process ("wait d, then
    act") and acts once the child returns; its callback form relays the
    child's end through an event the child succeeds, in the slot of the
    child process's completion.

    A "queue" puts an item on a queue shared by the whole program, either
    at once (from outside the run loop) or after a wait.  One consumer
    takes items in order and holds each for a delay before taking the
    next: a process looping on a :class:`_StoreOracle` get, or callbacks
    on a :class:`~repro.sim.Fifo` (the dispatcher's and the DLU's queues).

    A "hold" queues for a slot shared by the whole program, either at
    once or after a wait, and holds it for a delay once granted: a
    process that requests a :class:`_ResourceOracle` and releases it
    after a timeout, or :meth:`~repro.sim.Resource.hold` (the trigger
    slots of the orchestrators and node engines).

    A process that nothing waits on parks on an event that never fires
    once it has acted, rather than returning: its completion event would
    be an entry the callback form has no counterpart for, due now, and a
    peek after ops that queue nothing (a put onto a busy queue) would see
    it.  The join's child does return; its completion takes the slot of
    the callback form's relay event.  The forms may still differ in
    entries that change no clock and log nothing, so the driver steps
    until the log grows rather than a fixed number of events, and peeks
    only right after issuing ops.

    An "arm" arms a timer ``k`` that logs when it fires; arming it again
    or a "cancel" kills its live arm.  In the ``"deadlines"`` form one
    :class:`~repro.sim.Deadlines` per delay holds the timers.  Every
    other form is the oracle: each arm is a "wait d, then act" (or a
    plain ``call_later`` for an arm in ``call_later``'s slot) whose act
    does nothing unless the timer's stamp is still the one it was armed
    with, and arming again or cancelling bumps the stamp.
    """
    env = env_class()
    log = []
    tags = itertools.count()
    queue = []  # the shared queue, made at the first "queue" op
    slot = []  # the shared slot, made at the first "hold" op
    stamps = [0] * len(_TIMER_DELAYS)  # the oracle's staleness stamps
    handles = [None] * len(_TIMER_DELAYS)  # the helper's live arms
    helpers = {}  # delay -> Deadlines

    def wait_then(delay, act):
        if form in ("callbacks", "deadlines"):
            env.call_soon(lambda: env.call_later(delay, act))
        elif form == "defer":
            env.defer(delay, act)
        else:
            def waiter():
                yield env.timeout(delay)
                act()
                yield env.event()

            env.process(waiter())

    def issue(op):
        tag = next(tags)
        kind = op[0]
        if kind == "wait":
            wait_then(op[1], lambda: log.append((tag, env.now)))
        elif kind == "chain":
            def first():
                log.append((tag, "first", env.now))
                wait_then(op[2], lambda: log.append((tag, "second", env.now)))

            wait_then(op[1], first)
        elif kind == "join":
            def child_done():
                log.append((tag, "child", env.now))

            def joined(_e=None):
                log.append((tag, "joined", env.now))

            if form == "process":
                def child():
                    yield env.timeout(op[1])
                    child_done()

                def parent():
                    yield env.process(child())
                    joined()
                    yield env.event()

                env.process(parent())
            else:
                def parent_step():
                    done = env.event()
                    wait_then(op[1], lambda: (child_done(), done.succeed()))
                    done.callbacks.append(joined)

                env.call_soon(parent_step)
        elif kind == "queue":
            if not queue:
                queue.append(start_consumer())
            put = queue[0].put
            if op[1] is None:
                put((tag, op[2]))
            else:
                wait_then(op[1], lambda: put((tag, op[2])))
        elif kind == "hold":
            if not slot:
                slot.append(
                    _ResourceOracle(env) if form == "process" else Resource(env)
                )
            if op[1] is None:
                hold(slot[0], tag, op[2])
            else:
                wait_then(op[1], lambda: hold(slot[0], tag, op[2]))
        elif kind == "arm":
            _, k, when, hop, repeats = op
            if when is None:
                arm(tag, k, hop, repeats)
            else:
                wait_then(when, lambda: arm(tag, k, hop, repeats))
        elif kind == "cancel":
            if op[2] is None:
                cancel(op[1])
            else:
                wait_then(op[2], lambda: cancel(op[1]))
        else:
            env.timeout(0).callbacks.append(
                lambda _e: log.append((tag, "zero", env.now))
            )

    def arm(tag, k, hop, repeats):
        delay = _TIMER_DELAYS[k]

        def fired():
            log.append((tag, "fired", k, env.now))
            if repeats:
                arm(tag, k, hop, repeats - 1)

        if form == "deadlines":
            if delay not in helpers:
                helpers[delay] = Deadlines(env, delay)
            timers = helpers[delay]
            timers.cancel(handles[k])
            handles[k] = (timers.defer if hop else timers.arm)(fired)
            return
        stamps[k] += 1
        stamp = stamps[k]

        def expire():
            if stamps[k] == stamp:
                fired()

        if hop:
            wait_then(delay, expire)
        else:
            env.call_later(delay, expire)

    def cancel(k):
        if form == "deadlines":
            if handles[k] is not None:
                helpers[_TIMER_DELAYS[k]].cancel(handles[k])
        else:
            stamps[k] += 1

    def hold(resource, tag, delay):
        def granted():
            log.append((tag, "granted", env.now))
            return delay

        def released():
            log.append((tag, "released", env.now))
            # A zero-delay follow-up, as a trigger's dispatch makes: it
            # comes after the slot's handover to the next holder.
            env.timeout(0).callbacks.append(
                lambda _e: log.append((tag, "after release", env.now))
            )

        if form != "process":
            resource.hold(granted, released)
            return

        def holder():
            with resource.request() as request:
                yield request
                yield env.timeout(granted())
            released()
            yield env.event()

        env.process(holder())

    def start_consumer():
        if form == "process":
            store = _StoreOracle(env)

            def consumer():
                while True:
                    tag, hold = yield store.get()
                    log.append((tag, "got", env.now))
                    yield env.timeout(hold)
                    log.append((tag, "held", env.now))

            env.process(consumer())
            return store
        fifo = Fifo(env)

        def got(item):
            tag, hold = item
            log.append((tag, "got", env.now))
            env.call_later(hold, lambda: held(tag))

        def held(tag):
            log.append((tag, "held", env.now))
            fifo.take(got)

        env.call_soon(lambda: fifo.take(got))
        return fifo

    def step_until_logged():
        logged = len(log)
        while len(log) == logged:
            env.step()

    for ops, control in program:
        for op in ops:
            issue(op)
        if ops:
            log.append(("peek", env.peek()))
        if control[0] == "run_until":
            env.run(until=env.now + control[1])
        else:
            try:
                for _ in range(control[1]):
                    step_until_logged()
            except EmptySchedule:
                log.append("empty")
        log.append(("now", env.now))
    env.run()
    log.append(("end", env.now))
    return log


@settings(max_examples=150, deadline=None)
@given(program=_PROGRAMS)
def test_property_callbacks_match_processes(program):
    expected = _run_program(program, "process")
    assert _run_program(program, "callbacks") == expected
    assert _run_program(program, "defer") == expected
    assert _live_slots(_run_program(program, "deadlines")) == _live_slots(
        expected
    )


def _live_slots(log):
    """What a dead timer's heap entry cannot move: the log up to the
    first drained schedule, without peeks and the final clock.

    The oracle's dead timers stay queued and move the clock when they
    pop, so a peek, the clock after ``run()`` or after a drained ``step``
    (and every op issued after that) may differ.  Every callback that
    logs runs in the same order at the same time.
    """
    if "empty" in log:
        log = log[:log.index("empty")]
    return [entry for entry in log if entry[0] not in ("peek", "end")]


@settings(max_examples=150, deadline=None)
@given(program=_PROGRAMS, form=st.sampled_from(["process", "callbacks"]))
def test_property_urgent_lane_matches_one_heap(program, form):
    """Draining the urgent lane before the heap gives one heap's order."""
    assert _run_program(program, form) == _run_program(
        program, form, env_class=_OneHeapEnvironment
    )


def test_rng_streams_are_deterministic_and_independent():
    a = RngRegistry(seed=7)
    b = RngRegistry(seed=7)
    assert a.stream("x").random() == b.stream("x").random()
    c = RngRegistry(seed=7)
    d = RngRegistry(seed=8)
    assert c.stream("x").random() != d.stream("x").random()
    e = RngRegistry(seed=7)
    assert e.stream("x").random() != e.stream("y").random()


def test_rng_fork_is_independent():
    root = RngRegistry(seed=3)
    fork = root.fork("child")
    assert root.stream("s").random() != fork.stream("s").random()
