"""Tests for the fluid-flow network model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.cluster.network import _EPSILON, FlowCancelled, NetworkFabric


def make_fabric():
    env = Environment()
    return env, NetworkFabric(env)


def test_single_flow_runs_at_capacity():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    flow = fabric.transfer(1000.0, [link])
    env.run(until=flow.done)
    assert env.now == pytest.approx(10.0)


def test_rate_cap_limits_flow():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    flow = fabric.transfer(1000.0, [link], rate_cap=50.0)
    env.run(until=flow.done)
    assert env.now == pytest.approx(20.0)


def test_two_flows_share_equally():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    f1 = fabric.transfer(1000.0, [link])
    f2 = fabric.transfer(1000.0, [link])
    env.run(until=f1.done)
    # Both at 50 B/s: each takes 20 s.
    assert env.now == pytest.approx(20.0)
    env.run(until=f2.done)
    assert env.now == pytest.approx(20.0)


def test_departure_speeds_up_remaining_flow():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    small = fabric.transfer(500.0, [link])
    big = fabric.transfer(1500.0, [link])
    env.run(until=small.done)
    # Shared at 50 B/s until small finishes at t=10 (500B each moved).
    assert env.now == pytest.approx(10.0)
    env.run(until=big.done)
    # big has 1000B left at full 100 B/s -> 10 more seconds.
    assert env.now == pytest.approx(20.0)


def test_late_arrival_slows_flow():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    first = fabric.transfer(1000.0, [link])

    def late(env):
        yield env.timeout(5.0)
        second = fabric.transfer(250.0, [link])
        yield second.done

    proc = env.process(late(env))
    env.run(until=first.done)
    # first: 500B in 5s at 100, then shares 50 B/s. second (250B at 50 B/s)
    # finishes at t=10; first then has 250B left at 100 B/s -> t=12.5.
    assert env.now == pytest.approx(12.5)
    env.run(until=proc)
    assert env.now == pytest.approx(12.5)


def test_flow_rate_is_min_across_links():
    env, fabric = make_fabric()
    fast = fabric.link("fast", 1000.0)
    slow = fabric.link("slow", 10.0)
    flow = fabric.transfer(100.0, [fast, slow])
    env.run(until=flow.done)
    assert env.now == pytest.approx(10.0)


def test_zero_byte_flow_completes_immediately():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    flow = fabric.transfer(0.0, [link])
    env.run(until=flow.done)
    assert env.now == 0.0
    assert not link.flows


def test_negative_bytes_rejected():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    with pytest.raises(ValueError):
        fabric.transfer(-1.0, [link])


@pytest.mark.parametrize("nbytes", [math.nan, math.inf, -math.inf])
def test_nan_or_infinite_bytes_rejected(nbytes):
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    with pytest.raises(ValueError, match="byte count"):
        fabric.transfer(nbytes, [link])
    with pytest.raises(ValueError, match="byte count"):
        fabric.transfer_after(1.0, nbytes, [link])
    assert not link.flows
    assert fabric.bytes_moved == 0.0


def test_transfer_after_abandoned_mid_flow_cancels_it_and_never_fires():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    abandon = env.event()
    done = fabric.transfer_after(1.0, 1000.0, [link], abandon=abandon)
    env.run(until=2.0)
    assert link.flows
    abandon.fail(RuntimeError("consumer died"))
    abandon.defused = True
    env.run()
    assert not link.flows
    assert not done.triggered
    assert fabric.bytes_moved == pytest.approx(100.0)  # 1 s of the flow


def test_transfer_after_flow_failing_without_abandon_raises():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    done = fabric.transfer_after(0.0, 1000.0, [link], abandon=env.event())
    env.run(until=1.0)
    (flow,) = link.flows
    flow.cancel("lost")
    with pytest.raises(FlowCancelled):
        env.run()
    assert not done.triggered


@pytest.mark.parametrize("rate_cap", [0.0, -5.0])
def test_non_positive_rate_cap_rejected(rate_cap):
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    with pytest.raises(ValueError, match="rate cap"):
        fabric.transfer(10.0, [link], rate_cap=rate_cap)
    with pytest.raises(ValueError, match="rate cap"):
        fabric.transfer_after(1.0, 10.0, [link], rate_cap=rate_cap)
    assert not link.flows


def test_nan_rate_cap_rejected():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    with pytest.raises(ValueError, match="rate cap"):
        fabric.transfer(10.0, [link], rate_cap=math.nan)
    assert not link.flows


def test_link_requires_positive_capacity():
    env, fabric = make_fabric()
    with pytest.raises(ValueError):
        fabric.link("bad", 0.0)


def test_link_is_cached_by_name():
    env, fabric = make_fabric()
    a = fabric.link("same", 10.0)
    b = fabric.link("same", 99.0)
    assert a is b
    assert a.capacity_bps == 10.0


def test_cancel_fails_waiters_and_frees_link():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    victim = fabric.transfer(1000.0, [link])
    bystander = fabric.transfer(1000.0, [link])
    failures = []

    def waiter(env):
        try:
            yield victim.done
        except FlowCancelled as exc:
            failures.append((env.now, exc.reason))

    def canceller(env):
        yield env.timeout(5.0)
        victim.cancel("node crash")

    env.process(waiter(env))
    env.process(canceller(env))
    env.run(until=bystander.done)
    assert failures == [(5.0, "node crash")]
    # bystander: 250B at t=5 (50 B/s shared), then 750B at 100 B/s -> 12.5s
    assert env.now == pytest.approx(12.5)


def _live_callbacks(env):
    return [cb for _, _, event in env._queue for cb in event.callbacks]


def test_early_entry_moves_to_the_live_slot():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    flow = fabric.transfer(1000.0, [link])  # due at t=10 alone
    env.call_later(5.0, lambda _e: fabric.transfer(2000.0, [link]))
    env.run(until=7.0)
    # Re-rated to 50 B/s at t=5: due at t=15, but its entry stays at t=10.
    assert flow._slot[0] == pytest.approx(15.0)
    assert flow._entry_slot[0] == pytest.approx(10.0)
    assert _live_callbacks(env).count(flow._on_entry) == 1
    env.run(until=12.0)
    # The entry came due early and moved itself to the live slot.
    assert flow._entry_slot == flow._slot
    assert _live_callbacks(env).count(flow._on_entry) == 1
    env.run(until=flow.done)
    assert env.now == pytest.approx(15.0)


def test_earlier_slot_replaces_the_entry():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    other = fabric.transfer(100.0, [link])
    flow = fabric.transfer(1000.0, [link])  # due at t=20 at 50 B/s
    old_entry = flow._entry
    env.run(until=other.done)
    # other left at t=2, so flow sped up: a new entry for t=11; the old
    # one stays in the heap with no callback.
    assert flow._entry is not old_entry
    assert old_entry.callbacks == []
    assert _live_callbacks(env) == [flow._on_entry]
    env.run(until=flow.done)
    assert env.now == pytest.approx(11.0)


def test_cancelled_flow_leaves_no_live_callback():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    victim = fabric.transfer(1000.0, [link])
    bystander = fabric.transfer(1000.0, [link])
    victim.done.defused = True
    env.call_later(5.0, lambda _e: victim.cancel())
    env.run(until=6.0)
    assert victim._entry is None and victim._slot is None
    assert victim._on_entry not in _live_callbacks(env)
    assert bystander._on_entry in _live_callbacks(env)


def test_transferred_tracks_partial_progress():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    flow = fabric.transfer(1000.0, [link])
    env.run(until=3.0)
    assert flow.transferred() == pytest.approx(300.0)


def test_utilization_never_exceeds_one():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    flows = [fabric.transfer(10_000.0, [link]) for _ in range(7)]
    env.run(until=1.0)
    assert link.utilization() <= 1.0 + 1e-9
    for flow in flows:
        assert flow.rate == pytest.approx(100.0 / 7)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(
        st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=8
    ),
    capacity=st.floats(min_value=1.0, max_value=1e6),
)
def test_property_total_bytes_conserved(sizes, capacity):
    """All bytes of all flows eventually arrive, whatever the contention."""
    env = Environment()
    fabric = NetworkFabric(env)
    link = fabric.link("l", capacity)
    flows = [fabric.transfer(size, [link]) for size in sizes]
    env.run()
    for flow, size in zip(flows, sizes):
        assert flow.done.ok
        assert flow.remaining <= 1e-6
    assert fabric.bytes_moved == pytest.approx(sum(sizes), rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(
        st.floats(min_value=1.0, max_value=1e5), min_size=2, max_size=6
    ),
    delays=st.lists(
        st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=6
    ),
)
def test_property_completion_no_earlier_than_ideal(sizes, delays):
    """No flow finishes before size/capacity seconds after it starts."""
    env = Environment()
    fabric = NetworkFabric(env)
    capacity = 1000.0
    link = fabric.link("l", capacity)
    n = min(len(sizes), len(delays))
    records = []

    def launch(env, delay, size):
        yield env.timeout(delay)
        flow = fabric.transfer(size, [link])
        start = env.now
        yield flow.done
        records.append((start, env.now, size))

    for i in range(n):
        env.process(launch(env, delays[i], sizes[i]))
    env.run()
    assert len(records) == n
    for start, end, size in records:
        assert end - start >= size / capacity - 1e-6


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_deterministic_replay(seed):
    """Identical setups produce identical completion times."""
    import random

    def run_once():
        rng = random.Random(seed)
        env = Environment()
        fabric = NetworkFabric(env)
        links = [fabric.link(f"l{i}", rng.uniform(10, 1000)) for i in range(3)]
        finish_times = []

        def launch(env, delay, size, chosen):
            yield env.timeout(delay)
            flow = fabric.transfer(size, chosen)
            yield flow.done
            finish_times.append(env.now)

        for _ in range(6):
            delay = rng.uniform(0, 5)
            size = rng.uniform(1, 5000)
            chosen = rng.sample(links, rng.randint(1, 3))
            env.process(launch(env, delay, size, chosen))
        env.run()
        return finish_times

    assert run_once() == run_once()


# -- one heap entry per flow runs completions where eager timers did ---------


class _EagerFabric(NetworkFabric):
    """The fabric before one-entry-per-flow and the fused pass: every arm
    pushes a fresh timer, stale timers are told apart by a per-flow
    generation, and every flow asks each of its links for its share.

    It keeps its own copy of the old per-flow arithmetic (builtin
    ``min``/``max``, ``link.share()`` per flow per link), so it never
    reads the ``fair_share`` cache it is checked against.
    """

    def __init__(self, env):
        super().__init__(env)
        self._generation = {}

    def _rebalance(self, flows):
        for flow in sorted(flows, key=lambda f: f.index):
            if not flow._active:
                continue
            self._settle(flow)
            new_rate = flow.rate_cap
            for link in flow.links:
                new_rate = min(new_rate, link.share())
            flow.rate = new_rate
            self._arm_timer(flow)

    def _settle(self, flow):
        now = self.env.now
        if flow._active and flow.rate > 0:
            moved = flow.rate * (now - flow._last_update)
            flow.remaining = max(flow.remaining - moved, 0.0)
            self.bytes_moved += moved
        flow._last_update = now

    @staticmethod
    def _drained(flow):
        return flow.remaining <= max(_EPSILON, flow.nbytes * 1e-9)

    def _disarm(self, flow):
        self._generation[flow] = self._generation.get(flow, 0) + 1

    def _arm_timer(self, flow):
        self._disarm(flow)
        generation = self._generation[flow]
        if self._drained(flow):
            self._complete(flow)
            return
        if flow.rate <= _EPSILON:
            return
        eta = flow.remaining / flow.rate
        if self.env.now + eta <= self.env.now:
            self._complete(flow)
            return
        self.env.call_later(
            eta, lambda _ev, f=flow, g=generation: self._on_timer(f, g)
        )

    def _on_timer(self, flow, generation):
        if not flow._active or generation != self._generation[flow]:
            return
        self._settle(flow)
        if not self._drained(flow):
            self._arm_timer(flow)
            return
        self._complete(flow)


_AT = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.5]),  # same-instant collisions
    st.floats(min_value=0.0, max_value=5.0),
)
_FLOW = st.tuples(
    st.just("flow"),
    st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=2000.0)),
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3,
             unique=True),
    st.one_of(st.none(), st.floats(min_value=1.0, max_value=500.0)),
)
_FABRIC_OPS = st.lists(
    st.tuples(
        _AT,
        st.one_of(
            _FLOW,
            st.tuples(st.just("burst"), st.lists(_FLOW, min_size=2, max_size=4)),
            st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=20)),
            st.tuples(st.just("sample")),
        ),
    ),
    min_size=1,
    max_size=12,
)
_CAPACITIES = st.lists(
    st.floats(min_value=10.0, max_value=1000.0), min_size=4, max_size=4
)


def _run_fabric_program(fabric_class, capacities, ops):
    """Run ``ops`` and log completions, cancels and samples, in order.

    After every op and every completion, each link's cached fair share
    is unset or equal to the share its current membership gives.
    """
    env = Environment()
    fabric = fabric_class(env)
    links = [fabric.link(f"l{i}", c) for i, c in enumerate(capacities)]
    flows = []
    log = []

    def check_fair_shares():
        for link in links:
            assert link.fair_share is None or link.fair_share == link.share()

    def start(_kind, nbytes, chosen, rate_cap):
        label = f"f{len(flows)}"
        flow = fabric.transfer(
            nbytes, [links[i] for i in chosen],
            rate_cap=math.inf if rate_cap is None else rate_cap, label=label,
        )
        flows.append(flow)

        def finished(event):
            event.defused = True
            log.append((label, "ok" if event.ok else "cancelled", env.now))
            check_fair_shares()

        flow.done.callbacks.append(finished)

    def act(op):
        kind = op[0]
        if kind == "flow":
            start(*op)
        elif kind == "burst":
            for flow_op in op[1]:
                start(*flow_op)
        elif kind == "cancel":
            if flows:
                flows[op[1] % len(flows)].cancel()
        else:
            log.append(("sample", env.now, fabric.bytes_moved,
                        [flow.transferred() for flow in flows]))
        check_fair_shares()

    for at, op in ops:
        env.call_later(at, lambda _e, op=op: act(op))
    env.run()
    log.append(("end", fabric.bytes_moved))
    return log


@settings(max_examples=200, deadline=None)
@given(capacities=_CAPACITIES, ops=_FABRIC_OPS)
def test_property_one_entry_per_flow_matches_eager_timers(capacities, ops):
    assert _run_fabric_program(NetworkFabric, capacities, ops) == (
        _run_fabric_program(_EagerFabric, capacities, ops)
    )
