"""Unit tests for the Resource and Store primitives."""

import pytest

from repro.sim import Environment, Resource, Store


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    grants = []

    def user(env, tag, hold):
        with res.request() as req:
            yield req
            grants.append((tag, env.now))
            yield env.timeout(hold)

    env.process(user(env, "a", 5))
    env.process(user(env, "b", 5))
    env.process(user(env, "c", 5))
    env.run()
    assert grants == [("a", 0), ("b", 0), ("c", 5)]


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, tag):
        with res.request() as req:
            yield req
            order.append(tag)
            yield env.timeout(1)

    for tag in "abc":
        env.process(user(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_release_via_context_manager():
    env = Environment()
    res = Resource(env, capacity=1)

    def user(env):
        with res.request() as req:
            yield req
            yield env.timeout(1)

    env.process(user(env))
    env.run()
    assert res.count == 0


def test_resource_cancel_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)
    granted = []

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def impatient(env):
        req = res.request()
        yield env.timeout(1)
        res.release(req)  # not yet granted: withdraws it from the queue

    def patient(env):
        yield env.timeout(0.5)
        with res.request() as req:
            yield req
            granted.append(env.now)

    env.process(holder(env))
    env.process(impatient(env))
    env.process(patient(env))
    env.run()
    # The cancelled request must not block the patient one.
    assert granted == [10]


def test_store_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for item in [1, 2, 3]:
            yield store.put(item)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [1, 2, 3]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append((item, env.now))

    def producer(env):
        yield env.timeout(4)
        yield store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [("late", 4)]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    times = []

    def producer(env):
        yield store.put("a")
        times.append(env.now)
        yield store.put("b")
        times.append(env.now)

    def consumer(env):
        yield env.timeout(5)
        yield store.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert times == [0, 5]


def _store_wakeups(put_item):
    """Getters park, then items arrive through ``put_item(store,
    item)``; returns (getter, item, time) in wake order."""
    env = Environment()
    store = Store(env)
    woke = []

    def getter(name):
        item = yield store.get()
        woke.append((name, item, env.now))

    for name in ("a", "b", "c", "d"):
        env.process(getter(name))

    def producer():
        yield env.timeout(1)
        for item in [2, 4, 5]:
            put_item(store, item)
        yield env.timeout(1)
        put_item(store, 7)
        put_item(store, 1)

    env.process(producer())
    env.run()
    return woke, list(store.items)


def test_store_put_nowait_wakes_getters_like_put():
    by_put = _store_wakeups(lambda store, item: store.put(item))
    by_put_nowait = _store_wakeups(lambda store, item: store.put_nowait(item))
    assert by_put_nowait == by_put
    assert by_put == (
        [("a", 2, 1), ("b", 4, 1), ("c", 5, 1), ("d", 7, 2)],
        [1],
    )


def test_store_put_nowait_rejects_bounded_store():
    store = Store(Environment(), capacity=2)
    with pytest.raises(ValueError):
        store.put_nowait("x")
    assert len(store) == 0
