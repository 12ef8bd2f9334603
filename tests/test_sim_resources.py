"""Unit tests for Resource, Store, and LevelContainer primitives."""

import pytest

from repro.sim import Environment, LevelContainer, Resource, Store


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
        req.cancel()

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


def test_store_predicate_get():
    env = Environment()
    store = Store(env)
    got = []

    def setup(env):
        yield store.put({"key": "a"})
        yield store.put({"key": "b"})

    def consumer(env):
        yield env.timeout(1)
        item = yield store.get(lambda it: it["key"] == "b")
        got.append(item["key"])
        item = yield store.get()
        got.append(item["key"])

    env.process(setup(env))
    env.process(consumer(env))
    env.run()
    assert got == ["b", "a"]


def test_store_predicate_waits_for_match():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get(lambda it: it == "wanted")
        got.append((item, env.now))

    def producer(env):
        yield store.put("other")
        yield env.timeout(2)
        yield store.put("wanted")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [("wanted", 2)]
    assert list(store.items) == ["other"]


def _store_wakeups(put_item):
    """Getters (some filtered) park, then items arrive through
    ``put_item(store, item)``; returns (getter, item, time) in wake order."""
    env = Environment()
    store = Store(env)
    woke = []

    def getter(name, predicate=None):
        item = yield store.get(predicate)
        woke.append((name, item, env.now))

    env.process(getter("odd", lambda it: it % 2 == 1))
    env.process(getter("any"))
    env.process(getter("big", lambda it: it > 3))
    env.process(getter("any2"))

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
    assert [name for name, _, _ in by_put[0]] == ["any", "big", "odd", "any2"]


def test_store_put_nowait_rejects_bounded_store():
    store = Store(Environment(), capacity=2)
    with pytest.raises(ValueError):
        store.put_nowait("x")
    assert len(store) == 0


def test_level_container_get_blocks_until_level():
    env = Environment()
    tank = LevelContainer(env, capacity=100, init=0)
    got = []

    def consumer(env):
        yield tank.get(30)
        got.append(env.now)

    def producer(env):
        yield env.timeout(1)
        yield tank.put(10)
        yield env.timeout(1)
        yield tank.put(25)

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [2]
    assert tank.level == 5


def test_level_container_put_blocks_at_capacity():
    env = Environment()
    tank = LevelContainer(env, capacity=10, init=10)
    times = []

    def producer(env):
        yield tank.put(5)
        times.append(env.now)

    def consumer(env):
        yield env.timeout(3)
        yield tank.get(6)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert times == [3]
    assert tank.level == 9


def test_level_container_rejects_negative_amounts():
    env = Environment()
    tank = LevelContainer(env, capacity=10)
    with pytest.raises(ValueError):
        tank.put(-1)
    with pytest.raises(ValueError):
        tank.get(-1)


def test_level_container_init_validation():
    env = Environment()
    with pytest.raises(ValueError):
        LevelContainer(env, capacity=5, init=6)
