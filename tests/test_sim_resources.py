"""Unit tests for the Resource and Fifo primitives."""

import pytest

from repro.sim import Environment, Fifo, Resource


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


def test_fifo_hands_items_in_put_order():
    env = Environment()
    fifo = Fifo(env)
    got = []

    def consume(item):
        got.append(item)
        fifo.take(consume)

    fifo.take(consume)
    for item in [1, 2, 3]:
        fifo.put(item)
    env.run()
    assert got == [1, 2, 3]
    assert not fifo


def test_fifo_take_parks_until_put():
    env = Environment()
    fifo = Fifo(env)
    got = []
    fifo.take(lambda item: got.append((item, env.now)))
    env.call_later(4.0, lambda _e: fifo.put("late"))
    env.run()
    assert got == [("late", 4.0)]


def test_fifo_wakes_its_consumer_one_slot_after_the_match():
    """A parked consumer wakes in the zero-delay slot the put takes,
    where a store get's event woke its waiter; a waiting item is handed
    over in the slot the take takes."""
    env = Environment()
    fifo = Fifo(env)
    log = []

    def mark(label):
        env.call_later(0.0, lambda _e: log.append(label))

    def put_between(_event):
        mark("before put")
        fifo.put("x")
        mark("after put")

    fifo.take(lambda item: log.append(("parked consumer", item)))
    env.call_later(1.0, put_between)
    env.run()
    assert log == ["before put", ("parked consumer", "x"), "after put"]

    def take_between(_event):
        mark("before take")
        fifo.take(lambda item: log.append(("taker", item)))
        mark("after take")

    fifo.put("y")
    env.call_later(1.0, take_between)
    env.run()
    assert log[3:] == ["before take", ("taker", "y"), "after take"]
