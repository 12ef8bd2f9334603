"""Unit tests for the Resource and Fifo primitives."""

from repro.sim import Environment, Fifo, Resource


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env)
    order = []

    for tag in "abc":
        res.hold(lambda: 1.0, lambda tag=tag: order.append((tag, env.now)))
    env.run()
    assert order == [("a", 1.0), ("b", 2.0), ("c", 3.0)]
    assert not res.busy


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
    env.call_later(4.0, lambda: fifo.put("late"))
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
        env.call_later(0.0, lambda: log.append(label))

    def put_between():
        mark("before put")
        fifo.put("x")
        mark("after put")

    fifo.take(lambda item: log.append(("parked consumer", item)))
    env.call_later(1.0, put_between)
    env.run()
    assert log == ["before put", ("parked consumer", "x"), "after put"]

    def take_between():
        mark("before take")
        fifo.take(lambda item: log.append(("taker", item)))
        mark("after take")

    fifo.put("y")
    env.call_later(1.0, take_between)
    env.run()
    assert log[3:] == ["before take", ("taker", "y"), "after take"]
