"""Discrete-event simulation kernel (SimPy-style, written from scratch).

Public surface: an :class:`Environment` with a clock and two queues,
one-shot :class:`Event`\\ s and their :class:`AllOf` join, a counted
:class:`Resource`, a :class:`Fifo` that hands items to a parked consumer,
and seeded RNG streams.  Simulation logic is chains of callbacks, each
in the queue slot a generator process would take::

    env = Environment()
    fired = []
    env.call_soon(lambda _event: env.call_later(
        1.0, lambda _event: fired.append(env.now)))
    env.run()
    assert fired == [1.0]

:class:`Process` remains as the generator-coroutine reference those
slots are defined by; nothing in the simulator's own code starts one.
"""

from .environment import EmptySchedule, Environment
from .events import AllOf, Event
from .process import Process
from .resources import Fifo, Request, Resource
from .rng import RngRegistry

__all__ = [
    "AllOf",
    "EmptySchedule",
    "Environment",
    "Event",
    "Fifo",
    "Process",
    "Request",
    "Resource",
    "RngRegistry",
]
