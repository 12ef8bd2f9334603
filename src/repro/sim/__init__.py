"""Discrete-event simulation kernel (SimPy-style, written from scratch).

Public surface: an :class:`Environment` with a clock and two queues,
one-shot :class:`Event`\\ s and their :class:`AllOf` join, a one-holder
:class:`Resource`, a :class:`Fifo` that hands items to a parked consumer,
:class:`Deadlines` for timers that are all due a fixed delay after they
are armed, and seeded RNG streams.  Simulation logic is chains of
zero-argument callbacks, each in the queue slot a generator process
would take::

    env = Environment()
    fired = []
    env.call_soon(lambda: env.call_later(
        1.0, lambda: fired.append(env.now)))
    env.run()
    assert fired == [1.0]

:class:`Process` remains as the generator-coroutine reference those
slots are defined by; nothing in the simulator's own code starts one.
"""

from .deadlines import Deadlines
from .environment import EmptySchedule, Environment
from .events import AllOf, Event
from .process import Process
from .resources import Fifo, Resource
from .rng import RngRegistry

__all__ = [
    "AllOf",
    "Deadlines",
    "EmptySchedule",
    "Environment",
    "Event",
    "Fifo",
    "Process",
    "Resource",
    "RngRegistry",
]
