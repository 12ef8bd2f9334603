"""Discrete-event simulation kernel (SimPy-style, written from scratch).

Public surface::

    env = Environment()
    def proc(env):
        yield env.timeout(1.0)
        return "done"
    p = env.process(proc(env))
    env.run()
"""

from .environment import EmptySchedule, Environment
from .events import AllOf, AnyOf, ConditionEvent, Event, Timeout
from .process import Process
from .resources import Request, Resource, Store
from .rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "ConditionEvent",
    "EmptySchedule",
    "Environment",
    "Event",
    "Process",
    "Request",
    "Resource",
    "RngRegistry",
    "Store",
    "Timeout",
]
