"""A one-holder :class:`Resource` (e.g. an orchestrator's trigger slot)
whose holds queue FIFO, and a :class:`Fifo` that hands queued items to
one consumer callback at a time."""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment


class Resource:
    """A slot one holder at a time can hold; the others wait FIFO."""

    __slots__ = ("env", "busy", "_waiting")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.busy = False
        #: The grants of queued holds, in arrival order.
        self._waiting: Deque[Callable[[], None]] = deque()

    def hold(self, duration: Callable[[], float],
             then: Callable[[], None]) -> None:
        """Queue for the slot, hold it ``duration()`` seconds once granted,
        release it, then call ``then()``: in the slots of a process that
        does just that, starting now.

        A grant runs one zero-delay slot after the request (a free slot)
        or the release that hands the slot over, where a request event
        succeeding there took its waiter.
        """
        env = self.env

        def granted() -> None:
            env.call_later(duration(), done)

        def done() -> None:
            if self._waiting:
                env.call_later(0.0, self._waiting.popleft())
            else:
                self.busy = False
            then()

        def request() -> None:
            if self.busy:
                self._waiting.append(granted)
            else:
                self.busy = True
                env.call_later(0.0, granted)

        env.call_soon(request)


class Fifo(deque):
    """A FIFO queue with at most one parked consumer: :meth:`take` hands
    the head item to ``consumer(item)`` one zero-delay slot after the
    match (the take if an item waits, else the next :meth:`put`), where
    a store get's event took its waiter."""

    __slots__ = ("env", "_consumer")

    def __init__(self, env: "Environment") -> None:
        super().__init__()
        self.env = env
        self._consumer: Optional[Callable[[Any], None]] = None

    def put(self, item: Any) -> None:
        self.append(item)
        consumer = self._consumer
        if consumer is not None:
            self._consumer = None
            self.take(consumer)

    def take(self, consumer: Callable[[Any], None]) -> None:
        if not self:
            self._consumer = consumer
            return
        item = self.popleft()
        self.env.call_later(0.0, lambda: consumer(item))
