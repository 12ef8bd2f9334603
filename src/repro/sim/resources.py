"""A counted resource (e.g. an orchestrator's trigger slot) acquired with
``request()`` / ``release()``; requests queue FIFO.  A :class:`Fifo` hands
queued items to one consumer callback at a time."""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment


class Request(Event):
    """A pending acquisition of one unit of a :class:`Resource`.

    Usable as a context manager so that ``with resource.request() as req:
    yield req`` always releases.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.resource.release(self)


class Resource:
    """A resource with integer capacity and FIFO request queue."""

    __slots__ = ("env", "capacity", "users", "queue")

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of units currently held."""
        return len(self.users)

    def request(self) -> Request:
        return Request(self)

    def release(self, request: Request) -> None:
        """Return a previously granted unit."""
        try:
            self.users.remove(request)
        except ValueError:
            # Releasing an ungranted request withdraws it from the queue.
            try:
                self.queue.remove(request)
            except ValueError:
                pass
            return
        self._grant_next()

    def hold(self, duration: Callable[[], float],
             then: Callable[[], None]) -> None:
        """Queue for a unit, hold it ``duration()`` seconds once granted,
        release it, then call ``then()``: in the slots of a process that
        does just that, starting now."""
        env = self.env

        def granted(request: Request) -> None:
            env.call_later(duration(), lambda _event: done(request))

        def done(request: Request) -> None:
            self.release(request)
            then()

        env.call_soon(lambda _event: self.request().callbacks.append(granted))

    # -- internal -----------------------------------------------------------

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self.capacity and not self.queue:
            self.users.append(request)
            request.succeed()
        else:
            self.queue.append(request)

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()


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
        self.env.call_later(0.0, lambda _event: consumer(item))
