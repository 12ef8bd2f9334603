"""Shared-resource primitives built on the event kernel.

Two primitives cover everything the cluster substrate needs:

:class:`Resource`
    A counted resource (e.g. CPU cores) acquired with ``request()`` /
    ``release()``.  Requests queue FIFO.
:class:`Store`
    An unbounded-or-bounded FIFO of Python objects (e.g. a dispatch queue).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, List

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


class StorePut(Event):
    __slots__ = ("store", "item")

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.store = store
        self.item = item


class StoreGet(Event):
    __slots__ = ("store",)

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        self.store = store


class Store:
    """A FIFO store of items with optional capacity.

    ``get()`` hands out items in put order to getters in request order;
    the function dispatchers and the DLU queue work through it.
    """

    __slots__ = ("env", "capacity", "items", "_putters", "_getters")

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    def put(self, item: Any) -> StorePut:
        event = StorePut(self, item)
        self._putters.append(event)
        self._dispatch()
        return event

    def put_nowait(self, item: Any) -> None:
        """Add ``item`` to an unbounded store, with no :class:`StorePut`.

        On an unbounded store a put is admitted at once, so its event
        only tells a waiter what it already knows; callers that never
        wait on it use this instead.  Getters wake in the same order as
        after :meth:`put`.
        """
        if self.capacity != float("inf"):
            raise ValueError("put_nowait needs an unbounded store")
        self.items.append(item)
        self._dispatch()

    def get(self) -> StoreGet:
        event = StoreGet(self)
        self._getters.append(event)
        self._dispatch()
        return event

    def __len__(self) -> int:
        return len(self.items)

    # -- internal -----------------------------------------------------------

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            # Admit pending puts while there is room.
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.popleft()
                self.items.append(put.item)
                put.succeed()
                progress = True
            # Hand items to waiting getters, oldest first.
            while self._getters and self.items:
                self._getters.popleft().succeed(self.items.popleft())
                progress = True
