"""Timers that are all due a fixed delay after they are armed.

A container's keep-alive, a sink entry's TTL and a request's timeout are
each armed far more often than they act: most are cancelled (the
container is checked out again, the entry fetched, the request done)
long before they are due.  Scheduled as plain callbacks, every one of
them sits on the heap until its deadline and pops as a no-op.

:class:`Deadlines` keeps such timers off the heap.  Each timer reserves
its own queue slot (:meth:`~repro.sim.environment.Environment.reserve`)
when it is armed, so it runs exactly where ``call_later(delay, ...)``
would have run it.  Because the delay is fixed, timers fall due in the
order they were armed, so they wait in a FIFO and only the earliest live
one has a heap entry.  When that entry fires it pushes the next live
timer's reserved slot and runs its callback.  A cancelled timer is
skipped when it reaches the front of the FIFO and never reaches the
heap; one whose entry is already on the heap pops as a no-op.  Each
:class:`Deadlines` thus holds at most one heap entry, however many
timers it has pending.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment

#: A pending timer: ``[slot, callback]``; the callback is ``None`` once the
#: timer is cancelled or has run, and the slot ``None`` until reserved.
Handle = List


class Deadlines:
    """Callbacks due ``delay`` seconds after they are armed, sharing one
    heap entry."""

    __slots__ = ("env", "delay", "_pending")

    def __init__(self, env: "Environment", delay: float) -> None:
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.delay = delay
        #: Armed timers in slot order; the front one's slot is on the heap
        #: whenever this is non-empty.
        self._pending: Deque[Handle] = deque()

    def arm(self, callback: Callable[[], None]) -> Handle:
        """Run ``callback()`` in the slot ``env.call_later(delay,
        callback)`` would take; returns the handle to :meth:`cancel`."""
        handle = [self.env.reserve(self.delay), callback]
        self._enqueue(handle)
        return handle

    def defer(self, callback: Callable[[], None]) -> Handle:
        """Run ``callback()`` in the slot ``env.defer(delay, callback)``
        would take: the slot is reserved in the next urgent slot, unless
        the handle is cancelled first."""
        handle = [None, callback]

        def reserve() -> None:
            if handle[1] is not None:
                handle[0] = self.env.reserve(self.delay)
                self._enqueue(handle)

        self.env.call_soon(reserve)
        return handle

    def cancel(self, handle: Optional[Handle]) -> None:
        """Drop a timer's callback; a no-op for ``None`` or a timer that
        already ran."""
        if handle is not None:
            handle[1] = None

    def _enqueue(self, handle: Handle) -> None:
        if not self._pending:
            self.env.call_at(handle[0], self._fire)
        self._pending.append(handle)

    def _fire(self) -> None:
        pending = self._pending
        handle = pending.popleft()
        callback = handle[1]
        handle[1] = None
        while pending and pending[0][1] is None:
            pending.popleft()
        if pending:
            self.env.call_at(pending[0][0], self._fire)
        if callback is not None:
            callback()
