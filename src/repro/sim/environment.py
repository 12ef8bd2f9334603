"""The simulation environment: clock, scheduler, and run loop.

This is the simulator's innermost loop: a replay pops millions of queue
entries through :meth:`Environment.run`, so the loop body is written
flat, with the queues and clock in local bindings.  Every entry is a
zero-argument callable: a plain callback from :meth:`~Environment.call_soon`,
:meth:`~Environment.call_later` or :meth:`~Environment.call_at`, or a
triggered :class:`~repro.sim.events.Event`, which queues itself and is
processed by being called.  :meth:`Environment.step` is the single-entry
API (tests and tools drive it directly); both it and the run loop just
call the entry.

Entries run in (time, priority, insertion-order) order, kept in two
queues:

* the **urgent lane**, a FIFO deque of entries due *now* that must run
  before every normal entry (process kick-offs and every other
  :meth:`Environment.call_soon`);
* the **heap** of normal entries, ordered by (time, insertion-order).

An urgent entry is always due at the current time: it is queued at
``now``, and the clock only advances by popping the heap, which
:meth:`~Environment.run`, :meth:`~Environment.step` and
:meth:`~Environment.peek` do only once the lane is empty.  Urgent entries
also sort before every normal entry at equal time and are FIFO among
themselves, so draining the lane first and then popping the heap yields
exactly the order one heap keyed on (time, priority, insertion-order)
would — at O(1) per urgent entry instead of O(log n).

:meth:`~Environment.call_soon` and :meth:`~Environment.call_later` let
one-shot work run as plain callbacks in the queue slots a generator
process would take: ``call_soon`` takes a process kick-off's urgent slot,
``call_later(delay, ...)`` the slot of ``timeout(delay)``.

:meth:`~Environment.reserve` takes a heap slot without pushing anything,
and :meth:`~Environment.call_at` pushes a callback at a reserved slot
later.  A timer that is re-armed often (a network flow re-rated on every
arrival and departure on its links) keeps one live heap entry that moves
to its latest slot, instead of leaving a dead entry per re-arm.  Timers
that are all due a fixed delay after they are armed (keep-alive, sink
TTL, request timeout) go further: a :class:`~repro.sim.deadlines.Deadlines`
reserves each one's slot and keeps only the earliest live one on the
heap, so a cancelled timer never reaches it.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Iterable, List, Optional, Tuple

from .events import AllOf, Event, PENDING, PROCESSED, TRIGGERED
from .process import Process, ProcessGenerator

#: A queue entry: a callback, or a triggered event (calling it processes it).
Entry = Callable[[], None]


class EmptySchedule(Exception):
    """Raised internally when the event queue runs dry."""


class Environment:
    """A discrete-event simulation environment.

    Time is a float in *seconds*.  Queue entries run in (time, priority,
    insertion-order) order, which makes runs fully deterministic.
    """

    __slots__ = ("_now", "_queue", "_urgent", "_eid")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Normal entries as (time, insertion-order, entry).
        self._queue: List[Tuple[float, int, Entry]] = []
        #: The urgent lane: entries due now, ahead of every normal entry.
        self._urgent: Deque[Entry] = deque()
        self._eid = 0

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event factories ------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event firing with ``value`` ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative delay {delay}")
        event = Event(self)
        event._value = value
        event._state = TRIGGERED
        self.schedule(event, delay)
        return event

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator)

    def call_soon(self, callback: Entry) -> None:
        """Run ``callback()`` in the next urgent slot.

        This is the slot a process kick-off takes, so a callback started
        here runs exactly where ``process(gen)`` would have started
        ``gen``.
        """
        self.schedule_urgent(callback)

    def call_later(self, delay: float, callback: Entry) -> None:
        """Run ``callback()`` ``delay`` seconds from now.

        This is the slot ``timeout(delay)`` takes, so a callback armed here
        runs exactly where a process waiting on that timeout would resume.
        """
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative delay {delay}")
        self.schedule(callback, delay)

    def defer(self, delay: float, callback: Entry) -> None:
        """``call_soon`` then ``call_later(delay, callback)``.

        The queue slots of ``process(gen)`` for a ``gen`` that yields
        ``timeout(delay)`` and then acts: the drop-in for that shape,
        minus the generator, the :class:`Process`, and its completion
        event.
        """
        self.call_soon(lambda: self.call_later(delay, callback))

    def call_at(self, slot: Tuple[float, int], callback: Entry) -> None:
        """Run ``callback()`` at ``slot``, a key :meth:`reserve` handed
        out."""
        self.schedule(callback, slot=slot)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ------------------------------------------------------------

    def reserve(self, delay: float) -> Tuple[float, int]:
        """Take the queue slot ``schedule(entry, delay)`` would take, and
        push nothing.

        Returns the slot's ``(time, insertion-order)`` key.  An entry
        pushed there later with ``schedule(entry, slot=...)`` (or
        :meth:`call_at`) runs exactly where it would have run had it been
        scheduled now.  A slot must be pushed before it is due, at most
        once; a slot never pushed is simply never run.
        """
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative delay {delay}")
        self._eid += 1
        return (self._now + delay, self._eid)

    def schedule(
        self,
        entry: Entry,
        delay: float = 0.0,
        slot: Optional[Tuple[float, int]] = None,
    ) -> None:
        """Queue ``entry`` to run ``delay`` seconds from now, or at
        ``slot``, a key :meth:`reserve` handed out."""
        if slot is None:
            self._eid += 1
            heappush(self._queue, (self._now + delay, self._eid, entry))
            return
        at, eid = slot
        if at < self._now:
            raise ValueError(f"slot at {at} lies in the past (now={self._now})")
        heappush(self._queue, (at, eid, entry))

    def schedule_urgent(self, entry: Entry) -> None:
        """Queue ``entry`` on the urgent lane: *now*, ahead of normal
        entries.

        The process kick-off and ``call_soon`` hot path; O(1).
        """
        self._urgent.append(entry)

    def peek(self) -> float:
        """Time of the next queue entry, or +inf if none."""
        if self._urgent:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Run exactly one queue entry."""
        if self._urgent:
            entry = self._urgent.popleft()
        else:
            try:
                self._now, _, entry = heappop(self._queue)
            except IndexError:
                raise EmptySchedule() from None
        entry()

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no entries remain), a number
        (run until that simulated time), or an :class:`Event` (run until it
        has been processed, returning its value).
        """
        stop_event: Optional[Event] = None
        stop_time: Optional[float] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
        else:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(
                    f"until={stop_time} lies in the past (now={self._now})"
                )

        # The hot loop: `while True: step()` with the stop checks, but
        # with the queues and clock handled through locals instead of
        # method/property calls per entry.  Urgent entries are due now,
        # so the time checks apply to the heap only.
        queue = self._queue
        urgent = self._urgent
        popleft = urgent.popleft
        while True:
            if stop_event is not None and stop_event._state == PROCESSED:
                return stop_event.value
            if urgent:
                popleft()()
                continue
            if not queue:
                if stop_event is not None and stop_event._state == PENDING:
                    raise RuntimeError(
                        "run(until=event) exhausted the schedule before "
                        "the event fired"
                    )
                if stop_time is not None:
                    self._now = stop_time
                return None
            if stop_time is not None and queue[0][0] > stop_time:
                self._now = stop_time
                return None
            self._now, _eid, entry = heappop(queue)
            entry()

    def __repr__(self) -> str:
        pending = len(self._queue) + len(self._urgent)
        return f"<Environment now={self._now:.6f} pending={pending}>"
