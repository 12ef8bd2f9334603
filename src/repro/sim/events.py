"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence; whoever waits on it appends
a callback to its ``callbacks`` list, and the environment runs those
callbacks when it processes the event.  Events move through three states:

``PENDING``
    Created but not yet triggered; callbacks may still be added.
``TRIGGERED``
    A value (or exception) has been set and the event sits in one of the
    environment's queues waiting to be processed: a triggered event is
    its own queue entry, and calling it processes it.
``PROCESSED``
    The environment has run all callbacks.

Hot-path note: millions of events exist per replay, so every class here
declares ``__slots__`` (smaller objects, faster attribute access) and
internal state checks read ``_state`` directly instead of going through
the public properties.  The observable semantics are unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .environment import Environment

PENDING = "pending"
TRIGGERED = "triggered"
PROCESSED = "processed"


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event carries either a *value* (on success) or an *exception*
    (on failure).  A failure no callback marks *defused* raises out of
    :meth:`Environment.run`, so errors are never silently lost.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_state", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._state = PENDING
        #: Set when a failure has been handled (e.g. by an ``AllOf``);
        #: unhandled failures crash the simulation run to avoid silent loss.
        self.defused = False

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once a value or exception has been set."""
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The event's value; raises if the event has not triggered."""
        if not self.triggered:
            raise RuntimeError("value of untriggered event is not available")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = value
        self._state = TRIGGERED
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._state != PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._state = TRIGGERED
        self.env.schedule(self)
        return self

    def __call__(self) -> None:
        """Process the event: run its callbacks, mark it processed, and
        raise its failure unless a callback defused it.  A triggered
        event queues itself, so this is what its queue entry runs."""
        callbacks = self.callbacks
        self.callbacks = None
        for callback in callbacks:  # type: ignore[union-attr]
            callback(self)
        self._state = PROCESSED
        if self._exception is not None and not self.defused:
            raise self._exception

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event (callback use)."""
        if event._exception is not None:
            event.defused = True
            self.fail(event._exception)
        else:
            self.succeed(event._value)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} state={self._state}>"


class AllOf(Event):
    """Fires when every child event has fired; value maps events to values.

    A failure of any child propagates immediately: the ``AllOf`` fails
    with the child's exception and the child is marked *defused*.
    """

    __slots__ = ("events", "_matched")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        self._matched = 0
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.env is not env:
                raise ValueError("cannot mix events from different environments")
        for event in self.events:
            if event.processed or event.callbacks is None:
                # Already processed (or mid-processing): evaluate directly.
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._state != PENDING:
            if event._exception is not None and not event.defused:
                event.defused = True
            return
        if event._exception is not None:
            event.defused = True
            self.fail(event._exception)
            return
        self._matched += 1
        if self._matched == len(self.events):
            self.succeed({event: event._value for event in self.events})
