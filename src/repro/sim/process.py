"""Simulation processes: generator coroutines driven by the event loop."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """Wraps a generator so that it advances whenever a yielded event fires.

    A :class:`Process` is itself an event that triggers when the generator
    returns (value = return value) or raises (failure), so processes can wait
    for each other simply by yielding the process object.
    """

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator: ProcessGenerator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        # Kick the generator off in the next urgent slot.
        env.call_soon(self._advance)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    # -- internal -----------------------------------------------------------

    def _advance(self, event: Optional[Event] = None) -> None:
        """Send/throw ``event``'s outcome (None at the kick-off) into the
        generator and re-arm."""
        env = self.env
        generator = self._generator
        while True:
            try:
                if event is None:
                    next_event = generator.send(None)
                elif event._exception is not None:
                    event.defused = True
                    next_event = generator.throw(event._exception)
                else:
                    next_event = generator.send(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                self.fail(RuntimeError(
                    f"process yielded a non-event: {next_event!r}"
                ))
                return
            if next_event.env is not env:
                self.fail(RuntimeError("yielded event from another environment"))
                return

            callbacks = next_event.callbacks
            if callbacks is None:
                # Already processed: loop immediately with its outcome.
                event = next_event
                continue
            callbacks.append(self._advance)
            return

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", "process")
        return f"<Process {name} alive={self.is_alive}>"
