"""Simulation processes: generator coroutines driven by the event loop."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from .events import Event, PENDING, TRIGGERED

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment

ProcessGenerator = Generator[Event, Any, Any]


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Process(Event):
    """Wraps a generator so that it advances whenever a yielded event fires.

    A :class:`Process` is itself an event that triggers when the generator
    returns (value = return value) or raises (failure), so processes can wait
    for each other simply by yielding the process object.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: ProcessGenerator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        # Kick the generator off in the next urgent slot.
        self._target: Optional[Event] = env.call_soon(self._advance)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting a finished process is an error; interrupting a process
        waiting on an event detaches it from that event (the event may still
        fire for other waiters).
        """
        if self._state != PENDING:
            raise RuntimeError("cannot interrupt a terminated process")
        if self is self.env.active_process:
            raise RuntimeError("a process cannot interrupt itself")
        interrupt_event = Event(self.env)
        interrupt_event._exception = Interrupt(cause)
        interrupt_event._state = TRIGGERED
        interrupt_event.defused = True
        interrupt_event.callbacks.append(self._resume_interrupt)
        self.env.schedule_urgent(interrupt_event)

    # -- internal -----------------------------------------------------------

    def _detach_from_target(self) -> None:
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._advance)
            except ValueError:
                pass

    def _resume_interrupt(self, event: Event) -> None:
        if self._state != PENDING:
            return  # finished before the interrupt was delivered
        self._detach_from_target()
        self._advance(event)

    def _advance(self, event: Event) -> None:
        """Send/throw ``event``'s outcome into the generator and re-arm."""
        env = self.env
        generator = self._generator
        stack = env._active_stack
        stack.append(self)
        try:
            while True:
                try:
                    if event._exception is not None:
                        event.defused = True
                        next_event = generator.throw(event._exception)
                    else:
                        next_event = generator.send(event._value)
                except StopIteration as stop:
                    self._target = None
                    self.succeed(stop.value)
                    return
                except BaseException as exc:
                    self._target = None
                    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                        raise
                    self.fail(exc)
                    return

                if not isinstance(next_event, Event):
                    error = RuntimeError(
                        f"process yielded a non-event: {next_event!r}"
                    )
                    self._target = None
                    self.fail(error)
                    return
                if next_event.env is not env:
                    error = RuntimeError("yielded event from another environment")
                    self._target = None
                    self.fail(error)
                    return

                self._target = next_event
                callbacks = next_event.callbacks
                if callbacks is None:
                    # Already processed: loop immediately with its outcome.
                    event = next_event
                    continue
                callbacks.append(self._advance)
                return
        finally:
            stack.pop()

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", "process")
        return f"<Process {name} alive={self.is_alive}>"
