"""The Data Logic Unit: the per-container data daemon (paper §5.1).

The DLU runs beside the FLU, receives the function's output data, and
pushes it to destination sinks through pipe connectors — asynchronously,
so the FLU can serve the next invocation while data drains.  Pushes go
out **in FIFO order** through one connector at a time (§7: "The DLU of
the predecessor will send the data to child functions through different
pipe connectors in a FIFO fashion"), which is why a backlog at the DLU
translates directly into the queueing delay that Equation (1)'s pressure
term models (Figure 6).

The DLU also:

* counts pending transfers (the consistency-aware keep-alive refuses to
  recycle a container whose DLU still has data to pump, §6.2);
* tracks active flows so a container crash cancels them (fault model);
* reports the per-invocation transfer size for the pressure calculation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from ..cluster.container import Container
from ..cluster.node import Node
from ..sim.resources import Fifo

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment
    from ..sim.events import Event
    from .pipes import PipeRouter


class DLU:
    """One container's data logic unit."""

    def __init__(self, env: "Environment", container: Container,
                 router: "PipeRouter") -> None:
        self.env = env
        self.container = container
        self.router = router
        self.pending = 0
        self.pushed_bytes = 0.0
        self.push_count = 0
        #: Queued pushes, each a call that starts it.
        self._queue = Fifo(env)
        container.dlu = self
        env.call_soon(lambda _event: self._next())

    @property
    def idle(self) -> bool:
        """True when no data remains to be pumped (keep-alive condition)."""
        return self.pending == 0

    def push(
        self,
        src_node: Node,
        dst_node: Node,
        nbytes: float,
        compute_done: "Event",
        label: str,
        cancel_token: List[bool],
        on_delivered: Callable[[], None],
        on_abandoned: Optional[Callable[[], None]] = None,
    ) -> None:
        """Enqueue an asynchronous push; callbacks fire on the outcome."""
        self.pending += 1
        self.push_count += 1

        def send() -> None:
            if cancel_token[0]:
                settle(None, None)
                return
            self.router.push(
                self.container, src_node, dst_node, nbytes, compute_done,
                label=label, cancel_token=cancel_token, then=settle,
            )

        def settle(outcome, _error) -> None:
            if outcome is not None:
                self.pushed_bytes += outcome.nbytes
                on_delivered()
            elif on_abandoned is not None:
                # The producing FLU crashed: ReDo re-executes it on another
                # container, which repushes this datum from scratch.
                on_abandoned()
            self.pending -= 1
            self._next()

        self._queue.put(send)

    # -- internal ------------------------------------------------------------

    def _next(self) -> None:
        """FIFO drain: one pipe connector transmits at a time; the next
        queued push starts once this one settles."""
        self._queue.take(lambda send: send())
