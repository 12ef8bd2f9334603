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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

from ..cluster.container import Container
from ..cluster.network import FlowCancelled
from ..cluster.node import Node
from ..sim.resources import Store

from .pipes import ReDoSignal

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment
    from ..sim.events import Event
    from .pipes import PipeRouter


@dataclass
class _PushJob:
    src_node: Node
    dst_node: Node
    nbytes: float
    produced: "Event"
    label: str
    cancel_token: List[bool]
    on_delivered: Callable[[], None]
    on_abandoned: Optional[Callable[[], None]]


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
        self._queue: Store = Store(env)
        self._worker = env.process(self._drain())
        container.dlu = self

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
        self._queue.put_nowait(
            _PushJob(
                src_node=src_node,
                dst_node=dst_node,
                nbytes=nbytes,
                produced=compute_done,
                label=label,
                cancel_token=cancel_token,
                on_delivered=on_delivered,
                on_abandoned=on_abandoned,
            )
        )

    # -- internal ------------------------------------------------------------

    def _drain(self):
        """FIFO worker: one pipe connector transmits at a time."""
        while True:
            job = yield self._queue.get()
            try:
                if job.cancel_token[0]:
                    raise ReDoSignal()
                outcome = yield from self.router.push(
                    self.container,
                    job.src_node,
                    job.dst_node,
                    job.nbytes,
                    job.produced,
                    label=job.label,
                    cancel_token=job.cancel_token,
                )
                self.pushed_bytes += outcome.nbytes
                job.on_delivered()
            except (FlowCancelled, ReDoSignal):
                # The producing FLU crashed: ReDo re-executes it on another
                # container, which repushes this datum from scratch.
                if job.on_abandoned is not None:
                    job.on_abandoned()
            finally:
                self.pending -= 1
