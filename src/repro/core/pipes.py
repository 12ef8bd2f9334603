"""Pipe connectors: the DataFlower data plane (paper §7, Figure 9).

Three transports, chosen by data locality and size:

* **Local pipe** — source and destination on one node: the stream is
  pumped straight into the data sink across the memory bus.
* **Streaming pipe** — cross-node: a Kafka-like streaming channel over the
  fabric (container egress -> host NIC -> destination host NIC).  Supports
  chunked checkpoints: on a data-plane interrupt the retry resumes from
  the last completed checkpoint fraction rather than byte zero.
* **Direct socket** — data under 16 KB skips the pipe connector entirely
  and goes by socket (latency-bound, no bandwidth reservation).

Streaming overlaps with computation: a push may *start* as soon as the
FLU emits its first chunk, but never *completes* before the FLU does
(the last byte does not exist earlier).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

from ..cluster.container import Container
from ..cluster.node import Node

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.cluster import Cluster
    from ..sim.environment import Environment
    from ..sim.events import Event
    from .config import DataFlowerConfig


class ReDoSignal(Exception):
    """The producing FLU died; this push attempt is abandoned (ReDo repushes)."""


@dataclass
class PushOutcome:
    """What a completed push reports back to the DLU."""

    nbytes: float
    transport: str
    retries: int = 0
    checkpoint_restarts: int = 0


class PipeRouter:
    """Builds and drives pipe connectors for one cluster."""

    def __init__(self, env: "Environment", cluster: "Cluster",
                 config: "DataFlowerConfig") -> None:
        self.env = env
        self.cluster = cluster
        self.config = config
        self.pushes = 0
        self.socket_pushes = 0
        self.local_pushes = 0
        self.stream_pushes = 0
        self.checkpoint_restarts = 0
        #: Active streaming flows per container id, so a container crash
        #: can sever its connectors (fault model, §6.2).
        self._active_flows: dict = {}
        #: When enabled, every completed push appends
        #: (label, transport, nbytes, duration_s) here (Figure 19 study).
        self.record_log = False
        self.push_log: list = []

    def cancel_container_flows(self, container: Container,
                               reason: str = "container crash") -> int:
        """Cancel every in-flight stream from ``container``; returns count."""
        flows = list(self._active_flows.get(container.container_id, ()))
        for flow in flows:
            flow.cancel(reason)
        return len(flows)

    def push(
        self,
        container: Container,
        src_node: Node,
        dst_node: Node,
        nbytes: float,
        compute_done: "Event",
        label: str,
        cancel_token: Optional[List[bool]] = None,
        *,
        then: Callable[[Optional[PushOutcome], Optional[Exception]], None],
    ) -> None:
        """Move ``nbytes`` to ``dst_node``'s sink, then call
        ``then(outcome, None)`` with a :class:`PushOutcome`, or
        ``then(None, error)`` with the :class:`ReDoSignal` or
        ``FlowCancelled`` that abandoned the push.  ``then`` runs in the
        callback of the last event the push waited on, so the caller goes
        on in that queue slot, as after ``yield from`` a generator.

        ``compute_done`` gates completion: the datum is only fully
        materialized when the FLU finishes.  ``cancel_token`` is a
        one-element list; ``[True]`` aborts retries (the source container
        died and ReDo will repush from a new one).
        """
        self.pushes += 1
        outcome = PushOutcome(nbytes=nbytes, transport="?")
        push_start = self.env.now

        def transported(_event: Optional["Event"] = None,
                        error: Optional[Exception] = None) -> None:
            if error is not None:
                then(None, error)
                return
            transport_s = self.env.now - push_start

            def produced(event: "Event") -> None:
                if event._exception is not None:
                    # The producer died before finishing this datum.
                    event.defused = True
                    then(None, event._exception)
                    return
                if self.record_log:
                    # Pure transport time (the Figure 19 metric), excluding
                    # the wait for the producer to emit its final byte.
                    self.push_log.append(
                        (label, outcome.transport, nbytes, transport_s)
                    )
                then(outcome, None)

            # Streaming cannot complete before the producer has produced
            # the last byte.
            if compute_done.callbacks is not None:
                compute_done.callbacks.append(produced)
            else:
                produced(compute_done)

        if nbytes <= self.config.small_data_bytes:
            # Direct socket path: split and pass directly (§7).
            self.socket_pushes += 1
            outcome.transport = "socket"
            self.env.call_later(self.config.socket_latency_s, transported)
        elif src_node is dst_node:
            self.local_pushes += 1
            outcome.transport = "local-pipe"
            channel = self.cluster.memory_channel(src_node)
            channel.copy(nbytes, label=label).callbacks.append(transported)
        else:
            self.stream_pushes += 1
            outcome.transport = "stream-pipe"
            self._stream(container, src_node, dst_node, nbytes, label,
                         outcome, cancel_token, transported)

    # -- streaming with checkpointed retry ------------------------------------

    def _stream(self, container: Container, src_node: Node, dst_node: Node,
                nbytes: float, label: str, outcome: PushOutcome,
                cancel_token: Optional[List[bool]],
                streamed: Callable[..., None]) -> None:
        """Stream every byte across, then call ``streamed()``; once
        ``cancel_token`` is set, a cancel ends it with ``streamed(error=...)``."""
        checkpoint_bytes = max(nbytes * self.config.checkpoint_fraction, 1.0)
        sent = 0.0

        def advance(_event: Optional["Event"] = None) -> None:
            if sent >= nbytes:
                streamed()
                return
            links = [container.egress, src_node.egress, dst_node.ingress]
            flow = self.cluster.fabric.transfer(
                nbytes - sent,
                links,
                rate_cap=container.spec.net_bytes_per_s,
                label=label,
            )
            registry = self._active_flows.setdefault(container.container_id, set())
            registry.add(flow)
            start = self.env.now

            def landed(event: "Event") -> None:
                nonlocal sent
                registry.discard(flow)
                container.record_transfer(start, self.env.now)
                error = event._exception
                if error is None:
                    sent = nbytes
                    streamed()
                    return
                event.defused = True
                if cancel_token is not None and cancel_token[0]:
                    streamed(error=error)
                    return
                # Resume from the last completed checkpoint (§6.2): the
                # connector checkpoints asynchronously and incrementally.
                moved = flow.nbytes - flow.remaining
                completed = sent + moved
                sent = (completed // checkpoint_bytes) * checkpoint_bytes
                outcome.retries += 1
                outcome.checkpoint_restarts += 1
                self.checkpoint_restarts += 1
                self.env.call_later(self.config.retry_delay_s, advance)

            flow.done.callbacks.append(landed)

        advance()
