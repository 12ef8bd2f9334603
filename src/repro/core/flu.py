"""The Function Logic Unit: one function invocation inside a container.

The FLU is the computation half of the paper's container abstraction
(§5.1): it loads inputs from the host sink, runs the (possibly pipelined)
computation, hands outputs to the DLU as soon as they materialize, and
frees the container at *compute end* — not at transfer end — which is
what lets a container serve the next request while the previous one's
data is still draining (Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..cluster.container import Container
from ..workflow.instance import Task
from ..workflow.profiles import FunctionProfile

if TYPE_CHECKING:  # pragma: no cover
    from ..metrics.latency import TaskRecord
    from ..sim.events import Event
    from ..systems.base import Deployment, RequestState


@dataclass
class FluInvocation:
    """Invocation-scoped context shared between the FLU and its DLU pushes."""

    task: Task
    container: Container
    record: "TaskRecord"
    attempt: int
    #: Fails with ReDoSignal if the FLU dies mid-computation: the one
    #: abort signal of the attempt, which stops the FLU's next step, its
    #: sink fetches and copies, and its pushes' checkpoint retries.
    compute_done: "Event"
    #: Where the invocation runs: what a crash needs to ReDo the task.
    deployment: "Deployment"
    state: "RequestState"
    #: Per-output "datum fully produced" events; for fan-out outputs the
    #: branches complete progressively (Figure 5(b)'s pipelined FLUs), so
    #: early branches can trigger consumers before the FLU finishes.
    edge_events: dict = field(default_factory=dict)
    pushes_pending: int = 0
    last_push_done_at: float = 0.0

    def edge_ready_fraction(self, index: int, total_edges: int,
                            profile: FunctionProfile) -> float:
        """Fraction of the computation after which output ``index`` exists.

        With a single output the datum is complete only at compute end.
        With N outputs (FOREACH splits), branch j is fully produced at
        ``first_output + (1 - first_output) * (j+1)/N`` — data for early
        branches flows out while later branches are still being computed,
        which is what lets DataFlower trigger the consumer *before* the
        producer completes (Figure 13).
        """
        if total_edges <= 1:
            return 1.0
        first = profile.first_output_at
        return first + (1.0 - first) * (index + 1) / total_edges

    def first_chunk_delay(self, profile: FunctionProfile, duration_s: float,
                          streaming: bool) -> float:
        """When (relative to compute start) the DLU may begin pushing.

        Without streaming the DLU waits for function completion.  With
        pipelined sub-FLUs (``flu_stages > 1``) the first stage's output
        exists after ``1/stages`` of the work, whichever is earlier than
        the profile's declared first-output point (§5.1).
        """
        if not streaming:
            return duration_s
        fraction = profile.first_output_at
        if profile.flu_stages > 1:
            fraction = min(fraction, 1.0 / profile.flu_stages)
        return duration_s * fraction

    def remote_stream_bytes(self, plane, src_node, gateway,
                            small_data_bytes: float) -> float:
        """Bytes this invocation must drain through the container NIC.

        This is the ``Size`` of Equation (1): local-pipe and small-socket
        data do not pressure the bandwidth-capped connector.
        """
        total = 0.0
        for edge in self.task.outputs:
            if edge.nbytes <= small_data_bytes:
                continue
            dst_node = gateway if edge.dst is None else plane.node_of_task(edge.dst)
            if dst_node is not src_node:
                total += edge.nbytes
        return total
