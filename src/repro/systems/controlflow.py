"""The control-flow execution template (paper §3.2, Figure 1).

All three baselines (production orchestrator, FaaSFlow, SONIC) share the
same skeleton — only the trigger path and the data-passing strategy differ:

1. The orchestrator maintains function states; a function becomes *ready*
   when every predecessor has **completed** (control dependency — not data
   availability).
2. Triggering costs state-management time and serializes through the
   orchestrator (centralized) or the per-node engine (decentralized).
3. The container executes strictly sequentially: ``Get()`` inputs, compute,
   ``Put()`` outputs.  CPU idles during I/O and the network idles during
   compute — the sequential resource usage of Figure 2(b).
4. One invocation per container at a time; extra load scales out containers.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from ..cluster.container import Container
from ..cluster.node import Node
from ..sim.resources import Resource
from ..workflow.instance import Task, TaskEdge
from .base import Deployment, RequestState, SystemConfig, WorkflowSystem

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.events import Event


@dataclass(frozen=True)
class ControlFlowConfig(SystemConfig):
    """Adds control-plane triggering costs to the shared config."""

    #: Mean state-management time between a function's readiness and its
    #: actual trigger (Figure 2(c) measures ~63 ms on production platforms).
    trigger_mean_s: float = 0.010
    trigger_jitter_s: float = 0.002


class ControlFlowSystem(WorkflowSystem):
    """Template-method base for the control-flow baselines."""

    name = "controlflow"

    def __init__(self, env, cluster, config: ControlFlowConfig = ControlFlowConfig()):
        super().__init__(env, cluster, config)
        self.config: ControlFlowConfig = config
        self._orchestrators: Dict[str, Resource] = {}

    # -- specialization points ------------------------------------------------

    def _orchestrator(self, node: Node) -> Resource:
        """The control-plane resource that serializes triggers: one
        per-node engine (decentralized), unless a system overrides it."""
        if node.name not in self._orchestrators:
            self._orchestrators[node.name] = Resource(self.env, capacity=1)
        return self._orchestrators[node.name]

    @abc.abstractmethod
    def _get_input(self, deployment, state, task, edge, container) -> "Event":
        """Fetch one input edge into the container (a :meth:`_join` step)."""

    @abc.abstractmethod
    def _put_output(self, deployment, state, task, edge, container) -> "Event":
        """Persist/forward one output edge (a :meth:`_join` step)."""

    def _get_user_input(self, deployment, state, task, container) -> "Event":
        """Fetch the request's input into the entry container.

        Default: the user uploaded the input to backend storage; the entry
        function Gets it through its bandwidth-capped container NIC.  With
        ``config.input_local`` the input is already on-node (Figure 13).
        """
        nbytes = state.graph.request.input_bytes
        node = deployment.node_of(task.function)
        if self.config.input_local:
            channel = self.cluster.memory_channel(node)
            return self._completion(channel.copy(nbytes, label="input-local"))
        key = (state.record.request_id, "$input")
        return self._completion(self.cluster.storage.get(
            key, via=[node.ingress, container.ingress],
            rate_cap=container.spec.net_bytes_per_s, nbytes=nbytes,
        ))

    def _on_request_complete(self, deployment, state) -> None:
        """Hook for request-scoped cleanup (FaaSFlow's cache release)."""

    def _release_container(self, deployment, state, task, container) -> None:
        """Return the container to its pool after an invocation.

        SONIC overrides this: the source function's sandbox holds its
        output data until every destination has fetched it peer-to-peer.
        """
        deployment.dispatcher(task.function).release(container)

    # -- the control-flow engine ------------------------------------------------

    def _execute_request(self, deployment: Deployment, state: RequestState, finish):
        graph = state.graph
        pending: Dict[str, int] = {}
        for task in graph.tasks:
            pending[task.task_id] = len(
                {edge.src.task_id for edge in task.inputs}
            )
        state.pending_preds = pending  # type: ignore[attr-defined]
        for task in graph.tasks:
            if pending[task.task_id] == 0:
                self._schedule_task(deployment, state, task, finish)

    def _trigger_cost(self) -> float:
        rng = self.rng.stream("trigger")
        jitter = rng.gauss(0.0, self.config.trigger_jitter_s)
        return max(self.config.trigger_mean_s + jitter, 0.0005)

    def _schedule_task(self, deployment, state, task: Task, finish) -> None:
        record = state.task_record(task.task_id)
        record.ready_time = self.env.now
        node = deployment.node_of(task.function)
        record.node = node.name
        env = self.env

        def trigger() -> None:
            record.trigger_time = env.now
            deployment.dispatcher(task.function).submit(
                lambda container: env.call_soon(
                    lambda _event: self._run_on_container(
                        deployment, state, task, container, finish
                    )
                )
            )

        # The orchestrator updates its state machine and triggers the
        # function in topological order; triggers serialize through it.
        self._orchestrator(node).hold(self._trigger_cost, trigger)

    def _run_on_container(
        self, deployment, state, task: Task, container: Container, finish
    ) -> None:
        """Get() every input, compute, Put() every output, then free the
        container: three phases, each starting when the last ended."""
        env = self.env
        record = state.task_record(task.task_id)
        record.exec_start = env.now
        record.cold_start = container.invocations_served == 0
        get_start = env.now

        def compute() -> None:
            record.get_s = env.now - get_start
            if record.get_s > 0:
                container.record_transfer(get_start, env.now)
            compute_start = env.now
            function = deployment.workflow.functions[task.function]
            core_seconds = function.profile.compute.core_seconds(
                task.input_bytes, self.rng.stream(f"compute:{task.function}")
            )

            def computed(_event) -> None:
                record.compute_s = env.now - compute_start
                put_start = env.now

                def stored() -> None:
                    record.put_s = env.now - put_start
                    if record.put_s > 0:
                        container.record_transfer(put_start, env.now)
                    record.exec_end = env.now
                    self._release_container(deployment, state, task, container)
                    self._complete_task(deployment, state, task, finish)

                # Phase 3: Put() — persist every output before completion.
                put = partial(self._put_output, deployment, state, task)
                self._join(
                    [partial(put, edge, container) for edge in task.outputs],
                    stored,
                )

            # Phase 2: compute.
            container.compute(core_seconds).callbacks.append(computed)

        # Phase 1: Get() — load every input from the data plane.
        get = partial(self._get_input, deployment, state, task)
        gets = [partial(get, edge, container) for edge in task.inputs]
        if task.is_entry:
            gets.insert(0, partial(
                self._get_user_input, deployment, state, task, container
            ))
        self._join(gets, compute)

    def _join(self, steps: List[Callable[[], "Event"]],
              then: Callable[[], None]) -> None:
        """Start each step in the kick-off slot of a process of its own and
        call ``then()`` where an ``AllOf`` over those processes would fire
        (at once when there are none).  A step returns an event firing
        where its process would have completed (see :meth:`_completion`)."""
        if not steps:
            then()
            return
        env = self.env
        left = [len(steps)]

        def joined(_event) -> None:
            left[0] -= 1
            if left[0] == 0:
                env.call_later(0.0, lambda _event: then())

        for step in steps:
            env.call_soon(
                lambda _event, step=step: step().callbacks.append(joined)
            )

    def _completion(self, event: "Event") -> "Event":
        """An event firing where a process that waited on ``event`` and
        then returned would have completed: one relay after ``event``."""
        done = self.env.event()
        event.callbacks.append(done.trigger)
        return done

    def _complete_task(self, deployment, state, task: Task, finish) -> None:
        state.remaining_tasks -= 1
        seen = set()
        for edge in task.outputs:
            if edge.dst is None or edge.dst.task_id in seen:
                continue
            seen.add(edge.dst.task_id)
            state.pending_preds[edge.dst.task_id] -= 1
            if state.pending_preds[edge.dst.task_id] == 0:
                self._schedule_task(deployment, state, edge.dst, finish)
        if state.remaining_tasks == 0:
            self._on_request_complete(deployment, state)
            finish()

    # -- shared data-plane helpers -------------------------------------------------

    def _edge_key(self, state, edge: TaskEdge) -> Tuple:
        return (state.record.request_id, edge.src.task_id, edge.dataname)

    def _backend_put(self, state, edge, node, container) -> "Event":
        return self._completion(self.cluster.storage.put(
            self._edge_key(state, edge), edge.nbytes,
            via=[container.egress, node.egress],
            rate_cap=container.spec.net_bytes_per_s,
        ))

    def _backend_get(self, state, edge, node, container) -> "Event":
        return self._completion(self.cluster.storage.get(
            self._edge_key(state, edge), via=[node.ingress, container.ingress],
            rate_cap=container.spec.net_bytes_per_s,
        ))
