"""DataFlower: the data-flow paradigm serverless workflow system.

Execution of one request (paper §4, Figure 4):

1. The load balancer's placement plus the task graph form the request's
   data plane; it is synchronized to the involved node engines.
2. The user's input datum flows (at host speed, not through a container
   TC cap) into the entry function's node sink.
3. A node engine triggers a task the moment *all* of its inputs sit in
   the local sink — out-of-order, data-availability driven.
4. The FLU loads inputs from the sink (memory bus; disk if spilled),
   computes, and frees the container at compute end.  The DLU starts
   streaming outputs when the first chunk exists, so computation and
   communication overlap.
5. The DLU evaluates Equation (1); positive pressure blocks the FLU for
   the pressure time (Callstack blocking) while the engine scales out.
6. The request completes when every task ran and every $USER output
   reached the gateway.

Fault tolerance (§6.2): container crashes cancel the container's pipe
connectors; completed checkpoints survive; the engine ReDoes the failed
function on a fresh container; sink-level dedup keeps delivery exactly
once.  Consistency-aware keep-alive never recycles a container whose DLU
still holds undrained data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from ..cluster.container import Container
from ..cluster.node import Node
from ..workflow.instance import Task
from ..systems.base import Deployment, RequestState, WorkflowSystem
from .config import DataFlowerConfig
from .dataflow_graph import RequestDataPlane
from .dlu import DLU
from .engine import NodeEngine
from .flu import FluInvocation
from .pipes import PipeRouter, ReDoSignal
from .scaling import evaluate as evaluate_pressure
from .sink import WaitMatchMemory

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment


class DataFlowerSystem(WorkflowSystem):
    """The DataFlower scheme on the simulated cluster."""

    name = "dataflower"

    def __init__(self, env: "Environment", cluster,
                 config: DataFlowerConfig = DataFlowerConfig()) -> None:
        config.validate()
        super().__init__(env, cluster, config)
        self.config: DataFlowerConfig = config
        self.router = PipeRouter(env, cluster, config)
        self.engines: Dict[str, NodeEngine] = {}
        #: container_id -> the invocation of the FLU running there.
        self.active_flus: Dict[str, FluInvocation] = {}
        self.redo_count = 0
        from .prewarm import PrewarmPolicy

        self.prewarm_policy = (
            PrewarmPolicy(config.max_prewarm) if config.prewarm else None
        )

    # -- infrastructure ----------------------------------------------------------

    def engine_of(self, node: Node) -> NodeEngine:
        if node.name not in self.engines:
            sink = WaitMatchMemory(
                self.env,
                node,
                self.cluster,
                ttl_s=self.config.sink_ttl_s,
                proactive_release=self.config.proactive_release,
                passive_expire=self.config.passive_expire,
            )
            self.engines[node.name] = NodeEngine(
                self.env, node, sink, trigger_cost=self._trigger_cost
            )
        return self.engines[node.name]

    def _trigger_cost(self) -> float:
        rng = self.rng.stream("trigger")
        jitter = rng.gauss(0.0, self.config.trigger_jitter_s)
        return max(self.config.trigger_mean_s + jitter, 0.0002)

    def recycle_guard(self, container: Container) -> bool:
        """Consistency-aware keep-alive: recycle only when the DLU is dry."""
        dlu: Optional[DLU] = container.dlu
        return dlu is None or dlu.idle

    def _dlu_of(self, container: Container) -> DLU:
        if container.dlu is None:
            DLU(self.env, container, self.router)
        return container.dlu

    # -- request execution ----------------------------------------------------------

    def _execute_request(self, deployment: Deployment, state: RequestState, finish):
        plane = RequestDataPlane(state.graph, deployment)
        state.plane = plane  # type: ignore[attr-defined]
        state.task_done = {t.task_id: False for t in state.graph.tasks}  # type: ignore[attr-defined]
        state.finished = False  # type: ignore[attr-defined]
        state.redo_guard = set()  # type: ignore[attr-defined]
        state.exec_seq = {}  # type: ignore[attr-defined]
        state.finish = finish  # type: ignore[attr-defined]

        # Make sure each involved node has its engine before data arrives.
        for node in plane.involved_nodes():
            self.engine_of(node)

        # Synchronize the per-request data plane to the engines, then move
        # the user datum to the entry node's sink at host speed.
        entry_tasks = [t for t in state.graph.tasks if t.is_entry]
        self._ship_user_input(
            deployment, state, entry_tasks, self.config.dataplane_sync_s,
            label="user-input",
        )

    def _ship_user_input(self, deployment, state: RequestState, tasks,
                         delay_s: float, label: str) -> None:
        """After ``delay_s``, deliver the user datum to each of ``tasks``'
        node sinks in turn (a flow from the gateway unless the input is
        already local), depositing it as it lands."""
        plane: RequestDataPlane = state.plane
        nbytes = state.graph.request.input_bytes

        def ship(remaining) -> None:
            for index, task in enumerate(remaining):
                if not self.config.input_local and nbytes > 0:
                    flow = self.cluster.fabric.transfer(
                        nbytes,
                        [self.cluster.gateway.egress,
                         plane.node_of_task(task).ingress],
                        label=label,
                    )

                    def landed(_event, task=task, rest=remaining[index + 1:]):
                        deposit(task)
                        ship(rest)

                    flow.done.callbacks.append(landed)
                    return
                deposit(task)

        def deposit(task: Task) -> None:
            self._deposit(
                deployment, state, task, plane.user_input_key(task), nbytes
            )

        self.env.defer(delay_s, lambda _event: ship(tasks))

    # -- data arrival -----------------------------------------------------------------

    def _deposit(self, deployment, state: RequestState, task: Task, key,
                 nbytes: float) -> None:
        """A datum reached ``task``'s node sink; trigger the task if ready."""
        plane: RequestDataPlane = state.plane
        node = plane.node_of_task(task)
        engine = self.engine_of(node)
        if not engine.sink.deposit(key, nbytes):
            return  # duplicate delivery (retry/ReDo path): exactly once
        if not plane.mark_arrived(task, key):
            return
        record = state.task_record(task.task_id)
        record.ready_time = self.env.now
        record.node = node.name
        dispatcher = deployment.dispatcher(task.function)
        engine.trigger(
            dispatch=lambda: dispatcher.submit(
                lambda container: self._start_flu(
                    deployment, state, task, container
                )
            ),
            on_triggered=lambda: setattr(record, "trigger_time", self.env.now),
        )

    # -- the FLU lifecycle ----------------------------------------------------------

    def _start_flu(self, deployment, state, task: Task,
                   container: Container) -> None:
        sequence = state.exec_seq.get(task.task_id, 0) + 1
        state.exec_seq[task.task_id] = sequence
        invocation = FluInvocation(
            task=task,
            container=container,
            record=state.task_record(task.task_id),
            attempt=sequence,
            compute_done=self.env.event(),
            deployment=deployment,
            state=state,
        )
        self.active_flus[container.container_id] = invocation
        self.env.call_soon(lambda _event: self._run_flu(invocation))

    def _run_flu(self, invocation: FluInvocation) -> None:
        """The FLU, as a chain of callbacks: load the inputs from the
        Wait-Match Memory, compute, then free the container.

        Each step runs where a generator process resuming on the same
        event would: the kick-off in an urgent slot (``call_soon``), the
        compute step and the completion step as callbacks of the fetch
        ``AllOf`` and the compute event.  A step returns at once when
        :meth:`_abort_flu` has set the invocation's ``cancel_token``.
        """
        deployment, state = invocation.deployment, invocation.state
        task = invocation.task
        container = invocation.container
        record = invocation.record
        plane: RequestDataPlane = state.plane
        node = plane.node_of_task(task)
        sink = self.engine_of(node).sink
        profile = deployment.workflow.functions[task.function].profile
        cancel_token = invocation.cancel_token
        record.exec_start = self.env.now
        record.cold_start = container.invocations_served == 0

        def compute() -> None:
            record.get_s = self.env.now - record.exec_start
            # Compute, with the DLU starting pushes at the first chunk.
            core_seconds = profile.compute.core_seconds(
                task.input_bytes, self.rng.stream(f"compute:{task.function}")
            )
            duration = container.compute_seconds(core_seconds)
            compute_start = self.env.now
            self._schedule_pushes(deployment, state, invocation, duration)

            def computed(_event) -> None:
                if cancel_token[0]:
                    return
                record.compute_s = self.env.now - compute_start
                record.exec_end = self.env.now
                invocation.compute_done.succeed()

                # Pressure-aware scaling (Equation 1).
                size = invocation.remote_stream_bytes(
                    plane, node, self.cluster.gateway,
                    self.config.small_data_bytes,
                )
                decision = evaluate_pressure(
                    size,
                    container.spec.net_bytes_per_s,
                    duration,
                    self.config.pressure_alpha,
                    enabled=self.config.pressure_aware,
                )
                self.active_flus.pop(container.container_id, None)
                dispatcher = deployment.dispatcher(task.function)
                dispatcher.release(container, delay_s=decision.block_s)
                if decision.backpressure:
                    # The engine reacts to the Callstack blocking signal by
                    # scaling out in the normal serverless manner.
                    dispatcher.maybe_scale_out()
                self._complete_task(deployment, state, task)

            container.compute(core_seconds).callbacks.append(computed)

        def fetched(event) -> None:
            # A failed fetch is left undefused, so it raises out of env.run.
            if not cancel_token[0] and event._exception is None:
                compute()

        # The abort fails compute_done, which abandons the fetches.
        died = invocation.compute_done
        fetches = []
        if task.is_entry and state.graph.request.input_bytes > 0:
            fetches.append(sink.fetch(plane.user_input_key(task), died))
        for edge in task.inputs:
            fetches.append(sink.fetch(plane.input_key(task, edge), died))
        if fetches:
            self.env.all_of(fetches).callbacks.append(fetched)
        else:
            compute()

    def _abort_flu(self, invocation: FluInvocation) -> None:
        """The container crashed mid-invocation: sever its connectors and
        ReDo on a fresh container (§6.2).  A no-op once the FLU finished
        or was aborted."""
        container = invocation.container
        if self.active_flus.get(container.container_id) is not invocation:
            return
        del self.active_flus[container.container_id]
        invocation.cancel_token[0] = True
        if not invocation.compute_done.triggered:
            invocation.compute_done.fail(ReDoSignal())
            invocation.compute_done.defused = True
        for gate in invocation.edge_events.values():
            if not gate.triggered:
                gate.fail(ReDoSignal())
                gate.defused = True
        self.router.cancel_container_flows(container)
        deployment = invocation.deployment
        deployment.dispatcher(invocation.task.function).pool.recycle(container)
        self._redo_task(
            deployment, invocation.state, invocation.task,
            ("exec", invocation.attempt),
        )

    # -- DLU pushes -------------------------------------------------------------------

    def _schedule_pushes(self, deployment, state, invocation: FluInvocation,
                         duration: float) -> None:
        task = invocation.task
        plane: RequestDataPlane = state.plane
        src_node = plane.node_of_task(task)
        profile = deployment.workflow.functions[task.function].profile
        delay = invocation.first_chunk_delay(
            profile, duration, self.config.streaming
        )

        # Per-output production gates: fan-out branches complete
        # progressively (Figure 5(b)); a lone output completes with the FLU.
        total = len(task.outputs)
        for index, edge in enumerate(task.outputs):
            gate = self.env.event()
            invocation.edge_events[id(edge)] = gate
            if not self.config.streaming:
                fraction = 1.0
            else:
                fraction = invocation.edge_ready_fraction(index, total, profile)

            def produce(_event, gate=gate):
                if not gate.triggered:
                    gate.succeed()

            self.env.defer(duration * fraction, produce)

        def start(_event) -> None:
            if invocation.cancel_token[0]:
                return
            dlu = self._dlu_of(invocation.container)
            for edge in task.outputs:
                self._push_edge(deployment, state, invocation, dlu, src_node, edge)

        self.env.defer(delay, start)

    def _push_edge(self, deployment, state, invocation: FluInvocation, dlu: DLU,
                   src_node: Node, edge) -> None:
        plane: RequestDataPlane = state.plane
        task = invocation.task
        record = invocation.record
        invocation.pushes_pending += 1

        if edge.dst is None:
            dst_node = self.cluster.gateway

            def delivered_user(edge=edge):
                self._push_done(state, invocation)
                if plane.mark_user_output(edge):
                    self._maybe_finish(deployment, state)

            on_delivered = delivered_user
        else:
            dst_task = edge.dst
            dst_node = plane.node_of_task(dst_task)
            if self.prewarm_policy is not None:
                # §10: the datum is in flight, so its consumer will run
                # soon — boot a container now to hide the cold start.
                self.prewarm_policy.data_in_flight(
                    deployment.workflow.name,
                    dst_task.function,
                    deployment.dispatcher(dst_task.function),
                )

            def delivered_data(edge=edge, dst_task=dst_task):
                self._push_done(state, invocation)
                if self.prewarm_policy is not None:
                    self.prewarm_policy.data_arrived(
                        deployment.workflow.name, dst_task.function
                    )
                self._deposit(
                    deployment, state, dst_task,
                    plane.input_key(dst_task, edge), edge.nbytes,
                )

            on_delivered = delivered_data

        def abandoned():
            self._push_done(state, invocation)
            self._redo_task(deployment, state, task, ("exec", invocation.attempt))

        produced = invocation.edge_events.get(id(edge), invocation.compute_done)
        dlu.push(
            src_node,
            dst_node,
            edge.nbytes,
            produced,
            label=f"pipe:{task.task_id}:{edge.dataname}",
            cancel_token=invocation.cancel_token,
            on_delivered=on_delivered,
            on_abandoned=abandoned,
        )

    def _push_done(self, state, invocation: FluInvocation) -> None:
        invocation.pushes_pending -= 1
        invocation.last_push_done_at = self.env.now
        record = invocation.record
        if invocation.pushes_pending == 0 and record.exec_end > 0:
            # The asynchronous drain tail beyond FLU completion; records
            # how much communication the DLU hid behind/after compute.
            record.put_s = max(self.env.now - record.exec_end, 0.0)

    # -- completion and ReDo ------------------------------------------------------------

    def _complete_task(self, deployment, state, task: Task) -> None:
        if state.task_done[task.task_id]:
            return
        state.task_done[task.task_id] = True
        state.remaining_tasks -= 1
        # Input entries were proactively released when the FLU fetched
        # them (§7); any stragglers (e.g. non-proactive mode) go at
        # request completion.
        self._maybe_finish(deployment, state)

    def _maybe_finish(self, deployment, state) -> None:
        plane: RequestDataPlane = state.plane
        if state.finished:
            return
        if state.remaining_tasks == 0 and plane.user_outputs_pending == 0:
            state.finished = True
            for node in plane.involved_nodes():
                self.engine_of(node).sink.release_request(plane.request_id)
            state.finish()

    def _redo_task(self, deployment, state, task: Task, attempt: int) -> None:
        """ReDo a failed function execution, backtracking if needed (§6.2).

        Proactive release means a crashed FLU's inputs may already be gone
        from the sink.  The engine then backtracks: it resets the task's
        readiness bookkeeping for the missing data and ReDoes the producing
        tasks (recursively, back to the last data that still exists — the
        user input at the gateway is always durable).

        ``attempt`` is an opaque dedupe token: multiple failure signals
        from one execution (or multiple consumers backtracking one
        producer) schedule exactly one ReDo.
        """
        guard_key = (task.task_id, attempt)
        if guard_key in state.redo_guard or state.finished:
            return
        state.redo_guard.add(guard_key)
        record = state.task_record(task.task_id)
        if record.retries >= self.config.max_retries:
            state.finished = True
            state.finish(failed=True, error=f"task {task.task_id} exceeded retries")
            return
        record.retries += 1
        self.redo_count += 1
        if state.task_done[task.task_id]:
            state.task_done[task.task_id] = False
            state.remaining_tasks += 1

        plane: RequestDataPlane = state.plane
        sink = self.engine_of(plane.node_of_task(task)).sink

        missing_edges = [
            edge
            for edge in task.inputs
            if not sink.is_present(plane.input_key(task, edge))
        ]
        user_input_missing = (
            task.is_entry
            and state.graph.request.input_bytes > 0
            and not sink.is_present(plane.user_input_key(task))
        )

        if not missing_edges and not user_input_missing:
            def resubmit(_event) -> None:
                dispatcher = deployment.dispatcher(task.function)
                dispatcher.submit(
                    lambda container: self._start_flu(
                        deployment, state, task, container
                    )
                )

            self.env.defer(self.config.retry_delay_s, resubmit)
            return

        # Backtracking: mark the missing data undelivered so the normal
        # availability-triggered path re-fires this task on re-arrival.
        # A key an earlier ReDo already marked is waited for only once.
        missing_keys = [plane.input_key(task, edge) for edge in missing_edges]
        if user_input_missing:
            missing_keys.append(plane.user_input_key(task))
        for key in missing_keys:
            if key in plane.delivered:
                plane.delivered.remove(key)
                plane._waiting[task.task_id] += 1

        # One backtrack per producer execution, however many of its
        # consumers lost their input.
        for edge in missing_edges:
            producer = edge.src
            self._redo_task(
                deployment, state, producer,
                attempt=("bt", state.exec_seq[producer.task_id]),
            )
        if user_input_missing:
            # The input is missing only if it had bytes to deposit.
            self._ship_user_input(
                deployment, state, [task], self.config.retry_delay_s,
                label="user-input-redo",
            )

    # -- fault injection -----------------------------------------------------------------

    def crash_container(self, container: Container) -> None:
        """Kill a container: abort its FLU and sever its connectors."""
        invocation = self.active_flus.get(container.container_id)
        if invocation is not None:
            # The urgent slot, so the abort runs before the FLU's next step.
            self.env.call_soon(lambda _event: self._abort_flu(invocation))
            return
        # No FLU running: the container may still be draining DLU data.
        self.router.cancel_container_flows(container)
        for deployment in self.deployments.values():
            for dispatcher in deployment.dispatchers.values():
                if container in dispatcher.pool.containers:
                    dispatcher.pool.recycle(container)
                    return
