"""Execution-system interface shared by the baselines and DataFlower.

A :class:`WorkflowSystem` owns deployments (one per workflow), dispatches
invocations onto container pools, and produces
:class:`~repro.metrics.latency.RequestRecord`s.  The control-flow baselines
and DataFlower subclass it, so every experiment drives all systems through
the same three calls::

    system.deploy(workflow, placement)
    done = system.submit(workflow.name, request)   # Event -> RequestRecord
    env.run(until=done)
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..cluster.cluster import Cluster
from ..cluster.container import Container, ContainerPool
from ..cluster.node import Node
from ..cluster.spec import ContainerSpec
from ..metrics.latency import RequestRecord, TaskRecord
from ..sim.resources import Fifo
from ..sim.rng import RngRegistry
from ..workflow.instance import RequestSpec, TaskGraph
from ..workflow.model import Workflow

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment
    from ..sim.events import Event


@dataclass(frozen=True)
class SystemConfig:
    """Knobs shared by all systems (per-system configs extend this)."""

    #: Container image pull + runtime boot time for a cold invocation.
    cold_start_s: float = 0.5
    #: Language-runtime / dependency initialization on first use of a
    #: freshly booted container (paid after ``cold_start_s``).
    env_setup_s: float = 0.3
    #: Idle time before a warm container is recycled (platform keep-alive).
    keep_alive_s: float = 900.0
    #: Override every function's container memory (Figure 17 scale-up sweep).
    container_memory_mb: Optional[int] = None
    #: Entry input is already resident on the entry node (Figure 13 setup).
    input_local: bool = False
    #: Root seed for every RNG stream the system draws (jitter, selectors).
    seed: int = 0

    def with_overrides(self, **kwargs) -> "SystemConfig":
        return replace(self, **kwargs)


class Deployment:
    """One workflow deployed onto the cluster: placement plus pools."""

    def __init__(
        self,
        system: "WorkflowSystem",
        workflow: Workflow,
        placement: Dict[str, Node],
    ) -> None:
        missing = set(workflow.functions) - set(placement)
        if missing:
            raise ValueError(f"placement missing functions: {sorted(missing)}")
        self.workflow = workflow
        self.placement = placement
        self.dispatchers: Dict[str, FunctionDispatcher] = {}
        for name, function in workflow.functions.items():
            memory_mb = (
                system.config.container_memory_mb
                if system.config.container_memory_mb is not None
                else function.profile.memory_mb
            )
            spec = ContainerSpec(memory_mb=memory_mb)
            pool = ContainerPool(
                system.env,
                placement[name],
                function_name=name,
                spec=spec,
                cold_start_s=system.config.cold_start_s,
                env_setup_s=system.config.env_setup_s,
                keep_alive_s=system.config.keep_alive_s,
                recycle_guard=system.recycle_guard,
            )
            self.dispatchers[name] = FunctionDispatcher(system.env, pool)

    def node_of(self, function: str) -> Node:
        return self.placement[function]

    def dispatcher(self, function: str) -> "FunctionDispatcher":
        return self.dispatchers[function]


class FunctionDispatcher:
    """Matches pending invocations with containers for one function/node.

    Containers flow through an idle queue; work items queue FIFO.  Demand
    beyond warm supply cold-starts new containers up to the node's
    admission limit — the "serverless manner" of scaling out.  DataFlower's
    pressure-aware mechanism delays a container's return to the idle queue
    (the Callstack blocking signal) and nudges the scale-out path.
    """

    def __init__(self, env: "Environment", pool: ContainerPool) -> None:
        self.env = env
        self.pool = pool
        #: Queued invocations, each a ``run(container)`` call.
        self.work = Fifo(env)
        self.idle = Fifo(env)
        self.booting = 0
        self.dispatched = 0
        #: Invocations submitted but not yet matched with a container.
        self.unassigned = 0
        env.call_soon(lambda: self.work.take(self._got_work))

    # -- client API ---------------------------------------------------------

    def submit(self, run_callable) -> None:
        """Queue an invocation; ``run_callable(container)`` starts it."""
        self.unassigned += 1
        self.work.put(run_callable)
        self.maybe_scale_out()

    def add_idle(self, container: Container) -> None:
        """Offer a ready container to the queued invocations."""
        self.idle.put(container)

    def release(self, container: Container, delay_s: float = 0.0) -> None:
        """Return a container after an invocation (optionally blocked).

        ``delay_s > 0`` models the pressure-aware Callstack blocking signal:
        the FLU stays unavailable for that long.
        """
        self.pool.checkin(container)
        if delay_s <= 0:
            self.add_idle(container)
            return

        def unblock() -> None:
            if container.alive:
                self.add_idle(container)

        self.env.defer(delay_s, unblock)

    def maybe_scale_out(self) -> None:
        """Cold-start a container when demand outstrips warm supply."""
        supply = sum(1 for c in self.idle if c.alive) + self.booting
        while self.unassigned > supply:
            if not self.pool.can_start_new():
                # Under pressure, reclaim idle capacity held by other
                # functions' warm pools on this node (LRU eviction).
                fits = self.pool.node.try_reclaim(
                    self.pool.spec.cpu_cores,
                    self.pool.spec.memory_bytes,
                    exclude_pool=self.pool,
                )
                if not fits:
                    break
            self.boot()
            supply += 1

    def boot(self) -> None:
        """Cold-start one container; it joins the idle queue once ready."""
        self.pool.start_new().callbacks.append(self._booted)
        self.booting += 1

    def _booted(self, event) -> None:
        self.booting -= 1
        self.add_idle(event.value)

    # -- internal -----------------------------------------------------------

    def _got_work(self, run: Callable[[Container], None]) -> None:
        """The matching loop: a work item, then idle containers until a
        live one turns up; run the item on it and take the next item."""
        self.idle.take(partial(self._got_container, run))

    def _got_container(self, run: Callable[[Container], None],
                       container: Container) -> None:
        if not container.alive:
            # A recycled container was still queued here; the supply it
            # represented is gone, so re-evaluate.
            self.maybe_scale_out()
            self.idle.take(partial(self._got_container, run))
            return
        self.pool.checkout(container)
        self.unassigned -= 1
        self.dispatched += 1
        run(container)
        self.work.take(self._got_work)


class RequestState:
    """Book-keeping for one in-flight request inside a system."""

    def __init__(self, graph: TaskGraph, record: RequestRecord) -> None:
        self.graph = graph
        self.record = record
        self.remaining_tasks = len(graph.tasks)
        self.task_records: Dict[str, TaskRecord] = {}
        for task in graph.tasks:
            task_record = TaskRecord(task_id=task.task_id, function=task.function)
            self.task_records[task.task_id] = task_record
            record.tasks.append(task_record)

    def task_record(self, task_id: str) -> TaskRecord:
        return self.task_records[task_id]


class WorkflowSystem(abc.ABC):
    """Common mechanics: deployment, request records, completion events."""

    name = "abstract"

    def __init__(
        self, env: "Environment", cluster: Cluster, config: SystemConfig = SystemConfig()
    ) -> None:
        self.env = env
        self.cluster = cluster
        self.config = config
        self.rng = RngRegistry(config.seed)
        self.deployments: Dict[str, Deployment] = {}
        self.records: List[RequestRecord] = []
        self._request_seq = 0
        #: Prepended to generated request ids; sharded replay sets it per
        #: shard cell so ids stay unique after merging.
        self.request_id_prefix = ""

    # -- hooks ---------------------------------------------------------------

    def recycle_guard(self, container: Container) -> bool:
        """Whether an idle container may be recycled (overridden by DataFlower)."""
        return True

    # -- deployment ---------------------------------------------------------------

    def deploy(self, workflow: Workflow, placement: Dict[str, Node]) -> Deployment:
        if workflow.name in self.deployments:
            raise ValueError(f"workflow {workflow.name!r} is already deployed")
        deployment = Deployment(self, workflow, placement)
        self.deployments[workflow.name] = deployment
        return deployment

    def deployment(self, workflow_name: str) -> Deployment:
        if workflow_name not in self.deployments:
            raise KeyError(
                f"workflow {workflow_name!r} not deployed on {self.name}"
            )
        return self.deployments[workflow_name]

    # -- submission ------------------------------------------------------------------

    def next_request_id(self, workflow_name: str) -> str:
        self._request_seq += 1
        return f"{self.request_id_prefix}{workflow_name}-r{self._request_seq}"

    def submit(self, workflow_name: str, request: RequestSpec) -> "Event":
        """Run one invocation; the returned event fires with its record."""
        deployment = self.deployment(workflow_name)
        graph = TaskGraph(deployment.workflow, request)
        record = RequestRecord(
            request_id=request.request_id,
            workflow=workflow_name,
            submit_time=self.env.now,
        )
        self.records.append(record)
        state = RequestState(graph, record)
        done = self.env.event()

        def finish(failed: bool = False, error: Optional[str] = None) -> None:
            # A runner-side timeout may have closed the record already.
            if record.end_time is None:
                record.end_time = self.env.now
                record.failed = failed
                record.error = error
            done.succeed(record)

        self._execute_request(deployment, state, finish)
        return done

    @abc.abstractmethod
    def _execute_request(self, deployment, state, finish) -> None:
        """Start the system-specific execution of one request."""

    # -- results ----------------------------------------------------------------------

    def completed_records(self) -> List[RequestRecord]:
        return [r for r in self.records if r.completed]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} deployments={list(self.deployments)}>"
