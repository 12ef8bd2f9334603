"""Function containers: lifecycle, pools, and keep-alive policy.

A container pins a fixed CPU share and bandwidth cap (see
:mod:`repro.cluster.spec`), boots through a cold-start phase (sandbox boot
plus user-environment setup, the two costs called out in the paper's
Challenge-3), serves invocations, and is recycled after a keep-alive idle
period — the paper uses a fixed 15-minute keep-alive (§8).

DataFlower's consistency-aware keep-alive (§6.2) plugs in through the
pool's ``recycle_guard``: a container is only recycled when the guard
agrees, e.g. when no DLU data remains to be pumped.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from ..sim.deadlines import Deadlines
from .network import SharedLink
from .node import Node
from .spec import ContainerSpec
from .telemetry import IntervalRecorder

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment
    from ..sim.events import Event

COLD_STARTING = "cold-starting"
IDLE = "idle"
BUSY = "busy"
RECYCLED = "recycled"

#: Default keep-alive from the paper's implementation section.
DEFAULT_KEEP_ALIVE_S = 15 * 60.0


class Container:
    """One sandbox running instances of a single function."""

    def __init__(
        self,
        env: "Environment",
        node: Node,
        function_name: str,
        spec: ContainerSpec,
    ) -> None:
        self.env = env
        self.node = node
        self.function_name = function_name
        self.spec = spec
        self.container_id = node.next_container_id()
        self.state = COLD_STARTING
        self.created_at = env.now
        self.recycled_at: Optional[float] = None
        self.egress: SharedLink = node.fabric.link(
            f"{self.container_id}.out", spec.net_bytes_per_s
        )
        self.ingress: SharedLink = node.fabric.link(
            f"{self.container_id}.in", spec.net_bytes_per_s
        )
        #: Compute vs transfer busy intervals, for Figure 2(b)-style plots.
        self.intervals = IntervalRecorder(env)
        self.invocations_served = 0
        #: Opaque per-container attachment point (the DLU daemon lives here).
        self.dlu = None
        self._interval_seq = 0
        self.idle_since = env.now
        #: The pool's keep-alive timer while the container sits idle.
        self.keep_alive = None

    # -- resource shape ---------------------------------------------------------

    @property
    def cpu_cores(self) -> float:
        return self.spec.cpu_cores

    def compute_seconds(self, core_seconds: float) -> float:
        """Wall time to burn ``core_seconds`` on this container's CPU share."""
        if core_seconds < 0:
            raise ValueError("core_seconds must be non-negative")
        return core_seconds / self.cpu_cores

    # -- lifecycle ---------------------------------------------------------------

    def compute(self, core_seconds: float, label: str = "compute") -> "Event":
        """Occupy the CPU share for the given work; the event fires when done.

        The busy interval opens in the next urgent slot and closes
        ``compute_seconds(core_seconds)`` later, or when the container is
        recycled (a crash); a crashed compute never fires.
        """
        duration = self.compute_seconds(core_seconds)
        env = self.env
        done = env.event()

        def start() -> None:
            self._interval_seq += 1
            key = (label, self._interval_seq)
            self.intervals.begin(key, "cpu")

            def finish() -> None:
                if self.alive:
                    self.intervals.end(key)
                    done.succeed()

            env.call_later(duration, finish)

        env.call_soon(start)
        return done

    def record_transfer(self, start: float, end: float) -> None:
        """Log a network-busy interval for utilization plots."""
        self.intervals.intervals.append((start, end, "net"))

    def mark_busy(self) -> None:
        if self.state == RECYCLED:
            raise RuntimeError(f"{self.container_id} already recycled")
        self.state = BUSY

    def mark_idle(self) -> None:
        if self.state == RECYCLED:
            raise RuntimeError(f"{self.container_id} already recycled")
        self.state = IDLE
        self.idle_since = self.env.now

    @property
    def alive(self) -> bool:
        return self.state != RECYCLED

    def __repr__(self) -> str:
        return f"<Container {self.container_id} fn={self.function_name} {self.state}>"


class ContainerPool:
    """Warm-container pool for one function on one node."""

    def __init__(
        self,
        env: "Environment",
        node: Node,
        function_name: str,
        spec: ContainerSpec,
        cold_start_s: float,
        env_setup_s: float,
        keep_alive_s: float = DEFAULT_KEEP_ALIVE_S,
        recycle_guard: Optional[Callable[[Container], bool]] = None,
    ) -> None:
        self.env = env
        self.node = node
        self.function_name = function_name
        self.spec = spec
        self.cold_start_s = cold_start_s
        self.env_setup_s = env_setup_s
        self.keep_alive_s = keep_alive_s
        self.recycle_guard = recycle_guard or (lambda _c: True)
        #: One keep-alive timer per idle container, armed at idle and
        #: cancelled at checkout or recycle.
        self._keep_alive = Deadlines(env, keep_alive_s)
        self.containers: List[Container] = []
        self.cold_starts = 0
        self.recycle_count = 0
        node.register_pool(self)

    # -- acquisition -------------------------------------------------------------

    def idle_container(self) -> Optional[Container]:
        """A warm, idle container, or None."""
        for container in self.containers:
            if container.state == IDLE:
                return container
        return None

    def can_start_new(self) -> bool:
        return self.node.can_fit(self.spec.cpu_cores, self.spec.memory_bytes)

    def start_new(self) -> "Event":
        """Cold-start a new container; the event fires with it once ready.

        Raises :class:`repro.cluster.node.InsufficientResources` right away
        when the node cannot host another container.
        """
        self.node.reserve(self.spec.cpu_cores, self.spec.memory_bytes)
        container = Container(self.env, self.node, self.function_name, self.spec)
        self.containers.append(container)
        self.cold_starts += 1
        env = self.env
        ready = env.event()

        def booted() -> None:
            if container.state == COLD_STARTING:
                container.mark_idle()
                self._arm_keep_alive(container)
            ready.succeed(container)

        # Sandbox boot, then user-environment setup.
        env.defer(
            self.cold_start_s,
            lambda: env.call_later(self.env_setup_s, booted),
        )
        return ready

    def checkout(self, container: Container) -> Container:
        """Claim an idle container for an invocation."""
        if container.state != IDLE:
            raise RuntimeError(f"{container.container_id} is not idle")
        container.mark_busy()
        self._keep_alive.cancel(container.keep_alive)
        return container

    def checkin(self, container: Container) -> None:
        """Return a container after an invocation completes."""
        container.mark_idle()
        container.invocations_served += 1
        self._arm_keep_alive(container)

    # -- keep-alive ---------------------------------------------------------------

    def _arm_keep_alive(self, container: Container) -> None:
        if self.keep_alive_s == float("inf"):
            return
        container.keep_alive = self._keep_alive.defer(
            lambda: self._reap(container)
        )

    def _reap(self, container: Container) -> None:
        # The timer is live, so the container has stayed idle since it
        # was armed.
        if self.recycle_guard(container):
            self.recycle(container)
        else:
            # Consistency-aware keep-alive: data still draining from the
            # DLU; check again after another keep-alive period.
            self._arm_keep_alive(container)

    def recycle(self, container: Container) -> None:
        if container.state == RECYCLED:
            return
        container.state = RECYCLED
        self._keep_alive.cancel(container.keep_alive)
        container.recycled_at = self.env.now
        container.intervals.end_all()
        self.recycle_count += 1
        self.containers.remove(container)
        self.node.release(self.spec.cpu_cores, self.spec.memory_bytes)

    # -- introspection -------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.containers)

    def busy_count(self) -> int:
        return sum(1 for c in self.containers if c.state == BUSY)

    def __repr__(self) -> str:
        return (
            f"<ContainerPool {self.function_name}@{self.node.name} "
            f"n={self.size} busy={self.busy_count()}>"
        )
