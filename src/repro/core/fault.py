"""Failure injection for the fault-tolerance model (paper §6.2).

DataFlower's guarantees under test:

* a function is never triggered on partial data (deposits happen only
  when a connector completes);
* pipe connectors checkpoint incrementally, so a transient data-plane
  interrupt resumes from the last checkpoint instead of byte zero;
* a container crash ReDoes the failed function on a fresh container, and
  sink-level dedup keeps end-to-end delivery exactly once;
* consistency-aware keep-alive refuses to recycle containers with
  undrained DLUs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List

from ..cluster.container import Container

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment
    from .system import DataFlowerSystem


@dataclass
class InjectionLog:
    """What the injector did, for test assertions."""

    crashes: List[tuple] = field(default_factory=list)
    flow_cancellations: List[tuple] = field(default_factory=list)


class FailureInjector:
    """Schedules failures against a running DataFlower system."""

    def __init__(self, system: "DataFlowerSystem") -> None:
        self.system = system
        self.env: "Environment" = system.env
        self.log = InjectionLog()

    def crash_container_at(self, container: Container, at_time: float) -> None:
        """Kill ``container`` at the given simulated time."""

        def crash(_event) -> None:
            if container.alive:
                self.log.crashes.append((self.env.now, container.container_id))
                self.system.crash_container(container)

        self.env.defer(max(at_time - self.env.now, 0.0), crash)

    def crash_function_container_at(
        self, workflow: str, function: str, at_time: float
    ) -> None:
        """Kill whichever container of ``function`` is busy at ``at_time``."""

        def crash(_event) -> None:
            deployment = self.system.deployment(workflow)
            pool = deployment.dispatcher(function).pool
            victims = [c for c in pool.containers if c.state == "busy"]
            if not victims:
                victims = list(pool.containers)
            if victims:
                victim = victims[0]
                self.log.crashes.append((self.env.now, victim.container_id))
                self.system.crash_container(victim)

        self.env.defer(max(at_time - self.env.now, 0.0), crash)

    def crash_when_busy(
        self,
        workflow: str,
        function: str,
        check_interval_s: float = 0.005,
        give_up_after_s: float = 60.0,
    ) -> None:
        """Kill a container of ``function`` the moment one is executing,
        looking every ``check_interval_s`` for ``give_up_after_s``."""
        deadline = self.env.now + give_up_after_s

        def watch(_event) -> None:
            if self.env.now >= deadline:
                return
            deployment = self.system.deployment(workflow)
            pool = deployment.dispatcher(function).pool
            busy = [c for c in pool.containers if c.state == "busy"]
            if busy:
                victim = busy[0]
                self.log.crashes.append((self.env.now, victim.container_id))
                self.system.crash_container(victim)
                return
            self.env.call_later(check_interval_s, watch)

        self.env.call_soon(watch)

    def cancel_random_flow_at(self, at_time: float, seed: int = 0) -> None:
        """Cancel one in-flight pipe stream (pure data-plane interrupt)."""

        def cancel(_event) -> None:
            rng = random.Random(seed)
            candidates = [
                flow
                for flows in self.system.router._active_flows.values()
                for flow in flows
                if flow.active
            ]
            if candidates:
                victim = rng.choice(sorted(candidates, key=lambda f: f.label))
                self.log.flow_cancellations.append((self.env.now, victim.label))
                victim.cancel("injected data-plane interrupt")

        self.env.defer(max(at_time - self.env.now, 0.0), cancel)
