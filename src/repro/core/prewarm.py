"""Data-availability-based container prewarming (paper §10, future work).

The paper's conclusion sketches the idea: "The data-flow paradigm
provides an alternative way to prewarm containers based on the data
dependencies and availability.  With the prior knowledge of the data
dependencies, we are designing a policy to warm up a container for a
function based on the data-availability instead of predicting function
execution patterns."

This module implements that policy.  The signal is the *start* of a DLU
push toward a destination function: at that moment the destination is
guaranteed to be invoked soon (its data is already in flight), so booting
a container now overlaps the cold start with the remaining computation
and the data transfer — by the time the sink completes the datum, a warm
FLU is waiting.

The policy is deliberately conservative to avoid inflating the memory
footprint (DataFlower's Figure 10 advantage): it only boots when the
destination's warm-or-booting supply is below the number of in-flight
data streams headed its way, capped by ``max_prewarm``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from ..cluster.node import InsufficientResources

if TYPE_CHECKING:  # pragma: no cover
    from ..systems.base import FunctionDispatcher


class PrewarmPolicy:
    """Boots destination containers when data starts flowing toward them."""

    def __init__(self, max_prewarm: int = 2) -> None:
        if max_prewarm < 1:
            raise ValueError("max_prewarm must be >= 1")
        self.max_prewarm = max_prewarm
        #: (workflow, function) -> data streams currently in flight.
        self._inflight: Dict[Tuple[str, str], int] = {}
        self.prewarms = 0
        self.suppressed = 0

    def data_in_flight(self, workflow: str, function: str,
                       dispatcher: "FunctionDispatcher") -> None:
        """A DLU began pushing a datum whose consumer is ``function``."""
        key = (workflow, function)
        self._inflight[key] = self._inflight.get(key, 0) + 1
        self._maybe_boot(key, dispatcher)

    def data_arrived(self, workflow: str, function: str) -> None:
        """The datum finished (delivered or abandoned)."""
        key = (workflow, function)
        current = self._inflight.get(key, 0)
        if current > 0:
            self._inflight[key] = current - 1

    # -- internal -----------------------------------------------------------

    def _maybe_boot(self, key: Tuple[str, str],
                    dispatcher: "FunctionDispatcher") -> None:
        pool = dispatcher.pool
        supply = (
            sum(1 for c in dispatcher.idle if c.alive)
            + dispatcher.booting
            + pool.busy_count()
        )
        want = min(self._inflight.get(key, 0), self.max_prewarm)
        if supply >= want:
            self.suppressed += 1
            return
        if not pool.can_start_new():
            self.suppressed += 1
            return
        try:
            ready = pool.start_new()
        except InsufficientResources:
            self.suppressed += 1
            return
        dispatcher.booting += 1
        self.prewarms += 1

        def on_ready(event, dispatcher=dispatcher):
            dispatcher.booting -= 1
            dispatcher.add_idle(event.value)

        if ready.callbacks is not None:
            ready.callbacks.append(on_ready)
