"""Fluid-flow network model with bounded fair sharing.

Every potential bottleneck (container egress/ingress, host NIC, storage NIC,
disk channel, local memory bus) is a :class:`SharedLink`.  A :class:`Flow`
crosses one or more links; its instantaneous rate is::

    rate = min(flow.rate_cap, min over links of link.capacity / link.n_flows)

Rates therefore change only when some link's membership changes, never due
to another flow's rate — a *bounded fair-share approximation* of max-min
fairness (see ``docs/architecture.md``, ``cluster/``): it never
oversubscribes a link, rebalances on each flow arrival/departure, and is
fully deterministic, but does not perform multi-hop cascade rebalancing.

A rebalance is one pass over the affected flows in creation order that
settles, re-rates and re-arms each flow in the same loop body.  Each link
caches its fair share in ``fair_share`` until a flow joins or leaves it,
so a pass asks a link for :meth:`SharedLink.share` only after its
membership changed.  A flow's completion timer coming due is a one-flow
pass.

Every rebalance re-arms the completion timer of each flow it re-rates.
A flow keeps a *live slot*, the queue slot (:meth:`Environment.reserve`)
its latest arm took, and at most one heap *entry*, never later than the
live slot.  An entry that comes due before the live slot moves itself
there; one superseded by an earlier slot, or by a stall, cancel or
completion, is emptied of its callback.  So the completion runs in
exactly the slot a fresh timer per arm would have run in, without a dead
timer per re-arm.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Set, Tuple

from ..sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment

_EPSILON = 1e-12

_creation_order = attrgetter("index")


class SharedLink:
    """A capacity (bytes/second) shared equally among active flows."""

    def __init__(self, env: "Environment", name: str, capacity_bps: float) -> None:
        if capacity_bps <= 0:
            raise ValueError(f"link {name!r} capacity must be positive")
        self.env = env
        self.name = name
        self.capacity_bps = float(capacity_bps)
        self.flows: Set["Flow"] = set()
        #: :meth:`share` at the current membership, or None until a
        #: rebalance pass asks for it; :meth:`join` and :meth:`leave`
        #: reset it.
        self.fair_share: Optional[float] = None

    def join(self, flow: "Flow") -> None:
        self.flows.add(flow)
        self.fair_share = None

    def leave(self, flow: "Flow") -> None:
        self.flows.discard(flow)
        self.fair_share = None

    def share(self) -> float:
        """Current per-flow fair share in bytes/second."""
        if not self.flows:
            return self.capacity_bps
        return self.capacity_bps / len(self.flows)

    def utilization(self) -> float:
        """Sum of member flow rates over capacity (always <= 1)."""
        used = sum(flow.rate for flow in self.flows)
        return used / self.capacity_bps

    def __repr__(self) -> str:
        return f"<SharedLink {self.name} {self.capacity_bps:.0f}B/s n={len(self.flows)}>"


class Flow:
    """An in-progress bulk transfer across a set of links.

    ``done`` fires with the flow when the last byte has moved.  ``cancel()``
    aborts the flow (``done`` fails with :class:`FlowCancelled`), which the
    fault-tolerance machinery uses to model data-plane interruption.
    """

    __slots__ = (
        "fabric", "env", "index", "nbytes", "remaining", "links", "rate_cap",
        "label", "rate", "started_at", "finished_at", "done", "_last_update",
        "_active", "_slot", "_entry", "_entry_slot",
    )

    def __init__(
        self,
        fabric: "NetworkFabric",
        nbytes: float,
        links: List[SharedLink],
        rate_cap: float,
        label: str,
    ) -> None:
        self.fabric = fabric
        self.env = fabric.env
        #: Creation order within the fabric — the deterministic identity
        #: rebalancing sorts by (set iteration order is address-dependent
        #: and must never reach the event queue).
        self.index = fabric.flow_count
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.links = links
        self.rate_cap = float(rate_cap)
        self.label = label
        self.rate = 0.0
        self.started_at = self.env.now
        self.finished_at: Optional[float] = None
        self.done: Event = Event(self.env)
        self._last_update = self.env.now
        self._active = True
        #: The live slot: the queue slot the latest arm reserved (None
        #: while unarmed).
        self._slot: Optional[Tuple[float, int]] = None
        #: The one heap entry and its slot, never later than ``_slot``.
        self._entry: Optional[Event] = None
        self._entry_slot: Optional[Tuple[float, int]] = None

    @property
    def active(self) -> bool:
        return self._active

    def transferred(self) -> float:
        """Bytes moved so far (exact, accounting for the current rate)."""
        moved = self.nbytes - self.remaining
        if self._active:
            moved += self.rate * (self.env.now - self._last_update)
        return min(moved, self.nbytes)

    def cancel(self, reason: str = "cancelled") -> None:
        """Abort the flow; ``done`` fails with :class:`FlowCancelled`."""
        if not self._active:
            return
        fabric = self.fabric
        fabric._disarm(self)
        now = self.env.now
        if self.rate > 0:
            moved = self.rate * (now - self._last_update)
            self.remaining = max(self.remaining - moved, 0.0)
            fabric.bytes_moved += moved
        self._last_update = now
        fabric._detach(self)
        self._active = False
        self.done.fail(FlowCancelled(self, reason))

    def _on_entry(self, _event: Event) -> None:
        self.fabric._fire(self)

    def __repr__(self) -> str:
        return (
            f"<Flow {self.label} {self.nbytes:.0f}B remaining="
            f"{self.remaining:.0f} rate={self.rate:.0f}>"
        )


class FlowCancelled(Exception):
    """Raised into waiters when a flow is cancelled mid-transfer."""

    def __init__(self, flow: Flow, reason: str) -> None:
        super().__init__(f"flow {flow.label} cancelled: {reason}")
        self.flow = flow
        self.reason = reason


class NetworkFabric:
    """Creates links and runs flows over them."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.links: dict = {}
        self.flow_count = 0
        self.bytes_moved = 0.0

    def link(self, name: str, capacity_bps: float) -> SharedLink:
        """Create (or fetch) the named link."""
        if name in self.links:
            return self.links[name]
        created = SharedLink(self.env, name, capacity_bps)
        self.links[name] = created
        return created

    def transfer(
        self,
        nbytes: float,
        links: Iterable[SharedLink],
        rate_cap: float = math.inf,
        label: str = "flow",
    ) -> Flow:
        """Start a flow of ``nbytes`` across ``links``; returns the Flow.

        Zero-byte flows complete immediately (the event still goes through
        the queue so that ordering stays deterministic).
        """
        _check_transfer(nbytes, rate_cap)
        link_list = list(links)
        flow = Flow(self, nbytes, link_list, rate_cap, label)
        self.flow_count += 1
        if nbytes <= _EPSILON:
            flow._active = False
            flow.finished_at = self.env.now
            flow.done.succeed(flow)
            return flow
        affected = self._collect_affected(link_list)
        for link in link_list:
            link.join(flow)
        affected.add(flow)
        self._rebalance(affected)
        return flow

    def transfer_after(
        self,
        latency_s: float,
        nbytes: float,
        links: Iterable[SharedLink],
        rate_cap: float = math.inf,
        label: str = "flow",
        on_moved: Optional[Callable[[], None]] = None,
        abandon: Optional[Event] = None,
    ) -> Event:
        """A storage-style operation: ``latency_s`` of access latency
        (none when zero), then a flow of ``nbytes`` across ``links``.

        The returned event fires with ``nbytes`` once the flow is done,
        right after ``on_moved()`` runs.  The steps take the queue slots
        of a process started now that sleeps ``latency_s`` and then waits
        on the flow: a kick-off, the latency timer, the flow's ``done``.

        If ``abandon`` has failed when the latency ends, the flow never
        starts; if it fails while the flow runs, the flow is cancelled.
        Either way the returned event never fires.
        """
        _check_transfer(nbytes, rate_cap)
        link_list = list(links)
        env = self.env
        done = env.event()

        def abandoned() -> bool:
            return abandon is not None and abandon._exception is not None

        def moved(event: Event) -> None:
            if event._exception is not None:
                # Abandoned, the operation never fires; any other failure
                # raises out of ``env.run``.
                event.defused = abandoned()
                return
            if on_moved is not None:
                on_moved()
            done.succeed(nbytes)

        def start(_event: Event) -> None:
            if abandoned():
                return
            flow = self.transfer(nbytes, link_list, rate_cap=rate_cap, label=label)
            flow.done.callbacks.append(moved)
            if abandon is not None and abandon.callbacks is not None:
                abandon.callbacks.append(
                    lambda _event: abandoned() and flow.cancel("abandoned")
                )

        if latency_s > 0:
            env.defer(latency_s, start)
        else:
            env.call_soon(start)
        return done

    # -- internal -----------------------------------------------------------

    def _collect_affected(self, links: List[SharedLink]) -> Set[Flow]:
        affected: Set[Flow] = set()
        for link in links:
            affected.update(link.flows)
        return affected

    def _detach(self, flow: Flow) -> None:
        for link in flow.links:
            link.leave(flow)
        self._rebalance(self._collect_affected(flow.links))

    def _rebalance(self, flows: Iterable[Flow]) -> None:
        """Settle, re-rate and re-arm each active flow of ``flows``."""
        env = self.env
        # Nothing is popped during a pass, so the clock stands still.
        now = env.now
        # Sorted by creation index: the iteration order schedules the
        # flows' completion timers, and the event queue breaks same-time
        # ties by insertion order — iterating the raw set would leak
        # object addresses (which vary run to run within a process) into
        # simulated results.
        for flow in sorted(flows, key=_creation_order):
            if not flow._active:
                continue
            # Settle the bytes moved since the last rate change.  The
            # conditional clamp is max(remaining, 0.0), -0.0 and NaN
            # included.
            rate = flow.rate
            remaining = flow.remaining
            if rate > 0:
                moved = rate * (now - flow._last_update)
                remaining -= moved
                if remaining < 0.0:
                    remaining = 0.0
                flow.remaining = remaining
                self.bytes_moved += moved
            flow._last_update = now
            # Re-rate: each ``share < rate`` test is min(rate, share).
            rate = flow.rate_cap
            for link in flow.links:
                share = link.fair_share
                if share is None:
                    share = link.fair_share = link.share()
                if share < rate:
                    rate = share
            flow.rate = rate
            # Re-arm.  A residue at or below max(_EPSILON, nbytes * 1e-9)
            # is float noise, not real bytes.
            if remaining <= _EPSILON or remaining <= flow.nbytes * 1e-9:
                self._complete(flow)
                continue
            if rate <= _EPSILON:
                self._disarm(flow)  # stalled; a later rebalance will re-arm
                continue
            eta = remaining / rate
            if now + eta <= now:
                # eta underflows the clock's float resolution: finish now.
                self._complete(flow)
                continue
            slot = flow._slot = env.reserve(eta)
            entry = flow._entry
            if entry is None or slot < flow._entry_slot:
                if entry is not None:
                    entry.callbacks.clear()
                flow._entry = env.call_at(slot, flow._on_entry)
                flow._entry_slot = slot

    def _disarm(self, flow: Flow) -> None:
        """Drop the live slot and empty the heap entry."""
        flow._slot = None
        if flow._entry is not None:
            flow._entry.callbacks.clear()
            flow._entry = None

    def _fire(self, flow: Flow) -> None:
        """The flow's heap entry came due."""
        flow._entry = None
        if flow._entry_slot < flow._slot:
            # Re-armed later since this entry was pushed: move to the
            # live slot.
            flow._entry = self.env.call_at(flow._slot, flow._on_entry)
            flow._entry_slot = flow._slot
            return
        # No link of the flow changed membership since its last pass
        # (that would have re-rated it), so this re-rates it to its
        # current rate.
        self._rebalance((flow,))

    def _complete(self, flow: Flow) -> None:
        self._disarm(flow)
        self.bytes_moved += flow.remaining  # account float residue as moved
        flow.remaining = 0.0
        flow._active = False
        flow.finished_at = self.env.now
        self._detach(flow)
        flow.done.succeed(flow)


def _check_transfer(nbytes: float, rate_cap: float) -> None:
    if not 0 <= nbytes < math.inf:  # also rejects NaN
        raise ValueError(
            f"byte count must be finite and non-negative, got {nbytes}"
        )
    if not rate_cap > 0:  # also rejects NaN
        raise ValueError(f"rate cap must be positive, got {rate_cap}")
