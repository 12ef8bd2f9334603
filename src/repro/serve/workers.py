"""The control plane's remote worker fleet: registry, leases, requeue.

``repro serve --workers remote`` splits execution out of the service
process: cells queue here instead of feeding a local pool, and remote
``repro worker`` processes pull them over HTTP — register (``POST
/v1/workers``), long-poll for a cell lease (``POST /v1/cells/lease``),
execute it with the ordinary picklable
:class:`~repro.parallel.spec.ReplaySpec` machinery, and deliver the
:meth:`~repro.parallel.engine.CellResult.to_payload` round-trip back
(``POST /v1/cells/<lease>/result``).  See ``docs/workers.md``.

The registry's job is to make worker death boring:

* Every lease carries a **deadline** (``lease_timeout_s`` past grant).
  A lease that passes its deadline without a result is reclaimed and
  the cell is **requeued at the next attempt number** — byte-identical
  to a local retry, because ``cell_seed`` is a function of (spec, cell)
  alone.  A cell whose retry budget runs out becomes a deterministic
  :class:`~repro.parallel.resilience.CellFailure` of kind
  ``lease-expired``.
* Every worker carries a **heartbeat deadline** (``heartbeat_timeout_s``
  past its last contact).  A silent worker is evicted and its active
  leases expire immediately — a SIGKILLed worker's cells move to a
  survivor after at most one lease timeout.
* A result for a lease that already expired is rejected (the cell was
  re-leased; accepting both would double-fold).  Exactly one result per
  cell ever reaches the fold, which is what keeps journal records and
  merged reports exactly-once.

Determinism and testability: the registry never reads the wall clock
directly — it takes a ``clock`` callable (default ``time.monotonic``),
so lease expiry, requeue, and dead-worker eviction are tested with a
fake clock and zero sleeps (``tests/test_worker_fleet.py``).  Expiry is
driven opportunistically: every public entry point sweeps first, and
the blocking :meth:`WorkerRegistry.results` fold loop sweeps on a
bounded wait, so no background sweeper thread exists to race the fake
clock.
"""

from __future__ import annotations

import hmac
import secrets
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterator, List, Optional

from ..parallel.engine import CellResult, Outcome
from ..parallel.resilience import FAILURE_KINDS, CellFailure, RetryPolicy

__all__ = [
    "FleetCancelled",
    "FleetJob",
    "StaleLease",
    "UnknownWorker",
    "WorkerAuthError",
    "WorkerRegistry",
]


class UnknownWorker(KeyError):
    """A worker id the registry does not know (never seen, or evicted)."""

    def __init__(self, worker_id: str) -> None:
        super().__init__(worker_id)
        self.worker_id = worker_id

    def __str__(self) -> str:
        return (
            f"unknown worker {self.worker_id!r} (never registered, or "
            f"evicted after missing heartbeats; re-register)"
        )


class StaleLease(KeyError):
    """A lease id that is not active (expired, delivered, or invented).

    The holder's result is rejected: the cell either already folded or
    was re-leased to another worker, and accepting a second result
    would break the exactly-once fold.
    """

    def __init__(self, lease_id: str) -> None:
        super().__init__(lease_id)
        self.lease_id = lease_id

    def __str__(self) -> str:
        return (
            f"lease {self.lease_id!r} is not active (expired and "
            f"requeued, or already completed)"
        )


class WorkerAuthError(PermissionError):
    """A fleet request whose secret does not match the worker's.

    Registration mints a per-worker secret; the HTTP layer requires it
    on every later heartbeat/lease/result call (``403`` on mismatch),
    so a host that merely knows a worker id — they are public in
    ``GET /v1/workers`` — cannot post forged results or errors as that
    worker.  See the trust-model section of ``docs/workers.md``.
    """

    def __init__(self, worker_id: str) -> None:
        super().__init__(worker_id)
        self.worker_id = worker_id

    def __str__(self) -> str:
        return (
            f"bad or missing secret for worker {self.worker_id!r}; send "
            f"the 'secret' issued at registration"
        )


class FleetCancelled(RuntimeError):
    """The fleet shut down (or the job was cancelled) mid-fold.

    Distinct from a run failure: the control plane maps it to an
    *interrupted* run, which the durable journal resumes on restart.
    """


@dataclass
class _Worker:
    id: str
    name: Optional[str]
    registered_at: float
    last_seen: float
    #: The per-worker shared secret minted at registration; never
    #: exposed through :meth:`WorkerRegistry.snapshot`.
    secret: str = ""
    leases: set = field(default_factory=set)


@dataclass
class _Lease:
    id: str
    worker_id: str
    job: "FleetJob"
    key: str
    attempt: int
    deadline: float


@dataclass
class _PendingCell:
    job: "FleetJob"
    key: str
    attempt: int


class FleetJob:
    """One remote run's cell bookkeeping inside the registry."""

    def __init__(
        self, job_id: str, payload: dict, cells: List[str], retry: RetryPolicy
    ) -> None:
        self.id = job_id
        #: The validated ``POST /v1/runs`` payload shipped to workers so
        #: they rebuild the exact same ReplaySpec — with the server-level
        #: ``--tenant-config`` injected inline when the body carried
        #: none, since workers re-validate the payload with no server
        #: defaults in scope.
        self.payload = payload
        self.retry = retry
        self.expected = len(cells)
        self.delivered = 0
        self.outcomes: Deque[Outcome] = deque()
        self.cancelled = False

    @property
    def done(self) -> bool:
        return self.delivered >= self.expected and not self.outcomes


class WorkerRegistry:
    """Leases, heartbeats, and requeue for a remote worker fleet.

    Thread-safe; every public method is opportunistically an expiry
    sweep (late leases reclaimed, silent workers evicted) before it does
    its own work, so progress never depends on a timer thread.

    ``on_event(job_id, kind, body)`` — when given — fires *outside* the
    registry lock for every ``lease`` / ``lease_expired`` occurrence, so
    the control plane can mirror fleet activity onto a run's event
    stream without lock-order coupling.
    """

    def __init__(
        self,
        lease_timeout_s: float = 30.0,
        heartbeat_timeout_s: float = 90.0,
        clock: Callable[[], float] = time.monotonic,
        metrics=None,
        on_event: Optional[Callable[[str, str, dict], None]] = None,
    ) -> None:
        if lease_timeout_s <= 0:
            raise ValueError("lease_timeout_s must be positive")
        if heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be positive")
        self.lease_timeout_s = float(lease_timeout_s)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self._clock = clock
        self._metrics = metrics
        self._on_event = on_event
        self._cond = threading.Condition()
        self._closed = False
        self._workers: Dict[str, _Worker] = {}
        self._leases: Dict[str, _Lease] = {}
        self._pending: Deque[_PendingCell] = deque()
        self._jobs: Dict[str, FleetJob] = {}
        self._next_worker = 0
        self._next_lease = 0

    # -- internal helpers (call under self._cond) -----------------------------

    def _counter(self, name: str, **labels: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(name, **labels).inc()

    def _set_worker_gauge(self) -> None:
        if self._metrics is not None:
            self._metrics.gauge("repro_workers_registered").set(
                len(self._workers)
            )

    def _deliver(self, job: FleetJob, outcome: Outcome) -> None:
        if job.cancelled:
            return
        job.outcomes.append(outcome)
        job.delivered += 1
        self._cond.notify_all()

    def _requeue(self, lease: _Lease, kind: str, message: str) -> bool:
        """Charge one attempt; requeue the cell or fail it terminally.

        Returns whether the cell was requeued (budget left).
        """
        job = lease.job
        if job.cancelled:
            return False
        if lease.attempt < job.retry.max_attempts:
            self._pending.append(
                _PendingCell(job=job, key=lease.key, attempt=lease.attempt + 1)
            )
            self._counter("repro_cell_retries_total")
            self._cond.notify_all()
            return True
        self._deliver(
            job,
            CellFailure(
                key=lease.key,
                kind=kind,
                attempts=lease.attempt,
                message=message,
            ),
        )
        return False

    def _expire_locked(self, now: float, events: List[tuple]) -> None:
        """Reclaim overdue leases and evict silent workers."""
        for worker in [
            w
            for w in self._workers.values()
            if now - w.last_seen >= self.heartbeat_timeout_s
        ]:
            del self._workers[worker.id]
            self._counter("repro_workers_evicted_total")
            # A dead worker's leases expire now — waiting out the lease
            # deadline would only delay the requeue.
            for lease_id in list(worker.leases):
                lease = self._leases.get(lease_id)
                if lease is not None:
                    lease.deadline = now
        self._set_worker_gauge()
        for lease in [
            l for l in self._leases.values() if now >= l.deadline
        ]:
            del self._leases[lease.id]
            worker = self._workers.get(lease.worker_id)
            if worker is not None:
                worker.leases.discard(lease.id)
            self._counter("repro_leases_expired_total")
            requeued = self._requeue(
                lease,
                kind="lease-expired",
                message=(
                    f"lease on cell {lease.key!r} expired before a result "
                    f"arrived"
                ),
            )
            events.append(
                (
                    lease.job.id,
                    "lease_expired",
                    {
                        "run_id": lease.job.id,
                        "cell": lease.key,
                        "worker": lease.worker_id,
                        "attempt": lease.attempt,
                        "requeued": requeued,
                    },
                )
            )

    def _next_deadline(self) -> Optional[float]:
        deadlines = [lease.deadline for lease in self._leases.values()]
        if self._workers:
            deadlines.extend(
                w.last_seen + self.heartbeat_timeout_s
                for w in self._workers.values()
            )
        return min(deadlines) if deadlines else None

    def _flush_events(self, events: List[tuple]) -> None:
        if self._on_event is not None:
            for job_id, kind, body in events:
                self._on_event(job_id, kind, body)

    # -- worker-facing surface -------------------------------------------------

    def register(self, name: Optional[str] = None) -> dict:
        """Admit a worker; returns its id, its secret, and the fleet's
        timing contract.

        The ``secret`` is the worker's proof of identity for the rest of
        its life: the HTTP layer demands it on heartbeat/lease/result
        calls (:meth:`verify_secret`), so worker ids — which the fleet
        snapshot publishes — are not enough to impersonate a worker.
        """
        events: List[tuple] = []
        with self._cond:
            if self._closed:
                raise FleetCancelled("worker fleet is shut down")
            self._expire_locked(self._clock(), events)
            self._next_worker += 1
            worker_id = f"w-{self._next_worker:06d}"
            now = self._clock()
            secret = secrets.token_hex(16)
            self._workers[worker_id] = _Worker(
                id=worker_id,
                name=str(name) if name else None,
                registered_at=now,
                last_seen=now,
                secret=secret,
            )
            self._set_worker_gauge()
        self._flush_events(events)
        return {
            "worker": worker_id,
            "secret": secret,
            "lease_timeout_s": self.lease_timeout_s,
            "heartbeat_timeout_s": self.heartbeat_timeout_s,
        }

    def verify_secret(self, worker_id: str, secret: Optional[str]) -> None:
        """Raise :class:`WorkerAuthError` unless ``secret`` matches.

        An *unknown* worker id passes: the caller's own lookup then
        raises the accurate :class:`UnknownWorker`/:class:`StaleLease`,
        and the auth path leaks nothing about which ids are live that
        the fleet snapshot doesn't already publish.
        """
        with self._cond:
            worker = self._workers.get(worker_id)
            expected = None if worker is None else worker.secret
        if expected is not None and not hmac.compare_digest(
            expected, secret or ""
        ):
            raise WorkerAuthError(worker_id)

    def heartbeat(self, worker_id: str) -> dict:
        """Refresh a worker's liveness deadline."""
        events: List[tuple] = []
        with self._cond:
            self._expire_locked(self._clock(), events)
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.last_seen = self._clock()
                leases = len(worker.leases)
        self._flush_events(events)
        if worker is None:
            raise UnknownWorker(worker_id)
        return {"worker": worker_id, "leases": leases}

    def lease(self, worker_id: str, wait_s: float = 0.0) -> Optional[dict]:
        """Grant the next queued cell to ``worker_id``, or ``None``.

        Long-poll semantics: blocks up to ``wait_s`` for a cell to
        appear (new run submitted, or an expired lease requeued).  Every
        wake-up counts as worker contact, so a long-polling worker needs
        no separate heartbeat traffic to stay live.
        """
        deadline = self._clock() + max(0.0, wait_s)
        while True:
            events: List[tuple] = []
            grant: Optional[dict] = None
            unknown = False
            waited = False
            with self._cond:
                now = self._clock()
                self._expire_locked(now, events)
                worker = self._workers.get(worker_id)
                if worker is None:
                    unknown = True
                else:
                    worker.last_seen = now
                    while self._pending and self._pending[0].job.cancelled:
                        self._pending.popleft()
                    if self._pending:
                        cell = self._pending.popleft()
                        self._next_lease += 1
                        lease = _Lease(
                            id=f"l-{self._next_lease:08d}",
                            worker_id=worker_id,
                            job=cell.job,
                            key=cell.key,
                            attempt=cell.attempt,
                            deadline=now + self.lease_timeout_s,
                        )
                        self._leases[lease.id] = lease
                        worker.leases.add(lease.id)
                        self._counter("repro_leases_granted_total")
                        events.append(
                            (
                                cell.job.id,
                                "lease",
                                {
                                    "run_id": cell.job.id,
                                    "cell": cell.key,
                                    "worker": worker_id,
                                    "attempt": cell.attempt,
                                },
                            )
                        )
                        grant = {
                            "lease": lease.id,
                            "run_id": cell.job.id,
                            "cell": cell.key,
                            "attempt": cell.attempt,
                            "request": cell.job.payload,
                        }
                    elif not self._closed and deadline - now > 0:
                        # Wake in bounded steps so the next lease or
                        # heartbeat deadline is observed even while
                        # blocked in a long poll.
                        self._cond.wait(min(deadline - now, 0.25))
                        waited = True
            self._flush_events(events)
            if unknown:
                raise UnknownWorker(worker_id)
            if grant is not None or not waited:
                return grant

    def complete(
        self,
        lease_id: str,
        worker_id: str,
        result: Optional[dict] = None,
        error: Optional[dict] = None,
    ) -> dict:
        """Deliver a leased cell's outcome (result payload xor error)."""
        if (result is None) == (error is None):
            raise ValueError("exactly one of result/error must be given")
        cell: Optional[CellResult] = None
        if result is not None:
            cell = CellResult.from_payload(result)
        else:
            kind = str(error.get("kind", "app-error"))
            if kind not in FAILURE_KINDS:
                raise ValueError(
                    f"unknown failure kind {kind!r}; expected one "
                    f"of {list(FAILURE_KINDS)}"
                )
            message = str(error.get("message", ""))
        events: List[tuple] = []
        try:
            with self._cond:
                self._expire_locked(self._clock(), events)
                worker = self._workers.get(worker_id)
                if worker is not None:
                    worker.last_seen = self._clock()
                lease = self._leases.get(lease_id)
                if lease is None or lease.worker_id != worker_id:
                    self._counter("repro_lease_results_total", status="stale")
                    raise StaleLease(lease_id)
                if cell is not None and cell.key != lease.key:
                    raise ValueError(
                        f"lease {lease_id!r} covers cell {lease.key!r}, "
                        f"got a result for {cell.key!r}"
                    )
                del self._leases[lease_id]
                if worker is not None:
                    worker.leases.discard(lease_id)
                if cell is not None:
                    self._counter("repro_lease_results_total", status="ok")
                    self._deliver(lease.job, cell)
                else:
                    self._counter("repro_lease_results_total", status="error")
                    self._requeue(lease, kind=kind, message=message)
        finally:
            self._flush_events(events)
        return {"lease": lease_id, "cell": lease.key}

    def snapshot(self) -> dict:
        """The fleet as JSON (``GET /v1/workers``): workers, queue, leases."""
        events: List[tuple] = []
        with self._cond:
            self._expire_locked(self._clock(), events)
            workers = [
                {
                    "id": worker.id,
                    "name": worker.name,
                    "leases": sorted(
                        self._leases[lease_id].key
                        for lease_id in worker.leases
                        if lease_id in self._leases
                    ),
                }
                for worker in sorted(
                    self._workers.values(), key=lambda w: w.id
                )
            ]
            payload = {
                "workers": workers,
                "queued_cells": len(self._pending),
                "active_leases": len(self._leases),
                "lease_timeout_s": self.lease_timeout_s,
                "heartbeat_timeout_s": self.heartbeat_timeout_s,
            }
        self._flush_events(events)
        return payload

    # -- control-plane surface -------------------------------------------------

    def submit(
        self,
        job_id: str,
        payload: dict,
        cells: List[str],
        retry: Optional[RetryPolicy] = None,
    ) -> FleetJob:
        """Queue a run's remaining cells for the fleet, FIFO."""
        job = FleetJob(
            job_id, payload, list(cells), retry if retry is not None
            else RetryPolicy()
        )
        with self._cond:
            if self._closed:
                raise FleetCancelled("worker fleet is shut down")
            self._jobs[job_id] = job
            for key in cells:
                self._pending.append(_PendingCell(job=job, key=key, attempt=1))
            self._cond.notify_all()
        return job

    def results(self, job: FleetJob) -> Iterator[Outcome]:
        """Block-iterate a job's outcomes until every cell resolved.

        The fold loop's entry point: yields exactly one outcome per
        submitted cell (a :class:`CellResult` or a terminal
        :class:`CellFailure`), in delivery order.  The wait doubles as
        the expiry sweep for the whole registry, so leases are reclaimed
        even when every worker is dead and no HTTP request will ever
        arrive again.  Raises :class:`FleetCancelled` when the job is
        cancelled or the registry closes mid-run.
        """
        while True:
            events: List[tuple] = []
            outcome: Optional[Outcome] = None
            with self._cond:
                now = self._clock()
                self._expire_locked(now, events)
                if job.outcomes:
                    outcome = job.outcomes.popleft()
                elif job.cancelled or self._closed:
                    self._flush_events(events)
                    raise FleetCancelled(
                        f"remote run {job.id!r} was cancelled"
                    )
                elif job.done:
                    self._flush_events(events)
                    return
                else:
                    next_deadline = self._next_deadline()
                    timeout = 0.25
                    if next_deadline is not None:
                        timeout = min(timeout, max(0.01, next_deadline - now))
                    self._cond.wait(timeout)
            self._flush_events(events)
            if outcome is not None:
                yield outcome

    def finish(self, job: FleetJob) -> None:
        """Drop a job's bookkeeping (fold done, failed, or cancelled)."""
        with self._cond:
            job.cancelled = True
            self._jobs.pop(job.id, None)
            self._pending = deque(
                cell for cell in self._pending if cell.job is not job
            )
            for lease_id in [
                lease_id
                for lease_id, lease in self._leases.items()
                if lease.job is job
            ]:
                lease = self._leases.pop(lease_id)
                worker = self._workers.get(lease.worker_id)
                if worker is not None:
                    worker.leases.discard(lease_id)
            self._cond.notify_all()

    def expire(self, now: Optional[float] = None) -> None:
        """Run one expiry sweep explicitly (tests drive fake clocks here)."""
        events: List[tuple] = []
        with self._cond:
            self._expire_locked(
                self._clock() if now is None else now, events
            )
        self._flush_events(events)

    def close(self) -> None:
        """Shut the fleet down: cancel every job, wake every waiter."""
        with self._cond:
            self._closed = True
            for job in self._jobs.values():
                job.cancelled = True
            self._jobs.clear()
            self._pending.clear()
            self._leases.clear()
            for worker in self._workers.values():
                worker.leases.clear()
            self._cond.notify_all()
