"""Lease-based worker service over the durable job queue.

:class:`QueueWorker` is the execution half of the dispatcher/worker
split: it drains a :class:`~repro.engine.queue.JobQueue`, leasing jobs
under a TTL, heartbeating while simulations run, writing results to the
shared :class:`~repro.engine.store.ResultStore`, and marking jobs done.
The same class serves two deployments:

* **embedded** — ``repro exp run --queue`` runs one inside the
  dispatching Engine, so a single command still completes a campaign
  while leaving the queue behind as its durable progress record;
* **standalone** — ``repro worker --queue PATH`` runs one per OS
  process; any number of them may point at the same queue file, on the
  strength of the store's benign same-key write races.

Crash semantics: a worker that dies (SIGKILL, OOM, reboot) simply stops
heartbeating.  Its leases expire; any surviving process's
:meth:`~repro.engine.queue.JobQueue.reclaim` requeues them with a
synthetic ``crash`` :class:`~repro.engine.faults.RequestFailure`, and
the attempt budget — PR 7's :class:`~repro.engine.faults.
ExecutionPolicy` ``max_retries`` — bounds how often a poisonous job may
kill workers before it is marked ``failed``.  A worker killed *between*
its store write and its ``complete`` mark costs nothing: the next
worker to lease that key finds the result in the store and completes
the job without re-executing it.

Retry scheduling lives in the queue, not the worker: every lease is
exactly one attempt, and a failed attempt goes back through
``queue.fail`` with the policy's deterministic backoff as ``not_before``
— which is what lets a *different* worker pick up the retry.
"""

from __future__ import annotations

import os
import socket
import time
from concurrent.futures import FIRST_COMPLETED, CancelledError, wait
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

from ..obs.metrics import MetricsRegistry
from ..obs.spans import spans_enabled, worker_id
from .faults import ExecutionPolicy, FaultPlan, RequestFailure
from .jobs import decode_result
from .pool import (FailureFn, ProgressFn, RebuildFn, SimulationPool,
                   _execute_request)
from .queue import JobQueue, Lease
from .store import StoreDecodeError


def owner_id(suffix: Optional[str] = None) -> str:
    """A queue-owner identity for this process: ``hostname:pid``.

    Unique per live process on a shared filesystem, and — importantly —
    never reused by the *same* queue once the process dies, so an
    expired lease can always be attributed to a dead owner.
    """
    base = f"{socket.gethostname()}:{os.getpid()}"
    return f"{base}:{suffix}" if suffix else base


@dataclass
class WorkerReport:
    """What one :meth:`QueueWorker.run` drain accomplished."""

    owner: str = ""
    leased: int = 0           #: jobs this worker took a lease on
    completed: int = 0        #: jobs executed and marked done
    resumed: int = 0          #: jobs completed from a store hit, no execution
    reclaimed: int = 0        #: expired foreign leases this worker recycled
    released: int = 0         #: innocent jobs returned uncharged (pool crash)
    retried: int = 0          #: failed attempts requeued within budget
    terminal: int = 0         #: failed attempts that exhausted the budget
    failures: List[RequestFailure] = field(default_factory=list)

    def summary(self) -> str:
        text = (f"worker {self.owner}: {self.completed} completed, "
                f"{self.resumed} resumed from store, "
                f"{self.leased} leased")
        if self.reclaimed or self.retried or self.terminal:
            text += (f"; {self.reclaimed} reclaimed, "
                     f"{self.retried} retried, "
                     f"{self.terminal} terminal failures")
        return text


#: journal-event callback: (event_type, **fields)
EmitFn = Callable[..., None]


class QueueWorker:
    """Drains a job queue: lease → heartbeat → execute → complete.

    Parameters
    ----------
    queue:
        The :class:`~repro.engine.queue.JobQueue` (or a path to one).
    store:
        Shared :class:`~repro.engine.store.ResultStore`; lets the
        worker resume jobs whose result already landed (crash between
        store write and done mark) and is where the default delivery
        path writes results.
    jobs:
        In-worker parallelism.  ``1`` executes leased jobs inline in
        this process; ``>1`` keeps up to ``jobs`` attempts in flight
        through a :class:`~repro.engine.pool.SimulationPool`, leasing
        the next job as each one finishes, with per-attempt wall-clock
        timeouts from ``policy`` enforced by pool rebuild.
    policy / faults:
        PR 7's retry/timeout discipline and deterministic fault
        injector.  The queue carries the retry *count* (attempts); the
        policy supplies the budget and backoff, and the injector sees
        the queue's attempt number, so chaos campaigns recover across
        worker processes exactly as they do in-process.
    lease_ttl_s / heartbeat_s / poll_s:
        Lease lifetime, heartbeat period while executing (default
        ``lease_ttl_s / 3``), and idle polling period.
    on_result:
        ``fn(key, payload) -> result`` invoked for each executed
        payload; the embedded deployment passes the Engine's
        ``_consume_payload`` so queue executions hit memo/store/journal
        through the same single path as pool executions.  Default:
        decode-validate, write to ``store``, journal a ``request``
        event.
    on_failure / on_rebuild / emit / metrics / progress:
        The Engine's observability hooks (failure + rebuild notes,
        journal events, metric registry, progress callback); all
        optional.
    """

    def __init__(
        self,
        queue,
        *,
        store=None,
        jobs: int = 1,
        pool: Optional[SimulationPool] = None,
        policy: Optional[ExecutionPolicy] = None,
        faults: Optional[FaultPlan] = None,
        lease_ttl_s: float = 30.0,
        heartbeat_s: Optional[float] = None,
        poll_s: float = 0.2,
        owner: Optional[str] = None,
        on_result: Optional[Callable[[str, dict], object]] = None,
        on_failure: Optional[FailureFn] = None,
        on_rebuild: Optional[RebuildFn] = None,
        emit: Optional[EmitFn] = None,
        metrics: Optional[MetricsRegistry] = None,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        self.queue = queue if isinstance(queue, JobQueue) \
            else JobQueue(queue)
        self.store = store
        self.jobs = max(1, int(jobs))
        self._pool = pool
        self._owns_pool = pool is None
        self.policy = policy if policy is not None \
            else ExecutionPolicy.from_env()
        self.faults = faults if faults is not None \
            else FaultPlan.from_env()
        self.lease_ttl_s = float(lease_ttl_s)
        self.heartbeat_s = (float(heartbeat_s) if heartbeat_s is not None
                            else max(0.05, self.lease_ttl_s / 3.0))
        self.poll_s = float(poll_s)
        self.owner = owner if owner else owner_id()
        self.on_result = on_result
        self.on_failure = on_failure
        self.on_rebuild = on_rebuild
        self.emit = emit
        self.metrics = metrics
        self.progress = progress

    # -- plumbing ----------------------------------------------------------

    @property
    def pool(self) -> SimulationPool:
        if self._pool is None:
            self._pool = SimulationPool(jobs=self.jobs)
        return self._pool

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter("queue_" + name).inc(amount)

    def _emit(self, type: str, **fields) -> None:
        if self.emit is not None:
            self.emit(type, **fields)

    def _update_depth(self) -> None:
        if self.metrics is None:
            return
        counts = self.queue.counts()
        self.metrics.gauge(
            "queue_depth",
            "jobs pending or leased in the attached queue",
        ).set(counts["pending"] + counts["leased"])

    # -- the drain loop ----------------------------------------------------

    def run(self, watch_keys: Optional[Sequence[str]] = None,
            max_idle_s: Optional[float] = None) -> WorkerReport:
        """Drain the queue; returns a :class:`WorkerReport`.

        Without ``watch_keys`` the worker runs until the queue is
        *drained* — no job pending or leased; it outlives other
        workers' leases on purpose, staying around to reclaim them if
        their owners die.  With ``watch_keys`` (the embedded
        deployment) it instead runs until every watched key is settled
        (``done`` or ``failed``), even if unrelated jobs remain.
        ``max_idle_s`` bounds how long the worker idles without
        obtaining a single lease before giving up.

        The pool path is a sliding window: up to ``jobs`` attempts are
        in flight, and each settled attempt frees a slot that the next
        iteration leases into, so a fast job never waits for a slow
        sibling.  Once the watched keys settle it leases nothing more
        and returns when the attempts still in flight are done.
        """
        watch: Optional[Set[str]] = (set(watch_keys)
                                     if watch_keys is not None else None)
        report = WorkerReport(owner=self.owner)
        inline = self.jobs <= 1 and self._pool is None
        window = _Window()
        idle_since: Optional[float] = None
        try:
            while True:
                self._reclaim(report)
                self._update_depth()
                settled = watch is not None and self._settled(watch)
                if settled and not window.leases:
                    break
                # once the watched keys settle, lease nothing more and
                # let the attempts still in flight finish
                room = 0 if settled else self.jobs - len(window.leases)
                leases = (self.queue.lease(self.owner,
                                           ttl_s=self.lease_ttl_s,
                                           limit=room)
                          if room > 0 else [])
                if leases:
                    idle_since = None
                    report.leased += len(leases)
                    self._count("leased", len(leases))
                    self._emit("lease", owner=self.owner,
                               count=len(leases),
                               keys=[lease.key for lease in leases])
                    pending = self._resume_from_store(leases, report)
                    if inline:
                        self._execute_inline(pending, report)
                    else:
                        self._submit(window, pending)
                if window.leases:
                    self._await_window(window, report)
                    continue
                if leases:
                    continue
                if watch is None and self.queue.drained():
                    break
                if max_idle_s is not None:
                    if idle_since is None:
                        idle_since = time.monotonic()
                    elif time.monotonic() - idle_since >= max_idle_s:
                        break
                time.sleep(self.poll_s)
        finally:
            self._update_depth()
            if self._owns_pool and self._pool is not None:
                self._pool.close()
                self._pool = None
        return report

    def _settled(self, watch: Set[str]) -> bool:
        states = self.queue.states(list(watch))
        return all(states.get(key) in ("done", "failed") for key in watch)

    def _reclaim(self, report: WorkerReport) -> None:
        requeued, failed = self.queue.reclaim()
        if not requeued and not failed:
            return
        report.reclaimed += len(requeued) + len(failed)
        self._count("reclaimed", len(requeued) + len(failed))
        self._emit("reclaim", owner=self.owner,
                   requeued=[f.key for f in requeued],
                   failed=[f.key for f in failed])
        if self.on_failure is not None:
            for failure in requeued:
                self.on_failure(failure, True)
            for failure in failed:
                self.on_failure(failure, False)
        report.failures.extend(failed)

    def _resume_from_store(self, leases: List[Lease],
                           report: WorkerReport) -> List[Lease]:
        """Complete leased jobs whose result is already stored.

        Covers the crash window between a dead worker's store write and
        its done mark: the re-leased job costs a store lookup, not a
        simulation.
        """
        if self.store is None:
            return leases
        remaining: List[Lease] = []
        for lease in leases:
            if self.store.get(lease.key) is not None:
                self.queue.complete(lease.key, self.owner)
                report.resumed += 1
                self._count("resumed")
            else:
                remaining.append(lease)
        return remaining

    # -- delivery / outcome bookkeeping ------------------------------------

    def _deliver(self, key: str, payload: dict) -> None:
        """Route one executed payload to its consumer.

        Raises :class:`~repro.engine.store.StoreDecodeError` when the
        payload fails validation (the ``corrupt`` failure path).
        """
        if self.on_result is not None:
            self.on_result(key, payload)
            return
        obs = payload.pop("_obs", None) or {}
        decode_result(payload)  # validates; raises StoreDecodeError
        if self.store is not None:
            self.store.put(key, payload)
        self._emit("request", key=key, outcome="executed",
                   kind=payload.get("kind"), wall_s=obs.get("wall_s"),
                   worker=obs.get("worker"), spans=obs.get("spans") or [])

    def _complete(self, lease: Lease, report: WorkerReport) -> None:
        self.queue.complete(lease.key, self.owner)
        report.completed += 1
        self._count("completed")
        if self.progress is not None:
            self.progress(report.completed + report.resumed,
                          report.leased, lease.key)

    def _fail(self, lease: Lease, kind: str, error: str,
              exc: Optional[BaseException] = None,
              report: Optional[WorkerReport] = None) -> None:
        attempts = lease.attempt + 1
        if exc is not None:
            failure = RequestFailure.from_exception(
                lease.key, exc, kind=kind, worker=worker_id(),
                attempts=attempts)
        else:
            failure = RequestFailure(key=lease.key, kind=kind, error=error,
                                     worker=worker_id(), attempts=attempts)
        state = self.queue.fail(
            lease.key, failure,
            backoff_s=self.policy.backoff(lease.key, attempts))
        retrying = state == "pending"
        if report is not None:
            if retrying:
                report.retried += 1
            else:
                report.terminal += 1
                report.failures.append(failure)
        self._count("failed_attempts")
        if self.on_failure is not None:
            self.on_failure(failure, retrying)

    def _rebuild_pool(self) -> None:
        self.pool.rebuild()
        if self.pool.rebuilds > self.policy.max_rebuilds:
            self.pool.degraded = True
        if self.on_rebuild is not None:
            self.on_rebuild(self.pool.rebuilds, self.pool.degraded)

    # -- execution paths ---------------------------------------------------

    def _execute_inline(self, leases: List[Lease],
                        report: WorkerReport) -> None:
        """Run leased jobs one at a time in this process.

        No per-attempt timeout here (there is no worker process to
        kill); an injected ``crash`` fault downgrades to a raise, same
        as :func:`~repro.engine.pool.iter_serial`.
        """
        pending = list(leases)
        while pending:
            lease = pending.pop(0)
            if pending:  # keep the rest alive while this one runs
                self.queue.heartbeat([l.key for l in pending],
                                     self.owner, ttl_s=self.lease_ttl_s)
            try:
                payload = _execute_request(
                    lease.request, spans_enabled(), self.faults,
                    attempt=lease.attempt, inline=True)
                self._deliver(lease.key, payload)
            except StoreDecodeError as exc:
                self._fail(lease, "corrupt", str(exc), exc=exc,
                           report=report)
            except Exception as exc:
                self._fail(lease, "exception", str(exc), exc=exc,
                           report=report)
            else:
                self._complete(lease, report)

    def _consume_future(self, future, lease: Lease,
                        report: WorkerReport) -> bool:
        """Settle one finished future; True when the pool crashed."""
        self.pool.discard(lease.key)
        try:
            payload = future.result(timeout=0)
        except BrokenProcessPool as exc:
            self._fail(lease, "crash", str(exc) or "worker process died",
                       report=report)
            return True
        except (CancelledError, FutureTimeoutError):
            self._fail(lease, "crash", "worker pool died mid-flight",
                       report=report)
            return True
        except StoreDecodeError as exc:
            self._fail(lease, "corrupt", str(exc), exc=exc, report=report)
            return False
        except Exception as exc:
            self._fail(lease, "exception", str(exc), exc=exc,
                       report=report)
            return False
        try:
            self._deliver(lease.key, payload)
        except StoreDecodeError as exc:
            self._fail(lease, "corrupt", str(exc), exc=exc, report=report)
            return False
        self._complete(lease, report)
        return False

    def _settle_survivors(self, survivors, expired, report) -> None:
        """Tear the pool down: keep finished work, refund the rest.

        Finished futures still hold real results — consume them.
        Expired ones observe a ``timeout`` failure (charged).  The
        merely in-flight are *innocent*: released back to pending with
        their attempt refunded, the cross-process analogue of
        BatchExecution's no-fault resubmission.  Which futures finished
        is read before the teardown, because killing the workers breaks
        every future still in flight.
        """
        finished = {future for future, _ in survivors if future.done()}
        self._rebuild_pool()
        for future, lease in survivors:
            if future in expired:
                self._fail(
                    lease, "timeout",
                    f"attempt exceeded {self.policy.timeout_s}s "
                    f"wall-clock budget", report=report)
            elif future in finished:
                self._consume_future(future, lease, report)
            else:
                self.pool.discard(lease.key)
                self.queue.release(lease.key)
                report.released += 1
                self._count("released")

    def _submit(self, window: _Window, leases: List[Lease]) -> None:
        """Put leased attempts in flight, each with its own deadline."""
        now = time.monotonic()
        if not window.leases:
            window.next_beat = now + self.heartbeat_s
        for lease in leases:
            future = self.pool.submit(lease.key, lease.request,
                                      faults=self.faults,
                                      attempt=lease.attempt)
            window.leases[future] = lease
            if self.policy.timeout_s is not None:
                window.deadlines[future] = now + self.policy.timeout_s

    def _await_window(self, window: _Window,
                      report: WorkerReport) -> None:
        """Wait until an attempt settles, a deadline passes or a
        heartbeat is due, then settle whatever finished.

        The policy's per-attempt wall-clock timeout is enforced the
        only way ProcessPoolExecutor allows — tearing the pool down —
        with innocent siblings released uncharged.
        """
        horizon = window.next_beat
        if window.deadlines:
            horizon = min(horizon, min(window.deadlines.values()))
        done, _ = wait(window.leases,
                       timeout=max(0.02, horizon - time.monotonic()),
                       return_when=FIRST_COMPLETED)
        crashed = False
        for future in done:
            lease = window.leases.pop(future)
            window.deadlines.pop(future, None)
            crashed = self._consume_future(future, lease, report) \
                or crashed
        expired: Set[object] = set()
        if window.deadlines and not crashed:
            now = time.monotonic()
            expired = {future for future, due in window.deadlines.items()
                       if due <= now and not future.done()}
        if crashed or expired:
            survivors = list(window.leases.items())
            window.leases.clear()
            window.deadlines.clear()
            self._settle_survivors(survivors, expired=expired,
                                   report=report)
            return
        if window.leases and time.monotonic() >= window.next_beat:
            self.queue.heartbeat(
                [lease.key for lease in window.leases.values()],
                self.owner, ttl_s=self.lease_ttl_s)
            window.next_beat = time.monotonic() + self.heartbeat_s


@dataclass
class _Window:
    """The pool path's in-flight attempts, kept across drain iterations."""

    #: future → the lease it executes
    leases: Dict[object, Lease] = field(default_factory=dict)
    #: future → monotonic deadline (only with a policy timeout)
    deadlines: Dict[object, float] = field(default_factory=dict)
    #: monotonic time of the next lease heartbeat
    next_beat: float = 0.0
