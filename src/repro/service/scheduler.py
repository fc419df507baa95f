"""The transaction service: optimistic execution, WPC admission, group commit.

:class:`TransactionService` turns one :class:`~repro.db.storage.Store` into a
multi-client transaction processor.  The lifecycle of one client transaction:

1. **Pin** — the worker thread gets a :class:`SnapshotTransaction` against
   the current committed ``(version, Database)`` (no locks held while the
   client code runs).
2. **Execute optimistically** — the client reads through the tracked handle
   (read-your-own-writes) and buffers writes as a delta.  This is the
   parallel part: any number of transactions execute simultaneously against
   their immutable snapshots.
3. **Group commit** — the worker enqueues a commit request and the first
   worker to take the commit lock becomes the *leader*: it drains the queue,
   validates each request against the deltas committed since its snapshot
   (plus the earlier requests of the same batch), runs the admission-decided
   constraint work, composes the surviving deltas with
   :meth:`Delta.then <repro.db.delta.Delta.then>`, and applies the whole
   batch to the canonical store in **one** ``apply_delta`` — one write-log
   pass, one version bump, amortised over the batch.  The post-state the
   leader folded while validating becomes the store's new head, so each
   batch's post-state is built once.
   With a durable store (``REPRO_DURABLE=on``) the batch is also the WAL
   unit: one framed delta append and at most one fsync cover every commit in
   the batch, and outcomes are reported to clients only after the storage
   engine accepted the batch (an engine refusal aborts the whole batch, the
   store's committed state untouched).
4. **Retry** — a conflicted transaction re-runs against a fresh snapshot; a
   transaction still conflicted after ``max_retries`` optimistic attempts is
   executed by the leader *inside* the commit section (the serial fallback),
   which cannot conflict, so every transaction terminates.

Admission (see :mod:`repro.service.admission`) decides the constraint work
per request: ``static`` shapes commit with zero checks, ``guarded`` shapes
get one pre-state guard evaluation (no rollback ever), everything else gets
incremental post-state checking — the engine re-derives each constraint
through its delta rules along the batch's provenance chain.

A ``commit_timeout`` bounds every wait in the pipeline, so a deadlock (or a
stuck leader) surfaces as a :class:`ServiceError` instead of a hang — both
the stress suite and CI rely on this to fail fast.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import warnings

from .. import faults as _faults
from ..core.maintenance import Constraint
from ..db.database import Database
from ..db.delta import Delta
from ..db.engines import StorageEngineError
from ..db.storage import Store
from ..engine.backend import Backend, active_backend
from ..logic.signature import EMPTY_SIGNATURE, Signature
from ..logic.syntax import Formula
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..transactions.base import Transaction, TransactionAbortedSignal
from .admission import AdmissionController, TransactionTemplate
from .snapshots import ServiceError, SnapshotManager, SnapshotTransaction, validate

logger = logging.getLogger(__name__)

__all__ = [
    "WORKERS_ENV",
    "COMMIT_RETRIES_ENV",
    "default_workers",
    "default_commit_retries",
    "classify_commit_error",
    "ServiceStats",
    "TxnOutcome",
    "TransactionService",
]

#: environment knob: default worker-thread count of the workload driver
WORKERS_ENV = "REPRO_SERVICE_WORKERS"

#: environment knob: transparent retries of a retryable commit failure
COMMIT_RETRIES_ENV = "REPRO_COMMIT_RETRIES"

DEFAULT_COMMIT_RETRIES = 3

#: exponential backoff between transient-failure retries: base doubling per
#: attempt, capped — a flapping disk gets breathing room without parking a
#: client for seconds
_BACKOFF_BASE = 0.01
_BACKOFF_CAP = 0.5

Work = Union[Transaction, Callable[[SnapshotTransaction], object]]


def default_commit_retries(fallback: int = DEFAULT_COMMIT_RETRIES) -> int:
    """Retry budget selected by ``REPRO_COMMIT_RETRIES`` (default 3)."""
    raw = os.environ.get(COMMIT_RETRIES_ENV, "").strip()
    if not raw:
        return fallback
    try:
        value = int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring invalid {COMMIT_RETRIES_ENV}={raw!r}; expected an "
            f"integer — using {fallback}",
            RuntimeWarning,
            stacklevel=2,
        )
        return fallback
    return max(0, value)


def classify_commit_error(exc: BaseException) -> bool:
    """Is this commit-path failure worth retrying?

    *Retryable* failures are environmental: the storage engine refused the
    batch (flaky disk, injected fault), an OS-level I/O error, a timeout.
    Everything else — constraint logic blowing up, a TypeError in client
    work — is deterministic and retrying would only repeat it.
    """
    return isinstance(
        exc, (StorageEngineError, OSError, TimeoutError, _faults.FaultError)
    )


def default_workers(fallback: int = 8) -> int:
    """The worker count selected by ``REPRO_SERVICE_WORKERS`` (default 8)."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return fallback
    try:
        value = int(raw)
    except ValueError:
        return fallback
    return max(1, value)


#: dotted registry names mirroring each :class:`ServiceStats` field
#: (``batches``/``batched_commits``/``max_batch`` live under ``service.commit``
#: alongside the batch-size histogram; the admission-decided check counters
#: live under ``service.admission`` next to the controller's own counters)
_SERVICE_METRICS = {
    "submitted": "service.submitted",
    "committed": "service.committed",
    "read_only_commits": "service.read_only_commits",
    "conflicts": "service.conflicts",
    "retries": "service.retries",
    "serial_fallbacks": "service.serial_fallbacks",
    "rejected": "service.rejected",
    "aborted": "service.aborted",
    "batches": "service.commit.batches",
    "batched_commits": "service.commit.batched_commits",
    "static_skips": "service.admission.static_skips",
    "guard_checks": "service.admission.guard_checks",
    "runtime_checks": "service.admission.runtime_checks",
    "transient_retries": "service.transient_retries",
    "commit_failures": "service.commit_failures",
}

#: group-commit amortisation is the interesting distribution — count buckets
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class ServiceStats:
    """Thread-safe counters describing the service's life so far."""

    _FIELDS = (
        "submitted", "committed", "read_only_commits", "conflicts", "retries",
        "serial_fallbacks", "rejected", "aborted", "batches", "batched_commits",
        "max_batch", "static_skips", "guard_checks", "runtime_checks",
        "transient_retries", "commit_failures",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for name in self._FIELDS:
            setattr(self, name, 0)
        registry = _metrics.get_registry()
        self._instruments = {
            field: registry.counter(name) for field, name in _SERVICE_METRICS.items()
        }
        self._m_max_batch = registry.gauge("service.commit.max_batch")
        self._m_batch_size = registry.histogram(
            "service.commit.batch_size", buckets=_BATCH_SIZE_BUCKETS
        )

    def add(self, **deltas: int) -> None:
        with self._lock:
            for name, amount in deltas.items():
                setattr(self, name, getattr(self, name) + amount)
        for name, amount in deltas.items():
            instrument = self._instruments.get(name)
            if instrument is not None:
                instrument.inc(amount)

    def saw_batch(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_commits += size
            if size > self.max_batch:
                self.max_batch = size
        self._instruments["batches"].inc()
        self._instruments["batched_commits"].inc(size)
        self._m_max_batch.set(self.max_batch)
        self._m_batch_size.observe(size)

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return {name: getattr(self, name) for name in self._FIELDS}

    def __repr__(self) -> str:
        return f"ServiceStats({self.as_dict()!r})"


@dataclass(frozen=True)
class TxnOutcome:
    """What happened to one submitted transaction.

    ``status`` is ``"committed"`` (its delta is durable at ``version``),
    ``"rejected"`` (an admission guard refused it before execution effects —
    the no-rollback path), or ``"aborted"`` (a runtime constraint check on
    the post-state failed, or the commit path itself failed).  Conflicts
    never surface here: they are retried internally and only show up in
    ``attempts`` and the service stats.  ``retryable`` marks an abort caused
    by a *transient* commit-path failure (storage refusal, I/O error): the
    transaction itself is fine and a later resubmission may succeed — the
    service already spent its own ``commit_retries`` budget before giving
    this back.
    """

    status: str
    reason: str = ""
    version: int = -1
    attempts: int = 1
    retryable: bool = False

    @property
    def committed(self) -> bool:
        return self.status == "committed"


class _CommitRequest:
    __slots__ = (
        "handle", "delta", "template", "params", "work", "serial", "tag",
        "done", "status", "reason", "version", "retryable", "post_state",
    )

    def __init__(self, handle, delta, template, params, work, serial, tag=None):
        self.handle = handle
        self.delta = delta
        self.template = template
        self.params = params
        self.work = work
        self.serial = serial
        self.tag = tag
        self.done = threading.Event()
        self.status = "pending"
        self.reason = ""
        self.version = -1
        self.retryable = False
        #: the post-state a runtime constraint check built, reused as the
        #: leader's next running state instead of folding the delta again
        self.post_state: Optional[Database] = None


class TransactionService:
    """A multi-client, MVCC + group-commit transaction processor over a store.

    ``store`` may be a :class:`Store` or a plain :class:`Database` (wrapped).
    ``constraints`` are maintained across every commit; *how* each commit
    pays for them is decided by the admission controller — register
    transaction templates with :meth:`register` to unlock the static and
    guarded fast paths.  Commits bypass the store's own checker hooks
    (``commit_unchecked``) because admission already decided the checking.
    """

    def __init__(
        self,
        store: Union[Store, Database],
        constraints: Sequence[Constraint] = (),
        signature: Signature = EMPTY_SIGNATURE,
        admission: Optional[AdmissionController] = None,
        max_retries: int = 8,
        commit_timeout: float = 60.0,
        commit_retries: Optional[int] = None,
        backend: Optional[Backend] = None,
        history_limit: int = 1024,
        owns_backend: bool = False,
        owns_store: bool = False,
    ):
        self.backend = backend if backend is not None else active_backend()
        self._owns_backend = owns_backend and backend is not None
        self._owns_store = owns_store
        if isinstance(store, Database):
            # under a sharded backend the canonical store materialises
            # hash-partitioned snapshots: every pinned version is a
            # ShardedDatabase, and the group-commit batch delta splits into
            # one composed sub-delta per shard when it is applied
            store = Store(
                store.schema,
                store,
                shards=getattr(self.backend, "num_shards", None),
            )
            # the service built this store, so the service must close it —
            # with REPRO_DURABLE=on it holds WAL file handles
            self._owns_store = True
        self.store = store
        self.constraints = list(constraints)
        self.signature = signature
        self.admission = admission if admission is not None else AdmissionController(
            self.constraints, signature
        )
        self.snapshots = SnapshotManager(store, history_limit=history_limit)
        self.max_retries = max_retries
        self.commit_timeout = commit_timeout
        self.commit_retries = (
            default_commit_retries() if commit_retries is None
            else max(0, commit_retries)
        )
        self.stats = ServiceStats()
        self._queue_lock = threading.Lock()
        self._queue: List[_CommitRequest] = []
        self._commit_lock = threading.Lock()
        #: followers block here instead of polling: a leader notifies after
        #: releasing the commit lock, which is also (because outcomes are
        #: published before the release) the moment every request it drained
        #: has its ``done`` event set — so one notify wakes both "my commit
        #: finished" and "the leader seat is free" waiters
        self._commit_cond = threading.Condition()
        #: tags of committed *writer* transactions, in commit order — the
        #: serial history every committed run is equivalent to (appended under
        #: the commit lock; read-only commits never enter the pipeline and
        #: serialize at their snapshot point instead)
        self.commit_log: List[object] = []

    def close(self) -> None:
        """Release service-owned resources.

        When the service was built with ``owns_backend=True`` (as
        :func:`~repro.service.workloads.build_service` does for dedicated
        sharded/process backends) this shuts down the backend's worker
        pool; a shared/ambient backend is left untouched.  A store the
        service created itself (one passed as a plain :class:`Database`, or
        ``owns_store=True``) is closed too, releasing the storage engine's
        file handles under ``REPRO_DURABLE=on``.  Idempotent.
        """
        if self._owns_backend:
            self._owns_backend = False
            closer = getattr(self.backend, "close", None)
            if closer is not None:
                closer()
        if self._owns_store:
            self._owns_store = False
            self.store.close()

    # -- registration and reads ----------------------------------------------------

    def register(self, template: TransactionTemplate):
        """Classify a transaction template once; returns its verdicts."""
        return self.admission.register(template)

    def begin(self) -> SnapshotTransaction:
        """A fresh tracked handle pinned to the committed head (for ad-hoc use)."""
        return self.snapshots.begin(self.signature, self.backend)

    def snapshot(self) -> Database:
        """The current committed state (never sees in-flight transactions)."""
        return self.store.committed_snapshot()

    def invariant_holds(self) -> bool:
        """Do all constraints hold on the committed state?"""
        state = self.snapshot()
        return all(c.holds(state, self.signature) for c in self.constraints)

    # -- the client entry point ------------------------------------------------------

    def execute(
        self,
        work: Work,
        template: Optional[str] = None,
        params: Tuple = (),
        tag: Optional[object] = None,
        deadline: Optional[float] = None,
    ) -> TxnOutcome:
        """Run one client transaction to a final outcome (thread-safe).

        ``work`` is either a callable taking a :class:`SnapshotTransaction`
        (the tracked API — precise conflict detection) or a paper-style
        :class:`Transaction` (opaque reads — validated conservatively).
        ``template``/``params`` name a registered admission template; without
        them every constraint is checked at runtime.

        Conflicts are retried internally against fresh snapshots; after
        ``max_retries`` optimistic rounds the transaction is executed by the
        group-commit leader inside the critical section, so this method
        always terminates with a definitive outcome (or raises
        :class:`ServiceError` on timeout).  Transient commit-path failures
        (see :func:`classify_commit_error`) are retried up to
        ``commit_retries`` times with exponential backoff before surfacing
        as a ``retryable`` abort.

        ``deadline`` is an absolute ``time.monotonic()`` instant: once it
        passes, conflict/transient retry loops stop and the transaction
        surfaces its current outcome (or a :class:`ServiceError` if it never
        reached a leader).  Callers propagate it down from their own client
        budget; ``None`` keeps the classic commit_timeout-only behavior.
        """
        if isinstance(work, Transaction):
            transaction = work
            if template is None and not params:
                # auto-adopt the transaction's registered verdicts only when
                # they are all static: guarded verdicts need the instance
                # parameters to build their guard, which a bare Transaction
                # does not carry — those run with runtime verification unless
                # the caller passes template/params explicitly
                verdicts = self.admission.verdicts_for(transaction.name)
                if verdicts and all(v.mode == "static" for v in verdicts.values()):
                    template = transaction.name
            work = lambda handle: handle.apply(transaction)  # noqa: E731
        self.stats.add(submitted=1)
        with _trace.span("service.txn", template=template) as txn_span:
            outcome = self._execute_loop(work, template, params, tag, deadline)
            txn_span.annotate(status=outcome.status, attempts=outcome.attempts)
        return outcome

    def _execute_loop(
        self,
        work: Callable[[SnapshotTransaction], object],
        template: Optional[str],
        params: Tuple,
        tag: Optional[object],
        deadline: Optional[float] = None,
    ) -> TxnOutcome:
        attempts = 0
        transient = 0
        while True:
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    "deadline exceeded before the transaction reached an outcome"
                )
            attempts += 1
            serial = attempts - transient > self.max_retries
            if serial:
                self.stats.add(serial_fallbacks=1)
                logger.warning(
                    "serial fallback: transaction (template=%s) still conflicted "
                    "after %d optimistic attempt(s) (max_retries=%d); executing "
                    "inside the group-commit critical section",
                    template, attempts - 1, self.max_retries,
                )
                request = _CommitRequest(
                    None, Delta(), template, params, work, True, tag
                )
            else:
                with _trace.span("service.txn_attempt", attempt=attempts):
                    handle = self.begin()
                    try:
                        work(handle)
                    except TransactionAbortedSignal as exc:
                        self.stats.add(rejected=1)
                        return TxnOutcome("rejected", str(exc), attempts=attempts)
                    delta = handle.delta()
                if delta.is_empty() and not handle.reads.opaque:
                    # a read-only transaction is serializable at its snapshot
                    # point; nothing to validate, nothing to apply
                    self.stats.add(committed=1, read_only_commits=1)
                    return TxnOutcome(
                        "committed", version=handle.version, attempts=attempts
                    )
                request = _CommitRequest(
                    handle, delta, template, params, work, False, tag
                )
            self._submit_and_wait(request, deadline)
            if request.status == "conflict":
                self.stats.add(conflicts=1, retries=1)
                continue
            if (
                request.status == "aborted"
                and request.retryable
                and transient < self.commit_retries
            ):
                # a transient commit-path failure (storage refusal, injected
                # I/O error): the transaction itself is fine — back off and
                # resubmit against a fresh snapshot
                transient += 1
                self.stats.add(transient_retries=1)
                backoff = min(_BACKOFF_BASE * (2 ** (transient - 1)), _BACKOFF_CAP)
                if deadline is not None:
                    backoff = min(backoff, max(0.0, deadline - time.monotonic()))
                logger.warning(
                    "transient commit failure (%s); retry %d/%d after %.0f ms",
                    request.reason, transient, self.commit_retries, backoff * 1e3,
                )
                if backoff > 0:
                    time.sleep(backoff)
                continue
            self.stats.add(**{request.status: 1})
            return TxnOutcome(
                request.status, request.reason, request.version, attempts,
                retryable=request.retryable,
            )

    # -- the group-commit pipeline ---------------------------------------------------

    def _submit_and_wait(
        self, request: _CommitRequest, client_deadline: Optional[float] = None
    ) -> None:
        """Enqueue ``request`` and drive/await the group-commit leader.

        Followers never poll: a thread that loses the leader election blocks
        on ``_commit_cond`` until the leader — after publishing every drained
        outcome and releasing the commit lock — notifies.  The wake-up check
        under the condition's own lock closes the race between a failed
        try-acquire and the leader's notify, so a follower either sees its
        ``done`` already set or is parked before the notify can be issued.
        The ``commit_timeout`` deadline bounds every wait exactly as before
        (``_give_up`` semantics unchanged).
        """
        with self._queue_lock:
            self._queue.append(request)
        deadline = time.monotonic() + self.commit_timeout
        if client_deadline is not None:
            deadline = min(deadline, client_deadline)
        with _trace.span("service.leader_wait", serial=request.serial) as span:
            became_leader = False
            while not request.done.is_set():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._give_up(request)
                    return
                with self._commit_cond:
                    acquired = self._commit_lock.acquire(blocking=False)
                    if not acquired and not request.done.is_set():
                        # blocks until the leader's post-release notify (or
                        # the deadline); re-checks done/leadership on wake
                        self._commit_cond.wait(timeout=remaining)
                if acquired:
                    became_leader = True
                    try:
                        self._drain()
                    finally:
                        with self._commit_cond:
                            self._commit_lock.release()
                            self._commit_cond.notify_all()
                    # our request was either drained by us or re-queued
            span.annotate(leader=became_leader)

    def _give_up(self, request: _CommitRequest) -> None:
        """Abandon a timed-out request without leaving a ghost commit behind.

        If the request is still queued it is withdrawn (no leader will ever
        see it) and the timeout raises.  If a leader already took it, its
        fate is decided — ``_drain`` guarantees ``done`` is eventually set
        even when the leader fails — so wait one more grace period for the
        definitive outcome instead of reporting a failure for a transaction
        that may well have committed.
        """
        with self._queue_lock:
            try:
                self._queue.remove(request)
                withdrawn = True
            except ValueError:
                withdrawn = False
        if withdrawn:
            raise ServiceError(
                f"commit timed out after {self.commit_timeout:.1f}s "
                "(deadlocked or overloaded leader)"
            )
        if not request.done.wait(timeout=self.commit_timeout):
            raise ServiceError(
                f"commit timed out after {2 * self.commit_timeout:.1f}s "
                "with the request already taken by a leader"
            )

    def _drain(self) -> None:
        """Leader body: validate, admit, compose and apply one batch (locked).

        No request may be left hanging: a failure inside one request's
        validation, guard or constraint work is attributed to *that* request
        (an ``aborted`` outcome carrying the error), and the ``finally``
        block marks anything still pending and wakes every waiter even when
        the leader itself blows up mid-batch.
        """
        lag = _faults.delay("service.leader.stall")
        if lag > 0.0:
            time.sleep(lag)
        with self._queue_lock:
            batch = list(self._queue)
            self._queue.clear()
        if not batch:
            return
        try:
            with _trace.span("service.group_commit", requests=len(batch)) as gc_span:
                _version, current = self.store.pin()
                running = current
                batch_delta = Delta()
                survivors: List[_CommitRequest] = []
                for request in batch:
                    with _trace.span(
                        "service.txn_commit",
                        template=request.template,
                        serial=request.serial,
                    ) as req_span:
                        try:
                            effective = self._process(request, running, batch_delta)
                        except Exception as exc:  # noqa: BLE001 - one bad txn must not sink the batch
                            request.status = "aborted"
                            request.reason = f"transaction failed: {exc!r}"
                            req_span.annotate(status="aborted")
                            continue
                        if effective is None:
                            req_span.annotate(status=request.status)
                            continue
                        req_span.annotate(status="committed")
                    survivors.append(request)
                    if not effective.is_empty():
                        running = (
                            request.post_state
                            if request.post_state is not None
                            else running.apply_delta(effective)
                        )
                        batch_delta = batch_delta.then(effective)
                if not batch_delta.is_empty():
                    with _trace.span(
                        "service.apply_delta",
                        rows=len(batch_delta),
                        survivors=len(survivors),
                    ):
                        self.store.begin()
                        try:
                            # `running` is already the batch's post-state,
                            # folded from the head pinned above: handing it
                            # over makes it the new head, so the batch is
                            # folded once, not again by the store
                            self.store.apply_delta(
                                batch_delta, post_state=running, base=current
                            )
                            self.store.commit_unchecked()
                        except Exception as exc:  # noqa: BLE001 - classified below
                            # the storage engine (or the apply itself) refused
                            # the batch: the store rolled nothing committed
                            # back, so every survivor aborts with a *typed*
                            # outcome instead of the leader's raw exception —
                            # the client decides whether to resubmit based on
                            # the retryable classification
                            if self.store.in_transaction:
                                self.store.rollback()
                            retryable = classify_commit_error(exc)
                            self.stats.add(commit_failures=1)
                            logger.warning(
                                "group-commit batch of %d failed at the store "
                                "(%s: %s); aborting batch as %s",
                                len(survivors), type(exc).__name__, exc,
                                "retryable" if retryable else "fatal",
                            )
                            for request in survivors:
                                request.status = "aborted"
                                request.reason = (
                                    f"commit failed ({type(exc).__name__}): {exc}"
                                )
                                request.retryable = retryable
                            gc_span.annotate(committed=0, error=type(exc).__name__)
                            return
                        except BaseException:
                            if self.store.in_transaction:
                                self.store.rollback()
                            raise
                    self.snapshots.record(self.store.version, batch_delta)
                    # the amortization metric: committed writers per store apply
                    # (conflicted/rejected/aborted requests are not part of the
                    # batch the store paid for, and drains that applied nothing
                    # are not batches)
                    self.stats.saw_batch(len(survivors))
                new_version = self.store.version
                gc_span.annotate(committed=len(survivors), version=new_version)
                for request in survivors:
                    request.status = "committed"
                    request.version = new_version
                    if request.tag is not None:
                        self.commit_log.append(request.tag)
        finally:
            for request in batch:
                if request.status == "pending":
                    request.status = "aborted"
                    request.reason = "group-commit leader failed mid-batch"
                request.done.set()

    def _process(
        self, request: _CommitRequest, running: Database, batch_delta: Delta
    ) -> Optional[Delta]:
        """Validate and admission-check one request against the running state.

        Returns the request's effective delta (to fold into the batch) when
        it commits, ``None`` otherwise — with ``request.status`` set to the
        conflict/rejection/abort it suffered.
        """
        lag = _faults.delay("service.validate.delay")
        if lag > 0.0:
            time.sleep(lag)
        if request.serial:
            handle = SnapshotTransaction(
                running, -1, self.signature, self.backend
            )
            try:
                request.work(handle)
            except TransactionAbortedSignal as exc:
                request.status, request.reason = "rejected", str(exc)
                return None
            delta = handle.delta()
        else:
            foreign = self.snapshots.foreign_delta(request.handle.version)
            if foreign is None:
                request.status = "conflict"
                request.reason = "snapshot fell out of the validation window"
                return None
            reason = validate(
                request.handle.reads,
                request.delta,
                foreign.then(batch_delta),
                request.handle.base,
                self.signature,
                self.backend,
            )
            if reason is not None:
                request.status, request.reason = "conflict", reason
                return None
            delta = request.delta

        verdicts = self.admission.verdicts_for(request.template)
        runtime_checks: List[Constraint] = []
        for constraint in self.constraints:
            verdict = verdicts.get(constraint.name) if verdicts else None
            mode = verdict.mode if verdict is not None else "runtime"
            if mode == "static":
                self.stats.add(static_skips=1)
                continue
            if mode == "guarded":
                guard = self.admission.guard_for(
                    request.template, constraint, request.params
                )
                self.stats.add(guard_checks=1)
                ok = (
                    self.backend.evaluate(guard, running, signature=self.signature)
                    if isinstance(guard, Formula)
                    else guard.holds(running)
                )
                if not ok:
                    request.status = "rejected"
                    request.reason = f"guard of {constraint.name!r} failed on the pre-state"
                    return None
                continue
            runtime_checks.append(constraint)

        effective = delta.normalized(running)
        if runtime_checks and not effective.is_empty():
            candidate = running.apply_delta(effective)
            for constraint in runtime_checks:
                self.stats.add(runtime_checks=1)
                if not constraint.holds(candidate, self.signature):
                    request.status = "aborted"
                    request.reason = f"constraint {constraint.name!r} violated"
                    return None
            request.post_state = candidate
        return effective

    # -- observability ---------------------------------------------------------------

    def observability(self) -> Dict[str, object]:
        """One merged snapshot of every stats surface the service touches.

        Combines the service's own counters, the admission controller's
        bookkeeping, the backend's cache statistics, the store's transaction
        and durability counters, the metrics-registry snapshot (empty under
        ``REPRO_METRICS=off``), and the tracer status — the single dict the
        benchmark harness embeds into its result files.
        """
        store_stats = self.store.stats
        with store_stats._lock:
            txn_stats = {
                "committed": store_stats.committed,
                "aborted": store_stats.aborted,
                "rolled_back_writes": store_stats.rolled_back_writes,
                "constraint_checks": store_stats.constraint_checks,
                "precondition_checks": store_stats.precondition_checks,
                "committed_wall_time": store_stats.committed_wall_time,
                "aborted_wall_time": store_stats.aborted_wall_time,
            }
        cache_stats = getattr(self.backend, "cache_stats", None)
        return {
            "service": self.stats.as_dict(),
            "admission": self.admission.stats(),
            "backend": cache_stats() if cache_stats is not None else {},
            "store": {
                "transactions": txn_stats,
                "engine": self.store.storage_stats(),
            },
            "metrics": _metrics.get_registry().snapshot(),
            "trace": {
                "enabled": _trace.trace_enabled(),
                "finished_spans": len(_trace.finished()),
            },
        }

    def __repr__(self) -> str:
        return (
            f"TransactionService(store={self.store!r}, "
            f"constraints={[c.name for c in self.constraints]})"
        )
