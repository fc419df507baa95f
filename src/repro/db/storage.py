"""A small transactional storage engine.

The paper's motivation is integrity maintenance: a database system executes
transactions and must keep a set of integrity constraints true, either by

* **run-time monitoring** — execute the transaction, check the constraints on
  the new state, and roll back if any is violated (potentially expensive), or
* **static verification** — evaluate a weakest precondition on the *current*
  state and refuse to run the transaction when the precondition fails
  (``if wpc(T, alpha) then T else abort``).

This module provides the substrate both strategies run on: an in-memory,
multi-relation store with snapshots, explicit transactions (begin / commit /
rollback), write logging, and pluggable integrity-checking hooks.  The
integrity-maintenance engine in :mod:`repro.core.maintenance` builds the two
strategies on top of it and the E13 benchmark compares them; the concurrent
transaction service in :mod:`repro.service` uses it as the canonical tail of
its MVCC version chain.

**Isolation semantics.**  Writes inside an open transaction are *buffered* in
the write log, not applied to the committed state; the committed state only
changes at commit time.  All reads issued through the store — :meth:`Store.scan`,
:meth:`Store.contains`, :meth:`Store.cardinality` and :meth:`Store.snapshot`
— are **read-your-own-writes**: during an open transaction they overlay the
pending write log on the committed state, so a transaction always sees its own
effects.  :meth:`Store.committed_snapshot` and :meth:`Store.pin` are the
exceptions by design: they expose the last *committed* state (never the open
log), which is what concurrent snapshot readers must see while a writer is
mid-transaction.

The store intentionally keeps the same data model as
:class:`~repro.db.database.Database` (sets of tuples per relation) so that a
snapshot can be handed to the logic evaluator or to a transaction object
without conversion cost beyond freezing the sets.  All public methods take an
internal re-entrant lock, so one store may be shared by a committing writer
and any number of snapshot readers; the single-writer discipline (one open
transaction at a time) is unchanged.  The committed state itself is published
as one immutable ``(version, snapshot)`` **head**, replaced in a single
assignment once the storage engine has accepted a commit: :meth:`Store.pin`,
:attr:`Store.version` and :meth:`Store.committed_snapshot` read the head
without the lock, so they never wait behind a commit's WAL append or fsync.

**Layering.**  Persistence lives *below* the store, behind the pluggable
:class:`~repro.db.engines.StorageEngine` interface: the write log, the RYOW
overlay and the integrity checkers stay up here, while every committed batch
is offered to the engine — as one :class:`~repro.db.delta.Delta` — before the
in-memory state mutates.  The default :class:`~repro.db.engines.MemoryEngine`
keeps the historical everything-in-RAM behavior; the durable
:class:`~repro.db.wal.WalStorageEngine` (``Store(..., engine=...)`` or
``REPRO_DURABLE=on``) appends each batch to a CRC-guarded write-ahead log,
checkpoints periodically, and lets a new store recover the committed state
after a crash (see :mod:`repro.db.wal` and ``docs/durability.md``).  Stores
with durable engines hold file handles: close them (:meth:`Store.close`, or
use the store as a context manager) when done.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .database import Database
from .delta import Delta
from .engines import MemoryEngine, StorageEngine, StorageEngineError, engine_from_env
from .schema import Schema
from .sharding import ShardedDatabase

logger = logging.getLogger(__name__)

__all__ = [
    "StorageError",
    "TransactionAborted",
    "WriteOp",
    "TransactionStats",
    "Store",
]

Row = Tuple[object, ...]


class StorageError(RuntimeError):
    """Raised on misuse of the storage engine (no open transaction, etc.)."""


class TransactionAborted(RuntimeError):
    """Raised when a transaction is aborted (explicitly or by an integrity check)."""


@dataclass(frozen=True)
class WriteOp:
    """A single logged write: an insert or delete of one tuple."""

    kind: str  # "insert" | "delete"
    relation: str
    row: Row

    def inverse(self) -> "WriteOp":
        """The operation that undoes this one."""
        return WriteOp("delete" if self.kind == "insert" else "insert",
                       self.relation, self.row)


@dataclass
class TransactionStats:
    """Bookkeeping about committed / aborted transactions, used by benchmarks.

    Counters are updated through :meth:`add`, which takes an internal lock, so
    the stats object can be shared by the service's worker threads; reading
    the individual fields is a plain attribute access (a single aligned read).
    """

    committed: int = 0
    aborted: int = 0
    rolled_back_writes: int = 0
    constraint_checks: int = 0
    precondition_checks: int = 0
    # wall time split by outcome: an aborted transaction's time used to be
    # folded into the same counter as committed time, which silently inflated
    # per-commit latency figures — the legacy ``wall_time`` view below sums
    # both for readers that want the old total
    committed_wall_time: float = 0.0
    aborted_wall_time: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(self, **deltas: float) -> None:
        """Atomically add ``deltas`` to the named counters."""
        with self._lock:
            for name, amount in deltas.items():
                setattr(self, name, getattr(self, name) + amount)
        registry = _metrics.get_registry()
        for name, amount in deltas.items():
            registry.counter(f"store.{name}").inc(amount)

    @property
    def wall_time(self) -> float:
        """Total transaction wall time, committed and aborted combined."""
        with self._lock:
            return self.committed_wall_time + self.aborted_wall_time

    def reset(self) -> None:
        with self._lock:
            self.committed = 0
            self.aborted = 0
            self.rolled_back_writes = 0
            self.constraint_checks = 0
            self.precondition_checks = 0
            self.committed_wall_time = 0.0
            self.aborted_wall_time = 0.0


class Store:
    """An in-memory transactional store over a fixed schema.

    Outside a transaction, reads are allowed but writes raise
    :class:`StorageError`.  Inside a transaction, writes are buffered in the
    write log and overlaid on every read (read-your-own-writes); ``rollback``
    simply discards the log, and ``commit`` folds it into the committed state
    after running all registered integrity checkers against the tentative
    state (raising :class:`TransactionAborted` if any of them rejects it).

    Each commit that changes the store advances :attr:`version`;
    :meth:`pin` atomically returns ``(version, committed snapshot)``, the
    anchor the MVCC service hands to concurrently running transactions.
    """

    def __init__(
        self,
        schema: Schema,
        initial: Optional[Database] = None,
        *,
        shards: Optional[int] = None,
        engine: Optional[StorageEngine] = None,
    ):
        self._lock = threading.RLock()
        self._schema = schema
        # the persistence layer: every committed batch is offered to the
        # engine before the in-memory state moves (see _commit_pending);
        # `engine=None` defers to REPRO_DURABLE/REPRO_WAL_DIR, whose default
        # is the in-memory engine — the historical behavior
        self._engine = engine if engine is not None else engine_from_env()
        self._closed = False
        if initial is not None and initial.schema != schema:
            raise StorageError("initial database has a different schema")
        recovered = self._engine.recover(schema)
        if recovered is not None:
            # a durable past beats `initial`: the engine's state is what the
            # last process acked to its clients (the Database constructor's
            # row validation is the last line of defense against a
            # tampered/foreign log directory)
            relations = {
                name: recovered.relations.get(name, ())
                for name in schema.relation_names
            }
            state = Database(schema, relations)
            version = recovered.version
        else:
            version = 0
            state = initial if initial is not None else Database(schema)
            if initial is not None:
                # persist the starting state: the log alone cannot
                # reconstruct rows it never saw
                self._engine.bootstrap(self._frozen_relations(initial), version)
        # `shards`: snapshots come out as ShardedDatabase (hash-partitioned),
        # and since apply_delta preserves shardedness, the whole MVCC version
        # chain stays sharded — the group-commit batch delta is split per
        # shard on application
        if shards is not None and not isinstance(state, ShardedDatabase):
            state = ShardedDatabase.from_database(state, shards)
        # the committed head: the version and its immutable state, replaced
        # by one assignment per commit (after the engine accepted the batch)
        # and read without the lock — every later snapshot is an apply_delta
        # descendant of this one, the provenance chain the incremental
        # query engine consumes
        self._head: Tuple[int, Database] = (version, state)
        self._log: Optional[List[WriteOp]] = None
        # net overlay of the open log, per relation (kept in sync with _log
        # so reads and effectiveness checks are O(1) per row)
        self._pending_add: Dict[str, Set[Row]] = {}
        self._pending_del: Dict[str, Set[Row]] = {}
        # tentative (committed + pending) snapshot, cached by log length
        self._tentative: Optional[Tuple[int, Database]] = None
        self._checkers: List[Tuple[str, Callable[[Database], bool]]] = []
        self.stats = TransactionStats()

    # -- lifecycle ---------------------------------------------------------------

    @property
    def engine(self) -> StorageEngine:
        """The storage engine persisting this store's commits."""
        return self._engine

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def storage_stats(self) -> Dict[str, object]:
        """The engine's durability counters (wal_appends, fsyncs, checkpoints,
        recovered_batches, ...), surfaced alongside :attr:`stats`."""
        with self._lock:
            return self._engine.stats()

    def close(self) -> None:
        """Release the storage engine (file handles, temp directories).

        An open transaction is rolled back — its writes were never acked.
        Idempotent; a closed store still serves reads (the committed state
        stays in memory) but refuses new transactions.
        """
        with self._lock:
            if self._closed:
                return
            if self._log is not None:
                self.rollback()
            self._closed = True
            self._engine.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- schema and snapshots ----------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def version(self) -> int:
        """A counter advanced by every commit that changed the store (lock-free)."""
        return self._head[0]

    def committed_snapshot(self) -> Database:
        """The last *committed* state as an immutable :class:`Database`.

        Never includes the open transaction's write log — this is the view a
        concurrent snapshot reader is allowed to see while a writer is
        mid-transaction.  O(1) and lock-free: the commit that produced the
        state built it.
        """
        return self._head[1]

    def pin(self) -> Tuple[int, Database]:
        """Atomically, the current ``(version, committed snapshot)`` pair.

        This is the MVCC anchor: the returned database is immutable, so the
        caller can evaluate against it for as long as it likes while other
        threads commit; ``version`` tells the service which later deltas are
        *foreign* to the pinned view.  Lock-free — a pin taken while a commit
        waits on its fsync sees the previous head.
        """
        return self._head

    def snapshot(self) -> Database:
        """An immutable :class:`Database` view of the current state.

        **Read-your-own-writes**: during an open transaction this is the
        *tentative* state — the committed snapshot patched with the open
        write log (as a :class:`Delta`, so it provenance-chains off the
        committed state and incremental constraint evaluation stays O(log)).
        Outside a transaction it is simply the committed snapshot.
        """
        with self._lock:
            committed = self._head[1]
            if not self._log:  # no transaction open, or nothing written yet
                return committed
            if self._tentative is not None and self._tentative[0] == len(self._log):
                return self._tentative[1]
            tentative = committed.apply_delta(self._pending_delta())
            self._tentative = (len(self._log), tentative)
            return tentative

    def cardinality(self, relation: Optional[str] = None) -> int:
        """Row count, read-your-own-writes (sees the open write log)."""
        with self._lock:
            if relation is not None:
                return len(self._effective_rows(relation))
            return sum(
                len(self._effective_rows(name)) for name in self._schema.relation_names
            )

    def contains(self, relation: str, row: Sequence[object]) -> bool:
        """Is ``row`` present, read-your-own-writes?

        During an open transaction the pending write log is consulted first:
        a row inserted by the transaction is visible, a row it deleted is
        not, regardless of the committed state.
        """
        with self._lock:
            validated = self._schema[relation].validate_tuple(row)
            if self._log is not None:
                if validated in self._pending_add.get(relation, ()):
                    return True
                if validated in self._pending_del.get(relation, ()):
                    return False
            return validated in self._head[1].relation(relation)

    def scan(self, relation: str) -> Iterable[Row]:
        """Iterate over the rows of ``relation`` (a stable copy).

        Read-your-own-writes: rows inserted by the open transaction are
        included, rows it deleted are excluded.
        """
        with self._lock:
            return list(self._effective_rows(relation))

    def _effective_rows(self, relation: str) -> FrozenSet[Row]:
        """Committed rows overlaid with the open write log (internal, locked)."""
        rows = self._head[1].relation(relation)
        if self._log is None:
            return rows
        added = self._pending_add.get(relation)
        removed = self._pending_del.get(relation)
        if not added and not removed:
            return rows
        return (rows - (removed or set())) | (added or set())

    # -- integrity checkers --------------------------------------------------------

    def register_checker(self, name: str, checker: Callable[[Database], bool]) -> None:
        """Register an integrity checker run at commit time.

        ``checker`` receives the tentative post-state as a :class:`Database`
        and must return ``True`` to accept it.
        """
        with self._lock:
            self._checkers.append((name, checker))

    def clear_checkers(self) -> None:
        with self._lock:
            self._checkers.clear()

    @property
    def checker_names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(name for name, _fn in self._checkers)

    # -- transactions ----------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        with self._lock:
            return self._log is not None

    def begin(self) -> None:
        with self._lock:
            if self._closed:
                raise StorageError("the store is closed")
            if self._log is not None:
                raise StorageError("a transaction is already open")
            self._log = []
            self._pending_add = {}
            self._pending_del = {}
            self._tentative = None

    def insert(self, relation: str, row: Sequence[object]) -> bool:
        """Insert ``row``; returns ``True`` if the (effective) store changed."""
        with self._lock:
            log = self._require_transaction()
            validated = self._schema[relation].validate_tuple(row)
            removed = self._pending_del.get(relation)
            if removed is not None and validated in removed:
                removed.discard(validated)  # re-insert of a row this txn deleted
            elif (
                validated in self._pending_add.get(relation, ())
                or validated in self._head[1].relation(relation)
            ):
                return False  # already present (not deleted, as checked above)
            else:
                self._pending_add.setdefault(relation, set()).add(validated)
            log.append(WriteOp("insert", relation, validated))
            return True

    def delete(self, relation: str, row: Sequence[object]) -> bool:
        """Delete ``row``; returns ``True`` if the (effective) store changed."""
        with self._lock:
            log = self._require_transaction()
            validated = self._schema[relation].validate_tuple(row)
            added = self._pending_add.get(relation)
            if added is not None and validated in added:
                added.discard(validated)  # delete of a row this txn inserted
            elif (
                validated in self._pending_del.get(relation, ())
                or validated not in self._head[1].relation(relation)
            ):
                return False  # already absent (not inserted, as checked above)
            else:
                self._pending_del.setdefault(relation, set()).add(validated)
            log.append(WriteOp("delete", relation, validated))
            return True

    def apply_delta(
        self,
        delta: Delta,
        post_state: Optional[Database] = None,
        base: Optional[Database] = None,
    ) -> int:
        """Inside a transaction, apply ``delta``; returns the writes performed.

        Every write goes through :meth:`insert`/:meth:`delete`, so the write
        log (and therefore rollback) sees the delta tuple by tuple.

        ``post_state`` is the caller's own fold of ``delta`` onto ``base``,
        when it has already built one — the group-commit leader folds each
        batch while validating it.  It must be folded from the committed
        head (``base is`` the pinned snapshot) into a transaction with no
        earlier writes; then it *is* the resulting state and becomes the
        tentative one, so :meth:`snapshot` and the commit reuse it instead
        of building the post-state again.  Any other ``base`` raises
        :class:`StorageError` before anything is written.
        """
        with self._lock:
            log = self._require_transaction()
            if post_state is not None and (base is not self._head[1] or log):
                raise StorageError(
                    "post_state must be folded from the committed head "
                    "into a transaction with no earlier writes"
                )
            changed = 0
            for name, rows in delta.deleted.items():
                for row in rows:
                    changed += self.delete(name, row)
            for name, rows in delta.inserted.items():
                for row in rows:
                    changed += self.insert(name, row)
            if post_state is not None and self._log:
                self._tentative = (len(self._log), post_state)
            return changed

    def apply_database(self, target: Database) -> None:
        """Inside a transaction, make the store equal to ``target``.

        Used to run paper-style transactions (functions on databases) against
        the store while retaining the write log for rollback.  When ``target``
        descends from the committed snapshot via ``apply_delta`` provenance
        (the shape every transaction built from functional updates produces),
        the net delta is replayed directly — O(|delta|) instead of an
        O(database) relation-by-relation diff — and ``target`` itself becomes
        the tentative state, which the commit publishes as the new head.
        """
        with self._lock:
            self._require_transaction()
            if target.schema != self._schema:
                raise StorageError("target database has a different schema")
            if not self._log:
                # effective state == the committed head: a provenance chain
                # from it gives the net update without reading one unchanged row
                head = self._head[1]
                delta = Delta.between(head, target)
                if delta is not None:
                    self.apply_delta(delta, post_state=target, base=head)
                    return
            for name in self._schema.relation_names:
                current = self._effective_rows(name)
                wanted = target.relation(name)
                for row in current - wanted:
                    self.delete(name, row)
                for row in wanted - current:
                    self.insert(name, row)

    def rollback(self) -> int:
        """Discard every write of the open transaction; returns the number undone.

        Writes are buffered, so rollback never touches the committed state —
        it drops the log (the ``never needs a roll-back`` property static
        verification pays for is about *logical* aborts; physically, aborting
        is free either way).
        """
        with self._lock:
            log = self._require_transaction()
            undone = len(log)
            self._discard_pending()
            self.stats.add(rolled_back_writes=undone, aborted=1)
            return undone

    def commit_unchecked(self) -> None:
        """Commit the open transaction without running the integrity checkers.

        Used by maintenance policies that have already established integrity
        by other means (e.g. a weakest-precondition check before execution),
        and by the service's group-commit pipeline, whose admission controller
        decided per transaction how much checking was needed.
        """
        with self._lock:
            self._require_transaction()
            self._commit_pending()
            self.stats.add(committed=1)

    def commit(self) -> None:
        """Run integrity checkers and either commit or roll back."""
        with self._lock:
            self._require_transaction()
            started = time.perf_counter()
            state = self.snapshot()  # tentative: committed + pending writes
            for name, checker in self._checkers:
                self.stats.add(constraint_checks=1)
                if not checker(state):
                    self.rollback()
                    self.stats.add(aborted_wall_time=time.perf_counter() - started)
                    raise TransactionAborted(
                        f"integrity constraint {name!r} violated"
                    )
            self._commit_pending()
            self.stats.add(
                committed=1, committed_wall_time=time.perf_counter() - started
            )

    def run(self, body: Callable[["Store"], None]) -> bool:
        """Run ``body`` inside a transaction; returns ``True`` on commit.

        Any :class:`TransactionAborted` raised by ``body`` or by commit-time
        checking results in a rollback and ``False``.
        """
        self.begin()
        try:
            body(self)
        except TransactionAborted:
            if self.in_transaction:
                self.rollback()
            return False
        except Exception:
            if self.in_transaction:
                self.rollback()
            raise
        try:
            self.commit()
        except TransactionAborted:
            return False
        return True

    # -- internal ------------------------------------------------------------------

    def _commit_pending(self) -> None:
        """Fold the open write log into the committed state (locked).

        With a durable engine this is the **group-commit WAL append unit**:
        the whole batch goes to the engine as one framed delta record (one
        append, at most one fsync) *before* the head moves.  An engine
        refusal raises with the transaction still open and the committed
        state untouched — the commit was never acked.  Only then is the new
        head built (or the tentative state promoted) and published.
        """
        log = self._log
        assert log is not None
        # the *net* overlay decides whether anything changed: a log whose
        # writes cancel out (insert then delete of the same row) must not
        # advance the version — `version` promises one bump per commit that
        # changed the store, and the MVCC validation window keys on it
        changed = any(self._pending_add.values()) or any(self._pending_del.values())
        if changed:
            version, state = self._head
            delta = self._pending_delta()
            with _trace.span("store.commit_batch", version=version + 1, rows=len(delta)):
                self._engine.commit_batch(delta, version + 1)
            if self._tentative is not None and self._tentative[0] == len(log):
                # the tentative state the checkers just saw (or the caller
                # handed over) *is* the new committed state — publish it
                # instead of building the post-state again
                state = self._tentative[1]
            else:
                state = state.apply_delta(delta)
            self._head = (version + 1, state)
        self._discard_pending()
        if changed and self._engine.wants_checkpoint():
            # snapshot checkpoints bound recovery time: the engine persists
            # the full committed state and truncates its log.  The commit
            # itself is already durable (the WAL append above succeeded), so
            # a failed checkpoint must not surface as a failed commit — the
            # log tail still reconstructs this state; recovery just replays
            # more of it
            version, state = self._head
            try:
                self._engine.checkpoint(self._frozen_relations(state), version)
            except StorageEngineError as exc:
                logger.warning(
                    "checkpoint at version %d failed (%s); commit is durable "
                    "via the log, recovery will replay a longer tail",
                    version, exc,
                )
                _metrics.get_registry().counter("storage.checkpoint_errors").inc()

    def _pending_delta(self) -> Delta:
        """The open transaction's net writes as one :class:`Delta` (locked)."""
        return Delta(self._pending_add, self._pending_del)

    def _frozen_relations(self, state: Database) -> Dict[str, FrozenSet[Row]]:
        """``state``'s relations, as the engine's bootstrap/checkpoint take them."""
        return {name: state.relation(name) for name in self._schema.relation_names}

    def _discard_pending(self) -> None:
        self._log = None
        self._pending_add = {}
        self._pending_del = {}
        self._tentative = None

    def _require_transaction(self) -> List[WriteOp]:
        if self._log is None:
            raise StorageError("no open transaction")
        return self._log

    def __repr__(self) -> str:
        with self._lock:
            sizes = {
                name: len(self._effective_rows(name))
                for name in self._schema.relation_names
            }
            return (
                f"Store(schema={self._schema!r}, sizes={sizes}, "
                f"version={self._head[0]}, in_txn={self._log is not None})"
            )
