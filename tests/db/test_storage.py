"""Tests for the transactional storage engine."""

import pytest

from repro.db import (
    Database,
    Delta,
    GRAPH_SCHEMA,
    MemoryEngine,
    Schema,
    Store,
    StorageError,
    TransactionAborted,
)


@pytest.fixture
def store():
    return Store(GRAPH_SCHEMA, Database.graph([(1, 2), (2, 3)]))


class TestBasics:
    def test_snapshot_matches_initial(self, store):
        assert store.snapshot() == Database.graph([(1, 2), (2, 3)])
        assert store.cardinality("E") == 2

    def test_schema_mismatch_rejected(self):
        other = Database(Schema.of(R=1), {"R": [(1,)]})
        with pytest.raises(StorageError):
            Store(GRAPH_SCHEMA, other)

    def test_writes_require_transaction(self, store):
        with pytest.raises(StorageError):
            store.insert("E", (9, 9))
        with pytest.raises(StorageError):
            store.delete("E", (1, 2))
        with pytest.raises(StorageError):
            store.commit()

    def test_contains_and_scan(self, store):
        assert store.contains("E", (1, 2))
        assert set(store.scan("E")) == {(1, 2), (2, 3)}


class TestReadYourOwnWrites:
    """Reads during an open transaction must see the open write log."""

    def test_scan_and_contains_see_open_writes(self, store):
        store.begin()
        store.insert("E", (3, 4))
        store.delete("E", (1, 2))
        assert store.contains("E", (3, 4))
        assert not store.contains("E", (1, 2))
        assert set(store.scan("E")) == {(2, 3), (3, 4)}
        assert store.cardinality("E") == 2
        store.rollback()
        # after rollback the committed state is untouched
        assert set(store.scan("E")) == {(1, 2), (2, 3)}

    def test_snapshot_is_tentative_inside_transaction(self, store):
        store.begin()
        store.insert("E", (3, 4))
        assert store.snapshot() == Database.graph([(1, 2), (2, 3), (3, 4)])
        store.rollback()
        assert store.snapshot() == Database.graph([(1, 2), (2, 3)])

    def test_committed_snapshot_never_sees_open_log(self, store):
        store.begin()
        store.insert("E", (3, 4))
        assert store.committed_snapshot() == Database.graph([(1, 2), (2, 3)])
        store.commit()
        assert store.committed_snapshot() == Database.graph([(1, 2), (2, 3), (3, 4)])

    def test_reinsert_of_own_delete_folds(self, store):
        store.begin()
        store.delete("E", (1, 2))
        assert not store.contains("E", (1, 2))
        store.insert("E", (1, 2))
        assert store.contains("E", (1, 2))
        store.commit()
        assert store.snapshot() == Database.graph([(1, 2), (2, 3)])


class TestVersionPinning:
    def test_version_advances_per_effective_commit(self, store):
        v0 = store.version
        store.begin(); store.insert("E", (3, 4)); store.commit()
        assert store.version == v0 + 1
        store.begin(); store.commit()          # empty transaction
        assert store.version == v0 + 1
        store.begin(); store.insert("E", (4, 5)); store.rollback()
        assert store.version == v0 + 1

    def test_cancelling_writes_do_not_advance_version(self, store):
        v0 = store.version
        store.begin()
        store.insert("E", (7, 8))
        store.delete("E", (7, 8))   # net effect: nothing
        store.commit()
        assert store.version == v0
        assert store.snapshot() == Database.graph([(1, 2), (2, 3)])

    def test_pin_is_stable_while_writer_progresses(self, store):
        version, snapshot = store.pin()
        store.begin()
        store.insert("E", (9, 9))
        # the pinned snapshot is immutable and pre-transaction
        assert snapshot == Database.graph([(1, 2), (2, 3)])
        assert store.pin()[0] == version
        store.commit()
        new_version, new_snapshot = store.pin()
        assert new_version == version + 1
        assert new_snapshot == Database.graph([(1, 2), (2, 3), (9, 9)])

    def test_pinned_snapshots_chain_provenance(self, store):
        _version, before = store.pin()
        store.begin(); store.insert("E", (5, 6)); store.commit()
        _version, after = store.pin()
        link = after.provenance_step()
        assert link is not None and link[0] is before


class TestTransactions:
    def test_commit_applies_writes(self, store):
        store.begin()
        assert store.insert("E", (3, 4))
        assert store.delete("E", (1, 2))
        store.commit()
        assert store.snapshot() == Database.graph([(2, 3), (3, 4)])
        assert store.stats.committed == 1

    def test_rollback_undoes_everything(self, store):
        before = store.snapshot()
        store.begin()
        store.insert("E", (3, 4))
        store.insert("E", (4, 5))
        store.delete("E", (1, 2))
        undone = store.rollback()
        assert undone == 3
        assert store.snapshot() == before
        assert store.stats.aborted == 1

    def test_noop_writes_not_logged(self, store):
        store.begin()
        assert not store.insert("E", (1, 2))      # already present
        assert not store.delete("E", (9, 9))      # never present
        assert store.rollback() == 0

    def test_nested_begin_rejected(self, store):
        store.begin()
        with pytest.raises(StorageError):
            store.begin()
        store.rollback()

    def test_apply_database(self, store):
        target = Database.graph([(7, 8)])
        store.begin()
        store.apply_database(target)
        store.commit()
        assert store.snapshot() == target

    def test_post_state_folded_from_the_head_becomes_the_head(self, store):
        _version, head = store.pin()
        delta = Delta(inserted={"E": {(3, 4)}}, deleted={"E": {(1, 2)}})
        post = head.apply_delta(delta)
        store.begin()
        store.apply_delta(delta, post_state=post, base=head)
        store.commit_unchecked()
        assert store.committed_snapshot() is post
        assert store.committed_snapshot() == Database(GRAPH_SCHEMA, {"E": store.scan("E")})

    def test_post_state_from_another_base_is_refused(self, store):
        # same sizes as the true post-state, different rows: only an exact
        # provenance check can tell them apart
        _version, head = store.pin()
        stale = Database.graph([(1, 2), (5, 6)])
        delta = Delta(inserted={"E": {(3, 4)}}, deleted={"E": {(1, 2)}})
        store.begin()
        with pytest.raises(StorageError):
            store.apply_delta(delta, post_state=stale.apply_delta(delta), base=stale)
        assert store.snapshot() is head  # nothing was written
        store.insert("E", (7, 7))
        with pytest.raises(StorageError):  # the log is no longer empty
            store.apply_delta(delta, post_state=head.apply_delta(delta), base=head)
        store.rollback()

    def test_commit_unchecked_skips_checkers(self, store):
        store.register_checker("never", lambda db: False)
        store.begin()
        store.insert("E", (9, 9))
        store.commit_unchecked()
        assert store.contains("E", (9, 9))


class TestIntegrityCheckers:
    def test_checker_accepts(self, store):
        store.register_checker("at-most-5", lambda db: db.cardinality("E") <= 5)
        store.begin()
        store.insert("E", (3, 4))
        store.commit()
        assert store.cardinality("E") == 3

    def test_checker_rejects_and_rolls_back(self, store):
        store.register_checker("at-most-2", lambda db: db.cardinality("E") <= 2)
        store.begin()
        store.insert("E", (3, 4))
        with pytest.raises(TransactionAborted):
            store.commit()
        assert store.cardinality("E") == 2
        assert store.stats.aborted == 1
        assert not store.in_transaction

    def test_run_helper_commits(self, store):
        ok = store.run(lambda s: s.insert("E", (5, 6)))
        assert ok
        assert store.contains("E", (5, 6))

    def test_run_helper_rolls_back_on_violation(self, store):
        store.register_checker("no-loops", lambda db: all(x != y for x, y in db.relation("E")))
        ok = store.run(lambda s: s.insert("E", (7, 7)))
        assert not ok
        assert not store.contains("E", (7, 7))

    def test_run_helper_propagates_unexpected_errors(self, store):
        def body(s):
            raise ValueError("boom")

        with pytest.raises(ValueError):
            store.run(body)
        assert not store.in_transaction

    def test_checker_names(self, store):
        store.register_checker("a", lambda db: True)
        store.register_checker("b", lambda db: True)
        assert store.checker_names == ("a", "b")
        store.clear_checkers()
        assert store.checker_names == ()


class TestLifecycle:
    """close() and the context-manager protocol over the storage engine."""

    def test_default_engine_follows_environment(self, store):
        import os

        durable = os.environ.get("REPRO_DURABLE", "").strip().lower()
        expected = "wal" if durable in ("on", "1", "true", "yes") else "memory"
        assert store.engine.name == expected
        assert store.storage_stats()["engine"] == expected

    def test_close_is_idempotent_and_blocks_new_transactions(self, store):
        store.close()
        assert store.closed
        store.close()                      # second close is a no-op
        with pytest.raises(StorageError):
            store.begin()

    def test_closed_store_still_serves_reads(self, store):
        store.close()
        assert store.contains("E", (1, 2))
        assert set(store.scan("E")) == {(1, 2), (2, 3)}
        assert store.snapshot() == Database.graph([(1, 2), (2, 3)])

    def test_close_rolls_back_open_transaction(self, store):
        store.begin()
        store.insert("E", (9, 9))
        store.close()
        assert not store.in_transaction
        assert not store.contains("E", (9, 9))
        assert store.stats.aborted == 1

    def test_context_manager_closes(self):
        with Store(GRAPH_SCHEMA, Database.graph([(1, 2)])) as store:
            assert not store.closed
        assert store.closed

    def test_context_manager_closes_on_error(self):
        with pytest.raises(ValueError):
            with Store(GRAPH_SCHEMA) as store:
                raise ValueError("boom")
        assert store.closed

    def test_engine_sees_each_effective_commit_batch(self):
        engine = MemoryEngine()
        store = Store(GRAPH_SCHEMA, engine=engine)
        store.begin(); store.insert("E", (1, 2)); store.commit()
        store.begin(); store.commit()                      # empty: no batch
        store.begin(); store.insert("E", (3, 4)); store.rollback()
        store.begin(); store.insert("E", (5, 6)); store.commit_unchecked()
        assert engine.stats()["batches"] == 2
        store.close()

    def test_memory_engine_stats_surface_is_uniform(self):
        store = Store(GRAPH_SCHEMA, engine=MemoryEngine())
        stats = store.storage_stats()
        for key in ("wal_appends", "fsyncs", "checkpoints", "recovered_batches"):
            assert stats[key] == 0
        store.close()


class TestCommittedHead:
    """The lock-free ``(version, snapshot)`` head under concurrent pins.

    One writer thread runs a seeded stream mixing every way a transaction
    can end — ``commit`` (accepted and refused by a checker),
    ``commit_unchecked``, ``apply_database`` with and without a provenance
    chain, ``rollback`` and writes that cancel out — while reader threads
    pin the head.  Every pin must be the state after exactly ``version``
    commits, and after each commit the head must equal the state rebuilt
    from ``scan()``.
    """

    READERS = 3

    def _run_stream(self, store, seed, steps=120):
        import random
        import threading
        import time

        rng = random.Random(seed)
        model = set(store.committed_snapshot().relation("E"))
        history = {store.version: frozenset(model)}
        pins = []
        done = threading.Event()

        def reader():
            while not done.is_set():
                pins.append(store.pin())
                time.sleep(0.0002)  # yield the GIL to the writer

        def edges(count):
            return [(rng.randrange(12), rng.randrange(12)) for _ in range(count)]

        def write(rows_in, rows_out):
            # the model follows the store's RYOW semantics write by write
            wanted = set(model)
            for row in rows_out:
                store.delete("E", row)
                wanted.discard(row)
            for row in rows_in:
                store.insert("E", row)
                wanted.add(row)
            return wanted

        store.register_checker("no-loops", lambda db: all(a != b for a, b in db.edges))
        readers = [threading.Thread(target=reader) for _ in range(self.READERS)]
        for thread in readers:
            thread.start()
        try:
            for _ in range(steps):
                kind = rng.choice(
                    ["commit", "unchecked", "provenance", "diff", "rollback", "cancel"]
                )
                present = sorted(model)
                doomed = rng.sample(present, min(len(present), rng.randrange(3)))
                if kind == "provenance":
                    state = store.committed_snapshot()
                    target = state
                    for row in edges(2):
                        target = target.insert("E", row)
                    for row in doomed:
                        target = target.delete("E", row)
                    store.begin()
                    store.apply_database(target)
                    store.commit_unchecked()
                    wanted = set(target.relation("E"))
                elif kind == "diff":
                    target = Database.graph(
                        [row for row in edges(6) if row[0] != row[1]]
                    )
                    store.begin()
                    store.apply_database(target)
                    store.commit()
                    wanted = set(target.relation("E"))
                elif kind == "cancel":
                    row = (20 + rng.randrange(5), 30)
                    store.begin()
                    store.insert("E", row)
                    store.delete("E", row)
                    store.commit_unchecked()
                    wanted = set(model)
                else:
                    store.begin()
                    wanted = write(edges(rng.randrange(1, 4)), doomed)
                    if kind == "rollback":
                        store.rollback()
                        wanted = set(model)
                    elif kind == "unchecked":
                        store.commit_unchecked()
                    else:
                        try:
                            store.commit()
                        except TransactionAborted:
                            assert any(a == b for a, b in wanted)
                            wanted = set(model)
                before = max(history)
                if wanted != model:
                    assert store.version == before + 1, kind
                else:
                    assert store.version == before, kind
                model = wanted
                history[store.version] = frozenset(model)
                time.sleep(0.0002)  # let the readers pin this head
                rebuilt = Database(GRAPH_SCHEMA, {"E": store.scan("E")})
                assert store.committed_snapshot() == rebuilt
                assert store.committed_snapshot().relation("E") == model
        finally:
            done.set()
            for thread in readers:
                thread.join()
        assert len(history) > steps // 4  # the stream really advanced the head
        assert len({version for version, _ in pins}) > 1  # pins interleaved
        for version, snapshot in pins:
            assert snapshot.relation("E") == history[version], version
        return model

    def test_pins_match_the_state_after_exactly_version_commits(self):
        store = Store(GRAPH_SCHEMA, Database.graph([(1, 2), (2, 3)]))
        self._run_stream(store, seed=3)

    def test_recovered_store_keeps_the_head_consistent(self, tmp_path):
        from repro.db import WalStorageEngine

        engine = WalStorageEngine(str(tmp_path), checkpoint_interval=7)
        with Store(GRAPH_SCHEMA, Database.graph([(1, 2)]), engine=engine) as store:
            model = self._run_stream(store, seed=5)
            version = store.version
        engine = WalStorageEngine(str(tmp_path), checkpoint_interval=7)
        with Store(GRAPH_SCHEMA, engine=engine) as reborn:
            assert reborn.pin()[0] == version
            assert reborn.committed_snapshot().relation("E") == model
            assert reborn.committed_snapshot() == Database(
                GRAPH_SCHEMA, {"E": reborn.scan("E")}
            )
            self._run_stream(reborn, seed=6)
