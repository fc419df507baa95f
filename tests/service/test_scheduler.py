"""The transaction service: outcomes, group commit, retries, fail-fast."""

import threading

import pytest

from repro.db import Database, Delta, GRAPH_SCHEMA, Store
from repro.service import (
    ServiceError,
    TransactionService,
    build_service,
    forward_graph,
    standard_constraints,
)
from repro.service.workloads import NO_LOOPS
from repro.transactions import FOProgram, InsertTuple


@pytest.fixture
def service():
    return build_service(Database.graph([(1, 2), (2, 3)]))


class TestOutcomes:
    def test_simple_commit(self, service):
        outcome = service.execute(
            lambda txn: txn.insert("E", (3, 4)),
            template="link-forward", params=(3, 4),
        )
        assert outcome.committed
        assert service.snapshot().relation("E") == frozenset({(1, 2), (2, 3), (3, 4)})

    @pytest.mark.parametrize(
        "template, params, runtime",
        [("unlink", (1, 2), False), ("link-forward", (3, 4), False),
         (None, (), True)],
        ids=["static", "guarded", "runtime-checked"],
    )
    def test_commit_builds_its_post_state_once(
        self, service, monkeypatch, template, params, runtime
    ):
        # the leader's folded running state becomes the store's head: one
        # Database.apply_delta per committed batch, whatever the admission mode
        folds = []
        original = Database.apply_delta

        def counted(db, delta):
            folds.append(delta)
            return original(db, delta)

        monkeypatch.setattr(Database, "apply_delta", counted)
        row = (1, 2) if template == "unlink" else (3, 4)
        write = "delete" if template == "unlink" else "insert"
        outcome = service.execute(
            lambda txn: getattr(txn, write)("E", row),
            template=template, params=params,
        )
        assert outcome.committed
        assert service.stats.runtime_checks == (len(service.constraints) if runtime else 0)
        head = service.store.committed_snapshot()
        assert (row in head.relation("E")) == (write == "insert")
        assert len(folds) == 1

    def test_read_only_fast_path(self, service):
        before = service.store.version
        outcome = service.execute(lambda txn: txn.contains("E", (1, 2)))
        assert outcome.committed
        assert service.store.version == before  # nothing was applied
        assert service.stats.read_only_commits == 1

    def test_guarded_rejection_never_rolls_back(self, service):
        outcome = service.execute(
            lambda txn: txn.insert("E", (5, 5)),
            template="add-edge", params=(5, 5),
        )
        assert outcome.status == "rejected"
        assert "guard" in outcome.reason
        assert service.store.stats.aborted == 0  # nothing touched the store
        assert service.invariant_holds()

    def test_unregistered_shape_checked_at_runtime(self, service):
        outcome = service.execute(lambda txn: txn.insert("E", (6, 6)))
        assert outcome.status == "aborted"
        assert "constraint" in outcome.reason
        assert service.invariant_holds()
        assert service.stats.runtime_checks > 0

    def test_paper_transaction_commits(self, service):
        program = FOProgram([InsertTuple("E", 7, 8)], name="paper")
        outcome = service.execute(program)
        assert outcome.committed
        assert service.snapshot().relation("E") >= frozenset({(7, 8)})

    def test_transaction_named_like_guarded_template_runs_at_runtime(self, service):
        # "add-edge" is registered with *guarded* verdicts whose guards need
        # the instance parameters; a bare Transaction does not carry them, so
        # it must fall back to runtime verification — and still work
        legal = FOProgram([InsertTuple("E", 5, 6)], name="add-edge")
        outcome = service.execute(legal)
        assert outcome.committed, outcome
        illegal = FOProgram([InsertTuple("E", 6, 6)], name="add-edge")
        outcome = service.execute(illegal)
        assert outcome.status == "aborted"
        assert service.invariant_holds()

    def test_transaction_named_like_static_template_skips_checks(self, service):
        # "unlink" is static for every constraint: the bare Transaction can
        # adopt the verdicts safely (no parameters needed)
        runtime_before = service.stats.runtime_checks
        program = FOProgram([InsertTuple("E", 1, 2)], name="unlink")  # no-op insert
        service.execute(program)
        outcome = service.execute(
            FOProgram([InsertTuple("E", 11, 12)], name="unlink")
        )
        assert outcome.committed
        assert service.stats.runtime_checks == runtime_before

    def test_static_template_skips_all_checks(self, service):
        checks_before = (
            service.stats.guard_checks + service.stats.runtime_checks
        )
        outcome = service.execute(
            lambda txn: txn.delete("E", (1, 2)), template="unlink", params=(1, 2)
        )
        assert outcome.committed
        # "unlink" is static for both constraints: no guard, no runtime check
        assert (
            service.stats.guard_checks + service.stats.runtime_checks
            == checks_before
        )
        assert service.stats.static_skips >= 2


class TestConcurrency:
    def test_disjoint_writers_all_commit(self, service):
        outcomes = []
        lock = threading.Lock()

        def client(index):
            edge = (10 + index, 50 + index)
            outcome = service.execute(
                lambda txn: txn.insert("E", edge),
                template="link-forward", params=edge,
            )
            with lock:
                outcomes.append(outcome)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(o.committed for o in outcomes)
        rows = service.snapshot().relation("E")
        assert all((10 + i, 50 + i) in rows for i in range(8))
        assert service.invariant_holds()

    def test_conflicting_writers_serialize(self, service):
        barrier = threading.Barrier(2)
        outcomes = []
        lock = threading.Lock()

        def client():
            def body(txn):
                # both probe-and-write the same row from the same snapshot
                present = txn.contains("E", (9, 9))
                if not present:
                    txn.insert("E", (4, 9))
                txn.insert("E", (3, 9))

            barrier.wait()
            outcome = service.execute(body)
            with lock:
                outcomes.append(outcome)

        threads = [threading.Thread(target=client) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(o.committed for o in outcomes)
        # one of the two must have retried or been batched behind the other
        assert service.invariant_holds()

    def test_group_commit_batches_one_apply_per_batch(self):
        import time

        service = build_service(forward_graph(50, 2, seed=4), commit_timeout=30.0)
        n = 12
        # hold the commit lock: no leader can emerge, so all n requests pile
        # up in the queue and must be committed by one drain — one store
        # transaction, one version bump, for n client commits
        service._commit_lock.acquire()
        try:
            threads = []
            for index in range(n):
                edge = (100 + index, 200 + index)
                thread = threading.Thread(
                    target=service.execute,
                    args=(lambda txn, e=edge: txn.insert("E", e),),
                    kwargs={"template": "link-forward", "params": edge},
                )
                thread.start()
                threads.append(thread)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                with service._queue_lock:
                    if len(service._queue) == n:
                        break
                time.sleep(0.005)
            with service._queue_lock:
                assert len(service._queue) == n
        finally:
            # followers block on the condition (no polling), so an external
            # unwedge must notify exactly as the leader's release does
            with service._commit_cond:
                service._commit_lock.release()
                service._commit_cond.notify_all()
        for thread in threads:
            thread.join()
        stats = service.stats.as_dict()
        assert stats["committed"] == n
        assert stats["max_batch"] == n
        assert service.store.stats.committed == 1  # one apply_delta for the batch
        assert service.invariant_holds()

    def test_serial_fallback_guarantees_progress(self):
        # force conflicts: every transaction scans E and writes to it, so
        # optimistic validation can never accept two concurrent writers
        service = build_service(
            Database.graph([(1, 2)]), max_retries=1, commit_timeout=30.0
        )
        outcomes = []
        lock = threading.Lock()
        barrier = threading.Barrier(4)

        def client(index):
            def body(txn):
                txn.scan("E")
                txn.insert("E", (30 + index, 80 + index))

            barrier.wait()
            outcome = service.execute(body)
            with lock:
                outcomes.append(outcome)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(o.committed for o in outcomes)
        rows = service.snapshot().relation("E")
        assert all((30 + i, 80 + i) in rows for i in range(4))


class TestFollowerWait:
    def test_followers_block_on_the_condition_not_a_poll(self):
        """Regression for the follower spin-wait: while a leader is inside
        the commit section, a follower must be parked in
        ``_commit_cond.wait`` (zero CPU, woken by the leader's notify), not
        re-polling ``done.wait(0.002)`` in a loop."""
        import time

        service = build_service(forward_graph(30, 2, seed=9), commit_timeout=30.0)
        stall = threading.Event()
        entered = threading.Event()
        original = service._process

        def slow_process(request, running, batch_delta):
            entered.set()
            assert stall.wait(timeout=10.0)
            return original(request, running, batch_delta)

        service._process = slow_process
        outcomes = []

        def client(edge):
            outcomes.append(
                service.execute(
                    lambda txn, e=edge: txn.insert("E", e),
                    template="link-forward", params=edge,
                )
            )

        leader = threading.Thread(target=client, args=((101, 102),))
        leader.start()
        assert entered.wait(timeout=10.0)   # leader is wedged inside _drain
        follower = threading.Thread(target=client, args=((103, 104),))
        follower.start()
        # the follower loses the election and must end up blocked on the
        # condition; with the old 2ms poll no waiter ever parks there
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            with service._commit_cond:
                waiters = len(service._commit_cond._waiters)
            if waiters >= 1:
                break
            time.sleep(0.005)
        assert waiters >= 1, "follower never blocked on the commit condition"
        stall.set()
        leader.join(timeout=10.0)
        follower.join(timeout=10.0)
        assert not leader.is_alive() and not follower.is_alive()
        assert [o.committed for o in outcomes] == [True, True]
        assert service.invariant_holds()
        service.close()

    def test_external_timeout_semantics_survive_the_blocking_wait(self):
        """The deadline still bounds a follower parked on the condition: a
        wedged pipeline surfaces as ServiceError at ~commit_timeout, not a
        hang (the _give_up path is unchanged)."""
        import time

        service = build_service(Database.graph([(1, 2)]), commit_timeout=0.3)
        service._commit_lock.acquire()
        started = time.monotonic()
        try:
            with pytest.raises(ServiceError, match="timed out"):
                service.execute(
                    lambda txn: txn.insert("E", (8, 9)),
                    template="link-forward", params=(8, 9),
                )
        finally:
            with service._commit_cond:
                service._commit_lock.release()
                service._commit_cond.notify_all()
        elapsed = time.monotonic() - started
        assert elapsed < 10.0   # woke at the deadline, not at lock release
        service.close()


def test_forward_graph_saturates_instead_of_hanging():
    # 4 accounts have only 6 distinct forward pairs; asking for 8 must
    # saturate, not spin forever
    db = forward_graph(4, 2)
    assert len(db.relation("E")) == 6


class TestCommitLog:
    def test_commit_order_replay_matches(self, service):
        initial = service.snapshot()
        edges = [(3, 4), (4, 5), (5, 6)]
        for index, edge in enumerate(edges):
            service.execute(
                lambda txn, e=edge: txn.insert("E", e),
                template="link-forward", params=edge, tag=index,
            )
        assert service.commit_log == [0, 1, 2]
        replay = initial
        for index in service.commit_log:
            replay = replay.apply_delta(Delta.insertion("E", edges[index]))
        assert replay == service.snapshot()

    def test_read_only_not_in_commit_log(self, service):
        service.execute(lambda txn: txn.contains("E", (1, 2)), tag="reader")
        assert service.commit_log == []


class TestFailFast:
    def test_failing_constraint_aborts_only_its_transaction(self):
        # a constraint whose evaluation *raises* must sink the offending
        # transaction (aborted, with the error in the reason), not the batch
        # or the service
        from repro.core import Constraint

        class Exploding:
            def holds(self, db):
                raise ValueError("boom")

        service = TransactionService(
            Store(GRAPH_SCHEMA, Database.graph([(1, 2)])),
            [Constraint("exploding", Exploding())],
            commit_timeout=10.0,
        )
        outcome = service.execute(lambda txn: txn.insert("E", (3, 4)))
        assert outcome.status == "aborted"
        assert "boom" in outcome.reason
        # the service remains fully usable afterwards
        follow_up = service.execute(lambda txn: txn.contains("E", (1, 2)))
        assert follow_up.committed

    def test_commit_timeout_raises(self):
        service = build_service(Database.graph([(1, 2)]), commit_timeout=0.2)
        # wedge the pipeline: hold the commit lock so no leader can emerge
        service._commit_lock.acquire()
        try:
            with pytest.raises(ServiceError, match="timed out"):
                service.execute(
                    lambda txn: txn.insert("E", (8, 9)),
                    template="link-forward", params=(8, 9),
                )
        finally:
            with service._commit_cond:
                service._commit_lock.release()
                service._commit_cond.notify_all()

    def test_window_overflow_retries_then_succeeds(self):
        # a one-commit validation window forces "fell out of the window"
        # conflicts under concurrency, but retries keep making progress
        store = Store(GRAPH_SCHEMA, Database.graph([(1, 2)]))
        service = TransactionService(
            store, standard_constraints(), history_limit=1, commit_timeout=30.0
        )
        def client(index):
            edge = (40 + index, 90 + index)
            outcome = service.execute(lambda txn: txn.insert("E", edge))
            assert outcome.committed

        threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        rows = service.snapshot().relation("E")
        assert all((40 + i, 90 + i) in rows for i in range(6))
