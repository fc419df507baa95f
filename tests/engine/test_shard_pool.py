"""The sharded backend's per-shard thread pool: sizing, lifecycle, ownership.

* evaluation on pool threads computes exactly the naive oracle's answers,
  also for interpreted signatures, failing formulas and concurrent callers;
* a cold re-check after a one-edge change reuses the untouched shard's
  partials (content-keyed shard cache);
* ``REPRO_SHARD_THREADS`` sizes the pool and warns on garbage;
* 0 or 1 workers run every shard inline (no pool threads at all);
* ``close()`` is idempotent and downgrades the backend to inline execution
  instead of breaking it;
* a service built with ``shards=`` owns its backend and closes its pool.
"""

from __future__ import annotations

import os
import threading

import pytest
from hypothesis import given, settings

from repro.db import Database, chain, cycle
from repro.engine import NaiveBackend, ShardedBackend
from repro.engine.parallel import POOL_ENV, _pool_threads_from_env
from repro.logic import EvaluationError, arithmetic_signature, parse

from strategies import graphs, maybe_seed, sentences

ORACLE = NaiveBackend()

TWO_PATH = parse("forall x . forall y . E(x, y) -> (exists z . E(y, z))")
NO_LOOPS = parse("forall x . ~E(x, x)")


@pytest.fixture()
def backend():
    instance = ShardedBackend(shards=2, pool_threads=2)
    yield instance
    instance.close()


def test_agrees_with_oracle_on_pool_threads(backend):
    db = chain(6)
    assert backend.evaluate(TWO_PATH, db) == ORACLE.evaluate(TWO_PATH, db)
    assert backend.evaluate(NO_LOOPS, db) == ORACLE.evaluate(NO_LOOPS, db)
    formula = parse("E(x, y) & (exists z . E(y, z))")
    assert backend.extension(formula, db, ("x", "y")) == ORACLE.extension(
        formula, db, ("x", "y")
    )
    # the pool really ran shard tasks: its workers start on first submit
    assert backend._pool._threads
    assert backend.cache_stats()["shard_misses"] > 0


@maybe_seed
@settings(max_examples=20, deadline=None)
@given(formula=sentences(max_leaves=5), db=graphs())
def test_property_conformance_on_pool_threads(formula, db):
    pooled = ShardedBackend(shards=2, pool_threads=2)
    try:
        assert pooled.evaluate(formula, db) == ORACLE.evaluate(formula, db)
    finally:
        pooled.close()


def test_cold_recheck_reuses_untouched_shard(backend):
    db = cycle(8)
    assert backend.evaluate(TWO_PATH, db)
    hits_before = backend.cache_stats()["shard_hits"]
    # cold handoff (the E17 regime): same database plus one edge, rebuilt
    # raw — no provenance, so only the per-shard content caches save work
    db2 = Database.graph(set(db.relation("E")) | {(3, 6)})
    assert backend.evaluate(TWO_PATH, db2) == ORACLE.evaluate(TWO_PATH, db2)
    stats = backend.cache_stats()
    assert stats["shard_hits"] > hits_before
    assert set(stats["shard_hits_by_shard"]) <= {0, 1}


def test_raising_evaluation_leaves_the_pool_usable(backend):
    db = cycle(6)
    assert backend.evaluate(TWO_PATH, db)
    with pytest.raises(EvaluationError):
        backend.evaluate(parse("R(x, x) & (exists z . R(x, z))"), db)
    for formula in (TWO_PATH, NO_LOOPS):
        assert backend.evaluate(formula, db) == ORACLE.evaluate(formula, db)


def test_interpreted_signature_runs_on_the_pool(backend):
    signature = arithmetic_signature()
    formula = parse(
        "forall x . forall y . E(x, y) -> leq(x, y)", predicates=["leq"]
    )
    for db in (chain(5), cycle(5)):
        assert backend.evaluate(formula, db, signature=signature) == (
            ORACLE.evaluate(formula, db, signature=signature)
        )


def test_concurrent_callers_share_one_pool(backend):
    databases = [chain(n) for n in range(3, 9)] + [cycle(n) for n in range(3, 9)]
    expected = {
        (formula, db): ORACLE.evaluate(formula, db)
        for formula in (TWO_PATH, NO_LOOPS)
        for db in databases
    }
    failures = []

    def check(offset):
        try:
            for k in range(len(databases)):
                db = databases[(k + offset) % len(databases)]
                for formula in (TWO_PATH, NO_LOOPS):
                    if backend.evaluate(formula, db) != expected[(formula, db)]:
                        failures.append((formula, db))
        except Exception as exc:  # surfaced below, not lost in the thread
            failures.append(exc)

    callers = [threading.Thread(target=check, args=(i,)) for i in range(4)]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(timeout=60)
    assert not any(caller.is_alive() for caller in callers)
    assert failures == []


def test_default_single_shard_runs_inline(monkeypatch):
    monkeypatch.delenv(POOL_ENV, raising=False)
    single = ShardedBackend(shards=1)
    try:
        assert single._pool is None
        db = chain(4)
        assert single.evaluate(TWO_PATH, db) == ORACLE.evaluate(TWO_PATH, db)
    finally:
        single.close()


def test_pool_env_knob_sizes_the_pool(monkeypatch):
    monkeypatch.setenv(POOL_ENV, "0")
    inline = ShardedBackend(shards=4)
    monkeypatch.setenv(POOL_ENV, "3")
    pooled = ShardedBackend(shards=4)
    try:
        assert inline._pool is None
        assert pooled._pool is not None and pooled._pool._max_workers == 3
    finally:
        inline.close()
        pooled.close()


def test_repr_names_the_execution_mode():
    pooled = ShardedBackend(shards=2, pool_threads=2)
    assert repr(pooled) == "<ShardedBackend shards=2 executor=threads>"
    pooled.close()
    assert repr(pooled) == "<ShardedBackend shards=2 executor=inline>"


def test_pool_threads_env_knob_warns_on_garbage(monkeypatch):
    default = min(8, os.cpu_count() or 1)
    monkeypatch.setenv(POOL_ENV, "3")
    assert _pool_threads_from_env(8) == 3
    monkeypatch.setenv(POOL_ENV, "many")
    with pytest.warns(RuntimeWarning, match="REPRO_SHARD_THREADS"):
        assert _pool_threads_from_env(8) == default
    monkeypatch.delenv(POOL_ENV)
    assert _pool_threads_from_env(8) == default


@pytest.mark.parametrize("threads, pooled", [(0, False), (1, False), (2, True)])
def test_pool_exists_only_with_two_or_more_workers(threads, pooled):
    backend = ShardedBackend(shards=2, pool_threads=threads)
    try:
        assert (backend._pool is not None) == pooled
        db = chain(5)
        assert backend.evaluate(TWO_PATH, db) == ORACLE.evaluate(TWO_PATH, db)
    finally:
        backend.close()


def test_close_is_idempotent_and_degrades_inline():
    backend = ShardedBackend(shards=2, pool_threads=2)
    db = chain(4)
    assert backend.evaluate(TWO_PATH, db) == ORACLE.evaluate(TWO_PATH, db)
    backend.close()
    backend.close()
    assert backend._pool is None
    # evaluation still works — per-shard dispatch runs inline
    assert backend.evaluate(TWO_PATH, chain(5)) == ORACLE.evaluate(
        TWO_PATH, chain(5)
    )


def test_build_service_owns_its_sharded_backend():
    from repro.service import build_service, build_streams, run_workload
    from repro.service.workloads import forward_graph

    initial = forward_graph(30, 3, seed=5)
    service = build_service(initial, shards=2)
    try:
        assert service.backend.num_shards == 2
        streams = build_streams("mixed", 2, 8, 30, seed=1)
        report = run_workload(service, streams, workers=2)
        assert report.committed > 0
        assert service.invariant_holds()
    finally:
        service.close()
    service.close()  # idempotent
    assert service.backend._pool is None
