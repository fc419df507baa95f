"""Span tracing: nesting, ring buffer, JSONL dump, service span trees."""

import json

import pytest

from repro.db import Database
from repro.obs import trace
from repro.obs.trace import render_tree, span_forest
from repro.service import build_service


@pytest.fixture
def tracing():
    trace.configure("on")
    trace.clear()
    yield
    trace.configure("off")


def _assert_well_formed(spans):
    """Every parent reference resolves and children sit inside their parent."""
    by_id = {record["span_id"]: record for record in spans}
    assert len(by_id) == len(spans)  # ids are unique
    for record in spans:
        parent_id = record.get("parent_id")
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        assert parent is not None, f"orphan span {record['name']}"
        assert record["trace_id"] == parent["trace_id"]
        # a child opens after its parent opened (same-process clocks)
        if record["pid"] == parent["pid"]:
            assert record["ts"] >= parent["ts"] - 1e-6


class TestSpanBasics:
    def test_off_mode_is_one_shared_noop(self):
        trace.configure("off")
        assert trace.span("a") is trace.span("b")
        with trace.span("a") as opened:
            opened.annotate(ignored=True)
        assert trace.finished() == []
        assert not trace.trace_enabled()

    def test_nesting_follows_the_thread(self, tracing):
        with trace.span("outer", kind="test"):
            with trace.span("inner"):
                pass
            with trace.span("sibling"):
                pass
        spans = trace.finished()
        assert [s["name"] for s in spans] == ["inner", "sibling", "outer"]
        outer = spans[-1]
        assert outer["parent_id"] is None
        assert all(s["parent_id"] == outer["span_id"] for s in spans[:2])
        assert all(s["trace_id"] == outer["span_id"] for s in spans)
        assert outer["attrs"] == {"kind": "test"}

    def test_exceptions_mark_the_span_and_propagate(self, tracing):
        with pytest.raises(RuntimeError):
            with trace.span("doomed"):
                raise RuntimeError("boom")
        (record,) = trace.finished()
        assert record["attrs"]["error"] == "RuntimeError"

    def test_forest_and_rendering(self, tracing):
        with trace.span("root"):
            with trace.span("child"):
                pass
        forest = span_forest(trace.finished())
        assert len(forest) == 1
        assert forest[0]["span"]["name"] == "root"
        assert forest[0]["children"][0]["span"]["name"] == "child"
        text = render_tree(trace.finished())
        assert text.startswith("root")
        assert "\n  child" in text

    def test_path_mode_appends_jsonl(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        trace.configure("path", path=str(sink))
        try:
            with trace.span("persisted", n=1):
                pass
        finally:
            trace.configure("off")
        lines = sink.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["name"] == "persisted"
        assert record["attrs"] == {"n": 1}


class TestServiceSpanTrees:
    def test_conflict_retry_produces_one_tree_per_txn(self, tracing):
        service = build_service(Database.graph([(1, 2), (2, 3)]))
        try:
            state = {"first": True}

            def contended(txn):
                txn.contains("E", (1, 2))
                if state["first"]:
                    state["first"] = False
                    # a nested commit touches the row the outer txn read,
                    # so the outer validation must report a conflict
                    service.execute(lambda t: t.delete("E", (1, 2)))
                txn.insert("E", (8, 9))

            outcome = service.execute(
                contended, template="link-forward", params=(8, 9)
            )
            assert outcome.committed
            assert outcome.attempts == 2
            spans = trace.finished()
            _assert_well_formed(spans)
            txn_spans = [s for s in spans if s["name"] == "service.txn"]
            assert len(txn_spans) == 2  # the nested txn and the outer one
            outer = next(
                s for s in txn_spans
                if s["attrs"].get("attempts") == 2
            )
            assert outer["parent_id"] is None
            # the nested txn ran inside the outer optimistic attempt, so
            # contextvar parenting puts its whole tree under that attempt
            nested = next(s for s in txn_spans if s is not outer)
            assert nested["parent_id"] is not None
            assert nested["trace_id"] == outer["trace_id"]
            assert outer["attrs"]["status"] == "committed"
            children = [
                s["name"] for s in spans
                if s.get("parent_id") == outer["span_id"]
            ]
            # two optimistic attempts and two leader waits under one root
            assert children.count("service.txn_attempt") == 2
            assert children.count("service.leader_wait") == 2
            names = {s["name"] for s in spans}
            assert {"service.group_commit", "service.txn_commit",
                    "service.validate", "service.apply_delta",
                    "store.commit_batch"} <= names
        finally:
            service.close()

    def test_serial_fallback_span_tree(self, tracing):
        service = build_service(
            Database.graph([(1, 2), (2, 3)]), max_retries=0
        )
        try:
            outcome = service.execute(
                lambda txn: txn.insert("E", (4, 5)),
                template="link-forward", params=(4, 5),
            )
            assert outcome.committed
            assert service.stats.serial_fallbacks == 1
            spans = trace.finished()
            _assert_well_formed(spans)
            txn_commit = next(
                s for s in spans if s["name"] == "service.txn_commit"
            )
            assert txn_commit["attrs"]["serial"] is True
            group_commit = next(
                s for s in spans if s["name"] == "service.group_commit"
            )
            assert txn_commit["parent_id"] == group_commit["span_id"]
        finally:
            service.close()



class TestShardPoolSpans:
    def test_pooled_shard_evaluation_joins_the_caller_tree(self, tracing):
        from repro.engine.parallel import ShardedBackend
        from repro.logic import parse

        backend = ShardedBackend(shards=4, pool_threads=2)
        try:
            db = Database.graph([(1, 2), (2, 3), (3, 1), (4, 5)])
            with trace.span("check") as outer:
                assert backend.evaluate(parse("forall x . ~E(x, x)"), db)
            spans = trace.finished()
            _assert_well_formed(spans)
            shard_maps = [s for s in spans if s["name"] == "engine.shard_map"]
            assert shard_maps
            # dispatch spans open on the calling thread, inside its span;
            # no pool thread leaves a root span of its own
            assert all(s["trace_id"] == outer.span_id for s in spans)
            assert [s for s in spans if s["parent_id"] is None] == [spans[-1]]
        finally:
            backend.close()
