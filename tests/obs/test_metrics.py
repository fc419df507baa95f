"""The metrics registry: instruments, thread safety, off mode, exposition."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics
from repro.obs.metrics import (
    LEGACY_KEY_MAP,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestInstruments:
    def test_counter_accumulates(self, registry):
        counter = registry.counter("test.counter")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.snapshot() == {"test.counter": 5}

    def test_same_name_shares_the_instrument(self, registry):
        assert registry.counter("a.b") is registry.counter("a.b")

    def test_kind_mismatch_raises(self, registry):
        registry.counter("a.b")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("a.b")

    def test_invalid_names_rejected(self, registry):
        for bad in ("", ".", "a..b", "a b", "a.b!"):
            with pytest.raises(ValueError):
                registry.counter(bad)

    def test_gauge_moves_both_ways(self, registry):
        gauge = registry.gauge("test.gauge")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12

    def test_histogram_bucket_placement(self, registry):
        hist = registry.histogram("test.hist", buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 10.0, 99.0):
            hist.observe(value)
        export = hist.export()
        assert export["count"] == 5
        assert export["sum"] == pytest.approx(115.5)
        # bounds are inclusive upper bounds; 99.0 overflows into +Inf
        assert export["buckets"] == {"1.0": 2, "10.0": 2, "+Inf": 1}


class TestConcurrency:
    @settings(max_examples=25, deadline=None)
    @given(
        amounts=st.lists(
            st.integers(min_value=1, max_value=1000), min_size=1, max_size=40
        ),
        threads=st.integers(min_value=2, max_value=8),
    )
    def test_concurrent_increments_sum_exactly(self, amounts, threads):
        """Racing increments never lose updates: snapshot == serial total."""
        registry = MetricsRegistry()
        counter = registry.counter("race.counter")
        barrier = threading.Barrier(threads)

        def worker():
            barrier.wait()
            for amount in amounts:
                counter.inc(amount)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert registry.snapshot()["race.counter"] == sum(amounts) * threads


class TestNullRegistry:
    def test_everything_is_a_shared_noop(self):
        null = NullRegistry()
        assert null.counter("a.b") is null.gauge("c.d")
        null.counter("a.b").inc(10)
        null.histogram("e.f").observe(1.0)
        assert null.snapshot() == {}
        assert null.to_prometheus() == ""
        assert not null.enabled

    def test_configure_swaps_the_process_registry(self):
        try:
            off = metrics.configure("off")
            assert metrics.get_registry() is off
            assert not metrics.metrics_enabled()
            on = metrics.configure("on")
            assert metrics.get_registry() is on
            assert metrics.metrics_enabled()
            with pytest.raises(ValueError):
                metrics.configure("maybe")
        finally:
            metrics.configure("on")


class TestExposition:
    def test_prometheus_text_format(self, registry):
        registry.counter("engine.plan_cache.hits").inc(3)
        hist = registry.histogram("svc.lat", buckets=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(5.0)
        text = registry.to_prometheus()
        assert "# TYPE engine_plan_cache_hits counter" in text
        assert "engine_plan_cache_hits 3" in text
        # bucket counts are cumulative in the exposition format
        assert 'svc_lat_bucket{le="1.0"} 1' in text
        assert 'svc_lat_bucket{le="+Inf"} 2' in text
        assert "svc_lat_count 2" in text

    def test_snapshot_is_sorted_and_json_ready(self, registry):
        registry.counter("z.last").inc()
        registry.counter("a.first").inc()
        assert list(registry.snapshot()) == ["a.first", "z.last"]


class TestLegacyKeyMap:
    def test_every_alias_is_a_valid_dotted_name(self):
        registry = MetricsRegistry()
        for legacy, dotted in LEGACY_KEY_MAP.items():
            assert legacy and "." not in legacy
            registry.counter(dotted)  # raises on an invalid name

    def test_backend_counters_flow_into_the_dotted_scheme(self):
        from repro.db import Database
        from repro.engine.backend import CompiledBackend
        from repro.logic import parse

        try:
            registry = metrics.configure("on")
            backend = CompiledBackend()
            db = Database.graph([(1, 2), (2, 3)])
            formula = parse("forall x . ~E(x, x)")
            assert backend.evaluate(formula, db)
            backend.evaluate(formula, db)
            snap = registry.snapshot()
            # dotted twins mirror the legacy bare-int attributes exactly
            assert snap["engine.delta.misses"] == backend.delta_misses
            assert snap["engine.compile.fallbacks"] == backend.fallbacks
            assert snap["engine.optimizer.naive_wins"] == backend.naive_wins
            # memo traffic is registry-only (no legacy attribute existed):
            # the second evaluate of the same formula must hit the memo
            assert snap["engine.plan_cache.hits"] >= 1
            assert snap["engine.plan_cache.misses"] >= 1
        finally:
            metrics.configure("on")

    def test_sharded_shard_cache_counters_flow_into_the_dotted_scheme(self):
        from repro.db import Database
        from repro.engine import ShardedBackend
        from repro.logic import parse

        try:
            registry = metrics.configure("on")
            backend = ShardedBackend(shards=2, pool_threads=2)
            try:
                formula = parse("forall x . ~E(x, x)")
                ring = [(i, (i + 1) % 8) for i in range(8)]
                assert backend.evaluate(formula, Database.graph(ring))
                # one more edge over the same domain, rebuilt raw: the
                # untouched shard's partials are cache hits
                assert backend.evaluate(formula, Database.graph(ring + [(3, 6)]))
                stats, snap = backend.cache_stats(), registry.snapshot()
            finally:
                backend.close()
            assert stats["shard_hits"] > 0 and stats["shard_misses"] > 0
            for legacy in ("shard_hits", "shard_misses"):
                assert snap[LEGACY_KEY_MAP[legacy]] == stats[legacy]
        finally:
            metrics.configure("on")


def test_counter_instances_have_independent_state():
    a, b = Counter("x.a"), Counter("x.b")
    a.inc(3)
    assert (a.value, b.value) == (3, 0)
    g = Gauge("x.g")
    g.set(-2)
    assert g.value == -2
    h = Histogram("x.h", buckets=(1.0,))
    h.observe(0.0)
    assert h.count == 1
