"""The metrics registry: counters, gauges and histograms under dotted names.

One process-wide :class:`MetricsRegistry` (``get_registry()``) collects every
counter the system bumps — engine plan-cache traffic, optimizer rewrites,
shard-cache reuse, service commit outcomes, WAL appends and fsyncs —
under one hierarchical dotted naming scheme (``engine.plan_cache.hits``,
``wal.fsyncs``, ``service.commit.batch_size``; the full scheme and its mapping
onto the legacy per-component dict views is tabulated in
``docs/observability.md``).

Design constraints, in order:

* **Near-zero overhead when off.**  ``REPRO_METRICS=off`` swaps in a
  :class:`NullRegistry` whose instruments are three shared singletons with
  no-op methods — the hot-path cost of an increment is one attribute load and
  an empty call, and nothing is ever allocated per bump.
* **Thread safety.**  Real instruments take a per-instrument lock; a snapshot
  observed concurrently with increments is a consistent per-instrument read
  (the concurrent-increment hypothesis test pins the sum exactly).

Export formats: :meth:`MetricsRegistry.snapshot` (plain dict, JSON-ready,
embedded into every ``BENCH_<rev>.json`` by ``benchmarks/run_all.py``) and
:meth:`MetricsRegistry.to_prometheus` (text exposition for the future network
front-end).
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "METRICS_ENV",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "LEGACY_KEY_MAP",
    "configure",
    "metrics_enabled",
    "get_registry",
]

#: environment knob: ``off`` replaces the process registry with a no-op
#: registry (anything else, or unset, keeps metrics on — the default)
METRICS_ENV = "REPRO_METRICS"

#: default histogram bucket upper bounds (seconds-ish and counts-ish both fit:
#: the scheme is powers-of-two-ish from tiny to large, plus +inf implicitly)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0,
    100.0, 500.0, 1000.0,
)

#: legacy per-component dict keys -> canonical dotted metric names.  The old
#: dict views (``cache_stats()``, ``stats()``, ``storage_stats()``) keep their
#: historical keys for backward compatibility; this table is the alias layer
#: that maps each of them onto the one dotted scheme (see
#: ``docs/observability.md``).
LEGACY_KEY_MAP: Dict[str, str] = {
    # CompiledBackend.cache_stats()
    "plans_rewritten": "engine.optimizer.plans_rewritten",
    "join_reorders": "engine.optimizer.join_reorders",
    "shared_subplans": "engine.optimizer.shared_subplans",
    "complements_avoided": "engine.optimizer.complements_avoided",
    "naive_wins": "engine.optimizer.naive_wins",
    "estimation_checks": "engine.optimizer.estimation_checks",
    "estimation_error": "engine.optimizer.estimation_error",
    "delta_hits": "engine.delta.hits",
    "delta_misses": "engine.delta.misses",
    "fallbacks": "engine.compile.fallbacks",
    "incremental_evaluations": "engine.delta.hits",
    # ShardedBackend.cache_stats()
    "shard_hits": "engine.shard_cache.hits",
    "shard_misses": "engine.shard_cache.misses",
    # Store.storage_stats() / WalStorageEngine.stats()
    "wal_appends": "wal.appends",
    "fsyncs": "wal.fsyncs",
    "checkpoints": "wal.checkpoints",
    "recovered_batches": "wal.recovered_batches",
    "checkpoint_failures": "wal.checkpoint_failures",
    "tail_dropped_bytes": "wal.tail_dropped_bytes",
    "batches": "storage.batches",
    # TransactionStats
    "committed": "store.committed",
    "aborted": "store.aborted",
    "rolled_back_writes": "store.rolled_back_writes",
    "constraint_checks": "store.constraint_checks",
    "precondition_checks": "store.precondition_checks",
    "committed_wall_time": "store.committed_wall_time",
    "aborted_wall_time": "store.aborted_wall_time",
    # ServiceStats.as_dict()
    "submitted": "service.submitted",
    "read_only_commits": "service.read_only_commits",
    "conflicts": "service.conflicts",
    "retries": "service.retries",
    "serial_fallbacks": "service.serial_fallbacks",
    "rejected": "service.rejected",
    "batched_commits": "service.commit.batched_commits",
    "static_skips": "service.admission.static_skips",
    "guard_checks": "service.admission.guard_checks",
    "runtime_checks": "service.admission.runtime_checks",
    "transient_retries": "service.transient_retries",
    "commit_failures": "service.commit_failures",
}


def _valid_name(name: str) -> str:
    if not name or any(
        not part or not part.replace("_", "a").isalnum() for part in name.split(".")
    ):
        raise ValueError(f"metric names are dotted words, got {name!r}")
    return name


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------

class Counter:
    """A monotonically increasing count (thread-safe)."""

    kind = "counter"
    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def export(self) -> object:
        return self.value


class Gauge:
    """A value that can go up and down (thread-safe)."""

    kind = "gauge"
    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def export(self) -> object:
        return self.value


class Histogram:
    """Fixed-bucket distribution: per-bucket counts plus sum and count.

    ``buckets`` is the ascending tuple of inclusive upper bounds; everything
    above the last bound lands in the implicit ``+Inf`` bucket.  Bucket counts
    are *non-cumulative* in :meth:`export` (easier to read in a JSON
    snapshot); the Prometheus exposition accumulates them on the way out, as
    that format requires.
    """

    kind = "histogram"
    __slots__ = ("name", "buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        self._counts = [0] * (len(self.buckets) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def export(self) -> object:
        with self._lock:
            counts = list(self._counts)
            total, acc = self._count, self._sum
        buckets = {str(bound): counts[i] for i, bound in enumerate(self.buckets)}
        buckets["+Inf"] = counts[-1]
        return {"count": total, "sum": acc, "buckets": buckets}


# ---------------------------------------------------------------------------
# the no-op twins (REPRO_METRICS=off)
# ---------------------------------------------------------------------------

class _NullInstrument:
    """One object stands in for every off-mode counter/gauge/histogram.

    Every mutator is an empty method: the cost of a bump with metrics off is
    one attribute load and one no-op call, with zero allocation.
    """

    __slots__ = ()
    name = "null"
    kind = "null"

    def inc(self, amount: int = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    value = 0
    count = 0
    sum = 0.0

    def export(self) -> object:
        return 0


_NULL = _NullInstrument()


class NullRegistry:
    """The off-mode registry: hands out the shared no-op instrument."""

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> _NullInstrument:
        return _NULL

    def snapshot(self) -> Dict[str, object]:
        return {}

    def to_prometheus(self) -> str:
        return ""

    def reset(self) -> None:
        pass


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

class MetricsRegistry:
    """Get-or-create instruments by dotted name; snapshot them all at once.

    Instruments are identified by name: two components asking for the same
    name share the instrument (process-wide totals, Prometheus-style).
    Re-registering a name as a different instrument kind raises.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, factory, kind: str):
        _valid_name(name)
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif instrument.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {instrument.kind}, "
                    f"not {kind}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name), "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get(name, lambda: Gauge(name), "gauge")

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(name, lambda: Histogram(name, buckets), "histogram")

    def snapshot(self) -> Dict[str, object]:
        """Every instrument's current value, keyed by dotted name (JSON-ready)."""
        with self._lock:
            instruments = list(self._instruments.items())
        return {name: instrument.export() for name, instrument in sorted(instruments)}

    def reset(self) -> None:
        """Forget every instrument (tests and benchmark legs start clean)."""
        with self._lock:
            self._instruments.clear()

    def to_prometheus(self) -> str:
        """The text exposition format (for the future network front-end)."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        lines: List[str] = []
        for name, instrument in instruments:
            flat = name.replace(".", "_")
            lines.append(f"# TYPE {flat} {instrument.kind}")
            if instrument.kind == "histogram":
                data = instrument.export()
                cumulative = 0
                for bound, count in data["buckets"].items():
                    cumulative += count
                    lines.append(f'{flat}_bucket{{le="{bound}"}} {cumulative}')
                lines.append(f"{flat}_sum {data['sum']}")
                lines.append(f"{flat}_count {data['count']}")
            else:
                lines.append(f"{flat} {instrument.export()}")
        return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# process-global plumbing
# ---------------------------------------------------------------------------

def _mode_from_env() -> str:
    value = os.environ.get(METRICS_ENV, "on").strip().lower()
    return "off" if value in ("off", "0", "false", "no") else "on"


_registry: Optional[object] = None
_registry_lock = threading.Lock()


def get_registry():
    """The process-wide registry (a :class:`NullRegistry` when metrics are off)."""
    global _registry
    registry = _registry
    if registry is None:
        with _registry_lock:
            registry = _registry
            if registry is None:
                registry = (
                    MetricsRegistry() if _mode_from_env() == "on" else NullRegistry()
                )
                _registry = registry
    return registry


def configure(mode: str):
    """Swap the process registry: ``on`` (fresh real registry) or ``off``.

    Components capture their instruments at construction, so reconfiguring
    affects components built *afterwards* — exactly what tests want.
    Returns the new registry.
    """
    global _registry
    with _registry_lock:
        if mode == "on":
            _registry = MetricsRegistry()
        elif mode == "off":
            _registry = NullRegistry()
        else:
            raise ValueError(f"metrics mode must be 'on' or 'off', got {mode!r}")
        return _registry


def metrics_enabled() -> bool:
    return get_registry().enabled

