"""``repro.obs`` — the unified observability layer.

Three pillars, one import:

* :mod:`repro.obs.metrics` — the process-wide :class:`MetricsRegistry`
  (counters / gauges / histograms under dotted names, ``REPRO_METRICS`` knob,
  JSON snapshot + Prometheus text exposition);
* :mod:`repro.obs.trace` — span tracing of per-transaction timelines
  (``REPRO_TRACE`` knob, ring buffer, JSON-lines dump);
* :mod:`repro.obs.profile` — per-plan-node wall-time/cardinality profiling
  merged into ``backend.explain()``.

See ``docs/observability.md`` for the naming scheme, the span model and the
knob table.
"""

from . import trace
from .metrics import (
    LEGACY_KEY_MAP,
    METRICS_ENV,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    configure as configure_metrics,
    get_registry,
    metrics_enabled,
)
from .profile import PlanProfiler, observe_estimation
from .trace import TRACE_ENV, span, trace_enabled

__all__ = [
    "METRICS_ENV",
    "TRACE_ENV",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "LEGACY_KEY_MAP",
    "PlanProfiler",
    "configure_metrics",
    "get_registry",
    "metrics_enabled",
    "observe_estimation",
    "span",
    "trace",
    "trace_enabled",
]
