"""Per-layer metrics of a traced run, computed from the server's spans.

Each span is ``(id, parent, thread, name, start, end, info)`` as written by
``tracer.py``; ``parent`` is the innermost wrapped call open on the same
thread (0 for none).  Self time is a span's duration minus its children's
(children run on the span's own thread, so they never overlap each other).
Counts come from the wrappers or from ``GET /metrics`` deltas over the
measured window, never from ``/stats``.

``LAYERS`` is the metric table of ``BENCHMARK.json``'s ``per_layer`` list
with what each metric should move: ``(name, unit, better, moves, stays)``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from measure import NotEnoughSamples, tail_percentile

LAYERS = [
    # serve
    ("serve.decode_us", "us", "lower",
     "p50_ms, cpu_ms_per_req, capacity_rps on read-mostly", "checked-adhoc"),
    ("serve.reqs_per_decode", "count", "higher",
     "p50_ms, cpu_ms_per_req, capacity_rps on read-mostly", "checked-adhoc"),
    ("serve.encode_us", "us", "lower",
     "p50_ms, cpu_ms_per_req, capacity_rps on read-mostly", "checked-adhoc"),
    ("serve.outside_ms", "ms", "lower",
     "p50_ms, cpu_ms_per_req, capacity_rps on read-mostly", "checked-adhoc"),
    # service
    ("service.execute_ms", "ms", "lower",
     "p99_ms, capacity_rps on commit-durable", "read-mostly"),
    ("service.execute_p99_ms", "ms", "lower",
     "p99_ms, capacity_rps on commit-durable", "read-mostly"),
    ("service.execute_self_ms", "ms", "lower",
     "p99_ms, capacity_rps on commit-durable", "read-mostly"),
    ("service.validate_us", "us", "lower",
     "p99_ms, capacity_rps on commit-durable", "read-mostly"),
    ("service.read_us", "us", "lower",
     "p50_ms, capacity_rps on read-mostly", "commit-durable"),
    ("service.commit_yield", "ratio", "higher",
     "p99_ms, capacity_rps on commit-durable", "read-mostly"),
    ("service.commits_per_apply", "count", "higher",
     "p99_ms, capacity_rps on commit-durable", "read-mostly"),
    # db
    ("db.fold_calls_per_commit", "count", "lower",
     "cpu_ms_per_req, p99_ms, capacity_rps on commit-durable", "read-mostly"),
    ("db.fold_us", "us", "lower",
     "cpu_ms_per_req, p99_ms, capacity_rps on commit-durable", "read-mostly"),
    ("db.store_apply_ms", "ms", "lower",
     "cpu_ms_per_req, p99_ms, capacity_rps on commit-durable", "read-mostly"),
    ("db.wal_append_ms", "ms", "lower",
     "p99_ms, capacity_rps on commit-durable", "read-mostly"),
    ("db.fsync_ms", "ms", "lower",
     "p99_ms, capacity_rps on commit-durable", "read-mostly"),
    ("db.fsyncs_per_commit", "count", "lower",
     "p99_ms, capacity_rps on commit-durable", "read-mostly"),
    ("db.wal_bytes_per_commit", "B", "lower",
     "cpu_ms_per_req on commit-durable", "read-mostly"),
    ("db.checkpoint_ms", "ms", "lower",
     "p99_ms on commit-durable", "read-mostly"),
    ("db.checkpoints", "count", "lower",
     "p99_ms on commit-durable", "read-mostly"),
    ("db.recover_ms", "ms", "lower",
     "none (recovery after the run)", "all end-to-end metrics"),
    # engine
    ("engine.evaluate_ms", "ms", "lower",
     "capacity_rps, cpu_ms_per_req on checked-adhoc; less on commit-durable",
     "read-mostly"),
    ("engine.evaluates_per_req", "count", "lower",
     "capacity_rps, cpu_ms_per_req on checked-adhoc; less on commit-durable",
     "read-mostly"),
    ("engine.plan_ms", "ms", "lower",
     "capacity_rps, cpu_ms_per_req on checked-adhoc; less on commit-durable",
     "read-mostly"),
    ("engine.memo_hit_ratio", "ratio", "higher",
     "capacity_rps, cpu_ms_per_req on checked-adhoc; less on commit-durable",
     "read-mostly"),
    ("engine.delta_hit_ratio", "ratio", "higher",
     "capacity_rps, cpu_ms_per_req on checked-adhoc; less on commit-durable",
     "read-mostly"),
    # core
    ("core.classify_s", "s", "lower", "setup_s on every workload",
     "all other metrics"),
    ("core.static_verdicts", "count", "higher", "setup_s on every workload",
     "all other metrics"),
    ("core.guarded_verdicts", "count", "lower", "setup_s on every workload",
     "all other metrics"),
    ("core.runtime_verdicts", "count", "lower", "setup_s on every workload",
     "all other metrics"),
    # the trace itself, and the machine
    ("trace.unattributed_share", "ratio", "lower",
     "none (share of client latency outside every span)", "-"),
    ("trace.overhead_ms", "ms", "lower",
     "none (traced minus untraced cpu_ms_per_req)", "-"),
    ("machine.calibration_ms", "ms", "lower",
     "none (fixed pure-Python loop; compares runners)", "-"),
]


def load_spans(path: str) -> List[list]:
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def _mean(values: Sequence[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def compute(spans: List[list], window: tuple, requests: int, reads: int,
            client_mean_ms: float, counters: Dict[str, float],
            recover_ms: float) -> Dict[str, Optional[float]]:
    """Per-layer metrics over spans that started inside ``window``.

    ``counters`` holds ``/metrics`` deltas over the window.  A metric whose
    calls never happened in the window comes back ``None`` (n/a).
    """
    w0, w1 = window
    setup = [s for s in spans if s[3] == "core.classify"]
    spans = [s for s in spans if w0 <= s[4] <= w1]
    by_id = {s[0]: s for s in spans}
    by_name: Dict[str, List[list]] = defaultdict(list)
    child_time: Dict[int, float] = defaultdict(float)
    for s in spans:
        by_name[s[3]].append(s)
        if s[1] in by_id:
            child_time[s[1]] += s[5] - s[4]

    def dur(s) -> float:
        return s[5] - s[4]

    def durs(name: str) -> List[float]:
        return [dur(s) for s in by_name[name]]

    def parent_name(s) -> Optional[str]:
        parent = by_id.get(s[1])
        return parent[3] if parent is not None else None

    out: Dict[str, Optional[float]] = {}
    # serve
    decodes = by_name["serve.decode"]
    decoded = sum(s[6] for s in decodes if isinstance(s[6], int))
    nonempty = sum(1 for s in decodes if isinstance(s[6], int) and s[6] > 0)
    out["serve.decode_us"] = _ratio(sum(map(dur, decodes)) * 1e6, decoded)
    out["serve.reqs_per_decode"] = _ratio(decoded, nonempty)
    encode = _mean(durs("serve.encode"))
    out["serve.encode_us"] = None if encode is None else encode * 1e6

    # service
    executes = by_name["service.execute"]
    exec_ms = [dur(s) * 1e3 for s in executes]
    out["service.execute_ms"] = _mean(exec_ms)
    try:
        out["service.execute_p99_ms"] = tail_percentile(exec_ms, 0.99)
    except NotEnoughSamples:
        out["service.execute_p99_ms"] = None
    out["service.execute_self_ms"] = _mean(
        [(dur(s) - child_time[s[0]]) * 1e3 for s in executes]
    )
    validate = _mean(durs("service.validate"))
    out["service.validate_us"] = None if validate is None else validate * 1e6
    read_roots = [s for s in by_name["service.begin"] + by_name["service.read"]
                  if s[1] == 0]
    out["service.read_us"] = _ratio(sum(map(dur, read_roots)) * 1e6, reads)
    attempts = sum(s[6][1] for s in executes if isinstance(s[6], list))
    out["service.commit_yield"] = _ratio(len(executes), attempts)
    writers = counters.get("service_commit_batched_commits", 0.0)
    applies = by_name["db.store_apply"]
    out["service.commits_per_apply"] = _ratio(writers, len(applies))

    # service-layer time per request, and what lies outside every span
    service_s = sum(dur(s) for s in executes if s[1] == 0)
    service_s += sum(map(dur, read_roots))
    service_ms = _ratio(service_s * 1e3, requests) or 0.0
    out["serve.outside_ms"] = client_mean_ms - service_ms
    attributed = service_ms
    for name, per in (("serve.decode_us", 1e-3), ("serve.encode_us", 1e-3)):
        if out[name] is not None:
            attributed += out[name] * per
    out["trace.unattributed_share"] = _ratio(
        client_mean_ms - attributed, client_mean_ms
    )

    # db
    folds = by_name["db.fold"]
    out["db.fold_calls_per_commit"] = _ratio(len(folds), writers)
    fold = _mean([dur(s) for s in folds])
    out["db.fold_us"] = None if fold is None else fold * 1e6
    store = applies + by_name["db.store_commit"]
    wal_children = sum(
        dur(s) for name in ("db.wal_append", "db.checkpoint")
        for s in by_name[name]
        if parent_name(s) in ("db.store_apply", "db.store_commit")
    )
    out["db.store_apply_ms"] = _ratio(
        (sum(map(dur, store)) - wal_children) * 1e3, len(applies)
    )
    appends = by_name["db.wal_append"]
    wal = _mean(durs("db.wal_append"))
    out["db.wal_append_ms"] = None if wal is None else wal * 1e3
    fsync = _mean(durs("db.fsync"))
    out["db.fsync_ms"] = None if fsync is None else fsync * 1e3
    out["db.fsyncs_per_commit"] = _ratio(len(by_name["db.fsync"]), writers)
    out["db.wal_bytes_per_commit"] = _ratio(
        sum(s[6] for s in appends if isinstance(s[6], int)), writers
    )
    checkpoint = _mean(durs("db.checkpoint"))
    out["db.checkpoint_ms"] = None if checkpoint is None else checkpoint * 1e3
    out["db.checkpoints"] = float(len(by_name["db.checkpoint"]))
    out["db.recover_ms"] = recover_ms

    # engine
    evaluates = [s for s in by_name["engine.evaluate"]
                 if parent_name(s) != "engine.evaluate"]
    evaluate = _mean([dur(s) for s in evaluates])
    out["engine.evaluate_ms"] = None if evaluate is None else evaluate * 1e3
    out["engine.evaluates_per_req"] = _ratio(len(evaluates), requests)
    plan = _mean(durs("engine.plan"))
    out["engine.plan_ms"] = None if plan is None else plan * 1e3
    hits = counters.get("engine_plan_cache_hits", 0.0)
    out["engine.memo_hit_ratio"] = _ratio(
        hits, hits + counters.get("engine_plan_cache_misses", 0.0)
    )
    hits = counters.get("engine_delta_hits", 0.0)
    out["engine.delta_hit_ratio"] = _ratio(
        hits, hits + counters.get("engine_delta_misses", 0.0)
    )

    # core: the classification during set-up (not windowed)
    out["core.classify_s"] = sum(dur(s) for s in setup)
    verdicts: Dict[str, Dict[str, str]] = {}
    for s in setup:
        if isinstance(s[6], list):
            verdicts[s[6][0]] = s[6][1]
    modes = [m for per in verdicts.values() for m in per.values()]
    for mode in ("static", "guarded", "runtime"):
        out[f"core.{mode}_verdicts"] = float(modes.count(mode))
    return out
