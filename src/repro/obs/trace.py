"""Lightweight span tracing for per-transaction timelines.

A *span* is a named wall-clock interval with attributes and a parent — the
instrumented path of one transaction reads as a tree::

    service.txn (template=link-forward)
      service.admission
      service.leader_wait
      service.group_commit
        service.validate
        service.apply_delta
          wal.append
          wal.fsync

Usage is one context manager, cheap enough to leave in the hot path::

    from repro.obs import trace
    with trace.span("service.commit", txn=txn_id):
        ...

``REPRO_TRACE`` selects the mode: ``off`` (the default — ``span()`` returns a
shared no-op context manager and records nothing), ``on`` (finished spans go
to an in-process ring buffer, read back with :func:`finished`), or a *file
path* (ring buffer plus one JSON object per line appended to that file).

Thread parenting is contextvar-based: spans opened on the same thread nest,
each worker thread's outermost span is a root — so a multi-worker service
run dumps one tree per transaction, not one interleaved soup.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence

__all__ = [
    "TRACE_ENV",
    "Tracer",
    "span",
    "configure",
    "trace_enabled",
    "finished",
    "clear",
    "current_span_id",
    "span_forest",
    "render_tree",
]

#: environment knob: ``off`` (default) / ``on`` (ring buffer) / a file path
#: (ring buffer + JSON-lines dump)
TRACE_ENV = "REPRO_TRACE"

#: how many finished spans the in-process ring buffer retains
RING_CAPACITY = 8192

_current: contextvars.ContextVar[Optional[tuple]] = contextvars.ContextVar(
    "repro_trace_current", default=None
)
_ids = itertools.count(1)


def _new_span_id() -> str:
    return f"{os.getpid():x}.{next(_ids):x}"


class _NullSpan:
    """The span handed out when tracing is off: every method is a no-op."""

    __slots__ = ()
    span_id = None

    def annotate(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span: records itself into the tracer's ring on exit."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id", "trace_id",
                 "ts", "_t0", "_token")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = _new_span_id()
        parent = _current.get()
        if parent is None:
            self.parent_id = None
            self.trace_id = self.span_id
        else:
            self.parent_id, self.trace_id = parent
        self._token = None

    def annotate(self, **attrs) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        self.ts = time.time()
        self._t0 = time.perf_counter()
        self._token = _current.set((self.span_id, self.trace_id))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._t0
        _current.reset(self._token)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer.record(
            {
                "name": self.name,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "trace_id": self.trace_id,
                "ts": self.ts,
                "dur": duration,
                "pid": os.getpid(),
                "thread": threading.get_ident(),
                **({"attrs": self.attrs} if self.attrs else {}),
            }
        )
        return False


class Tracer:
    """Mode + ring buffer + (optional) JSONL sink."""

    def __init__(self, mode: str = "off", path: Optional[str] = None):
        self.mode = mode
        self.path = path
        self._ring: deque = deque(maxlen=RING_CAPACITY)
        self._lock = threading.Lock()
        self._sink = None

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    def span(self, name: str, **attrs):
        if self.mode == "off":
            return _NULL_SPAN
        return _Span(self, name, attrs)

    def record(self, record: dict) -> None:
        with self._lock:
            self._ring.append(record)
            if self.path is not None:
                if self._sink is None:
                    self._sink = open(self.path, "a", encoding="utf-8")
                self._sink.write(json.dumps(record, default=str) + "\n")
                self._sink.flush()

    def finished(self) -> List[dict]:
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def close(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None


def _tracer_from_env() -> Tracer:
    value = os.environ.get(TRACE_ENV, "off").strip()
    lowered = value.lower()
    if lowered in ("", "off", "0", "false", "no"):
        return Tracer("off")
    if lowered in ("on", "1", "true", "yes"):
        return Tracer("on")
    return Tracer("path", path=value)


_TRACER: Tracer = _tracer_from_env()


def configure(mode: str, path: Optional[str] = None) -> Tracer:
    """Swap the process tracer: ``off``, ``on``, or ``path`` (with ``path=``)."""
    global _TRACER
    _TRACER.close()
    if mode == "path" and not path:
        raise ValueError("mode 'path' needs a file path")
    _TRACER = Tracer(mode, path=path)
    return _TRACER


def get_tracer() -> Tracer:
    return _TRACER


def trace_enabled() -> bool:
    return _TRACER.mode != "off"


def span(name: str, **attrs):
    """Open a span under the current thread's innermost live span."""
    tracer = _TRACER
    if tracer.mode == "off":
        return _NULL_SPAN
    return _Span(tracer, name, attrs)


def current_span_id() -> Optional[str]:
    state = _current.get()
    return state[0] if state is not None else None


def finished() -> List[dict]:
    return _TRACER.finished()


def clear() -> None:
    _TRACER.clear()


# ---------------------------------------------------------------------------
# reading traces back
# ---------------------------------------------------------------------------

def span_forest(spans: Sequence[dict]) -> List[dict]:
    """Nest flat span records into ``{"span": ..., "children": [...]}`` trees."""
    nodes = {record["span_id"]: {"span": record, "children": []} for record in spans}
    roots: List[dict] = []
    for record in spans:
        node = nodes[record["span_id"]]
        parent = nodes.get(record.get("parent_id"))
        if parent is None:
            roots.append(node)
        else:
            parent["children"].append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda child: child["span"]["ts"])
    roots.sort(key=lambda node: node["span"]["ts"])
    return roots


def render_tree(spans: Sequence[dict]) -> str:
    """An indented one-span-per-line rendering (the worked example in the docs)."""
    lines: List[str] = []

    def walk(node: dict, indent: int) -> None:
        record = node["span"]
        attrs = record.get("attrs", {})
        extras = "".join(f" {k}={v}" for k, v in sorted(attrs.items()))
        lines.append(
            "  " * indent
            + f"{record['name']}  {record['dur'] * 1000:.3f}ms{extras}"
        )
        for child in node["children"]:
            walk(child, indent + 1)

    for root in span_forest(spans):
        walk(root, 0)
    return "\n".join(lines)
