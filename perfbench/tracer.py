"""Span recording around the public calls of each layer (traced runs only).

The server process of a traced run calls :func:`install_setup` before it
builds the service and :func:`install_runtime` once the server is up.  Each
wrapper records ``(id, parent, thread, name, start, end, info)`` in memory;
the parent is the innermost wrapped call open on the same thread.  Nothing
here touches ``src/``: the wrappers are attribute patches made inside the
server process, and untraced runs never import this module.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from typing import Callable, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, owner: object, attr: str, name: str,
             info: Optional[Callable] = None,
             before: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``before(args)`` runs ahead of the timed call and ``info(args,
        result, state)`` after it; what ``info`` returns is kept with the
        span.  Neither is inside the span's interval.
        """
        original = getattr(owner, attr)
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            state = before(args) if before is not None else None
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, threading.get_ident(), name,
                              start, end, "raised"))
                raise
            end = time.perf_counter()
            stack.pop()
            extra = info(args, result, state) if info is not None else None
            spans.append((sid, parent, threading.get_ident(), name,
                          start, end, extra))
            return result

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (atomically: temp file + rename)."""
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            for span in list(self.spans):
                handle.write(json.dumps(span))
                handle.write("\n")
        os.replace(tmp, path)


def install_setup(tracer: Tracer) -> None:
    """Wrappers that must be in place before the service is built."""
    from repro.service.admission import AdmissionController

    tracer.wrap(
        AdmissionController, "register", "core.classify",
        info=lambda args, verdicts, _: [
            args[1].name, {c: v.mode for c, v in verdicts.items()}
        ],
    )


def _wal_size(args) -> int:
    try:
        return os.path.getsize(os.path.join(args[0].directory, "wal.log"))
    except OSError:
        return 0


def install_runtime(tracer: Tracer, service) -> None:
    """Wrappers around the serve, service, db and engine layers."""
    import repro.serve.server as serve_server
    import repro.service.scheduler as scheduler
    from repro.db.database import Database
    from repro.db.storage import Store
    from repro.db.wal import WalStorageEngine
    from repro.service.snapshots import SnapshotTransaction

    # serve: framing and response encoding (module globals of the server)
    tracer.wrap(serve_server, "drain_requests", "serve.decode",
                info=lambda args, result, _: len(result[0]))
    tracer.wrap(serve_server, "json_response", "serve.encode")
    # service: the client entry point, validation, reads
    tracer.wrap(type(service), "execute", "service.execute",
                info=lambda args, out, _: [out.status, out.attempts])
    tracer.wrap(scheduler, "validate", "service.validate")
    tracer.wrap(type(service), "begin", "service.begin")
    for read in ("contains", "scan", "evaluate"):
        tracer.wrap(SnapshotTransaction, read, "service.read")
    # db: the batch fold, the store apply, the WAL and its fsyncs
    tracer.wrap(Database, "apply_delta", "db.fold")
    tracer.wrap(Store, "apply_delta", "db.store_apply")
    tracer.wrap(Store, "commit_unchecked", "db.store_commit")
    tracer.wrap(WalStorageEngine, "commit_batch", "db.wal_append",
                before=_wal_size,
                info=lambda args, _, size: _wal_size(args) - size)
    tracer.wrap(WalStorageEngine, "checkpoint", "db.checkpoint")
    tracer.wrap(os, "fsync", "db.fsync")
    # engine: the service backend's evaluate and plan lookup
    backend = service.backend
    tracer.wrap(backend, "evaluate", "engine.evaluate")
    if hasattr(backend, "plan_for"):
        tracer.wrap(backend, "plan_for", "engine.plan")
