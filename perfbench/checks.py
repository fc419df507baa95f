"""The correctness gate run at the end of every benchmark run.

A run reports numbers only if all of these hold:

* every loop submission (``a == b``) was refused, never committed;
* the final served state (``/read scan``) satisfies both constraints under
  ``NaiveBackend``, the semantics oracle;
* after SIGKILL, ``Store(GRAPH_SCHEMA, engine=WalStorageEngine(dir))``
  recovers exactly the last served state;
* committed + rejected + verdict aborts + reads + failed = attempted, and,
  when nothing failed, the server's own commit counters agree with the
  client's tally.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple

from measure import COMMITTED, FAILED, READ, REJECTED, VERDICT_ABORT

Edge = Tuple[int, int]


def loops_refused(kinds: Sequence[str], outcomes: Sequence[str],
                  loop_kind: str) -> List[str]:
    """Failures: loop submissions that committed."""
    bad = sum(1 for k, o in zip(kinds, outcomes)
              if k == loop_kind and o == COMMITTED)
    if bad:
        return [f"{bad} loop submission(s) committed"]
    return []


#: the standard constraints with each quantifier pushed inward (miniscoped):
#: the same sentences, but the naive interpreter only walks ``z`` below an
#: existing edge, which takes ~1 s on 200 nodes instead of ~45 s
MINISCOPED = {
    "no-loops": "forall x . ~E(x, x)",
    "no-triangles": "forall x . forall y . E(x, y) -> forall z . E(y, z) -> ~E(z, x)",
}


def _small_graphs(nodes: int):
    from itertools import product

    pairs = [(a, b) for a in range(nodes) for b in range(nodes)]
    for bits in product((False, True), repeat=len(pairs)):
        yield [pair for pair, bit in zip(pairs, bits) if bit]


def oracle_constraints():
    """``(name, formula)`` for the naive oracle, proven equal to the registered
    constraints.

    Both forms are universal sentences with at most three variables, so a
    structure violates one exactly when one of its substructures on at most
    three elements does; agreeing on every digraph with one to three nodes
    therefore makes them equivalent on all graphs.  The check costs ~0.3 s
    and runs on every call, so the oracle cannot drift from the registered
    constraints.
    """
    from repro.db import Database
    from repro.engine.backend import NaiveBackend
    from repro.logic.parser import parse
    from repro.service.workloads import standard_constraints

    oracle = NaiveBackend()
    registered = {c.name: c.formula for c in standard_constraints()}
    if set(registered) != set(MINISCOPED):
        raise RuntimeError(
            f"standard constraints {sorted(registered)} have no miniscoped "
            f"oracle form (have {sorted(MINISCOPED)})"
        )
    forms = {name: parse(text) for name, text in MINISCOPED.items()}
    for nodes in (1, 2, 3):
        domain = frozenset(range(nodes))
        for edges in _small_graphs(nodes):
            db = Database.graph(edges)
            for name, formula in forms.items():
                mini = oracle.evaluate(formula, db, domain=domain)
                if mini != oracle.evaluate(registered[name], db, domain=domain):
                    raise RuntimeError(
                        f"miniscoped {name!r} disagrees with the registered "
                        f"constraint on {edges}"
                    )
    return sorted(forms.items())


def constraints_hold(edges: Iterable[Edge]) -> List[str]:
    """Failures: constraints violated by ``edges`` under the naive oracle."""
    from repro.db import Database
    from repro.engine.backend import NaiveBackend

    db = Database.graph(edges)
    oracle = NaiveBackend()
    return [
        f"served state violates {name!r} under NaiveBackend"
        for name, formula in oracle_constraints()
        if not oracle.evaluate(formula, db)
    ]


def recover_edges(wal_dir: str) -> Tuple[set, float]:
    """The edge set a fresh store recovers from ``wal_dir``, and seconds taken."""
    from repro.db import WalStorageEngine
    from repro.db.schema import GRAPH_SCHEMA
    from repro.db.storage import Store

    begun = time.perf_counter()
    store = Store(GRAPH_SCHEMA, engine=WalStorageEngine(wal_dir))
    try:
        edges = set(store.committed_snapshot().relation("E"))
    finally:
        store.close()
    return edges, time.perf_counter() - begun


def recovered_matches(wal_dir: str, served: Iterable[Edge]) -> Tuple[List[str], float]:
    """Failures: the recovered state differs from the last served state."""
    served = {tuple(edge) for edge in served}
    try:
        recovered, seconds = recover_edges(wal_dir)
    except Exception as exc:  # noqa: BLE001 - any recovery error fails the gate
        return [f"recovery raised {type(exc).__name__}: {exc}"], 0.0
    if recovered != served:
        lost, extra = served - recovered, recovered - served
        return [
            f"recovered state differs from served: {len(lost)} edge(s) "
            f"missing, {len(extra)} extra"
        ], seconds
    return [], seconds


def accounting(outcomes: Sequence[str]) -> Tuple[Dict[str, int], List[str]]:
    """Tally outcomes; failures if the buckets do not add up to attempted."""
    tally = Counter(outcomes)
    buckets = (COMMITTED, REJECTED, VERDICT_ABORT, READ, FAILED)
    counts = {b: tally.get(b, 0) for b in buckets}
    if sum(counts.values()) != len(outcomes):
        return counts, [f"outcome buckets {counts} do not add up to "
                        f"{len(outcomes)} attempted"]
    return counts, []


def server_agrees(counts: Dict[str, int], metrics: Dict[str, float]) -> List[str]:
    """Failures: the server's commit counters disagree with the client tally.

    Only meaningful when every request got a definitive answer, since a
    request whose response was lost may still have committed.
    """
    if counts[FAILED]:
        return []
    pairs = (
        ("service_committed", counts[COMMITTED]),
        ("service_rejected", counts[REJECTED]),
        ("service_aborted", counts[VERDICT_ABORT]),
    )
    return [
        f"server counted {name}={metrics.get(name, 0):g}, client saw {seen}"
        for name, seen in pairs
        if metrics.get(name, 0) != seen
    ]
