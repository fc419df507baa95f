"""The three benchmark workloads: specs, initial graphs and op streams.

Everything here is a pure function of ``--seed``.  The server process only
ever sees the generated inputs (an edge list and pre-encoded requests), never
the seed.  Writes follow one rule on every workload: an op stream inserts
edges and, ``PENDING_LAG`` ops later, removes them again (or removes an
initial edge and later restores it), so the live edge count stays within
``PENDING_LAG`` edges of its initial value for the whole run.
"""

from __future__ import annotations

import bisect
import json
import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Set, Tuple

Edge = Tuple[int, int]

#: a write is undone this many writes after it was made
PENDING_LAG = 40

#: Zipf exponent of the skewed account picker (commit-durable)
ZIPF_S = 1.1

# request kinds, grouped into the accounting buckets of the correctness gate
GUARDED_INSERT = "guarded-insert"   # link-forward / add-edge, a != b
LOOP_INSERT = "loop-insert"         # add-edge or ad-hoc insert with a == b
UNLINK = "unlink"                   # static template or ad-hoc delete
READ = "read"                       # /read contains or /read evaluate
ADHOC_INSERT = "adhoc-insert"       # ad-hoc insert, runtime-checked


@dataclass(frozen=True)
class Workload:
    name: str
    accounts: int
    edges_per: int
    slo_ms: float
    #: the fixed rate of the latency window: the server is ~40% busy there
    nominal_rps: float
    why: str

    @property
    def initial_edges(self) -> int:
        return self.accounts * self.edges_per


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "commit-durable", 200, 6, 250.0, 200.0,
            "guarded-update path: group commit, validation, fold and WAL "
            "under Zipf-skewed conflicts",
        ),
        Workload(
            "read-mostly", 200, 6, 100.0, 400.0,
            "request path (framing, JSON, thread hop, snapshot pin) with "
            "the commit path nearly idle",
        ),
        Workload(
            "checked-adhoc", 100, 4, 250.0, 40.0,
            "the paper's baseline: every commit re-checks every constraint "
            "on the full post-state",
        ),
    )
}


def initial_graph(workload: Workload, seed: int) -> List[Edge]:
    """A loop-free, forward-only (hence triangle-free) graph, sorted."""
    rng = random.Random(f"graph/{workload.name}/{seed}")
    n = workload.accounts
    target = min(workload.initial_edges, n * (n - 1) // 2)
    edges: Set[Edge] = set()
    while len(edges) < target:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def _encode(method: str, path: str, body: object) -> bytes:
    # not repro's own encode_request: the inputs must stay byte-identical
    # whatever the program under test changes in its client
    data = json.dumps(body, separators=(",", ":")).encode()
    return (
        f"{method} {path} HTTP/1.1\r\nContent-Length: {len(data)}\r\n\r\n"
    ).encode() + data


def txn_request(template: str, a: int, b: int) -> bytes:
    return _encode("POST", "/txn", {"template": template, "params": [a, b]})


def adhoc_request(kind: str, a: int, b: int) -> bytes:
    return _encode("POST", "/txn", {"ops": [{kind: ["E", [a, b]]}]})


def read_request(body: object) -> bytes:
    return _encode("POST", "/read", body)


def out_degree_formula(account: int) -> str:
    """The out-degree predicate: one distinct plan per account."""
    return f"exists>=3 y . E({account}, y)"


class _Picker:
    """Uniform or Zipf-skewed account picks from one seeded RNG."""

    def __init__(self, rng: random.Random, accounts: int, zipf: bool):
        self.rng = rng
        self.accounts = accounts
        self.cdf = None
        if zipf:
            weights = [1.0 / (k + 1) ** ZIPF_S for k in range(accounts)]
            total = sum(weights)
            running, cdf = 0.0, []
            for w in weights:
                running += w
                cdf.append(running / total)
            self.cdf = cdf

    def __call__(self) -> int:
        if self.cdf is None:
            return self.rng.randrange(self.accounts)
        return min(bisect.bisect_left(self.cdf, self.rng.random()),
                   self.accounts - 1)


def op_stream(workload: Workload, seed: int,
              edges: List[Edge]) -> Iterator[Tuple[str, bytes]]:
    """The endless op stream of ``workload``: ``(kind, request bytes)``."""
    rng = random.Random(f"ops/{workload.name}/{seed}")
    live: Set[Edge] = set(edges)
    pending: Deque[Edge] = deque()
    if workload.name == "commit-durable":
        return _commit_durable(rng, workload, live, pending)
    if workload.name == "read-mostly":
        return _read_mostly(rng, workload, live, pending)
    return _checked_adhoc(rng, workload, live, pending)


def _fresh_pair(rng, pick, live: Set[Edge], forward: bool) -> Edge:
    """A non-loop pair not currently live (Zipf-skewed picks, then uniform)."""
    for attempt in range(64):
        a, b = pick(), pick()
        if attempt >= 16:
            b = rng.randrange(pick.accounts)
        if a == b:
            continue
        if forward and a > b:
            a, b = b, a
        if (a, b) not in live:
            return a, b
    raise RuntimeError("graph too dense to draw a fresh pair")


def _commit_durable(rng, workload, live, pending):
    pick = _Picker(rng, workload.accounts, zipf=True)
    while True:
        if len(pending) >= PENDING_LAG:
            a, b = pending.popleft()
            live.discard((a, b))
            yield UNLINK, txn_request("unlink", a, b)
            continue
        roll = rng.random()
        if roll < 0.8:
            a, b = _fresh_pair(rng, pick, live, forward=True)
            template = "link-forward"
        else:
            template = "add-edge"
            if roll < 0.82:  # ~10% of add-edge submissions are loops
                a = pick()
                yield LOOP_INSERT, txn_request(template, a, a)
                continue
            a, b = _fresh_pair(rng, pick, live, forward=False)
        live.add((a, b))
        pending.append((a, b))
        yield GUARDED_INSERT, txn_request(template, a, b)


def _read_mostly(rng, workload, live, pending):
    # ``pending`` holds the edges this stream unlinked, awaiting restore
    pick = _Picker(rng, workload.accounts, zipf=False)
    while True:
        roll = rng.random()
        if roll < 0.70:
            a, b = pick(), pick()
            yield READ, read_request({"contains": ["E", [a, b]]})
        elif roll < 0.90:
            yield READ, read_request(
                {"evaluate": {"formula": out_degree_formula(pick())}}
            )
        elif len(pending) >= PENDING_LAG // 4 or (
            pending and rng.random() < 0.5
        ):
            a, b = pending.popleft()
            live.add((a, b))
            yield GUARDED_INSERT, txn_request("link-forward", a, b)
        else:
            a, b = rng.choice(sorted(live))
            live.discard((a, b))
            pending.append((a, b))
            yield UNLINK, txn_request("unlink", a, b)


def _checked_adhoc(rng, workload, live, pending):
    pick = _Picker(rng, workload.accounts, zipf=False)
    while True:
        if len(pending) >= PENDING_LAG:
            a, b = pending.popleft()
            live.discard((a, b))
            yield UNLINK, adhoc_request("delete", a, b)
            continue
        if rng.random() < 0.1:
            a = pick()
            yield LOOP_INSERT, adhoc_request("insert", a, a)
            continue
        a, b = _fresh_pair(rng, pick, live, forward=False)
        live.add((a, b))
        pending.append((a, b))
        yield ADHOC_INSERT, adhoc_request("insert", a, b)
