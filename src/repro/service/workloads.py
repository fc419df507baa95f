"""Workload scenarios and the threaded driver for the transaction service.

The scenario library models the referral-graph workload used across the
benchmarks (a single binary relation ``E``, the ``no-loops`` and
``no-triangles`` integrity constraints) at four contention profiles:

* ``read-heavy`` — mostly point probes and degree predicates;
* ``write-heavy`` — mostly safe forward-edge inserts and deletes;
* ``constraint-heavy`` — a large share of *risky* arbitrary-edge inserts
  (loops, back-edges), exercising the guarded admission path and rejections;
* ``mixed`` — a blend of all of the above (the E16 headline scenario);
* ``hot-key`` — the mixed blend with *Zipfian* account selection: a handful
  of hot accounts absorb most of the traffic, so concurrent writers collide
  on the same edges and the optimistic validation path actually retries
  (non-zero ``abort_rate``), where the uniform scenarios almost never do;
* ``flash-crowd`` — bursty contention: every client's traffic concentrates
  on one small *crowd* of accounts for a window of operations, then the
  crowd jumps to a fresh set of accounts (a viral post, a market open).
  Unlike ``hot-key``'s stationary skew, the hot set *moves*, so contention
  arrives in spikes — the scenario that makes tail latency (p99) diverge
  from the median even when mean throughput looks healthy.

Drivers report tail latency per run: :class:`WorkloadReport` carries the
p50/p95/p99 of per-operation completion times (one ``service.execute`` call
from first attempt through retries to a definitive outcome), which is what
the E16 benchmark JSON surfaces per scenario.

Every operation is a deterministic closure over the tracked
:class:`~repro.service.snapshots.SnapshotTransaction` API, tagged with the
admission template it instantiates, so the same streams can be fed to the
concurrent service and to the serial baseline.  Streams are generated from an
explicit seed (``--seed`` in ``benchmarks/run_all.py``), which is what makes
E16 throughput numbers reproducible.

The serial baseline (:func:`run_serial_baseline`) is the pre-service
execution model: one transaction at a time against the store, every
constraint re-checked on the post-state before each individual commit —
exactly :class:`~repro.core.maintenance.RuntimeCheckPolicy`, including the
engine's incremental re-checks, so the comparison isolates what the service
layer itself adds (admission fast paths, group commit, overlap of optimistic
execution) rather than re-measuring PR-2's delta rules.
"""

from __future__ import annotations

import os
import random
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.maintenance import Constraint
from ..db.database import Database
from ..db.schema import GRAPH_SCHEMA
from ..db.storage import Store
from ..logic.syntax import And, Atom, Eq, Exists, Not, make_and
from ..logic.terms import Const, Var
from ..obs import metrics as _metrics
from ..transactions.fo_transactions import DeleteWhere, FOProgram, InsertTuple
from .admission import TransactionTemplate
from .scheduler import TransactionService, TxnOutcome, default_workers
from .snapshots import ServiceError, SnapshotTransaction

__all__ = [
    "NO_LOOPS",
    "NO_TRIANGLES",
    "SCENARIOS",
    "SEED_ENV",
    "default_seed",
    "WorkItem",
    "WorkloadReport",
    "standard_templates",
    "standard_constraints",
    "forward_graph",
    "build_service",
    "build_streams",
    "run_workload",
    "run_serial_baseline",
]


def _parse():
    from ..logic.parser import parse

    return parse


NO_LOOPS = _parse()("forall x . ~E(x, x)")
NO_TRIANGLES = _parse()(
    "forall x . forall y . forall z . (E(x, y) & E(y, z)) -> ~E(z, x)"
)

SCENARIOS = (
    "read-heavy",
    "write-heavy",
    "constraint-heavy",
    "mixed",
    "hot-key",
    "flash-crowd",
)

#: environment knob: the workload seed (set by ``benchmarks/run_all.py --seed``
#: and by the test harness, so a failing run can be replayed exactly)
SEED_ENV = "REPRO_SEED"


def default_seed(fallback: int = 0) -> int:
    """The stream seed selected by ``REPRO_SEED`` (default ``fallback``)."""
    raw = os.environ.get(SEED_ENV, "").strip()
    if not raw:
        return fallback
    try:
        return int(raw)
    except ValueError:
        return fallback

#: operation mix per scenario: (read, link-forward, unlink, add-edge) weights
_MIXES: Dict[str, Tuple[float, float, float, float]] = {
    "read-heavy": (0.85, 0.10, 0.05, 0.00),
    "write-heavy": (0.20, 0.55, 0.25, 0.00),
    "constraint-heavy": (0.15, 0.30, 0.15, 0.40),
    "mixed": (0.50, 0.28, 0.12, 0.10),
    "hot-key": (0.20, 0.45, 0.25, 0.10),
    "flash-crowd": (0.25, 0.45, 0.20, 0.10),
}

#: Zipf exponent for the hot-key picker — well above 1, so the first few
#: accounts absorb most of the traffic and writers collide on their edges
_ZIPF_S = 1.5

#: flash-crowd burst shape: every pick lands inside a crowd of
#: ``_CROWD_SIZE`` accounts for ``_BURST_LEN`` consecutive picks, then the
#: crowd jumps to a fresh set — moving skew, not stationary skew
_CROWD_SIZE = 4
_BURST_LEN = 24


def standard_constraints() -> List[Constraint]:
    """The referral-graph integrity constraints of the benchmark workloads."""
    return [
        Constraint("no-loops", NO_LOOPS),
        Constraint("no-triangles", NO_TRIANGLES),
    ]


def _no_new_triangle_guard(a: object, b: object):
    """Hand-simplified guard: inserting ``(a, b)`` keeps ``no-triangles``.

    Under the invariant the only new violation an edge insert can create is a
    2-path ``b -> w -> a`` closing through the new edge (plus the degenerate
    loop ``a = b``) — the paper's closing-remark ``Delta``: far smaller than
    the mechanical ``wpc``, and verified against it at registration time.
    """
    return make_and(
        Not(Eq(Const(a), Const(b))),
        Not(
            Exists(
                "w",
                And(Atom("E", Const(b), Var("w")), Atom("E", Var("w"), Const(a))),
            )
        ),
    )


def _not_a_loop_guard(a: object, b: object):
    """Hand-simplified guard: inserting ``(a, b)`` keeps ``no-loops`` iff ``a != b``."""
    return Not(Eq(Const(a), Const(b)))


def _insert_edge_program(a: object, b: object) -> FOProgram:
    return FOProgram([InsertTuple("E", a, b)], name="add-edge")


def _link_forward_program(a: object, b: object) -> FOProgram:
    return FOProgram([InsertTuple("E", a, b)], name="link-forward")


def _unlink_program(a: object, b: object) -> FOProgram:
    condition = And(Eq(Var("x"), Const(a)), Eq(Var("y"), Const(b)))
    return FOProgram([DeleteWhere("E", ("x", "y"), condition)], name="unlink")


def standard_templates() -> List[TransactionTemplate]:
    """The admission templates the scenario library instantiates.

    * ``link-forward`` — insert one strictly forward edge (``a < b``); its
      instances preserve ``no-loops`` outright and need only the 2-path guard
      for ``no-triangles``;
    * ``unlink`` — delete one edge: statically safe for both constraints
      (universal constraints survive deletions);
    * ``add-edge`` — insert an *arbitrary* edge (loops and back-edges
      included): guarded for both constraints.
    """
    guards = {
        "no-loops": _not_a_loop_guard,
        "no-triangles": _no_new_triangle_guard,
    }
    return [
        TransactionTemplate(
            "link-forward",
            _link_forward_program,
            samples=((0, 1), (1, 2)),
            guards={"no-triangles": _no_new_triangle_guard},
        ),
        TransactionTemplate("unlink", _unlink_program, samples=((0, 1), (2, 1))),
        TransactionTemplate(
            "add-edge",
            _insert_edge_program,
            samples=((0, 1), (1, 0), (2, 2)),
            guards=guards,
        ),
    ]


def forward_graph(accounts: int, edges_per: int, seed: int = 1) -> Database:
    """A triangle-free, loop-free referral network: every edge points forward."""
    rng = random.Random(seed)
    edges = set()
    # only accounts*(accounts-1)/2 distinct forward pairs exist — cap the
    # target so a dense request saturates instead of spinning forever
    target = min(accounts * edges_per, accounts * (accounts - 1) // 2)
    while len(edges) < target:
        a, b = rng.randrange(accounts), rng.randrange(accounts)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Database.graph(edges)


_ADMISSION_LOCK = threading.Lock()
_ADMISSION: Optional[Tuple["AdmissionController", List[Constraint]]] = None


def _standard_admission() -> Tuple["AdmissionController", List[Constraint]]:
    """One classified admission controller per process.

    Classification is the *offline* part of static verification (a bounded
    sweep per (template, constraint, sample)), so every service built by
    :func:`build_service` shares a single controller — the verdict cache is
    exactly as reusable as a prepared-statement cache.
    """
    global _ADMISSION
    with _ADMISSION_LOCK:
        if _ADMISSION is None:
            from .admission import AdmissionController

            constraints = standard_constraints()
            controller = AdmissionController(constraints)
            for template in standard_templates():
                controller.register(template)
            _ADMISSION = (controller, constraints)
        return _ADMISSION


def build_service(
    initial: Database,
    max_retries: int = 8,
    commit_timeout: float = 60.0,
    shards: Optional[int] = None,
    engine: Optional["StorageEngine"] = None,
) -> TransactionService:
    """A service over ``initial`` with the standard constraints and templates.

    The WPC classification of the standard templates is computed once per
    process and shared (see :func:`_standard_admission`), so repeated
    ``build_service`` calls — one per test, one per benchmark phase — pay for
    admission verdicts exactly once.

    By default the service evaluates on the ambient backend.  Passing
    ``shards`` builds a *dedicated* :class:`~repro.engine.parallel.
    ShardedBackend` owned by the service — call
    :meth:`~repro.service.scheduler.TransactionService.close` when done so
    its thread pool shuts down promptly.

    ``engine`` selects the store's :class:`~repro.db.engines.StorageEngine`
    (default: the ``REPRO_DURABLE``/``REPRO_WAL_DIR`` environment choice).
    The service owns the store it builds here, so ``close()`` releases the
    engine's file handles.
    """
    from ..engine.backend import active_backend

    admission, constraints = _standard_admission()
    backend = None
    owns_backend = False
    if shards is not None:
        from ..engine.parallel import ShardedBackend

        backend = ShardedBackend(shards=shards)
        owns_backend = True
    ambient = backend if backend is not None else active_backend()
    store = Store(
        GRAPH_SCHEMA,
        initial,
        shards=getattr(ambient, "num_shards", None),
        engine=engine,
    )
    return TransactionService(
        store,
        constraints,
        admission=admission,
        max_retries=max_retries,
        commit_timeout=commit_timeout,
        backend=backend,
        owns_backend=owns_backend,
        # the store was built here, so service.close() must release it (it
        # may hold WAL handles under REPRO_DURABLE=on or an explicit engine)
        owns_store=True,
    )


# ---------------------------------------------------------------------------
# operation streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkItem:
    """One client operation: a tracked closure plus its admission template."""

    kind: str
    template: Optional[str]
    params: Tuple
    fn: Callable[[SnapshotTransaction], object]


_OUT_DEGREE = Exists("y", Atom("E", Var("x"), Var("y")))

#: an account picker: () -> account id (uniform or Zipfian over the pool)
Picker = Callable[[], int]


def _uniform_picker(rng: random.Random, accounts: int) -> Picker:
    return lambda: rng.randrange(accounts)


def _zipf_cdf(accounts: int, s: float = _ZIPF_S) -> Tuple[float, ...]:
    """Cumulative Zipf(s) weights over ranks ``0..accounts-1``."""
    weights = [1.0 / ((rank + 1) ** s) for rank in range(accounts)]
    total = sum(weights)
    acc = 0.0
    cdf = []
    for weight in weights:
        acc += weight
        cdf.append(acc / total)
    cdf[-1] = 1.0
    return tuple(cdf)


_ZIPF_CDF_CACHE: Dict[Tuple[int, float], Tuple[float, ...]] = {}


def _zipf_picker(rng: random.Random, accounts: int, s: float = _ZIPF_S) -> Picker:
    """Zipfian account picker: rank == account id, so account 0 is hottest."""
    cdf = _ZIPF_CDF_CACHE.get((accounts, s))
    if cdf is None:
        cdf = _ZIPF_CDF_CACHE[(accounts, s)] = _zipf_cdf(accounts, s)
    return lambda: bisect_left(cdf, rng.random())


def _crowd_for(seed: int, burst: int, accounts: int) -> Tuple[int, ...]:
    """The crowd of burst ``burst``: shared by every client of the run.

    Derived from the *stream* seed (not the per-client rng), so clients at
    the same point of their streams converge on the same few accounts —
    that cross-client pile-up is what makes the burst contended.
    """
    crowd_rng = random.Random(0x9E3779B1 * (seed + 1) + burst)
    size = min(_CROWD_SIZE, accounts)
    return tuple(crowd_rng.sample(range(accounts), size))


def _flash_crowd_picker(rng: random.Random, accounts: int, seed: int) -> Picker:
    """Bursty picker: all picks land in a small crowd that periodically moves.

    Stateful — every ``_BURST_LEN`` picks the crowd jumps to a fresh set of
    accounts (deterministic in ``seed`` and the burst index), modelling a
    flash crowd: a stampede on a handful of keys, then calm, then the next
    stampede somewhere else.
    """
    state = {"picks": 0, "burst": 0, "crowd": _crowd_for(seed, 0, accounts)}

    def pick() -> int:
        if state["picks"] >= _BURST_LEN:
            state["picks"] = 0
            state["burst"] += 1
            state["crowd"] = _crowd_for(seed, state["burst"], accounts)
        state["picks"] += 1
        return rng.choice(state["crowd"])

    return pick


def _make_read(rng: random.Random, pick: Picker) -> WorkItem:
    a = pick()
    b = pick()

    def read(handle: SnapshotTransaction) -> bool:
        hit = handle.contains("E", (min(a, b), max(a, b)))
        # a predicate read: does `a` refer anyone? (validated incrementally)
        active = handle.evaluate(_OUT_DEGREE, x=a)
        return hit or active

    return WorkItem("read", None, (a, b), read)


def _make_link(rng: random.Random, pick: Picker) -> WorkItem:
    a = pick()
    b = pick()
    while b == a:
        b = pick()
    a, b = min(a, b), max(a, b)

    def link(handle: SnapshotTransaction) -> bool:
        return handle.insert("E", (a, b))

    return WorkItem("link-forward", "link-forward", (a, b), link)


def _make_check_link(rng: random.Random, pick: Picker) -> WorkItem:
    """Read-then-link: validate the referrer is active, then insert.

    The tracked predicate read puts every edge out of ``a`` into the
    transaction's validated footprint, so a concurrent commit touching the
    same (hot) account invalidates this attempt and forces a retry — the
    contention signal the ``hot-key`` scenario exists to measure.
    """
    a = pick()
    b = pick()
    while b == a:
        b = pick()
    a, b = min(a, b), max(a, b)

    def check_link(handle: SnapshotTransaction) -> bool:
        handle.evaluate(_OUT_DEGREE, x=a)
        return handle.insert("E", (a, b))

    return WorkItem("link-forward", "link-forward", (a, b), check_link)


def _make_unlink(rng: random.Random, pick: Picker) -> WorkItem:
    a = pick()
    b = pick()
    a, b = min(a, b), max(a, b)

    def unlink(handle: SnapshotTransaction) -> bool:
        return handle.delete("E", (a, b))

    return WorkItem("unlink", "unlink", (a, b), unlink)


def _make_add_edge(rng: random.Random, pick: Picker) -> WorkItem:
    a = pick()
    # ~10% loops, ~45% back-edges, rest forward — the risky template
    roll = rng.random()
    if roll < 0.10:
        b = a
    else:
        b = pick()
        if roll < 0.55 and b != a:
            a, b = max(a, b), min(a, b)

    def add_edge(handle: SnapshotTransaction) -> bool:
        return handle.insert("E", (a, b))

    return WorkItem("add-edge", "add-edge", (a, b), add_edge)


_MAKERS = {
    "read": _make_read,
    "link-forward": _make_link,
    "unlink": _make_unlink,
    "add-edge": _make_add_edge,
}

#: scenario-specific maker overrides (the contended scenarios link via
#: validate-then-write, which is what turns key skew into observable
#: optimistic conflicts)
_SCENARIO_MAKERS = {
    "hot-key": {**_MAKERS, "link-forward": _make_check_link},
    "flash-crowd": {**_MAKERS, "link-forward": _make_check_link},
}

#: scenario-specific account-picker factories, ``(rng, accounts, seed) ->
#: Picker``; scenarios not listed here pick uniformly
_SCENARIO_PICKERS: Dict[str, Callable[[random.Random, int, int], Picker]] = {
    "hot-key": lambda rng, accounts, seed: _zipf_picker(rng, accounts),
    "flash-crowd": _flash_crowd_picker,
}


def build_streams(
    scenario: str,
    clients: int,
    ops_per_client: int,
    accounts: int,
    seed: Optional[int] = None,
) -> List[List[WorkItem]]:
    """Per-client operation streams for ``scenario``, fully seed-determined.

    ``seed`` defaults to ``REPRO_SEED`` (then 0), so the exact streams of a
    failing CI run or benchmark reproduce from its recorded seed.
    """
    if seed is None:
        seed = default_seed()
    if scenario not in _MIXES:
        raise ServiceError(f"unknown scenario {scenario!r}; have {SCENARIOS}")
    read_w, link_w, unlink_w, add_w = _MIXES[scenario]
    kinds = ("read", "link-forward", "unlink", "add-edge")
    weights = (read_w, link_w, unlink_w, add_w)
    make_picker = _SCENARIO_PICKERS.get(
        scenario, lambda rng, accounts, seed: _uniform_picker(rng, accounts)
    )
    makers = _SCENARIO_MAKERS.get(scenario, _MAKERS)
    streams: List[List[WorkItem]] = []
    for client in range(clients):
        rng = random.Random(1_000_003 * (seed + 1) + client)
        pick = make_picker(rng, accounts, seed)
        stream = [
            makers[rng.choices(kinds, weights)[0]](rng, pick)
            for _ in range(ops_per_client)
        ]
        streams.append(stream)
    return streams


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

#: per-op completion-time histogram bounds (milliseconds)
_LATENCY_MS_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
                       100.0, 250.0, 500.0, 1000.0)


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (0 if empty)."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
    return ordered[rank]


@dataclass
class WorkloadReport:
    """Outcome and throughput statistics of one workload run."""

    scenario: str
    mode: str  # "service" | "serial"
    workers: int
    ops: int = 0
    committed: int = 0
    read_only: int = 0
    rejected: int = 0
    aborted: int = 0
    conflicts: int = 0
    serial_fallbacks: int = 0
    batches: int = 0
    batched_commits: int = 0
    max_batch: int = 0
    seconds: float = 0.0
    #: per-operation completion times in milliseconds (one ``execute`` call,
    #: first attempt through retries to a definitive outcome): p50/p95/p99
    latency_p50_ms: float = 0.0
    latency_p95_ms: float = 0.0
    latency_p99_ms: float = 0.0
    latency_max_ms: float = 0.0
    service_stats: Dict[str, int] = field(default_factory=dict)

    def record_latencies(self, seconds_per_op: Sequence[float]) -> None:
        """Fold per-op completion times (seconds) into the tail summary."""
        ordered = sorted(seconds_per_op)
        self.latency_p50_ms = _percentile(ordered, 0.50) * 1e3
        self.latency_p95_ms = _percentile(ordered, 0.95) * 1e3
        self.latency_p99_ms = _percentile(ordered, 0.99) * 1e3
        self.latency_max_ms = ordered[-1] * 1e3 if ordered else 0.0

    @property
    def throughput(self) -> float:
        """Completed transactions (any outcome) per second."""
        return self.ops / self.seconds if self.seconds > 0 else 0.0

    @property
    def abort_rate(self) -> float:
        """Fraction of optimistic attempts that conflicted and retried."""
        attempts = self.ops + self.conflicts
        return self.conflicts / attempts if attempts else 0.0

    @property
    def mean_batch(self) -> float:
        return self.batched_commits / self.batches if self.batches else 0.0

    def summary(self) -> str:
        return (
            f"{self.scenario}/{self.mode} x{self.workers}: "
            f"{self.ops} txns in {self.seconds:.2f}s "
            f"({self.throughput:.0f} txn/s), "
            f"{self.committed} committed, {self.rejected} rejected, "
            f"{self.aborted} aborted, abort-rate {self.abort_rate:.1%}, "
            f"mean batch {self.mean_batch:.1f}, "
            f"p50 {self.latency_p50_ms:.2f}ms / p99 {self.latency_p99_ms:.2f}ms"
        )


def run_workload(
    service: TransactionService,
    streams: Sequence[Sequence[WorkItem]],
    workers: Optional[int] = None,
) -> WorkloadReport:
    """Drive ``streams`` through the service, one worker thread per client.

    ``workers`` caps the thread count (defaults to ``REPRO_SERVICE_WORKERS``,
    then 8); streams beyond the cap are distributed round-robin over the
    workers, so the op multiset is identical at any worker count.
    """
    if workers is None:
        workers = default_workers()
    workers = max(1, min(workers, len(streams) or 1))
    assigned: List[List[WorkItem]] = [[] for _ in range(workers)]
    for index, stream in enumerate(streams):
        assigned[index % workers].extend(stream)
    outcomes: List[List[TxnOutcome]] = [[] for _ in range(workers)]
    latencies: List[List[float]] = [[] for _ in range(workers)]
    errors: List[BaseException] = []
    latency_hist = _metrics.get_registry().histogram(
        "service.workload.latency_ms", buckets=_LATENCY_MS_BUCKETS
    )

    def worker(slot: int) -> None:
        try:
            for item in assigned[slot]:
                begun = time.perf_counter()
                outcome = service.execute(
                    item.fn, template=item.template, params=item.params
                )
                elapsed = time.perf_counter() - begun
                latency_hist.observe(elapsed * 1e3)
                latencies[slot].append(elapsed)
                outcomes[slot].append(outcome)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(slot,), name=f"workload-{slot}")
        for slot in range(workers)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - started
    if errors:
        raise errors[0]

    stats = service.stats.as_dict()
    report = WorkloadReport(
        scenario="?", mode="service", workers=workers, seconds=seconds,
        service_stats=stats,
    )
    for slot_outcomes in outcomes:
        for outcome in slot_outcomes:
            report.ops += 1
            if outcome.status == "committed":
                report.committed += 1
            elif outcome.status == "rejected":
                report.rejected += 1
            else:
                report.aborted += 1
            report.conflicts += outcome.attempts - 1
    report.read_only = stats["read_only_commits"]
    report.serial_fallbacks = stats["serial_fallbacks"]
    report.batches = stats["batches"]
    report.batched_commits = stats["batched_commits"]
    report.max_batch = stats["max_batch"]
    report.record_latencies([sample for slot in latencies for sample in slot])
    return report


def run_serial_baseline(
    store: Store,
    constraints: Sequence[Constraint],
    streams: Sequence[Sequence[WorkItem]],
) -> WorkloadReport:
    """The pre-service execution model, for the E16 comparison.

    One transaction at a time: run the closure against the committed
    snapshot, re-check **every** constraint on the tentative post-state
    (runtime monitoring — no admission verdicts, no batching), then commit or
    discard individually.
    """
    report = WorkloadReport(scenario="?", mode="serial", workers=1)
    latencies: List[float] = []
    started = time.perf_counter()
    for stream in streams:
        for item in stream:
            report.ops += 1
            begun = time.perf_counter()
            version, snapshot = store.pin()
            handle = SnapshotTransaction(snapshot, version)
            item.fn(handle)
            delta = handle.delta()
            if delta.is_empty():
                report.committed += 1
                report.read_only += 1
                latencies.append(time.perf_counter() - begun)
                continue
            candidate = snapshot.apply_delta(delta)
            if all(c.holds(candidate) for c in constraints):
                store.begin()
                store.apply_delta(delta)
                store.commit_unchecked()
                report.committed += 1
            else:
                report.aborted += 1
            latencies.append(time.perf_counter() - begun)
    report.seconds = time.perf_counter() - started
    report.record_latencies(latencies)
    return report
