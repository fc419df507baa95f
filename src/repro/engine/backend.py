"""Evaluation backends: the engine's front door.

A :class:`Backend` answers the two questions every consumer in the repo asks:

* ``evaluate(formula, db, assignment)`` — does ``D |= phi`` hold?
* ``extension(formula, db, variables)`` — which tuples satisfy ``phi``?

Two implementations are provided:

* :class:`NaiveBackend` — the original tuple-at-a-time recursive interpreter
  (:class:`repro.logic.evaluation.Model`), kept as the semantics oracle;
* :class:`CompiledBackend` — compiles formulas once to set-at-a-time algebra
  plans (:mod:`repro.engine.compile`) and executes them against indexed
  databases, with a per-``(formula, db)`` memo for repeated checks (the shape
  of every validation sweep and of integrity maintenance: the same constraint
  or precondition evaluated against a stream of databases).

The *active* backend is process-global, defaults to the compiled engine, and
can be chosen with ``REPRO_BACKEND=naive|compiled`` in the environment, with
:func:`set_backend`, or temporarily with the :func:`using_backend` context
manager.  ``repro.logic.evaluation.evaluate`` / ``extension`` / ``satisfies``
dispatch through it, so the whole repo switches engines in one place.
"""

from __future__ import annotations

import os
import threading
import warnings
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import (
    Dict,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..db.database import Database, DatabaseError
from ..logic.signature import EMPTY_SIGNATURE, Signature, SignatureError
from ..logic.syntax import Formula
from ..obs import metrics as _metrics
from ..obs.profile import PlanProfiler, observe_estimation
from .compile import CompileError, compile_extension
from .delta import DeltaFallback, PlanState, incremental_update
from .optimize import (
    Estimator,
    OptimizerParams,
    canonical_plan,
    estimate_naive_cost,
    explain_plan,
    optimize_plan,
)
from .plan import ExecutionContext, Plan
from .stats import size_bucket

__all__ = [
    "Backend",
    "NaiveBackend",
    "CompiledBackend",
    "active_backend",
    "set_backend",
    "using_backend",
    "backend_from_name",
    "OPTIMIZER_ENV",
]

Row = Tuple[object, ...]

# sentinel cached for formulas the compiler rejected (avoids re-compiling)
_UNCOMPILABLE = object()
# how far up a database's apply_delta ancestry to look for a usable state
_MAX_PROVENANCE_CHAIN = 16
# never fall back to the interpreter when its estimated cost exceeds this —
# a misestimated plan is recoverable, an interpreter run over a huge domain
# product is not
_NAIVE_FALLBACK_CAP = 250_000.0
# ...and never abandon a plan this cheap: small plans execute in microseconds
# anyway, and keeping them keeps the incremental delta path alive for update
# streams over small databases
_NAIVE_FALLBACK_FLOOR = 512.0
# plans already costed below this are not worth a rewrite pass: the join
# reorderer's own overhead would exceed anything it could save (tiny
# databases, trivial formulas) — they are canonicalised and run as-is
_OPT_SKIP_COST = 256.0
# below this many total database rows, optimization is *lazy*: an entry is
# only optimized at its third request, so one-shot formulas (the
# per-transaction weakest preconditions of a maintenance stream especially)
# never pay for a rewrite they cannot amortise.  At or above it, a single
# execution dwarfs optimization time and the rewrite happens eagerly.
_OPT_EAGER_ROWS = 1024
_OPT_JIT_REQUESTS = 3
# structural-interning table size before it is wiped (a safety valve; real
# workloads stay far below it)
_CANON_CAP = 16_384

#: environment knob selecting the cost-based optimizer mode
OPTIMIZER_ENV = "REPRO_OPTIMIZER"


def _delta_mode_from_env() -> str:
    """The incremental-evaluation mode selected by ``REPRO_DELTA``."""
    value = os.environ.get("REPRO_DELTA", "on").strip().lower()
    if value in ("on", "1", "true", "yes", ""):
        return "on"
    if value in ("off", "0", "false", "no"):
        return "off"
    if value == "verify":
        return "verify"
    warnings.warn(
        f"ignoring invalid REPRO_DELTA={value!r}; expected 'on', 'off' or "
        "'verify' — using 'on'",
        RuntimeWarning,
        stacklevel=2,
    )
    return "on"


#: CompiledBackend counter attribute -> canonical dotted metric name (the
#: legacy ``cache_stats()`` keys stay unchanged; this is the registry side)
_BACKEND_METRICS = {
    "fallbacks": "engine.compile.fallbacks",
    "delta_hits": "engine.delta.hits",
    "delta_misses": "engine.delta.misses",
    "plans_rewritten": "engine.optimizer.plans_rewritten",
    "join_reorders": "engine.optimizer.join_reorders",
    "shared_subplans": "engine.optimizer.shared_subplans",
    "complements_avoided": "engine.optimizer.complements_avoided",
    "naive_wins": "engine.optimizer.naive_wins",
    "estimation_checks": "engine.optimizer.estimation_checks",
    "estimation_error": "engine.optimizer.estimation_error",
}


def _optimizer_mode_from_env() -> str:
    """The optimizer mode selected by ``REPRO_OPTIMIZER``.

    ``on`` (the default) rewrites plans cost-based; ``off`` executes the
    compiler's syntactic plans unchanged; ``explain`` is ``on`` plus
    estimated-vs-actual cardinality tracking on every full execution (the
    ``estimation_error`` counter in :meth:`CompiledBackend.cache_stats`).
    """
    value = os.environ.get(OPTIMIZER_ENV, "on").strip().lower()
    if value in ("on", "1", "true", "yes", ""):
        return "on"
    if value in ("off", "0", "false", "no"):
        return "off"
    if value == "explain":
        return "explain"
    warnings.warn(
        f"ignoring invalid {OPTIMIZER_ENV}={value!r}; expected 'on', 'off' "
        "or 'explain' — using 'on'",
        RuntimeWarning,
        stacklevel=2,
    )
    return "on"


class Backend:
    """Protocol of an evaluation backend."""

    name = "abstract"

    def evaluate(
        self,
        formula: Formula,
        db: Database,
        assignment: Optional[Mapping[str, object]] = None,
        signature: Signature = EMPTY_SIGNATURE,
        domain: Optional[Iterable[object]] = None,
    ) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def extension(
        self,
        formula: Formula,
        db: Database,
        variables: Sequence[str],
        signature: Signature = EMPTY_SIGNATURE,
        domain: Optional[Iterable[object]] = None,
    ) -> Set[Row]:  # pragma: no cover - interface
        raise NotImplementedError

    def evaluate_many(
        self,
        formulas: Sequence[Formula],
        db: Database,
        signature: Signature = EMPTY_SIGNATURE,
        domain: Optional[Iterable[object]] = None,
    ) -> Tuple[bool, ...]:
        """Evaluate a whole constraint set against one database.

        The base implementation just loops; the compiled backend makes the
        batch cheaper than the sum of its parts by interning structurally
        shared sub-plans across the set and materialising each shared
        intermediate once per database (see ``docs/optimizer.md``).
        """
        domain_key = None if domain is None else frozenset(domain)
        return tuple(
            self.evaluate(formula, db, None, signature, domain_key)
            for formula in formulas
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class NaiveBackend(Backend):
    """The recursive tuple-at-a-time interpreter (the semantics oracle)."""

    name = "naive"

    def evaluate(self, formula, db, assignment=None, signature=EMPTY_SIGNATURE, domain=None):
        from ..logic.evaluation import Model

        return Model(db, signature, domain).check(formula, assignment)

    def extension(self, formula, db, variables, signature=EMPTY_SIGNATURE, domain=None):
        from ..logic.evaluation import Model

        return Model(db, signature, domain).extension(formula, list(variables))


class _LRU:
    """A tiny bounded LRU mapping (thread-safe enough for CPython use here)."""

    __slots__ = ("maxsize", "_data", "_lock")

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._data: "OrderedDict" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, default=None):
        with self._lock:
            try:
                value = self._data[key]
            except (KeyError, TypeError):
                return default
            self._data.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        with self._lock:
            try:
                self._data[key] = value
            except TypeError:  # unhashable key component
                return
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class CompiledBackend(Backend):
    """Set-at-a-time evaluation through compiled relational-algebra plans.

    Two caches make the common access patterns cheap:

    * a **plan cache** keyed by ``(formula, variables)`` — plans are
      database-independent, so a constraint checked against hundreds of
      databases is compiled exactly once;
    * a **result memo**, weakly keyed by database, mapping ``(formula,
      variables, domain, signature)`` to the computed extension — databases
      are immutable value objects, so memoised extensions stay valid for as
      long as the database lives, and die with it (a long transaction stream
      over ever-new states retains nothing).  Repeated ``D |= phi`` checks
      (e.g. one candidate tuple at a time against the same database, the
      integrity-maintenance hot path) collapse into one plan execution plus
      set membership.  ``memo_size`` bounds the entries *per database*.

    A third mechanism makes the *update* hot path cheap: when a database was
    produced by :meth:`repro.db.database.Database.apply_delta` (every
    functional update and store snapshot is), the backend looks up the parent
    state's per-node plan results and re-derives the new extension through the
    incremental delta rules of :mod:`repro.engine.delta` — work proportional
    to the delta, not the database.  ``REPRO_DELTA=on|off|verify`` (or the
    ``delta`` constructor argument) controls this: ``verify`` shadows every
    incremental result with a full execution and asserts they agree.

    When compilation fails (a formula type the compiler does not know) the
    backend transparently falls back to the naive interpreter — and memoises
    the interpreter's result exactly like a compiled one, so repeated checks
    of an uncompilable constraint against the same database do not re-run the
    interpreter.
    """

    name = "compiled"

    def __init__(
        self,
        plan_cache_size: int = 2048,
        memo_size: int = 512,
        delta: Optional[str] = None,
        state_history: int = 8,
        optimizer: Optional[str] = None,
    ):
        self._plans: _LRU = _LRU(plan_cache_size)
        self._memo_size = memo_size
        self._memo: "weakref.WeakKeyDictionary[Database, _LRU]" = (
            weakref.WeakKeyDictionary()
        )
        # the weak-keyed memo dict and the bare int counters are shared by
        # every worker thread of the transaction service; all access goes
        # through these locks (the per-database _LRU values lock themselves)
        self._memo_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._naive = NaiveBackend()
        self.fallbacks = 0
        if delta is None:
            delta = _delta_mode_from_env()
        if delta not in ("on", "off", "verify"):
            raise ValueError(
                f"unknown delta mode {delta!r}; expected 'on', 'off' or 'verify'"
            )
        self.delta_mode = delta
        # per-(db, memo key) node-level plan states for incremental updates.
        # Unlike the result memo this holds the database *strongly*: in the
        # canonical stream pattern (``db = db.apply_delta(...)`` in a loop,
        # the store patching its snapshot) the parent loses its last strong
        # reference the moment the successor exists, which would sever the
        # provenance weakref before the next evaluation can use it.  The
        # history is a small LRU (``state_history`` databases), so a long
        # stream still retains only its recent past.
        self._state_history = state_history
        self._states: "OrderedDict[int, Tuple[Database, Dict[Tuple, PlanState]]]" = (
            OrderedDict()
        )
        self._states_lock = threading.Lock()
        self.delta_hits = 0
        self.delta_misses = 0
        # -- the cost-based optimizer (REPRO_OPTIMIZER / `optimizer` arg) ----
        if optimizer is None:
            optimizer = _optimizer_mode_from_env()
        if optimizer not in ("on", "off", "explain"):
            raise ValueError(
                f"unknown optimizer mode {optimizer!r}; expected 'on', 'off' "
                "or 'explain'"
            )
        self.optimizer_mode = optimizer
        # (syntactic plan, domain default?, stats profile) -> ("plan", plan,
        # root estimate) or ("naive", None, naive cost): one optimization per
        # plan shape per database-size profile, shared across every database
        # matching it.  Keyed by the cached plan *object* (identity hash, the
        # key tuple keeps it alive) so the lookup never re-hashes a formula.
        self._opt_plans: _LRU = _LRU(plan_cache_size)
        self._opt_lock = threading.Lock()
        # structural-interning table + the sub-plans two constraints share
        self._canon: Dict[Tuple, Plan] = {}
        self._shared_nodes: Set[Plan] = set()
        # per-database rows of shared intermediates (weakly keyed, like the
        # result memo): a sub-plan two constraints have in common is executed
        # once per (db, domain, signature) and reused by the second constraint
        self._shared_rows: "weakref.WeakKeyDictionary[Database, _LRU]" = (
            weakref.WeakKeyDictionary()
        )
        self._shared_rows_lock = threading.Lock()
        self.plans_rewritten = 0
        self.join_reorders = 0
        self.shared_subplans = 0
        self.complements_avoided = 0
        self.naive_wins = 0
        self.estimation_checks = 0
        self.estimation_error = 0
        # the registry twins of the bare-int counters above: _bump dual-writes
        # into these, so the process-wide metrics snapshot carries the same
        # numbers under the dotted scheme (docs/observability.md).  With
        # REPRO_METRICS=off they are the shared no-op instrument.
        registry = _metrics.get_registry()
        self._metric_counters = {
            attr: registry.counter(name) for attr, name in _BACKEND_METRICS.items()
        }
        self._m_memo_hits = registry.counter("engine.plan_cache.hits")
        self._m_memo_misses = registry.counter("engine.plan_cache.misses")

    # -- cache plumbing --------------------------------------------------------

    def clear_caches(self) -> None:
        self._plans.clear()
        self._opt_plans.clear()
        with self._memo_lock:
            self._memo.clear()
        with self._states_lock:
            self._states.clear()
        with self._opt_lock:
            self._canon.clear()
            self._shared_nodes.clear()
        with self._shared_rows_lock:
            self._shared_rows.clear()

    def cache_stats(self) -> Dict[str, int]:
        with self._states_lock:
            states = sum(len(states) for _db, states in self._states.values())
        with self._memo_lock:
            memo = sum(len(lru) for lru in self._memo.values())
        with self._shared_rows_lock:
            shared_rows = sum(len(lru) for lru in self._shared_rows.values())
        return {
            "plans": len(self._plans),
            "memo": memo,
            "states": states,
            "optimized_plans": len(self._opt_plans),
            "plans_rewritten": self.plans_rewritten,
            "join_reorders": self.join_reorders,
            "shared_subplans": self.shared_subplans,
            "complements_avoided": self.complements_avoided,
            "naive_wins": self.naive_wins,
            "shared_intermediates": shared_rows,
            "estimation_checks": self.estimation_checks,
            "estimation_error": self.estimation_error,
        }

    def _bump(self, counter: str, amount: int = 1) -> None:
        """Thread-safe increment of a public statistics counter."""
        with self._counter_lock:
            setattr(self, counter, getattr(self, counter) + amount)
        instrument = self._metric_counters.get(counter)
        if instrument is not None:
            instrument.inc(amount)

    def _memo_for(self, db: Database) -> _LRU:
        with self._memo_lock:
            lru = self._memo.get(db)
            if lru is None:
                lru = _LRU(self._memo_size)
                self._memo[db] = lru
            return lru

    def plan_for(self, formula: Formula, variables: Tuple[str, ...]) -> Plan:
        """The (cached) compiled plan for ``formula`` over ``variables``.

        Known-uncompilable formulas are cached too (as a sentinel), so a
        formula the compiler rejects is not re-compiled on every check.
        """
        key = (formula, variables)
        plan = self._plans.get(key)
        if plan is _UNCOMPILABLE:
            raise CompileError(f"formula {formula!r} is not compilable (cached)")
        if plan is None:
            try:
                plan = compile_extension(formula, variables)
            except CompileError:
                self._plans.put(key, _UNCOMPILABLE)
                raise
            self._plans.put(key, plan)
        return plan

    # -- cost-based plan selection ----------------------------------------------

    def _optimizer_params(self) -> OptimizerParams:
        """The cost-model configuration (the sharded backend overrides this)."""
        return OptimizerParams()

    def _plan_for_execution(
        self,
        formula: Formula,
        variables: Tuple[str, ...],
        db: Database,
        domain_key: Optional[frozenset],
    ) -> Optional[Plan]:
        """The plan to run for ``formula`` against ``db`` — or ``None``.

        With the optimizer off this is the compiler's plan verbatim.  With it
        on, the plan is rewritten cost-based for the database's statistics
        profile (cached per profile), canonicalised against the backend's
        structural-interning table, and priced against the naive interpreter;
        ``None`` means the interpreter is estimated cheaper than every plan
        the optimizer could find (the cheap-plan fallback — never run a plan
        costed worse than naive evaluation).  Raises :class:`CompileError`
        exactly like :meth:`plan_for`.
        """
        plan = self.plan_for(formula, variables)
        if self.optimizer_mode == "off":
            return plan
        if domain_key is None:
            domain_size = len(db.active_domain)
            default_domain = True
        else:
            domain_size = len(domain_key)
            default_domain = False
        sizes = [len(db.relation(name)) for name in db.schema.relation_names]
        profile = (
            tuple(size_bucket(size) for size in sizes),
            size_bucket(domain_size),
        )
        key = (plan, default_domain, profile)
        entry = self._opt_plans.get(key)
        if entry is None and sum(sizes) < _OPT_EAGER_ROWS:
            # small database: count requests instead of optimizing —
            # see _OPT_EAGER_ROWS above
            self._opt_plans.put(key, ("count", plan, 1))
            return plan
        if entry is not None and entry[0] == "count":
            requests = entry[2] + 1
            if requests < _OPT_JIT_REQUESTS:
                self._opt_plans.put(key, ("count", plan, requests))
                return plan
            entry = None  # third request: the entry has earned a rewrite
        if entry is None:
            entry = self._optimize_entry(
                formula, variables, plan, db, domain_size, default_domain
            )
            self._opt_plans.put(key, entry)
        kind, chosen, _estimate = entry
        if kind != "naive":
            return chosen
        if db.provenance_step() is not None:
            # the database is part of an update stream: the plan amortises
            # through the incremental delta path (O(|delta|) per step),
            # which the one-shot interpreter never can — keep the plan
            return chosen
        return None

    def _optimize_entry(
        self,
        formula: Formula,
        variables: Tuple[str, ...],
        plan: Plan,
        db: Database,
        domain_size: int,
        default_domain: bool,
    ) -> Tuple[str, Optional[Plan], float]:
        params = self._optimizer_params()
        stats = db.stats()
        estimator = Estimator(stats, domain_size, default_domain, params)
        syntactic_cost = estimator.cost(plan)
        best = plan
        if syntactic_cost >= _OPT_SKIP_COST:
            try:
                best, info = optimize_plan(
                    plan, stats, domain_size, default_domain, params, estimator
                )
            except Exception as exc:  # a failed rewrite must never break evaluation
                warnings.warn(
                    f"plan optimization failed for {formula!r}: {exc!r} — "
                    "keeping the syntactic plan",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return ("plan", plan, -1.0)
            naive_cost = estimate_naive_cost(formula, variables, domain_size)
            if (
                naive_cost < _NAIVE_FALLBACK_CAP
                and info.optimized_cost > _NAIVE_FALLBACK_FLOOR
                and info.optimized_cost > naive_cost * params.naive_margin
            ):
                # the entry keeps the best plan anyway: provenance-bearing
                # databases (update streams) still run it incrementally
                return ("naive", best, naive_cost)
            if info.rewritten:
                self._bump("plans_rewritten")
                if info.join_reorders:
                    self._bump("join_reorders", info.join_reorders)
            if info.complements_avoided:
                self._bump("complements_avoided", info.complements_avoided)
        with self._opt_lock:
            if len(self._canon) > _CANON_CAP:
                self._canon.clear()
                self._shared_nodes.clear()
            best, hits = canonical_plan(best, self._canon, self._shared_nodes)
        if hits:
            self._bump("shared_subplans", hits)
        return ("plan", best, estimator.estimate(best).rows)

    # -- the Backend API --------------------------------------------------------

    def extension(self, formula, db, variables, signature=EMPTY_SIGNATURE, domain=None):
        variables = tuple(variables)
        missing = formula.free_variables() - set(variables)
        if missing:
            from ..logic.evaluation import EvaluationError

            raise EvaluationError(
                f"extension over {list(variables)} leaves variables {sorted(missing)} free"
            )
        # materialise the domain once: `domain` may be a one-shot iterable,
        # and it is needed both for the memo key and for execution/fallback
        domain_key = None if domain is None else frozenset(domain)
        memo = self._memo_for(db)
        memo_key = (formula, variables, domain_key, signature)
        cached = memo.get(memo_key)
        if cached is not None:
            self._m_memo_hits.inc()
            if self.delta_mode != "off" and self._state_for(db, memo_key) is None:
                # the result memo is *content*-keyed, so a database that
                # round-tripped back to a known state hits it without ever
                # recording node-level plan states for this object — derive
                # them through the (usually empty) composed delta so the
                # provenance chain stays warm for the next update
                try:
                    plan = self._plan_for_execution(formula, variables, db, domain_key)
                except CompileError:
                    return set(cached)
                if plan is not None:
                    ctx = ExecutionContext(db, domain_key, signature)
                    self._incremental_extension(plan, db, memo_key, ctx, warming=True)
            return set(cached)
        self._m_memo_misses.inc()
        try:
            plan = self._plan_for_execution(formula, variables, db, domain_key)
        except CompileError:
            # interpreter fallback — memoised exactly like a compiled result,
            # so a repeated check against the same database is a lookup
            self._bump("fallbacks")
            rows = frozenset(
                self._naive.extension(formula, db, variables, signature, domain_key)
            )
            memo.put(memo_key, rows)
            return set(rows)
        if plan is None:
            # the optimizer priced every plan worse than the interpreter —
            # run (and memoise) the interpreter instead of a known-bad plan
            self._bump("naive_wins")
            rows = frozenset(
                self._naive.extension(formula, db, variables, signature, domain_key)
            )
            memo.put(memo_key, rows)
            return set(rows)
        ctx = ExecutionContext(db, domain_key, signature)
        rows = None
        if self.delta_mode != "off":
            rows = self._incremental_extension(plan, db, memo_key, ctx)
        return self._finish_extension(plan, db, memo_key, ctx, memo, rows)

    def _finish_extension(self, plan, db, memo_key, ctx, memo, rows):
        """Full execution (when the incremental path declined) plus memoing."""
        if rows is None:
            try:
                rows = self._execute_plan(plan, ctx)
            except (DatabaseError, SignatureError) as exc:
                # match the interpreter's error contract (missing relations or
                # Omega symbols surface as EvaluationError)
                from ..logic.evaluation import EvaluationError

                raise EvaluationError(str(exc)) from exc
            if self.delta_mode != "off":
                self._remember_state(db, memo_key, self._plan_state_from(ctx))
            if self.optimizer_mode == "explain":
                self._record_estimation(plan, db, memo_key, rows)
        memo.put(memo_key, rows)
        return set(rows)

    def _record_estimation(self, plan, db, memo_key, rows) -> None:
        """Explain mode: score the root estimate against the actual result."""
        domain_key = memo_key[2]
        domain_size = len(domain_key) if domain_key is not None else len(db.active_domain)
        try:
            estimator = Estimator(
                db.stats(), domain_size, domain_key is None, self._optimizer_params()
            )
            estimate = estimator.estimate(plan).rows
        except Exception:  # estimation must never break evaluation
            return
        self._bump("estimation_checks")
        actual = float(len(rows))
        ratio = observe_estimation(estimate, actual)
        if ratio > 4.0:
            self._bump("estimation_error")

    def explain(
        self,
        formula: Formula,
        db: Database,
        variables: Sequence[str] = (),
        signature: Signature = EMPTY_SIGNATURE,
        domain: Optional[Iterable[object]] = None,
    ) -> str:
        """A human-readable optimizer report for ``formula`` against ``db``.

        Shows the plan the backend would execute, its estimated and *actual*
        per-node cardinalities (the formula is executed once to measure
        them), the modelled costs of the syntactic and optimized plans, and
        the interpreter yardstick — the tool for diagnosing why the
        optimizer picked (or refused) a shape.
        """
        variables = tuple(variables)
        domain_key = None if domain is None else frozenset(domain)
        domain_size = (
            len(domain_key) if domain_key is not None else len(db.active_domain)
        )
        original = self.plan_for(formula, variables)  # CompileError propagates
        params = self._optimizer_params()
        stats = db.stats()
        estimator = Estimator(stats, domain_size, domain_key is None, params)
        naive_cost = estimate_naive_cost(formula, variables, domain_size)
        chosen = self._plan_for_execution(formula, variables, db, domain_key)
        lines = [
            f"formula: {formula}",
            f"optimizer: {self.optimizer_mode}  domain={domain_size}  "
            f"naive_cost~{naive_cost:.0f}",
        ]
        if chosen is None:
            lines.append(
                "chosen: naive interpreter (every plan costed worse than "
                f"{params.naive_margin:.1f}x the interpreter)"
            )
            lines.append("rejected plan:")
            lines.append(explain_plan(original, estimator))
            return "\n".join(lines)
        ctx = ExecutionContext(db, domain_key, signature)
        ctx.profiler = PlanProfiler()
        self._execute_plan(chosen, ctx)
        lines.append(
            f"chosen: {'optimized' if chosen is not original else 'syntactic'} plan "
            f"(cost~{estimator.cost(chosen):.0f}, syntactic~{estimator.cost(original):.0f})"
        )
        lines.append(explain_plan(chosen, estimator, ctx.cache, ctx.profiler))
        return "\n".join(lines)

    def _execute_plan(self, plan: Plan, ctx: ExecutionContext) -> frozenset:
        """Full (non-incremental) plan execution — the sharded backend's hook.

        Sub-plans the structural interner identified as shared between
        constraints are seeded from (and saved to) a per-database memo, so
        evaluating a whole constraint set against one database computes each
        common intermediate once.  A seeded entry carries its entire
        sub-DAG's rows, which keeps the remembered node-level plan states
        complete for the incremental delta path.
        """
        shared = self._shared_in(plan)
        if shared:
            lru = self._shared_rows_for(ctx.db, create=False)
            if lru is not None:
                for node in shared:
                    hit = lru.get((node, ctx.domain, ctx.signature))
                    if hit is not None:
                        ctx.cache.update(hit)
        rows = plan.rows(ctx)
        if shared:
            lru = self._shared_rows_for(ctx.db, create=True)
            for node in shared:
                if node in ctx.cache:
                    lru.put(
                        (node, ctx.domain, ctx.signature), self._subtree_rows(node, ctx)
                    )
        return rows

    def _shared_in(self, plan: Plan) -> Tuple[Plan, ...]:
        """The nodes of ``plan``'s DAG known to be shared with other plans."""
        shared_nodes = self._shared_nodes
        if not shared_nodes:
            return ()
        found = []
        seen: Set[Plan] = set()
        stack = [plan]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node in shared_nodes and node is not plan:
                found.append(node)
                continue  # the whole subtree rides along with its root
            stack.extend(node.children())
        return tuple(found)

    @staticmethod
    def _subtree_rows(node: Plan, ctx: ExecutionContext) -> Dict[Plan, frozenset]:
        """``{node: rows}`` for the node's whole evaluated sub-DAG."""
        rows: Dict[Plan, frozenset] = {}
        stack = [node]
        while stack:
            current = stack.pop()
            if current in rows:
                continue
            cached = ctx.cache.get(current)
            if cached is None:
                continue
            rows[current] = cached
            stack.extend(current.children())
        return rows

    def _shared_rows_for(self, db: Database, create: bool) -> Optional[_LRU]:
        with self._shared_rows_lock:
            lru = self._shared_rows.get(db)
            if lru is None and create:
                lru = _LRU(self._memo_size)
                self._shared_rows[db] = lru
            return lru

    def _plan_state_from(self, ctx: ExecutionContext) -> PlanState:
        """The rememberable node-level state of a full execution (hook)."""
        return PlanState(dict(ctx.cache))

    # -- incremental (delta) evaluation -----------------------------------------

    def _state_for(self, db: Database, memo_key: Tuple) -> Optional[PlanState]:
        key = id(db)
        with self._states_lock:
            entry = self._states.get(key)
            if entry is None or entry[0] is not db:
                return None
            state = entry[1].get(memo_key)
            if state is not None:
                # a hit marks the base as hot: the stream pattern keeps
                # deriving successors from it (rejected updates especially),
                # and evicting it would sever every future chain
                self._states.move_to_end(key)
            return state

    def _remember_state(self, db: Database, memo_key: Tuple, state: PlanState) -> None:
        key = id(db)
        with self._states_lock:
            entry = self._states.get(key)
            if entry is None or entry[0] is not db:
                entry = (db, {})
                self._states[key] = entry
            self._states.move_to_end(key)
            states = entry[1]
            states[memo_key] = state
            while len(states) > self._memo_size:
                states.pop(next(iter(states)))
            while len(self._states) > self._state_history:
                self._states.popitem(last=False)

    def _incremental_extension(
        self,
        plan: Plan,
        db: Database,
        memo_key: Tuple,
        ctx: ExecutionContext,
        warming: bool = False,
    ):
        """Evaluate through the delta rules when a usable parent state exists.

        Walks the database's ``apply_delta`` provenance (composing the
        per-step deltas) until it finds an ancestor this backend evaluated
        ``memo_key`` against; returns ``None`` — full execution — when there
        is no such ancestor or the incremental pass declines.  A ``warming``
        call (state propagation behind a memo hit) leaves ``delta_misses``
        alone on failure: no full execution follows, so nothing was missed.
        """
        current = db
        delta_to_db: Optional[Delta] = None
        for _ in range(_MAX_PROVENANCE_CHAIN):
            link = current.provenance_step()
            if link is None:
                break
            parent, step = link
            delta_to_db = step if delta_to_db is None else step.then(delta_to_db)
            state = self._state_for(parent, memo_key)
            if state is None:
                current = parent
                continue
            delta = delta_to_db
            try:
                rows, new_state = incremental_update(
                    plan, parent, state, delta, ctx, fixed_domain=memo_key[2] is not None
                )
            except DeltaFallback:
                break
            except (DatabaseError, SignatureError) as exc:
                from ..logic.evaluation import EvaluationError

                raise EvaluationError(str(exc)) from exc
            if self.delta_mode == "verify":
                check_ctx = ExecutionContext(db, memo_key[2], memo_key[3])
                full = plan.rows(check_ctx)
                if full != rows:
                    raise AssertionError(
                        f"incremental evaluation diverged for {memo_key[0]!r}: "
                        f"delta says {sorted(rows, key=repr)[:5]}..., "
                        f"full run says {sorted(full, key=repr)[:5]}..."
                    )
            if not warming:
                # a warming pass only refreshes node states behind a memo
                # hit — the check itself was answered by the memo, so the
                # hit/miss counters (surfaced as incremental_evaluations in
                # maintenance reports) stay untouched either way
                self._bump("delta_hits")
            self._remember_state(db, memo_key, new_state)
            return rows
        if not warming:
            self._bump("delta_misses")
        return None

    def evaluate(self, formula, db, assignment=None, signature=EMPTY_SIGNATURE, domain=None):
        env = dict(assignment or {})
        free = tuple(sorted(formula.free_variables()))
        missing = set(free) - set(env)
        if missing:
            from ..logic.evaluation import EvaluationError

            raise EvaluationError(
                f"formula has unassigned free variables {sorted(missing)}"
            )
        # materialise once — `domain` may be a one-shot iterable and is used
        # for the membership test, the fallback, and the extension call
        frozen = frozenset(domain) if domain is not None else None
        effective_domain = frozen if frozen is not None else db.active_domain
        values = tuple(env[v] for v in free)
        if any(value not in effective_domain for value in values):
            # Assignment values outside the quantification domain cannot come
            # from an extension (which only ranges over the domain) — delegate
            # to the interpreter, which handles arbitrary assignments.
            return self._naive.evaluate(formula, db, env, signature, frozen)
        if free:
            # substitute the assignment as constants and check the resulting
            # sentence — materialising the full domain^k extension to answer
            # one membership query would be wasteful for wide formulas
            from ..logic.terms import Const

            formula = formula.substitute({v: Const(env[v]) for v in free})
        rows = self.extension(formula, db, (), signature, frozen)
        return bool(rows)


# ---------------------------------------------------------------------------
# the process-global active backend
# ---------------------------------------------------------------------------

#: Names accepted by :func:`backend_from_name` (and ``REPRO_BACKEND``).
BACKEND_NAMES = ("naive", "compiled", "sharded")


def backend_from_name(name: str) -> Backend:
    """Instantiate a backend by its registry name (see :data:`BACKEND_NAMES`).

    Incremental delta evaluation is switched by ``REPRO_DELTA`` alone.
    ``sharded`` is the hash-partitioned parallel engine; its shard count
    comes from ``REPRO_SHARDS`` (default 4).
    """
    normalized = name.strip().lower()
    if normalized in ("naive", "interpreter", "model"):
        return NaiveBackend()
    if normalized in ("compiled", "engine", "plans"):
        return CompiledBackend()
    if normalized in ("sharded", "parallel"):
        from .parallel import ShardedBackend

        return ShardedBackend()
    raise ValueError(
        f"unknown backend {name!r}; expected one of {', '.join(BACKEND_NAMES)}"
    )


_DEFAULT_BACKEND_NAME = "compiled"

try:
    _ACTIVE: Backend = backend_from_name(
        os.environ.get("REPRO_BACKEND", _DEFAULT_BACKEND_NAME)
    )
except ValueError as exc:
    # a typo in the environment must not make the package unimportable —
    # warn, name the accepted values, and fall back to the default engine
    warnings.warn(
        f"ignoring invalid REPRO_BACKEND: {exc}; accepted values are "
        f"{', '.join(BACKEND_NAMES)} — falling back to "
        f"{_DEFAULT_BACKEND_NAME!r}",
        RuntimeWarning,
        stacklevel=2,
    )
    _ACTIVE = backend_from_name(_DEFAULT_BACKEND_NAME)


def active_backend() -> Backend:
    """The backend all module-level evaluation helpers dispatch through."""
    return _ACTIVE


def set_backend(backend) -> Backend:
    """Install ``backend`` (an instance or a registry name) as the active backend."""
    global _ACTIVE
    if isinstance(backend, str):
        backend = backend_from_name(backend)
    if not isinstance(backend, Backend):
        raise TypeError(f"expected a Backend or name, got {type(backend).__name__}")
    _ACTIVE = backend
    return backend


@contextmanager
def using_backend(backend):
    """Temporarily switch the active backend (for tests and A/B benchmarks)."""
    global _ACTIVE
    previous = _ACTIVE
    set_backend(backend)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
