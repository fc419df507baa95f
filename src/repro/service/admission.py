"""WPC-verified admission: decide once how much checking each commit needs.

The paper's point, turned into a serving-layer fast path: for a *registered*
transaction shape, the weakest precondition ``wpc(T, alpha)`` is computed and
classified **once** (:func:`repro.core.wpc.classify_preservation`), and every
subsequent commit of that shape consults a per-``(transaction, constraint)``
verdict cache instead of doing constraint work:

* **static** — ``alpha |= wpc(T, alpha)`` on the verification family: the
  shape preserves the constraint from any consistent state, so its commits
  run with *zero* runtime constraint checks;
* **guarded** — the (possibly simplified) precondition is evaluated on the
  pre-state at commit time; a failing guard rejects the transaction before it
  touches the store, so nothing is ever rolled back;
* **runtime** — no syntactic precondition exists: the scheduler falls back to
  incremental post-state checking (the :class:`RuntimeCheckPolicy` strategy,
  riding the engine's delta rules).

Shapes are registered as **templates**: a builder producing an
:class:`~repro.transactions.fo_transactions.FOProgram` instance per parameter
tuple, plus sample parameters.  Classification runs on every sample and the
*most conservative* verdict wins, so a template whose instances differ in
kind (one sample static, one guarded) is treated uniformly at the safe level.
A template may also ship a hand-written parametric guard (the paper's
closing-remark simplification ``Delta``): it is verified against the true
``wpc`` on the family for every sample before being trusted, and then used
per instance — typically far smaller than the mechanical precondition.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.maintenance import Constraint
from ..core.simplification import equivalent_under
from ..core.wpc import PreservationVerdict, classify_preservation, weakest_precondition
from ..db.database import Database
from ..logic.signature import EMPTY_SIGNATURE, Signature
from ..logic.syntax import TOP, Formula
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..transactions.base import Transaction
from .snapshots import ServiceError

__all__ = ["TransactionTemplate", "AdmissionController"]

#: severity order used when samples of one template disagree
_MODE_RANK = {"static": 0, "guarded": 1, "runtime": 2}


class TransactionTemplate:
    """A named, parameterised transaction shape.

    ``build(*params)`` must return the transaction instance (usually an
    :class:`FOProgram`, anything :func:`weakest_precondition` accepts) for one
    parameter tuple; ``samples`` are representative parameter tuples used for
    classification — supply one per qualitatively different instance shape.
    ``guards`` optionally maps a constraint name to ``guard(*params)``, a
    hand-simplified parametric precondition (verified before use).
    """

    def __init__(
        self,
        name: str,
        build: Callable[..., Transaction],
        samples: Sequence[Tuple] = ((),),
        guards: Optional[Mapping[str, Callable[..., Formula]]] = None,
    ):
        if not samples:
            raise ServiceError(f"template {name!r} needs at least one sample")
        self.name = name
        self.build = build
        self.samples = tuple(tuple(s) for s in samples)
        self.guards = dict(guards or {})

    def __repr__(self) -> str:
        return f"TransactionTemplate({self.name!r}, samples={len(self.samples)})"


class AdmissionController:
    """Classify registered transaction shapes against the service's constraints.

    Thread-safe; classification happens at registration time (offline, the
    point of static verification), lookups at commit time are dictionary
    reads.  Guard formulas for *guarded* verdicts are produced per instance —
    from the template's verified parametric guard when available, otherwise
    from a freshly computed ``wpc`` — and memoised per parameter tuple.
    """

    def __init__(
        self,
        constraints: Sequence[Constraint],
        signature: Signature = EMPTY_SIGNATURE,
        family: Optional[Sequence[Database]] = None,
    ):
        self.constraints = list(constraints)
        self.signature = signature
        self.family = list(family) if family is not None else None
        self._lock = threading.Lock()
        self._templates: Dict[str, TransactionTemplate] = {}
        self._verdicts: Dict[str, Dict[str, PreservationVerdict]] = {}
        self._guard_cache: Dict[Tuple[str, str, Tuple], Formula] = {}
        # bookkeeping for reports/benchmarks (mirrored into the metrics
        # registry under service.admission.* — docs/observability.md)
        self.classified = 0
        self.guard_cache_hits = 0
        registry = _metrics.get_registry()
        self._m_classified = registry.counter("service.admission.classified")
        self._m_guard_cache_hits = registry.counter(
            "service.admission.guard_cache_hits"
        )

    # -- registration (offline) --------------------------------------------------

    def register(self, template: TransactionTemplate) -> Dict[str, PreservationVerdict]:
        """Classify ``template`` against every constraint; returns the verdicts.

        Idempotent per template name.  As a side effect the representative
        precondition is recorded on each :class:`Constraint` via
        :meth:`~repro.core.maintenance.Constraint.register_precondition`, so
        the classic :class:`StaticPreconditionPolicy` shares the table.
        """
        with self._lock:
            cached = self._verdicts.get(template.name)
            if cached is not None:
                return dict(cached)
        verdicts: Dict[str, PreservationVerdict] = {}
        family = self.family if self.family is not None else self._default_family(
            template
        )
        with _trace.span("service.admission.classify", template=template.name):
            for constraint in self.constraints:
                verdicts[constraint.name] = self._classify(template, constraint, family)
        with self._lock:
            self._templates[template.name] = template
            self._verdicts[template.name] = verdicts
            self.classified += len(verdicts)
        self._m_classified.inc(len(verdicts))
        return dict(verdicts)

    def _classify(
        self,
        template: TransactionTemplate,
        constraint: Constraint,
        family: Sequence[Database],
    ) -> PreservationVerdict:
        """One (template, constraint) verdict: worst sample wins."""
        worst: Optional[PreservationVerdict] = None
        preconditions: List[Formula] = []
        for params in template.samples:
            verdict = classify_preservation(
                template.build(*params),
                constraint.formula,
                databases=family,
                signature=self.signature,
                # the controller supplies its own (verified) parametric
                # guards or per-instance wpcs — skip the simplification sweep
                simplify_guard=False,
            )
            preconditions.append(verdict.precondition)
            if worst is None or _MODE_RANK[verdict.mode] > _MODE_RANK[worst.mode]:
                worst = verdict
        assert worst is not None
        if worst.precondition is not None:
            constraint.register_precondition(template.name, worst.precondition)
        if worst.mode == "guarded":
            self._verify_template_guard(template, constraint, preconditions, family)
        return worst

    def _verify_template_guard(
        self,
        template: TransactionTemplate,
        constraint: Constraint,
        preconditions: Sequence[Formula],
        family: Sequence[Database],
    ) -> None:
        """Check a hand-written parametric guard against the true wpc.

        ``preconditions`` are the samples' ``wpc``s, as computed by
        classification.  A guard that is not equivalent to the weakest
        precondition under the invariant (on the family, for every sample) is
        silently dropped — the controller then falls back to per-instance
        ``wpc`` computation, which is always sound.
        """
        builder = template.guards.get(constraint.name)
        if builder is None or not isinstance(constraint.formula, Formula):
            return
        for params, precondition in zip(template.samples, preconditions):
            if not equivalent_under(
                constraint.formula,
                builder(*params),
                precondition,
                family,
                self.signature,
            ):
                del template.guards[constraint.name]
                return

    def _default_family(self, template: TransactionTemplate) -> List[Database]:
        from ..db.graph import all_graphs
        from ..db.schema import GRAPH_SCHEMA

        schema = getattr(template.build(*template.samples[0]), "schema", None)
        return list(all_graphs(3)) if schema == GRAPH_SCHEMA else []

    # -- commit-time lookups (hot path) -------------------------------------------

    def verdicts_for(
        self, template_name: Optional[str]
    ) -> Optional[Mapping[str, PreservationVerdict]]:
        """The cached verdicts of a registered template (``None`` if unknown)."""
        if template_name is None:
            return None
        with self._lock:
            return self._verdicts.get(template_name)

    def stats(self) -> Dict[str, int]:
        """Classification bookkeeping (part of the merged observability view)."""
        with self._lock:
            return {
                "templates": len(self._templates),
                "classified": self.classified,
                "guard_cache_hits": self.guard_cache_hits,
            }

    def guard_for(
        self, template_name: str, constraint: Constraint, params: Tuple
    ) -> Formula:
        """The pre-state guard for one *guarded* instance (memoised).

        Uses the template's verified parametric guard when present; otherwise
        computes ``wpc(build(*params), alpha)`` on demand.  Either way the
        result is cached per parameter tuple, so hot parameters pay once.
        """
        key = (template_name, constraint.name, params)
        with self._lock:
            guard = self._guard_cache.get(key)
            template = self._templates.get(template_name)
        if guard is not None:
            with self._lock:
                self.guard_cache_hits += 1
            self._m_guard_cache_hits.inc()
            return guard
        if template is None:
            raise ServiceError(f"template {template_name!r} is not registered")
        builder = template.guards.get(constraint.name)
        if builder is not None:
            guard = builder(*params)
        elif isinstance(constraint.formula, Formula):
            guard = weakest_precondition(template.build(*params), constraint.formula)
        else:
            guard = TOP
        with self._lock:
            self._guard_cache[key] = guard
        return guard

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"AdmissionController(templates={sorted(self._templates)}, "
                f"constraints={[c.name for c in self.constraints]})"
            )
