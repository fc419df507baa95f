"""Precondition simplification under an invariant (the paper's closing remark).

The concluding remarks of the paper point out that in the integrity-maintenance
setting the constraint ``alpha`` already holds *before* the transaction runs,
so instead of guarding with the full ``wpc(T, alpha)`` one may guard with any
``Delta`` satisfying

    ``alpha  |=  (Delta <-> wpc(T, alpha))``

and a ``Delta`` much simpler than the weakest precondition often exists
(cf. Nicolas [29], Qian [31] and the other constraint-simplification work the
paper cites).  Finding such a ``Delta`` in general requires theorem proving;
this module provides the *bounded* version that fits the rest of the
reproduction:

* :func:`equivalent_under` — check ``alpha |= (a <-> b)`` exhaustively on a
  family of databases (all graphs up to a node bound by default);
* :class:`BoundedSimplifier` — produce a candidate ``Delta`` by (1) syntactic
  simplification, (2) pruning conjuncts/disjuncts that are redundant under the
  invariant, and (3) trying the trivial candidates ``true`` / the constraint
  itself; every candidate is *verified* against the family before being
  returned, so the result is sound for every database in the family (and, like
  the bounded ``Preserve`` procedures, heuristic beyond it);
* :class:`SimplificationResult` — the chosen ``Delta`` with bookkeeping
  (size/rank before and after, what was verified).

Experiment E13's ablation uses this to quantify how much cheaper the guarded
transaction becomes when the invariant is exploited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from ..db.database import Database
from ..db.graph import all_graphs
from ..logic.evaluation import FamilyModel
from ..logic.normalform import simplify as syntactic_simplify
from ..logic.signature import EMPTY_SIGNATURE, Signature
from ..logic.syntax import And, Formula, Or, TOP, make_and, make_or

__all__ = ["equivalent_under", "SimplificationResult", "BoundedSimplifier"]


def equivalent_under(
    invariant: Formula,
    left: Formula,
    right: Formula,
    databases: Iterable[Database],
    signature: Signature = EMPTY_SIGNATURE,
) -> bool:
    """Does ``invariant |= (left <-> right)`` hold on every listed database?

    The three sentences are checked on the whole family at once with a
    :class:`~repro.logic.evaluation.FamilyModel`: each yields a bitmask of
    the members it holds in, and the answer is
    ``mask(invariant) & (mask(left) ^ mask(right)) == 0``: one walk per
    sentence instead of one evaluation per (sentence, database).
    """
    family = FamilyModel(databases, signature)
    return (family.mask(invariant) & (family.mask(left) ^ family.mask(right))) == 0


@dataclass
class SimplificationResult:
    """The outcome of a bounded precondition simplification."""

    original: Formula
    simplified: Formula
    invariant: Formula
    family_size: int
    verified: bool

    @property
    def size_reduction(self) -> float:
        """Fraction of AST nodes removed (0.0 = nothing, 1.0 = everything)."""
        original_size = self.original.size()
        if original_size == 0:
            return 0.0
        return 1.0 - self.simplified.size() / original_size

    def __repr__(self) -> str:
        return (
            f"SimplificationResult(size {self.original.size()} -> {self.simplified.size()}, "
            f"rank {self.original.quantifier_rank()} -> {self.simplified.quantifier_rank()}, "
            f"verified={self.verified})"
        )


class BoundedSimplifier:
    """Simplify preconditions under an invariant, verifying on a bounded family.

    Parameters
    ----------
    max_nodes:
        The family used for verification is every graph with at most this many
        nodes (the same bounded-exhaustiveness convention as the ``Preserve``
        procedures); alternatively pass an explicit ``databases`` family.
    """

    def __init__(
        self,
        max_nodes: int = 3,
        databases: Optional[Sequence[Database]] = None,
        signature: Signature = EMPTY_SIGNATURE,
    ):
        if databases is not None:
            self.databases: List[Database] = list(databases)
        else:
            self.databases = list(all_graphs(max_nodes))
        self.signature = signature
        self._family = FamilyModel(self.databases, signature)

    # -- public API --------------------------------------------------------------

    def simplify(self, invariant: Formula, precondition: Formula) -> SimplificationResult:
        """A ``Delta`` with ``invariant |= (Delta <-> precondition)`` on the family."""
        candidates = self._candidates(invariant, precondition)
        holds = self._family.mask(invariant)
        target = self._family.mask(precondition)
        best, best_mask = precondition, target
        for candidate in candidates:
            if candidate.size() >= best.size():
                continue
            mask = self._family.mask(candidate)
            if (holds & (mask ^ target)) == 0:
                best, best_mask = candidate, mask
        return SimplificationResult(
            original=precondition,
            simplified=best,
            invariant=invariant,
            family_size=len(self.databases),
            verified=(holds & (best_mask ^ target)) == 0,
        )

    # -- candidate generation -------------------------------------------------------

    def _candidates(self, invariant: Formula, precondition: Formula) -> List[Formula]:
        candidates: List[Formula] = [TOP, invariant]
        reduced = syntactic_simplify(precondition)
        candidates.append(reduced)
        candidates.extend(self._pruned_conjunctions(invariant, reduced))
        candidates.extend(self._pruned_disjunctions(invariant, reduced))
        return candidates

    def _pruned_conjunctions(self, invariant: Formula, formula: Formula) -> List[Formula]:
        """Drop conjuncts implied by the invariant (checked on the family)."""
        if not isinstance(formula, And):
            return []
        kept = []
        for part in formula.parts:
            if not self._implied_by(invariant, part):
                kept.append(part)
        if len(kept) == len(formula.parts):
            return []
        return [make_and(*kept) if kept else TOP]

    def _pruned_disjunctions(self, invariant: Formula, formula: Formula) -> List[Formula]:
        """Drop disjuncts that are unsatisfiable together with the invariant."""
        if not isinstance(formula, Or):
            return []
        kept = []
        for part in formula.parts:
            if self._satisfiable_with(invariant, part):
                kept.append(part)
        if len(kept) == len(formula.parts) or not kept:
            return []
        return [make_or(*kept)]

    # -- bounded semantic checks ------------------------------------------------------

    def _implied_by(self, invariant: Formula, formula: Formula) -> bool:
        return (self._family.mask(invariant) & ~self._family.mask(formula)) == 0

    def _satisfiable_with(self, invariant: Formula, formula: Formula) -> bool:
        return (self._family.mask(invariant) & self._family.mask(formula)) != 0
