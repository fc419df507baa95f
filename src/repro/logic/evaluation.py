"""Model checking: the validity relation ``D |= alpha``.

Quantifiers range over the *active domain* of the database (active-domain
semantics), which is the standard convention for integrity constraints over
finite databases with an infinite underlying universe and the one the paper's
constructions rely on.  Constants of ``FOc`` / ``FOc(Omega)`` are names for
universe elements and may appear in atoms and (in)equalities whether or not
the named element occurs in the database; they do *not* enlarge the
quantification domain.  (A caller that wants a larger quantification domain —
e.g. ``Gamma(D)`` — passes it explicitly via the ``domain`` argument.)

Using one uniform convention everywhere is what makes the weakest-precondition
round trips exact: ``D |= wpc(T, alpha)`` and ``T(D) |= alpha`` are both
evaluated under active-domain semantics of the respective database.

The evaluator is a straightforward recursive interpreter.  It is exponential
in the quantifier depth (``|domain|^rank`` assignments in the worst case),
which is the expected cost of first-order model checking and is entirely
adequate for the graph sizes used in the experiments.

:class:`FamilyModel` checks one sentence on a whole finite family of
databases in a single bit-parallel walk (bit ``i`` of its answer is
``Model(databases[i]).check``); the bounded verification sweeps of the core
layer use it.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..db.database import Database
from .signature import EMPTY_SIGNATURE, Signature, SignatureError
from .syntax import (
    And,
    Atom,
    Bottom,
    CountingExists,
    Eq,
    Exists,
    Forall,
    Formula,
    FormulaError,
    Iff,
    Implies,
    InterpretedAtom,
    Not,
    Or,
    Top,
)
from .terms import Const, Func, Term, TermError, Var, evaluate_term

__all__ = [
    "EvaluationError",
    "Model",
    "FamilyModel",
    "evaluate",
    "satisfies",
    "holds_for_all",
    "extension",
]


class EvaluationError(RuntimeError):
    """Raised when a formula cannot be evaluated (missing symbols, free variables...)."""


class Model:
    """A database together with a signature and a quantification domain.

    Parameters
    ----------
    db:
        The finite database.
    signature:
        Interpretations for the ``Omega`` symbols used by the formula
        (defaults to the empty signature: pure FO / FOc).
    domain:
        The set over which quantifiers range.  Defaults to the active domain
        of ``db`` (active-domain semantics); pass a larger set explicitly to
        quantify over e.g. ``Gamma(D)``.
    """

    __slots__ = ("db", "signature", "_base_domain")

    def __init__(
        self,
        db: Database,
        signature: Signature = EMPTY_SIGNATURE,
        domain: Optional[Iterable[object]] = None,
    ):
        self.db = db
        self.signature = signature
        self._base_domain: FrozenSet[object] = (
            frozenset(domain) if domain is not None else db.active_domain
        )

    def domain_for(self, formula: Formula) -> FrozenSet[object]:
        """The quantification domain when checking ``formula`` (active-domain semantics)."""
        return self._base_domain

    # -- checking ----------------------------------------------------------------

    def check(
        self, formula: Formula, assignment: Optional[Mapping[str, object]] = None
    ) -> bool:
        """Evaluate ``formula`` in this model under ``assignment``."""
        env = dict(assignment or {})
        missing = formula.free_variables() - set(env)
        if missing:
            raise EvaluationError(
                f"formula has unassigned free variables {sorted(missing)}"
            )
        domain = self.domain_for(formula)
        return self._eval(formula, env, domain)

    def extension(self, formula: Formula, variables: Sequence[str]) -> Set[Tuple[object, ...]]:
        """All tuples ``(d1, ..., dk)`` over the domain with ``D |= formula[d/x]``.

        The formula's free variables must all be listed in ``variables``;
        extra listed variables are allowed and simply range over the domain.
        """
        domain = sorted(self.domain_for(formula), key=repr)
        free = formula.free_variables()
        unknown = free - set(variables)
        if unknown:
            raise EvaluationError(
                f"extension over {list(variables)} leaves variables {sorted(unknown)} free"
            )
        result: Set[Tuple[object, ...]] = set()
        variables = list(variables)

        def rec(index: int, env: Dict[str, object], prefix: Tuple[object, ...]) -> None:
            if index == len(variables):
                if self._eval(formula, env, frozenset(domain)):
                    result.add(prefix)
                return
            var = variables[index]
            for value in domain:
                env[var] = value
                rec(index + 1, env, prefix + (value,))
            env.pop(var, None)

        rec(0, {}, tuple())
        return result

    # -- the interpreter -----------------------------------------------------------

    def _eval(
        self, formula: Formula, env: Dict[str, object], domain: FrozenSet[object]
    ) -> bool:
        if isinstance(formula, Top):
            return True
        if isinstance(formula, Bottom):
            return False
        if isinstance(formula, Atom):
            values = tuple(
                evaluate_term(t, env, self.signature.functions_mapping())
                for t in formula.terms
            )
            try:
                return values in self.db.relation(formula.relation)
            except Exception as exc:  # unknown relation
                raise EvaluationError(str(exc)) from exc
        if isinstance(formula, Eq):
            funcs = self.signature.functions_mapping()
            return evaluate_term(formula.left, env, funcs) == evaluate_term(
                formula.right, env, funcs
            )
        if isinstance(formula, InterpretedAtom):
            try:
                predicate = self.signature.predicate(formula.symbol)
            except SignatureError as exc:
                raise EvaluationError(str(exc)) from exc
            values = tuple(
                evaluate_term(t, env, self.signature.functions_mapping())
                for t in formula.terms
            )
            return predicate(*values)
        if isinstance(formula, Not):
            return not self._eval(formula.body, env, domain)
        if isinstance(formula, And):
            return all(self._eval(part, env, domain) for part in formula.parts)
        if isinstance(formula, Or):
            return any(self._eval(part, env, domain) for part in formula.parts)
        if isinstance(formula, Implies):
            return (not self._eval(formula.premise, env, domain)) or self._eval(
                formula.conclusion, env, domain
            )
        if isinstance(formula, Iff):
            return self._eval(formula.left, env, domain) == self._eval(
                formula.right, env, domain
            )
        if isinstance(formula, Exists):
            saved = env.get(formula.variable, _MISSING)
            for value in domain:
                env[formula.variable] = value
                if self._eval(formula.body, env, domain):
                    _restore(env, formula.variable, saved)
                    return True
            _restore(env, formula.variable, saved)
            return False
        if isinstance(formula, Forall):
            saved = env.get(formula.variable, _MISSING)
            for value in domain:
                env[formula.variable] = value
                if not self._eval(formula.body, env, domain):
                    _restore(env, formula.variable, saved)
                    return False
            _restore(env, formula.variable, saved)
            return True
        if isinstance(formula, CountingExists):
            saved = env.get(formula.variable, _MISSING)
            count = 0
            for value in domain:
                env[formula.variable] = value
                if self._eval(formula.body, env, domain):
                    count += 1
                    if count >= formula.count:
                        break
            _restore(env, formula.variable, saved)
            return count >= formula.count
        raise EvaluationError(f"cannot evaluate formula of type {type(formula).__name__}")


_MISSING = object()


def _restore(env: Dict[str, object], variable: str, saved: object) -> None:
    if saved is _MISSING:
        env.pop(variable, None)
    else:
        env[variable] = saved


# ---------------------------------------------------------------------------
# bit-parallel evaluation over a finite family of databases
# ---------------------------------------------------------------------------

_Walk = Callable[[Dict[str, object]], int]


class FamilyModel:
    """Check sentences on a whole finite family of databases in one walk.

    ``mask(sentence)`` returns an int whose bit ``i`` is set iff
    ``Model(databases[i], signature).check(sentence)``.  The formula is walked
    once per assignment of its free variables to elements of the *union* of
    the members' active domains, and every node yields the bitmask of members
    in which it holds under that assignment:

    * an atom is a lookup in a precomputed tuple -> member-mask table;
    * ``=`` and interpreted predicates do not depend on the database, so they
      give all members or none;
    * connectives are bit operations;
    * a quantifier folds over the union domain, masking each element by the
      members whose active domain contains it — active-domain semantics is
      kept member by member, and constants never enlarge a domain;
    * ``exists>=k`` keeps one running "at least ``j`` witnesses" mask per
      ``j <= k``.

    Quantified subformulas are memoised per (node, free-variable values) for
    the duration of one ``mask`` call.  This is what makes bounded
    verification (:func:`repro.core.simplification.equivalent_under`, the
    admission classifier) cost one walk instead of one evaluation per member.

    Errors are raised up front rather than when an evaluation path reaches
    them: free variables and relations missing from some member raise
    :class:`EvaluationError`, as do interpreted predicates absent from the
    signature; an uninterpreted function symbol raises
    :class:`~repro.logic.terms.TermError`.  :class:`Model` raises the same
    classes, but only on the paths it actually evaluates.
    """

    __slots__ = ("databases", "signature", "full", "_elements", "_nonempty", "_tables")

    def __init__(
        self, databases: Iterable[Database], signature: Signature = EMPTY_SIGNATURE
    ):
        self.databases: Tuple[Database, ...] = tuple(databases)
        self.signature = signature
        #: the mask with one bit per member
        self.full = (1 << len(self.databases)) - 1
        domains: Dict[object, int] = {}
        tables: Dict[str, Dict[Tuple[object, ...], int]] = {}
        present: Dict[str, int] = {}
        for index, db in enumerate(self.databases):
            bit = 1 << index
            for value in db.active_domain:
                domains[value] = domains.get(value, 0) | bit
            for name, rows in db.relations().items():
                present[name] = present.get(name, 0) | bit
                table = tables.setdefault(name, {})
                for row in rows:
                    table[row] = table.get(row, 0) | bit
        # a relation only some members have cannot be looked up in the rest
        self._tables = {
            name: table for name, table in tables.items() if present[name] == self.full
        }
        self._elements: Tuple[Tuple[object, int], ...] = tuple(
            sorted(domains.items(), key=lambda item: repr(item[0]))
        )
        nonempty = 0
        for _, members in self._elements:
            nonempty |= members
        self._nonempty = nonempty

    def mask(self, sentence: Formula) -> int:
        """Bit ``i`` set iff ``databases[i] |= sentence``."""
        free = sentence.free_variables()
        if free:
            raise EvaluationError(f"formula has unassigned free variables {sorted(free)}")
        walk, _ = _FamilyCompiler(self).compile(sentence)
        return walk({})


class _FamilyCompiler:
    """Turns one sentence into nested closures for :meth:`FamilyModel.mask`.

    Each node compiles once (per object identity) to a closure
    ``env -> member mask``; quantifier nodes carry their own memo table.  The
    compiler and its memo tables are dropped when ``mask`` returns.
    """

    def __init__(self, family: FamilyModel):
        self.family = family
        self.functions = family.signature.functions_mapping()
        self._compiled: Dict[int, Tuple[_Walk, Tuple[str, ...]]] = {}

    def compile(self, formula: Formula) -> Tuple[_Walk, Tuple[str, ...]]:
        """The closure for ``formula`` plus its sorted free variables."""
        key = id(formula)
        done = self._compiled.get(key)
        if done is None:
            done = self._compile(formula)
            self._compiled[key] = done
        return done

    # -- terms ---------------------------------------------------------------------

    def _term(self, term: Term) -> Callable[[Dict[str, object]], object]:
        if isinstance(term, Var):
            return itemgetter(term.name)
        if isinstance(term, Const):
            value = term.value
            return lambda env: value
        if isinstance(term, Func):
            if term.symbol not in self.functions:
                raise TermError(f"no interpretation for function symbol {term.symbol!r}")
            func = self.functions[term.symbol]
            args = [self._term(arg) for arg in term.args]
            return lambda env: func(*[arg(env) for arg in args])
        raise TermError(f"unknown term type {type(term).__name__}")

    def _values(self, terms) -> Callable[[Dict[str, object]], Tuple[object, ...]]:
        getters = [self._term(t) for t in terms]
        if all(isinstance(t, Var) for t in terms) and len(terms) > 1:
            return itemgetter(*(t.name for t in terms))
        return lambda env: tuple(g(env) for g in getters)

    # -- formulas ------------------------------------------------------------------

    def _compile(self, formula: Formula) -> Tuple[_Walk, Tuple[str, ...]]:
        full = self.family.full
        if isinstance(formula, Top):
            return (lambda env: full), ()
        if isinstance(formula, Bottom):
            return (lambda env: 0), ()
        if isinstance(formula, (Atom, Eq, InterpretedAtom)):
            return self._leaf(formula), tuple(sorted(formula.free_variables()))
        if isinstance(formula, Not):
            body, free = self.compile(formula.body)
            return (lambda env: full ^ body(env)), free
        if isinstance(formula, And):
            parts, free = self._parts(formula.parts)

            def conjunction(env):
                acc = full
                for part in parts:
                    acc &= part(env)
                    if not acc:
                        break
                return acc

            return conjunction, free
        if isinstance(formula, Or):
            parts, free = self._parts(formula.parts)

            def disjunction(env):
                acc = 0
                for part in parts:
                    acc |= part(env)
                    if acc == full:
                        break
                return acc

            return disjunction, free
        if isinstance(formula, Implies):
            (premise, conclusion), free = self._parts(
                (formula.premise, formula.conclusion)
            )

            def implication(env):
                holds = premise(env)
                return full if not holds else (full ^ holds) | conclusion(env)

            return implication, free
        if isinstance(formula, Iff):
            (left, right), free = self._parts((formula.left, formula.right))
            return (lambda env: full ^ left(env) ^ right(env)), free
        if isinstance(formula, (Exists, Forall, CountingExists)):
            return self._quantifier(formula)
        raise EvaluationError(f"cannot evaluate formula of type {type(formula).__name__}")

    def _leaf(self, formula: Formula) -> _Walk:
        family = self.family
        full = family.full
        if isinstance(formula, Atom):
            table = family._tables.get(formula.relation)
            if table is None and family.databases:
                raise EvaluationError(
                    f"no relation named {formula.relation!r} in every member of the family"
                )
            lookup = (table or {}).get
            values = self._values(formula.terms)
            return lambda env: lookup(values(env), 0)
        if isinstance(formula, Eq):
            left, right = self._term(formula.left), self._term(formula.right)
            return lambda env: full if left(env) == right(env) else 0
        try:
            predicate = family.signature.predicate(formula.symbol)
        except SignatureError as exc:
            raise EvaluationError(str(exc)) from exc
        getters = [self._term(t) for t in formula.terms]
        return lambda env: full if predicate(*[g(env) for g in getters]) else 0

    def _parts(self, formulas) -> Tuple[List[_Walk], Tuple[str, ...]]:
        walks: List[_Walk] = []
        free: Set[str] = set()
        for part in formulas:
            walk, part_free = self.compile(part)
            walks.append(walk)
            free.update(part_free)
        return walks, tuple(sorted(free))

    def _quantifier(self, formula: Formula) -> Tuple[_Walk, Tuple[str, ...]]:
        family = self.family
        full, nonempty, elements = family.full, family._nonempty, family._elements
        variable = formula.variable
        body, body_free = self.compile(formula.body)
        free = tuple(v for v in body_free if v != variable)

        if isinstance(formula, Exists):

            def fold(env):
                saved = env.get(variable, _MISSING)
                acc = 0
                for value, members in elements:
                    if members & ~acc:
                        env[variable] = value
                        acc |= body(env) & members
                        if acc == nonempty:
                            break
                _restore(env, variable, saved)
                return acc

        elif isinstance(formula, Forall):

            def fold(env):
                saved = env.get(variable, _MISSING)
                acc = full
                for value, members in elements:
                    if members & acc:
                        env[variable] = value
                        acc &= body(env) | (full ^ members)
                        if not acc:
                            break
                _restore(env, variable, saved)
                return acc

        else:
            count = formula.count
            if count <= 0:
                return (lambda env: full), free

            def fold(env):
                saved = env.get(variable, _MISSING)
                at_least = [full] + [0] * count
                for value, members in elements:
                    env[variable] = value
                    witnesses = body(env) & members
                    if witnesses:
                        for j in range(count, 0, -1):
                            at_least[j] |= at_least[j - 1] & witnesses
                        if at_least[count] == nonempty:
                            break
                _restore(env, variable, saved)
                return at_least[count]

        return _memoised(fold, free), free


def _memoised(walk: _Walk, free: Tuple[str, ...]) -> _Walk:
    """``walk`` cached on the values of its free variables."""
    cache: Dict[object, int] = {}
    if not free:

        def closed(env):
            result = cache.get(None)
            if result is None:
                result = cache[None] = walk(env)
            return result

        return closed
    key = itemgetter(*free)

    def memo(env):
        values = key(env)
        result = cache.get(values)
        if result is None:
            result = cache[values] = walk(env)
        return result

    return memo


# ---------------------------------------------------------------------------
# module-level conveniences
# ---------------------------------------------------------------------------
#
# These dispatch through the active engine backend (see ``repro.engine``):
# by default formulas are compiled to set-at-a-time relational-algebra plans
# and executed against indexed databases; ``REPRO_BACKEND=naive`` (or
# ``repro.engine.set_backend``) routes everything back through the recursive
# :class:`Model` interpreter above, which is kept as the semantics oracle.
# The import is deferred to avoid a package-load cycle (the engine itself
# needs the syntax and database layers).

def evaluate(
    formula: Formula,
    db: Database,
    assignment: Optional[Mapping[str, object]] = None,
    signature: Signature = EMPTY_SIGNATURE,
    domain: Optional[Iterable[object]] = None,
) -> bool:
    """``D |= formula`` (under ``assignment`` for free variables)."""
    from ..engine.backend import active_backend

    return active_backend().evaluate(formula, db, assignment, signature, domain)


def satisfies(db: Database, formula: Formula, **kwargs) -> bool:
    """Flipped-argument alias of :func:`evaluate`, reading like ``D |= alpha``."""
    return evaluate(formula, db, **kwargs)


def holds_for_all(
    formula: Formula,
    databases: Iterable[Database],
    signature: Signature = EMPTY_SIGNATURE,
) -> bool:
    """Does the sentence hold in every database of the (finite) collection?"""
    return all(evaluate(formula, db, signature=signature) for db in databases)


def extension(
    formula: Formula,
    db: Database,
    variables: Sequence[str],
    signature: Signature = EMPTY_SIGNATURE,
    domain: Optional[Iterable[object]] = None,
) -> Set[Tuple[object, ...]]:
    """The set of tuples satisfying ``formula`` in ``db`` (active-domain semantics)."""
    from ..engine.backend import active_backend

    return active_backend().extension(formula, db, variables, signature, domain)
