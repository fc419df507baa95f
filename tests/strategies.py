"""Shared grammar-based generators for the whole test suite.

One place defines how random first-order formulas, graph databases and
update-stream deltas are generated; the conformance suite
(``tests/conformance``), the backend-equivalence suite and the property
suites all draw from here instead of keeping per-suite copies.

Determinism: ``REPRO_SEED`` (the same knob ``benchmarks/run_all.py --seed``
exports) pins hypothesis' randomness via :func:`maybe_seed`, and
:func:`config_text` renders the active ``REPRO_*`` configuration — the test
harness (``tests/conftest.py``) appends it to every failure report so a flake
can be replayed exactly: same seed, same backend, same shard count.
"""

from __future__ import annotations

import os
from typing import Optional

import hypothesis
from hypothesis import strategies as st

from repro.db import Database, Delta
from repro.logic.syntax import (
    And,
    Atom,
    BOTTOM,
    CountingExists,
    Eq,
    Exists,
    Forall,
    Iff,
    Implies,
    InterpretedAtom,
    Not,
    Or,
    TOP,
)
from repro.logic.terms import Const, Func, Var

__all__ = [
    "VARIABLES",
    "CONSTANTS",
    "repro_seed",
    "maybe_seed",
    "config_text",
    "terms",
    "atoms",
    "equalities",
    "interpreted_leaves",
    "base_formulas",
    "formulas",
    "sentences",
    "graphs",
    "graph_deltas",
    "update_streams",
    "backend_matrix",
    "SHARD_COUNTS",
]

VARIABLES = ("x", "y", "z")

#: constants 0..3 can be active in generated graphs; 7 and "ghost" never are
CONSTANTS = (0, 1, 2, 3, 7, "ghost")

#: the shard counts the conformance matrix sweeps over
SHARD_COUNTS = (1, 2, 4)


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def repro_seed() -> Optional[int]:
    """The ``REPRO_SEED`` environment value, if set and numeric."""
    raw = os.environ.get("REPRO_SEED", "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        return None


def maybe_seed(test):
    """Pin hypothesis' randomness to ``REPRO_SEED`` when it is set.

    Applied to every generator-driven test so a failure reported with a seed
    replays deterministically: ``REPRO_SEED=<n> pytest <test>``.
    """
    value = repro_seed()
    if value is None:
        return test
    return hypothesis.seed(value)(test)


def config_text() -> str:
    """The active backend/shard/delta/seed configuration, for failure output."""
    parts = [
        f"REPRO_SEED={os.environ.get('REPRO_SEED', '<unset>')}",
        f"REPRO_BACKEND={os.environ.get('REPRO_BACKEND', '<unset>')}",
        f"REPRO_SHARDS={os.environ.get('REPRO_SHARDS', '<unset>')}",
        f"REPRO_DELTA={os.environ.get('REPRO_DELTA', '<unset>')}",
        f"REPRO_SERVICE_WORKERS={os.environ.get('REPRO_SERVICE_WORKERS', '<unset>')}",
    ]
    return (
        "replay a generator-driven failure with the same configuration:\n  "
        + " ".join(parts)
    )


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------

def terms(constants: bool = True):
    """Variable names and (optionally) constants, some never active."""
    if not constants:
        return st.sampled_from(VARIABLES)
    return st.one_of(
        st.sampled_from(VARIABLES),
        st.sampled_from(CONSTANTS).map(lambda c: ("const", c)),
    )


def _mk_term(spec):
    if isinstance(spec, tuple) and spec[0] == "const":
        return Const(spec[1])
    return spec  # a variable name; Atom/Eq coerce strings to Var


def atoms(constants: bool = True):
    return st.tuples(terms(constants), terms(constants)).map(
        lambda pair: Atom("E", _mk_term(pair[0]), _mk_term(pair[1]))
    )


def equalities(constants: bool = True):
    return st.tuples(terms(constants), terms(constants)).map(
        lambda pair: Eq(_mk_term(pair[0]), _mk_term(pair[1]))
    )


def interpreted_leaves(constants: bool = True):
    """Leaves over :func:`~repro.logic.signature.arithmetic_signature`.

    ``succ`` terms inside atoms and equalities, and the ``lt`` / ``even``
    predicates — evaluate them with that signature.
    """
    term = terms(constants).map(
        lambda spec: Var(spec) if isinstance(spec, str) else _mk_term(spec)
    )
    return st.one_of(
        st.tuples(term, term).map(lambda p: Atom("E", Func("succ", p[0]), p[1])),
        st.tuples(term, term).map(lambda p: Eq(Func("succ", p[0]), p[1])),
        st.tuples(term, term).map(lambda p: InterpretedAtom("lt", *p)),
        term.map(lambda t: InterpretedAtom("even", t)),
    )


def base_formulas(
    constants: bool = True, nullary: bool = True, interpreted: bool = False
):
    leaves = [atoms(constants), equalities(constants)]
    if nullary:
        leaves.extend([st.just(TOP), st.just(BOTTOM)])
    if interpreted:
        leaves.append(interpreted_leaves(constants))
    return st.one_of(leaves)


def formulas(
    *,
    counting: bool = True,
    constants: bool = True,
    implications: bool = True,
    nullary: bool = True,
    interpreted: bool = False,
    max_leaves: int = 8,
):
    """Random formulas over the graph schema.

    ``counting=False`` restricts to plain FO (for transformations that do not
    accept counting quantifiers), ``constants=False`` to pure variable
    formulas, ``implications=False`` drops ``->``/``<->`` (for suites that
    exercise only the And/Or/Not fragment), ``nullary=False`` drops the
    ``true``/``false`` leaves (for syntactic properties that constant folding
    would defeat, e.g. rank preservation), ``interpreted=True`` adds the
    :func:`interpreted_leaves` (evaluate under the arithmetic signature).
    """

    def extend(children):
        options = [
            children.map(Not),
            st.tuples(children, children).map(lambda p: And(*p)),
            st.tuples(children, children).map(lambda p: Or(*p)),
            st.tuples(st.sampled_from(VARIABLES), children).map(
                lambda p: Exists(p[0], p[1])
            ),
            st.tuples(st.sampled_from(VARIABLES), children).map(
                lambda p: Forall(p[0], p[1])
            ),
        ]
        if implications:
            options.append(
                st.tuples(children, children).map(lambda p: Implies(*p))
            )
            options.append(st.tuples(children, children).map(lambda p: Iff(*p)))
        if counting:
            options.append(
                st.tuples(
                    st.sampled_from(VARIABLES), st.integers(0, 3), children
                ).map(lambda p: CountingExists(p[0], p[1], p[2]))
            )
        return st.one_of(options)

    return st.recursive(
        base_formulas(constants, nullary, interpreted), extend, max_leaves=max_leaves
    )


def _close(formula):
    closed = formula
    for variable in sorted(formula.free_variables()):
        closed = Exists(variable, closed)
    return closed


def sentences(**kwargs):
    """Random sentences: formulas with free variables closed existentially."""
    return formulas(**kwargs).map(_close)


# ---------------------------------------------------------------------------
# databases and update streams
# ---------------------------------------------------------------------------

def graphs(max_value: int = 3, max_edges: int = 8):
    """Random graph databases over nodes ``0..max_value``."""
    edge = st.tuples(st.integers(0, max_value), st.integers(0, max_value))
    return st.frozensets(edge, max_size=max_edges).map(Database.graph)


def graph_deltas(max_value: int = 3, max_rows: int = 3):
    """One update step: a handful of edge insertions and deletions.

    The two row sets are drawn disjoint (a delta may not insert and delete
    the same row); ineffective parts are normalized away on application.
    """
    edge = st.tuples(st.integers(0, max_value), st.integers(0, max_value))

    def build(pair):
        inserted, deleted = pair
        return Delta(
            inserted={"E": inserted - deleted}, deleted={"E": deleted - inserted}
        )

    return st.tuples(
        st.frozensets(edge, max_size=max_rows),
        st.frozensets(edge, max_size=max_rows),
    ).map(build)


def update_streams(length: int = 6, max_value: int = 3):
    """A stream of update steps for incremental/conformance testing."""
    return st.lists(graph_deltas(max_value), min_size=1, max_size=length)


# ---------------------------------------------------------------------------
# the backend matrix
# ---------------------------------------------------------------------------

def backend_matrix():
    """Fresh instances of every non-oracle backend configuration under test.

    Returns ``[(name, backend), ...]`` covering the compiled engine with
    delta evaluation on and off, the sharded engine at every shard count in
    :data:`SHARD_COUNTS`, and the **optimizer axis**: explicit
    optimizer-off variants of the compiled and one sharded configuration
    (the remaining configurations inherit ``REPRO_OPTIMIZER`` from the
    environment, so the CI optimizer-off leg flips the whole matrix at
    once).  The naive interpreter is the oracle the matrix is compared
    against, so it is not part of the matrix itself.
    """
    from repro.engine import CompiledBackend, ShardedBackend

    matrix = [
        ("compiled-delta-on", CompiledBackend(delta="on")),
        ("compiled-delta-off", CompiledBackend(delta="off")),
        ("compiled-noopt", CompiledBackend(optimizer="off")),
    ]
    for count in SHARD_COUNTS:
        matrix.append((f"sharded-{count}", ShardedBackend(shards=count)))
    matrix.append(
        ("sharded-2-noopt", ShardedBackend(shards=2, optimizer="off"))
    )
    return matrix
