"""Bit-parallel family evaluation agrees with the per-database oracle.

:class:`FamilyModel` checks a sentence on a whole family of databases in one
walk; bit ``i`` of ``mask(sentence)`` must be exactly
``Model(databases[i]).check(sentence)`` — across empty members, members with
different active domains, constants no member contains, counting
quantifiers at and beyond the domain size, and interpreted symbols.  Errors
must be raised with the same exception classes as :class:`Model`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.db.graph import all_graphs
from repro.logic import (
    Atom,
    EvaluationError,
    FamilyModel,
    Model,
    arithmetic_signature,
    parse,
)
from repro.logic.signature import EMPTY_SIGNATURE
from repro.logic.syntax import (
    CountingExists,
    Eq,
    Exists,
    Forall,
    Implies,
    InterpretedAtom,
)
from repro.logic.terms import Const, Func, TermError, Var

from strategies import graphs, maybe_seed, sentences

EMPTY = Database.graph([])

#: random families; the empty database is always a member, at a random place
families = st.lists(graphs(), max_size=6).flatmap(
    lambda dbs: st.permutations(dbs + [EMPTY])
)


def assert_agrees(sentence, family, signature=EMPTY_SIGNATURE):
    mask = FamilyModel(family, signature).mask(sentence)
    expected = [Model(db, signature).check(sentence) for db in family]
    assert [bool(mask >> i & 1) for i in range(len(family))] == expected
    assert mask >> len(family) == 0


@maybe_seed
@settings(max_examples=200, deadline=None)
@given(sentence=sentences(), family=families)
def test_mask_matches_model(sentence, family):
    assert_agrees(sentence, family)


@maybe_seed
@settings(max_examples=100, deadline=None)
@given(sentence=sentences(interpreted=True), family=families)
def test_mask_matches_model_with_signature(sentence, family):
    assert_agrees(sentence, family, arithmetic_signature())


@maybe_seed
@settings(max_examples=60, deadline=None)
@given(sentence=sentences())
def test_mask_matches_model_on_every_two_node_graph(sentence):
    assert_agrees(sentence, list(all_graphs(2)))


# a fixed family: empty, {0,1}, {2,3}, {1,2,3} — pairwise different domains
FIXED = [
    EMPTY,
    Database.graph([(0, 1)]),
    Database.graph([(2, 3), (3, 3)]),
    Database.graph([(1, 2), (2, 3), (3, 1)]),
]


@pytest.mark.parametrize(
    "text",
    [
        "exists x . x = 2",
        "forall x . ~ x = 0",
        "forall x . exists y . E(x, y) | E(y, x)",
        "exists x . exists y . E(x, y) & ~ x = y",
        "E(0, 1) | E(2, 3)",
    ],
)
def test_members_with_different_domains(text):
    assert_agrees(parse(text), FIXED)


@pytest.mark.parametrize(
    "sentence",
    [
        # constants outside every member's domain: usable, never quantified over
        Exists("x", Atom("E", Var("x"), Const(7))),
        Eq(Const("ghost"), Const("ghost")),
        parse("forall x . ~ x = 7"),
        Exists("x", Eq(Var("x"), Const(7))),
    ],
)
def test_constants_outside_every_domain(sentence):
    assert_agrees(sentence, FIXED)


@pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 5, 9])
def test_counting_quantifiers_up_to_and_beyond_domain_size(count):
    for body in (Eq(Var("x"), Var("x")), Exists("y", Atom("E", Var("x"), Var("y")))):
        assert_agrees(CountingExists("x", count, body), FIXED)


def test_interpreted_symbols_through_signature():
    sig = arithmetic_signature()
    sentences_ = [
        Exists("x", Atom("E", Var("x"), Func("succ", Var("x")))),
        Exists("x", InterpretedAtom("even", Func("succ", Var("x")))),
        Forall(
            "x",
            Forall(
                "y",
                Implies(
                    Atom("E", Var("x"), Var("y")),
                    InterpretedAtom("lt", Var("x"), Var("y")),
                ),
            ),
        ),
    ]
    for sentence in sentences_:
        assert_agrees(sentence, FIXED, sig)


def test_empty_family_and_empty_member():
    assert FamilyModel([]).mask(parse("exists x . E(x, x)")) == 0
    family = FamilyModel([EMPTY])
    assert family.mask(parse("forall x . E(x, x)")) == 1
    assert family.mask(parse("exists x . x = x")) == 0
    assert family.mask(CountingExists("x", 0, parse("false"))) == 1


@pytest.mark.parametrize(
    "sentence, error",
    [
        (parse("E(x, y)"), EvaluationError),  # free variables
        (parse("exists x . R(x)"), EvaluationError),  # unknown relation
        (InterpretedAtom("nope", Const(1)), EvaluationError),  # unknown predicate
        (Eq(Func("nope", Const(1)), Const(2)), TermError),  # unknown function
    ],
)
def test_errors_match_model(sentence, error):
    db = Database.graph([(0, 1)])
    with pytest.raises(error):
        Model(db).check(sentence)
    with pytest.raises(error):
        FamilyModel([db]).mask(sentence)
