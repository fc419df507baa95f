"""Incremental (delta) plan evaluation: agreement, coverage, regressions.

Three layers of defence:

* hypothesis streams — random update sequences against a panel of formulas
  covering every delta rule (scans, joins, semijoins, antijoins, unions,
  complements, counting, equality, constants), evaluated by a ``verify``-mode
  backend (every incremental result is shadowed by a full execution and must
  match) *and* cross-checked against the naive interpreter;
* targeted operator streams — deletions that kill the last support of a
  group/join key, domain growth and shrinkage, rollback-style branching;
* regressions for the satellite bugfixes (``REPRO_BACKEND`` typos, the
  naive-fallback memo, locked ``cache_stats``).
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, Delta, random_graph
from repro.engine import CompiledBackend, NaiveBackend, backend_from_name
from repro.logic import parse

NAIVE = NaiveBackend()

#: one formula per delta rule family
FORMULAS = [
    parse("forall x . ~E(x, x)"),                                        # scan + complement
    parse("forall x . forall y . E(x, y) -> E(y, x)"),                   # semijoin/antijoin
    parse("forall x . forall y . forall z . (E(x, y) & E(y, z)) -> ~E(z, x)"),  # join chain
    parse("exists x . exists y . E(x, y) & ~E(y, x)"),                   # antijoin
    parse("exists x . E(x, 0) | E(0, x)"),                               # union + constants
    parse("forall x . (exists y . E(x, y)) -> exists z . E(z, x)"),      # projections
    parse("exists>=2 x . exists y . E(x, y)"),                           # counting
    parse("exists x . exists y . E(x, y) & x = y"),                      # equality
    parse("exists x . E(x, 99)"),                                        # inactive constant
]


def apply_update(db, op, edge):
    if op == "insert":
        return db.insert("E", edge)
    return db.delete("E", edge)


def edge():
    node = st.integers(min_value=0, max_value=7)
    return st.tuples(node, node)


@given(
    st.frozensets(edge(), max_size=10),
    st.lists(st.tuples(st.sampled_from(["insert", "delete"]), edge()), max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_incremental_stream_agrees_with_full_and_naive(base, updates):
    backend = CompiledBackend(delta="verify")  # every hit is shadow-checked
    db = Database.graph(base)
    for formula in FORMULAS:
        assert backend.evaluate(formula, db) == NAIVE.evaluate(formula, db)
    for op, e in updates:
        db = apply_update(db, op, e)
        for formula in FORMULAS:
            assert backend.evaluate(formula, db) == NAIVE.evaluate(formula, db)


def test_incremental_path_is_actually_taken():
    backend = CompiledBackend(delta="on")
    formula = parse("forall x . forall y . E(x, y) -> E(y, x)")
    db = random_graph(10, 0.3, seed=5)
    backend.evaluate(formula, db)
    for step in range(20):
        db = db.insert("E", (100 + step, 101 + step))  # always effective
        backend.evaluate(formula, db)
    assert backend.delta_hits == 20


def test_extensions_are_updated_incrementally_not_only_sentences():
    backend = CompiledBackend(delta="verify")
    formula = parse("E(x, y) & ~E(y, x)")
    db = Database.graph([(0, 1), (1, 0), (2, 3)])
    assert backend.extension(formula, db, ("x", "y")) == {(2, 3)}
    db = db.insert("E", (3, 2)).insert("E", (4, 5))
    assert backend.extension(formula, db, ("x", "y")) == {(4, 5)}
    db = db.delete("E", (1, 0))
    assert backend.extension(formula, db, ("x", "y")) == {(0, 1), (4, 5)}
    assert backend.delta_hits >= 2


def test_domain_growth_and_shrinkage():
    backend = CompiledBackend(delta="verify")
    connected = parse("forall x . exists y . E(x, y) | E(y, x)")
    db = Database.graph([(0, 1), (1, 2)])
    assert backend.evaluate(connected, db)
    db = db.insert("E", (7, 7))  # 7 enters the domain (as a loop)
    assert backend.evaluate(connected, db)
    db = db.insert("E", (8, 9))
    assert backend.evaluate(connected, db)
    db = db.delete("E", (8, 9))  # 8 and 9 leave the domain again
    assert backend.evaluate(connected, db)
    no_loops = parse("forall x . ~E(x, x)")
    assert not backend.evaluate(no_loops, db)
    db = db.delete("E", (7, 7))
    assert backend.evaluate(no_loops, db)


def test_group_count_support_dies_and_returns():
    backend = CompiledBackend(delta="verify")
    two_successors = parse("exists x . exists>=2 y . E(x, y)")
    db = Database.graph([(0, 1), (0, 2)])
    assert backend.evaluate(two_successors, db)
    db = db.delete("E", (0, 2))
    assert not backend.evaluate(two_successors, db)
    db = db.insert("E", (0, 3)).insert("E", (0, 4))
    assert backend.evaluate(two_successors, db)


def test_branching_streams_from_one_base_state():
    # rejected-update shape: many children of the same base, then a commit
    backend = CompiledBackend(delta="verify")
    no_loops = parse("forall x . ~E(x, x)")
    base = random_graph(8, 0.3, seed=2)
    base = base.delete("E", *[(v, v) for v in range(8)])
    assert backend.evaluate(no_loops, base)
    for v in range(5):
        candidate = base.insert("E", (v, v))
        assert not backend.evaluate(no_loops, candidate)  # each rejected
    committed = base.insert("E", (0, 1))
    assert backend.evaluate(no_loops, committed)
    assert backend.delta_hits >= 5


def test_explicit_domain_is_treated_as_fixed():
    backend = CompiledBackend(delta="verify")
    formula = parse("exists x . E(x, x)")
    domain = frozenset(range(4))
    db = Database.graph([(0, 1)])
    assert not backend.evaluate(formula, db, domain=domain)
    db = db.insert("E", (2, 2))
    assert backend.evaluate(formula, db, domain=domain)
    db = db.insert("E", (9, 9))  # outside the fixed domain
    assert backend.evaluate(formula, db, domain=domain)
    assert not backend.evaluate(parse("exists x . E(x, 9) & E(9, x)"), db, domain=domain)


def test_delta_off_backend_never_walks_provenance():
    backend = CompiledBackend(delta="off")
    formula = parse("forall x . ~E(x, x)")
    db = Database.graph([(0, 1)])
    backend.evaluate(formula, db)
    backend.evaluate(formula, db.insert("E", (1, 2)))
    assert backend.delta_hits == 0
    assert backend.delta_misses == 0


def test_bulk_deltas_update_in_one_step():
    backend = CompiledBackend(delta="verify")
    symmetric = parse("forall x . forall y . E(x, y) -> E(y, x)")
    db = Database.graph([(a, b) for a in range(6) for b in range(6) if a < b])
    assert not backend.evaluate(symmetric, db)
    mirrored = db.apply_delta(
        Delta(inserted={"E": [(b, a) for (a, b) in db.edges]})
    )
    assert backend.evaluate(symmetric, mirrored)
    assert backend.delta_hits >= 1


# ---------------------------------------------------------------------------
# regressions
# ---------------------------------------------------------------------------


def test_invalid_repro_backend_warns_instead_of_crashing_import():
    code = (
        "import warnings\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    warnings.simplefilter('always')\n"
        "    import repro\n"
        "    from repro.engine import active_backend\n"
        "assert any('REPRO_BACKEND' in str(w.message) for w in caught), caught\n"
        "assert active_backend().name == 'compiled'\n"
        "print('IMPORT-OK')\n"
    )
    env = dict(os.environ)
    env["REPRO_BACKEND"] = "compilde"  # the typo of the bug report
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "IMPORT-OK" in proc.stdout


def test_invalid_repro_delta_warns_and_defaults_on(monkeypatch):
    from repro.engine.backend import _delta_mode_from_env

    monkeypatch.setenv("REPRO_DELTA", "bogus")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _delta_mode_from_env() == "on"
    assert any("REPRO_DELTA" in str(w.message) for w in caught)


def test_backend_from_name_rejects_unknown_names():
    with pytest.raises(ValueError, match="naive"):
        backend_from_name("not-a-backend")


@pytest.mark.parametrize("mode", ["on", "off", "verify"])
def test_backend_from_name_takes_the_delta_mode_from_repro_delta(monkeypatch, mode):
    monkeypatch.setenv("REPRO_DELTA", mode)
    assert backend_from_name("compiled").delta_mode == mode
    sharded = backend_from_name("sharded")
    try:
        assert sharded.delta_mode == mode
    finally:
        sharded.close()


@pytest.mark.parametrize("alias", ["compiled-delta", "compiled-nodelta"])
def test_backend_from_name_has_no_delta_aliases(alias):
    # REPRO_DELTA is the only delta knob; the old name aliases are gone
    with pytest.raises(ValueError, match="unknown backend"):
        backend_from_name(alias)


def test_naive_fallback_results_are_memoised(monkeypatch):
    import repro.engine.backend as backend_module
    from repro.engine import CompileError

    def refuse(formula, variables):
        raise CompileError("forced")

    monkeypatch.setattr(backend_module, "compile_extension", refuse)
    backend = CompiledBackend()
    naive_calls = []
    original = NaiveBackend.extension

    def counting(self, formula, db, variables, signature, domain):
        naive_calls.append(formula)
        return original(self, formula, db, variables, signature, domain)

    monkeypatch.setattr(NaiveBackend, "extension", counting)
    formula = parse("exists x . E(x, x)")
    db = Database.graph([(0, 0)])
    assert backend.evaluate(formula, db)
    assert backend.evaluate(formula, db)
    assert backend.evaluate(formula, db)
    # the interpreter ran once; repeats were answered from the memo
    assert len(naive_calls) == 1
    assert backend.fallbacks == 1


def test_uncompilable_formulas_are_not_recompiled(monkeypatch):
    import repro.engine.backend as backend_module
    from repro.engine import CompileError

    attempts = []

    def refuse(formula, variables):
        attempts.append(formula)
        raise CompileError("forced")

    monkeypatch.setattr(backend_module, "compile_extension", refuse)
    backend = CompiledBackend()
    formula = parse("exists x . E(x, x)")
    for db in (Database.graph([(0, 0)]), Database.graph([(1, 2)])):
        backend.evaluate(formula, db)
    assert len(attempts) == 1  # the failure itself is cached


def test_cache_stats_is_consistent_and_locked():
    backend = CompiledBackend()
    db = Database.graph([(0, 1), (1, 2)])
    backend.evaluate(parse("exists x . exists y . E(x, y)"), db)
    stats = backend.cache_stats()
    assert stats["plans"] >= 1
    assert stats["memo"] >= 1
    assert "states" in stats
    backend.clear_caches()
    cleared = backend.cache_stats()
    assert cleared["plans"] == 0 and cleared["memo"] == 0 and cleared["states"] == 0


class TestForeignDeltaHelpers:
    """evaluate_under / predicate_changed: the MVCC validation primitives."""

    def test_evaluate_under_matches_direct_evaluation(self):
        from repro.engine import evaluate_under

        backend = CompiledBackend()
        base = Database.graph([(0, 1), (1, 2)])
        delta = Delta.insertion("E", (2, 2))
        formula = parse("forall x . ~E(x, x)")
        assert backend.evaluate(formula, base)
        assert evaluate_under(formula, base, delta, backend=backend) is False
        # an empty delta evaluates against the base itself
        assert evaluate_under(formula, base, Delta(), backend=backend) is True

    def test_predicate_changed_detects_flips_only(self):
        from repro.engine import predicate_changed

        backend = CompiledBackend()
        base = Database.graph([(0, 1), (1, 2)])
        no_loops = parse("forall x . ~E(x, x)")
        assert predicate_changed(no_loops, base, Delta.insertion("E", (3, 3)), backend=backend)
        assert not predicate_changed(no_loops, base, Delta.insertion("E", (3, 4)), backend=backend)
        assert not predicate_changed(no_loops, base, Delta(), backend=backend)

    def test_helpers_ride_the_incremental_path(self):
        from repro.engine import predicate_changed

        backend = CompiledBackend(delta="on")
        base = Database.graph([(i, i + 1) for i in range(12)])
        formula = parse("forall x . forall y . E(x, y) -> ~E(y, x)")
        backend.evaluate(formula, base)  # warm the node states
        hits = backend.delta_hits
        assert not predicate_changed(
            formula, base, Delta.insertion("E", (50, 51)), backend=backend
        )
        assert backend.delta_hits > hits  # answered through the delta rules
