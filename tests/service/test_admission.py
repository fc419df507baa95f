"""WPC-verified admission: classification, verdict caching, guard handling."""

import pytest

from repro.core import Constraint, classify_preservation
from repro.logic import parse
from repro.logic.syntax import TOP, And, Atom, Eq, Not
from repro.logic.terms import Const, Var
from repro.service import AdmissionController, TransactionTemplate
from repro.service.workloads import (
    NO_LOOPS,
    NO_TRIANGLES,
    standard_constraints,
    standard_templates,
    _insert_edge_program,
    _link_forward_program,
    _unlink_program,
)
from repro.transactions import FOProgram, InsertTuple


class TestClassifyPreservation:
    def test_forward_insert_is_static_for_no_loops(self):
        verdict = classify_preservation(_link_forward_program(0, 1), NO_LOOPS)
        assert verdict.mode == "static"

    def test_loop_insert_is_guarded_for_no_loops(self):
        verdict = classify_preservation(_insert_edge_program(2, 2), NO_LOOPS)
        assert verdict.mode == "guarded"
        assert verdict.guard is not None

    def test_delete_is_static_for_universal_constraints(self):
        verdict = classify_preservation(_unlink_program(0, 1), NO_TRIANGLES)
        assert verdict.mode == "static"

    def test_semantic_constraint_falls_back_to_runtime(self):
        class Semantic:
            def holds(self, db):
                return True

        verdict = classify_preservation(_link_forward_program(0, 1), Semantic())
        assert verdict.mode == "runtime"

    def test_opaque_transaction_falls_back_to_runtime(self):
        from repro.transactions.base import FunctionTransaction

        opaque = FunctionTransaction(lambda db: db, name="opaque")
        verdict = classify_preservation(opaque, NO_LOOPS)
        assert verdict.mode == "runtime"


class TestController:
    def test_register_classifies_against_every_constraint(self):
        controller = AdmissionController(standard_constraints())
        link, unlink, add_edge = standard_templates()
        verdicts = controller.register(link)
        assert verdicts["no-loops"].mode == "static"
        assert verdicts["no-triangles"].mode == "guarded"
        verdicts = controller.register(unlink)
        assert {v.mode for v in verdicts.values()} == {"static"}
        verdicts = controller.register(add_edge)
        assert verdicts["no-loops"].mode == "guarded"
        assert verdicts["no-triangles"].mode == "guarded"

    def test_worst_sample_wins(self):
        # one sample is a safe forward edge, one is a loop: the template as a
        # whole must be treated at the guarded level
        controller = AdmissionController([Constraint("no-loops", NO_LOOPS)])
        template = TransactionTemplate(
            "sometimes-loopy", _insert_edge_program, samples=((0, 1), (2, 2))
        )
        verdicts = controller.register(template)
        assert verdicts["no-loops"].mode == "guarded"

    def test_register_is_idempotent_and_cached(self):
        controller = AdmissionController(standard_constraints())
        template = standard_templates()[0]
        first = controller.register(template)
        classified = controller.classified
        second = controller.register(template)
        assert controller.classified == classified  # no re-classification
        assert {k: v.mode for k, v in first.items()} == {
            k: v.mode for k, v in second.items()
        }

    def test_verdicts_for_unknown_template_is_none(self):
        controller = AdmissionController(standard_constraints())
        assert controller.verdicts_for("nope") is None
        assert controller.verdicts_for(None) is None

    def test_register_fills_constraint_precondition_table(self):
        constraints = standard_constraints()
        controller = AdmissionController(constraints)
        controller.register(standard_templates()[0])
        by_name = {c.name: c for c in constraints}
        assert "link-forward" in by_name["no-loops"].preconditions

    def test_verified_parametric_guard_is_used(self):
        controller = AdmissionController(standard_constraints())
        add_edge = standard_templates()[2]
        controller.register(add_edge)
        constraint = controller.constraints[0]  # no-loops
        guard = controller.guard_for("add-edge", constraint, (3, 3))
        # the hand guard `a != b` survives verification and is instantiated
        assert guard == Not(Eq(Const(3), Const(3)))
        # and memoised per parameter tuple
        hits = controller.guard_cache_hits
        controller.guard_for("add-edge", constraint, (3, 3))
        assert controller.guard_cache_hits == hits + 1

    def test_wrong_parametric_guard_is_dropped(self):
        constraints = [Constraint("no-loops", NO_LOOPS)]
        controller = AdmissionController(constraints)
        bogus = TransactionTemplate(
            "bogus-add-edge",
            _insert_edge_program,
            samples=((2, 2),),
            guards={"no-loops": lambda a, b: TOP},  # claims loops are fine
        )
        controller.register(bogus)
        assert "no-loops" not in bogus.guards  # rejected by the family check
        guard = controller.guard_for("bogus-add-edge", constraints[0], (2, 2))
        assert guard != TOP  # fell back to the real wpc

    def test_standard_templates_keep_their_hand_guards(self):
        # a family check that evaluated wrongly would drop these silently and
        # fall back to per-instance wpc guards
        controller = AdmissionController(standard_constraints())
        link, unlink, add_edge = standard_templates()
        for template in (link, unlink, add_edge):
            controller.register(template)
        assert set(link.guards) == {"no-triangles"}
        assert set(add_edge.guards) == {"no-loops", "no-triangles"}
        no_triangles = controller.constraints[1]
        assert controller.guard_for("link-forward", no_triangles, (4, 5)) == (
            link.guards["no-triangles"](4, 5)
        )

    def test_registration_computes_each_wpc_and_family_once(self, monkeypatch):
        import repro.core.wpc as wpc_module
        import repro.db.graph as graph_module
        import repro.service.admission as admission_module

        calls = {"wpc": 0, "family": 0}
        real_wpc, real_all_graphs = (
            wpc_module.weakest_precondition,
            graph_module.all_graphs,
        )

        def counting_wpc(*args):
            calls["wpc"] += 1
            return real_wpc(*args)

        def counting_all_graphs(*args, **kwargs):
            calls["family"] += 1
            return real_all_graphs(*args, **kwargs)

        monkeypatch.setattr(wpc_module, "weakest_precondition", counting_wpc)
        monkeypatch.setattr(admission_module, "weakest_precondition", counting_wpc)
        monkeypatch.setattr(graph_module, "all_graphs", counting_all_graphs)
        controller = AdmissionController(standard_constraints())
        templates = standard_templates()
        for template in templates:
            controller.register(template)
        # one wpc per (template, sample, constraint), one family per template
        assert calls["wpc"] == 2 * sum(len(t.samples) for t in templates)
        assert calls["family"] == len(templates)

    def test_guard_for_unregistered_template_raises(self):
        from repro.service import ServiceError

        controller = AdmissionController(standard_constraints())
        with pytest.raises(ServiceError):
            controller.guard_for("ghost", controller.constraints[0], ())
