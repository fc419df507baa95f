"""The delta subsystem: ``Delta``, ``Database.apply_delta``, the store fast path.

The heart of the suite is the property ``apply_delta(D, delta)`` ==
``replay via insert/delete`` — the trusted fast-path constructor must be
observationally identical to the validated slow path, including every lazily
patched cache (active domain, hash indexes, canonical orderings, content
hash).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    Database,
    DatabaseError,
    Delta,
    DeltaError,
    GRAPH_SCHEMA,
    Schema,
    Store,
    random_graph,
)
from repro.db.schema import RelationSchema


def edges(draw_nodes=4):
    node = st.integers(min_value=0, max_value=draw_nodes)
    return st.tuples(node, node)


def edge_sets(max_size=8):
    return st.frozensets(edges(), max_size=max_size)


# ---------------------------------------------------------------------------
# Delta algebra
# ---------------------------------------------------------------------------


class TestDelta:
    def test_empty_sets_are_dropped(self):
        delta = Delta(inserted={"E": []}, deleted={"E": [(1, 2)]})
        assert delta.touched() == {"E"}
        assert "E" not in delta.inserted
        assert len(delta) == 1

    def test_conflicting_row_raises(self):
        with pytest.raises(DeltaError):
            Delta(inserted={"E": [(1, 2)]}, deleted={"E": [(1, 2)]})

    def test_inverse_round_trips(self):
        db = Database.graph([(0, 1), (1, 2)])
        delta = Delta(inserted={"E": [(2, 3)]}, deleted={"E": [(0, 1)]})
        forward = db.apply_delta(delta)
        assert forward.apply_delta(delta.inverse()) == db

    @given(edge_sets(), edge_sets(), edge_sets())
    @settings(max_examples=60, deadline=None)
    def test_then_composition_matches_sequential_application(self, base, d1, d2):
        db = Database.graph(base)
        step1 = Delta(inserted={"E": d1}).normalized(db)
        mid = db.apply_delta(step1)
        step2 = Delta(deleted={"E": d2}).normalized(mid)
        end = mid.apply_delta(step2)
        assert db.apply_delta(step1.then(step2)) == end

    def test_from_databases_is_the_exact_difference(self):
        old = Database.graph([(0, 1), (1, 2)])
        new = Database.graph([(1, 2), (2, 3)])
        delta = Delta.from_databases(old, new)
        assert delta.inserted["E"] == {(2, 3)}
        assert delta.deleted["E"] == {(0, 1)}
        assert old.apply_delta(delta) == new

    def test_normalized_drops_ineffective_rows(self):
        db = Database.graph([(0, 1)])
        delta = Delta(inserted={"E": [(0, 1), (1, 2)]}, deleted={"E": [(5, 5)]})
        effective = delta.normalized(db)
        assert effective.inserted["E"] == {(1, 2)}
        assert "E" not in effective.deleted

    def test_normalized_validates_names_and_arity(self):
        db = Database.graph([(0, 1)])
        with pytest.raises(DeltaError):
            Delta(inserted={"R": [(1,)]}).normalized(db)
        with pytest.raises(Exception):
            Delta(inserted={"E": [(1, 2, 3)]}).normalized(db)

    def test_between_walks_provenance(self):
        base = Database.graph([(0, 1)])
        step1 = base.insert("E", (1, 2))
        step2 = step1.delete("E", (0, 1))
        delta = Delta.between(base, step2)
        assert delta is not None
        assert base.apply_delta(delta) == step2
        # unrelated databases have no chain
        assert Delta.between(Database.graph([(7, 8)]), step2) is None

    def test_between_survives_transient_intermediates(self):
        # the intermediate state dies immediately — the skip link must carry
        base = Database.graph([(0, 1)])
        final = base.insert("E", (1, 2)).insert("E", (2, 3)).delete("E", (0, 1))
        delta = Delta.between(base, final)
        assert delta is not None
        assert base.apply_delta(delta) == final


class TestDeltaWire:
    """The picklable wire form the process executor ships shard deltas in."""

    @given(edge_sets(), edge_sets())
    @settings(max_examples=60, deadline=None)
    def test_wire_round_trip_preserves_application(self, ins, dels):
        ins = ins - dels
        delta = Delta(inserted={"E": ins}, deleted={"E": dels})
        back = Delta.from_wire(delta.to_wire())
        assert back.inserted == delta.inserted
        assert back.deleted == delta.deleted
        base = Database.graph(dels)  # every deleted row present, so it applies
        assert base.apply_delta(back) == base.apply_delta(delta)

    @given(edge_sets(), edge_sets())
    @settings(max_examples=60, deadline=None)
    def test_wire_is_deterministic_and_picklable(self, ins, dels):
        import pickle

        ins = ins - dels
        delta = Delta(inserted={"E": ins}, deleted={"E": dels})
        wire = delta.to_wire()
        # same content -> same wire bytes: the wire form is canonical
        assert Delta(inserted={"E": set(ins)}, deleted={"E": set(dels)}).to_wire() == wire
        assert pickle.loads(pickle.dumps(wire)) == wire

    def test_wire_version_is_checked(self):
        wire = Delta(inserted={"E": [(0, 1)]}).to_wire()
        with pytest.raises(DeltaError):
            Delta.from_wire(("delta/0",) + wire[1:])
        with pytest.raises(DeltaError):
            Delta.from_wire("not a wire form")


class TestDeltaBytes:
    """The canonical bytes form the WAL frames: round-trip or reject."""

    @given(edge_sets(), edge_sets())
    @settings(max_examples=60, deadline=None)
    def test_bytes_round_trip(self, ins, dels):
        ins = ins - dels
        delta = Delta(inserted={"E": ins}, deleted={"E": dels})
        back = Delta.from_bytes(delta.to_bytes())
        assert back.inserted == delta.inserted
        assert back.deleted == delta.deleted

    @given(edge_sets(), edge_sets())
    @settings(max_examples=60, deadline=None)
    def test_bytes_are_canonical(self, ins, dels):
        ins = ins - dels
        a = Delta(inserted={"E": ins}, deleted={"E": dels}).to_bytes()
        b = Delta(inserted={"E": set(ins)}, deleted={"E": set(dels)}).to_bytes()
        assert a == b

    def test_value_codec_covers_mixed_scalars(self):
        from repro.db.delta import decode_wire_value, encode_wire_value

        values = (None, True, False, 0, -1, 2**80, 3.25, "naïve", b"\x00\xff",
                  ("nested", (1, 2.0, "three")), ())
        for value in values:
            assert decode_wire_value(encode_wire_value(value)) == value

    @given(st.binary(max_size=64))
    @settings(max_examples=120, deadline=None)
    def test_arbitrary_bytes_never_misparse(self, junk):
        """Random bytes either decode to *some* value or raise DeltaError —
        never any other exception (the reject-cleanly framing contract)."""
        from repro.db.delta import decode_wire_value

        try:
            decode_wire_value(junk)
        except DeltaError:
            pass

    @given(edge_sets(), edge_sets(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_truncated_or_flipped_bytes_reject_cleanly(self, ins, dels, data):
        ins = ins - dels
        blob = bytearray(Delta(inserted={"E": ins}, deleted={"E": dels}).to_bytes())
        if data.draw(st.booleans(), label="truncate?"):
            cut = data.draw(st.integers(0, max(0, len(blob) - 1)))
            mutated = bytes(blob[:cut])
        else:
            position = data.draw(st.integers(0, len(blob) - 1))
            blob[position] ^= 1 << data.draw(st.integers(0, 7))
            mutated = bytes(blob)
        try:
            back = Delta.from_bytes(mutated)
        except DeltaError:
            return
        # a mutation may still decode (e.g. a flipped digit): the result must
        # at least be a structurally valid Delta
        assert isinstance(back, Delta)

    def test_trailing_bytes_rejected(self):
        blob = Delta(inserted={"E": [(0, 1)]}).to_bytes()
        with pytest.raises(DeltaError):
            Delta.from_bytes(blob + b"\x00")

    def test_non_wire_payload_rejected(self):
        from repro.db.delta import encode_wire_value

        with pytest.raises(DeltaError):
            Delta.from_bytes(encode_wire_value("not a delta wire tuple"))
        with pytest.raises(DeltaError):
            Delta.from_bytes(encode_wire_value((1, 2, 3)))


# ---------------------------------------------------------------------------
# Database.apply_delta
# ---------------------------------------------------------------------------


class TestApplyDelta:
    @given(edge_sets(12), edge_sets(), edge_sets())
    @settings(max_examples=80, deadline=None)
    def test_apply_delta_equals_insert_delete_replay(self, base, ins, dels):
        ins = ins - dels  # a delta may not insert and delete the same row
        db = Database.graph(base)
        via_delta = db.apply_delta(Delta(inserted={"E": ins}, deleted={"E": dels}))
        via_replay = db.insert("E", *ins).delete("E", *dels)
        assert via_delta == via_replay
        # and every derived observation agrees with a fresh construction
        fresh = Database.graph((base | ins) - dels)
        assert via_delta == fresh
        assert via_delta.active_domain == fresh.active_domain
        assert hash(via_delta) == hash(fresh)
        assert via_delta.canonical_key() == fresh.canonical_key()
        assert dict(via_delta.index("E", 0)) == dict(fresh.index("E", 0))

    @pytest.mark.parametrize(
        "inserted, deleted, expected",
        [
            ({(2, 3), (3, 0)}, set(), {(0, 1), (1, 2), (2, 3), (3, 0)}),
            (set(), {(0, 1)}, {(1, 2)}),
        ],
        ids=["insert-only", "delete-only"],
    )
    def test_one_sided_delta_equals_a_fresh_build(self, inserted, deleted, expected):
        db = Database.graph([(0, 1), (1, 2)])
        db.index("E", 0)  # a cache to patch, as on a served head
        applied = db.apply_delta(Delta(inserted={"E": inserted}, deleted={"E": deleted}))
        fresh = Database.graph(expected)
        assert applied == fresh
        assert applied.relation("E") == fresh.relation("E")
        assert dict(applied.index("E", 0)) == dict(fresh.index("E", 0))
        assert db.relation("E") == {(0, 1), (1, 2)}  # the parent is untouched

    def test_noop_delta_returns_self(self):
        db = Database.graph([(0, 1)])
        assert db.apply_delta(Delta(inserted={"E": [(0, 1)]})) is db
        assert db.apply_delta(Delta()) is db

    def test_untouched_relations_are_shared_not_copied(self):
        schema = Schema.of(E=2, P=1)
        db = Database(schema, {"E": [(0, 1)], "P": [(5,)]})
        db.index("P", 0)
        db.canonical_key()
        child = db.apply_delta(Delta(inserted={"E": [(1, 2)]}))
        assert child.relation("P") is db.relation("P")
        assert child.index("P", 0) is db.index("P", 0)
        assert child._sorted_rows["P"] is db._sorted_rows["P"]

    def test_indexes_are_patched_not_rebuilt(self):
        db = Database.graph([(0, 1), (0, 2), (1, 2)])
        db.index("E", 0)  # build on the parent
        child = db.apply_delta(
            Delta(inserted={"E": [(0, 3)]}, deleted={"E": [(0, 1)]})
        )
        patched = child._indexes[("E", (0,))]  # present without rebuilding
        rebuilt = Database.graph([(0, 2), (0, 3), (1, 2)]).index("E", 0)
        assert dict(patched) == dict(rebuilt)

    def test_active_domain_is_patched_incrementally(self):
        db = Database.graph([(0, 1), (1, 2)])
        assert db.active_domain == {0, 1, 2}  # forces the counts
        grown = db.insert("E", (2, 9))
        assert grown._domain == {0, 1, 2, 9}  # patched eagerly, not recomputed
        shrunk = grown.delete("E", (0, 1))
        assert shrunk.active_domain == {1, 2, 9}  # 0 left the domain
        back = shrunk.delete("E", (2, 9))
        assert back.active_domain == {1, 2}

    def test_provenance_recorded_and_weak(self):
        db = Database.graph([(0, 1)])
        child = db.insert("E", (1, 2))
        parent, delta = child.delta_base()
        assert parent is db
        assert delta.inserted["E"] == {(1, 2)}
        del db, parent
        import gc

        gc.collect()
        assert child.delta_base() is None  # streams retain nothing


# ---------------------------------------------------------------------------
# satellite regressions: trusted with_relation, map_domain injectivity
# ---------------------------------------------------------------------------


class TestFunctionalUpdateRegressions:
    def test_with_relation_does_not_revalidate_unchanged_relations(self, monkeypatch):
        schema = Schema.of(E=2, P=1)
        db = Database(schema, {"E": [(i, i + 1) for i in range(50)], "P": [(0,)]})
        calls = []
        original = RelationSchema.validate_tuple

        def counting(self, row):
            calls.append(self.name)
            return original(self, row)

        monkeypatch.setattr(RelationSchema, "validate_tuple", counting)
        db.with_relation("P", [(1,), (2,)])
        assert "E" not in calls  # the 50 untouched rows were not re-validated

    def test_insert_validates_only_the_delta(self, monkeypatch):
        db = Database.graph([(i, i + 1) for i in range(50)])
        calls = []
        original = RelationSchema.validate_tuple

        def counting(self, row):
            calls.append(tuple(row))
            return original(self, row)

        monkeypatch.setattr(RelationSchema, "validate_tuple", counting)
        db.insert("E", (100, 101))
        assert len(calls) == 1

    def test_map_domain_permutation_still_works(self):
        db = Database.graph([(1, 2), (2, 3)])
        renamed = db.map_domain({1: 2, 2: 3, 3: 1})
        assert renamed.edges == {(2, 3), (3, 1)}

    def test_map_domain_merge_collision_raises(self):
        db = Database.graph([(1, 2), (2, 3)])
        with pytest.raises(DatabaseError, match="injective"):
            db.map_domain({1: 9, 2: 9})

    def test_map_domain_collision_with_unmapped_element_raises(self):
        db = Database.graph([(1, 2)])
        # 1 -> 2 collides with the untouched domain element 2
        with pytest.raises(DatabaseError, match="injective"):
            db.map_domain({1: 2})

    def test_map_domain_may_reuse_values_outside_the_domain(self):
        db = Database.graph([(1, 2)])
        renamed = db.map_domain({1: 7, 2: 8})
        assert renamed.edges == {(7, 8)}


# ---------------------------------------------------------------------------
# the transactional store's delta fast path
# ---------------------------------------------------------------------------


class TestStoreDeltaPath:
    def test_snapshot_is_cached_between_writes(self):
        store = Store(GRAPH_SCHEMA, Database.graph([(0, 1)]))
        assert store.snapshot() is store.snapshot()

    def test_snapshot_patches_with_the_write_log(self):
        store = Store(GRAPH_SCHEMA, Database.graph([(0, 1)]))
        before = store.snapshot()
        store.begin()
        store.insert("E", (1, 2))
        store.delete("E", (0, 1))
        after = store.snapshot()
        assert after == Database.graph([(1, 2)])
        parent, delta = after.delta_base()
        assert parent is before
        assert delta.inserted["E"] == {(1, 2)}
        assert delta.deleted["E"] == {(0, 1)}
        store.commit_unchecked()

    def test_snapshot_after_rollback_restores_the_original_content(self):
        store = Store(GRAPH_SCHEMA, Database.graph([(0, 1)]))
        original = store.snapshot()
        store.begin()
        store.insert("E", (1, 2))
        mid = store.snapshot()  # snapshot inside the transaction
        assert mid == Database.graph([(0, 1), (1, 2)])
        store.rollback()
        assert store.snapshot() == original

    def test_apply_database_uses_the_provenance_chain(self):
        initial = Database.graph([(0, 1), (1, 2)])
        store = Store(GRAPH_SCHEMA, initial)
        state = store.snapshot()
        target = state.insert("E", (2, 3)).delete("E", (0, 1))
        store.begin()
        store.apply_database(target)
        assert store.snapshot() == target
        store.rollback()
        assert store.snapshot() == initial

    def test_apply_database_falls_back_to_diffing_unrelated_targets(self):
        store = Store(GRAPH_SCHEMA, Database.graph([(0, 1)]))
        store.snapshot()
        store.begin()
        store.apply_database(Database.graph([(5, 6)]))
        store.commit_unchecked()
        assert store.snapshot() == Database.graph([(5, 6)])

    def test_store_apply_delta_logs_every_write(self):
        store = Store(GRAPH_SCHEMA, Database.graph([(0, 1)]))
        store.begin()
        changed = store.apply_delta(
            Delta(inserted={"E": [(1, 2), (0, 1)]}, deleted={"E": [(9, 9)]})
        )
        assert changed == 1  # only (1, 2) was effective
        store.rollback()
        assert store.snapshot() == Database.graph([(0, 1)])

    def test_long_transaction_stream_stays_consistent(self):
        import random

        rng = random.Random(3)
        store = Store(GRAPH_SCHEMA, random_graph(6, 0.4, seed=1))
        mirror = {tuple(e) for e in store.snapshot().edges}
        for _ in range(120):
            a, b = rng.randrange(8), rng.randrange(8)
            store.begin()
            if rng.random() < 0.6:
                store.insert("E", (a, b))
                mirror.add((a, b))
            else:
                store.delete("E", (a, b))
                mirror.discard((a, b))
            if rng.random() < 0.25:
                store.rollback()
                mirror = {tuple(e) for e in store.snapshot().edges}
            else:
                store.commit_unchecked()
            assert store.snapshot() == Database.graph(mirror)
