"""Deltas: first-class descriptions of database updates.

The paper's central workload is a *stream* of transactions against a slowly
changing database.  A :class:`Delta` is the value object describing one step
of that stream — per relation, the set of tuples inserted and the set of
tuples deleted — and is the currency of the whole update fast path:

* :meth:`Database.apply_delta <repro.db.database.Database.apply_delta>`
  consumes a delta and produces the successor database without re-validating
  (or even re-hashing) any untouched row, patching the active-domain,
  hash-index and canonical-ordering caches instead of discarding them;
* the resulting database remembers ``(parent, delta)`` (weakly, so streams
  retain nothing), which lets the query engine evaluate constraints
  *incrementally* (:mod:`repro.engine.delta`) and lets the transactional
  store replay a transaction's net effect in time proportional to the delta;
* deltas compose (:meth:`then`), invert (:meth:`inverse`) and normalise
  against a concrete database (:meth:`normalized`), so the same object
  serves the write log, the maintenance policies and the benchmarks.

A delta is immutable.  Tuples are stored exactly as
:class:`~repro.db.database.Database` stores them (plain tuples); arity
checking happens on :meth:`normalized`, i.e. when a delta first meets a
schema.
"""

from __future__ import annotations

import pickle
import struct
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Delta",
    "DeltaError",
    "patch_buckets",
    "encode_wire_value",
    "decode_wire_value",
]

Row = Tuple[object, ...]
Rows = FrozenSet[Row]

_EMPTY: Rows = frozenset()


def patch_buckets(buckets, key_of, inserted, deleted) -> Dict[Row, Rows]:
    """Clone-and-patch a ``key -> frozenset-of-rows`` index for a row delta.

    The one algorithm behind both the database's hash-index maintenance and
    the incremental engine's per-key join state: deleted rows leave their
    bucket (an emptied bucket is dropped), inserted rows join theirs.  The
    input is never mutated — predecessors keep their indexes valid.
    """
    patched: Dict[Row, Rows] = dict(buckets)
    for row in deleted:
        key = key_of(row)
        bucket = patched.get(key)
        if bucket is None:
            continue
        remaining = bucket - {row}
        if remaining:
            patched[key] = remaining
        else:
            del patched[key]
    for row in inserted:
        key = key_of(row)
        bucket = patched.get(key)
        patched[key] = frozenset({row}) if bucket is None else bucket | {row}
    return patched


class DeltaError(ValueError):
    """Raised for contradictory or schema-incompatible deltas."""


# ---------------------------------------------------------------------------
# canonical bytes framing for wire values
# ---------------------------------------------------------------------------
#
# The durable log records `Delta.to_wire()` forms as bytes.  The encoding is
# *canonical*: one byte sequence per value, independent of dict ordering or
# interpreter state, so equal deltas serialize to identical bytes (the wire
# form already sorts relations and rows).  The native tags cover every value
# the workloads produce (ints, strings, floats, bytes, bools, None, nested
# tuples); anything else falls back to a pickle-tagged payload, which round
# trips but is only as canonical as pickle itself.

_LEN = struct.Struct(">I")
_F64 = struct.Struct(">d")


def _encode_into(out: bytearray, value: object) -> None:
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif type(value) is int:
        raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
        out += b"i"
        out += _LEN.pack(len(raw))
        out += raw
    elif type(value) is float:
        out += b"f"
        out += _F64.pack(value)
    elif type(value) is str:
        raw = value.encode("utf-8")
        out += b"s"
        out += _LEN.pack(len(raw))
        out += raw
    elif type(value) is bytes:
        out += b"b"
        out += _LEN.pack(len(value))
        out += value
    elif type(value) is tuple:
        out += b"t"
        out += _LEN.pack(len(value))
        for item in value:
            _encode_into(out, item)
    else:
        raw = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        out += b"P"
        out += _LEN.pack(len(raw))
        out += raw


def encode_wire_value(value: object) -> bytes:
    """Canonical bytes for a (possibly nested) plain-tuple wire value."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def _decode_at(data: bytes, pos: int) -> Tuple[object, int]:
    if pos >= len(data):
        raise DeltaError("truncated wire bytes: value expected")
    tag = data[pos:pos + 1]
    pos += 1
    if tag == b"N":
        return None, pos
    if tag == b"T":
        return True, pos
    if tag == b"F":
        return False, pos
    if tag == b"f":
        if pos + 8 > len(data):
            raise DeltaError("truncated wire bytes: float payload")
        return _F64.unpack_from(data, pos)[0], pos + 8
    if tag in (b"i", b"s", b"b", b"P", b"t"):
        if pos + 4 > len(data):
            raise DeltaError("truncated wire bytes: length header")
        (length,) = _LEN.unpack_from(data, pos)
        pos += 4
        if tag == b"t":
            items = []
            for _ in range(length):
                item, pos = _decode_at(data, pos)
                items.append(item)
            return tuple(items), pos
        if pos + length > len(data):
            raise DeltaError("truncated wire bytes: payload")
        raw = data[pos:pos + length]
        pos += length
        if tag == b"i":
            return int.from_bytes(raw, "big", signed=True), pos
        if tag == b"s":
            try:
                return raw.decode("utf-8"), pos
            except UnicodeDecodeError as exc:
                raise DeltaError(f"corrupt wire bytes: {exc}") from None
        if tag == b"b":
            return raw, pos
        try:
            return pickle.loads(raw), pos
        except Exception as exc:  # noqa: BLE001 - any unpickling failure is corruption
            raise DeltaError(f"corrupt pickled wire payload: {exc!r}") from None
    raise DeltaError(f"unknown wire tag {tag!r} at offset {pos - 1}")


def decode_wire_value(data: bytes) -> object:
    """Inverse of :func:`encode_wire_value`; rejects trailing bytes."""
    value, pos = _decode_at(bytes(data), 0)
    if pos != len(data):
        raise DeltaError(f"{len(data) - pos} trailing bytes after wire value")
    return value


def _freeze(
    mapping: Optional[Mapping[str, Iterable[Sequence[object]]]]
) -> Dict[str, Rows]:
    frozen: Dict[str, Rows] = {}
    for name, rows in (mapping or {}).items():
        rows = frozenset(tuple(row) for row in rows)
        if rows:
            frozen[name] = rows
    return frozen


class Delta:
    """An immutable set of per-relation insertions and deletions.

    Empty row sets are dropped on construction, so ``touched()`` names
    exactly the relations the delta affects.  A row may not be both inserted
    and deleted by the same delta — that is contradictory, not a no-op.
    """

    __slots__ = ("_inserted", "_deleted")

    def __init__(
        self,
        inserted: Optional[Mapping[str, Iterable[Sequence[object]]]] = None,
        deleted: Optional[Mapping[str, Iterable[Sequence[object]]]] = None,
    ):
        self._inserted = _freeze(inserted)
        self._deleted = _freeze(deleted)
        for name, rows in self._inserted.items():
            clash = rows & self._deleted.get(name, _EMPTY)
            if clash:
                raise DeltaError(
                    f"delta both inserts and deletes {sorted(clash, key=repr)[:3]} "
                    f"in relation {name!r}"
                )

    # -- constructors -----------------------------------------------------------

    @classmethod
    def insertion(cls, relation: str, *rows: Sequence[object]) -> "Delta":
        """A pure insertion of ``rows`` into ``relation``."""
        return cls(inserted={relation: rows})

    @classmethod
    def deletion(cls, relation: str, *rows: Sequence[object]) -> "Delta":
        """A pure deletion of ``rows`` from ``relation``."""
        return cls(deleted={relation: rows})

    @classmethod
    def from_databases(cls, old: "Database", new: "Database") -> "Delta":
        """The exact difference ``new - old`` (both over the same schema)."""
        if old.schema != new.schema:
            raise DeltaError("databases have different schemas")
        inserted: Dict[str, Rows] = {}
        deleted: Dict[str, Rows] = {}
        for name in old.schema.relation_names:
            before, after = old.relation(name), new.relation(name)
            if before is after:
                continue
            inserted[name] = after - before
            deleted[name] = before - after
        return cls(inserted, deleted)

    @classmethod
    def between(
        cls, base: "Database", target: "Database", max_depth: int = 64
    ) -> Optional["Delta"]:
        """The delta turning ``base`` into ``target`` via provenance, if known.

        Walks ``target``'s ``apply_delta`` ancestry looking for ``base`` *by
        identity* and composes the recorded per-step deltas — O(total delta),
        never O(database).  Returns ``None`` when the chain does not reach
        ``base`` (garbage-collected parent, unrelated database, or a
        construction path that did not go through ``apply_delta``); callers
        then fall back to :meth:`from_databases`.
        """
        if target is base:
            return cls()
        current = target
        to_target: Optional["Delta"] = None
        for _ in range(max_depth):
            link = current.provenance_step()
            if link is None:
                return None
            parent, step = link
            to_target = step if to_target is None else step.then(to_target)
            if parent is base:
                return to_target
            current = parent
        return None

    # -- accessors --------------------------------------------------------------

    @property
    def inserted(self) -> Mapping[str, Rows]:
        return self._inserted

    @property
    def deleted(self) -> Mapping[str, Rows]:
        return self._deleted

    def touched(self) -> FrozenSet[str]:
        """The names of relations this delta affects."""
        return frozenset(self._inserted) | frozenset(self._deleted)

    # -- wire form --------------------------------------------------------------

    #: bump when the wire layout below changes incompatibly
    WIRE_VERSION = "delta/1"

    def to_wire(self) -> Tuple:
        """A versioned, deterministic, plain-tuple form — the WAL record.

        Deltas pickle fine as objects, but the wire form is what the durable
        log records: no class reference, a version tag for forward
        compatibility, and deterministic ordering (relations and rows
        sorted) so equal deltas serialize identically.
        """
        def _rows(rows: Rows) -> Tuple[Row, ...]:
            return tuple(sorted(rows, key=repr))

        return (
            self.WIRE_VERSION,
            tuple(
                (name, _rows(rows)) for name, rows in sorted(self._inserted.items())
            ),
            tuple(
                (name, _rows(rows)) for name, rows in sorted(self._deleted.items())
            ),
        )

    @classmethod
    def from_wire(cls, wire: Tuple) -> "Delta":
        """Rebuild a delta from :meth:`to_wire` output (round-trip equal)."""
        if not (
            isinstance(wire, tuple)
            and len(wire) == 3
            and wire[0] == cls.WIRE_VERSION
        ):
            raise DeltaError(f"not a {cls.WIRE_VERSION} wire value: {wire!r:.80}")
        return cls(
            inserted={name: rows for name, rows in wire[1]},
            deleted={name: rows for name, rows in wire[2]},
        )

    def to_bytes(self) -> bytes:
        """Canonical bytes of :meth:`to_wire` — the durable-log record payload.

        Equal deltas produce identical bytes (the wire form sorts relations
        and rows, the encoding is canonical), which is what lets the WAL
        layer CRC-guard records and compare them across processes.
        """
        return encode_wire_value(self.to_wire())

    @classmethod
    def from_bytes(cls, data: bytes) -> "Delta":
        """Rebuild a delta from :meth:`to_bytes` output (round-trip equal).

        Raises :class:`DeltaError` on truncated, trailing or otherwise
        malformed bytes — the framing layer's contract is *reject, never
        misparse*: recovery stops at the last valid record instead of
        replaying garbage.
        """
        wire = decode_wire_value(data)
        if not isinstance(wire, tuple):
            raise DeltaError(f"wire bytes decode to {type(wire).__name__}, not a tuple")
        try:
            return cls.from_wire(wire)
        except DeltaError:
            raise
        except (TypeError, ValueError) as exc:
            raise DeltaError(f"malformed delta wire structure: {exc!r}") from None

    def rows_in(self, relation: str) -> Rows:
        """Every row this delta touches (inserts or deletes) in ``relation``."""
        return self._inserted.get(relation, _EMPTY) | self._deleted.get(
            relation, _EMPTY
        )

    def overlapping_rows(self, other: "Delta") -> Dict[str, Rows]:
        """Per relation, the rows touched by both ``self`` and ``other``.

        This is the write-write conflict witness of optimistic concurrency
        control: two transactions whose deltas share a touched row cannot both
        commit against the same base state without one clobbering the other.
        Only relations with a non-empty intersection appear in the result.
        """
        common: Dict[str, Rows] = {}
        for name in self.touched() & other.touched():
            shared = self.rows_in(name) & other.rows_in(name)
            if shared:
                common[name] = shared
        return common

    def overlaps(self, other: "Delta") -> bool:
        """Do the two deltas touch a common row in some relation?

        The cheap boolean form of :meth:`overlapping_rows` — O(min(|self|,
        |other|)) set intersections over the commonly-touched relations.
        """
        for name in self.touched() & other.touched():
            if self.rows_in(name) & other.rows_in(name):
                return True
        return False

    def is_empty(self) -> bool:
        return not self._inserted and not self._deleted

    def __len__(self) -> int:
        """Total number of tuple insertions plus deletions."""
        return sum(len(r) for r in self._inserted.values()) + sum(
            len(r) for r in self._deleted.values()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Delta):
            return NotImplemented
        return self._inserted == other._inserted and self._deleted == other._deleted

    def __hash__(self) -> int:
        return hash(
            (
                frozenset(self._inserted.items()),
                frozenset(self._deleted.items()),
            )
        )

    def __repr__(self) -> str:
        parts = []
        for name in sorted(self.touched()):
            ins = len(self._inserted.get(name, _EMPTY))
            dels = len(self._deleted.get(name, _EMPTY))
            parts.append(f"{name}:+{ins}/-{dels}")
        return f"Delta({', '.join(parts)})"

    # -- algebra ----------------------------------------------------------------

    def inverse(self) -> "Delta":
        """The delta that undoes this one (valid for normalized deltas)."""
        return Delta(inserted=self._deleted, deleted=self._inserted)

    def then(self, later: "Delta") -> "Delta":
        """Compose: the net effect of applying ``self`` and then ``later``.

        Both deltas must be *effective* (normalized) relative to the states
        they were applied to — the invariant every delta produced by
        ``apply_delta`` or the store's write log satisfies.
        """
        inserted: Dict[str, Rows] = {}
        deleted: Dict[str, Rows] = {}
        for name in self.touched() | later.touched():
            ins1 = self._inserted.get(name, _EMPTY)
            del1 = self._deleted.get(name, _EMPTY)
            ins2 = later._inserted.get(name, _EMPTY)
            del2 = later._deleted.get(name, _EMPTY)
            inserted[name] = (ins1 - del2) | (ins2 - del1)
            deleted[name] = (del1 - ins2) | (del2 - ins1)
        return Delta(inserted, deleted)

    def normalized(self, db: "Database") -> "Delta":
        """The effective part of this delta relative to ``db``.

        Validates relation names and tuple arities against the schema, drops
        insertions of rows already present and deletions of rows absent, and
        returns a delta whose insertions are disjoint from ``db`` and whose
        deletions are a subset of it (the invariant ``apply_delta`` and the
        incremental engine rely on).  Cost is O(|delta|).
        """
        schema = db.schema
        unknown = self.touched() - set(schema.relation_names)
        if unknown:
            raise DeltaError(f"relations {sorted(unknown)} are not part of the schema")
        inserted: Dict[str, Rows] = {}
        deleted: Dict[str, Rows] = {}
        changed = False
        for name, rows in self._inserted.items():
            rel_schema = schema[name]
            rows = frozenset(rel_schema.validate_tuple(row) for row in rows)
            effective = rows - db.relation(name)
            if effective != self._inserted[name]:
                changed = True
            if effective:
                inserted[name] = effective
        for name, rows in self._deleted.items():
            rel_schema = schema[name]
            rows = frozenset(rel_schema.validate_tuple(row) for row in rows)
            effective = rows & db.relation(name)
            if effective != self._deleted[name]:
                changed = True
            if effective:
                deleted[name] = effective
        if not changed:
            return self
        return Delta(inserted, deleted)

    # -- domain bookkeeping ------------------------------------------------------

    def occurrence_delta(self) -> Dict[object, int]:
        """Net change in the number of occurrences of each domain value."""
        occurrences: Dict[object, int] = {}
        for rows in self._inserted.values():
            for row in rows:
                for value in row:
                    occurrences[value] = occurrences.get(value, 0) + 1
        for rows in self._deleted.values():
            for row in rows:
                for value in row:
                    occurrences[value] = occurrences.get(value, 0) - 1
        return occurrences

    def domain_delta(
        self, base: "Database"
    ) -> Tuple[FrozenSet[object], FrozenSet[object]]:
        """``(added, removed)`` active-domain values, relative to ``base``.

        Only values occurring in the delta's rows are examined, so the cost is
        O(|delta|) given ``base``'s (lazily built, then patched-forward)
        occurrence counts.  The delta must be normalized relative to ``base``.
        """
        counts = base.occurrence_counts()
        added = set()
        removed = set()
        for value, change in self.occurrence_delta().items():
            before = counts.get(value, 0)
            after = before + change
            if before == 0 and after > 0:
                added.add(value)
            elif before > 0 and after <= 0:
                removed.add(value)
        return frozenset(added), frozenset(removed)
