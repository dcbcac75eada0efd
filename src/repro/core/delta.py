"""Database deltas — the answers to historical what-if queries.

``Δ(D, D')`` contains every tuple in exactly one of the two databases,
annotated ``+`` (only in D', i.e. produced by the hypothetical history) or
``-`` (only in D, i.e. produced by the real history) — Section 3.

The delta can be computed directly from two databases or expressed as a
relational-algebra query (the paper evaluates it as one query per
relation; :func:`delta_query` builds exactly that query so the SQL surface
can be inspected/rendered).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

from ..relational.algebra import (
    Difference,
    Operator,
    Project,
    Union,
)
from ..relational.columnar import ColumnarTable, column_values, sorted_delta
from ..relational.database import Database
from ..relational.expressions import Attr, Const
from ..relational.relation import Relation, sort_rows
from ..relational.schema import Schema, SchemaError

__all__ = ["RelationDelta", "DatabaseDelta", "delta_query"]


#: Guards the first read of a columnar delta's ``added`` / ``removed``:
#: threads reading it together get one and the same frozenset.
_MATERIALIZE = threading.Lock()


class RelationDelta:
    """Delta of one relation: tuples added / removed by the modification.

    Equality compares attribute names and tuple sets; schema *type tags*
    are ignored because derived queries (reenactment projections) produce
    untyped schemas for the same data.

    A delta is held in one of two forms.  One computed by
    :meth:`of_results` from the columnar evaluator's result tables holds
    the removed and the added rows as two :class:`ColumnarTable` s in
    ``sort_rows`` order (:meth:`tables`); ``added`` / ``removed`` become
    frozensets when something first reads them, and ``len``,
    ``is_empty``, :meth:`sorted_rows` and the wire encoder never need
    them.  Any other delta holds the frozensets it was built with, and
    its tables are built from their sorted rows when the wire encoder
    asks for them.
    """

    __slots__ = ("schema", "_added", "_removed", "_tables")

    def __init__(
        self,
        schema: Schema,
        added: frozenset[tuple[Any, ...]],
        removed: frozenset[tuple[Any, ...]],
    ) -> None:
        self.schema = schema
        self._added = added
        self._removed = removed
        self._tables: tuple[ColumnarTable, ColumnarTable] | None = None

    @classmethod
    def _of_tables(
        cls, schema: Schema, removed: ColumnarTable, added: ColumnarTable
    ) -> "RelationDelta":
        delta = cls.__new__(cls)
        delta.schema = schema
        delta._added = delta._removed = None
        delta._tables = (removed, added)
        return delta

    @property
    def added(self) -> frozenset[tuple[Any, ...]]:
        if self._added is None:
            self._materialize()
        return self._added  # type: ignore[return-value]

    @property
    def removed(self) -> frozenset[tuple[Any, ...]]:
        if self._removed is None:
            self._materialize()
        return self._removed  # type: ignore[return-value]

    def _materialize(self) -> None:
        with _MATERIALIZE:
            if self._added is None:
                removed, added = self._tables  # type: ignore[misc]
                self._removed = frozenset(removed.tuples())
                self._added = frozenset(added.tuples())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationDelta):
            return NotImplemented
        return (
            self.schema.attributes == other.schema.attributes
            and self.added == other.added
            and self.removed == other.removed
        )

    def __hash__(self) -> int:
        return hash((self.schema.attributes, self.added, self.removed))

    def __repr__(self) -> str:
        return (
            f"RelationDelta(schema={self.schema!r}, added={self.added!r}, "
            f"removed={self.removed!r})"
        )

    def __reduce__(self):
        # What crosses a process pool: the frozensets, not the tables
        # (whose columns reach the whole stored relation's cells).
        return (RelationDelta, (self.schema, self.added, self.removed))

    @classmethod
    def between(cls, current: Relation, modified: Relation) -> "RelationDelta":
        """``Δ(current, modified)`` with +/- annotations."""
        return cls(
            current.schema,
            added=frozenset(modified.tuples - current.tuples),
            removed=frozenset(current.tuples - modified.tuples),
        )

    @classmethod
    def of_results(
        cls,
        current: Relation | ColumnarTable,
        modified: Relation | ColumnarTable,
        extra_current: Relation | None = None,
        extra_modified: Relation | None = None,
    ) -> "RelationDelta":
        """``Δ`` of a reenactment query pair's two results, as an
        execution backend's ``evaluate_pair`` returns them, each unioned
        with its side's Section-10 inserted tuples (``extra_*``).

        Two columnar tables are compared in one ordering
        (:func:`~repro.relational.columnar.sorted_delta`) into a
        columnar delta; when some attribute has no exact sort key, and
        for relations, this is :meth:`between` of the two unions."""
        if isinstance(current, ColumnarTable):
            sides = []
            for table, extra in (
                (current, extra_current), (modified, extra_modified)
            ):
                if extra is not None:
                    if extra.schema.arity != table.schema.arity:
                        raise SchemaError(
                            f"arity mismatch: {table.schema.arity} vs "
                            f"{extra.schema.arity}"
                        )
                    table = table.concat(ColumnarTable.from_relation(extra))
                sides.append(table)
            ordered = sorted_delta(sides[0], sides[1])
            if ordered is not None:
                return cls._of_tables(current.schema, *ordered)
            current, modified = sides[0].to_relation(), sides[1].to_relation()
        else:
            if extra_current is not None:
                current = current.union(extra_current)
            if extra_modified is not None:
                modified = modified.union(extra_modified)
        return cls.between(current, modified)  # type: ignore[arg-type]

    def is_empty(self) -> bool:
        return len(self) == 0

    def __len__(self) -> int:
        if self._tables is not None:
            removed, added = self._tables
            return removed.nrows + added.nrows
        return len(self._added) + len(self._removed)  # type: ignore[arg-type]

    def tables(self) -> tuple[ColumnarTable, ColumnarTable]:
        """The removed and the added rows as columnar tables, each in
        ``sort_rows`` order: the wire encoder's input."""
        if self._tables is None:
            self._tables = (
                ColumnarTable.from_rows(
                    self.schema, sort_rows(self._removed)  # type: ignore[arg-type]
                ),
                ColumnarTable.from_rows(
                    self.schema, sort_rows(self._added)  # type: ignore[arg-type]
                ),
            )
        return self._tables

    def sorted_rows(self, row: Callable[[Any], Any] = tuple) -> tuple[list, list]:
        """The removed and the added rows, each in ``sort_rows`` order,
        each row made by ``row`` from its cells (``list``: the wire
        payload's rows) — from the tables where the delta holds them,
        by ``sort_rows`` of the frozensets otherwise."""
        if self._tables is None:
            return tuple(  # type: ignore[return-value]
                list(map(row, sort_rows(rows)))
                for rows in (self._removed, self._added)
            )
        return tuple(  # type: ignore[return-value]
            [row(()) for _ in range(table.nrows)] if not table.columns
            else list(map(row, zip(*map(column_values, table.columns))))
            for table in self._tables
        )

    def annotated_rows(self) -> Iterator[tuple[str, tuple[Any, ...]]]:
        """Iterate ``('+', t)`` / ``('-', t)`` pairs, deterministic order."""
        removed, added = self.sorted_rows()
        for row in removed:
            yield ("-", row)
        for row in added:
            yield ("+", row)

    def pretty(self) -> str:
        lines = []
        for sign, row in self.annotated_rows():
            cells = ", ".join(str(v) for v in row)
            lines.append(f"{sign} ({cells})")
        return "\n".join(lines) if lines else "(empty delta)"


@dataclass(frozen=True)
class DatabaseDelta:
    """Delta of a whole database, keyed by relation name."""

    relations: Mapping[str, RelationDelta]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "relations",
            {
                name: delta
                for name, delta in dict(self.relations).items()
                if not delta.is_empty()
            },
        )

    @classmethod
    def between(cls, current: Database, modified: Database) -> "DatabaseDelta":
        """``Δ(D_current, D_modified)`` across all relations."""
        names = set(current.relations) | set(modified.relations)
        deltas: dict[str, RelationDelta] = {}
        for name in names:
            cur = current.relations.get(name)
            mod = modified.relations.get(name)
            if cur is None and mod is None:
                continue
            if cur is None:
                cur = Relation.empty(mod.schema)  # type: ignore[union-attr]
            if mod is None:
                mod = Relation.empty(cur.schema)
            deltas[name] = RelationDelta.between(cur, mod)
        return cls(deltas)

    def is_empty(self) -> bool:
        return not self.relations

    def __len__(self) -> int:
        return sum(len(d) for d in self.relations.values())

    def __getitem__(self, name: str) -> RelationDelta:
        delta = self.relations.get(name)
        if delta is None:
            # relations with no difference are empty deltas
            raise KeyError(name)
        return delta

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseDelta):
            return NotImplemented
        return dict(self.relations) == dict(other.relations)

    def pretty(self) -> str:
        if self.is_empty():
            return "(empty delta)"
        parts = []
        for name in sorted(self.relations):
            parts.append(f"== Δ {name} ==")
            parts.append(self.relations[name].pretty())
        return "\n".join(parts)


def delta_query(
    schema: Schema, current: Operator, modified: Operator
) -> Operator:
    """The paper's delta query (Section 4)::

        Π_{A, '-'}(Q_cur − Q_mod) ∪ Π_{A, '+'}(Q_mod − Q_cur)

    Output schema is the relation's schema plus an ``_annotation`` column.
    """
    attributes = [(Attr(a), a) for a in schema.attributes]
    minus = Project(
        Difference(current, modified),
        tuple(attributes + [(Const("-"), "_annotation")]),
    )
    plus = Project(
        Difference(modified, current),
        tuple(attributes + [(Const("+"), "_annotation")]),
    )
    return Union(minus, plus)
