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

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from ..relational.algebra import (
    Difference,
    Operator,
    Project,
    Union,
)
from ..relational.database import Database
from ..relational.expressions import Attr, Const
from ..relational.relation import Relation, sort_rows
from ..relational.schema import Schema

__all__ = ["RelationDelta", "DatabaseDelta", "delta_query"]


@dataclass(frozen=True, eq=False)
class RelationDelta:
    """Delta of one relation: tuples added / removed by the modification.

    Equality compares attribute names and tuple sets; schema *type tags*
    are ignored because derived queries (reenactment projections) produce
    untyped schemas for the same data.
    """

    schema: Schema
    added: frozenset[tuple[Any, ...]]
    removed: frozenset[tuple[Any, ...]]

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

    @classmethod
    def between(cls, current: Relation, modified: Relation) -> "RelationDelta":
        """``Δ(current, modified)`` with +/- annotations."""
        return cls(
            current.schema,
            added=frozenset(modified.tuples - current.tuples),
            removed=frozenset(current.tuples - modified.tuples),
        )

    def is_empty(self) -> bool:
        return not self.added and not self.removed

    def __len__(self) -> int:
        return len(self.added) + len(self.removed)

    def annotated_rows(self) -> Iterator[tuple[str, tuple[Any, ...]]]:
        """Iterate ``('+', t)`` / ``('-', t)`` pairs, deterministic order."""
        for row in sort_rows(self.removed):
            yield ("-", row)
        for row in sort_rows(self.added):
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
