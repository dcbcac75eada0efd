"""Set-semantics relation instances.

Per Section 2 of the paper, a relation instance of arity ``n`` is a subset
of ``D^n``.  We store relations as frozensets of value tuples together with
their :class:`~repro.relational.schema.Schema`.  All operations are
functional: statements and queries produce new relations and never mutate
their inputs, which is what makes cheap snapshot-based time travel possible
(see :mod:`repro.relational.versioning`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping

from .expressions import Expr, evaluate
from .schema import Schema, SchemaError

__all__ = ["Relation", "sort_rows"]


@dataclass(frozen=True)
class Relation:
    """An immutable set-semantics relation instance."""

    schema: Schema
    tuples: frozenset[tuple[Any, ...]]

    def __post_init__(self) -> None:
        raw = self.tuples
        # A frozenset of plain tuples needs no rebuild: validating in
        # place skips rehashing every row, which is measurable on the
        # execution backends' result construction.
        if type(raw) is frozenset and all(type(t) is tuple for t in raw):
            tuples = raw
        else:
            tuples = frozenset(
                t if type(t) is tuple else tuple(t) for t in raw
            )
        arity = self.schema.arity  # bound once: this loop is hot
        for t in tuples:
            if len(t) != arity:
                raise SchemaError(
                    f"tuple {t} has arity {len(t)}, schema expects "
                    f"{arity}"
                )
        object.__setattr__(self, "tuples", tuples)

    # -- construction ------------------------------------------------------
    @classmethod
    def from_rows(
        cls, schema: Schema | Iterable[str], rows: Iterable[Iterable[Any]]
    ) -> "Relation":
        """Build a relation from an iterable of row tuples."""
        if not isinstance(schema, Schema):
            schema = Schema(tuple(schema))
        return cls(schema, frozenset(tuple(r) for r in rows))

    @classmethod
    def from_dicts(
        cls, schema: Schema, rows: Iterable[Mapping[str, Any]]
    ) -> "Relation":
        """Build a relation from attribute->value mappings."""
        return cls(
            schema, frozenset(schema.from_dict(dict(r)) for r in rows)
        )

    @classmethod
    def empty(cls, schema: Schema) -> "Relation":
        return cls(schema, frozenset())

    # -- basic protocol ------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.tuples)

    def __contains__(self, row: tuple[Any, ...]) -> bool:
        return tuple(row) in self.tuples

    def rows_as_dicts(self) -> Iterator[dict[str, Any]]:
        """Iterate tuples as attribute->value mappings."""
        for t in self.tuples:
            yield self.schema.as_dict(t)

    # -- set algebra ---------------------------------------------------------
    def _check_compatible(self, other: "Relation") -> None:
        if self.schema.arity != other.schema.arity:
            raise SchemaError(
                f"arity mismatch: {self.schema.arity} vs {other.schema.arity}"
            )

    def union(self, other: "Relation") -> "Relation":
        self._check_compatible(other)
        return Relation(self.schema, self.tuples | other.tuples)

    def difference(self, other: "Relation") -> "Relation":
        self._check_compatible(other)
        return Relation(self.schema, self.tuples - other.tuples)

    def intersection(self, other: "Relation") -> "Relation":
        self._check_compatible(other)
        return Relation(self.schema, self.tuples & other.tuples)

    def symmetric_difference(self, other: "Relation") -> "Relation":
        self._check_compatible(other)
        return Relation(self.schema, self.tuples ^ other.tuples)

    # -- tuple-at-a-time operations -------------------------------------------
    def filter(self, condition: Expr) -> "Relation":
        """Tuples satisfying ``condition`` (a selection)."""
        kept = frozenset(
            t
            for t in self.tuples
            if bool(evaluate(condition, self.schema.as_dict(t)))
        )
        return Relation(self.schema, kept)

    def map_rows(
        self,
        fn: Callable[[dict[str, Any]], dict[str, Any]],
        schema: Schema | None = None,
    ) -> "Relation":
        """Apply ``fn`` to each row mapping; optionally change schema."""
        out_schema = schema or self.schema
        rows = frozenset(
            out_schema.from_dict(fn(self.schema.as_dict(t)))
            for t in self.tuples
        )
        return Relation(out_schema, rows)

    def insert(self, row: Iterable[Any]) -> "Relation":
        row = tuple(row)
        if len(row) != self.schema.arity:
            raise SchemaError(
                f"insert arity {len(row)} != schema arity {self.schema.arity}"
            )
        return Relation(self.schema, self.tuples | {row})

    def sorted_rows(self) -> list[tuple[Any, ...]]:
        """Deterministically ordered rows (see :func:`sort_rows`)."""
        return sort_rows(self.tuples)

    def pretty(self, limit: int = 20) -> str:
        """Simple fixed-width rendering of the relation."""
        rows = self.sorted_rows()[:limit]
        header = list(self.schema.attributes)
        cells = [[_fmt(v) for v in row] for row in rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in cells)) if cells else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(header, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for r in cells:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
        if len(self.tuples) > limit:
            lines.append(f"... ({len(self.tuples) - limit} more rows)")
        return "\n".join(lines)


def _sort_key(value: Any) -> tuple[int, int, Any]:
    """Total order over mixed-type values for deterministic output.

    NaN gets its own fixed slot (just above every other number): it
    compares False both ways, so leaving it in the numeric rank would
    make the sort input-order-dependent — CSV export and ``pretty()``
    would shuffle NaN rows between runs.
    """
    if value is None:
        return (0, 0, "")
    if isinstance(value, bool):
        return (1, 0, value)
    if isinstance(value, (int, float)):
        if value != value:  # NaN: pin it, don't let it float around
            return (2, 1, 0.0)
        return (2, 0, value)
    return (3, 0, str(value))


def sort_rows(rows: Iterable[tuple[Any, ...]]) -> list[tuple[Any, ...]]:
    """The one deterministic row order of the tree — checkpoints, CSV,
    the CLI's printed delta and the wire all use it: ascending by
    :func:`_sort_key` cell by cell, so a function of the row *set*
    (rows that differ only in which NaN object they hold tie, as they
    must).

    Building 25 000 key tuples costs ten times the sort itself, so every
    column is first classified by the set of its value types: where
    Python orders each column's values as their keys are ordered, its
    own tuple order *is* the keyed order.
    """
    rows = list(rows)
    if all(map(_ordered_as_keyed, zip(*rows))):
        return sorted(rows)
    return sorted(rows, key=lambda row: tuple(map(_sort_key, row)))


def _ordered_as_keyed(column: tuple[Any, ...]) -> bool:
    """Whether ``<`` and ``==`` on this column's values agree with
    :func:`_sort_key`: all ``str``, or all ``int``/``float`` without
    NaN — every key is then ``(rank, 0, value)`` under one rank.
    ``None``, a ``bool``, NaN, a subclass or numbers beside strings
    need the key."""
    types = set(map(type, column))
    if types == {str}:
        return True
    # NaN is the one value unequal to itself; the scan runs in C (no
    # ``math.isnan``: it raises OverflowError on ints past float range).
    return types <= {int, float} and not (
        float in types and not all(map(operator.eq, column, column))
    )


def _fmt(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)
