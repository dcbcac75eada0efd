"""Set-semantics relation instances.

Per Section 2 of the paper, a relation instance of arity ``n`` is a subset
of ``D^n``.  We store relations as frozensets of value tuples together with
their :class:`~repro.relational.schema.Schema` — or, for a state that
statement replay produced, as the columnar table it computed, with the
frozenset built on first read.  All operations are
functional: statements and queries produce new relations and never mutate
their inputs, which is what makes cheap snapshot-based time travel possible
(see :mod:`repro.relational.versioning`).
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError
from typing import Any, Callable, Iterable, Iterator, Mapping

from .expressions import Expr, evaluate
from .schema import Schema, SchemaError

__all__ = ["Relation", "sort_rows"]

_set = object.__setattr__


class Relation:
    """An immutable set-semantics relation instance, in one of two forms
    that hold the same value.

    *Row-backed*: the rows as a frozenset of plain tuples.  The public
    constructors build this form and validate every row (a plain tuple
    of the schema's arity).

    *Table-backed*: a set-semantics
    :class:`~repro.relational.columnar.ColumnarTable` (distinct rows, no
    multiplicities).  The frozenset is built the first time something
    reads :attr:`tuples`, iterates, compares, hashes or pickles the
    relation (a checkpoint write, the interpreter, ``==``, a process
    pool) and kept; ``len`` reads the table's row count, and
    :func:`~repro.relational.columnar.columnar_of_relation` returns the
    table itself.  Only statement replay on the compiled backend
    (:mod:`repro.relational.exec.plan_compile`) builds one, through
    :meth:`_of_table`: every row it holds is an input row or one the
    columnar evaluator computed, and it removes duplicates itself, so
    the rows are neither re-validated nor hashed.

    Either way the relation is frozen, weakly referenceable (what is
    derived from it is remembered on its identity, see
    :mod:`repro.relational.identity_memo`) and compares, hashes,
    prints and pickles by ``(schema, tuples)``.
    """

    __slots__ = ("schema", "_rows", "_table", "__weakref__")

    schema: Schema

    def __init__(
        self, schema: Schema, tuples: Iterable[tuple[Any, ...]]
    ) -> None:
        raw = tuples
        # A frozenset of plain tuples needs no rebuild: validating in
        # place skips rehashing every row, which is measurable on the
        # execution backends' result construction.
        if type(raw) is frozenset and all(type(t) is tuple for t in raw):
            rows = raw
        else:
            rows = frozenset(
                t if type(t) is tuple else tuple(t) for t in raw
            )
        arity = schema.arity  # bound once: this loop is hot
        for t in rows:
            if len(t) != arity:
                raise SchemaError(
                    f"tuple {t} has arity {len(t)}, schema expects "
                    f"{arity}"
                )
        _set(self, "schema", schema)
        _set(self, "_rows", rows)
        _set(self, "_table", None)

    @classmethod
    def _of_table(cls, table: Any) -> "Relation":
        """The table-backed relation over ``table``, whose rows must be
        distinct (see the class docstring for who may call it)."""
        relation = object.__new__(cls)
        _set(relation, "schema", table.schema)
        _set(relation, "_rows", None)
        _set(relation, "_table", table)
        return relation

    @property
    def tuples(self) -> frozenset[tuple[Any, ...]]:
        """The rows, as a frozenset of plain tuples."""
        rows = self._rows
        if rows is None:
            rows = self._materialize()
        return rows

    def _materialize(self) -> frozenset[tuple[Any, ...]]:
        """Build and keep a table-backed relation's frozenset (a race
        builds two equal sets; one is kept, and no reader can tell)."""
        rows = frozenset(self._table.tuples())
        _set(self, "_rows", rows)
        return rows

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.schema, self.tuples) == (
            other.schema, other.tuples  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((self.schema, self.tuples))

    def __repr__(self) -> str:
        return f"Relation(schema={self.schema!r}, tuples={self.tuples!r})"

    def __reduce__(self) -> tuple:
        return (_restored, (self.schema, self.tuples))

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
        if self._rows is None:
            return int(self._table.nrows)
        return len(self._rows)

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


def _restored(schema: Schema, rows: frozenset) -> Relation:
    """Unpickle a relation: its rows were validated when it was built."""
    relation = object.__new__(Relation)
    _set(relation, "schema", schema)
    _set(relation, "_rows", rows)
    _set(relation, "_table", None)
    return relation


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
    need the key.

    Exact types are counted in C, one pass per type the column may
    hold.  NaN, the one value unequal to itself, makes a float column's
    sum NaN (so does ``inf`` beside ``-inf``: that column takes the key,
    harmlessly); a column mixing ints and floats is scanned value by
    value instead, since an int past float range would make the sum
    raise."""
    kind = type(column[0])
    if kind is str:
        return operator.countOf(map(type, column), str) == len(column)
    if kind is not int and kind is not float:
        return False
    count = operator.countOf(map(type, column), kind)
    if count == len(column):
        total = sum(column)
        return bool(total == total)
    other = float if kind is int else int
    if count + operator.countOf(map(type, column), other) < len(column):
        return False
    return all(map(operator.eq, column, column))


def _fmt(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)
