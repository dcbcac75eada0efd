"""Bag (multiset) semantics: relations, statements, reenactment, deltas.

The paper's reenactment theorem is proved for annotated relations, which
specializes to both set and bag semantics (footnote to Definition 3).
The main library uses set semantics — simpler, and faithful to Section 5's
presentation — but set semantics has one caveat: an update can *merge* two
tuples onto the same value, and data slicing may then perturb the delta
unless histories are key-preserving (see DESIGN.md).  Under bag semantics
rows keep their multiplicity, merging cannot lose information, and the
slicing theorems hold without the key assumption.

This module provides the bag world: :class:`BagRelation` (tuple →
multiplicity), statement application, a bag evaluator for the same
operator algebra, and bag deltas.  Tests use it to show the set-semantics
collision counterexample is benign under bags.  As in the set world, the
implementations here are the tree-walking *reference* semantics;
``apply_statement_bag`` / ``evaluate_query_bag`` run through a named
execution backend (see :mod:`repro.relational.exec.backend`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping

from .algebra import (
    Difference,
    Join,
    Operator,
    Project,
    RelScan,
    Select,
    Singleton,
    Union,
)
from .database import Database
from .exec.backend import resolve_backend
from .expressions import Expr, evaluate
from .history import History
from .relation import Relation
from .schema import Schema, SchemaError, check_union_compatible
from .statements import (
    DeleteStatement,
    InsertQuery,
    InsertTuple,
    Statement,
    UpdateStatement,
)

__all__ = [
    "BagRelation",
    "BagDatabase",
    "apply_statement_bag",
    "apply_statement_bag_interpreted",
    "apply_insert_bag",
    "execute_history_bag",
    "evaluate_query_bag",
    "evaluate_query_bag_interpreted",
    "bag_delta",
]


@dataclass(frozen=True)
class BagRelation:
    """An immutable multiset relation: rows with multiplicities.

    The public constructors validate every row and count and drop zero
    counts.  :meth:`_known_counts` does not: it is for bag statement
    replay (:mod:`repro.relational.exec.plan_compile`) alone, whose
    counts are the input's own positive counts, moved or summed.
    """

    schema: Schema
    multiplicities: Mapping[tuple[Any, ...], int]

    def __post_init__(self) -> None:
        cleaned: dict[tuple[Any, ...], int] = {}
        arity = self.schema.arity  # bound once: this loop is hot
        for row, count in dict(self.multiplicities).items():
            row = tuple(row)
            if len(row) != arity:
                raise SchemaError(
                    f"row {row} has arity {len(row)}, expected "
                    f"{arity}"
                )
            if count < 0:
                raise ValueError(f"negative multiplicity for {row}")
            if count:
                cleaned[row] = count
        object.__setattr__(self, "multiplicities", cleaned)

    # -- construction ------------------------------------------------------
    @classmethod
    def from_rows(
        cls, schema: Schema | Iterable[str], rows: Iterable[Iterable[Any]]
    ) -> "BagRelation":
        if not isinstance(schema, Schema):
            schema = Schema(tuple(schema))
        counts = Counter(tuple(r) for r in rows)
        return cls(schema, counts)

    @classmethod
    def _known_counts(cls, schema: Schema, counts: dict) -> "BagRelation":
        """A bag over a dict the caller guarantees clean (well-formed
        rows, positive counts) and hands over: nothing is checked or
        copied (see the class docstring for who may call it)."""
        bag = object.__new__(cls)
        object.__setattr__(bag, "schema", schema)
        object.__setattr__(bag, "multiplicities", counts)
        return bag

    @classmethod
    def from_set_relation(cls, relation: Relation) -> "BagRelation":
        return cls(relation.schema, {t: 1 for t in relation})

    def to_set_relation(self) -> Relation:
        return Relation(self.schema, frozenset(self.multiplicities))

    # -- protocol ----------------------------------------------------------
    def __len__(self) -> int:
        """Total row count including duplicates."""
        return sum(self.multiplicities.values())

    def distinct_count(self) -> int:
        return len(self.multiplicities)

    def count_of(self, row: Iterable[Any]) -> int:
        return self.multiplicities.get(tuple(row), 0)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        """Iterate rows with repetition."""
        for row, count in self.multiplicities.items():
            for _ in range(count):
                yield row

    # -- bag algebra ---------------------------------------------------------
    def union_all(self, other: "BagRelation") -> "BagRelation":
        check_union_compatible(self.schema, other.schema, "bag union")
        counts = Counter(self.multiplicities)
        counts.update(other.multiplicities)
        return BagRelation(self.schema, counts)

    def monus(self, other: "BagRelation") -> "BagRelation":
        """Bag difference: multiplicities subtract, floored at zero."""
        check_union_compatible(self.schema, other.schema, "bag difference")
        counts = {
            row: count - other.multiplicities.get(row, 0)
            for row, count in self.multiplicities.items()
        }
        return BagRelation(
            self.schema, {r: c for r, c in counts.items() if c > 0}
        )

    def filter(self, condition: Expr) -> "BagRelation":
        kept = {
            row: count
            for row, count in self.multiplicities.items()
            if bool(evaluate(condition, self.schema.as_dict(row)))
        }
        return BagRelation(self.schema, kept)

    def add_row(self, row: Iterable[Any], count: int = 1) -> "BagRelation":
        counts = Counter(self.multiplicities)
        counts[tuple(row)] += count
        return BagRelation(self.schema, counts)


class BagDatabase:
    """A named collection of bag relations (mirrors :class:`Database`)."""

    def __init__(self, relations: Mapping[str, BagRelation]) -> None:
        self._relations = dict(relations)

    @classmethod
    def from_set_database(cls, db: Database) -> "BagDatabase":
        return cls(
            {
                name: BagRelation.from_set_relation(rel)
                for name, rel in db.relations.items()
            }
        )

    def __getitem__(self, name: str) -> BagRelation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"no relation named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def relation_names(self) -> list[str]:
        return sorted(self._relations)

    def schema_of(self, name: str) -> Schema:
        return self[name].schema

    def with_relation(self, name: str, relation: BagRelation) -> "BagDatabase":
        updated = dict(self._relations)
        updated[name] = relation
        return BagDatabase(updated)

    def same_contents(self, other: "BagDatabase") -> bool:
        names = set(self._relations) | set(other._relations)
        for name in names:
            left = self._relations.get(name)
            right = other._relations.get(name)
            left_counts = dict(left.multiplicities) if left else {}
            right_counts = dict(right.multiplicities) if right else {}
            if left_counts != right_counts:
                return False
        return True


# -- statements over bags -----------------------------------------------------

def apply_statement_bag(
    stmt: Statement, db: BagDatabase, backend: str | None = None
) -> BagDatabase:
    """Apply a statement with bag semantics (multiplicities preserved)
    through the named execution backend (``None``: compiled)."""
    return resolve_backend(backend).apply_bag(stmt, db)


def apply_insert_bag(
    stmt: InsertTuple | InsertQuery,
    db: BagDatabase,
    run_query: Callable[[Operator, BagDatabase], BagRelation],
) -> BagDatabase:
    """``I_t`` / ``I_Q`` under bags: the same for every in-process
    backend up to how it evaluates ``Q`` (``run_query(query, db)``)."""
    relation = db[stmt.relation]
    if isinstance(stmt, InsertTuple):
        return db.with_relation(stmt.relation, relation.add_row(stmt.values))
    result = run_query(stmt.query, db)
    if result.schema.arity != relation.schema.arity:
        raise SchemaError(
            f"INSERT SELECT arity {result.schema.arity} does not "
            f"match {stmt.relation} arity {relation.schema.arity}"
        )
    # INSERT ... SELECT is positional (like the set-semantics path):
    # relabel the query result to the target schema before the union.
    result = BagRelation(relation.schema, result.multiplicities)
    return db.with_relation(stmt.relation, relation.union_all(result))


def apply_statement_bag_interpreted(
    stmt: Statement, db: BagDatabase
) -> BagDatabase:
    """The reference bag semantics: one dict binding per distinct row
    (the differential oracle)."""
    relation = db[stmt.relation]
    schema = relation.schema
    if isinstance(stmt, UpdateStatement):
        stmt.check_set_attributes(schema)
        counts: Counter = Counter()
        for row, count in relation.multiplicities.items():
            updated = stmt.apply_to_row(schema.as_dict(row))
            counts[schema.from_dict(updated)] += count
    elif isinstance(stmt, DeleteStatement):
        counts = {
            row: count
            for row, count in relation.multiplicities.items()
            if not bool(evaluate(stmt.condition, schema.as_dict(row)))
        }
    else:
        return apply_insert_bag(stmt, db, evaluate_query_bag_interpreted)
    return db.with_relation(stmt.relation, BagRelation(schema, counts))


def execute_history_bag(
    history: History, db: BagDatabase, backend: str | None = None
) -> BagDatabase:
    apply = resolve_backend(backend).apply_bag
    for stmt in history:
        db = apply(stmt, db)
    return db


# -- bag evaluator ------------------------------------------------------------

def evaluate_query_bag(
    op: Operator, db: BagDatabase, backend: str | None = None
) -> BagRelation:
    """Evaluate an operator tree with bag semantics.

    Projection preserves multiplicities (no dedup), union is additive,
    difference is monus, join multiplies multiplicities — the standard
    N[X]-semiring specialization.  ``backend`` names the execution
    backend as in :func:`repro.relational.algebra.evaluate_query`
    (sqlite carries multiplicities in a hidden count column).
    """
    return resolve_backend(backend).evaluate_bag(op, db)


def evaluate_query_bag_interpreted(op: Operator, db: BagDatabase) -> BagRelation:
    """The tree-walking bag evaluator (the differential oracle)."""
    if isinstance(op, RelScan):
        return db[op.name]
    if isinstance(op, Singleton):
        return BagRelation(op.schema, {op.row: 1})
    if isinstance(op, Select):
        return evaluate_query_bag_interpreted(op.input, db).filter(op.condition)
    if isinstance(op, Project):
        child = evaluate_query_bag_interpreted(op.input, db)
        out_schema = Schema(tuple(name for _, name in op.outputs))
        counts: Counter = Counter()
        for row, count in child.multiplicities.items():
            binding = child.schema.as_dict(row)
            out_row = tuple(evaluate(expr, binding) for expr, _ in op.outputs)
            counts[out_row] += count
        return BagRelation(out_schema, counts)
    if isinstance(op, Union):
        return evaluate_query_bag_interpreted(op.left, db).union_all(
            evaluate_query_bag_interpreted(op.right, db)
        )
    if isinstance(op, Difference):
        return evaluate_query_bag_interpreted(op.left, db).monus(
            evaluate_query_bag_interpreted(op.right, db)
        )
    if isinstance(op, Join):
        left = evaluate_query_bag_interpreted(op.left, db)
        right = evaluate_query_bag_interpreted(op.right, db)
        schema = left.schema.concat(right.schema)
        counts = Counter()
        for lrow, lcount in left.multiplicities.items():
            binding = left.schema.as_dict(lrow)
            for rrow, rcount in right.multiplicities.items():
                full = dict(binding)
                full.update(right.schema.as_dict(rrow))
                if bool(evaluate(op.condition, full)):
                    counts[lrow + rrow] += lcount * rcount
        return BagRelation(schema, counts)
    raise TypeError(f"unknown operator {op!r}")


# -- bag deltas --------------------------------------------------------------

def bag_delta(
    current: BagRelation, modified: BagRelation
) -> dict[tuple[Any, ...], int]:
    """Signed multiplicity delta: row -> (count in modified) - (count in
    current); zero entries are dropped.  Negative = removed by the
    hypothetical change, positive = added."""
    rows = set(current.multiplicities) | set(modified.multiplicities)
    delta = {}
    for row in rows:
        diff = modified.count_of(row) - current.count_of(row)
        if diff:
            delta[row] = diff
    return delta
