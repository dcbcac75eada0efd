"""Update statements: ``U_{Set,θ}``, ``D_θ``, ``I_t`` and ``I_Q``.

These implement Equations (1)–(4) of the paper:

* ``U_{Set,θ}(R) = {Set(t) | t ∈ R ∧ θ(t)} ∪ {t | t ∈ R ∧ ¬θ(t)}``
* ``D_θ(R)      = {t | t ∈ R ∧ ¬θ(t)}``
* ``I_t(R)      = R ∪ {t}``
* ``I_Q(R)      = R ∪ Q(D)``

Statements are functions from databases to databases.  ``Set`` clauses are
given sparsely as ``{attribute: expression}``; attributes not mentioned are
implicitly the identity, matching the paper's shorthand
``(A_i1 <- e_1, ..., A_im <- e_m)``.

This module holds the *reference* semantics — per-row dict bindings over
the tree-walking evaluators (:func:`apply_statement_interpreted`, the
differential oracle).  :meth:`Statement.apply` runs a statement through
an execution backend (see :mod:`repro.relational.exec.backend`), of
which that reference is one.

A delete with condition ``false`` is the *no-op* statement used for padding
histories when modifications insert or delete statements (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from .algebra import Operator, base_relations, evaluate_query_interpreted
from .database import Database
from .exec.backend import resolve_backend
from .expressions import (
    Expr,
    FALSE,
    TRUE,
    attributes_of,
    evaluate,
    simplify,
)
from .relation import Relation
from .schema import Schema, SchemaError

__all__ = [
    "Statement",
    "UpdateStatement",
    "DeleteStatement",
    "InsertTuple",
    "InsertQuery",
    "apply_insert",
    "apply_statement_interpreted",
    "no_op",
    "is_no_op",
    "is_tuple_independent",
    "statements_equal",
]


class Statement:
    """Base class for history statements.

    Every statement targets a single relation (``self.relation``) and is
    applied functionally: :meth:`apply` returns a new database.
    """

    relation: str

    def apply(self, db: Database, backend: str | None = None) -> Database:
        """The database after this statement, computed by the named
        execution backend (``None``: compiled).  Every backend agrees
        with :func:`apply_statement_interpreted`."""
        return resolve_backend(backend).apply(self, db)

    def accessed_relations(self) -> set[str]:
        """All relations this statement reads (including the target)."""
        return {self.relation}


@dataclass(frozen=True)
class UpdateStatement(Statement):
    """``UPDATE relation SET A_i = e_i, ... WHERE condition``."""

    relation: str
    set_clauses: Mapping[str, Expr]
    condition: Expr = TRUE

    def __post_init__(self) -> None:
        object.__setattr__(self, "set_clauses", dict(self.set_clauses))
        if not self.set_clauses:
            raise ValueError("UPDATE requires at least one SET clause")

    def set_expression_for(self, attribute: str) -> Expr:
        """The Set expression for ``attribute`` (identity if unmentioned)."""
        from .expressions import Attr

        return self.set_clauses.get(attribute, Attr(attribute))

    def apply_to_row(self, row: dict[str, Any]) -> dict[str, Any]:
        """Apply Set to one row mapping *iff* the condition holds."""
        if not bool(evaluate(self.condition, row)):
            return row
        # Set(t): all expressions are evaluated over the ORIGINAL tuple.
        updated = dict(row)
        for attribute, expr in self.set_clauses.items():
            updated[attribute] = evaluate(expr, row)
        return updated

    def check_set_attributes(self, schema: Schema) -> None:
        """Reject a Set clause naming an attribute ``schema`` lacks."""
        for attribute in self.set_clauses:
            if attribute not in schema:
                raise SchemaError(
                    f"UPDATE sets unknown attribute {attribute!r} "
                    f"on {self.relation}"
                )


@dataclass(frozen=True)
class DeleteStatement(Statement):
    """``DELETE FROM relation WHERE condition``."""

    relation: str
    condition: Expr = TRUE


@dataclass(frozen=True)
class InsertTuple(Statement):
    """``INSERT INTO relation VALUES (v_1, ..., v_n)``."""

    relation: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class InsertQuery(Statement):
    """``INSERT INTO relation SELECT ...`` — inserts a query result.

    The query is evaluated over the whole database state at the time the
    statement runs; this is the only statement type that is *not* tuple
    independent (Lemma 1).
    """

    relation: str
    query: Operator

    def accessed_relations(self) -> set[str]:
        return {self.relation} | base_relations(self.query)


def apply_insert(
    stmt: InsertTuple | InsertQuery,
    db: Database,
    run_query: Callable[[Operator, Database], Relation],
) -> Database:
    """``I_t(R) = R ∪ {t}`` and ``I_Q(R) = R ∪ Q(D)``: the same for
    every in-process backend up to how it evaluates ``Q``
    (``run_query(query, db)``)."""
    relation = db[stmt.relation]
    if isinstance(stmt, InsertTuple):
        return db.with_relation(stmt.relation, relation.insert(stmt.values))
    result = run_query(stmt.query, db)
    if result.schema.arity != relation.schema.arity:
        raise SchemaError(
            f"INSERT SELECT arity {result.schema.arity} does not match "
            f"{stmt.relation} arity {relation.schema.arity}"
        )
    rows = relation.tuples | frozenset(result.tuples)
    return db.with_relation(stmt.relation, Relation(relation.schema, rows))


def apply_statement_interpreted(stmt: Statement, db: Database) -> Database:
    """The reference semantics of Equations (1)–(4): one dict binding
    per row through the tree-walking evaluators (the differential
    oracle)."""
    relation = db[stmt.relation]
    schema = relation.schema
    if isinstance(stmt, UpdateStatement):
        stmt.check_set_attributes(schema)
        rows = frozenset(
            schema.from_dict(stmt.apply_to_row(schema.as_dict(t)))
            for t in relation
        )
    elif isinstance(stmt, DeleteStatement):
        rows = frozenset(
            t
            for t in relation
            if not bool(evaluate(stmt.condition, schema.as_dict(t)))
        )
    else:
        return apply_insert(stmt, db, evaluate_query_interpreted)
    return db.with_relation(stmt.relation, Relation(schema, rows))


def no_op(relation: str) -> DeleteStatement:
    """The no-op statement ``D_false`` used for history padding."""
    return DeleteStatement(relation, FALSE)


def is_no_op(stmt: Statement) -> bool:
    """True for statements that provably modify no data."""
    if isinstance(stmt, DeleteStatement):
        return simplify(stmt.condition) == FALSE
    if isinstance(stmt, UpdateStatement):
        return simplify(stmt.condition) == FALSE
    return False


def is_tuple_independent(stmt: Statement) -> bool:
    """Tuple independence per Definition 1 / Lemma 1.

    Updates, deletes, and constant-tuple inserts are tuple independent;
    inserts with queries are not.
    """
    return not isinstance(stmt, InsertQuery)


def statements_equal(a: Statement, b: Statement) -> bool:
    """Structural equality of statements (dataclass equality)."""
    return a == b
