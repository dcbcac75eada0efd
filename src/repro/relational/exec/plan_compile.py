"""Row-wise statement replay: the compiled backend's ``apply`` and
``apply_bag``.

A statement reads one state once and produces the next, so there is
nothing to amortise a columnarization over: an ``UPDATE`` runs one
compiled ``row -> row`` closure per row, a ``DELETE`` one compiled
predicate through the C-level ``filterfalse``, with no per-row dict
bindings.  The query of an ``INSERT … SELECT`` is an operator tree like
any other and runs on the columnar evaluator (:mod:`.vector_compile`),
the backend's one query compiler.
"""

from __future__ import annotations

from collections import Counter
from itertools import filterfalse
from typing import Any, Callable

from ..bag import BagRelation, apply_insert_bag
from ..relation import Relation
from ..schema import Schema
from ..statements import (
    DeleteStatement,
    Statement,
    UpdateStatement,
    apply_insert,
)
from .expr_compile import compile_predicate, compile_row
from .vector_compile import execute_plan_vector, execute_plan_vector_bag

__all__ = [
    "compiled_update_row",
    "apply_statement_compiled",
    "apply_statement_compiled_bag",
    "clear_plan_cache",
]


def compiled_update_row(
    stmt: UpdateStatement, schema: Schema
) -> Callable[[tuple], tuple]:
    """One compiled ``row -> row`` closure for a whole UPDATE statement:
    ``if theta then Set(t) else t`` evaluated positionally.

    Shared by the set- and bag-semantics apply paths so they cannot
    drift apart.
    """
    predicate = compile_predicate(stmt.condition, schema)
    set_row = compile_row(
        tuple(stmt.set_expression_for(attribute) for attribute in schema),
        schema,
    )

    def update_row(row: tuple) -> tuple:
        return set_row(row) if predicate(row) else row

    return update_row


def apply_statement_compiled(stmt: Statement, db: Any) -> Any:
    """The compiled backend's ``apply``: one compiled predicate plus one
    compiled whole-row Set closure, no per-row dict bindings."""
    relation = db[stmt.relation]
    schema = relation.schema
    if isinstance(stmt, UpdateStatement):
        stmt.check_set_attributes(schema)
        update_row = compiled_update_row(stmt, schema)
        rows = frozenset(map(update_row, relation.tuples))
    elif isinstance(stmt, DeleteStatement):
        predicate = compile_predicate(stmt.condition, schema)
        rows = frozenset(filterfalse(predicate, relation.tuples))
    else:
        return apply_insert(stmt, db, execute_plan_vector)
    return db.with_relation(stmt.relation, Relation(schema, rows))


def apply_statement_compiled_bag(stmt: Statement, db: Any) -> Any:
    """The compiled backend's ``apply_bag``: the closures of
    :func:`apply_statement_compiled` over distinct rows, multiplicities
    carried along."""
    relation = db[stmt.relation]
    schema = relation.schema
    if isinstance(stmt, UpdateStatement):
        update_row = compiled_update_row(stmt, schema)
        counts: Counter = Counter()
        for row, count in relation.multiplicities.items():
            counts[update_row(row)] += count
    elif isinstance(stmt, DeleteStatement):
        predicate = compile_predicate(stmt.condition, schema)
        counts = {
            row: count
            for row, count in relation.multiplicities.items()
            if not predicate(row)
        }
    else:
        return apply_insert_bag(stmt, db, execute_plan_vector_bag)
    return db.with_relation(stmt.relation, BagRelation(schema, counts))


def clear_plan_cache() -> None:
    """Nothing to clear: statement replay keeps no plan cache (the
    closures it compiles live in :mod:`.expr_compile`'s caches, which
    :func:`repro.relational.exec.clear_caches` drops).  Kept because the
    benchmark's traced pass still calls it by this name."""
