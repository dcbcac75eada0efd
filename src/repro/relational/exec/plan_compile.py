"""Row-wise statement replay: the compiled backend's ``apply`` and
``apply_bag``.

A statement reads one state once and produces the next, so there is
nothing to amortise a columnarization over.  An ``UPDATE`` or ``DELETE``
compiles its predicate (and an ``UPDATE`` its whole-row ``Set``
closure) first, so an invalid statement raises on an empty relation
too, then makes one predicate pass over the rows and touches only what
it selected:

* ``DELETE``: the result is ``kept``, the rows the predicate left;
* ``UPDATE``: the result is ``kept | {set_row(r) for r in matched}`` —
  the ``Set`` closure runs once per matched row;
* ``kept`` is the stored frozenset minus the matched rows while they
  are the smaller side (the copy reuses the hashes the frozenset
  stores, so only the matched rows are hashed), else it is rebuilt
  from the unmatched rows (hashing those), so a replay hashes the
  smaller side plus the new rows, never all of them;
* a statement that matches no row leaves the relation object itself in
  place, so what is remembered on its identity (Φ_D, the columnar
  table, the sqlite connection) keeps hitting;
* the result is built with :meth:`Relation._known_rows`: the rows a
  statement leaves alone were validated when their relation was, and a
  compiled ``Set`` closure builds plain tuples of the schema's arity.

Bags follow the same rule over ``multiplicities``: copy the dict (or
rebuild it from the unmatched rows), pop every matched row, then add
each updated row's count — popping first, so a matched row that
``Set`` maps onto another matched row adds to its new count rather
than being dropped with it.

The split point is the smaller side, from a sweep of whole replays
with the path forced each way (``exec_bound``'s relation, 12 000 rows ×
10 columns, and ``mixed_dml``'s, 8 000 × 6; median of 15, GC off):
subtracting wins up to about 40% matched (30%: set ``UPDATE`` 6.2 vs
7.1 ms, ``DELETE`` 3.8 vs 4.9), rebuilding from 60% on (80%: 8.4 vs
10.1, 3.4 vs 5.0), and between them the two stay within about 10% of
each other (50%: 9.2 vs 8.3, 4.7 vs 4.8; bags 8.5 vs 8.8, 4.2 vs 4.4).

Whole replays on ``exec_bound``'s relation, median of 25, the
whole-relation rebuild this rule replaced (one closure mapped over every
row into a new, re-validated frozenset) and this rule alternating in
one process (ms, rebuild → this rule; each ratio held within ±0.03 over
three runs on a 2-core box):

=======  ======================  ======================  ======================  ======================
matched  set ``UPDATE``          set ``DELETE``          bag ``UPDATE``          bag ``DELETE``
=======  ======================  ======================  ======================  ======================
1%       5.84 → 3.13 (0.54×)     5.50 → 2.54 (0.46×)     13.93 → 2.21 (0.16×)    8.82 → 2.11 (0.24×)
50%      8.69 → 8.52 (0.98×)     4.13 → 4.33 (1.05×)     16.34 → 8.84 (0.54×)    5.44 → 4.11 (0.75×)
100%     9.89 → 9.13 (0.92×)     1.98 → 2.43 (1.23×)     17.98 → 11.05 (0.61×)   1.89 → 2.17 (1.15×)
=======  ======================  ======================  ======================  ======================

A ``DELETE`` of every row pays for a mask it does not need: a known
cost, reached by no workload.  Every e2e append matches at most 2%;
``exec_bound``'s own history statements match 50%.

The query of an ``INSERT … SELECT`` is an operator tree like any other
and runs on the columnar evaluator (:mod:`.vector_compile`), the
backend's one query compiler.
"""

from __future__ import annotations

from itertools import chain, compress
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
    "apply_statement_compiled",
    "apply_statement_compiled_bag",
    "clear_plan_cache",
]

#: Turns the 0/1 bytes of a selection mask into the unmatched rows'.
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _closures(
    stmt: UpdateStatement | DeleteStatement, schema: Schema
) -> tuple[Callable[[tuple], bool], Callable[[tuple], tuple] | None]:
    """The statement's compiled predicate and, for an UPDATE, its
    whole-row ``Set`` closure (``None`` for a DELETE)."""
    if isinstance(stmt, DeleteStatement):
        return compile_predicate(stmt.condition, schema), None
    stmt.check_set_attributes(schema)
    predicate = compile_predicate(stmt.condition, schema)
    set_row = compile_row(
        tuple(stmt.set_expression_for(attribute) for attribute in schema),
        schema,
    )
    return predicate, set_row


def apply_statement_compiled(stmt: Statement, db: Any) -> Any:
    """The compiled backend's ``apply``: one predicate pass, then only
    the matched rows are rewritten (see the module docstring)."""
    if not isinstance(stmt, (UpdateStatement, DeleteStatement)):
        return apply_insert(stmt, db, execute_plan_vector)
    relation = db[stmt.relation]
    predicate, set_row = _closures(stmt, relation.schema)
    rows = relation.tuples
    mask = list(map(predicate, rows))
    matched = mask.count(True)
    if matched:
        updated = () if set_row is None else map(set_row, compress(rows, mask))
        if 2 * matched < len(rows):
            after = rows.difference(compress(rows, mask))
            if set_row is not None:
                after = after.union(updated)
        else:
            unmatched = compress(rows, bytes(mask).translate(_FLIP))
            after = frozenset(chain(unmatched, updated))
        relation = Relation._known_rows(relation.schema, after)
    return db.with_relation(stmt.relation, relation)


def apply_statement_compiled_bag(stmt: Statement, db: Any) -> Any:
    """The compiled backend's ``apply_bag``: the rule of
    :func:`apply_statement_compiled` over distinct rows, multiplicities
    carried along."""
    if not isinstance(stmt, (UpdateStatement, DeleteStatement)):
        return apply_insert_bag(stmt, db, execute_plan_vector_bag)
    relation = db[stmt.relation]
    predicate, set_row = _closures(stmt, relation.schema)
    multiplicities = relation.multiplicities
    mask = list(map(predicate, multiplicities))
    matched = mask.count(True)
    if matched:
        if 2 * matched < len(multiplicities):
            counts = dict(multiplicities)
            for row in compress(multiplicities, mask):
                del counts[row]
        else:
            flipped = bytes(mask).translate(_FLIP)
            counts = dict(compress(multiplicities.items(), flipped))
        if set_row is not None:
            for row, count in compress(multiplicities.items(), mask):
                updated = set_row(row)
                counts[updated] = counts.get(updated, 0) + count
        relation = BagRelation._known_counts(relation.schema, counts)
    return db.with_relation(stmt.relation, relation)


def clear_plan_cache() -> None:
    """Nothing to clear: statement replay keeps no plan cache (the
    closures it compiles live in :mod:`.expr_compile`'s caches, which
    :func:`repro.relational.exec.clear_caches` drops).  Kept because the
    benchmark's traced pass still calls it by this name."""
