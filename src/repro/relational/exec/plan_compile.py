"""Statement replay on the compiled backend: ``apply`` (set semantics,
columnar) and ``apply_bag`` (row-wise).

A set-semantics statement is reenacted as the paper has it, over the
relation's :class:`~repro.relational.columnar.ColumnarTable` (the table
a replayed relation already is, or the one remembered on a stored
relation), with the columnar evaluator's kernels (:mod:`.vector_compile`;
the per-row compiled closures where a kernel refuses):

* ``UPDATE`` is a projection with ``If``: one predicate mask, the SET
  expressions evaluated over the matched rows alone and scattered into
  copies of the SET columns; every other ``Column`` (stored cells, run
  text and all) is the input's own.  The result is deduplicated only
  when no column the statement does not SET is known distinct
  (:meth:`ColumnarTable.is_distinct`, established once per table and
  carried from table to table);
* ``DELETE`` is a selection on ``NOT θ``: a ``take`` of the unmatched
  rows;
* a constant ``INSERT`` is a union: a one-row append unless the row is
  present — decided by a kernel where each value's exact type is its
  column's, by the frozenset rule otherwise (NaN, ``1`` beside ``1.0``
  or ``True``, ints beyond int64, list-backed columns);
* a statement that matches no row, or any statement over an empty
  relation, leaves the relation object itself in place, so what is
  remembered on its identity (Φ_D, the sqlite connection) keeps hitting.

The result is a table-backed :class:`~repro.relational.relation.Relation`
whose frozenset is built only when something reads it, so a replayed
version is never columnarized again.  The query of an ``INSERT …
SELECT`` runs on the columnar evaluator and the result is the frozenset
union.

Bags replay row-wise over ``multiplicities``: one predicate pass, then
copy the dict (or rebuild it from the unmatched rows), pop every matched
row and add each updated row's count — popping first, so a matched row
that ``Set`` maps onto another matched row adds to its new count.

Whole set replays on ``exec_bound``'s relation (12 000 rows × 10
columns, ``SET trip_total = trip_total + 1`` / ``DELETE`` on a window of
``fare``), median of 25 in one process, GC frozen, each rule in its own
process on a 2-core box beside another benchmark process (so indicative
only); ms, the row-wise rule this replaced (one predicate pass, the
stored frozenset minus the matched rows or rebuilt from the unmatched
ones) → this rule:

=======  ======================  ======================
matched  set ``UPDATE``          set ``DELETE``
=======  ======================  ======================
1%       5.95 → 0.14             3.01 → 0.42
50%      9.44 → 0.54             4.85 → 0.15
100%     10.94 → 0.56            3.66 → 0.04
=======  ======================  ======================
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Callable

import numpy as np

from ..bag import BagRelation, apply_insert_bag
from ..columnar import (
    INT64_SAFE_BOUND,
    Column,
    ColumnarTable,
    StoredCells,
    column_from_values,
    column_values,
    columnar_of_relation,
)
from ..relation import Relation
from ..schema import Schema, SchemaError
from ..statements import (
    DeleteStatement,
    InsertTuple,
    Statement,
    UpdateStatement,
    apply_insert,
)
from .expr_compile import compile_predicate, compile_row
from .vector_compile import (
    _dedup,
    _project_table,
    execute_plan_vector,
    execute_plan_vector_bag,
    vectorize_condition,
)

__all__ = [
    "apply_statement_compiled",
    "apply_statement_compiled_bag",
    "clear_plan_cache",
]

#: Turns the 0/1 bytes of a selection mask into the unmatched rows'.
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")

#: The array tag an inserted value must have for the membership kernel
#: to decide it exactly: its exact type, so ``1`` never meets ``1.0`` or
#: ``True`` (those, NaN and ints beyond int64 take the frozenset rule).
_TAG_OF_TYPE = {int: "int", float: "float", bool: "bool", str: "str"}


def apply_statement_compiled(stmt: Statement, db: Any) -> Any:
    """The compiled backend's set-semantics ``apply``: the statement's
    reenactment over the relation's columnar table (see the module
    docstring)."""
    if isinstance(stmt, InsertTuple):
        relation = db[stmt.relation]
        after = _inserted(relation, tuple(stmt.values))
        return db if after is relation else db.with_relation(
            stmt.relation, after
        )
    if not isinstance(stmt, (UpdateStatement, DeleteStatement)):
        return apply_insert(stmt, db, execute_plan_vector)
    relation = db[stmt.relation]
    if isinstance(stmt, UpdateStatement):
        stmt.check_set_attributes(relation.schema)
    if not len(relation):
        return db
    table = columnar_of_relation(relation)
    mask = vectorize_condition(stmt.condition, table)
    if mask is None:
        predicate = compile_predicate(stmt.condition, table.schema)
        mask = np.fromiter(
            map(predicate, table.tuples()), dtype=bool, count=table.nrows
        )
    if not mask.any():
        return db
    if isinstance(stmt, DeleteStatement):
        after = table.take(np.flatnonzero(~mask))
        after.distinct = dict(table.distinct)  # a subset stays distinct
    else:
        after = _updated(stmt, table, np.flatnonzero(mask))
    return db.with_relation(stmt.relation, Relation._of_table(after))


def _updated(
    stmt: UpdateStatement, table: ColumnarTable, matched: Any
) -> ColumnarTable:
    """``table`` with the SET expressions, evaluated over the matched
    rows alone, scattered into copies of the SET columns; deduplicated
    unless a column the statement does not SET is distinct."""
    targets = [table.schema.index_of(name) for name in stmt.set_clauses]
    rows = table if len(matched) == table.nrows else table.take(matched)
    values = _project_table(
        rows, [(expr, name) for name, expr in stmt.set_clauses.items()]
    )
    columns = list(table.columns)
    for index, new in zip(targets, values.columns):
        columns[index] = _scattered(columns[index], new, matched)
    keyed = _keyed(table, targets)
    after = ColumnarTable(table.schema, columns, table.nrows)
    after.distinct = {
        index: fact for index, fact in table.distinct.items()
        if index not in targets
    }
    if keyed:
        return after
    deduped = _dedup(after)
    deduped.distinct = after.distinct  # a subset stays distinct
    return deduped


def _keyed(table: ColumnarTable, targets: list[int]) -> bool:
    """Whether a column outside ``targets`` is distinct, so that rows
    which differ there still differ after an UPDATE of ``targets``: a
    fact the table already knows, else established column by column, in
    schema order, until one holds."""
    others = [i for i in range(len(table.columns)) if i not in targets]
    return any(table.distinct.get(i) for i in others) or any(
        table.is_distinct(i) for i in others
    )


def _scattered(old: Column, new: Column, matched: Any) -> Column:
    """``old`` with its cells at ``matched`` replaced by ``new``'s, one
    per matched row, as a stored column (so its text and order codes are
    remembered like any stored column's).  One typed scatter where both
    are arrays of one tag; a re-sniff of the values otherwise, which
    keeps every value's type exactly."""
    if not (old.is_array and new.is_array and old.tag == new.tag):
        cells = column_values(old)
        for index, value in zip(matched.tolist(), column_values(new)):
            cells[index] = value
        return column_from_values(cells)
    data = old.data.copy()
    data[matched] = new.data
    valid = None
    if old.valid is not None or new.valid is not None:
        valid = (
            np.ones(len(data), dtype=bool) if old.valid is None
            else old.valid.copy()
        )
        valid[matched] = True if new.valid is None else new.valid
    objects = old.objects()
    if objects is None:
        objects = np.empty(len(data), dtype=object)
        objects[:] = column_values(old)
    elif old.rows is None:  # the stored array itself
        objects = objects.copy()
    objects[matched] = column_values(new)
    return Column(
        old.tag, data, valid, max(old.int_bound, new.int_bound),
        StoredCells(old.tag, data, valid, objects),
    )


def _inserted(relation: Relation, row: tuple) -> Relation:
    """``I_t(R) = R ∪ {t}``: a one-row concatenation unless the row is
    already present (then ``relation`` itself); the frozenset rule where
    the kernel cannot decide membership exactly."""
    schema = relation.schema
    if len(row) != schema.arity:
        raise SchemaError(
            f"insert arity {len(row)} != schema arity {schema.arity}"
        )
    if not len(relation):
        return Relation._of_table(ColumnarTable.from_rows(schema, [row]))
    table = columnar_of_relation(relation)
    equal = _equal_cells(table, row)
    if equal is None:
        return relation.insert(row)
    if np.logical_and.reduce(equal).any():
        return relation
    after = table.appended(row)
    after.distinct = {
        index: fact and not equal[index].any()
        for index, fact in table.distinct.items()
    }
    return Relation._of_table(after)


def _equal_cells(table: ColumnarTable, row: tuple) -> list | None:
    """Per column, which cells equal the row's value (``==``, with
    ``None == None``), or ``None`` where an array comparison cannot
    decide that exactly: a list-backed column, or a value whose exact
    type is not the column's (or NaN, or an int beyond int64)."""
    equal = []
    for column, value in zip(table.columns, row):
        if not column.is_array:
            return None
        if value is None:
            cells = (
                np.zeros(table.nrows, dtype=bool) if column.valid is None
                else ~column.valid
            )
        else:
            if (
                _TAG_OF_TYPE.get(type(value)) != column.tag
                or value != value
                or (type(value) is int and abs(value) >= INT64_SAFE_BOUND)
            ):
                return None
            cells = np.asarray(column.data == value, dtype=bool)
            if column.valid is not None:
                cells &= column.valid
        equal.append(cells)
    return equal


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


def apply_statement_compiled_bag(stmt: Statement, db: Any) -> Any:
    """The compiled backend's ``apply_bag``: one predicate pass over the
    distinct rows, then only the matched rows' counts are moved (see the
    module docstring)."""
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
