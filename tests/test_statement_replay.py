"""Statement replay on the compiled backend rewrites only the rows a
statement matches.

``exec/plan_compile`` evaluates a set-semantics statement over the
relation's columnar table: one predicate mask, the SET expressions over
the matched rows alone, scattered into copies of the SET columns while
every other column is the input's own; a DELETE keeps the unmatched
rows' cells, an INSERT appends one row unless it is present, and a
statement that matches nothing leaves the relation object in place.
Bags replay row-wise: one predicate pass, the ``Set`` closure once per
matched row, unmatched rows kept as the stored objects.  These tests pin
that rule by value and type against the ``interpreted`` oracle, by
object identity and by counted calls — never by a clock.

Seeded through ``MAHIF_FUZZ_SEED`` / ``MAHIF_FUZZ_SCALE`` like the other
fuzz suites (``tests/fuzz_differential.py``).
"""

from __future__ import annotations

import math

import pytest

from fuzz_differential import (
    _KeyCounter,
    fresh_rng,
    random_statement,
    random_typed_database,
    scaled,
)
from repro import Database, History, Relation, Schema, parse_history
from repro.relational.bag import BagDatabase, BagRelation
from repro.relational.columnar import columnar_of_relation
from repro.relational.exec import plan_compile, vector_compile
from repro.relational.exec.backend import resolve_backend
from repro.relational.expressions import Attr, Cmp, Const, IsNull, col, lit
from repro.relational.schema import SchemaError
from repro.relational.statements import DeleteStatement, UpdateStatement
from repro.service import WhatIfService

COMPILED = resolve_backend("compiled")
INTERPRETED = resolve_backend("interpreted")

SCHEMA = Schema.of("K", "A", "B")
#: 200 rows with ``A = K``: ``A < t`` matches exactly ``t`` of them.
ROWS = [(k, k, k % 7) for k in range(200)]


def _tag(value):
    """A value with its type, NaN as one comparable token."""
    if isinstance(value, float) and math.isnan(value):
        return ("float", "nan")
    return (type(value).__name__, value)


def tagged_set(relation: Relation) -> set:
    return {tuple(map(_tag, row)) for row in relation.tuples}


def tagged_bag(bag: BagRelation) -> dict:
    return {
        tuple(map(_tag, row)): count
        for row, count in bag.multiplicities.items()
    }


def bag_of(relation: Relation) -> BagRelation:
    """``relation`` as a bag whose rows repeat 1, 2 or 3 times."""
    rows = sorted(relation.tuples, key=repr)
    return BagRelation(
        relation.schema, {row: 1 + i % 3 for i, row in enumerate(rows)}
    )


def assert_same_as_interpreted(stmt, db: Database) -> None:
    """Set and bag replay on ``compiled`` equal ``interpreted`` by value
    and type."""
    name = stmt.relation
    expected = INTERPRETED.apply(stmt, db)[name]
    actual = COMPILED.apply(stmt, db)[name]
    assert type(actual) is Relation
    assert tagged_set(actual) == tagged_set(expected), stmt
    bags = BagDatabase(
        {n: bag_of(db[n]) for n in db.relation_names()}
    )
    expected_bag = INTERPRETED.apply_bag(stmt, bags)[name]
    actual_bag = COMPILED.apply_bag(stmt, bags)[name]
    assert type(actual_bag) is BagRelation
    assert tagged_bag(actual_bag) == tagged_bag(expected_bag), stmt


def numbered_db() -> Database:
    return Database({"R": Relation.from_rows(SCHEMA, ROWS)})


# -- the rule by value ---------------------------------------------------------

#: Matched rows out of 200: none, one, 1%, both sides of the split, 50%
#: (the share ``exec_bound``'s own history statements match), all.
MATCHED = (0, 1, 2, 60, 100, 140, 200)


@pytest.mark.parametrize("matched", MATCHED)
@pytest.mark.parametrize("kind", ("update", "delete"))
def test_matched_shares_equal_interpreted(matched, kind):
    condition = Cmp("<", Attr("A"), Const(matched))
    if kind == "update":
        stmt = UpdateStatement("R", {"B": col("B") + 100}, condition)
    else:
        stmt = DeleteStatement("R", condition)
    db = numbered_db()
    assert len(db["R"].filter(condition)) == matched
    assert_same_as_interpreted(stmt, db)


def test_random_statements_equal_interpreted():
    """Typed random relations (NULL-heavy, duplicate-prone values, bools
    beside ints) and random UPDATE / DELETE / INSERT statements."""
    rng = fresh_rng(4301)
    for _ in range(scaled(150)):
        db, types = random_typed_database(rng, rows=rng.randint(0, 40))
        name = rng.choice(("R", "S", "T"))
        stmt = random_statement(
            rng, name, db.schema_of(name), types[name], _KeyCounter()
        )
        assert_same_as_interpreted(stmt, db)


AB = Schema.of("A", "B")


@pytest.mark.parametrize(
    "history_sql, rows, expected_set, expected_bag",
    [
        # (2, 0) lands on the unmatched (1, 0)
        (
            "UPDATE R SET A = 1 WHERE A = 2",
            {(1, 0): 2, (2, 0): 3, (3, 0): 4},
            {(1, 0), (3, 0)},
            {(1, 0): 5, (3, 0): 4},
        ),
        # (2, 0) and (3, 0) both matched, both land on (2, 0)
        (
            "UPDATE R SET A = 2 WHERE A >= 2",
            {(1, 0): 2, (2, 0): 3, (3, 0): 4},
            {(1, 0), (2, 0)},
            {(1, 0): 2, (2, 0): 7},
        ),
        # a chain: (3, 0) lands where the matched (2, 0) was, and (2, 0)
        # on the unmatched (1, 0) — popping first keeps both counts
        (
            "UPDATE R SET A = A - 1 WHERE A >= 2",
            {(1, 0): 2, (2, 0): 3, (3, 0): 4},
            {(1, 0), (2, 0)},
            {(1, 0): 5, (2, 0): 4},
        ),
        # every row matched and merged onto one
        (
            "UPDATE R SET A = 0 WHERE B = 0",
            {(1, 0): 2, (2, 0): 3, (3, 0): 4},
            {(0, 0)},
            {(0, 0): 9},
        ),
    ],
)
def test_updates_that_merge_rows(history_sql, rows, expected_set, expected_bag):
    (stmt,) = parse_history(history_sql)
    db = Database({"R": Relation.from_rows(AB, rows)})
    bags = BagDatabase({"R": BagRelation(AB, rows)})
    for backend in (COMPILED, INTERPRETED):
        assert set(backend.apply(stmt, db)["R"].tuples) == expected_set
        assert dict(backend.apply_bag(stmt, bags)["R"].multiplicities) == (
            expected_bag
        )


NAN = float("nan")
NULLS = Relation.from_rows(
    Schema.of("K", "A"),
    [(0, None), (1, NAN), (2, 1.5), (3, -2.0), (4, None), (5, NAN), (6, 0.0)],
)


@pytest.mark.parametrize(
    "condition",
    [
        Cmp(">=", Attr("A"), Const(0)),
        Cmp("<", Attr("A"), Const(1)),
        Cmp("!=", Attr("A"), Const(1.5)),
        Cmp("=", Attr("A"), Attr("A")),
        IsNull(Attr("A")),
    ],
    ids=("ge", "lt", "ne", "self-eq", "is-null"),
)
@pytest.mark.parametrize("kind", ("update", "delete"))
def test_null_and_nan_in_the_predicate_column(condition, kind):
    if kind == "update":
        stmt = UpdateStatement("R", {"A": lit(7.0)}, condition)
    else:
        stmt = DeleteStatement("R", condition)
    assert_same_as_interpreted(stmt, Database({"R": NULLS}))


# -- validation stays eager ----------------------------------------------------

@pytest.mark.parametrize("backend", ("compiled", "interpreted", "sqlite"))
@pytest.mark.parametrize(
    "rows", ([], [(1, 2)], [(5, 2)]), ids=("empty", "no-match", "match")
)
def test_unknown_set_attribute_raises(backend, rows):
    """On every backend, set and bag, whether the relation is empty, no
    row matches or one does."""
    stmt = UpdateStatement("R", {"Z": lit(1)}, Cmp("=", Attr("A"), Const(5)))
    db = Database({"R": Relation.from_rows(AB, rows)})
    executor = resolve_backend(backend)
    with pytest.raises(SchemaError, match="unknown attribute 'Z'"):
        executor.apply(stmt, db)
    with pytest.raises(SchemaError, match="unknown attribute 'Z'"):
        executor.apply_bag(stmt, BagDatabase.from_set_database(db))


# -- what the rule keeps and what it runs --------------------------------------

@pytest.mark.parametrize("matched", (20, 140, 200))
@pytest.mark.parametrize("kind", ("update", "delete"))
def test_columns_not_set_are_the_input_columns(matched, kind):
    """Set: an UPDATE's result shares every column it does not SET (the
    ``Column`` object, stored cells and remembered text and all) with
    the input table, and a DELETE's columns read the input's stored
    cells.  Bags: the unmatched rows are the stored tuple objects."""
    condition = Cmp("<", Attr("A"), Const(matched))
    if kind == "update":
        stmt = UpdateStatement("R", {"B": col("B") + 100}, condition)
    else:
        stmt = DeleteStatement("R", condition)
    db = numbered_db()
    table = columnar_of_relation(db["R"])
    result = columnar_of_relation(COMPILED.apply(stmt, db)["R"])
    assert result is not table
    if kind == "update":
        assert result.columns[0] is table.columns[0]
        assert result.columns[1] is table.columns[1]
        assert result.columns[2] is not table.columns[2]
    else:
        assert result.nrows == 200 - matched
        assert all(
            after.stored is before.stored
            for after, before in zip(result.columns, table.columns)
        )
    unmatched = [row for row in db["R"].tuples if row[1] >= matched]
    bags = BagDatabase({"R": bag_of(db["R"])})
    stored = {row: row for row in bags["R"].multiplicities}
    result_bag = COMPILED.apply_bag(stmt, bags)["R"].multiplicities
    kept = {row: row for row in result_bag}
    assert all(kept[row] is stored[row] for row in unmatched)


@pytest.mark.parametrize("matched", (0, 20, 140, 200))
@pytest.mark.parametrize(
    "set_b, per_row",
    # ``B * 2**62`` leaves int64: the kernel refuses it, rows compute it
    ((col("B") + 100, False), (col("B") * lit(2 ** 62), True)),
    ids=("kernel", "fallback"),
)
def test_set_expressions_see_only_matched_rows(
    monkeypatch, matched, set_b, per_row
):
    """The SET expressions are evaluated over the matched rows alone —
    by the kernel or, where it refuses, by the per-row closure — and a
    bag's ``Set`` closure runs once per matched row (counted)."""
    seen, calls = [], []
    project_table = plan_compile._project_table

    def counting_project_table(table, outputs):
        seen.extend(table.tuples())
        return project_table(table, outputs)

    vector_row = vector_compile.compile_row

    def counting_vector_row(exprs, schema):
        row_fn = vector_row(exprs, schema)

        def counted(row):
            calls.append(row)
            return row_fn(row)

        return counted

    monkeypatch.setattr(plan_compile, "_project_table", counting_project_table)
    monkeypatch.setattr(vector_compile, "compile_row", counting_vector_row)
    stmt = UpdateStatement(
        "R", {"B": set_b}, Cmp("<", Attr("A"), Const(matched))
    )
    db = numbered_db()
    assert_same_as_interpreted(stmt, db)
    assert sorted(seen) == ROWS[:matched]
    assert sorted(calls) == (ROWS[:matched] if per_row else [])

    bag_calls = []
    compile_row = plan_compile.compile_row

    def counting_compile_row(exprs, schema):
        set_row = compile_row(exprs, schema)

        def counted(row):
            bag_calls.append(row)
            return set_row(row)

        return counted

    monkeypatch.setattr(plan_compile, "compile_row", counting_compile_row)
    COMPILED.apply_bag(stmt, BagDatabase({"R": bag_of(db["R"])}))
    assert len(bag_calls) == matched


@pytest.mark.parametrize("kind", ("update", "delete"))
def test_no_match_keeps_the_input_relation_object(kind):
    condition = Cmp(">", Attr("A"), Const(10_000))
    if kind == "update":
        stmt = UpdateStatement("R", {"B": lit(0)}, condition)
    else:
        stmt = DeleteStatement("R", condition)
    db = numbered_db()
    assert COMPILED.apply(stmt, db)["R"] is db["R"]
    bags = BagDatabase({"R": bag_of(db["R"])})
    assert COMPILED.apply_bag(stmt, bags)["R"] is bags["R"]


def test_served_append_matching_no_row(tmp_path):
    """An append that matches nothing is still durable, lengthens the
    history and drops the cached answers over its relation (the cache
    rule reads which relations a statement accesses, not what it
    changed); the next miss answers over the longer history."""
    orders = Relation.from_rows(
        Schema.of("ID", "Price", "Fee"), [(1, 20, 5), (2, 60, 3), (3, 90, 1)]
    )
    db = Database({"Orders": orders})
    history = History(
        tuple(parse_history("UPDATE Orders SET Fee = 0 WHERE Price >= 50;"))
    )
    spec = {"replace": [[1, "UPDATE Orders SET Fee = 0 WHERE Price >= 70"]]}
    service = WhatIfService(tmp_path / "stores")
    try:
        service.register("h", db, history)
        (first,) = service.answer("h", [spec])
        before = service._handle("h").store.current["Orders"]
        (appended,) = parse_history(
            "UPDATE Orders SET Fee = 9 WHERE Price > 1000;"
        )
        info = service.append("h", [appended])
        assert info["length"] == 2
        assert info["cache_dropped"] == 1
        assert service._handle("h").store.current["Orders"] is before
        (second,) = service.answer("h", [spec])
        assert second.cached is False
        assert second["delta"] == first["delta"]
    finally:
        service.close()
    reopened = WhatIfService(tmp_path / "stores")
    try:
        store = reopened._handle("h").store
        assert len(store) == 2
        assert store.history()[2] == appended
        assert set(store.current["Orders"].tuples) == set(
            history[1].apply(db)["Orders"].tuples
        )
        (third,) = reopened.answer("h", [spec])
        assert third["delta"] == first["delta"]
    finally:
        reopened.close()
