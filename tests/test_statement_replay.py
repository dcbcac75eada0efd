"""Statement replay on the compiled backend rewrites only the rows a
statement matches.

``exec/plan_compile`` makes one predicate pass over a relation, keeps
the rows it does not match as they are stored (same objects, never
re-validated) and runs the ``Set`` closure once per matched row; a
statement that matches nothing leaves the relation object in place.
These tests pin that rule by value against the ``interpreted`` oracle,
by object identity and by counted calls — never by a clock.

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
from repro.relational.exec import plan_compile
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

@pytest.mark.parametrize("matched", (20, 140), ids=("subtract", "rebuild"))
@pytest.mark.parametrize("kind", ("update", "delete"))
def test_unmatched_rows_are_the_same_objects(matched, kind):
    condition = Cmp("<", Attr("A"), Const(matched))
    if kind == "update":
        stmt = UpdateStatement("R", {"B": col("B") + 100}, condition)
    else:
        stmt = DeleteStatement("R", condition)
    db = numbered_db()
    unmatched = [row for row in db["R"].tuples if row[1] >= matched]
    result = {row: row for row in COMPILED.apply(stmt, db)["R"].tuples}
    assert all(result[row] is row for row in unmatched)
    bags = BagDatabase({"R": bag_of(db["R"])})
    stored = {row: row for row in bags["R"].multiplicities}
    result_bag = COMPILED.apply_bag(stmt, bags)["R"].multiplicities
    kept = {row: row for row in result_bag}
    assert all(kept[row] is stored[row] for row in unmatched)


@pytest.mark.parametrize("matched", (0, 20, 140, 200))
def test_set_closure_runs_once_per_matched_row(monkeypatch, matched):
    calls = []
    compile_row = plan_compile.compile_row

    def counting_compile_row(exprs, schema):
        set_row = compile_row(exprs, schema)

        def counted(row):
            calls.append(row)
            return set_row(row)

        return counted

    monkeypatch.setattr(plan_compile, "compile_row", counting_compile_row)
    stmt = UpdateStatement(
        "R", {"B": col("B") + 100}, Cmp("<", Attr("A"), Const(matched))
    )
    db = numbered_db()
    COMPILED.apply(stmt, db)
    assert len(calls) == matched
    assert sorted(calls) == ROWS[:matched]
    calls.clear()
    COMPILED.apply_bag(stmt, BagDatabase({"R": bag_of(db["R"])}))
    assert len(calls) == matched


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
