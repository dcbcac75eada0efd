"""A replayed state is a columnar table: the table-backed ``Relation``.

Statement replay on the compiled backend (``exec/plan_compile``) returns
relations backed by the table it computed; the frozenset of rows is
built only when something reads ``tuples``, iterates, compares or
pickles the relation.  These tests pin, by value and type against the
``interpreted`` oracle and by counted calls — never by a clock:

* the served append path builds no frozenset until a checkpoint writes
  one, and a checkpointed table-backed state reads back equal after a
  reopen;
* a table-backed relation pickles, and crosses a process pool, as its
  rows;
* set semantics stay exact where an ``UPDATE`` merges rows, whether a
  distinct column makes dedup unnecessary or not, and the distinct fact
  is carried, and dropped, exactly where it must be;
* a constant ``INSERT`` of a row already present (by ``==``: ``1`` beside
  ``1.0``, ``True`` beside ``1``) changes nothing, and one of NaN
  inserts, as the frozenset rule has it;
* a SET expression that raises, raises on ``compiled`` as on
  ``interpreted``.

Mutation checks, each made on a copy of the tree and reverted; each
fails a test here:

* ``plan_compile._keyed`` always true (no dedup even where no column is
  distinct) — fails ``test_updates_that_merge_rows_equal_interpreted``;
* ``_updated`` keeping the distinct fact of a column the ``UPDATE``
  SETs — fails ``test_distinct_fact_is_carried_and_dropped``;
* ``ColumnarTable.take`` carrying the facts — fails
  ``test_a_gather_knows_no_distinct_column``.

Seeded through ``MAHIF_FUZZ_SEED`` / ``MAHIF_FUZZ_SCALE`` like the other
fuzz suites (``tests/fuzz_differential.py``).
"""

from __future__ import annotations

import math
import pickle

import pytest

from fuzz_differential import (
    fresh_rng,
    random_history,
    random_typed_database,
    scaled,
)
from repro import Database, History, Relation, Schema
from repro.core import HistoricalWhatIfQuery, Mahif, MahifConfig, Method
from repro.core import Replace
from repro.relational.columnar import columnar_of_relation
from repro.relational.exec.backend import resolve_backend
from repro.relational.expressions import (
    Arith,
    Cmp,
    Const,
    and_,
    col,
    ge,
    le,
    lit,
)
from repro.relational.statements import (
    DeleteStatement,
    InsertTuple,
    UpdateStatement,
)
from repro.service import WhatIfService
from repro.store import HistoryStore

COMPILED = resolve_backend("compiled")
INTERPRETED = resolve_backend("interpreted")

KPA = Schema.of("K", "P", "A")


def _tag(value):
    """A value with its type, NaN as one comparable token."""
    if isinstance(value, float) and math.isnan(value):
        return ("float", "nan")
    return (type(value).__name__, value)


def tagged(relation: Relation) -> set:
    return {tuple(map(_tag, row)) for row in relation.tuples}


def table_backed(relation: Relation) -> bool:
    return relation._table is not None


def keyed_db(rows: int) -> Database:
    """``K`` distinct, ``P = K``, ``A`` in 0..6."""
    return Database(
        {"R": Relation.from_rows(KPA, [(k, k, k % 7) for k in range(rows)])}
    )


@pytest.fixture
def materialized(monkeypatch):
    """Every table-backed relation whose frozenset was built."""
    built: list[Relation] = []
    real = Relation._materialize

    def spy(self):
        built.append(self)
        return real(self)

    monkeypatch.setattr(Relation, "_materialize", spy)
    return built


# -- the served append path ---------------------------------------------------

def test_served_appends_build_no_frozenset_until_a_checkpoint(
    tmp_path, materialized
):
    side = Schema.of("key", "field0")
    database = Database(
        {
            "R": Relation.from_rows(
                KPA, [(k, k % 1000, k % 7) for k in range(12_000)]
            ),
            "S": Relation.from_rows(side, [(k, 0) for k in range(1200)]),
        }
    )
    history = History.of(
        *[
            UpdateStatement(
                "R", {"A": col("A") + 1}, and_(ge(col("P"), 10 * i),
                                               le(col("P"), 10 * i + 500))
            )
            for i in range(10)
        ]
    )
    service = WhatIfService(tmp_path, sync=False)
    try:
        service.register("h", database, history, checkpoint_interval=72)
        for i in range(30):
            side_update = UpdateStatement(
                "S", {"field0": col("field0") + 1},
                and_(ge(col("key"), 10 * i), le(col("key"), 10 * i + 9)),
            )
            data_update = UpdateStatement(
                "R", {"A": col("A") + 1 + i % 3},
                and_(ge(col("P"), 950 + i), le(col("P"), 960 + i)),
            )
            service.append("h", [side_update])
            service.append("h", [data_update])
        store = service._handle("h").store
        assert len(store) == 70
        current = store.current
        assert table_backed(current["R"]) and table_backed(current["S"])
        assert materialized == []
        # version 72 is on the checkpoint grid: its write reads the rows
        service.append("h", [side_update, data_update])
        assert {id(r) for r in materialized} == {
            id(r) for r in store.current.relations.values()
        }
        expected = History(store.history().statements).execute(
            database, backend="interpreted"
        )
        assert store.current.same_contents(expected)
    finally:
        service.close()


def test_checkpointed_state_reads_back_after_a_reopen(tmp_path):
    rng = fresh_rng(4401)
    for trial in range(scaled(12)):
        database, types = random_typed_database(rng, rows=rng.randint(0, 30))
        history = random_history(rng, database, types, length=6)
        path = tmp_path / f"s{trial}"
        with HistoryStore.create(path, database, checkpoint_interval=2) as store:
            store.append_history(history)
        with HistoryStore.open(path) as store:
            for version in range(len(history) + 1):
                expected = History(history.statements[:version]).execute(
                    database, backend="interpreted"
                )
                state = store.as_of(version)
                assert state.same_contents(expected)
                for name in expected.relation_names():
                    assert tagged(state[name]) == tagged(expected[name])


# -- pickling and the process pool --------------------------------------------

def test_pickle_round_trip_of_a_replayed_relation():
    db = keyed_db(200)
    stmt = UpdateStatement("R", {"A": col("A") + 1}, le(col("P"), 50))
    replayed = stmt.apply(db)["R"]
    assert table_backed(replayed)
    copy = pickle.loads(pickle.dumps(replayed))
    assert not table_backed(copy)
    assert copy == replayed and len(copy) == len(replayed) == 200
    assert tagged(copy) == tagged(INTERPRETED.apply(stmt, db)["R"])


def test_answer_batch_over_replayed_versions_in_a_pool():
    db = keyed_db(300)
    history = History.of(
        *[
            UpdateStatement(
                "R", {"A": col("A") + i}, and_(ge(col("P"), 20 * i),
                                               le(col("P"), 20 * i + 60))
            )
            for i in range(8)
        ]
    )
    queries = [
        HistoricalWhatIfQuery(
            history, db,
            (Replace(position, UpdateStatement(
                "R", {"A": col("A") + 40}, le(col("P"), 30 * position)
            )),),
        )
        for position in (3, 5, 7)
    ]
    engine = Mahif()
    try:
        pooled = engine.answer_batch(queries, Method.R_PS_DS, workers=2)
    finally:
        if engine._pool is not None:
            engine._pool.shutdown()
    oracle = Mahif(MahifConfig(backend="interpreted"))
    for query, result in zip(queries, pooled):
        assert result.delta == oracle.answer(query, Method.NAIVE).delta


# -- set semantics of an UPDATE -----------------------------------------------

@pytest.mark.parametrize(
    "set_clauses",
    [
        {"K": lit(1)},          # the distinct column itself: rows merge
        {"A": col("A") * 0},    # no distinct column left? K still is
        {"K": lit(1), "P": lit(1)},  # every distinct column SET
    ],
    ids=("set-key", "times-zero", "set-all-keys"),
)
@pytest.mark.parametrize("matched", (1, 60, 200))
def test_updates_that_merge_rows_equal_interpreted(set_clauses, matched):
    db = keyed_db(200)
    stmt = UpdateStatement("R", set_clauses, Cmp("<", col("P"), Const(matched)))
    expected = INTERPRETED.apply(stmt, db)["R"]
    actual = COMPILED.apply(stmt, db)["R"]
    assert len(actual) == len(expected)
    assert tagged(actual) == tagged(expected)


def test_an_update_over_a_relation_with_no_distinct_column():
    """No column is distinct (``A`` repeats, ``B`` holds NULLs): rows
    that an UPDATE makes equal merge into one, as the interpreter has
    it."""
    schema = Schema.of("A", "B")
    rows = [(k % 3, None if k % 2 else k) for k in range(12)]
    db = Database({"R": Relation.from_rows(schema, rows)})
    stmt = UpdateStatement("R", {"B": lit(0)}, ge(col("A"), 1))
    expected = INTERPRETED.apply(stmt, db)["R"]
    actual = COMPILED.apply(stmt, db)["R"]
    assert len(actual) == len(expected) < len(db["R"])
    assert tagged(actual) == tagged(expected)
    # the one column not SET was looked at, and found to repeat
    assert columnar_of_relation(db["R"]).distinct == {0: False}


def test_distinct_fact_is_carried_and_dropped():
    db = keyed_db(100)
    table = columnar_of_relation(db["R"])
    state = UpdateStatement("R", {"A": col("A") + 1}, le(col("P"), 10)).apply(db)
    assert table.distinct[0] is True
    facts = columnar_of_relation(state["R"]).distinct
    assert facts[0] is True
    # a DELETE keeps it
    state = DeleteStatement("R", le(col("P"), 5)).apply(state)
    assert columnar_of_relation(state["R"]).distinct[0] is True
    # so does an INSERT of a fresh key
    state = InsertTuple("R", (1000, 1000, 1)).apply(state)
    assert columnar_of_relation(state["R"]).distinct[0] is True
    # an UPDATE that SETs the column drops it
    after_set = UpdateStatement("R", {"K": lit(7)}, le(col("P"), 20)).apply(
        state
    )
    assert 0 not in columnar_of_relation(after_set["R"]).distinct
    # an INSERT that repeats the key drops it, and the next UPDATE must
    # then find another distinct column (P) rather than trust K
    # (50, 2000, 1) differs from the stored (50, 50, 1) in P alone
    state = InsertTuple("R", (50, 2000, 1)).apply(state)
    facts = columnar_of_relation(state["R"]).distinct
    assert facts[0] is False
    merging = UpdateStatement("R", {"P": lit(0)}, ge(col("K"), 50))
    expected = INTERPRETED.apply(merging, state)["R"]
    actual = COMPILED.apply(merging, state)["R"]
    assert tagged(actual) == tagged(expected)
    assert len(actual) == len(expected)


def test_a_gather_knows_no_distinct_column():
    """``ColumnarTable.take`` may repeat a row (a join's gather does), so
    it carries no fact; replay alone carries them, to row subsets."""
    table = columnar_of_relation(keyed_db(10)["R"])
    assert table.is_distinct(0)
    repeated = table.take([3, 3])
    assert repeated.distinct == {}
    assert not repeated.is_distinct(0)


# -- INSERT membership --------------------------------------------------------

MIXED = Schema.of("K", "V")


@pytest.mark.parametrize(
    "rows, inserted, present",
    [
        ([(1, 2), (3, 4)], (1, 2), True),           # the row itself
        ([(1, 2.0), (3, 4.0)], (1, 2), True),       # 2 == 2.0
        ([(1, 1), (3, 4)], (1, True), True),        # True == 1
        ([(1, True), (3, False)], (1, 1), True),    # 1 == True
        ([(1, 2.5), (3, 4.5)], (1, float("nan")), False),
        ([(1, float("nan")), (3, 4.5)], (1, float("nan")), False),
        ([(1, None), (3, 4)], (1, None), True),     # None == None
        ([(1, "x"), (3, "y")], (1, "x"), True),
        ([(1, 0.0), (3, 4.0)], (1, -0.0), True),    # -0.0 == 0.0
        ([(1, 2), (3, 4)], (5, 2 ** 70), False),    # beyond int64
        ([(1, 2), (3, 4)], (5, 6), False),
    ],
    ids=("same", "int-float", "bool-int", "int-bool", "nan", "nan-twice",
         "null", "str", "neg-zero", "huge", "fresh"),
)
def test_insert_membership_equals_interpreted(rows, inserted, present):
    db = Database({"R": Relation.from_rows(MIXED, rows)})
    stmt = InsertTuple("R", inserted)
    expected = INTERPRETED.apply(stmt, db)["R"]
    actual = COMPILED.apply(stmt, db)["R"]
    assert len(actual) == len(expected) == len(rows) + (not present)
    assert tagged(actual) == tagged(expected)


def test_insert_of_a_present_row_keeps_the_relation_object():
    db = keyed_db(50)
    assert InsertTuple("R", (7, 7, 0)).apply(db)["R"] is db["R"]


# -- errors -------------------------------------------------------------------

def test_set_type_error_raises_on_compiled_as_on_interpreted():
    db = keyed_db(20)
    stmt = UpdateStatement(
        "R", {"A": Arith("+", Const("x"), Const(1))}, le(col("P"), 3)
    )
    with pytest.raises(Exception) as interpreted:
        INTERPRETED.apply(stmt, db)
    with pytest.raises(type(interpreted.value)):
        COMPILED.apply(stmt, db)
    # a statement that matches no row evaluates no SET expression
    quiet = UpdateStatement(
        "R", {"A": Arith("+", Const("x"), Const(1))}, le(col("P"), -1)
    )
    for backend in (COMPILED, INTERPRETED):
        assert backend.apply(quiet, db)["R"] == db["R"]


def test_random_histories_equal_interpreted_by_type():
    """Replayed states through ``History.execute`` equal the
    interpreter's by value and type tag, states replayed from states."""
    rng = fresh_rng(4402)
    for _ in range(scaled(60)):
        database, types = random_typed_database(rng, rows=rng.randint(0, 25))
        history = random_history(rng, database, types, length=8)
        state, oracle = database, database
        for stmt in history.statements:
            state = stmt.apply(state)
            oracle = stmt.apply(oracle, backend="interpreted")
            for name in oracle.relation_names():
                assert tagged(state[name]) == tagged(oracle[name]), stmt
                assert len(state[name]) == len(oracle[name])
