"""The wire encoder spells what ``json.dumps`` would, byte for byte.

A served answer's bytes are not ``json.dumps`` of its payload: the
delta's rows are spelled run by run from the sorted tables — adjacent
columns that pass through from one stored table at the same rows are
one piece per row, the text that table has remembered for the run since
it was first encoded — and computed columns are formatted per answer.
Every path that could spell a cell differently is pinned here against
``json.dumps`` of the reference payload — the rows of the
*materialized* delta in ``sort_rows`` order, as the wire was built
before it was columnar:

* what-ifs over all four benchmark workload shapes, small, over three
  seeds (one drawn from ``MAHIF_FUZZ_SEED``), through the library, the
  service's cached answer and twice in a row (the second spelling reads
  the remembered text); and over two of them through every other route
  a delta takes: the sqlite and interpreted backends, naive replay and
  EXPLAIN ANALYZE;
* hand-built relations with NaN, ±Inf, ``-0.0`` beside ``0.0``, ``1`` /
  ``1.0`` / ``True`` in separate rows, NULL in every typed column,
  strings with quotes, backslashes, control characters, non-ASCII and
  U+2028, ints at or beyond 2**53 and 2**63, and a mixed int/float
  column — passed through a plan and computed by one;
* runs: a computed column between pass-through ones, a self-join whose
  adjacent stored columns read different rows, a Section-10
  concatenation (``parts``: the joined columns are one run, each part
  spelled by its own runs, a self-join's two included), a union of one
  stored table (one joined ``rows`` array, one run), the frozenset
  route's one run over every column, two threads spelling one version's
  fresh runs at once, and the count floors — an ``exec_bound``-shaped
  delta is two pieces per row, its run's text built once over two
  answers, and a concatenated ``mixed_dml``-shaped one three;
* the CLI's local ``--batch`` lines.

Mutation checks, each made by hand on a copy of the tree; each must
fail the named test: ``float.__repr__`` without the non-finite
spellings — ``test_hand_built_cells``; ``str`` cells through
``repr`` — ``test_hand_built_cells``; the grid's row separator
dropped — ``test_workload_answers``; a run's cells joined by ``","``
— ``test_workload_answers``; ``Column.followed_by`` not comparing
``rows`` — ``test_a_self_join_breaks_a_run_where_rows_differ``;
``take_columns`` not sharing the gathered ``rows``, and
``StoredTable.text`` not remembering —
``test_an_exec_shaped_delta_spells_each_run_once``;
``ColumnarTable.concat`` not binding the joined cells into one table —
``test_a_concatenated_mixed_dml_delta_keeps_its_runs``;
``concat_columns`` not sharing the joined ``rows`` —
``test_a_union_of_one_stored_table_keeps_its_run``; a joined run's
parts stacked in reverse — ``test_workload_answers``; a part's own runs
joined in reverse — ``test_a_concatenated_self_join_joins_its_parts_runs``.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from fuzz_differential import FUZZ_SEED

from repro.cli import main
from repro.core import Mahif, MahifConfig, Method
from repro.core.delta import DatabaseDelta, RelationDelta
from repro.relational import Database, Relation, Schema
from repro.relational.algebra import Join, Project, RelScan, Select, Union
from repro.relational.columnar import StoredTable, run_texts
from repro.relational.exec.backend import resolve_backend
from repro.relational.expressions import Arith, Cmp, If, col, lit
from repro.relational.relation import sort_rows
from repro.service.cache import CachedAnswer
from repro.service import wire
from repro.service.wire import answer_json, result_payload
from repro.workloads import WorkloadSpec, build_workload

#: The benchmark's four workload shapes, shrunk.
WORKLOADS = {
    "slice_bound": dict(
        dataset="taxi", rows=400, updates=20, dependent_pct=10,
        affected_pct=10,
    ),
    "exec_bound": dict(
        dataset="taxi", rows=600, updates=10, dependent_pct=100,
        affected_pct=50,
    ),
    "mixed_dml": dict(
        dataset="tpcc", rows=600, updates=20, dependent_pct=20,
        affected_pct=10, insert_pct=10, delete_pct=10, modifications=3,
    ),
    "service_mixed": dict(
        dataset="taxi", rows=400, updates=20, dependent_pct=10,
        affected_pct=10,
    ),
}


def reference_delta(result) -> dict:
    """The delta as the wire rendered it before it was columnar: the
    materialized frozensets, ``sort_rows``, one list per row."""
    return {
        relation: {
            "attributes": list(delta.schema.attributes),
            "added": [list(row) for row in sort_rows(delta.added)],
            "removed": [list(row) for row in sort_rows(delta.removed)],
        }
        for relation, delta in sorted(result.delta.relations.items())
    }


def reference_payload(result) -> dict:
    payload = {
        "delta": reference_delta(result),
        "ps_seconds": result.ps_seconds,
        "exe_seconds": result.exe_seconds,
    }
    if getattr(result, "profile", None) is not None:  # EXPLAIN
        payload["profile"] = result_payload(result)["profile"]
    return payload


def assert_spelled_alike(result):
    expected = reference_payload(result)
    assert result_payload(result) == expected
    text = json.dumps(expected)
    assert answer_json(result) == text
    assert answer_json(result) == text  # remembered text, second read
    fields = {"method": "R+PS+DS", "backend": "compiled"}
    cached = CachedAnswer.encode(result, fields)
    assert cached.payload == {**expected, **fields}
    assert cached.body == json.dumps({**expected, **fields}).encode("utf-8")
    head = {"query": 3}
    assert answer_json(result, head, fields) == json.dumps(
        {**head, **expected, **fields}
    )


@pytest.mark.parametrize("seed", [7, 8, FUZZ_SEED % 10_000])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_answers(workload, seed):
    built = build_workload(WorkloadSpec(seed=seed, **WORKLOADS[workload]))
    result = Mahif(MahifConfig(verify_plans=False)).answer(
        built.query, Method.R_PS_DS
    )
    assert len(result.delta) > 0
    assert_spelled_alike(result)


#: Every route a delta takes to the wire besides the default answer: the
#: other backends, naive replay (frozensets) and EXPLAIN ANALYZE.
ROUTES = {
    "compiled": ("compiled", Method.R_PS_DS, False),
    "sqlite": ("sqlite", Method.R_PS_DS, False),
    "interpreted": ("interpreted", Method.R_PS_DS, False),
    "naive": ("compiled", Method.NAIVE, False),
    "explain": ("compiled", Method.R_PS_DS, True),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("workload", ["exec_bound", "mixed_dml"])
def test_every_route_spells_alike(workload, route):
    backend, method, explain = ROUTES[route]
    built = build_workload(WorkloadSpec(seed=9, **WORKLOADS[workload]))
    result = Mahif(MahifConfig(backend=backend, verify_plans=False)).answer(
        built.query, method, explain=explain
    )
    assert len(result.delta) > 0
    assert_spelled_alike(result)


# ---------------------------------------------------------------------------
# hand-built cells
# ---------------------------------------------------------------------------

NASTY_STRINGS = (
    'say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f", "ünïcödé",
    "line\u2028sep", "emoji \U0001F600", "", "null", "0",
)


def nasty_database() -> Database:
    rows = []
    floats = (0.0, -0.0, float("inf"), float("-inf"), 1e308, 5e-324, 2.5)
    for index in range(28):
        rows.append((
            index,
            None if index % 5 == 4 else (2 ** 53 + index) * (-1) ** index,
            None if index % 6 == 5 else floats[index % len(floats)],
            None if index % 4 == 3 else index % 2 == 0,
            None if index % 7 == 6 else NASTY_STRINGS[index % 9],
            (2 ** 63 + index, -(2 ** 64), 7)[index % 3],    # beyond int64
            (1, 1.0, True, None)[index % 4],                 # mixed
            (float("nan"), 0.5)[index % 2],                  # NaN
        ))
    return Database({"R": Relation.from_rows(
        Schema.of("k", "big", "f", "b", "s", "huge", "mixed", "nan"), rows
    )})


def answered(delta: RelationDelta):
    return SimpleNamespace(
        delta=DatabaseDelta({"R": delta}), ps_seconds=0.125,
        exe_seconds=1e-7,
    )


@pytest.mark.parametrize("backend", ["compiled", "interpreted"])
def test_hand_built_cells(backend):
    db = nasty_database()
    attributes = db["R"].schema.attributes
    passed = tuple((col(name), name) for name in attributes)
    computed = (
        (col("k"), "k"),
        (Arith("+", col("big"), lit(1)), "big"),
        (Arith("*", col("f"), lit(-1.0)), "f"),
        (Cmp("<", col("k"), lit(9)), "b"),
        (If(Cmp(">", col("k"), lit(3)), col("s"), lit('q" ')), "s"),
        (col("huge"), "huge"),
        (col("mixed"), "mixed"),
        (col("nan"), "nan"),
    )
    pairs = [
        (RelScan("R"), Select(RelScan("R"), Cmp(">", col("k"), lit(13)))),
        (Project(RelScan("R"), passed[:5]),
         Project(Select(RelScan("R"), Cmp("<", col("k"), lit(5))),
                 passed[:5])),
        (Project(RelScan("R"), computed[:5]), Project(RelScan("R"), passed[:5])),
        (Project(RelScan("R"), computed), RelScan("R")),
    ]
    for query_h, query_m in pairs:
        sides = resolve_backend(backend).evaluate_pair(query_h, query_m, db)
        delta = RelationDelta.of_results(*sides)
        assert len(delta) > 0
        assert_spelled_alike(answered(delta))
        materialized = RelationDelta(delta.schema, delta.added, delta.removed)
        assert_spelled_alike(answered(materialized))


def test_one_and_one_point_oh_and_true_stay_apart():
    schema = Schema.of("k", "v")
    delta = RelationDelta(
        schema,
        frozenset({(1, 1), (2, 1.0), (3, True), (4, None), (5, -0.0)}),
        frozenset({(6, 0.0), (7, False), (8, 0)}),
    )
    assert_spelled_alike(answered(delta))
    text = answer_json(answered(delta))
    assert "[1, 1], [2, 1.0], [3, true], [4, null], [5, -0.0]" in text


def test_zero_width_and_empty_tables():
    schema = Schema.of()
    delta = RelationDelta(schema, frozenset({()}), frozenset())
    assert_spelled_alike(answered(delta))
    empty = RelationDelta(Schema.of("a"), frozenset(), frozenset())
    result = SimpleNamespace(
        delta=SimpleNamespace(relations={"R": empty}), ps_seconds=0.0,
        exe_seconds=0.0,
    )
    assert answer_json(result, include_empty=True) == json.dumps({
        "delta": {"R": {"attributes": ["a"], "added": [], "removed": []}},
        "ps_seconds": 0.0, "exe_seconds": 0.0,
    })


# ---------------------------------------------------------------------------
# runs: one text per stored row for adjacent pass-through columns
# ---------------------------------------------------------------------------

def test_an_exec_shaped_delta_spells_each_run_once(monkeypatch):
    """The floor under ``_rows_json``, as counts: nine pass-through
    columns and one computed one are two pieces per row and two
    separators; two encodes of two answers over one version build the
    run's text once and no pass-through column's text of its own."""
    builds = []
    real_text = StoredTable.text

    def counting_text(self, lo, hi):
        if (lo, hi) not in self._runs:
            builds.append((id(self), lo, hi))
        return real_text(self, lo, hi)

    monkeypatch.setattr(StoredTable, "text", counting_text)
    built = build_workload(WorkloadSpec(seed=11, **WORKLOADS["exec_bound"]))
    engine = Mahif(MahifConfig(verify_plans=False))
    for _ in range(2):
        result = engine.answer(built.query, Method.R_PS_DS)
        (delta,) = result.delta.relations.values()
        for table in delta.tables():
            stored = [column.stored is not None for column in table.columns]
            assert stored == [True] * 9 + [False]
            pieces: list[str] = []
            wire._rows_json(table, pieces)
            assert len(pieces) == 1 + 2 * 2 * table.nrows
        assert_spelled_alike(result)
    assert [(lo, hi) for _, lo, hi in builds] == [(0, 9)]


@pytest.mark.parametrize("seed", [3, 7, 8])
def test_a_concatenated_mixed_dml_delta_keeps_its_runs(seed):
    """The floor for Section-10 concatenations, as counts: a
    ``mixed_dml``-shaped delta — each side unioned with its inserted
    tuples, five stored columns around one computed one — is three
    pieces per row (two runs and the computed column), not one per
    column."""
    built = build_workload(WorkloadSpec(seed=seed, **WORKLOADS["mixed_dml"]))
    result = Mahif(MahifConfig(verify_plans=False)).answer(
        built.query, Method.R_PS_DS
    )
    tables = [
        table
        for delta in result.delta.relations.values()
        for table in delta.tables()
        if table.nrows
    ]
    assert tables
    for table in tables:
        assert all(
            column.stored._parts
            for column in table.columns
            if column.stored is not None
        )
        assert len(table.columns) == 6
        assert len(run_texts(table.columns)) == 3
    assert_spelled_alike(result)


def passed_through(names):
    return tuple((col(name), name) for name in names)


@pytest.mark.parametrize("backend", ["compiled", "interpreted"])
def test_a_computed_column_splits_a_run(backend):
    """A computed column between pass-through ones, NULLs, escapes,
    ``-0.0`` and ``±Inf`` inside the runs on both sides of it."""
    db = nasty_database()
    query_h = Project(RelScan("R"), (
        (col("k"), "k"), (col("big"), "big"),
        (Arith("*", col("f"), lit(-1.0)), "f"),
        (col("b"), "b"), (col("s"), "s"),
    ))
    query_m = Project(
        Select(RelScan("R"), Cmp("<", col("k"), lit(20))),
        passed_through(("k", "big", "f", "b", "s")),
    )
    sides = resolve_backend(backend).evaluate_pair(query_h, query_m, db)
    delta = RelationDelta.of_results(*sides)
    removed, added = delta.tables()
    if backend == "compiled":  # runs kept: [k, big], f, [b, s] / one
        assert len(run_texts(removed.columns)) == 3
        assert len(run_texts(added.columns)) == 1
    else:  # relations: the frozenset route, one run over every column
        assert len(run_texts(removed.columns)) == 1
    assert_spelled_alike(answered(delta))
    text = answer_json(answered(delta))
    for spelled in ("null", "-0.0", "Infinity", '\\"hi\\"', "\\u2028"):
        assert spelled in text


def test_a_self_join_breaks_a_run_where_rows_differ():
    """Two adjacent output columns reading adjacent stored columns of one
    table, but each at its own side's rows, are two runs."""
    db = nasty_database()
    right = Project(RelScan("R"), ((col("k"), "k2"), (col("big"), "big2")))
    joined = Join(
        RelScan("R"), right, Cmp("=", col("k2"), Arith("+", col("k"), lit(1)))
    )
    query_h = Project(joined, ((col("k"), "k"), (col("big2"), "big")))
    query_m = Project(RelScan("R"), passed_through(("k", "big")))
    sides = resolve_backend("compiled").evaluate_pair(query_h, query_m, db)
    delta = RelationDelta.of_results(*sides)
    removed, added = delta.tables()
    assert [column.stored.index for column in removed.columns] == [0, 1]
    assert len(run_texts(removed.columns)) == 2
    assert len(run_texts(added.columns)) == 1
    assert_spelled_alike(answered(delta))


def test_a_concatenated_table_keeps_its_cells_own_text():
    """Section 10: a side unioned with inserted tuples is a table whose
    columns join two tables' cells (``parts``).  The joined columns are
    one stored table, so they spell as one run: each part's own run
    text, stacked."""
    db = nasty_database()
    names = ("k", "big", "f", "b", "s")
    inserted = Relation.from_rows(Schema.of(*names), [
        (100, None, -0.0, True, 'new "row"'),
        (101, 2 ** 60, float("inf"), None, "\u2028"),
    ])
    query = Project(RelScan("R"), passed_through(names))
    sides = resolve_backend("compiled").evaluate_pair(
        query, Select(query, Cmp(">", col("k"), lit(3))), db
    )
    delta = RelationDelta.of_results(
        *sides, extra_current=None, extra_modified=inserted
    )
    removed, added = delta.tables()
    assert added.nrows == 2 and removed.nrows == 4
    assert all(column.stored._parts for column in added.columns)
    assert len(run_texts(added.columns)) == 1
    assert_spelled_alike(answered(delta))


def test_a_concatenated_self_join_joins_its_parts_runs():
    """A joined run whose first part is itself two runs (a self-join's
    columns, each at its own side's rows) spells each part's rows as
    that part's runs joined."""
    db = nasty_database()
    right = Project(RelScan("R"), ((col("k"), "k2"), (col("big"), "big2")))
    joined = Join(
        RelScan("R"), right, Cmp("=", col("k2"), Arith("+", col("k"), lit(1)))
    )
    query_h = Project(joined, ((col("k"), "k"), (col("big2"), "big")))
    query_m = Project(RelScan("R"), passed_through(("k", "big")))
    inserted = Relation.from_rows(
        Schema.of("k", "big"), [(100, None), (101, -(2 ** 60))]
    )
    sides = resolve_backend("compiled").evaluate_pair(query_h, query_m, db)
    delta = RelationDelta.of_results(
        *sides, extra_current=inserted, extra_modified=None
    )
    removed, _ = delta.tables()
    assert all(column.stored._parts for column in removed.columns)
    assert len(run_texts(removed.columns)) == 1
    assert len(run_texts([c.stored._parts[0] for c in removed.columns])) == 2
    assert_spelled_alike(answered(delta))


def test_a_union_of_one_stored_table_keeps_its_run():
    """A union of two selections of one relation reads one stored table
    on both sides of the concatenation: its columns share one joined
    ``rows`` array and stay one run."""
    db = nasty_database()
    names = ("k", "big", "f", "b", "s")
    query = Project(RelScan("R"), passed_through(names))
    union = Union(
        Select(query, Cmp("<", col("k"), lit(6))),
        Select(query, Cmp(">", col("k"), lit(20))),
    )
    sides = resolve_backend("compiled").evaluate_pair(
        union, Select(query, Cmp("=", col("k"), lit(3))), db
    )
    delta = RelationDelta.of_results(*sides)
    removed, added = delta.tables()
    assert removed.nrows == 12 and added.nrows == 0
    assert len(run_texts(removed.columns)) == 1
    assert_spelled_alike(answered(delta))


def test_two_threads_encode_one_version_alike():
    """The lazy fills may race: two threads spelling one version's
    fresh runs at once send identical, correct bytes."""
    built = build_workload(WorkloadSpec(seed=13, **WORKLOADS["exec_bound"]))
    result = Mahif(MahifConfig(verify_plans=False)).answer(
        built.query, Method.R_PS_DS
    )
    barrier = threading.Barrier(2)

    def encode(_):
        barrier.wait()
        return answer_json(result)

    with ThreadPoolExecutor(2) as pool:
        first, second = pool.map(encode, range(2))
    assert first == second == json.dumps(reference_payload(result))


# ---------------------------------------------------------------------------
# the CLI's local --batch lines
# ---------------------------------------------------------------------------

def test_cli_batch_lines(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "Orders.csv").write_text(
        "ID,Customer,Price,Fee\n"
        + "".join(
            f'{i},"{name}",{price},{fee}\n'
            for i, (name, price, fee) in enumerate(
                [("O'Brien", 10.5, 3), ('say ""hi""', 20.0, 0),
                 ("ünï", 35.25, 4), ("x\\y", 50, 5), ("", 70.0, 6),
                 ("plain", 90.125, 7)],
                start=1,
            )
        )
    )
    (tmp_path / "history.sql").write_text(
        "UPDATE Orders SET Fee = 0 WHERE Price >= 50;"
        "UPDATE Orders SET Fee = Fee + 2 WHERE Price <= 40;"
        "UPDATE Orders SET Price = Price * 1.5 WHERE Fee > 3;"
    )
    specs = [
        {"replace": [[1, "UPDATE Orders SET Fee = 1 WHERE Price >= 20"]]},
        {"delete_stmt": [2]},
        {"replace": [[3, "UPDATE Orders SET Price = Price - 0.5 "
                         "WHERE Fee > 1"]]},
    ]
    (tmp_path / "batch.json").write_text(json.dumps(specs))
    argv = [
        "whatif", "--data", str(data),
        "--history", str(tmp_path / "history.sql"),
        "--batch", str(tmp_path / "batch.json"),
    ]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(specs)

    from repro.cli import _load_database, _load_history
    from repro.core import HistoricalWhatIfQuery
    from repro.service.wire import modifications_from_spec

    database = _load_database(str(data))
    history = _load_history(str(tmp_path / "history.sql"))
    engine = Mahif()
    for index, (line, spec) in enumerate(zip(lines, specs)):
        result = engine.answer(
            HistoricalWhatIfQuery(
                history, database, modifications_from_spec(spec)
            ),
            Method.R_PS_DS,
        )
        timings = json.loads(line)
        assert line == json.dumps({
            "query": index,
            "delta": reference_delta(result),
            "ps_seconds": timings["ps_seconds"],
            "exe_seconds": timings["exe_seconds"],
        })
