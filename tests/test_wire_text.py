"""The wire encoder spells what ``json.dumps`` would, byte for byte.

A served answer's bytes are not ``json.dumps`` of its payload: the
delta's rows are spelled column by column from the sorted tables, with
the JSON text a stored cell has remembered since it was first encoded
and computed columns formatted per answer.  Every path that could spell
a cell differently is pinned here against ``json.dumps`` of the
reference payload — the rows of the *materialized* delta in
``sort_rows`` order, as the wire was built before it was columnar:

* what-ifs over all four benchmark workload shapes, small, over three
  seeds (one drawn from ``MAHIF_FUZZ_SEED``), through the library, the
  service's cached answer and twice in a row (the second spelling reads
  the remembered text);
* hand-built relations with NaN, ±Inf, ``-0.0`` beside ``0.0``, ``1`` /
  ``1.0`` / ``True`` in separate rows, NULL in every typed column,
  strings with quotes, backslashes, control characters, non-ASCII and
  U+2028, ints at or beyond 2**53 and 2**63, and a mixed int/float
  column — passed through a plan and computed by one;
* the CLI's local ``--batch`` lines.

Mutation checks, each made by hand on a copy of the tree; each must
fail the named test: ``float.__repr__`` without the non-finite
spellings — ``test_hand_built_cells``; ``str`` cells through
``repr`` — ``test_hand_built_cells``; the grid's row separator
dropped — ``test_workload_answers``.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from fuzz_differential import FUZZ_SEED

from repro.cli import main
from repro.core import Mahif, MahifConfig, Method
from repro.core.delta import DatabaseDelta, RelationDelta
from repro.relational import Database, Relation, Schema
from repro.relational.algebra import Project, RelScan, Select
from repro.relational.exec.backend import resolve_backend
from repro.relational.expressions import Arith, Cmp, If, col, lit
from repro.relational.relation import sort_rows
from repro.service.cache import CachedAnswer
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
    return {
        "delta": reference_delta(result),
        "ps_seconds": result.ps_seconds,
        "exe_seconds": result.exe_seconds,
    }


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
