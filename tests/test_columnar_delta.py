"""The columnar delta: ``evaluate_pair`` + ``RelationDelta.of_results``.

On the columnar evaluator a reenactment query pair is never turned into
rows: both result tables are put in one order that is at once the
anti-join and ``sort_rows`` — the first key sorted, and only the rows it
ties refined by the later keys (a pair by one compare and a swap, a
larger group by one ``np.lexsort`` on every key) — and the delta keeps
the two sorted tables, building ``added`` / ``removed`` frozensets when
first read.  This suite pins the contract that makes the shortcut
invisible:

* on every backend, ``of_results(*evaluate_pair(h, m, db), extras)``
  equals ``between`` of the two evaluated (and unioned) results — over
  the untyped plan corpus (duplicate rows within one side, int/float
  sides, NULLs) and the typed what-if corpus of the four-way
  differential, with and without Section-10 extras — and keeps the
  frozenset's choice of row where equal cells differ in text
  (``0.0`` / ``-0.0``);
* the sides fall back to ``between`` exactly where no exact sort key
  exists (list-backed columns, tags that differ between the sides,
  NaN), and take the columnar route otherwise;
* the refined order is ``np.lexsort`` of every key and its ``tied`` the
  per-key run boundaries, seeded over int, float (``-0.0`` / ``0.0``),
  bool validity and permutation keys with tied groups of two (the swap)
  and of three or more (the fallback); duplicates within a side under a
  constant first key; and the count floor — an ``exec_bound``-shaped
  what-if puts no row through the fallback sort;
* a lazy delta is ``==`` to and hashes like its materialized twin;
  ``len``, ``is_empty`` and ``DatabaseDelta``'s empty filter do not
  materialize it; it pickles through a process pool; eight threads
  reading it first all get one frozenset.

Seeded via ``MAHIF_FUZZ_SEED``; ``MAHIF_FUZZ_SCALE`` shrinks the
randomized trials (see ``fuzz_differential``).

Mutation checks, each made by hand on a copy of the tree; each must
fail the named test: ``sorted_delta`` keeping a run's last row instead
of its first — ``test_first_occurrence_wins_where_text_differs``;
dropping the validity key — ``test_corpus_of_random_plans``; NULL
keyed last — ``test_nulls_sort_first_and_equal_each_other``;
``_materialize`` without its lock —
``test_eight_first_readers_get_one_frozenset``; a pair swapped on
``>=`` instead of ``>`` — ``test_refined_order_is_the_lexsort_of_every_key``;
the fallback skipped for a split group of three, or a group of three
told by one neighbour only —
``test_a_group_of_three_split_by_a_later_key_falls_back`` and the
property test; after the fallback, ``tied`` narrowed with the order
the pairs had before it —
``test_a_group_of_three_split_by_a_later_key_falls_back``; the fallback
sorting on the keys in the wrong priority —
``test_nulls_sort_first_and_equal_each_other``.
"""

from __future__ import annotations

import pickle
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from fuzz_differential import fresh_rng, random_hwq, scaled
from test_exec_compiled import random_database, random_plan

from repro.core import Mahif, MahifConfig, Method
from repro.core import delta as delta_module
from repro.core.delta import DatabaseDelta, RelationDelta
from repro.relational import Database, Relation, Schema
from repro.relational.algebra import (
    Project,
    RelScan,
    evaluate_query,
    evaluate_query_interpreted,
)
from repro.relational.columnar import ColumnarTable, _lex_order, sorted_delta
from repro.relational.exec.backend import BACKENDS, resolve_backend
from repro.relational.relation import sort_rows
from repro.relational.expressions import Arith, EvaluationError, col, lit
from repro.relational.schema import SchemaError
from repro.workloads import WorkloadSpec, build_workload

N_PLAN_PAIRS = 150
N_WHATIFS = 25


def reference(backend, query_h, query_m, db, extra_h=None, extra_m=None):
    """Today's path, kept as the reference: evaluate twice, union the
    extras, ``between``."""
    result_h = evaluate_query(query_h, db, backend=backend)
    result_m = evaluate_query(query_m, db, backend=backend)
    if extra_h is not None:
        result_h = result_h.union(extra_h)
    if extra_m is not None:
        result_m = result_m.union(extra_m)
    return RelationDelta.between(result_h, result_m)


def paired(backend, query_h, query_m, db, extra_h=None, extra_m=None):
    sides = resolve_backend(backend).evaluate_pair(query_h, query_m, db)
    return RelationDelta.of_results(*sides, extra_h, extra_m)


def spelled(rows):
    """Rows with every cell's type and repr: ``==`` cannot tell ``1``
    from ``1.0`` or ``0.0`` from ``-0.0``."""
    return sorted(
        tuple((type(v).__name__, repr(v)) for v in row) for row in rows
    )


def assert_same(delta, expected):
    assert delta == expected
    assert spelled(delta.added) == spelled(expected.added)
    assert spelled(delta.removed) == spelled(expected.removed)
    assert delta.sorted_rows() == expected.sorted_rows()
    assert len(delta) == len(expected)


def extras_of(rng, relation, arity):
    """A few rows like the relation's own, some of them its rows."""
    rows = list(relation.tuples)
    extra = [rng.choice(rows) for _ in range(min(2, len(rows)))]
    extra += [
        tuple(rng.choice([None, 0, 1, -3]) for _ in range(arity))
        for _ in range(rng.randint(0, 2))
    ]
    return Relation(relation.schema, frozenset(extra))


# ---------------------------------------------------------------------------
# evaluate_pair + of_results against between, on every backend
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_corpus_of_random_plans(backend):
    rng = fresh_rng(offset=35)
    compared = 0
    for trial in range(scaled(N_PLAN_PAIRS)):
        db = random_database(rng)
        query_h, query_m = random_plan(rng), random_plan(rng)
        try:
            result_h = evaluate_query_interpreted(query_h, db)
            evaluate_query_interpreted(query_m, db)
        except (EvaluationError, SchemaError):
            continue
        extra_h = extra_m = None
        if rng.random() < 0.5:
            extra_h = extras_of(rng, result_h, result_h.schema.arity)
            extra_m = extras_of(rng, result_h, result_h.schema.arity)
        try:
            expected = reference(backend, query_h, query_m, db, extra_h, extra_m)
        except (EvaluationError, SchemaError) as exc:
            with pytest.raises(type(exc)):
                paired(backend, query_h, query_m, db, extra_h, extra_m)
            continue
        compared += 1
        assert_same(
            paired(backend, query_h, query_m, db, extra_h, extra_m), expected
        ), trial
    assert compared >= scaled(N_PLAN_PAIRS) // 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_corpus_of_typed_whatifs(backend):
    """The reenactment pairs of the four-way differential's what-ifs:
    strings, bools, floats and NULLs in every column."""
    rng = fresh_rng(offset=36)
    engine = Mahif(MahifConfig(backend=backend))
    pairs = 0
    for _ in range(scaled(N_WHATIFS)):
        query = random_hwq(rng)
        result = engine.answer(query, Method.R_PS_DS)
        db = result.base_database
        for name, query_h in result.queries_original.items():
            query_m = result.queries_modified[name]
            expected = reference(backend, query_h, query_m, db)
            assert_same(paired(backend, query_h, query_m, db), expected)
            current = evaluate_query_interpreted(query_h, db)
            extra_h = extras_of(rng, db[name], current.schema.arity)
            extra_m = extras_of(rng, db[name], current.schema.arity)
            expected = reference(
                backend, query_h, query_m, db, extra_h, extra_m
            )
            assert_same(
                paired(backend, query_h, query_m, db, extra_h, extra_m),
                expected,
            )
            pairs += 1
    assert pairs >= scaled(N_WHATIFS)


# ---------------------------------------------------------------------------
# the sort's exactness rules
# ---------------------------------------------------------------------------

def table(*columns_rows):
    schema = Schema.of(*(f"c{i}" for i in range(len(columns_rows[0]))))
    return ColumnarTable.from_rows(schema, list(columns_rows))


def test_first_occurrence_wins_where_text_differs():
    """``0.0`` and ``-0.0`` are one row; the frozenset keeps the one it
    met first, and so does the sort, whichever side holds the other."""
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        current = table((1, first), (1, second), (2, 5.0))
        modified = table((3, 1.0))
        removed, added = sorted_delta(current, modified)
        expected = RelationDelta.between(
            current.to_relation(), modified.to_relation()
        )
        assert spelled(removed.tuples()) == spelled(expected.removed)
        assert repr(removed.tuples()[0][1]) == repr(first)


def test_equal_cells_of_different_text_are_common():
    removed, added = sorted_delta(table((1, -0.0)), table((1, 0.0)))
    assert removed.nrows == added.nrows == 0


def test_nulls_sort_first_and_equal_each_other():
    current = table(
        (None, "b"), (2, "a"), (2, None), (1, "a"), (None, "b"), (None, "c")
    )
    modified = table((None, "b"), (2, "x"))
    removed, added = sorted_delta(current, modified)
    assert removed.tuples() == [(None, "c"), (1, "a"), (2, None), (2, "a")]
    assert removed.tuples() == sort_rows(removed.tuples())
    assert added.tuples() == [(2, "x")]


@pytest.mark.parametrize(
    "current, modified",
    [
        ([(1, "a")], [(1.0, "a")]),            # int against float
        ([(True,)], [(1,)]),                    # bool against int
        ([(1,), (1.5,)], [(2,)]),               # mixed column: list-backed
        ([(float("nan"),)], [(1.0,)]),          # NaN: list-backed
        ([(2 ** 63,)], [(1,)]),                 # beyond int64
    ],
)
def test_no_exact_key_falls_back(current, modified):
    cur, mod = table(*current), table(*modified)
    assert sorted_delta(cur, mod) is None
    delta = RelationDelta.of_results(cur, mod)
    assert_same(
        delta, RelationDelta.between(cur.to_relation(), mod.to_relation())
    )


def test_a_computed_nan_falls_back():
    db = Database({"R": Relation.from_rows(
        Schema.of("k", "x"), [(1, float("inf")), (2, 1.0)]
    )})
    nan = Project(RelScan("R"), (
        (col("k"), "k"), (Arith("-", col("x"), col("x")), "x"),
    ))
    same = Project(RelScan("R"), ((col("k"), "k"), (col("x") * lit(0.0), "x")))
    for backend in BACKENDS:
        delta = paired(backend, nan, same, db)
        expected = reference(backend, nan, same, db)
        # inf - inf and inf * 0.0 are both NaN, and NaN is no NaN's
        # equal (sqlite stores it as NULL, which is)
        assert spelled(delta.added) == spelled(expected.added)
        assert spelled(delta.removed) == spelled(expected.removed)
    tables = resolve_backend("compiled").evaluate_pair(nan, same, db)
    assert sorted_delta(*tables) is None


def test_an_empty_side_takes_the_columnar_route():
    """An empty result's columns are list-backed and tagless: they do
    not send the pair to the frozenset route."""
    schema = Schema.of("k", "s")
    empty = ColumnarTable.from_rows(schema, [])
    full = table((2, "b"), (1, "a"), (2, "b"))
    removed, added = sorted_delta(empty, full)
    assert removed.nrows == 0 and added.tuples() == [(1, "a"), (2, "b")]
    removed, added = sorted_delta(full, empty)
    assert removed.tuples() == [(1, "a"), (2, "b")] and added.nrows == 0


def test_strings_order_as_python_orders_them():
    words = ["b", "B", "ä", "a ", "", "a", "Z", '"q"', "\\"]
    current = table(*[(w,) for w in words])
    removed, _ = sorted_delta(current, table(("zz",)))
    assert [row[0] for row in removed.tuples()] == sorted(words)


# ---------------------------------------------------------------------------
# the order: refining ties against one sort on every key
# ---------------------------------------------------------------------------

N_ORDER_TRIALS = 400
#: The oracle's sort, kept before any test counts calls of np.lexsort.
LEXSORT = np.lexsort


def run_boundaries(keys, order):
    """The reference ``tied``: per key, whether each row of ``order``
    equals the next one."""
    tied = np.ones(len(order) - 1, dtype=bool)
    for key in keys:
        ranked = key[order]
        tied &= ranked[1:] == ranked[:-1]
    return tied


def random_key(rng, rows, kind):
    if kind == "int":
        return np.array([rng.randint(-2, 2) for _ in range(rows)])
    if kind == "float":  # -0.0 and 0.0 tie, and tie with each other
        values = [-0.0, 0.0, 1.5, -2.0]
        return np.array([rng.choice(values) for _ in range(rows)])
    if kind == "bool":  # a validity key
        return np.array([rng.random() < 0.7 for _ in range(rows)])
    values = list(range(rows))  # a permutation: no ties at all
    rng.shuffle(values)
    return np.array(values)


def random_first_key(rng, rows):
    """Groups of two rows (the keyed shape), of any size, or none."""
    shape = rng.choice(["pairs", "pairs", "groups", "unique"])
    if shape == "pairs":
        values = [i // 2 for i in range(rows)]
        if rng.random() < 0.5:  # a few groups of three among the pairs
            values = [v - (v % 5 == 4 and i % 2 == 0) for i, v in
                      enumerate(values)]
    elif shape == "groups":
        values = [rng.randint(0, max(1, rows // 4)) for _ in range(rows)]
    else:
        values = list(range(rows))
    rng.shuffle(values)
    return np.array(values)


@pytest.fixture
def lexsorts(monkeypatch):
    """The rows each call of ``np.lexsort`` orders."""
    calls = []

    def counting(keys, *args, **kwargs):
        calls.append(len(keys[0]))
        return LEXSORT(keys, *args, **kwargs)

    monkeypatch.setattr(np, "lexsort", counting)
    return calls


def test_refined_order_is_the_lexsort_of_every_key(lexsorts):
    """Seeded: the order and ``tied`` equal one stable sort on every key
    and the per-key run boundaries — over int, float (with ``-0.0`` /
    ``0.0``), bool validity and permutation keys, with first keys whose
    tied groups are pairs (the swap), larger (the fallback) or absent."""
    rng = fresh_rng(offset=38)
    swapped = fell_back = 0
    for _ in range(scaled(N_ORDER_TRIALS)):
        rows = rng.randint(1, 40)
        keys = [random_first_key(rng, rows)] + [
            random_key(rng, rows, rng.choice(["int", "float", "bool", "perm"]))
            for _ in range(rng.randint(0, 4))
        ]
        calls = len(lexsorts)
        order, tied = _lex_order(keys)
        expected = LEXSORT(keys[::-1])
        assert order.tolist() == expected.tolist()
        assert tied.tolist() == run_boundaries(keys, expected).tolist()
        if len(lexsorts) > calls:
            fell_back += 1
        elif order.tolist() != np.argsort(keys[0], kind="stable").tolist():
            swapped += 1
    assert swapped >= scaled(N_ORDER_TRIALS) // 10
    assert fell_back >= scaled(N_ORDER_TRIALS) // 10


def test_a_group_of_three_split_by_a_later_key_falls_back(lexsorts):
    first = np.array([0, 1, 1, 1, 2])
    second = np.array([5.0, 3.0, -0.0, 0.0, 1.0])
    order, tied = _lex_order([first, second])
    assert order.tolist() == [0, 2, 3, 1, 4]
    assert tied.tolist() == [False, True, False, False]
    assert lexsorts == [5]


def test_a_pair_is_ordered_by_one_compare(lexsorts):
    first = np.array([1, 0, 1, 0])
    second = np.array([7, 9, 3, 9])
    third = np.array([True, False, False, True])
    order, tied = _lex_order([first, second, third])
    assert order.tolist() == [1, 3, 2, 0]
    assert tied.tolist() == [False, False, False]
    assert lexsorts == []


def test_duplicates_within_a_side_under_a_constant_first_key():
    """Every row ties on the first key (one group: the fallback), and
    each side repeats rows: the delta is ``between``'s, in
    ``sort_rows`` order, each distinct row once."""
    current = table(
        (1, "b", 2.0), (1, "a", 1.0), (1, "b", 2.0), (1, "c", -0.0),
        (1, "a", 1.0), (1, "d", 4.0),
    )
    modified = table(
        (1, "a", 1.0), (1, "e", 5.0), (1, "e", 5.0), (1, "c", 0.0),
        (1, "b", 3.0),
    )
    removed, added = sorted_delta(current, modified)
    expected = RelationDelta.between(
        current.to_relation(), modified.to_relation()
    )
    assert removed.tuples() == sort_rows(expected.removed)
    assert added.tuples() == sort_rows(expected.added)
    assert removed.tuples() == [(1, "b", 2.0), (1, "d", 4.0)]
    assert added.tuples() == [(1, "b", 3.0), (1, "e", 5.0)]


def test_a_keyed_pair_never_reaches_the_fallback(lexsorts):
    """The floor, as a count: an ``exec_bound``-shaped what-if — both
    sides read one stored table, every tie a row and its twin on the
    other side — is ordered with no row in ``np.lexsort``."""
    built = build_workload(WorkloadSpec(
        seed=7, dataset="taxi", rows=600, updates=10, dependent_pct=100,
        affected_pct=50,
    ))
    result = Mahif(MahifConfig(verify_plans=False)).answer(
        built.query, Method.R_PS_DS
    )
    (delta,) = result.delta.relations.values()
    assert len(delta) > 0
    assert lexsorts == []
    reference_result = Mahif(MahifConfig(backend="interpreted")).answer(
        built.query, Method.R_PS_DS
    )
    assert result.delta == reference_result.delta


# ---------------------------------------------------------------------------
# the lazy delta
# ---------------------------------------------------------------------------

def lazy_delta():
    current = table(*[(i, f"s{i % 7}", i / 4) for i in range(40)])
    modified = table(*[(i, f"s{i % 7}", i / 4) for i in range(20, 60)])
    delta = RelationDelta.of_results(current, modified)
    assert delta._added is None  # the columnar form, unread
    return delta


@pytest.fixture
def materializations(monkeypatch):
    calls = []
    real = RelationDelta._materialize

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(RelationDelta, "_materialize", counting)
    return calls


def test_lazy_equals_and_hashes_like_its_materialized_twin():
    lazy = lazy_delta()
    twin = RelationDelta(lazy.schema, frozenset(lazy.added),
                         frozenset(lazy.removed))
    assert lazy_delta() == twin and twin == lazy_delta()
    assert hash(lazy_delta()) == hash(twin)
    assert {lazy_delta(): 1}[twin] == 1


def test_size_and_emptiness_do_not_materialize(materializations):
    delta = lazy_delta()
    empty = RelationDelta.of_results(table((1, "a")), table((1, "a")))
    assert len(delta) == 40 and not delta.is_empty()
    assert empty.is_empty() and len(empty) == 0
    database = DatabaseDelta({"R": delta, "S": empty})
    assert list(database.relations) == ["R"] and len(database) == 40
    removed, added = delta.sorted_rows()
    assert [row[0] for row in removed] == list(range(20))
    assert [row[0] for row in added] == list(range(40, 60))
    assert materializations == []
    assert len(delta.added) == 20
    assert len(materializations) == 1


def _roundtrip(delta):
    return delta


def test_pickles_through_a_process_pool():
    delta = lazy_delta()
    assert pickle.loads(pickle.dumps(delta)) == delta
    with ProcessPoolExecutor(max_workers=1) as pool:
        back = pool.submit(_roundtrip, delta).result(timeout=120)
    assert isinstance(back, RelationDelta)
    assert back == delta and hash(back) == hash(delta)


def test_eight_first_readers_get_one_frozenset(monkeypatch):
    delta = lazy_delta()
    real = ColumnarTable.tuples
    gate = threading.Barrier(8)

    def slow_tuples(self):
        rows = real(self)
        threading.Event().wait(0.01)  # widen the window for a race
        return rows

    monkeypatch.setattr(ColumnarTable, "tuples", slow_tuples)
    seen = []

    def read():
        gate.wait()
        seen.append((delta.added, delta.removed))

    threads = [threading.Thread(target=read) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len({id(added) for added, _ in seen}) == 1
    assert len({id(removed) for _, removed in seen}) == 1
    assert delta_module._MATERIALIZE.acquire(blocking=False)
    delta_module._MATERIALIZE.release()
