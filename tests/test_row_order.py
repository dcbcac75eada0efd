"""``sort_rows``: the tree's one row order, and its fast arm.

The order is defined by ``_sort_key`` applied cell by cell; ``sort_rows``
skips building the keys when every column's type set says Python's own
tuple order is the same order.  Both arms are held to the definition on
the typed generators of ``tests/fuzz_differential.py`` (the shapes the
engine produces) and on its codec generator (every scalar the store
round-trips, NaN and ±Inf included), and the result must be a function
of the row *set*: the same list whatever order the rows arrive in.
Seeded through ``MAHIF_FUZZ_SEED``, scaled by ``MAHIF_FUZZ_SCALE``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from fuzz_differential import (
    COLUMN_TYPES,
    fresh_rng,
    random_codec_rows,
    random_value,
    scaled,
)
from repro.core.delta import DatabaseDelta, RelationDelta
from repro.relational import Relation, Schema
from repro.relational import relation as relation_module
from repro.relational.bag import BagDatabase, BagRelation
from repro.relational.relation import _sort_key, sort_rows
from repro.service import delta_payload
from repro.store import encode_database

NAN = float("nan")


def by_definition(rows):
    return sorted(rows, key=lambda row: tuple(map(_sort_key, row)))


def same_rows(left, right) -> bool:
    """Equal as lists of the *same* tuple objects: ``==`` would let
    ``1`` stand in for ``1.0`` or ``True``, and fail on NaN."""
    return len(left) == len(right) and all(
        a is b for a, b in zip(left, right)
    )


def typed_rows(rng):
    """A row set as the engine sees them: one type per column, each
    column NULL-free two times in three — so clean columns sit beside
    ones that need the key, and some draws have only clean ones."""
    columns = [
        (rng.choice(COLUMN_TYPES), rng.choice((0.0, 0.0, 0.25)))
        for _ in range(rng.randint(1, 4))
    ]
    return {
        tuple(random_value(rng, ctype, nulls) for ctype, nulls in columns)
        for _ in range(rng.randint(0, 40))
    }


def check(rows, rng) -> None:
    rows = list(rows)
    expected = by_definition(rows)
    assert same_rows(sort_rows(rows), expected)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert same_rows(sort_rows(shuffled), expected)
    # A set built in another insertion order iterates in another order.
    assert same_rows(sort_rows(set(shuffled)), expected)
    assert same_rows(sort_rows(frozenset(reversed(shuffled))), expected)


@pytest.fixture
def key_calls(monkeypatch):
    """How often ``sort_rows`` asked for a cell's key."""
    calls = []

    def counting(value):
        calls.append(value)
        return _sort_key(value)

    monkeypatch.setattr(relation_module, "_sort_key", counting)
    return calls


def test_typed_rows_sort_as_defined_on_both_arms(key_calls):
    rng = fresh_rng(2101)
    arms = {"native": 0, "keyed": 0}
    for _ in range(scaled(300)):
        rows = typed_rows(rng)
        before = len(key_calls)
        check(rows, rng)
        if len(rows) > 1:
            arms["keyed" if len(key_calls) > before else "native"] += 1
    assert all(arms.values()), arms


def test_codec_rows_sort_as_defined():
    rng = fresh_rng(2102)
    for _ in range(scaled(200)):
        # A set: rows equal as tuples (1 / 1.0 / True) are one row.
        check(set(random_codec_rows(rng, rng.randint(1, 3), 30)), rng)


HAND_CASES = {
    "none": [(None,), (3,), (1,)],
    "nan": [(2.5,), (NAN,), (-1.0,), (7,)],
    "true beside 1": [(True, "a"), (1, "b"), (0, "c"), (False, "d")],
    "1 beside 1.0": [(1, "b"), (1.0, "a"), (0.5, "c")],
    "mixed int/float column": [(10,), (2.5,), (2,), (-3.0,), (10**20,)],
    "str column with one None": [("b",), (None,), ("a",), ("",)],
    "numbers beside strings": [(10,), ("10",), (2,), ("2",)],
    "clean two-column": [(10, "x"), (2, "y"), (2, "x"), (-1, "z")],
    "empty": [],
    "no columns": [()],
}


@pytest.mark.parametrize("name", HAND_CASES)
def test_hand_cases(name):
    check(HAND_CASES[name], fresh_rng(2103))


def test_value_order_not_repr_order():
    """``repr`` order put row 10 before row 2."""
    assert sort_rows([(10, "a"), (2, "b")]) == [(2, "b"), (10, "a")]
    assert sort_rows([(10.0,), (9,)]) == [(9,), (10.0,)]


def test_clean_columns_never_build_a_key(key_calls):
    """The floor under the saving: a delta of numbers and strings is
    ordered without one key call (``key=repr`` made one per row)."""
    rows = {(i, i * 0.5, f"n{i % 7}") for i in range(5000)}
    assert sort_rows(rows) == sorted(rows)
    assert key_calls == []
    sort_rows(rows | {(None, 0.0, "")})
    assert len(key_calls) > 5000


def test_every_renderer_shows_the_one_order():
    """Wire, printed delta, relation listing and both checkpoint
    encodings agree on it."""
    schema = Schema.of("k", "v")
    rows = [(10, "a"), (2, "b"), (9, "c")]
    ordered = [(2, "b"), (9, "c"), (10, "a")]
    relation = Relation.from_rows(schema, rows)
    assert relation.sorted_rows() == ordered
    delta = RelationDelta(schema, frozenset(rows), frozenset(rows))
    assert list(delta.annotated_rows()) == (
        [("-", row) for row in ordered] + [("+", row) for row in ordered]
    )
    result = SimpleNamespace(delta=DatabaseDelta({"R": delta}))
    wire = delta_payload(result)["R"]
    assert wire["added"] == wire["removed"] == [list(r) for r in ordered]
    bag = BagRelation.from_rows(schema, rows + [(2, "b")])
    encoded = encode_database(BagDatabase({"R": bag}))
    assert encoded["relations"]["R"]["rows"] == [
        [[2, "b"], 2], [[9, "c"], 1], [[10, "a"], 1],
    ]
