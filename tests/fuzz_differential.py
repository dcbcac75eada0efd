"""Seeded generators for four-way differential fuzzing.

Shared by ``tests/test_sql_backend_differential.py``: random typed
schemas, databases (NULL-heavy, negative numbers, duplicate-prone and
quote-laden strings), histories, and what-if modifications, built so
that every generated plan/statement is *well-typed for all four
backends* — ordered comparisons stay within a type group, because the
interpreter raises :class:`EvaluationError` on ``1 < 'x'`` while SQLite
applies its cross-type ordering.  Cross-group *equality* is generated on
purpose (both sides agree it is false), as are NULLs in every non-key
column, ``x/0`` divisions, and bool-vs-int coercions.

This module extends (rather than duplicates) the untyped generators in
``tests/test_exec_compiled.py``; the plan-level differential reuses
``random_plan``/``random_database`` from there directly.

Environment knobs, consumed by the differential suite:

* ``MAHIF_FUZZ_SEED`` — base RNG seed (default fixed, for reproducible
  CI); set it to a fresh value for a randomized smoke run.  Unset or
  empty, either knob takes its default (:func:`env_number`, which the
  seeded suites with defaults of their own read too).
* ``MAHIF_FUZZ_SCALE`` — float multiplier on trial counts (CI smoke
  runs use ``0.2``); the acceptance budget of ≥ 200 differential cases
  refers to the unscaled defaults.
"""

from __future__ import annotations

import os
import random

from repro.core import (
    DeleteStatementMod,
    HistoricalWhatIfQuery,
    InsertStatementMod,
    Replace,
)
from repro.relational import Database, History, Relation, Schema
from repro.relational.algebra import Project, RelScan, Select
from repro.relational.expressions import (
    Arith,
    Attr,
    Cmp,
    Const,
    If,
    IsNull,
    Logic,
    Not,
)
from repro.relational.statements import (
    DeleteStatement,
    InsertQuery,
    InsertTuple,
    UpdateStatement,
)

def env_number(name: str, default: int | float) -> int | float:
    """The number the environment variable ``name`` spells, of the
    default's type — or ``default`` when it is unset, empty or blank (a
    CI variable that expands to nothing means "not set", not a broken
    suite)."""
    value = os.environ.get(name, "").strip()
    return type(default)(value) if value else default


FUZZ_SEED = env_number("MAHIF_FUZZ_SEED", 20260725)
_SCALE = env_number("MAHIF_FUZZ_SCALE", 1.0)

def scaled(trials: int) -> int:
    """Trial count honouring the CI smoke-run scale knob."""
    return max(1, int(trials * _SCALE))


#: Duplicate-prone, quote-laden, empty and unicode strings.
STRINGS = ("dup", "dup", "O'Brien", 'say "hi"', "", "x;--", "ünïcode", "0")

#: "numeric" mixes int/float/bool (mutually comparable in Python and
#: SQLite alike); "text" only supports equality across groups.
COLUMN_TYPES = ("int", "float", "bool", "str")

_ORDERED_OPS = ("=", "!=", "<", "<=", ">", ">=")
_EQUALITY_OPS = ("=", "!=")


def random_value(rng, ctype, null_pct=0.25):
    if null_pct and rng.random() < null_pct:
        return None
    if ctype == "int":
        return rng.randint(-50, 50)
    if ctype == "float":
        return round(rng.uniform(-20.0, 20.0), 3)
    if ctype == "bool":
        return rng.random() < 0.5
    return rng.choice(STRINGS)


def random_typed_schema(rng, name_prefix="c", max_extra=3):
    """An int key column plus 1..max_extra typed value columns.

    Returns ``(Schema, types)`` where ``types[i]`` is the column's value
    domain.  The key column stays NULL-free and is never updated, which
    keeps generated histories key-preserving (required for the engine
    methods to agree under set semantics, see DESIGN.md).
    """
    count = rng.randint(1, max_extra)
    attributes = ["k"] + [f"{name_prefix}{i}" for i in range(count)]
    types = ["int"] + [rng.choice(COLUMN_TYPES) for _ in range(count)]
    return Schema(tuple(attributes)), tuple(types)


def random_relation(rng, schema, types, rows):
    """Rows with unique keys, NULLs and duplicates in the value columns."""
    data = []
    for key in range(rows):
        row = [key]
        for ctype in types[1:]:
            row.append(random_value(rng, ctype))
        data.append(tuple(row))
    return Relation.from_rows(schema, data)


def random_typed_database(rng, rows=12):
    """Two same-layout relations (``INSERT ... SELECT`` compatible) plus
    one independently shaped relation.  Returns ``(db, types_by_name)``."""
    schema, types = random_typed_schema(rng)
    other_schema, other_types = random_typed_schema(rng, name_prefix="d")
    db = Database(
        {
            "R": random_relation(rng, schema, types, rows),
            "S": random_relation(rng, schema, types, max(2, rows // 2)),
            "T": random_relation(rng, other_schema, other_types, rows // 2),
        }
    )
    return db, {"R": types, "S": types, "T": other_types}


def _columns_of_group(schema, types, group):
    numeric = {"int", "float", "bool"}
    return [
        attribute
        for attribute, ctype in zip(schema.attributes, types)
        if (ctype in numeric) == (group == "numeric")
    ]


def random_typed_condition(rng, schema, types, depth=2):
    """A condition whose comparisons are type-consistent.

    Ordered comparisons stay within the numeric group (int/float/bool)
    or within text; cross-group equality is generated occasionally — it
    is false on every backend, but exercises SQLite's affinity rules.
    """
    roll = rng.random()
    if depth > 0 and roll < 0.2:
        return Logic(
            rng.choice(["and", "or"]),
            random_typed_condition(rng, schema, types, depth - 1),
            random_typed_condition(rng, schema, types, depth - 1),
        )
    if depth > 0 and roll < 0.3:
        return Not(random_typed_condition(rng, schema, types, depth - 1))
    if roll < 0.4:
        return IsNull(Attr(rng.choice(schema.attributes)))
    numeric = _columns_of_group(schema, types, "numeric")
    text = _columns_of_group(schema, types, "text")
    if roll < 0.5 and numeric and text:
        # Cross-group equality: False everywhere, adversarial for
        # SQLite's storage-class comparison rules.
        return Cmp(
            rng.choice(_EQUALITY_OPS),
            Attr(rng.choice(numeric)),
            Attr(rng.choice(text)),
        )
    group = "text" if (text and (not numeric or rng.random() < 0.3)) else "numeric"
    columns = text if group == "text" else numeric
    attribute = rng.choice(columns)
    ctype = types[schema.index_of(attribute)]
    if rng.random() < 0.5:
        right = Attr(rng.choice(columns))
    else:
        right = Const(random_value(rng, ctype, null_pct=0.1))
    return Cmp(rng.choice(_ORDERED_OPS), Attr(attribute), right)


def random_set_expression(rng, schema, types, attribute, depth=1):
    """A Set expression producing the attribute's value domain."""
    ctype = types[schema.index_of(attribute)]
    same_type = [
        a for a, t in zip(schema.attributes, types) if t == ctype and a != "k"
    ]
    roll = rng.random()
    if roll < 0.25:
        return Const(random_value(rng, ctype, null_pct=0.15))
    if roll < 0.45 and same_type:
        return Attr(rng.choice(same_type))
    if depth > 0 and roll < 0.6:
        return If(
            random_typed_condition(rng, schema, types, depth=1),
            random_set_expression(rng, schema, types, attribute, depth - 1),
            random_set_expression(rng, schema, types, attribute, depth - 1),
        )
    if ctype in ("int", "float"):
        op = rng.choice(["+", "-", "*", "/"])
        constant = (
            rng.randint(-3, 3) if ctype == "int" else round(rng.uniform(-3, 3), 2)
        )
        # x/0 on purpose: NULL on every backend.
        return Arith(op, Attr(attribute), Const(constant))
    if ctype == "bool" and same_type:
        return Cmp(
            rng.choice(_EQUALITY_OPS),
            Attr(rng.choice(same_type)),
            Attr(rng.choice(same_type)),
        )
    return Const(random_value(rng, ctype, null_pct=0.15))


class _KeyCounter:
    """Fresh insert keys, disjoint from the base rows' 0..rows-1 range."""

    def __init__(self, start: int = 1000) -> None:
        self._next = start

    def take(self) -> int:
        self._next += 1
        return self._next


def random_statement(
    rng, relation, schema, types, keys, *, allow_insert_query=False,
    sibling=None,
):
    roll = rng.random()
    if roll < 0.45:
        updatable = [a for a in schema.attributes if a != "k"]
        if updatable:
            sets = {}
            for attribute in rng.sample(
                updatable, rng.randint(1, min(2, len(updatable)))
            ):
                sets[attribute] = random_set_expression(
                    rng, schema, types, attribute
                )
            return UpdateStatement(
                relation, sets, random_typed_condition(rng, schema, types)
            )
        roll = 0.5
    if roll < 0.65:
        return DeleteStatement(
            relation, random_typed_condition(rng, schema, types)
        )
    if allow_insert_query and sibling is not None and roll < 0.75:
        query = RelScan(sibling)
        if rng.random() < 0.6:
            query = Select(
                query, random_typed_condition(rng, schema, types)
            )
        if rng.random() < 0.3:
            query = Project(
                query, tuple((Attr(a), a) for a in schema.attributes)
            )
        return InsertQuery(relation, query)
    values = [keys.take()]
    for ctype in types[1:]:
        values.append(random_value(rng, ctype))
    return InsertTuple(relation, tuple(values))


def random_history(
    rng, db, types_by_name, *, length=None, allow_insert_query=False
):
    """A history over R (occasionally touching S), with fresh insert keys."""
    length = length or rng.randint(2, 6)
    keys = _KeyCounter()
    statements = []
    for _ in range(length):
        relation = "R" if rng.random() < 0.8 else "S"
        statements.append(
            random_statement(
                rng,
                relation,
                db.schema_of(relation),
                types_by_name[relation],
                keys,
                allow_insert_query=allow_insert_query,
                sibling="S" if relation == "R" else "R",
            )
        )
    return History.of(*statements)


def random_modification(rng, db, types_by_name, history):
    """One Replace / delete-statement / insert-statement modification."""
    position = rng.randint(1, len(history))
    roll = rng.random()
    if roll < 0.2:
        return DeleteStatementMod(position)
    target = history[position].relation
    # Replacement inserts get their own key range, disjoint from the
    # history's, so histories stay key-preserving on both sides.
    keys = _KeyCounter(start=2000)
    replacement = random_statement(
        rng,
        target,
        db.schema_of(target),
        types_by_name[target],
        keys,
    )
    if roll < 0.4:
        return InsertStatementMod(position, replacement)
    return Replace(position, replacement)


def random_hwq(rng, *, rows=10, allow_insert_query=False):
    """A complete what-if query: database, history, one modification."""
    db, types_by_name = random_typed_database(rng, rows=rows)
    history = random_history(
        rng, db, types_by_name, allow_insert_query=allow_insert_query
    )
    modification = random_modification(rng, db, types_by_name, history)
    return HistoricalWhatIfQuery(history, db, (modification,))


def random_hwq_batch(rng, *, size=4, rows=10):
    """A batched replay: one shared database and history, ``size``
    random modifications — the shape :meth:`Mahif.answer_batch`
    amortizes (shared time travel, shared reenactment plans).

    The last query duplicates the first one's modification, so every
    generated batch exercises the shared-plan cache hit path, not just
    the miss path.
    """
    db, types_by_name = random_typed_database(rng, rows=rows)
    history = random_history(rng, db, types_by_name)
    queries = [
        HistoricalWhatIfQuery(
            history,
            db,
            (random_modification(rng, db, types_by_name, history),),
        )
        for _ in range(max(1, size - 1))
    ]
    queries.append(
        HistoricalWhatIfQuery(history, db, queries[0].modifications)
    )
    return queries


def fresh_rng(offset=0):
    return random.Random(FUZZ_SEED + offset)


# -- store-codec value fuzzing ------------------------------------------------
#
# The history-store codec promises *exact* round trips — bool is not 1,
# 1 is not 1.0, and the non-finite floats survive — so its property fuzz
# draws from a wider, nastier value pool than the backend-differential
# generators (which keep values well-typed for all four backends).

SPECIAL_FLOATS = (
    float("inf"), float("-inf"), float("nan"), -0.0, 1e308, 5e-324
)


def random_codec_value(rng):
    """Any scalar the store codec must round-trip exactly."""
    roll = rng.random()
    if roll < 0.10:
        return None
    if roll < 0.25:
        return rng.random() < 0.5
    if roll < 0.45:
        return rng.randint(-10**9, 10**9)
    if roll < 0.55:
        return float(rng.randint(-50, 50))  # int-valued float, not int
    if roll < 0.70:
        return rng.choice(SPECIAL_FLOATS)
    if roll < 0.85:
        return round(rng.uniform(-1e3, 1e3), 6)
    return rng.choice(STRINGS)


def random_codec_expr(rng, attributes, depth=2):
    """An expression tree over arbitrary codec values (type soundness is
    irrelevant here: the codec round-trips structure, never evaluates)."""
    roll = rng.random()
    if depth > 0 and roll < 0.15:
        return Arith(
            rng.choice(["+", "-", "*", "/"]),
            random_codec_expr(rng, attributes, depth - 1),
            random_codec_expr(rng, attributes, depth - 1),
        )
    if depth > 0 and roll < 0.30:
        return Cmp(
            rng.choice(_ORDERED_OPS),
            random_codec_expr(rng, attributes, depth - 1),
            random_codec_expr(rng, attributes, depth - 1),
        )
    if depth > 0 and roll < 0.40:
        return Logic(
            rng.choice(["and", "or"]),
            random_codec_expr(rng, attributes, depth - 1),
            random_codec_expr(rng, attributes, depth - 1),
        )
    if depth > 0 and roll < 0.50:
        return Not(random_codec_expr(rng, attributes, depth - 1))
    if depth > 0 and roll < 0.60:
        return If(
            random_codec_expr(rng, attributes, depth - 1),
            random_codec_expr(rng, attributes, depth - 1),
            random_codec_expr(rng, attributes, depth - 1),
        )
    if roll < 0.75:
        return IsNull(Attr(rng.choice(attributes)))
    if rng.random() < 0.5:
        return Attr(rng.choice(attributes))
    return Const(random_codec_value(rng))


def random_codec_statement(rng, relation="R", attributes=("k", "c0", "c1")):
    """A statement carrying codec-corner values in every slot."""
    attributes = tuple(attributes)
    roll = rng.random()
    if roll < 0.35:
        sets = {
            attribute: random_codec_expr(rng, attributes)
            for attribute in rng.sample(
                attributes, rng.randint(1, len(attributes))
            )
        }
        return UpdateStatement(
            relation, sets, random_codec_expr(rng, attributes)
        )
    if roll < 0.6:
        return DeleteStatement(
            relation, random_codec_expr(rng, attributes)
        )
    if roll < 0.8:
        return InsertTuple(
            relation,
            tuple(random_codec_value(rng) for _ in attributes),
        )
    query = RelScan("S")
    if rng.random() < 0.7:
        query = Select(query, random_codec_expr(rng, attributes))
    if rng.random() < 0.4:
        query = Project(
            query,
            tuple(
                (random_codec_expr(rng, attributes, depth=1), a)
                for a in attributes
            ),
        )
    return InsertQuery(relation, query)


def random_codec_rows(rng, arity, rows):
    """Row tuples mixing every codec value kind (NaN/±Inf included)."""
    return [
        tuple(random_codec_value(rng) for _ in range(arity))
        for _ in range(rows)
    ]
