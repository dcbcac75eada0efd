"""Database compression tests (Section 8.3.1).

The key invariant (used by Theorem 4): every tuple of the input relation
satisfies Φ_D, i.e. the compressed worlds over-approximate the database.
"""

import gc

import pytest

from repro import Relation, Schema
from repro.relational.expressions import (
    TRUE,
    Const,
    and_,
    disjuncts_of,
    eq,
    evaluate,
    ge,
    le,
    or_,
)
from repro.symbolic import compress
from repro.symbolic.compress import (
    CompressionConfig,
    compress_relation,
    constraint_admits_all,
)
from repro.symbolic.vctable import SymbolicTuple

from fuzz_differential import (
    fresh_rng,
    random_relation,
    random_typed_schema,
    scaled,
)

SCHEMA = Schema.of("Country", "ID", "Price", "Fee")

ROWS = [
    ("UK", 11, 20, 5),
    ("UK", 12, 50, 5),
    ("US", 13, 60, 3),
    ("US", 14, 30, 4),
]


@pytest.fixture
def relation():
    return Relation.from_rows(SCHEMA, ROWS)


@pytest.fixture
def symbolic_tuple():
    return SymbolicTuple.fresh(SCHEMA, prefix="x")


class TestCompression:
    def test_single_group_ranges(self, relation, symbolic_tuple):
        phi = compress_relation(relation, symbolic_tuple)
        # the box [20..60] x [3..5] with countries {UK, US}
        assert evaluate(
            phi, {"x_Country": "UK", "x_ID": 11, "x_Price": 20, "x_Fee": 5}
        )
        assert not evaluate(
            phi, {"x_Country": "UK", "x_ID": 11, "x_Price": 500, "x_Fee": 5}
        )

    def test_soundness_invariant(self, relation, symbolic_tuple):
        for config in (
            CompressionConfig(),
            CompressionConfig(group_by="Country"),
            CompressionConfig(group_by="Price", num_groups=2),
            CompressionConfig(group_by="Price", num_groups=4),
        ):
            phi = compress_relation(relation, symbolic_tuple, config)
            assert constraint_admits_all(phi, relation, symbolic_tuple)

    def test_paper_example7_group_by_country(self, relation, symbolic_tuple):
        """Example 7: grouping on Country yields two disjuncts with the
        ranges Price∈[20,50] (UK) and Price∈[30,60] (US)."""
        phi = compress_relation(
            relation, symbolic_tuple, CompressionConfig(group_by="Country")
        )
        groups = disjuncts_of(phi)
        assert len(groups) == 2
        # UK group admits price 35, US group does not admit price 20
        uk = {"x_Country": "UK", "x_ID": 11, "x_Price": 35, "x_Fee": 5}
        assert evaluate(phi, uk)
        bad_us = {"x_Country": "US", "x_ID": 13, "x_Price": 20, "x_Fee": 3}
        assert not evaluate(phi, bad_us)

    def test_tighter_than_single_box(self, relation, symbolic_tuple):
        """Grouping excludes worlds the single box admits."""
        box = compress_relation(relation, symbolic_tuple)
        grouped = compress_relation(
            relation, symbolic_tuple, CompressionConfig(group_by="Country")
        )
        # (US, price 25) is inside the box but outside the US group range
        world = {"x_Country": "US", "x_ID": 13, "x_Price": 25, "x_Fee": 4}
        assert evaluate(box, world)
        assert not evaluate(grouped, world)

    def test_numeric_group_by_quantiles(self, relation, symbolic_tuple):
        phi = compress_relation(
            relation,
            symbolic_tuple,
            CompressionConfig(group_by="Price", num_groups=2),
        )
        assert len(disjuncts_of(phi)) == 2
        assert constraint_admits_all(phi, relation, symbolic_tuple)

    def test_empty_relation_compresses_to_true(self, symbolic_tuple):
        phi = compress_relation(Relation.empty(SCHEMA), symbolic_tuple)
        assert phi == TRUE

    def test_high_cardinality_strings_omitted(self, symbolic_tuple):
        rows = [(f"company-{i}", i, i, i) for i in range(50)]
        relation = Relation.from_rows(SCHEMA, rows)
        phi = compress_relation(
            relation, symbolic_tuple, CompressionConfig(max_distinct=10)
        )
        # Country must be unconstrained: any string value admitted
        assert evaluate(
            phi, {"x_Country": "unseen", "x_ID": 5, "x_Price": 5, "x_Fee": 5}
        )

    def test_constant_attribute_becomes_equality(self, symbolic_tuple):
        rows = [("UK", 1, 7, 7), ("UK", 2, 7, 9)]
        relation = Relation.from_rows(SCHEMA, rows)
        phi = compress_relation(relation, symbolic_tuple)
        assert not evaluate(
            phi, {"x_Country": "UK", "x_ID": 1, "x_Price": 8, "x_Fee": 8}
        )

    def test_null_values_skipped(self, symbolic_tuple):
        rows = [("UK", 1, None, 5), ("US", 2, 30, None)]
        relation = Relation.from_rows(SCHEMA, rows)
        phi = compress_relation(relation, symbolic_tuple)
        # price constrained by the single non-null value
        assert evaluate(
            phi, {"x_Country": "UK", "x_ID": 1, "x_Price": 30, "x_Fee": 5}
        )


# -- the column-wise scan against the row-dict reference --------------------


def _reference_compress(relation, symbolic_tuple, config):
    """The row-at-a-time implementation ``compress_relation`` replaced
    (one ``dict`` per row, ``all(isinstance(...))`` per value), kept as
    the oracle for the column-wise scan."""
    rows = [relation.schema.as_dict(t) for t in relation]
    if not rows:
        return TRUE
    if config.group_by is None:
        groups = [rows]
    else:
        attribute = config.group_by
        sample = rows[0].get(attribute)
        if isinstance(sample, str) or isinstance(sample, bool):
            buckets = {}
            for row in rows:
                buckets.setdefault(row[attribute], []).append(row)
            groups = list(buckets.values())
        else:
            ordered = sorted(
                rows, key=lambda r: (r[attribute] is None, r[attribute])
            )
            n = max(1, config.num_groups)
            size = max(1, (len(ordered) + n - 1) // n)
            groups = [
                ordered[i : i + size] for i in range(0, len(ordered), size)
            ]
    disjuncts = []
    for group in groups:
        conjuncts = []
        for attribute in relation.schema:
            var = symbolic_tuple[attribute]
            values = [
                row[attribute] for row in group if row[attribute] is not None
            ]
            if not values:
                continue
            if all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in values
            ):
                low, high = min(values), max(values)
                if low == high:
                    conjuncts.append(eq(var, low))
                else:
                    conjuncts.append(and_(ge(var, low), le(var, high)))
            elif all(isinstance(v, str) for v in values):
                distinct = sorted(set(values))
                if len(distinct) <= config.max_distinct:
                    conjuncts.append(or_(*[eq(var, v) for v in distinct]))
        disjuncts.append(and_(*conjuncts) if conjuncts else TRUE)
    return or_(*disjuncts) if disjuncts else TRUE


def _random_compress_case(rng):
    """A typed relation (ints, floats, bools, strings, NULLs, sometimes an
    int/float-mixed and an int/str-mixed column) and one of the three
    groupings: none, quantiles of a numeric column, one group per value
    of a string or bool column."""
    schema, types = random_typed_schema(rng, max_extra=4)
    rows = [
        list(t)
        for t in random_relation(rng, schema, types, rng.randint(1, 40))
    ]
    attributes = list(schema.attributes)
    if rng.random() < 0.4:
        attributes.append("mixed_numeric")
        for row in rows:
            row.append(rng.choice((rng.randint(-5, 5), rng.uniform(-5, 5))))
    if rng.random() < 0.4:
        attributes.append("mixed_kinds")
        for row in rows:
            row.append(rng.choice((rng.randint(-5, 5), "x", True, None)))
    relation = Relation.from_rows(Schema(tuple(attributes)), rows)
    by_kind = {
        "quantiles": [
            a for a, t in zip(schema, types) if t in ("int", "float")
        ],
        "per_value": [
            a for a, t in zip(schema, types) if t in ("str", "bool")
        ],
    }
    kind = rng.choice(("none", "quantiles", "per_value"))
    group_by = rng.choice(by_kind[kind]) if by_kind.get(kind) else None
    config = CompressionConfig(
        group_by=group_by,
        num_groups=rng.randint(1, 5),
        max_distinct=rng.choice((2, 4, 12)),
    )
    return relation, config, kind if group_by else "none"


def test_columnwise_scan_equals_the_row_dict_reference():
    """Φ_D from the column-wise scan is structurally equal — constant
    types included, which ``==`` alone would not see (``1 == True``) —
    to the row-dict reference over the typed fuzz generators and all
    three groupings, and admits every row it can (a NULL satisfies no
    range atom, in either implementation)."""
    rng = fresh_rng(offset=1717)
    seen = set()
    for _ in range(scaled(300)):
        relation, config, kind = _random_compress_case(rng)
        seen.add(kind)
        symbolic = SymbolicTuple.fresh(relation.schema, prefix="x")
        expected = _reference_compress(relation, symbolic, config)
        actual = compress_relation(relation, symbolic, config)
        assert actual == expected, (relation, config)
        assert repr(actual) == repr(expected), (relation, config)
        if "mixed_kinds" in relation.schema:
            # one group's range over the ints cannot be *evaluated* on
            # another group's string: an error, not a verdict
            continue
        null_free = Relation(
            relation.schema,
            frozenset(t for t in relation if None not in t),
        )
        assert constraint_admits_all(actual, null_free, symbolic)
    assert seen == {"none", "quantiles", "per_value"}


def test_phi_d_is_remembered_on_the_relation_and_dies_with_it():
    """Same relation object, symbolic tuple and config: the same Φ_D
    object back; another config or an equal-but-distinct relation: its
    own.  Dropping the relation drops the memo's entry."""
    relation = Relation.from_rows(SCHEMA, ROWS)
    symbolic = SymbolicTuple.fresh(SCHEMA, prefix="x")
    gc.collect()  # earlier tests' garbage must not count as the start
    entries = len(compress._PHI_D)
    whole = compress_relation(relation, symbolic)
    assert compress_relation(relation, symbolic) is whole
    assert compress_relation(relation, symbolic, CompressionConfig()) is whole
    grouped = compress_relation(
        relation, symbolic, CompressionConfig(group_by="Country")
    )
    assert grouped != whole
    other_tuple = SymbolicTuple.fresh(SCHEMA, prefix="y")
    assert compress_relation(relation, other_tuple) != whole
    twin = Relation.from_rows(SCHEMA, ROWS)
    assert compress_relation(twin, symbolic) is not whole
    assert compress_relation(twin, symbolic) == whole
    assert len(compress._PHI_D) == entries + 2
    del relation, twin
    gc.collect()
    assert len(compress._PHI_D) == entries


def test_unhashable_symbolic_tuple_is_compressed_without_the_memo():
    relation = Relation.from_rows(Schema.of("a"), [(1,), (3,)])
    unhashable = SymbolicTuple({"a": Const([0])})
    phi = compress_relation(relation, unhashable)
    assert phi == and_(ge(Const([0]), 1), le(Const([0]), 3))
    assert id(relation) not in compress._PHI_D._entries
