"""Additional property-based tests: parser round-trips, optimizer
equivalence, presolver agreement with the exact case split."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database, History, Relation, Schema
from repro.core.reenactment import reenactment_query
from repro.relational.algebra import evaluate_query
from repro.relational.expressions import (
    Arith,
    Attr,
    Cmp,
    Const,
    If,
    Logic,
    Not,
    and_,
    col,
    evaluate,
    ge,
    le,
    lit,
    to_string,
)
from repro.relational.optimizer import OptimizerConfig, optimize
from repro.relational.parser import parse_expression
from repro.relational.statements import DeleteStatement, UpdateStatement
from repro.solver import (
    case_split,
    interval_presolve,
    IntervalOutcome,
)

SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SCHEMA = Schema.of("k", "P", "F")

# -- expression strategies ---------------------------------------------------

numbers = st.integers(min_value=-50, max_value=50)
attr_names = st.sampled_from(["P", "F", "k"])


@st.composite
def numeric_exprs(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return Attr(draw(attr_names))
        return Const(draw(numbers))
    op = draw(st.sampled_from(["+", "-", "*"]))
    return Arith(
        op,
        draw(numeric_exprs(depth=depth - 1)),
        draw(numeric_exprs(depth=depth - 1)),
    )


@st.composite
def conditions(draw, depth=2):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        return Cmp(op, draw(numeric_exprs(depth=1)), draw(numeric_exprs(depth=1)))
    kind = draw(st.sampled_from(["and", "or", "not"]))
    if kind == "not":
        return Not(draw(conditions(depth=depth - 1)))
    return Logic(
        kind,
        draw(conditions(depth=depth - 1)),
        draw(conditions(depth=depth - 1)),
    )


class TestParserRoundTrip:
    @SETTINGS
    @given(conditions())
    def test_condition_roundtrip_preserves_semantics(self, condition):
        """parse(render(e)) evaluates identically to e."""
        rendered = to_string(condition)
        reparsed = parse_expression(rendered)
        for p in (-10, 0, 25):
            for f in (0, 7):
                binding = {"P": p, "F": f, "k": 1}
                assert evaluate(reparsed, binding) == evaluate(
                    condition, binding
                )

    @SETTINGS
    @given(numeric_exprs())
    def test_numeric_roundtrip(self, expr):
        reparsed = parse_expression(to_string(expr))
        for p in (-3, 0, 9):
            binding = {"P": p, "F": 2, "k": 5}
            assert evaluate(reparsed, binding) == evaluate(expr, binding)


class TestOptimizerEquivalence:
    @SETTINGS
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["P", "F"]),
                st.integers(-5, 5),
                st.integers(0, 80),
                st.integers(0, 40),
            ),
            min_size=1,
            max_size=5,
        ),
        st.lists(
            st.tuples(st.integers(1, 20), st.integers(0, 99), st.integers(0, 99)),
            min_size=0,
            max_size=8,
            unique_by=lambda t: t[0],
        ),
    )
    def test_optimized_reenactment_equivalent(self, updates, raw_rows):
        statements = [
            UpdateStatement(
                "R",
                {target: col(target) + delta},
                and_(ge(col("P"), low), le(col("P"), low + width)),
            )
            for target, delta, low, width in updates
        ]
        history = History(tuple(statements))
        query = reenactment_query(history, "R", {"R": SCHEMA})
        db = Database({"R": Relation.from_rows(SCHEMA, raw_rows)})
        plain = evaluate_query(query, db)
        optimized = evaluate_query(optimize(query), db)
        assert set(plain) == set(optimized)

    @SETTINGS
    @given(conditions())
    def test_optimizer_handles_arbitrary_selections(self, condition):
        from repro.relational.algebra import RelScan, Select

        db = Database(
            {"R": Relation.from_rows(SCHEMA, [(1, 10, 0), (2, 50, 9)])}
        )
        query = Select(RelScan("R"), condition)
        assert set(evaluate_query(optimize(query), db)) == set(
            evaluate_query(query, db)
        )


class TestPresolverAgreement:
    @SETTINGS
    @given(conditions(depth=2))
    def test_presolver_never_contradicts_the_split(self, condition):
        """When both steps give verdicts, they must agree (UNKNOWN from
        either side is fine).  The split expands no DNF and meets no
        boxes, so it checks the presolver by another route."""
        outcome = interval_presolve(condition)
        if outcome is IntervalOutcome.UNKNOWN:
            return
        split, _ = case_split(condition)
        if split is IntervalOutcome.UNKNOWN:
            return
        assert outcome is split
