"""Unit tests for the expression language (Figure 7)."""

import pytest

from fuzz_differential import (
    fresh_rng,
    random_set_expression,
    random_typed_condition,
    random_typed_database,
    scaled,
)
from repro.relational.expressions import (
    Arith,
    Attr,
    Cmp,
    Const,
    EvaluationError,
    FALSE,
    If,
    IsNull,
    Logic,
    Not,
    TRUE,
    Var,
    and_,
    attributes_of,
    conjuncts_of,
    disjuncts_of,
    eq,
    evaluate,
    expr_size,
    ge,
    gt,
    if_,
    le,
    lit,
    lt,
    neq,
    not_,
    or_,
    rename_attributes,
    simplify,
    substitute,
    substitute_attributes,
    substitute_variables,
    to_string,
    transform,
    variables_of,
    is_condition,
    col,
    _simplify_node,
)


class TestConstruction:
    def test_const_rejects_nested_expression(self):
        with pytest.raises(TypeError):
            Const(Attr("x"))

    def test_arith_rejects_unknown_operator(self):
        with pytest.raises(ValueError):
            Arith("%", lit(1), lit(2))

    def test_cmp_rejects_unknown_operator(self):
        with pytest.raises(ValueError):
            Cmp("~", lit(1), lit(2))

    def test_logic_rejects_unknown_operator(self):
        with pytest.raises(ValueError):
            Logic("xor", TRUE, FALSE)

    def test_operator_overloads_build_nodes(self):
        expr = col("a") + 1
        assert expr == Arith("+", Attr("a"), Const(1))
        assert (col("a") * 2).op == "*"
        assert (3 - col("a")).left == Const(3)

    def test_nary_helpers(self):
        assert and_() == TRUE
        assert or_() == FALSE
        assert and_(TRUE) == TRUE
        three = and_(eq(col("a"), 1), eq(col("b"), 2), eq(col("c"), 3))
        assert len(conjuncts_of(three)) == 3


class TestEvaluation:
    def test_constant(self):
        assert evaluate(lit(5)) == 5

    def test_attribute_lookup(self):
        assert evaluate(col("a"), {"a": 7}) == 7

    def test_unbound_reference_raises(self):
        with pytest.raises(EvaluationError):
            evaluate(col("missing"), {})

    def test_var_lookup(self):
        assert evaluate(Var("x"), {"x": 3}) == 3

    @pytest.mark.parametrize(
        "op,expected", [("+", 9), ("-", 5), ("*", 14), ("/", 3.5)]
    )
    def test_arithmetic(self, op, expected):
        assert evaluate(Arith(op, lit(7), lit(2))) == expected

    def test_division_by_zero_is_null(self):
        assert evaluate(Arith("/", lit(1), lit(0))) is None

    def test_null_propagates_through_arithmetic(self):
        assert evaluate(Arith("+", lit(None), lit(2))) is None

    @pytest.mark.parametrize(
        "op,expected",
        [("=", False), ("!=", True), ("<", True), ("<=", True),
         (">", False), (">=", False)],
    )
    def test_comparisons(self, op, expected):
        assert evaluate(Cmp(op, lit(1), lit(2))) is expected

    def test_null_comparison_is_false(self):
        assert evaluate(eq(lit(None), lit(None))) is False
        assert evaluate(lt(lit(None), lit(5))) is False

    def test_incomparable_types_raise(self):
        with pytest.raises(EvaluationError):
            evaluate(lt(lit("a"), lit(1)))

    def test_logic_and_or_not(self):
        assert evaluate(and_(TRUE, TRUE)) is True
        assert evaluate(and_(TRUE, FALSE)) is False
        assert evaluate(or_(FALSE, TRUE)) is True
        assert evaluate(not_(FALSE)) is True

    def test_isnull(self):
        assert evaluate(IsNull(lit(None))) is True
        assert evaluate(IsNull(lit(0))) is False

    def test_conditional(self):
        expr = if_(gt(col("a"), 0), lit("pos"), lit("neg"))
        assert evaluate(expr, {"a": 5}) == "pos"
        assert evaluate(expr, {"a": -5}) == "neg"

    def test_string_equality(self):
        assert evaluate(eq(col("c"), "UK"), {"c": "UK"}) is True
        assert evaluate(eq(col("c"), "UK"), {"c": "US"}) is False


class TestStructure:
    def test_attributes_of(self):
        expr = and_(eq(col("a"), col("b")), gt(col("a") + Var("v"), 1))
        assert attributes_of(expr) == {"a", "b"}
        assert variables_of(expr) == {"v"}

    def test_expr_size(self):
        assert expr_size(lit(1)) == 1
        assert expr_size(eq(col("a"), 1)) == 3

    def test_substitute_structural(self):
        expr = eq(col("a") + 1, col("b"))
        result = substitute(expr, {Attr("a"): Const(10)})
        assert evaluate(result, {"b": 11}) is True

    def test_substitute_is_simultaneous(self):
        # a -> b and b -> a must swap, not chain
        expr = Arith("+", col("a"), col("b"))
        result = substitute(expr, {Attr("a"): Attr("b"), Attr("b"): Attr("a")})
        assert result == Arith("+", Attr("b"), Attr("a"))

    def test_substitute_attributes(self):
        expr = ge(col("Fee"), 10)
        replaced = substitute_attributes(
            expr, {"Fee": if_(ge(col("P"), 50), lit(0), col("Fee"))}
        )
        assert evaluate(replaced, {"P": 60, "Fee": 99}) is False
        assert evaluate(replaced, {"P": 10, "Fee": 12}) is True

    def test_substitution_is_by_name_and_by_kind(self):
        expr = Arith("+", Attr("A"), Var("A"))
        assert substitute_attributes(expr, {"A": Const(1)}) == Arith(
            "+", Const(1), Var("A")
        )
        assert substitute_variables(expr, {"A": Const(1)}) == Arith(
            "+", Attr("A"), Const(1)
        )

    def test_substitution_keeps_what_it_does_not_touch(self):
        """An empty mapping, and a mapping that names nothing in the
        expression, return the same object; a subtree without a match
        is shared with the input."""
        expr = and_(ge(col("a"), 1), le(col("b"), 2))
        for substitute_by_name in (substitute_attributes, substitute_variables):
            assert substitute_by_name(expr, {}) is expr
            assert substitute_by_name(expr, {"z": Const(0)}) is expr
        replaced = substitute_attributes(expr, {"a": col("c")})
        assert replaced.right is expr.right and replaced != expr
        # a replacement is not rewritten further
        assert substitute_attributes(col("a"), {"a": col("b"), "b": col("c")}) == col("b")

    def test_by_name_substitution_equals_structural(self):
        """The by-name walk against ``substitute`` with ``Attr`` /
        ``Var`` keys, over the differential fuzz's typed conditions and
        set expressions (NULL constants included)."""
        rng = fresh_rng(offset=84)
        for trial in range(scaled(300)):
            db, types_by_name = random_typed_database(rng, rows=1)
            schema, types = db.schema_of("R"), types_by_name["R"]
            expr = random_typed_condition(rng, schema, types, depth=3)
            mapping = {
                attribute: random_set_expression(rng, schema, types, attribute)
                for attribute in schema.attributes
                if rng.random() < 0.6
            }
            assert substitute_attributes(expr, mapping) == substitute(
                expr, {Attr(n): r for n, r in mapping.items()}
            ), trial
            as_variables = substitute_attributes(
                expr, {a: Var(a) for a in schema.attributes}
            )
            assert substitute_variables(as_variables, mapping) == substitute(
                as_variables, {Var(n): r for n, r in mapping.items()}
            ), trial

    def test_rename_attributes(self):
        expr = eq(col("a"), col("b"))
        renamed = rename_attributes(expr, {"a": "x"})
        assert attributes_of(renamed) == {"x", "b"}

    def test_conjuncts_and_disjuncts(self):
        e = or_(eq(col("a"), 1), eq(col("a"), 2))
        assert len(disjuncts_of(e)) == 2
        assert disjuncts_of(lit(True)) == [TRUE]

    def test_is_condition(self):
        assert is_condition(eq(col("a"), 1))
        assert is_condition(TRUE)
        assert not is_condition(lit(5))
        assert not is_condition(col("a") + 1)


class TestSimplify:
    def test_constant_folding(self):
        assert simplify(Arith("+", lit(2), lit(3))) == Const(5)
        assert simplify(eq(lit(2), lit(2))) == TRUE

    def test_boolean_absorption(self):
        phi = gt(col("a"), 1)
        assert simplify(and_(phi, TRUE)) == phi
        assert simplify(and_(phi, FALSE)) == FALSE
        assert simplify(or_(phi, FALSE)) == phi
        assert simplify(or_(phi, TRUE)) == TRUE

    def test_idempotence(self):
        phi = gt(col("a"), 1)
        assert simplify(and_(phi, phi)) == phi
        assert simplify(or_(phi, phi)) == phi

    def test_double_negation(self):
        phi = gt(col("a"), 1)
        assert simplify(not_(not_(phi))) == phi

    def test_negated_comparison_is_not_flipped(self):
        # NOT (a < 1) and (a >= 1) differ on NULL under the two-valued
        # logic (True vs False), so the simplifier must keep the Not
        # node (fuzzer regression).
        assert simplify(not_(lt(col("a"), 1))) == not_(lt(col("a"), 1))
        assert evaluate(not_(lt(col("a"), 1)), {"a": None}) is True
        assert evaluate(ge(col("a"), 1), {"a": None}) is False

    def test_conditional_folding(self):
        assert simplify(if_(TRUE, col("a"), col("b"))) == col("a")
        assert simplify(if_(FALSE, col("a"), col("b"))) == col("b")
        assert simplify(if_(gt(col("x"), 0), col("a"), col("a"))) == col("a")

    def test_arithmetic_identities(self):
        assert simplify(col("a") + 0) == col("a")
        assert simplify(col("a") * 1) == col("a")
        # x * 0 must NOT fold to 0: NULL * 0 is NULL (fuzzer regression).
        assert simplify(col("a") * 0) == col("a") * 0
        assert evaluate(simplify(col("a") * 0), {"a": None}) is None

    def test_reflexive_comparison(self):
        # x = x must NOT fold to TRUE: it is false for a NULL operand
        # under the two-valued logic (fuzzer regression; a reenacted
        # DELETE WHERE c = c must keep NULL rows, like NAIVE does).
        assert simplify(eq(col("a"), col("a"))) == eq(col("a"), col("a"))
        assert evaluate(eq(col("a"), col("a")), {"a": None}) is False
        # x != x / x < x stay foldable: false for NULL operands too.
        assert simplify(neq(col("a"), col("a"))) == FALSE
        assert simplify(lt(col("a"), col("a"))) == FALSE

    def test_one_pass_is_the_fixpoint(self):
        """``simplify``'s invariant, over the differential fuzz's typed
        conditions and set expressions (NULL constants included): a
        second pass — whole, or one more ``transform`` — returns the very
        object the first one did."""
        rng = fresh_rng(offset=85)
        for trial in range(scaled(300)):
            db, types_by_name = random_typed_database(rng, rows=1)
            schema, types = db.schema_of("R"), types_by_name["R"]
            for expr in (
                random_typed_condition(rng, schema, types, depth=4),
                random_set_expression(
                    rng, schema, types, rng.choice(schema.attributes)
                ),
            ):
                simple = simplify(expr)
                assert simplify(simple) is simple, trial
                assert transform(simple, _simplify_node) is simple, trial

    def test_transform_keeps_what_no_rule_touches(self):
        expr = and_(gt(col("a"), 1), or_(col("b") + col("c"), not_(col("d"))))
        assert transform(expr, lambda node: None) is expr
        assert simplify(expr) is expr
        # a rule that fires hands back the processed child itself
        assert simplify(and_(expr, TRUE)) is expr

    def test_simplify_preserves_semantics(self):
        expr = and_(
            or_(gt(col("a"), 1), FALSE),
            not_(not_(le(col("b"), col("a") + 0))),
        )
        simplified = simplify(expr)
        for a in (0, 1, 2):
            for b in (0, 2, 5):
                binding = {"a": a, "b": b}
                assert evaluate(expr, binding) == evaluate(
                    simplified, binding
                )


class TestRendering:
    def test_string_literal_escaping(self):
        assert to_string(lit("O'Hare")) == "'O''Hare'"

    def test_null_and_booleans(self):
        assert to_string(lit(None)) == "NULL"
        assert to_string(TRUE) == "true"

    def test_case_rendering(self):
        rendered = to_string(if_(ge(col("P"), 50), lit(0), col("F")))
        assert rendered.startswith("CASE WHEN")
        assert "ELSE" in rendered and rendered.endswith("END")

    def test_neq_renders_as_sql_diamond(self):
        assert "<>" in to_string(neq(col("a"), 1))
