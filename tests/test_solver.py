"""Solver front end tests: the interval presolver plus the exact case
split behind ``check_satisfiable``, cross-validated against brute-force
enumeration."""

import itertools
import random
from fractions import Fraction

import pytest
from fuzz_differential import FUZZ_SEED, scaled
from test_solver_session import random_definition, random_formula

from repro.relational.expressions import (
    Attr,
    Cmp,
    Const,
    and_,
    attributes_of,
    evaluate,
    variables_of,
)
from repro.relational.parser import parse_expression
from repro.solver import (
    IntervalOutcome,
    case_split,
    check_satisfiable,
    enumerate_satisfying,
    intervals,
    is_satisfiable_bruteforce,
)


class TestCheckSatisfiable:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("x >= 1 AND x <= 2", True),
            ("x >= 3 AND x <= 2", False),
            ("x > 2 AND x < 3", True),       # continuous domain
            ("x = 1 OR x = 2", True),
            ("NOT (x = x)", False),
            ("x + y = 10 AND x - y = 4 AND x = 7", True),
            ("x + y = 10 AND x - y = 4 AND x = 8", False),
            ("CASE WHEN x >= 0 THEN 1 ELSE 2 END = 2 AND x >= 0", False),
            ("x / 2 >= 5 AND x <= 9", False),
            ("2 * x - 1 > 2 AND x < 2", True),
            ("3 - x >= 1 AND x > 2", False),  # a negative coefficient
        ],
    )
    def test_numeric_formulas(self, source, expected):
        result = check_satisfiable(parse_expression(source))
        assert result.is_sat is expected
        assert result.is_unsat is not expected

    def test_witness_satisfies_formula(self):
        formula = parse_expression("x >= 3 AND y = x + 2 AND y <= 6")
        result = check_satisfiable(formula)
        assert result.is_sat
        assert evaluate(formula, result.witness)

    def test_witness_between_strict_bounds(self):
        formula = parse_expression("y = x * 2 AND y > 1 AND y < 2")
        outcome, witness = case_split(formula)
        assert outcome is IntervalOutcome.SAT
        assert evaluate(formula, witness)

    def test_trivial_short_circuits(self):
        assert check_satisfiable(parse_expression("true")).is_sat
        assert check_satisfiable(parse_expression("false")).is_unsat
        assert check_satisfiable(parse_expression("1 <= 2")).is_sat

    @pytest.mark.parametrize(
        "source",
        [
            "a * b = 6 AND a >= 2",   # a product of two variables
            "a < b AND b < a",        # two variables in one atom
            "x + y = 4 AND x >= 3",
            "x IS NULL AND x >= 1",   # NULL tests
            "c < 'UK' AND c > 'US'",  # an order on strings
        ],
    )
    def test_unsupported_returns_unknown(self, source):
        result = check_satisfiable(parse_expression(source))
        assert result.status is IntervalOutcome.UNKNOWN

    def test_string_categorical(self):
        assert check_satisfiable(
            parse_expression("c = 'UK' AND c = 'US'")
        ).is_unsat
        # the boxes answer without a witness; the split gives one
        outcome, witness = case_split(parse_expression("c = 'UK' AND p >= 5"))
        assert outcome is IntervalOutcome.SAT
        assert witness["c"] == "UK"

    def test_definition_inlined_once_its_condition_folds(self):
        formula = parse_expression(
            "d = CASE WHEN x >= 5 THEN x + 1 ELSE 0 END AND d >= 3 AND x < 5"
        )
        assert case_split(formula) == (IntervalOutcome.UNSAT, None)
        formula = parse_expression(
            "d = CASE WHEN x >= 5 THEN x + 1 ELSE 0 END AND d >= 7 AND x < 7"
        )
        outcome, witness = case_split(formula)
        assert outcome is IntervalOutcome.SAT
        assert evaluate(formula, witness)


def _atom(source: str, defined: dict | None = None):
    return intervals._fact(parse_expression(source), defined or {})


def _point(name: str, *sources: str):
    """The witness value the split picks for ``name`` in the box of
    ``sources``."""
    box = intervals._folded([parse_expression(s) for s in sources])
    return intervals._value_in(box, name)


class TestAtomNormalForm:
    """The case split reads each comparison as ``name op constant``
    through affine terms; anything else stays unread (UNKNOWN)."""

    def test_constant_product_is_exact(self):
        assert intervals._affine(parse_expression("a * 3 + 1"), {}) == (
            {"a": Fraction(3)}, Fraction(1),
        )

    @pytest.mark.parametrize(
        "source",
        ["a * b", "a / b", "a / 0", "a + NULL"],
        ids=["product", "division-by-variable", "division-by-zero", "null"],
    )
    def test_non_affine_terms_rejected(self, source):
        assert intervals._affine(parse_expression(source), {}) is None

    def test_defined_name_is_not_free(self):
        defined = {"d": parse_expression("x + 1")}
        assert intervals._affine(Attr("d"), defined) is None
        assert _atom("d >= 1", defined) is None

    def test_null_comparison_unread(self):
        assert intervals._fact(Cmp(">=", Attr("a"), Const(None)), {}) is None

    def test_fractional_bound_stays_exact(self):
        name, op, bound = _atom("3 * x <= 1")
        assert (name, op) == ("x", "<=")
        assert type(bound) is Fraction and bound == Fraction(1, 3)

    def test_integral_bound_is_a_plain_int(self):
        fact = _atom("2 * x - 1 > 3")
        assert fact == ("x", ">", 2) and type(fact[2]) is int

    def test_negative_coefficient_mirrors_the_operator(self):
        assert _atom("3 - x >= 1") == ("x", "<=", 2)

    def test_constant_on_the_left_mirrors_the_operator(self):
        assert _atom("5 < x") == ("x", ">", 5)

    def test_atom_without_a_variable_is_its_truth_value(self):
        assert _atom("x - x + 2 >= 1") is True
        assert _atom("x - x + 2 < 1") is False

    def test_string_atoms(self):
        assert _atom("c = 'UK'") == ("c", "=", "UK")
        assert _atom("'UK' != c") == ("c", "!=", "UK")
        assert _atom("c < 'UK'") is None

    def test_bare_reference_as_condition_unknown(self):
        assert case_split(Attr("a")) == (IntervalOutcome.UNKNOWN, None)


class TestWitnessPoint:
    def test_integer_clear_of_the_exclusions(self):
        assert _point("x", "x >= 1", "x <= 3", "x != 1", "x != 2") == 3

    def test_fraction_between_strict_bounds(self):
        value = _point("x", "x > 1", "x < 2")
        assert 1 < value < 2

    def test_upper_bound_only(self):
        assert _point("x", "x < -3") < -3

    def test_string_avoiding_the_exclusions(self):
        value = _point("c", "c != 'a'", "c != 'b'")
        assert isinstance(value, str) and value not in ("a", "b")

    def test_string_witness_decoded(self):
        formula = parse_expression("(c = 'UK' OR c = 'US') AND c != 'UK'")
        assert case_split(formula) == (IntervalOutcome.SAT, {"c": "US"})


class TestBruteForce:
    def test_enumerate(self):
        formula = parse_expression("x >= 2 AND x <= 3")
        found = list(
            enumerate_satisfying(formula, {"x": range(5)})
        )
        assert [f["x"] for f in found] == [2, 3]

    def test_missing_domain_raises(self):
        with pytest.raises(KeyError):
            list(enumerate_satisfying(parse_expression("x = 1"), {}))

    def test_limit(self):
        formula = parse_expression("x >= 0")
        found = list(
            enumerate_satisfying(formula, {"x": range(100)}, limit=3)
        )
        assert len(found) == 3

    FIXED = [
        "x >= 2 AND x <= 3",
        "x = 1 OR y = 2",
        "NOT (x = 0) AND x <= 1 AND x >= 0",
        "x > 1 AND x < 2",   # unsat over integers, sat over reals
        "x >= 5 AND x <= 4",
    ]

    def test_split_vs_bruteforce_integer_domains(self):
        """The case split must say SAT, with a witness that satisfies the
        formula, whenever brute force over a finite integer subdomain finds
        one (its domain, the reals, is a superset).  The fixed formulas,
        then the seeded generator of tests/test_solver_session.py
        (``MAHIF_FUZZ_SEED``/``_SCALE``)."""
        rng = random.Random(FUZZ_SEED)
        formulas = [parse_expression(source) for source in self.FIXED]
        for _ in range(scaled(60)):
            numeric = ["x", "y", "z"][: rng.randint(2, 3)]
            formula = random_formula(rng, numeric, 3)
            if rng.random() < 0.4:
                formula = and_(
                    random_definition(rng, numeric),
                    formula,
                    random_formula(rng, numeric + ["d"], 1),
                )
            formulas.append(formula)
        for formula in formulas:
            domains = {
                name: ("a", "b") if name == "c" else range(-1, 5)
                for name in variables_of(formula) | attributes_of(formula)
            }
            if is_satisfiable_bruteforce(formula, domains):
                outcome, witness = case_split(formula)
                assert outcome is IntervalOutcome.SAT, (
                    f"seed={FUZZ_SEED}: {formula}"
                )
                assert evaluate(formula, witness) is True


def test_split_gives_up_unknown_past_its_search_limit(monkeypatch):
    """A formula that needs more branches than the limit allows ends
    UNKNOWN (sound: slicing keeps the statement), not in a long search."""
    from repro.solver import intervals

    # every x_i is 0 or 1 and their parity is odd: reaching a satisfying
    # branch takes a split per variable
    atoms = [parse_expression(f"x{i} = 0 OR x{i} = 1") for i in range(6)]
    parity = parse_expression(
        " OR ".join(
            "(" + " AND ".join(f"x{i} = {b}" for i, b in enumerate(bits)) + ")"
            for bits in itertools.product((0, 1), repeat=6)
            if sum(bits) % 2
        )
    )
    formula = and_(*atoms, parity)
    assert case_split(formula)[0] is IntervalOutcome.SAT
    monkeypatch.setattr(intervals, "_SEARCH_LIMIT", 3)
    assert case_split(formula) == (IntervalOutcome.UNKNOWN, None)
