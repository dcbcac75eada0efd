"""Interval presolver tests, including agreement with brute force.

The meet (``IntervalPrefix.decide`` deciding a prefix box and a rest box
without building the box that holds both) is checked against the one
thing it claims to equal — every atom of both sides folded into one box
and finalized — over random atoms, and ``decide`` on a split formula
against ``interval_presolve`` on the whole one.  Seeded through
``MAHIF_FUZZ_SEED`` / ``MAHIF_FUZZ_SCALE`` like the other fuzz suites.
"""

import copy
import random
from collections import Counter

import pytest
from fuzz_differential import FUZZ_SEED, fresh_rng, scaled

from repro.relational.expressions import (
    Cmp,
    Const,
    Expr,
    FALSE,
    Logic,
    Not,
    TRUE,
    Var,
    and_,
    attributes_of,
)
from repro.relational.parser import parse_expression
from repro.solver import check_satisfiable, is_satisfiable_bruteforce
from repro.solver.intervals import (
    IntervalOutcome,
    IntervalPrefix,
    _Box,
    _fold,
    _meet,
    interval_presolve,
)


class TestPresolve:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("x >= 1 AND x <= 5", IntervalOutcome.SAT),
            ("x >= 5 AND x <= 1", IntervalOutcome.UNSAT),
            ("x > 3 AND x < 3", IntervalOutcome.UNSAT),
            ("x > 3 AND x <= 3", IntervalOutcome.UNSAT),
            ("x >= 3 AND x <= 3", IntervalOutcome.SAT),
            ("x = 3 AND x != 3", IntervalOutcome.UNSAT),
            ("x != 3 AND x >= 1 AND x <= 5", IntervalOutcome.SAT),
            ("x = 3 AND x = 4", IntervalOutcome.UNSAT),
            ("x >= 1 OR x <= 0", IntervalOutcome.SAT),
            ("(x >= 5 AND x <= 1) OR (y > 2 AND y < 2)", IntervalOutcome.UNSAT),
            ("NOT (x >= 1)", IntervalOutcome.SAT),
            ("NOT (x >= 1 OR x < 1)", IntervalOutcome.UNSAT),
            ("c = 'UK' AND c = 'US'", IntervalOutcome.UNSAT),
            ("c = 'UK' AND c != 'UK'", IntervalOutcome.UNSAT),
            ("c = 'UK' AND c != 'US'", IntervalOutcome.SAT),
            ("5 <= x AND 9 >= x", IntervalOutcome.SAT),   # mirrored atoms
            ("10 < x AND x < 5", IntervalOutcome.UNSAT),
            ("true", IntervalOutcome.SAT),
            ("false", IntervalOutcome.UNSAT),
        ],
    )
    def test_decidable_formulas(self, source, expected):
        assert interval_presolve(parse_expression(source)) is expected

    @pytest.mark.parametrize(
        "source",
        [
            "x + y >= 3 AND x <= 0",          # non-atomic arithmetic
            "a = b AND a != b",               # var-to-var comparison
            "x * 2 = 6",                      # expression atom
            "c = 'UK' AND c >= 5",            # mixed string/numeric facts
        ],
    )
    def test_inconclusive_falls_through(self, source):
        assert (
            interval_presolve(parse_expression(source))
            is IntervalOutcome.UNKNOWN
        )

    def test_point_interval_with_exclusion_order_independent(self):
        # exclusion seen before the bounds must still kill the box
        assert (
            interval_presolve(parse_expression("x != 3 AND x = 3"))
            is IntervalOutcome.UNSAT
        )

    def test_residual_disjunct_does_not_block_unsat_of_others(self):
        # first disjunct provably empty, second residual -> UNKNOWN overall
        formula = parse_expression("(x >= 5 AND x <= 1) OR a + b = 3")
        assert interval_presolve(formula) is IntervalOutcome.UNKNOWN


class TestAgreementWithBruteForce:
    CASES = [
        "x >= 1 AND x <= 5",
        "x >= 5 AND x <= 1",
        "x = 3 AND x != 3",
        "(x >= 5 AND x <= 1) OR (y >= 0 AND y <= 1)",
        "c = 'UK' AND c = 'US'",
        "NOT (x >= 1 OR x < 1)",
        "x > 1 AND x < 2",
    ]
    #: Half steps around every constant above, and a string none of them
    #: names: the grid holds a point of every non-empty box the cases make.
    DOMAINS = {
        "x": [i / 2 for i in range(-2, 13)],
        "y": [i / 2 for i in range(-2, 13)],
        "c": ["UK", "US", "other"],
    }

    @pytest.mark.parametrize("source", CASES)
    def test_presolve_matches_bruteforce(self, source):
        formula = parse_expression(source)
        outcome = interval_presolve(formula)
        assert outcome is not IntervalOutcome.UNKNOWN
        domains = {n: self.DOMAINS[n] for n in attributes_of(formula)}
        expected = is_satisfiable_bruteforce(formula, domains)
        assert (outcome is IntervalOutcome.SAT) == expected
        assert check_satisfiable(formula).is_sat == expected

    def test_presolve_decides_window_checks(self):
        """The presolver must decide a typical dependency-check formula
        (disjoint windows) without the case split."""
        formula = parse_expression(
            "(P >= 10 AND P <= 30 OR P >= 10 AND P <= 40)"
            " AND P >= 80 AND P <= 95"
        )
        assert interval_presolve(formula) is IntervalOutcome.UNSAT


# -- the meet against one folded box ---------------------------------------

NAMES = ("x", "y")
#: Few, adjacent constants, so strict and closed bounds touch at one
#: value and points meet exclusions often.
NUMBERS = (0, 1, 2)
STRINGS = ("a", "b")
ORDER_OPS = ("<", "<=", ">", ">=", "=", "!=")


def random_atom(rng: random.Random) -> Expr:
    """Numeric bounds (mirrored too), numeric and string ``=`` / ``!=``
    on the *same* variables (mixed-type facts), constants, and
    variable-to-variable atoms the boxes cannot read."""
    reference = Var(rng.choice(NAMES))
    roll = rng.random()
    if roll < 0.05:
        return FALSE
    if roll < 0.08:
        return TRUE
    if roll < 0.14:
        return Cmp(rng.choice(ORDER_OPS), reference, Var(rng.choice(NAMES)))
    if roll < 0.34:
        return Cmp(rng.choice(("=", "!=")), reference, Const(rng.choice(STRINGS)))
    op, constant = rng.choice(ORDER_OPS), Const(rng.choice(NUMBERS))
    if rng.random() < 0.2:
        return Cmp(op, constant, reference)
    return Cmp(op, reference, constant)


def folded(atoms: list[Expr], finalize: bool) -> _Box:
    box = _Box.empty()
    _fold(box, atoms)
    if finalize and not box.impossible:
        box.finalize()
    return box


def verdict(impossible: bool, residual: bool) -> str:
    return "empty" if impossible else "residual" if residual else "witness"


def test_meet_is_folding_both_sides_into_one_box():
    """``_meet(fold(A) finalized, fold(B))`` is the verdict of ``A + B``
    folded into one box and finalized, and reads its arguments only."""
    rng = fresh_rng(offset=250)
    seen: Counter = Counter()
    for trial in range(scaled(6000)):
        left = [random_atom(rng) for _ in range(rng.randint(0, 4))]
        right = [random_atom(rng) for _ in range(rng.randint(0, 4))]
        whole = folded(left + right, finalize=True)
        expected = verdict(whole.impossible, whole.residual)
        prefix, rest = folded(left, finalize=True), folded(right, finalize=False)
        context = f"seed={FUZZ_SEED} trial={trial}: {left} | {right}"
        if prefix.impossible or rest.impossible:
            # decide never meets an empty box; the whole must be empty too
            assert expected == "empty", context
            continue
        before = copy.deepcopy((prefix, rest))
        got = verdict(*_meet(prefix, rest))
        assert got == expected, context
        assert (prefix, rest) == before, context
        seen[got] += 1
    assert min(seen[v] for v in ("empty", "residual", "witness")) > 0, seen


@pytest.mark.parametrize(
    "left,right",
    [
        (["x <= 2"], ["x > 2"]),           # touching, strict on the rest side
        (["x < 2"], ["x >= 2"]),           # touching, strict on the prefix side
        (["x <= 2"], ["x >= 2"]),          # touching, closed: the point 2
        (["x >= 2", "x <= 2"], ["x > 2"]),  # a tie at the lower bound
        (["x > 2"], ["x >= 2", "x <= 2"]),  # the same tie, sides swapped
        (["x >= 2", "x <= 2"], ["x < 2"]),  # a tie at the upper bound
        (["x != 2"], ["x = 2"]),           # exclusion in the prefix
        (["x = 2"], ["x != 2"]),           # exclusion in the rest
        (["c = 'a'"], ["c != 'a'"]),
        (["c != 'a'"], ["c = 'a'"]),
        (["c = 'a'"], ["c = 'b'"]),
        (["c = 'a'"], ["c >= 1"]),         # mixed types across the seam
        (["x = y"], ["x >= 1"]),           # residual on the prefix side
        (["x >= 1"], ["false"]),
    ],
)
def test_meet_seam_cases(left, right):
    left_atoms = [parse_expression(a) for a in left]
    right_atoms = [parse_expression(a) for a in right]
    whole = folded(left_atoms + right_atoms, finalize=True)
    prefix, rest = folded(left_atoms, True), folded(right_atoms, False)
    if prefix.impossible or rest.impossible:
        assert whole.impossible
    else:
        assert _meet(prefix, rest) == (
            whole.impossible, whole.residual and not whole.impossible
        )


def random_formula(rng: random.Random, depth: int) -> Expr:
    """Nested and / or / not over :func:`random_atom`."""
    if depth == 0 or rng.random() < 0.3:
        return random_atom(rng)
    roll = rng.random()
    if roll < 0.15:
        return Not(random_formula(rng, depth - 1))
    return Logic(
        "and" if roll < 0.6 else "or",
        random_formula(rng, depth - 1),
        random_formula(rng, depth - 1),
    )


def test_split_decide_is_whole_formula_presolve():
    """``IntervalPrefix(p).decide(r)`` is ``interval_presolve(p ∧ r)``,
    and a prefix answers the same after any number of checks."""
    rng = fresh_rng(offset=251)
    seen: Counter = Counter()
    for trial in range(scaled(1500)):
        prefix = random_formula(rng, rng.randint(0, 4))
        session = IntervalPrefix(prefix)
        for _ in range(3):
            rest = random_formula(rng, rng.randint(0, 4))
            expected = interval_presolve(and_(prefix, rest))
            assert session.decide(rest) is expected, (
                f"seed={FUZZ_SEED} trial={trial}: {prefix} | {rest}"
            )
            seen[expected] += 1
    assert all(seen[outcome] > 0 for outcome in IntervalOutcome), seen


def test_decide_counts_its_boxes_and_meets():
    prefix = IntervalPrefix(parse_expression("x <= 1 OR x >= 5 OR x = 3"))
    assert prefix.prefix_boxes == 3
    assert prefix.decide(parse_expression("x > 9 OR x < 0")) is (
        IntervalOutcome.SAT
    )
    # both rest boxes are folded once; x <= 1 meets x > 9, then x < 0
    assert (prefix.rest_boxes, prefix.meets) == (2, 2)
    assert prefix.decide(parse_expression("x = 4 OR (x > 1 AND x < 1)")) is (
        IntervalOutcome.UNSAT
    )
    # the empty second disjunct is dropped before any meet
    assert (prefix.rest_boxes, prefix.meets) == (3, 5)
