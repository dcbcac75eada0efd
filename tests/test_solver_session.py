"""Soundness fuzz and work floor for the prefix-sharing solver session.

Program slicing trusts one verdict — UNSAT drops a statement — and the
session (:mod:`repro.solver.session`) decides it by extending prepared
prefix boxes instead of expanding each whole formula.  Three oracles
guard that path, none of which shares code with it:

* **prefix/core split vs whole formula vs enumeration.**  Random
  ``prefix``/``core`` pairs over 2–4 small numeric variables (one of
  them sometimes ``If``-defined) and one categorical string variable
  (ranges, strict and non-strict bounds, ``!=``, mirrored atoms, nested
  and/or/not).  ``SolverSession(prefix).check(core)`` must give the status
  of one-shot ``check_satisfiable(and_(prefix, core))``, with the interval
  presolver on and off, and every decided status must agree with
  :mod:`repro.solver.bruteforce`.  All constants are integers and the
  enumeration grid has the half steps between and beyond them, so a
  formula is satisfiable over the reals exactly when it is on the grid —
  brute force is an exact oracle here, not a one-sided one.
* **kept sets vs exhaustive removal.**  ``dependency_slice`` on tiny random
  histories (≤ 8 updates/deletes, ≤ 30 rows, 1–2 modifications, every
  compression grouping): dropping any excluded statement after the last
  modification — and all of them together — from both histories must
  leave the delta computed on the interpreter unchanged.  Excluded
  statements *before* a later modification are not checked: there the
  slicer is wrong today (strict xfail below, ROADMAP item 4(a)).
* **a deterministic work floor.**  Counted ``_apply_atom`` calls and
  ``transform`` node visits across ``dependency_slice``: Φ_D is simplified
  (one pass) and boxed once per relation whatever the history length,
  and a check folds its own core once, not once per prefix box.  Counts,
  never wall time.

Seeded through ``MAHIF_FUZZ_SEED`` / ``MAHIF_FUZZ_SCALE`` like the other
fuzz suites.

Mutation checks (each applied to ``solver/intervals.py`` by hand, default
seed; the named tests fail, the rest of the module stays green):

* ``_meet`` drops the tie-strictness OR (at either bound) — a bound both
  sides set to one value keeps the prefix's strictness only:
  ``test_seam_cases``'s same-bound case for that bound fails, and so do
  ``tests/test_intervals.py``'s meet oracle, its seam case and its
  split-vs-whole fuzz (at the upper bound,
  ``test_split_matches_whole_formula_and_bruteforce`` too).
* ``_meet`` skips the prefix side's ``numeric_neq`` — a prefix exclusion
  no longer empties a core's point interval: ``test_seam_cases``,
  ``test_split_matches_whole_formula_and_bruteforce`` and the three
  ``tests/test_intervals.py`` meet tests fail.
* ``_meet`` drops ``a.residual`` — a prefix atom the boxes cannot read is
  treated as decided: the same five fail (SAT claimed where the MILP
  and brute force say UNSAT).

What this does not do: make the MILP arm exact.  With the presolver off
every check is a MILP solve, and the fuzz found HiGHS presolve reporting
a feasible big-M model infeasible (``test_milp_false_unsat_reproducer``);
MILP-decided UNSATs are therefore held to a rate, everything else —
every verdict of the boxes, every MILP witness — exactly.  An exact
(rational) re-check of MILP verdicts is ROADMAP item 4(a).
"""

from __future__ import annotations

import math
import random

import pytest
from fuzz_differential import FUZZ_SEED, scaled

from repro import Database, History, Relation, Schema
from repro.core import dependency
from repro.core.dependency import dependency_slice
from repro.core.hwq import Replace, align
from repro.core.program_slicing import ProgramSlicingConfig
from repro.relational import expressions
from repro.relational.expressions import (
    Arith,
    Cmp,
    Const,
    Expr,
    If,
    Logic,
    Not,
    Var,
    and_,
    col,
    eq,
    expr_size,
    ge,
    le,
    lit,
    or_,
    variables_of,
    walk,
)
from repro.relational.parser import parse_expression
from repro.relational.statements import DeleteStatement, UpdateStatement
from repro.solver import (
    SolverConfig,
    check_satisfiable,
    intervals,
    is_satisfiable_bruteforce,
)
from repro.solver.session import SolverSession
from repro.symbolic.compress import CompressionConfig

# -- random formulas -------------------------------------------------------

CONSTANTS = (0, 1, 2)
#: Half steps from one integer below the constants to one above, plus a
#: half step beyond: a defined variable is some ``x + 1``, so bounds on it
#: are bounds on ``x`` at CONSTANTS shifted by one, and a non-empty
#: intersection of bounds and exclusions at integers always holds an
#: integer or the half step next to one.
GRID = tuple(i / 2 for i in range(-3, 8))
STRING_CONSTANTS = ("a", "b")
STRING_DOMAIN = STRING_CONSTANTS + ("other",)
ORDER_OPS = ("<", "<=", ">", ">=", "=", "!=")
#: Largest assignment space brute force is asked to enumerate.
ENUMERABLE = 5_000


def random_atom(rng: random.Random, numeric: list[str]) -> Expr:
    if rng.random() < 0.15:
        return Cmp(
            rng.choice(("=", "!=")),
            Var("c"),
            Const(rng.choice(STRING_CONSTANTS)),
        )
    reference = Var(rng.choice(numeric))
    constant = Const(rng.choice(CONSTANTS))
    op = rng.choice(ORDER_OPS)
    if rng.random() < 0.2:
        return Cmp(op, constant, reference)  # mirrored
    return Cmp(op, reference, constant)


def random_formula(rng: random.Random, numeric: list[str], depth: int) -> Expr:
    """Nested and/or/not over :func:`random_atom`."""
    if depth == 0 or rng.random() < 0.3:
        return random_atom(rng, numeric)
    roll = rng.random()
    if roll < 0.15:
        return Not(random_formula(rng, numeric, depth - 1))
    return Logic(
        "and" if roll < 0.6 else "or",
        random_formula(rng, numeric, depth - 1),
        random_formula(rng, numeric, depth - 1),
    )


def random_prefix(rng: random.Random, numeric: list[str]) -> Expr:
    """Φ_D's shape — a disjunction of per-variable boxes — with open and
    closed ends, points and exclusions, sometimes conjoined with an
    arbitrary condition."""
    boxes = []
    for _ in range(rng.randint(1, 3)):
        atoms = []
        for name in rng.sample(numeric, rng.randint(1, len(numeric))):
            low, high = sorted(rng.choices(CONSTANTS, k=2))
            roll = rng.random()
            if roll < 0.15:
                atoms.append(Cmp("!=", Var(name), Const(low)))
            elif low == high:
                atoms.append(eq(Var(name), low))
            else:
                atoms.append(
                    and_(
                        Cmp(rng.choice((">", ">=")), Var(name), Const(low)),
                        Cmp(rng.choice(("<", "<=")), Var(name), Const(high)),
                    )
                )
        if rng.random() < 0.4:
            atoms.append(or_(*[eq(Var("c"), s) for s in STRING_CONSTANTS]))
        boxes.append(and_(*atoms))
    prefix = or_(*boxes)
    if rng.random() < 0.4:
        prefix = and_(prefix, random_formula(rng, numeric, 2))
    return prefix


def random_definition(rng: random.Random, numeric: list[str]) -> Expr:
    """``d = if x_i op k then x_j [+ 1] else k'`` — symbolic execution's
    defining conjunct.  Integer shifts keep ``d`` on the grid."""
    then: Expr = Var(rng.choice(numeric))
    if rng.random() < 0.5:
        then = Arith("+", then, Const(1))
    return eq(
        Var("d"),
        If(random_atom(rng, numeric[:1]), then, Const(rng.choice(CONSTANTS))),
    )


def grid_domains(formula: Expr) -> dict[str, tuple] | None:
    """Enumeration domains of the formula's variables, or None when the
    space is larger than brute force should walk."""
    domains = {
        name: STRING_DOMAIN if name == "c" else GRID
        for name in variables_of(formula)
    }
    if math.prod(len(d) for d in domains.values()) > ENUMERABLE:
        return None
    return domains


# -- (i) prefix/core split vs whole formula vs enumeration ------------------

SEAM_CASES = [
    # (prefix, core, satisfiable)
    ("x <= 2", "x > 2", False),           # touching bound, strict in core
    ("x < 2", "x >= 2", False),           # touching bound, strict in prefix
    ("x <= 2", "x >= 2", True),           # touching bound, closed: point 2
    ("x >= 2 AND x <= 2", "x > 2", False),  # same lower bound, strict in core
    ("x >= 2 AND x <= 2", "x < 2", False),  # same upper bound, strict in core
    ("x != 2", "x = 2", False),           # exclusion in prefix, point in core
    ("x >= 2 AND x <= 2", "x != 2", False),  # point in prefix, exclusion in core
    ("x != 2", "x >= 2 AND x <= 3", True),
    ("c = 'a'", "c != 'a'", False),
    ("c != 'a'", "c = 'b'", True),
    ("x >= 0 OR x <= -5", "x > -5 AND x < 0", False),
    # a prefix atom the boxes cannot read stays undecided for them; the
    # MILP settles it
    ("x <= 1 AND y <= 1 AND x + y >= 3", "x >= 0", False),
    ("x <= 1 AND y <= 1 AND x + y >= 2", "x >= 0", True),
]


@pytest.mark.parametrize("prefix,core,satisfiable", SEAM_CASES)
def test_seam_cases(prefix, core, satisfiable):
    """Facts on either side of the prefix/core seam meet in one box."""
    session = SolverSession(parse_expression(prefix))
    for _ in range(2):  # a check must not leak into the prepared boxes
        result = session.check(parse_expression(core))
        assert result.is_sat == satisfiable
        assert result.is_unsat != satisfiable


def test_split_matches_whole_formula_and_bruteforce():
    rng = random.Random(FUZZ_SEED)
    decided = unsat = milp_unsat = milp_false_unsat = 0
    for trial in range(scaled(100)):
        numeric = [f"x{i}" for i in range(rng.randint(2, 3))]
        prefix = random_prefix(rng, numeric)
        defining = []
        if rng.random() < 0.5:
            definition = random_definition(rng, numeric)
            if rng.random() < 0.5:
                # an atom the prefix boxes cannot read
                prefix = and_(prefix, definition)
            else:
                defining.append(definition)
            numeric = numeric + ["d", "d"]  # cores lean on the defined variable
        cores = [random_formula(rng, numeric, depth) for depth in (1, 2, 3)]
        wholes = [and_(prefix, *defining, core) for core in cores]
        truths = [  # None where the space is too large to enumerate
            domains and is_satisfiable_bruteforce(whole, domains)
            for whole, domains in zip(wholes, map(grid_domains, wholes))
        ]
        for presolve in (True, False):
            config = SolverConfig(use_interval_presolve=presolve)
            session = SolverSession(prefix, config)
            for core, whole, truth in zip(cores, wholes, truths):
                context = f"seed={FUZZ_SEED} trial={trial} presolve={presolve}: {whole}"
                got = session.check(core, defining)
                assert got.status is check_satisfiable(whole, config).status, context
                if truth is None or not (got.is_sat or got.is_unsat):
                    continue
                decided += 1
                unsat += got.is_unsat
                if got.model_stats is None or got.is_sat:
                    # decided by the boxes, or a verified MILP witness: exact
                    assert got.is_sat == truth, context
                else:
                    milp_unsat += 1
                    milp_false_unsat += truth
    # the generator must keep exercising both verdicts
    assert 0 < unsat < decided
    # The MILP arm is not exact: HiGHS presolve reports the odd feasible
    # big-M model infeasible (about 1 UNSAT in 300 here; reproducer below,
    # ROADMAP item 4(a)).  More than that is a new bug.
    assert milp_false_unsat <= 1 + milp_unsat // 50, (
        f"seed={FUZZ_SEED}: {milp_false_unsat} of {milp_unsat} MILP UNSATs wrong"
    )


@pytest.mark.xfail(
    reason="HiGHS MIP presolve calls this feasible big-M model infeasible "
    "(transformNewIntegerFeasibleSolution); found by the fuzz above at "
    "seed 5, present before the session existed — ROADMAP item 4(a). "
    "Not strict: the verdict depends on the HiGHS build."
)
def test_milp_false_unsat_reproducer():
    x0, x1, c, d = Var("x0"), Var("x1"), Var("c"), Var("d")
    # the nesting is the generator's: the verdict depends on the row order
    box1 = and_(eq(x1, 1), Cmp("!=", x0, Const(1)))
    box2 = and_(
        and_(
            Cmp("!=", x1, Const(1)),
            and_(Cmp(">", x0, Const(1)), Cmp("<", x0, Const(2))),
        ),
        or_(eq(c, "a"), eq(c, "b")),
    )
    box3 = and_(and_(ge(x0, 0), le(x0, 2)), and_(ge(x1, 1), le(x1, 2)))
    extra = or_(
        and_(le(x1, 0), Cmp("=", Const(1), x1)),
        or_(eq(c, "b"), Cmp("<", x0, Const(2))),
    )
    formula = and_(
        and_(or_(or_(box1, box2), box3), extra),
        eq(d, If(Cmp("<", x0, Const(0)), x0, Const(2))),
        Cmp(">=", Const(2), d),
    )
    assert is_satisfiable_bruteforce(formula, grid_domains(formula))  # x0=0, x1=1
    assert not check_satisfiable(formula).is_unsat


# -- (ii) kept sets vs exhaustive per-statement removal ---------------------

SCHEMA = Schema.of("k", "A", "B", "C")
CATEGORIES = ("x", "y", "z")


def random_condition(rng: random.Random) -> Expr:
    roll = rng.random()
    if roll < 0.15:
        return eq(col("C"), rng.choice(CATEGORIES))
    attribute = rng.choice(("A", "B", "k") if roll < 0.9 else ("A",))
    low = rng.randint(0, 9)
    condition = and_(
        ge(col(attribute), low), le(col(attribute), low + rng.randint(0, 4))
    )
    if rng.random() < 0.2:
        condition = or_(condition, eq(col("C"), rng.choice(CATEGORIES)))
    return condition


def random_statement(rng: random.Random):
    if rng.random() < 0.25:
        return DeleteStatement("R", random_condition(rng))
    attribute = rng.choice(("A", "B"))
    value = (
        lit(rng.randint(0, 9))
        if rng.random() < 0.5
        else col(attribute) + rng.randint(1, 3)
    )
    return UpdateStatement("R", {attribute: value}, random_condition(rng))


def random_case(rng: random.Random):
    rows = [
        (k, rng.randint(0, 9), rng.randint(0, 9), rng.choice(CATEGORIES))
        for k in range(rng.randint(1, 30))
    ]
    database = Database({"R": Relation.from_rows(SCHEMA, rows)})
    statements = [random_statement(rng) for _ in range(rng.randint(2, 8))]
    # the first statement is modified: the engine replays the common
    # prefix by time travel and slices only from there on (Section 4)
    positions = [1]
    if rng.random() < 0.5:
        positions.append(rng.randint(2, len(statements)))
    modifications = [Replace(p, random_statement(rng)) for p in positions]
    compression = rng.choice(
        (
            CompressionConfig(),
            CompressionConfig(group_by="A", num_groups=rng.randint(2, 4)),
            CompressionConfig(group_by="C"),
        )
    )
    return database, align(History.of(*statements), modifications), compression


def interpreted_delta(database, pair):
    original = pair.original.execute(database, backend="interpreted")["R"]
    modified = pair.modified.execute(database, backend="interpreted")["R"]
    return set(original.symmetric_difference(modified))


def test_excluded_statements_do_not_matter():
    """Every statement ``dependency_slice`` excludes can be dropped
    without changing the delta — alone or all at once.  (Statements
    before the last modified position are kept unchecked, so what it
    excludes lies after it: Theorem 5's ground.)"""
    rng = random.Random(FUZZ_SEED + 1)
    checked = 0
    for trial in range(scaled(120)):
        database, aligned, compression = random_case(rng)
        config = ProgramSlicingConfig(compression=compression)
        result = dependency_slice(aligned, database, {"R": SCHEMA}, config)
        everything = set(range(1, len(aligned) + 1))
        droppable = everything - set(result.kept_positions)
        assert all(
            position > max(aligned.modified_positions)
            for position in droppable
        )
        checked += len(droppable)
        context = (
            f"seed={FUZZ_SEED} trial={trial} kept={result.kept_positions} "
            f"H={aligned.original.statements} H[M]={aligned.modified.statements}"
        )
        full = interpreted_delta(database, aligned)
        for position in droppable:
            without = aligned.subset(everything - {position})
            assert interpreted_delta(database, without) == full, (
                f"dropping {position} changed the delta: {context}"
            )
        without_all = aligned.subset(everything - droppable)
        assert interpreted_delta(database, without_all) == full, context
    assert checked  # the slicer must be excluding something


def test_statement_before_a_later_modification_is_kept():
    """u2 deletes exactly the tuples u3/u3' disagree on.  With u2 in place
    they never reach u3, so 'affected by both' is unsatisfiable — but
    without u2 they survive and the delta grows, so u2 must be kept (and
    is, unchecked: it sits before the last modified position)."""
    schema = Schema.of("k", "A", "B")
    database = Database(
        {"R": Relation.from_rows(schema, [(k, k, 0) for k in range(10)])}
    )
    low, high = le(col("A"), 1), ge(col("A"), 8)
    history = History.of(
        UpdateStatement("R", {"B": lit(1)}, low),
        DeleteStatement("R", high),
        UpdateStatement("R", {"B": lit(2)}, high),
    )
    aligned = align(
        history,
        [
            Replace(1, UpdateStatement("R", {"B": lit(5)}, low)),
            Replace(3, UpdateStatement("R", {"B": lit(3)}, high)),
        ],
    )
    result = dependency_slice(aligned, database, {"R": schema})
    assert result.kept_positions == (1, 2, 3)
    assert result.solver_calls == 0
    full = interpreted_delta(database, aligned)
    kept_only = aligned.subset(result.kept_positions)
    assert interpreted_delta(database, kept_only) == full


# -- (iii) work floor -------------------------------------------------------

GROUPS = 4
WINDOW_CORE_ATOMS = 4  # (P >= a AND P <= b) in H, and again in H[M]


def window(low: int, high: int) -> Expr:
    return and_(ge(col("P"), low), le(col("P"), high))


def windows_history(statements: int):
    """A modification on the first window, then disjoint windows."""
    history = History.of(
        *[
            UpdateStatement(
                "R", {"F": col("F") + 1}, window(10 * i, 10 * i + 5)
            )
            for i in range(statements)
        ]
    )
    replacement = UpdateStatement("R", {"F": col("F") + 1}, window(0, 7))
    return align(history, [Replace(1, replacement)])


def counted_slice(monkeypatch, statements: int) -> dict:
    """One ``dependency_slice`` with counters on the two primitives the
    solver front end is made of."""
    schema = Schema.of("k", "P", "F")
    database = Database(
        {"R": Relation.from_rows(schema, [(i, i, 5) for i in range(400)])}
    )
    counts = {"atoms": 0, "phi_d_atoms": 0, "visits": 0, "phi_d_visits": 0}
    phi_d_nodes: dict[int, Expr] = {}

    real_compress = dependency.compress_relation
    real_apply = intervals._apply_atom
    real_transform = expressions.transform

    def compress(*args, **kwargs):
        phi_d = real_compress(*args, **kwargs)
        phi_d_nodes.update((id(node), node) for node in walk(phi_d))
        counts["phi_d_root"] = id(phi_d)
        counts["phi_d_size"] = expr_size(phi_d)
        return phi_d

    def apply_atom(box, atom):
        counts["atoms"] += 1
        counts["phi_d_atoms"] += id(atom) in phi_d_nodes
        return real_apply(box, atom)

    def transform(expr, fn):
        counts["visits"] += 1
        counts["phi_d_visits"] += id(expr) == counts.get("phi_d_root")
        return real_transform(expr, fn)

    with monkeypatch.context() as patch:
        patch.setattr(dependency, "compress_relation", compress)
        patch.setattr(intervals, "_apply_atom", apply_atom)
        patch.setattr(expressions, "transform", transform)
        config = ProgramSlicingConfig(
            compression=CompressionConfig(group_by="P", num_groups=GROUPS)
        )
        result = dependency_slice(
            windows_history(statements), database, {"R": schema}, config
        )
    assert result.solver_calls == statements - 1
    assert result.kept_positions == (1,)
    return counts


def test_phi_d_is_prepared_once_and_checks_cost_their_core(monkeypatch):
    short = counted_slice(monkeypatch, 20)
    long = counted_slice(monkeypatch, 40)
    extra_checks = 20

    # Φ_D is normalised once per relation — one simplify pass is its
    # fixpoint — however long the history is...
    assert short["phi_d_visits"] == long["phi_d_visits"] == 1
    # ...and folded into boxes once
    assert short["phi_d_atoms"] == long["phi_d_atoms"] > 0

    # a further check folds its core's atoms once, whatever the number of
    # boxes Φ_D has: the boxes are met, not copied and re-folded
    per_check_atoms = (long["atoms"] - short["atoms"]) / extra_checks
    assert per_check_atoms <= WINDOW_CORE_ATOMS

    # and simplifies its own core, not the prefix
    per_check_visits = (long["visits"] - short["visits"]) / extra_checks
    assert per_check_visits < long["phi_d_size"]
