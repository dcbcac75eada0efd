"""Differential NULL-soundness fuzz for the algebraic optimizer.

PR 2's three-way harness caught three NULL-unsound rewrites in
``expressions.simplify`` (``x = x -> TRUE``, ``x * 0 -> 0``,
NOT-comparison flipping); ``relational/optimizer.py`` composes those
expression rewrites with its own algebraic ones (projection merging,
selection fusion/pushdown, union pruning), each of which substitutes
expressions into expressions — exactly where 2VL NULL semantics breaks
naive identities.  This suite mirrors the PR 2 harness one level up:
random NULL-heavy databases, random operator trees (ad-hoc stacks and
real reenactment queries with injected data-slicing-style selections),
asserting ``eval(optimize(Q)) == eval(Q)`` on the interpreter (the
oracle) and the compiled backend.

The second half holds the optimizer to what its module docstring says a
rewrite *costs* — by count, identity and equality, never by clock:
composition against substitute-then-simplify, work linear in the input,
the fixpoint loop's pinned reasons to exist, and no state between calls.
Mutations made by hand on the final tree and reverted, each killed by
the test named: ``_compose`` without the rule at rebuilt nodes
(``test_composition_is_substitute_then_simplify``); composition's result
not recorded as simplified, or ``_simplify`` bypassing its memo
(``test_confirming_pass_is_memo_hits``: the count of expressions
simplified, and the rule applications of the second pass);
``_rewrite_project`` always allocating (the same test's ``is``, and
``test_pass_two_changes_the_tree``); the merge memo keyed on output
*names* (every equivalence test of this file and four of
``test_optimizer.py`` — two projections with one schema and different
expressions then share a merge); the memo hoisted to module level
(``test_threads_share_nothing`` and the equivalence tests).
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from fuzz_differential import (
    fresh_rng,
    random_history,
    random_set_expression,
    random_typed_condition,
    random_typed_database,
    scaled,
)

from repro.core.reenactment import reenactment_queries, reenactment_query
from repro.relational import (
    Database,
    History,
    OptimizerConfig,
    Relation,
    Schema,
    optimize,
)
from repro.relational import optimizer as optimizer_module
from repro.relational.algebra import (
    Join,
    Project,
    RelScan,
    Select,
    Union,
    evaluate_query,
    evaluate_query_interpreted,
    inject_selection,
    operator_count,
    walk_operators,
)
from repro.relational.expressions import (
    Arith,
    Attr,
    Cmp,
    Const,
    If,
    Logic,
    _simplify_node,
    and_,
    children_of,
    col,
    expr_size,
    ge,
    le,
    simplify,
    substitute,
    transform,
    walk,
)
from repro.relational.optimizer import _Rewriter, _compose
from repro.relational.statements import UpdateStatement

N_REENACT = 40
N_INJECTED = 40
N_ADHOC = 80

#: A second config that forces aggressive merging — the growth-aware
#: default can decline merges, which would leave rewrites untested.
AGGRESSIVE = OptimizerConfig(
    max_expression_size=100_000, growth_factor=1_000.0
)

#: Budgets that refuse nearly every merge and pushdown: the declined
#: branches, and the memo remembering a refusal.
TINY = OptimizerConfig(max_expression_size=2)
TIGHT = OptimizerConfig(max_expression_size=24, growth_factor=1.0)


def _assert_equivalent(op, db, label, configs=(None, AGGRESSIVE)):
    expected = evaluate_query_interpreted(op, db)
    for config in configs:
        optimized = optimize(op, config)
        assert (
            evaluate_query_interpreted(optimized, db).tuples
            == expected.tuples
        ), f"{label}: optimizer changed the interpreted result"
        assert (
            evaluate_query(optimized, db, backend="compiled").tuples
            == expected.tuples
        ), f"{label}: optimizer changed the compiled result"


# -- the corpus: (label, tree, database) triples ------------------------------


def reenactment_trees(rng, trials):
    """Real reenactment stacks (the optimizer's production input) over
    NULL-bearing relations."""
    for trial in range(trials):
        db, types_by_name = random_typed_database(rng, rows=10)
        history = random_history(rng, db, types_by_name)
        schemas = {name: db.schema_of(name) for name in db.relations}
        for relation, op in reenactment_queries(history, schemas).items():
            yield f"trial {trial} ({relation})", op, db


def injected_trees(rng, trials):
    """Data-slicing-shaped selections injected at the scans — the exact
    pipeline R+DS/R+PS+DS runs."""
    for trial in range(trials):
        db, types_by_name = random_typed_database(rng, rows=10)
        history = random_history(rng, db, types_by_name)
        schemas = {name: db.schema_of(name) for name in db.relations}
        conditions = {
            name: random_typed_condition(
                rng, db.schema_of(name), types_by_name[name]
            )
            for name in ("R", "S")
        }
        for relation, op in reenactment_queries(history, schemas).items():
            injected = inject_selection(op, dict(conditions))
            yield f"trial {trial} ({relation}, injected)", injected, db


def adhoc_trees(rng, trials):
    """Random stacks hitting every rewrite rule: selection fusion (σσ),
    pushdown through projections (σΠ) and unions (σ∪), and projection
    merging (ΠΠ) with NULL-producing outputs."""
    for trial in range(trials):
        db, types_by_name = random_typed_database(rng, rows=10)
        schema = db.schema_of("R")
        types = types_by_name["R"]

        def random_project(inner):
            outputs = []
            for attribute in schema.attributes:
                if attribute != "k" and rng.random() < 0.5:
                    outputs.append(
                        (
                            random_set_expression(
                                rng, schema, types, attribute
                            ),
                            attribute,
                        )
                    )
                else:
                    outputs.append((Attr(attribute), attribute))
            return Project(inner, tuple(outputs))

        def random_tree(depth):
            if depth == 0:
                return RelScan("R")
            roll = rng.random()
            if roll < 0.4:
                return Select(
                    random_tree(depth - 1),
                    random_typed_condition(rng, schema, types),
                )
            if roll < 0.8:
                return random_project(random_tree(depth - 1))
            return Union(random_tree(depth - 1), random_tree(depth - 1))

        yield f"trial {trial} (ad-hoc)", random_tree(rng.randint(2, 4)), db


def corpus(offset=0):
    """All three kinds, at the suite's seed and scale."""
    yield from reenactment_trees(fresh_rng(80 + offset), scaled(N_REENACT))
    yield from injected_trees(fresh_rng(81 + offset), scaled(N_INJECTED))
    yield from adhoc_trees(fresh_rng(82 + offset), scaled(N_ADHOC))


class TestOptimizerNullSoundness:
    def test_reenactment_queries(self):
        for label, op, db in reenactment_trees(
            fresh_rng(offset=80), scaled(N_REENACT)
        ):
            _assert_equivalent(op, db, label)

    def test_reenactment_with_injected_selections(self):
        for label, op, db in injected_trees(
            fresh_rng(offset=81), scaled(N_INJECTED)
        ):
            _assert_equivalent(op, db, label)

    def test_adhoc_select_project_union_stacks(self):
        for label, op, db in adhoc_trees(
            fresh_rng(offset=82), scaled(N_ADHOC)
        ):
            _assert_equivalent(op, db, label)

    def test_tight_budgets_still_equal_the_interpreter(self):
        for label, op, db in corpus():
            _assert_equivalent(op, db, label, configs=(TINY, TIGHT))


# -- what a rewrite costs -----------------------------------------------------


def expressions_of(op):
    """The expressions the optimizer is handed with ``op``."""
    for node in walk_operators(op):
        if isinstance(node, Project):
            yield from (expr for expr, _ in node.outputs)
        elif isinstance(node, (Select, Join)):
            yield node.condition


def expression_nodes(op):
    return sum(expr_size(expr) for expr in expressions_of(op))


def interior_nodes(op):
    """The nodes a local rule can apply to (not ``Attr`` / ``Const``)."""
    return sum(
        1
        for expr in expressions_of(op)
        for node in walk(expr)
        if children_of(node)
    )


@pytest.fixture
def visits(monkeypatch):
    """``_simplify_node`` calls made by the optimizer (patched where it
    looks the rule up: its own simplification and its composition)."""
    seen = []

    def spy(expr):
        seen.append(expr)
        return _simplify_node(expr)

    monkeypatch.setattr(optimizer_module, "_simplify_node", spy)
    return seen


WIDE = Schema.of("k", *(f"a{i}" for i in range(9)))


def dependent_stack(depth):
    """``depth`` updates of one attribute, each reading the last one's
    value, over a 10-attribute schema: 9 of 10 outputs per level are
    bare ``Attr`` references, and the growth budget refuses most
    merges — the shape of a reenactment stack."""
    history = History(
        tuple(
            UpdateStatement(
                "R", {"a0": col("a0") + 1}, ge(col("a0"), 10 * i)
            )
            for i in range(depth)
        )
    )
    return reenactment_query(history, "R", {"R": WIDE})


class TestComposition:
    def test_composition_is_substitute_then_simplify(self):
        """For a simplified ``e`` and simplified replacements, composing
        equals ``simplify(substitute(e, ...))`` and is a fixpoint of the
        local rules — the invariant that lets the optimizer record what
        it composes as simplified.  NULL constants and foldable
        replacements included (the generators make both)."""
        rng = fresh_rng(offset=83)
        for trial in range(scaled(300)):
            db, types_by_name = random_typed_database(rng, rows=1)
            schema, types = db.schema_of("R"), types_by_name["R"]
            if rng.random() < 0.5:
                raw = random_typed_condition(rng, schema, types, depth=3)
            else:
                raw = random_set_expression(
                    rng, schema, types, rng.choice(schema.attributes), depth=2
                )
            # one bottom-up pass of the rules is already the fixpoint
            assert transform(raw, _simplify_node) == simplify(raw), trial
            expr = simplify(raw)
            replacements = {
                attribute: simplify(
                    random_set_expression(rng, schema, types, attribute)
                )
                for attribute in schema.attributes
                if rng.random() < 0.6
            }
            composed = _compose(expr, replacements)
            assert composed == simplify(
                substitute(
                    expr, {Attr(n): r for n, r in replacements.items()}
                )
            ), trial
            assert transform(composed, _simplify_node) is composed, trial


def filtered_stack(depth):
    """The same stack under a selection that pushdown carries to the
    scan, composing it through every level on the way (where a
    data-slicing condition ends up when it is not injected there)."""
    return Select(
        dependent_stack(depth), and_(ge(col("a0"), 5), le(col("a1"), 7))
    )


STACKS = [
    pytest.param(build, depth, id=f"{build.__name__}-{depth}")
    for build in (dependent_stack, filtered_stack)
    for depth in (10, 20, 40)
]


class TestRewriteCost:
    @pytest.mark.parametrize("build, depth", STACKS)
    def test_work_is_linear_in_the_input(self, visits, build, depth):
        """Every expression simplified once, every merge composed once:
        rule applications stay within 3x the expression nodes handed in
        (measured 0.62-0.68x for the bare stack, 1.4x falling to 0.9x
        with depth under the selection, whose pushed condition grows to
        the size cap; the parent: 24x at depth 10, and growing)."""
        op = build(depth)
        optimized = optimize(op)
        assert operator_count(optimized) < operator_count(op)
        assert len(visits) <= 3 * expression_nodes(op)

    @pytest.mark.parametrize("build, depth", STACKS)
    def test_confirming_pass_is_memo_hits(self, visits, build, depth):
        """What the fixpoint loop's last pass costs: within one call's
        memo a second rewrite of the result applies no rule, attempts no
        merge, and says so by returning the object it was given."""
        op = build(depth)
        rewriter = _Rewriter(OptimizerConfig())
        first = rewriter.rewrite(op)
        # the input, once — and nothing composition built
        assert rewriter.simplified == interior_nodes(op)
        tried = rewriter.merges_tried
        del visits[:]
        assert rewriter.rewrite(first) is first
        assert visits == [] and rewriter.merges_tried == tried

    @pytest.mark.parametrize("build, depth", STACKS)
    def test_a_fixpoint_comes_back_as_the_same_object(
        self, visits, build, depth
    ):
        """A fresh call has no memo to hit, so it simplifies what it is
        given — once: at most one rule application per node — and
        returns the very tree."""
        optimized = optimize(build(depth))
        del visits[:]
        assert optimize(optimized) is optimized
        assert len(visits) <= expression_nodes(optimized)

    def test_corpus_fixpoints_come_back_as_the_same_object(self):
        for label, op, _ in corpus():
            for config in (None, AGGRESSIVE, TINY):
                optimized = optimize(op, config)
                assert optimize(optimized, config) is optimized, label

    def test_threads_share_nothing(self):
        """Eight threads optimizing distinct stacks at once return what
        one thread returns: the memo belongs to the call."""
        trees = [op for _, op, _ in corpus()]
        trees += [dependent_stack(depth) for depth in range(2, 18)]
        serial = [optimize(op) for op in trees]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(optimize, op) for op in trees]
                threaded = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


#: Ad-hoc stacks of the corpus (seed 20260725, scale 3) whose second pass
#: still changes the tree — why ``optimize`` loops.  In the first a
#: ``FALSE`` selection sinks through a projection and a union, whose
#: pruning leaves two projections adjacent that pass 1 had already
#: walked past; in the second (under ``TINY``) the pushdown the size cap
#: allows exposes a fusion below it.
_R = RelScan("R")
_IDENTITY = ((Attr("k"), "k"), (Attr("c0"), "c0"))
PASS_TWO_CASES = [
    (
        None,
        Select(
            Project(
                Union(
                    Project(
                        _R,
                        (
                            (Attr("k"), "k"),
                            (
                                If(
                                    Logic(
                                        "and",
                                        Cmp("<=", Attr("k"), Attr("c0")),
                                        Cmp("=", Attr("k"), Attr("k")),
                                    ),
                                    Arith("/", Attr("c0"), Const(-0.6)),
                                    Const(-16.644),
                                ),
                                "c0",
                            ),
                        ),
                    ),
                    Project(_R, _IDENTITY),
                ),
                ((Attr("k"), "k"), (Const(-1.207), "c0")),
            ),
            Cmp("<", Attr("c0"), Attr("c0")),
        ),
    ),
    (
        TINY,
        Select(
            Project(
                Select(
                    Project(_R, _IDENTITY),
                    Cmp("<=", Attr("c0"), Const(True)),
                ),
                _IDENTITY,
            ),
            Cmp("!=", Attr("k"), Attr("k")),
        ),
    ),
]


class TestTheLoopIsStillNeeded:
    @pytest.mark.parametrize("config, op", PASS_TWO_CASES)
    def test_pass_two_changes_the_tree(self, config, op):
        rewriter = _Rewriter(config or OptimizerConfig())
        first = rewriter.rewrite(op)
        second = rewriter.rewrite(first)
        assert second != first
        optimized = optimize(op, config)
        assert optimized == rewriter.rewrite(second)
        assert _Rewriter(config or OptimizerConfig()).rewrite(
            optimized
        ) is optimized
        db = Database(
            {
                "R": Relation.from_rows(
                    Schema.of("k", "c0"),
                    [(1, 2.0), (2, None), (3, -1.5), (None, 0.5)],
                )
            }
        )
        _assert_equivalent(op, db, "pinned", configs=(config,))


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
