"""Algebraic optimizer for reenactment queries.

Reenactment compiles a history of ``U`` updates into ``U`` *nested
generalized projections* (Definition 3).  Evaluating them one-by-one
materializes ``U`` intermediate relations and walks ``O(U)`` expression
trees per tuple per level — ``O(U^2)`` work per tuple.  A real middleware
ships *one* flattened query to the backend and lets its optimizer collapse
the stack; this module plays that role for the in-memory engine:

* **projection merging** — ``Π_e(Π_f(Q)) = Π_{e∘f}(Q)`` by substituting
  the inner output expressions into the outer ones,
* **selection fusion** — ``σ_a(σ_b(Q)) = σ_{a∧b}(Q)``,
* **selection pushdown through projections** — ``σ_θ(Π_e(Q)) =
  Π_e(σ_{θ[A←e]}(Q))`` (brings data-slicing filters next to the scan),
* **selection pushdown through unions** — ``σ_θ(Q1 ∪ Q2) = σ_θ(Q1) ∪
  σ_θ(Q2)``, which reads ``θ`` over either side's attributes and is
  sound only because a union's sides carry the *same attribute names*
  (``schema.check_union_compatible`` raises on any mismatch),
* **expression simplification** of every condition/output,
* **pruning** of no-op operators (``σ_true``, identity projections,
  unions with provably-empty sides).

All rewrites are semantics-preserving for set semantics; the equivalences
are the standard ones (and the two the paper itself uses in Section 10 to
pull unions out of reenactment queries).

The cost model trade-off: merging two projections *duplicates* shared
subexpressions — a reenactment ``CASE WHEN θ THEN F+d ELSE F`` references
``F`` twice, so naively flattening a U-deep update chain grows the
expression 2^U-fold (a real optimizer would share common subexpressions;
our tree evaluator cannot).  Merging is therefore *growth-aware*: a merge
is kept only when the combined expression is not materially larger than
the two it replaces (``growth_factor``), with ``max_expression_size`` as
a hard cap.  Identity and non-self-referencing outputs merge for free;
self-referencing chains stay stacked.

What a rewrite costs.  The optimizer runs on every answer's plans, so
its own work is kept linear in the expression nodes it is handed:

* **One memo per call.**  ``optimize`` creates a :class:`_Rewriter`,
  whose memo is keyed on object *identity* (hashing an expression tree
  costs a walk of it) and dies when the call returns — nothing is shared
  between calls, threads or engines.  Every expression is simplified
  once and sized once (``size = 1 + Σ children``, carried upward, never
  re-walked), and every ``(outer outputs, inner outputs)`` merge and
  ``(condition, inner outputs)`` pushdown is composed once.
* **Composition, not substitute-then-simplify.**  For a simplified ``e``
  and simplified replacements, ``e[A ← f_A]`` is rebuilt bottom-up with
  the local rule applied only at the nodes that were actually rebuilt
  (:func:`_compose`; a bare ``Attr`` output is one dictionary probe),
  and the result is recorded as simplified.  Composition ``==``
  ``simplify(substitute_attributes(e, f))`` by the one-pass invariant
  stated on :func:`repro.relational.expressions.simplify`: the
  untouched subtrees are fixpoints already, the rebuilt nodes get the
  one pass.
* **A rewrite that fires nothing returns the object it was given.**
  *Invariant:* ``rewrite(op) is op`` exactly when no rule changed the
  subtree.  The fixpoint loop therefore ends on ``is``, and its
  confirming pass is memo hits.  The loop stays: rule applications
  enable each other across passes (a pushdown exposes a fusion, a
  pruned union side a merge), and a handful of ad-hoc stacks do change
  on pass 2 (``tests/test_optimizer_differential.py`` pins them).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Mapping

from ..obs import trace
from .algebra import (
    Difference,
    Join,
    Operator,
    Project,
    RelScan,
    Select,
    Union,
    operator_count,
)
from .expressions import (
    Attr,
    Expr,
    FALSE,
    TRUE,
    _rebuild,
    _simplify_node,
    and_,
    children_of,
    substitute_named,
)

__all__ = ["OptimizerConfig", "optimize"]

_Outputs = tuple[tuple[Expr, str], ...]

#: Passes after which ``optimize`` stops even if rules still fire.
_MAX_PASSES = 32


@dataclass(frozen=True)
class OptimizerConfig:
    """Rewrite knobs.

    ``max_expression_size`` bounds per-output expression growth during
    projection merging and selection pushdown; ``growth_factor`` is the
    growth a merge may cost over the two projections it replaces.
    """

    max_expression_size: int = 512
    growth_factor: float = 1.25


def optimize(op: Operator, config: OptimizerConfig | None = None) -> Operator:
    """Rewrite an operator tree to a fixpoint of the rules.

    Each pass is bottom-up; passes repeat until one fires nothing (rule
    applications can enable each other, e.g. pushdown then fusion).  A
    tree no rule applies to is returned as the same object.
    """
    rewriter = _Rewriter(config or OptimizerConfig())
    span = trace.span("optimize")
    with span:
        current = op
        for passes in range(1, _MAX_PASSES + 1):
            rewritten = rewriter.rewrite(current)
            if rewritten is current or rewritten == current:
                break
            current = rewritten
        if isinstance(span, trace.Span):
            # only a traced answer pays for the two operator walks
            span.set_attributes(
                {
                    "passes": passes,
                    "merges_tried": rewriter.merges_tried,
                    "merges_kept": rewriter.merges_kept,
                    "simplified": rewriter.simplified,
                    "operators_in": operator_count(op),
                    "operators_out": operator_count(current),
                }
            )
    return current


def _compose(expr: Expr, substitution: Mapping[str, Expr]) -> Expr:
    """``simplify(e[A ← f_A])`` for a simplified ``e`` and simplified
    ``f_A`` (the module docstring's composition invariant): the shared
    by-name walk, with the local rule at the nodes it rebuilds."""
    return substitute_named(expr, Attr, substitution, _simplify_node)


def _substitution(inner_outputs: _Outputs) -> dict[str, Expr]:
    """What the attributes above ``Π_inner`` stand for.  ``Attr`` →
    same-name ``Attr`` outputs (nine in ten on a reenactment stack)
    substitute nothing and are left out, so an expression that reads
    only those is kept as the object it is."""
    return {
        name: expr
        for expr, name in inner_outputs
        if not (isinstance(expr, Attr) and expr.name == name)
    }


def _is_identity(outputs: _Outputs, inner_outputs: _Outputs) -> bool:
    """``Π_{A1->A1,...,An->An}`` over a projection producing exactly
    those attributes (only checkable when the input is a projection)."""
    return len(outputs) == len(inner_outputs) and all(
        isinstance(expr, Attr) and expr.name == name == inner_name
        for (expr, name), (_, inner_name) in zip(outputs, inner_outputs)
    )


def _is_empty(op: Operator) -> bool:
    """Conservatively detect provably-empty subtrees."""
    if isinstance(op, Select):
        return op.condition == FALSE or _is_empty(op.input)
    if isinstance(op, Project):
        return _is_empty(op.input)
    if isinstance(op, Union):
        return _is_empty(op.left) and _is_empty(op.right)
    if isinstance(op, Join):
        return _is_empty(op.left) or _is_empty(op.right)
    return False


def _prune_union(op: Union) -> Operator:
    if _is_empty(op.left):
        return op.right
    if _is_empty(op.right):
        return op.left
    return op


class _Rewriter:
    """The state of one ``optimize`` call: its config, its identity memo
    and the counts its span reports.  Never shared, never kept."""

    def __init__(self, config: OptimizerConfig) -> None:
        self.config = config
        self.merges_tried = 0
        self.merges_kept = 0
        #: distinct expressions simplified (memo misses of ``_simplify``)
        self.simplified = 0
        #: every object a memo below is keyed on: while it is pinned here
        #: its ``id`` cannot be recycled for another object
        self._pinned: list[object] = []
        self._simple: dict[int, Expr] = {}
        self._sizes: dict[int, int] = {}
        self._simple_outputs: dict[int, _Outputs] = {}
        self._merges: dict[tuple[int, int], _Outputs | None] = {}
        self._pushed: dict[tuple[int, int], Expr] = {}

    # -- expressions --------------------------------------------------

    def _record_simple(self, expr: Expr, simple: Expr) -> Expr:
        self._simple[id(expr)] = self._simple[id(simple)] = simple
        self._pinned += (expr, simple)
        return simple

    def _compose(self, expr: Expr, substitution: Mapping[str, Expr]) -> Expr:
        """:func:`_compose`, its result recorded as simplified."""
        composed = _compose(expr, substitution)
        return self._record_simple(composed, composed)

    def _simplify(self, expr: Expr) -> Expr:
        """``simplify(expr)``, once per object: children first, then the
        local rule once (one pass is a fixpoint, see
        :func:`repro.relational.expressions.simplify`)."""
        children = children_of(expr)
        if not children:
            return expr
        simple = self._simple.get(id(expr))
        if simple is None:
            self.simplified += 1
            simple_children = tuple(map(self._simplify, children))
            node = expr
            if any(map(operator.is_not, simple_children, children)):
                node = _rebuild(expr, simple_children)
            simpler = _simplify_node(node)
            simple = self._record_simple(
                expr, node if simpler is None else simpler
            )
        return simple

    def _size(self, expr: Expr) -> int:
        children = children_of(expr)
        if not children:
            return 1
        size = self._sizes.get(id(expr))
        if size is None:
            size = 1 + sum(self._size(c) for c in children)
            self._sizes[id(expr)] = size
            self._pinned.append(expr)
        return size

    def _simplify_outputs(self, outputs: _Outputs) -> _Outputs:
        """The outputs with every expression simplified — the same tuple
        when they all were."""
        simple = self._simple_outputs.get(id(outputs))
        if simple is None:
            simple = outputs
            simplified = tuple(
                (self._simplify(expr), name) for expr, name in outputs
            )
            if any(
                new is not old
                for (new, _), (old, _) in zip(simplified, outputs)
            ):
                simple = simplified
            self._record_simple_outputs(outputs, simple)
        return simple

    def _record_simple_outputs(
        self, outputs: _Outputs, simple: _Outputs
    ) -> None:
        self._simple_outputs[id(outputs)] = simple
        self._simple_outputs[id(simple)] = simple
        self._pinned += (outputs, simple)

    def _merge(
        self, outputs: _Outputs, inner_outputs: _Outputs
    ) -> _Outputs | None:
        """``Π_outputs ∘ Π_inner`` as one list of (simplified) outputs,
        or ``None`` when the growth budget keeps the two stacked.  Both
        arguments are simplified; a pair of tuples is attempted once."""
        key = (id(outputs), id(inner_outputs))
        if key in self._merges:
            return self._merges[key]
        self.merges_tried += 1
        substitution = _substitution(inner_outputs)
        merged = tuple(
            (self._compose(expr, substitution), name)
            for expr, name in outputs
        )
        parts_size = sum(self._size(e) for e, _ in outputs) + sum(
            self._size(e) for e, _ in inner_outputs
        )
        budget = min(
            self.config.max_expression_size,
            int(self.config.growth_factor * parts_size) + 8,
        )
        kept = None
        if sum(self._size(e) for e, _ in merged) <= budget:
            self.merges_kept += 1
            self._record_simple_outputs(merged, merged)
            kept = merged
        self._merges[key] = kept
        self._pinned += (outputs, inner_outputs)
        return kept

    def _push(self, condition: Expr, inner_outputs: _Outputs) -> Expr:
        """``θ[A ← f_A]``, the (simplified) condition below ``Π_inner``;
        composed once per pair, also when the size cap then refuses it
        and the confirming pass asks again."""
        key = (id(condition), id(inner_outputs))
        pushed = self._pushed.get(key)
        if pushed is None:
            pushed = self._pushed[key] = self._compose(
                condition, _substitution(inner_outputs)
            )
            self._pinned += (condition, inner_outputs)
        return pushed

    # -- operators ----------------------------------------------------

    def rewrite(self, op: Operator) -> Operator:
        """One bottom-up pass; ``op`` itself when no rule fired."""
        if isinstance(op, (Project, Select)):
            source = self.rewrite(op.input)
            if source is not op.input:
                op = replace(op, input=source)
            if isinstance(op, Project):
                return self._rewrite_project(op)
            return self._rewrite_select(op)
        if isinstance(op, (Union, Difference, Join)):
            left, right = self.rewrite(op.left), self.rewrite(op.right)
            if left is not op.left or right is not op.right:
                op = replace(op, left=left, right=right)
            return _prune_union(op) if isinstance(op, Union) else op
        return op

    def _rewrite_select(self, op: Select) -> Operator:
        condition = self._simplify(op.condition)
        source = op.input
        if condition == TRUE:
            return source
        if condition == FALSE and isinstance(source, RelScan):
            # keep a recognizable empty selection over the scan
            condition = FALSE
        elif isinstance(source, Select):
            # selection fusion
            return self._rewrite_select(
                Select(source.input, and_(source.condition, condition))
            )
        elif isinstance(source, Project):
            # pushdown through projection
            pushed = self._push(condition, source.outputs)
            if self._size(pushed) <= self.config.max_expression_size:
                return Project(
                    self._rewrite_select(Select(source.input, pushed)),
                    source.outputs,
                )
        elif isinstance(source, Union):
            # pushdown through union (the sides share attribute names)
            return _prune_union(
                Union(
                    self._rewrite_select(Select(source.left, condition)),
                    self._rewrite_select(Select(source.right, condition)),
                )
            )
        if condition is op.condition:
            return op
        return Select(source, condition)

    def _rewrite_project(self, op: Project) -> Operator:
        outputs = self._simplify_outputs(op.outputs)
        source = op.input
        while isinstance(source, Project):
            if _is_identity(outputs, source.outputs):
                return source
            merged = self._merge(outputs, source.outputs)
            if merged is None:
                break
            # the merged projection may merge again with what is below
            outputs, source = merged, source.input
        if outputs is op.outputs and source is op.input:
            return op
        return Project(source, outputs)
