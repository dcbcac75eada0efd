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
self-referencing chains stay stacked.  The ablation benchmark measures
the settings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Difference,
    Join,
    Operator,
    Project,
    RelScan,
    Select,
    Singleton,
    Union,
)
from .expressions import (
    Attr,
    Expr,
    FALSE,
    TRUE,
    and_,
    expr_size,
    simplify,
    substitute_attributes,
)

__all__ = ["OptimizerConfig", "optimize"]


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
    """Rewrite an operator tree to a fixpoint of the rules."""
    config = config or OptimizerConfig()
    previous = None
    current = op
    # Each pass is bottom-up; iterate until stable (rule applications can
    # enable each other, e.g. pushdown then fusion).
    for _ in range(32):
        if current == previous:
            break
        previous = current
        current = _rewrite(current, config)
    return current


def _rewrite(op: Operator, config: OptimizerConfig) -> Operator:
    # Rewrite children first.
    if isinstance(op, Project):
        op = Project(_rewrite(op.input, config), op.outputs)
    elif isinstance(op, Select):
        op = Select(_rewrite(op.input, config), op.condition)
    elif isinstance(op, Union):
        op = Union(_rewrite(op.left, config), _rewrite(op.right, config))
    elif isinstance(op, Difference):
        op = Difference(_rewrite(op.left, config), _rewrite(op.right, config))
    elif isinstance(op, Join):
        op = Join(
            _rewrite(op.left, config), _rewrite(op.right, config), op.condition
        )
    return _rewrite_node(op, config)


def _rewrite_node(op: Operator, config: OptimizerConfig) -> Operator:
    if isinstance(op, Select):
        return _rewrite_select(op, config)
    if isinstance(op, Project):
        return _rewrite_project(op, config)
    if isinstance(op, Union):
        return _rewrite_union(op)
    return op


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


def _rewrite_select(op: Select, config: OptimizerConfig) -> Operator:
    condition = simplify(op.condition)
    if condition == TRUE:
        return op.input
    if condition == FALSE and isinstance(op.input, RelScan):
        # keep a recognizable empty selection over the scan
        return Select(op.input, FALSE)
    # selection fusion
    if isinstance(op.input, Select):
        return _rewrite_select(
            Select(op.input.input, and_(op.input.condition, condition)),
            config,
        )
    # pushdown through projection
    if isinstance(op.input, Project):
        inner = op.input
        substitution = {name: expr for expr, name in inner.outputs}
        pushed = simplify(substitute_attributes(condition, substitution))
        if expr_size(pushed) <= config.max_expression_size:
            return Project(
                _rewrite_select(Select(inner.input, pushed), config),
                inner.outputs,
            )
    # pushdown through union
    if isinstance(op.input, Union):
        return _rewrite_union(
            Union(
                _rewrite_select(Select(op.input.left, condition), config),
                _rewrite_select(Select(op.input.right, condition), config),
            )
        )
    return Select(op.input, condition)


def _identity_projection(op: Project, input_schema: tuple[str, ...] | None) -> bool:
    """``Π_{A1->A1,...,An->An}`` over an input producing exactly those
    attributes (only checkable when the input is another projection)."""
    if input_schema is None:
        return False
    names = tuple(name for _, name in op.outputs)
    if names != input_schema:
        return False
    return all(
        isinstance(expr, Attr) and expr.name == name
        for expr, name in op.outputs
    )


def _rewrite_project(op: Project, config: OptimizerConfig) -> Operator:
    outputs = tuple(
        (simplify(expr), name) for expr, name in op.outputs
    )
    inner = op.input
    if isinstance(inner, Project):
        if _identity_projection(
            Project(inner, outputs),
            tuple(name for _, name in inner.outputs),
        ):
            return inner
        substitution = {name: expr for expr, name in inner.outputs}
        merged = []
        total = 0
        for expr, name in outputs:
            combined = simplify(substitute_attributes(expr, substitution))
            total += expr_size(combined)
            merged.append((combined, name))
        parts_size = sum(expr_size(e) for e, _ in outputs) + sum(
            expr_size(e) for e, _ in inner.outputs
        )
        budget = min(
            config.max_expression_size,
            int(config.growth_factor * parts_size) + 8,
        )
        if total <= budget:
            return _rewrite_project(
                Project(inner.input, tuple(merged)), config
            )
    return Project(inner, outputs)


def _rewrite_union(op: Union) -> Operator:
    if _is_empty(op.left):
        return op.right
    if _is_empty(op.right):
        return op.left
    return op
