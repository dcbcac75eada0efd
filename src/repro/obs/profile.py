"""EXPLAIN ANALYZE-style per-operator profiling for reenactment plans.

:func:`profile_query` evaluates an operator tree bottom-up, timing each
operator's *own* work and counting its output rows: children are
profiled first and materialized, then the node is re-rooted over a
scratch database in which each child subtree is replaced by a scan of
its materialized result.  Because the re-rooted single-operator tree is
evaluated through the ordinary backend seam, the same profiler covers
all four backends — compiled pipelines, the interpreted oracle, the
sqlite translation and the vector kernels — without per-backend hooks,
and the final relation is exactly what plain evaluation would have
produced (the per-node materialization is the documented EXPLAIN
ANALYZE overhead; profiling is a diagnostic mode, never the hot path).

The result is an :class:`OperatorProfile` tree mirroring the plan
shape, with a terminal :meth:`~OperatorProfile.pretty` rendering::

    Union [rows=4 time=0.21ms]
      Project ShippingFee+5 -> ShippingFee [rows=2 time=0.08ms]
        Select Country = 'UK' [rows=2 time=0.05ms]
          RelScan Orders [rows=4 time=0.02ms]
      ...

and a JSON-friendly :meth:`~OperatorProfile.payload` for the service
API (``{"explain": true}`` on ``/histories/<name>/whatif``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from ..relational.algebra import (
    Difference,
    Join,
    Operator,
    Project,
    RelScan,
    Select,
    Singleton,
    Union,
    evaluate_query,
)
from ..relational.database import Database
from ..relational.relation import Relation

__all__ = ["OperatorProfile", "profile_query"]

#: Prefix for the scratch relations holding materialized child results;
#: reenactment never names user relations like this.
_SCRATCH = "__mahif_profile_"

_DETAIL_LIMIT = 72


@dataclass(frozen=True)
class OperatorProfile:
    """Wall time and output cardinality for one operator evaluation."""

    operator: str
    detail: str
    rows: int
    seconds: float
    children: tuple["OperatorProfile", ...] = field(default_factory=tuple)

    @property
    def total_seconds(self) -> float:
        """This operator plus everything below it."""
        return self.seconds + sum(c.total_seconds for c in self.children)

    def payload(self) -> dict:
        return {
            "operator": self.operator,
            "detail": self.detail,
            "rows": self.rows,
            "seconds": self.seconds,
            "children": [c.payload() for c in self.children],
        }

    @classmethod
    def from_payload(cls, data: dict) -> "OperatorProfile":
        return cls(
            operator=str(data.get("operator", "?")),
            detail=str(data.get("detail", "")),
            rows=int(data.get("rows", 0)),
            seconds=float(data.get("seconds", 0.0)),
            children=tuple(
                cls.from_payload(c) for c in data.get("children", ())
            ),
        )

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        detail = f" {self.detail}" if self.detail else ""
        line = (
            f"{pad}{self.operator}{detail} "
            f"[rows={self.rows} time={self.seconds * 1000:.2f}ms]"
        )
        parts = [line]
        parts.extend(c.pretty(indent + 1) for c in self.children)
        return "\n".join(parts)


def _clip(text: str) -> str:
    text = " ".join(text.split())
    if len(text) > _DETAIL_LIMIT:
        return text[: _DETAIL_LIMIT - 1] + "…"
    return text


def _describe(op: Operator) -> tuple[str, str]:
    """(operator kind, short human detail) for one node."""
    if isinstance(op, RelScan):
        return "RelScan", op.name
    if isinstance(op, Singleton):
        return "Singleton", _clip(repr(op.row))
    if isinstance(op, Project):
        return "Project", _clip(
            ", ".join(f"{expr} -> {name}" for expr, name in op.outputs)
        )
    if isinstance(op, Select):
        return "Select", _clip(str(op.condition))
    if isinstance(op, Union):
        return "Union", ""
    if isinstance(op, Difference):
        return "Difference", ""
    if isinstance(op, Join):
        return "Join", _clip(str(op.condition))
    return type(op).__name__, ""


def _children(op: Operator) -> tuple[Operator, ...]:
    if isinstance(op, (Project, Select)):
        return (op.input,)
    if isinstance(op, (Union, Difference, Join)):
        return (op.left, op.right)
    return ()


def _with_children(op: Operator, children: tuple[Operator, ...]) -> Operator:
    if isinstance(op, Project):
        return Project(children[0], op.outputs)
    if isinstance(op, Select):
        return Select(children[0], op.condition)
    if isinstance(op, Union):
        return Union(children[0], children[1])
    if isinstance(op, Difference):
        return Difference(children[0], children[1])
    if isinstance(op, Join):
        return Join(children[0], children[1], op.condition)
    raise TypeError(f"operator {type(op).__name__} has no children")


def profile_query(
    op: Operator,
    db: Database,
    backend: str | None = None,
    clock: Callable[[], float] = perf_counter,
) -> tuple[Relation, OperatorProfile]:
    """Evaluate ``op`` over ``db`` with per-operator instrumentation.

    Returns ``(result, profile)`` where ``result`` equals
    ``evaluate_query(op, db, backend=backend)`` and ``profile`` is the
    per-operator time/row tree.  ``clock`` is injectable for
    deterministic timing in tests.
    """
    kind, detail = _describe(op)
    children = _children(op)
    if not children:
        # Leaves (RelScan / Singleton) evaluate directly over the real
        # database, so scans are timed against actual base relations.
        start = clock()
        result = evaluate_query(op, db, backend=backend)
        elapsed = clock() - start
        return result, OperatorProfile(kind, detail, len(result), elapsed)

    profiled = [
        profile_query(child, db, backend=backend, clock=clock)
        for child in children
    ]
    scratch: dict[str, Relation] = {}
    scans: list[Operator] = []
    for i, (child_result, _) in enumerate(profiled):
        name = f"{_SCRATCH}{i}"
        scratch[name] = child_result
        scans.append(RelScan(name))
    rerooted = _with_children(op, tuple(scans))
    scratch_db = Database(scratch)
    start = clock()
    result = evaluate_query(rerooted, scratch_db, backend=backend)
    elapsed = clock() - start
    profile = OperatorProfile(
        kind,
        detail,
        len(result),
        elapsed,
        tuple(p for _, p in profiled),
    )
    return result, profile
