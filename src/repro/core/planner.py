"""Cost-based adaptive execution planning (DESIGN.md, "Adaptive planning").

PR 5's sharded execution shipped with a foot-gun: 4-shard execution is a
0.66–0.81x *slowdown* on R+PS+DS, because partitioning, routing scans
and pool dispatch cost more than the tiny data-sliced inputs save.  This
module decides *per query* whether sharding pays, from statistics that
are already nearly free at planning time:

* relation cardinalities — ``len(plan.start_db[relation])``,
* routing-condition selectivity — estimated by evaluating the compiled
  ``θ_H ∨ θ_{H[M]}`` predicate over a **bounded sample** of rows
  (``DEFAULT_SAMPLE_LIMIT``), instead of the full O(n) parent-side scan
  :func:`repro.core.shard.shard_keep_mask` performs; sampled matches are
  kept as *witness* rows that later prove shards non-skippable without
  rescanning them,
* shardability — :func:`repro.core.shard.shardable` per query pair,
* per-backend constant costs — :data:`DEFAULT_COST_MODEL`, measured at
  PR 6 on a 40 000-row, 12-update range workload (see git history).

The output is an :class:`ExecutionChoice` — shard count, worker count,
partition scheme and backend — consumed by ``Mahif.answer`` /
``answer_batch`` when ``MahifConfig(shards="auto")`` (stored as the
``AUTO_SHARDS`` = 0 sentinel) and surfaced verbatim in service payloads.

Soundness is never delegated to the estimates: a mispredicted
selectivity can only cost time.  Witnesses only ever *keep* shards
(skipping still requires :func:`shard_keep_mask`'s exhaustive
error-conservative scan), and a choice of ``shards=1`` simply runs the
sequential path that defines correctness.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Mapping

from ..obs import trace
from ..obs.metrics import global_registry
from ..relational.algebra import operator_count
from ..relational.expressions import TRUE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import MahifConfig
    from .plan import ReenactmentPlan

__all__ = [
    "AUTO_SHARDS",
    "DEFAULT_SAMPLE_LIMIT",
    "MAX_AUTO_SHARDS",
    "SelectivityEstimate",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "ExecutionChoice",
    "estimate_relation",
    "plan_execution",
]

#: ``MahifConfig.shards`` sentinel for "let the planner decide".
#: ``shards="auto"`` normalizes to this at config construction.
AUTO_SHARDS = 0

#: Rows sampled per relation when estimating routing selectivity.  The
#: sample walks the relation at a fixed stride, so cost is bounded by
#: the limit regardless of cardinality (~20µs at 256 rows).
DEFAULT_SAMPLE_LIMIT = 256

#: Witness rows retained per relation: enough to cover every shard the
#: planner would create, cheap enough to probe per shard.
MAX_WITNESSES = 32

#: Largest shard count the planner will choose on its own.
MAX_AUTO_SHARDS = 16

#: Candidate shard counts evaluated by :func:`plan_execution`.
_SHARD_CANDIDATES = (2, 4, 8, 16)


@dataclass(frozen=True)
class SelectivityEstimate:
    """Sampled routing statistics for one affected relation.

    ``trivial`` means the routing condition is ``TRUE`` (or could not be
    compiled): no shard may skip, selectivity is pinned to 1 and there
    are no witnesses.  ``witnesses`` are sampled rows that *satisfy* the
    routing condition (rows the predicate errored on are included — the
    same conservatism as ``shard_keep_mask``): any shard containing one
    is provably non-skippable without scanning it.
    """

    relation: str
    cardinality: int
    sampled: int
    matched: int
    shardable: bool
    trivial: bool
    witnesses: tuple[tuple[Any, ...], ...] = ()

    @property
    def selectivity(self) -> float:
        """Estimated fraction of rows the routing condition selects."""
        if self.trivial:
            return 1.0
        if not self.sampled:
            return 1.0 if self.cardinality else 0.0
        return self.matched / self.sampled


# Constants measured at PR 6 on a 40 000-row, 12-update range workload
# (see git history): range partitioning (sort + per-shard Relation
# rebuild) costs ~1.8e-6 s per row — which is exactly why sharding loses
# on R+PS+DS: partitioning 40k rows (~73ms) costs more than the whole
# sliced evaluation.  "compiled" and "vector" run a query on the same
# columnar evaluator and share its constants: whole-column kernels
# amortise per-row dispatch (the row pipelines they replaced measured
# 4.7e-7 s per (row × operator) and 1.2e-6 s per data-sliced row), and
# every kept shard is a relation never seen before, so a static
# ``shards=N`` pays one cold columnarization per shard row.
# Interpreted scales by its measured hot-path ratio (~10x the row
# pipelines); sqlite pays an extra per-row shard ingest (every shard
# becomes its own server-side database).
_DEFAULT_ROW_OP_COST = MappingProxyType({
    "interpreted": 5.0e-6,
    "compiled": 4.0e-7,
    "sqlite": 6.0e-7,
    "vector": 4.0e-7,
})
_DEFAULT_DS_ROW_COST = MappingProxyType({
    "interpreted": 1.2e-5,
    "compiled": 8.0e-7,
    "sqlite": 1.5e-6,
    "vector": 8.0e-7,
})
_DEFAULT_SHARD_ROW_COST = MappingProxyType({
    "interpreted": 0.0,
    "compiled": 3.0e-7,
    "sqlite": 2.5e-6,
    "vector": 3.0e-7,
})


@dataclass(frozen=True)
class CostModel:
    """Per-backend constants the planner prices candidate plans with.

    All costs are seconds.  ``row_op_cost`` prices one (row × operator)
    of unfiltered evaluation; ``ds_row_cost`` one scanned row of a
    data-sliced pair (the injected selections make per-operator cost
    negligible past the scan); ``shard_row_cost`` extra per-row cost a
    backend pays per *evaluated* shard row (sqlite re-ingests each shard
    as its own database).  ``min_benefit_seconds`` and ``min_speedup``
    are the margins a sharded candidate must clear over the sequential
    estimate before the planner risks it — estimates are coarse, and a
    wrong ``shards>1`` costs real time while a wrong ``shards=1`` only
    forgoes a speedup.
    """

    row_op_cost: Mapping[str, float] = field(
        default_factory=lambda: _DEFAULT_ROW_OP_COST
    )
    ds_row_cost: Mapping[str, float] = field(
        default_factory=lambda: _DEFAULT_DS_ROW_COST
    )
    shard_row_cost: Mapping[str, float] = field(
        default_factory=lambda: _DEFAULT_SHARD_ROW_COST
    )
    partition_row_cost: float = 1.8e-6
    keep_scan_row_cost: float = 7.5e-8
    merge_row_cost: float = 3.0e-7
    shard_fixed_cost: float = 3.0e-4
    planning_cost: float = 1.0e-3
    min_benefit_seconds: float = 0.010
    min_speedup: float = 1.25
    #: Parallel dispatch only pays past this much parallelizable work
    #: (fork/pickle/IPC overhead; below it, serial shard evaluation with
    #: skip routing is the faster "parallel" plan).
    parallel_threshold_seconds: float = 0.5

    def row_op(self, backend: str) -> float:
        return self.row_op_cost.get(backend, _DEFAULT_ROW_OP_COST["compiled"])

    def ds_row(self, backend: str) -> float:
        return self.ds_row_cost.get(backend, _DEFAULT_DS_ROW_COST["compiled"])

    def shard_row(self, backend: str) -> float:
        return self.shard_row_cost.get(backend, 0.0)


DEFAULT_COST_MODEL = CostModel()


@dataclass(frozen=True)
class ExecutionChoice:
    """The planner's verdict for one reenactment plan.

    ``estimates`` carries the per-relation sampled statistics so the
    shard layer can reuse the witnesses (keep-mask short-circuit) and so
    tests/benchmarks can inspect what the decision was based on.
    """

    shards: int
    shard_workers: int
    scheme: str
    backend: str
    estimated_seconds: float
    baseline_seconds: float
    reason: str
    estimates: Mapping[str, SelectivityEstimate] = field(
        default_factory=dict
    )

    def payload(self) -> dict[str, Any]:
        """JSON-safe summary recorded in service response payloads."""
        return {
            "shards": self.shards,
            "shard_workers": self.shard_workers,
            "scheme": self.scheme,
            "backend": self.backend,
            "estimated_seconds": round(self.estimated_seconds, 6),
            "baseline_seconds": round(self.baseline_seconds, 6),
            "reason": self.reason,
        }


def _rows_of(relation: Any) -> Any:
    """Row container of a set or bag relation (distinct rows for bags)."""
    tuples = getattr(relation, "tuples", None)
    if tuples is not None:
        return tuples
    return getattr(relation, "multiplicities", ())


def estimate_relation(
    plan: "ReenactmentPlan",
    relation: str,
    *,
    sample_limit: int = DEFAULT_SAMPLE_LIMIT,
) -> SelectivityEstimate:
    """Sample one relation's routing selectivity (bounded, never O(n)).

    Walks the relation's rows at a fixed stride so at most
    ``sample_limit`` predicate evaluations happen however large the
    relation is.  Rows the predicate errors on count as matches *and*
    witnesses — mirroring ``shard_keep_mask``'s never-skip-on-error
    rule, so a witness is always a row the exhaustive scan would also
    have kept its shard for.
    """
    from .shard import routing_condition, shardable

    rel = plan.start_db[relation]
    cardinality = len(rel)
    is_shardable = shardable(plan.queries_h[relation], relation) and (
        shardable(plan.queries_m[relation], relation)
    )
    condition = routing_condition(plan.routing, relation)
    if condition == TRUE or cardinality == 0:
        return SelectivityEstimate(
            relation, cardinality, 0, 0, is_shardable, True
        )
    from ..relational.exec import compile_predicate

    try:
        predicate = compile_predicate(condition, rel.schema)
    # repro-lint: allow[broad-swallow] -- uncompilable condition degrades to all-match, costs only speed
    except Exception:
        return SelectivityEstimate(
            relation, cardinality, 0, 0, is_shardable, True
        )
    rows = _rows_of(rel)
    stride = max(1, len(rows) // max(1, sample_limit))
    sampled = matched = 0
    witnesses: list[tuple[Any, ...]] = []
    for index, row in enumerate(rows):
        if index % stride:
            continue
        sampled += 1
        try:
            hit = bool(predicate(row))
        # repro-lint: allow[broad-swallow] -- mirrors shard_keep_mask: erroring rows must match
        except Exception:
            hit = True
        if hit:
            matched += 1
            if len(witnesses) < MAX_WITNESSES:
                witnesses.append(row)
        if sampled >= sample_limit:
            break
    return SelectivityEstimate(
        relation,
        cardinality,
        sampled,
        matched,
        is_shardable,
        False,
        tuple(witnesses),
    )


def _evaluated_shards(
    estimate: SelectivityEstimate,
    shards: int,
    scheme: str,
    has_singleton: bool,
) -> int:
    """Expected number of shards the keep mask retains.

    Range partitioning clusters the (key-correlated) routing matches
    into contiguous shards, so roughly ``ceil(selectivity × shards)``
    survive — plus one shard of slack for imperfect clustering and the
    protected first shard singletons pin.  Hash partitioning scatters
    matches uniformly: any real selectivity touches essentially every
    shard, so skipping is only modelled for an exactly-zero sample.
    """
    if estimate.trivial:
        return shards
    selectivity = estimate.selectivity
    if scheme != "range":
        return shards if selectivity > 0 else 1
    base = math.ceil(selectivity * shards)
    slack = 1 if (has_singleton or 0 < selectivity) else 0
    return max(1, min(shards, base + slack))


def _relation_cost(
    model: CostModel,
    backend: str,
    estimate: SelectivityEstimate,
    ops: int,
    filtered: bool,
    shards: int,
    scheme: str,
    has_singleton: bool,
) -> float:
    """Predicted seconds to evaluate one relation's delta at ``shards``.

    ``filtered`` marks DS methods, whose injected selections make the
    pair's cost scan-dominated: ``card × ds_row + s × card × ops ×
    row_op``.  Unfiltered pairs stream every row through every
    operator: ``card × ops × row_op``.  Sharded plans add partitioning,
    the keep-mask scan, per-shard merge and fixed costs, and only
    evaluate the kept fraction of rows.
    """
    card = estimate.cardinality
    selectivity = estimate.selectivity

    def pair_cost(rows: float) -> float:
        if filtered:
            return rows * model.ds_row(backend) + (
                selectivity * card * ops * model.row_op(backend)
            )
        return rows * ops * model.row_op(backend)

    if shards <= 1 or not estimate.shardable:
        return pair_cost(card)
    evaluated = _evaluated_shards(estimate, shards, scheme, has_singleton)
    fraction = evaluated / shards
    cost = card * model.partition_row_cost
    if not estimate.trivial:
        cost += card * model.keep_scan_row_cost
    cost += pair_cost(fraction * card)
    cost += fraction * card * (
        model.merge_row_cost + model.shard_row(backend)
    )
    cost += evaluated * model.shard_fixed_cost
    return cost


#: Planner decisions by outcome (process-global: the planner runs deep
#: inside engines that do not know which service owns them).
_PLANNER_CHOICES = global_registry().counter(
    "mahif_planner_choice_total",
    "Adaptive-planner execution choices by decision "
    "(sharded, sequential).",
    ("decision",),
)


def plan_execution(
    plan: "ReenactmentPlan",
    config: "MahifConfig",
    *,
    cost_model: CostModel | None = None,
    sample_limit: int = DEFAULT_SAMPLE_LIMIT,
    max_shards: int = MAX_AUTO_SHARDS,
) -> ExecutionChoice:
    """Choose an execution configuration for one reenactment plan,
    recording the decision (counter + trace span) on the way out.

    See :func:`_plan_execution_inner` for the costing itself.
    """
    with trace.span("planner") as span_:
        choice = _plan_execution_inner(
            plan,
            config,
            cost_model=cost_model,
            sample_limit=sample_limit,
            max_shards=max_shards,
        )
        span_.set_attributes(
            {
                "shards": choice.shards,
                "shard_workers": choice.shard_workers,
                "scheme": choice.scheme,
                "backend": choice.backend,
                "estimated_seconds": choice.estimated_seconds,
                "baseline_seconds": choice.baseline_seconds,
                "reason": choice.reason,
            }
        )
    _PLANNER_CHOICES.inc(
        decision="sharded" if choice.shards > 1 else "sequential"
    )
    return choice


def _plan_execution_inner(
    plan: "ReenactmentPlan",
    config: "MahifConfig",
    *,
    cost_model: CostModel | None = None,
    sample_limit: int = DEFAULT_SAMPLE_LIMIT,
    max_shards: int = MAX_AUTO_SHARDS,
) -> ExecutionChoice:
    """Choose an execution configuration for one reenactment plan.

    Prices the plan at shards ∈ {1} ∪ ``_SHARD_CANDIDATES`` (bounded by
    ``max_shards``) under the cost model and keeps the cheapest — but
    only commits to sharding when it clears both safety margins
    (``min_benefit_seconds`` absolute and ``min_speedup`` relative),
    because an over-eager shard choice re-creates exactly the regression
    this planner exists to fix.  Workers are enabled only when at least
    two shards will actually be evaluated *and* the parallelizable
    evaluation work dwarfs pool dispatch overhead.
    """
    from .shard import _contains_singleton

    from .shard import shardable

    backend = config.backend
    model = cost_model or DEFAULT_COST_MODEL
    scheme = config.shard_scheme
    filtered = plan.method.uses_data_slicing

    ops: dict[str, int] = {}
    singleton: dict[str, bool] = {}
    cheap: dict[str, SelectivityEstimate] = {}
    for relation in sorted(plan.affected):
        ops[relation] = operator_count(
            plan.queries_h[relation]
        ) + operator_count(plan.queries_m[relation])
        singleton[relation] = _contains_singleton(
            plan.queries_h[relation]
        ) or _contains_singleton(plan.queries_m[relation])
        # Statistics that cost nothing: cardinality and shardability.
        # Selectivity optimistically 0 (matched=0 over a nonzero
        # sample) — the benefit of sharding is maximal there, which is
        # what the quick-reject bound below needs.
        cheap[relation] = SelectivityEstimate(
            relation,
            len(plan.start_db[relation]),
            1,
            0,
            shardable(plan.queries_h[relation], relation)
            and shardable(plan.queries_m[relation], relation),
            False,
        )

    def total_with(
        estimates: Mapping[str, SelectivityEstimate], shards: int
    ) -> float:
        return sum(
            _relation_cost(
                model, backend, estimates[rel], ops[rel], filtered,
                shards, scheme, singleton[rel],
            )
            for rel in estimates
        )

    # Quick reject, before compiling or sampling any routing predicate:
    # both the sequential and the sharded cost are non-decreasing in
    # selectivity and the sharded side rises at least as fast (more
    # shards survive the keep mask), so the benefit of sharding is
    # largest at selectivity 0.  If even that optimistic bound cannot
    # clear the margins, planning ends here — the planner's own
    # overhead on sub-threshold inputs is exactly the kind of
    # regression it exists to prevent.
    cheap_baseline = total_with(cheap, 1)
    optimistic = min(
        (
            total_with(cheap, shards)
            for shards in _SHARD_CANDIDATES
            if shards <= max_shards
        ),
        default=cheap_baseline,
    )
    if (
        cheap_baseline - optimistic < model.min_benefit_seconds
        or cheap_baseline < model.min_speedup * optimistic
    ):
        return ExecutionChoice(
            shards=1,
            shard_workers=0,
            scheme=scheme,
            backend=backend,
            estimated_seconds=cheap_baseline,
            baseline_seconds=cheap_baseline,
            reason=(
                f"sequential: est {cheap_baseline:.4f}s; sharding cannot "
                f"clear the margin even at selectivity 0"
            ),
            estimates=cheap,
        )

    estimates: dict[str, SelectivityEstimate] = {
        relation: estimate_relation(
            plan, relation, sample_limit=sample_limit
        )
        for relation in sorted(plan.affected)
    }

    baseline = total_with(estimates, 1)
    best_shards, best_cost = 1, baseline
    for shards in _SHARD_CANDIDATES:
        if shards > max_shards:
            continue
        cost = total_with(estimates, shards) + model.planning_cost
        if cost < best_cost:
            best_shards, best_cost = shards, cost

    if best_shards > 1 and (
        baseline - best_cost < model.min_benefit_seconds
        or baseline < model.min_speedup * best_cost
    ):
        best_shards, best_cost = 1, baseline

    workers = 0
    reason = (
        f"sequential: est {baseline:.4f}s; sharding clears no margin"
    )
    if best_shards > 1:
        evaluated_total = sum(
            _evaluated_shards(
                estimates[rel], best_shards, scheme, singleton[rel]
            )
            for rel in estimates
            if estimates[rel].shardable
        )
        parallel_work = sum(
            _relation_cost(
                model, backend, estimates[rel], ops[rel], filtered,
                best_shards, scheme, singleton[rel],
            )
            for rel in estimates
            if estimates[rel].shardable
        )
        if (
            evaluated_total >= 2
            and parallel_work >= model.parallel_threshold_seconds
        ):
            workers = max(
                0, min(evaluated_total, best_shards, os.cpu_count() or 1)
            )
            if workers < 2:
                workers = 0
        reason = (
            f"sharded x{best_shards}: est {best_cost:.4f}s vs "
            f"{baseline:.4f}s sequential"
        )
    return ExecutionChoice(
        shards=best_shards,
        shard_workers=workers,
        scheme=scheme,
        backend=backend,
        estimated_seconds=best_cost,
        baseline_seconds=baseline,
        reason=reason,
        estimates=estimates,
    )
