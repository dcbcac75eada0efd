"""The *route* and *execute* stages of the answer pipeline (DESIGN.md,
"Answer pipeline" and "Sharded execution").

Route turns one (plan, relation) into a :class:`RelationShardWork` —
the calls that evaluate its delta; execute runs every work's calls
through the one task function, :func:`shard_pair_task`, and assembles
the deltas.  An unsharded work is one call answering with the
relation's delta directly.  A sharded work scales reenactment *out*
with the machinery data slicing already supplies (it tells the engine
*which* tuples a hypothetical modification can affect): the relation is
horizontally partitioned (:mod:`repro.relational.partition`), the query
pair ``(Q_H, Q_{H[M]})`` is evaluated independently per shard —
in-process or over the engine's pool (processes for the in-process
backends, threads for sqlite, whose per-thread connection cache gives
every worker its own generation-token cached connections per shard
database) — and the per-shard ``(added, removed, common)`` triples merge
back into one exact delta.

Two properties make this sound (proof sketches in DESIGN.md):

* **distributivity** — reenactment queries for histories without
  ``INSERT ... SELECT`` are trees of scan/select/project/union/singleton
  over their *own* relation, and every one of those operators distributes
  over a union of scan inputs (singletons are union-idempotent under set
  semantics), so ``∪_s Q(R_s) = Q(R)``; queries that join or read other
  relations are detected by :func:`shardable` and fall back to one
  unsharded evaluation,
* **skip routing** — a shard none of whose tuples satisfies the
  data-slicing condition ``θ_H ∨ θ_{H[M]}`` of its relation is provably
  untouched by the modification: both reenactments map each of its
  tuples identically, so the shard contributes nothing to the delta and
  skips evaluation entirely.  (Cross-shard cancellation of a skipped
  shard's images relies on histories being key-preserving — exactly the
  assumption Theorem 2's data slicing already makes; see DESIGN.md.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..relational.algebra import (
    Operator,
    Project,
    RelScan,
    Select,
    Singleton,
    Union,
    base_relations,
    evaluate_query,
    walk_operators,
)
from ..relational.database import Database
from ..relational.expressions import Expr, FALSE, TRUE, or_, simplify
from ..relational.partition import (
    ShardDelta,
    merge_shard_deltas,
    partition_relation,
    shard_delta,
)
from ..obs import trace
from ..relational.relation import Relation
from .data_slicing import DataSlicingConditions
from .degradation import record_degradation
from .delta import RelationDelta
from .pool import ResilientExecutor, run_settled

__all__ = [
    "shardable",
    "routing_condition",
    "shard_keep_mask",
    "RelationShardWork",
    "plan_relation_shards",
    "merge_relation_shards",
    "evaluate_shard_works",
]


def shardable(op: Operator, relation: str) -> bool:
    """True when ``∪_s op(R_s) = op(R)`` holds by construction.

    Requires every node to be a scan of ``relation`` itself, a
    selection, a projection, a union, or a constant singleton.  A join,
    a difference, or a scan of *another* relation (an ``INSERT ...
    SELECT`` in the history) breaks per-shard distributivity — those
    queries are evaluated unsharded.
    """
    for node in walk_operators(op):
        if isinstance(node, RelScan):
            if node.name != relation:
                return False
        elif not isinstance(node, (Select, Project, Union, Singleton)):
            return False
    return True


def _contains_singleton(op: Operator) -> bool:
    return any(isinstance(node, Singleton) for node in walk_operators(op))


def _range_key_index(schema, condition: Expr) -> int:
    """The column range partitioning sorts on: the first schema column
    the routing condition mentions, so tuples the condition selects
    cluster into few contiguous shards and the rest skip.  Falls back
    to the leading (conventionally key) column when the condition is
    unavailable or mentions nothing in the schema."""
    from ..relational.expressions import attributes_of

    mentioned = attributes_of(condition)
    for index, attribute in enumerate(schema.attributes):
        if attribute in mentioned:
            return index
    return 0


def routing_condition(
    routing: DataSlicingConditions | None, relation: str
) -> Expr:
    """The per-relation skip-routing condition ``θ_H ∨ θ_{H[M]}``.

    ``TRUE`` (no shard may skip) when no conditions are available or the
    relation is missing from both maps — missing is treated
    conservatively here, unlike the engine's relation-level skip, because
    routing decides per *shard* and must never guess.
    """
    if routing is None:
        return TRUE
    cond_h = routing.for_original.get(relation)
    cond_m = routing.for_modified.get(relation)
    if cond_h is None and cond_m is None:
        return TRUE
    return simplify(
        or_(
            cond_h if cond_h is not None else FALSE,
            cond_m if cond_m is not None else FALSE,
        )
    )


def shard_keep_mask(
    parts: Sequence[Relation],
    condition: Expr,
    *,
    protect_first: bool = False,
    witnesses: Sequence[tuple] = (),
) -> list[bool]:
    """Which shards must be evaluated under ``condition``.

    A shard is kept when any of its tuples satisfies the routing
    condition — rows the compiled predicate *errors* on count as
    matches, so routing can never skip a shard the sequential path would
    have surfaced an evaluation error for.  ``protect_first`` pins the
    first shard (reenactment singletons — inserted tuples — are
    evaluated per shard and must survive in at least one).

    ``witnesses`` are rows the adaptive planner already observed to
    satisfy the condition (or error under it — the same conservatism as
    the scan below): a shard containing one is *proven* non-skippable by
    a handful of O(1) membership probes, short-circuiting the exhaustive
    scan.  Soundness is one-sided by construction — witnesses only ever
    keep shards; the full error-conservative scan still runs wherever a
    skip remains possible, so the mask can never skip a shard the
    witness-free mask would have kept.
    """
    if condition == TRUE:
        return [True] * len(parts)
    from ..relational.exec import compile_predicate

    predicate = compile_predicate(condition, parts[0].schema)
    keep = []
    for index, part in enumerate(parts):
        if index == 0 and protect_first:
            keep.append(True)
            continue
        if witnesses and any(row in part.tuples for row in witnesses):
            keep.append(True)
            continue
        matched = False
        for row in part.tuples:
            try:
                if predicate(row):
                    matched = True
                    break
            # repro-lint: allow[broad-swallow] -- erroring rows must keep their shard, never skip
            except Exception:
                matched = True
                break
        keep.append(matched)
    return keep


def shard_pair_task(
    backend: str | None,
    query_h: Operator,
    query_m: Operator,
    db: Database,
    extra_original: Relation | None,
    extra_modified: Relation | None,
    as_shard: bool,
    profiled: bool,
) -> tuple[RelationDelta | ShardDelta, float, dict | None]:
    """Evaluate one reenactment query pair over ``db`` into its delta.

    The one task function of the pipeline's execute stage: every call of
    every :class:`RelationShardWork` runs through it, in-process or in a
    pool worker (module-level so process pools pick it up by reference;
    the operator trees and databases it receives all pickle, and workers
    compile into their own plan caches).  ``as_shard`` selects the result
    shape: a shard returns its ``(added, removed, common)`` triple for
    the merge, a whole relation its :class:`RelationDelta` directly.
    ``profiled`` is EXPLAIN ANALYZE: the same evaluation through
    :func:`repro.obs.profile.profile_query`, which materializes
    bottom-up through the same backends, so the delta equals the plain
    one.  Returns ``(delta, worker-side wall seconds, profiles)`` with
    ``profiles`` = ``{"original": ..., "modified": ...}`` or ``None``.
    """
    t0 = time.perf_counter()
    profiles = None
    if profiled:
        from ..obs.profile import profile_query

        result_h, profile_h = profile_query(query_h, db, backend=backend)
        result_m, profile_m = profile_query(query_m, db, backend=backend)
        profiles = {"original": profile_h, "modified": profile_m}
    else:
        result_h = evaluate_query(query_h, db, backend=backend)
        result_m = evaluate_query(query_m, db, backend=backend)
    if extra_original is not None:
        result_h = result_h.union(extra_original)
    if extra_modified is not None:
        result_m = result_m.union(extra_modified)
    delta = (
        shard_delta(result_h, result_m)
        if as_shard
        else RelationDelta.between(result_h, result_m)
    )
    return delta, time.perf_counter() - t0, profiles


@dataclass(frozen=True)
class RelationShardWork:
    """Planned evaluation of one (query, relation) delta.

    ``calls`` are argument tuples for :func:`shard_pair_task`, lacking
    only its trailing ``profiled`` flag (the execute stage appends it);
    ``extra`` is the insert-split pseudo-shard (the Section-10 inserted
    tuples, merged in-parent instead of shipping them to every worker);
    ``sharded`` is False for an unsharded work (one call over the start
    database itself with the extras inline, answering with the
    relation's delta directly).  ``fallback_call`` is the pre-built
    unsharded call of a *sharded* work — if any of its shard calls
    fails, :func:`evaluate_shard_works` re-evaluates the whole relation
    through it in-parent instead of failing the query (degradation
    event ``shard_fallback``)."""

    relation: str
    calls: tuple[tuple, ...]
    extra: ShardDelta | None
    schema: Any
    sharded: bool
    shard_count: int
    skipped: int
    fallback_call: tuple | None = None


def _scanned_only(call: tuple) -> tuple:
    """``call`` with its database cut down to the relations its query
    pair scans — applied only where the call is about to pickle (a
    process pool), where the whole start database would otherwise ship
    once per relation.  Everywhere else a call carries the database
    object it was routed with: the sqlite backend's connection cache is
    keyed by database identity, so a fresh subset wrapper per answer
    would re-ingest the relation server-side every time."""
    backend, query_h, query_m, db, *rest = call
    needed = base_relations(query_h) | base_relations(query_m)
    if needed >= set(db.relations):
        return call
    subset = Database(
        {name: db[name] for name in sorted(needed) if name in db}
    )
    return (backend, query_h, query_m, subset, *rest)


def _shard_databases(
    plan, relation: str, shards: int, scheme: str, key_index: int,
    partitions: dict | None,
) -> list[Database]:
    """One single-relation database per shard, memoized in ``partitions``.

    The memo stores the per-shard Database wrappers, not just the
    Relation parts: the sqlite backend's connection cache is keyed by
    database identity, so batch queries sharing a start database must
    reuse the same wrapper objects or every query would re-ingest every
    shard server-side.
    """
    key = (id(plan.start_db), relation, shards, scheme, key_index)
    shard_dbs = partitions.get(key) if partitions is not None else None
    if shard_dbs is None:
        shard_dbs = [
            Database({relation: part})
            for part in partition_relation(
                plan.start_db[relation], shards, scheme, key_index
            )
        ]
        if partitions is not None:
            partitions[key] = shard_dbs
    return shard_dbs


def plan_relation_shards(
    backend: str | None,
    plan,
    relation: str,
    shards: int,
    scheme: str,
    partitions: dict | None = None,
    hints: Mapping | None = None,
) -> RelationShardWork:
    """Route one relation's delta evaluation under ``shards`` partitions.

    ``plan`` is a :class:`~repro.core.plan.ReenactmentPlan`;
    ``partitions`` optionally memoizes partition lists across queries of
    a batch that share the same start database (keyed by database
    identity — safe because databases are immutable).  ``hints`` maps
    relation names to the adaptive planner's
    :class:`~repro.core.planner.SelectivityEstimate`: its witness rows
    let :func:`shard_keep_mask` prove shards non-skippable without
    scanning them.  ``shards`` <= 1 or a pair that is not
    :func:`shardable` yields the one-call unsharded work.
    """
    query_h = plan.queries_h[relation]
    query_m = plan.queries_m[relation]
    extra_h = extra_m = None
    if plan.inserted_original is not None:
        extra_h = plan.inserted_original[relation]
        extra_m = plan.inserted_modified[relation]
    base_schema = plan.start_db.schema_of(relation)
    whole = (backend, query_h, query_m, plan.start_db, extra_h, extra_m, False)
    if (
        shards <= 1
        or not shardable(query_h, relation)
        or not shardable(query_m, relation)
    ):
        return RelationShardWork(
            relation, (whole,), None, base_schema, False, 1, 0
        )

    condition = routing_condition(plan.routing, relation)
    key_index = _range_key_index(base_schema, condition) if (
        scheme == "range"
    ) else 0
    shard_dbs = _shard_databases(
        plan, relation, shards, scheme, key_index, partitions
    )
    hint = hints.get(relation) if hints is not None else None
    keep = shard_keep_mask(
        [shard_db[relation] for shard_db in shard_dbs],
        condition,
        protect_first=_contains_singleton(query_h)
        or _contains_singleton(query_m),
        witnesses=getattr(hint, "witnesses", ()),
    )
    calls = tuple(
        (backend, query_h, query_m, shard_db, None, None, True)
        for shard_db, kept in zip(shard_dbs, keep)
        if kept
    )
    extra = None
    if extra_h is not None:
        extra = shard_delta(extra_h, extra_m)
    return RelationShardWork(
        relation,
        calls,
        extra,
        base_schema,
        True,
        len(shard_dbs),
        keep.count(False),
        whole,
    )


def merge_relation_shards(
    work: RelationShardWork, triples: Sequence[ShardDelta]
) -> RelationDelta:
    """Merge a sharded work's shard triples (plus its insert-split
    pseudo-shard) into the relation's exact delta."""
    triples = list(triples)
    if work.extra is not None:
        triples.append(work.extra)
    return merge_shard_deltas(triples, schema=work.schema)


def evaluate_shard_works(
    works: Sequence[RelationShardWork],
    executor: ResilientExecutor | None,
    profiled: bool = False,
) -> list[tuple[RelationDelta, float, dict | None]]:
    """The execute stage's one dispatch loop: run every work's calls and
    assemble ``(delta, seconds, profiles)`` per work, preserving order.

    Flattens every work's calls into one :func:`shard_pair_task` task
    list, runs them over ``executor`` (in-process when ``None``), and
    slices the outcomes back per work: an unsharded work's single
    outcome is its answer, a sharded work's triples go through
    :func:`merge_relation_shards`.  ``seconds`` sums the work's task
    times (worker-side, so CPU cost rather than wall clock on a pool)
    and its merge.

    Graceful degradation: a failed shard call does not fail the query.
    The affected relation falls back to its pre-built unsharded call,
    evaluated in-parent (``shard_fallback`` degradation event) — a
    deterministic evaluation error simply re-raises from the unsharded
    path, exactly as the sequential engine would have surfaced it, while
    a shard-infrastructure failure recovers.  Pool breakage is handled a
    layer below by the batch watchdog.
    """
    calls = [(*call, profiled) for work in works for call in work.calls]
    if executor is not None and executor.kind == "process":
        calls = [_scanned_only(call) for call in calls]
    outcomes = run_settled(executor, shard_pair_task, calls)
    results = []
    cursor = 0
    for work in works:
        slice_ = outcomes[cursor:cursor + len(work.calls)]
        cursor += len(work.calls)
        failures = [value for ok, value in slice_ if not ok]
        if failures:
            if work.fallback_call is None:
                # Already unsharded: nothing gentler to degrade to.
                raise failures[0]
            record_degradation("shard_fallback")
            results.append(shard_pair_task(*work.fallback_call, profiled))
        elif not work.sharded:
            results.append(slice_[0][1])
        else:
            seconds = 0.0
            for shard_index, (_, value) in enumerate(slice_):
                # Pool workers see no active trace; their timings come
                # back with the results and are attached here.
                trace.record_span(
                    "shard", value[1],
                    relation=work.relation, shard=shard_index,
                )
                seconds += value[1]
            t0 = time.perf_counter()
            with trace.span("merge", relation=work.relation):
                delta = merge_relation_shards(
                    work, [value[0] for _, value in slice_]
                )
            seconds += time.perf_counter() - t0
            results.append((delta, seconds, None))
    return results
