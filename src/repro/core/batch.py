"""The answer pipeline driver (DESIGN.md, "Answer pipeline").

The paper's Algorithm 2 is one pipeline, and :func:`answer_batch_with`
is the one way this engine runs it, for one query (``Mahif.answer``) or
N over a shared history (``Mahif.answer_batch``):

1. **Time travel** — every distinct ``(database, history-prefix)``
   version is materialized once (:func:`shared_start_databases`) and
   kept in the engine's :class:`~repro.core.engine.VersionCache`;
   versions are built shallowest-first so a deeper prefix replays only
   the statements past the deepest shared prefix already computed, in
   this call or an earlier one.
2. **Plan** — :func:`repro.core.plan.plan_reenactment` per query.
   Queries whose (sliced) statement pairs are structurally identical
   share finished operator trees, data-slicing conditions and optimized
   plans through a per-call keyed cache; fresh plans are statically
   verified once (``MahifConfig(verify_plans=True)``), cache hits skip
   the check.
3. **Execute** — one call of one task function, :func:`pair_task`,
   per (query, affected relation), in-process or over the engine's
   pool (:mod:`repro.core.pool`: processes for the in-process backends
   — operator trees, databases and deltas all pickle — threads for
   sqlite).
4. **Assemble** — one :class:`~repro.core.engine.MahifResult` per query.

``Method.NAIVE`` has no plan to execute: its queries replay through
:func:`~repro.core.naive.naive_what_if` over the same pool.

Worker tasks are module-level functions so they pickle by reference for
the process pool.  Process-pool IPC stays bounded: plan results return
with ``start_db`` stripped, and on its way to a process pool a call is
cut down to the relations its query pair scans.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Sequence

from ..obs import trace
from ..obs.metrics import global_registry
from ..relational import columnar
from ..relational.algebra import Operator, base_relations
from ..relational.database import Database
from ..relational.exec.backend import resolve_backend
from ..relational.relation import Relation
from ..relational.statements import Statement
from .delta import DatabaseDelta, RelationDelta
from .engine import Mahif, MahifResult, Method, PrefixKey, VersionCache
from .hwq import HistoricalWhatIfQuery
from .naive import naive_what_if
from .plan import ReenactmentPlan, plan_reenactment, share_key_and_hash
from .pool import ResilientExecutor, run_tasks

__all__ = [
    "ResilientExecutor",
    "answer_batch_with",
    "pair_task",
    "prefix_key",
    "shared_start_databases",
]


#: Time travel by what the version cache it ran against could
#: contribute.  An empty prefix (first statement modified) has nothing
#: to look up and is not counted.
_VERSION_OUTCOMES = global_registry().counter(
    "mahif_version_cache_total",
    "Time travel to a non-empty history prefix by version-cache "
    "outcome: hit (nothing replayed), extended (replayed from a "
    "shallower kept version), miss (replayed from the base database).",
    ("outcome",),
)


def prefix_key(prefix: Sequence[Statement]) -> PrefixKey | None:
    """The (non-empty) prefix as a version cache keys it, or ``None``
    when a statement embeds an unhashable constant (no sharing then).
    Built from what :mod:`repro.core.plan` remembers per statement
    object, so keying a prefix a second time walks and hashes no
    statement."""
    keys, hashes = zip(*map(share_key_and_hash, prefix))
    return None if None in hashes else PrefixKey(keys, hash(hashes))


def _time_travel(
    queries: Sequence[HistoricalWhatIfQuery],
    backend: str | None,
    versions: VersionCache,
) -> tuple[list[tuple[Database, float]], int]:
    """``(start database, seconds it cost)`` per query, and the prefix
    statements applied for all of them together — see
    :func:`shared_start_databases`.  A query is charged its own
    alignment, lookup and the statements replayed on its behalf; one
    that finds its version already there is charged the lookup."""
    apply = resolve_backend(backend).apply
    prefixes, seconds = [], []
    for query in queries:
        t0 = time.perf_counter()
        _, prefix_length = query.aligned().trim_prefix()
        prefixes.append(query.history.statements[:prefix_length])
        seconds.append(time.perf_counter() - t0)
    states: list[Database | None] = [None] * len(queries)
    replayed = 0
    for index in sorted(range(len(queries)), key=lambda i: len(prefixes[i])):
        t0 = time.perf_counter()
        prefix = prefixes[index]
        base = state = queries[index].database
        key = prefix_key(prefix) if prefix else None
        done = 0
        if key is not None:
            done, state = versions.deepest(base, key)
            _VERSION_OUTCOMES.inc(
                outcome="hit" if done == len(prefix)
                else "extended" if done else "miss"
            )
        for stmt in prefix[done:]:
            state = apply(stmt, state)
        replayed += len(prefix) - done
        if key is not None and done < len(prefix):
            state = versions.put(base, key, state)
        states[index] = state
        seconds[index] += time.perf_counter() - t0
    return list(zip(states, seconds)), replayed  # type: ignore[arg-type]


def shared_start_databases(
    queries: Sequence[HistoricalWhatIfQuery],
    backend: str | None = None,
    versions: VersionCache | None = None,
) -> list[Database]:
    """The time-travelled start database for every query, shared.

    Queries over the same database instance share prefix replay work:
    distinct prefixes are materialized shallowest-first, each starting
    from the deepest already-materialized prefix of itself, so a batch
    whose modifications all sit at one position replays the common
    prefix exactly once.  ``versions`` is where materialized versions
    are kept — the caller's :class:`~repro.core.engine.VersionCache`
    (an engine's, the what-if service's), so the sharing extends across
    its calls (a what-if at position 35 after one at 30 replays 5
    statements); a caller without one shares within this call only.
    Statements replay through the named execution backend (``None``:
    compiled).  Under an active trace the caller's span is told how many
    statements were applied (``replayed``).
    """
    if versions is None:
        versions = VersionCache()
    travelled, replayed = _time_travel(queries, backend, versions)
    span = trace.current_span()
    if span is not None:
        span.set_attribute("replayed", replayed)
    return [state for state, _ in travelled]


def _plan_task(config, query, method, start_db, shared):
    """Per-query planning (insert split + program slicing + reenactment
    trees) as a pipeline task: slicing is solver-bound pure Python, so
    it must cross to worker processes to parallelize.

    The returned plan has ``start_db`` stripped — the caller already
    holds it, and shipping the database back through the process pool's
    result pickle would double the IPC cost."""
    plan = plan_reenactment(config, query, method, start_db, shared)
    return dataclasses.replace(plan, start_db=None)


def answer_batch_with(
    engine: Mahif,
    queries: Sequence[HistoricalWhatIfQuery],
    method: Method,
    workers: int | None = None,
    start_databases: Sequence[Database] | None = None,
    *,
    explain: bool = False,
    current_states: Sequence[Database | None] | None = None,
) -> list[MahifResult]:
    """Run the answer pipeline over ``queries`` with ``method``; the
    worker behind :meth:`Mahif.answer` and :meth:`Mahif.answer_batch`.
    Every stage that executes anything — time travel, the insert split,
    the evaluation tasks, naive replay — is handed ``config.backend``.

    ``start_databases`` optionally injects the time-travelled state
    before each query's first modified statement, the one way a state
    enters the engine from outside — the what-if service passes what
    :func:`shared_start_databases` found in (or added to) the service's
    own :class:`~repro.core.engine.VersionCache`, which its stores seed
    with checkpoints, so the engine's cache is not consulted.
    ``current_states`` optionally hands ``Method.NAIVE`` each query's
    ``H(D)``.

    ``workers`` (default ``config.batch_workers``) > 1 runs the plan
    stage over the engine's pool and widens the execute stage's (see
    :func:`_execute_stage` for the sizing rule); a stage with a single
    call always runs in-process — there is nothing to overlap.

    ``explain=True`` attaches EXPLAIN ANALYZE per-operator profiles to
    every result: the execute stage runs the same calls in-process
    through the profiling evaluator (per-node materialization is a
    diagnostic mode, not the hot path), though planning still shares
    work across the batch.
    """
    if not queries:
        return []
    if start_databases is not None and len(start_databases) != len(queries):
        raise ValueError(
            "start_databases must supply one database per query"
        )
    config = engine.config
    if workers is None:
        workers = config.batch_workers
    if method is Method.NAIVE:
        return _answer_naive(engine, queries, workers, current_states)
    if start_databases is not None:
        travelled = [(database, 0.0) for database in start_databases]
    else:
        travelled, _ = _time_travel(queries, config.backend, engine._versions)
    start_dbs = [database for database, _ in travelled]
    executor, _ = engine._executor(workers, len(queries))
    plans = _plan_stage(config, queries, method, start_dbs, executor)
    executed = _execute_stage(engine, config, workers, plans, explain)
    return [
        MahifResult(
            delta=DatabaseDelta(entry.deltas),
            method=method,
            ps_seconds=plan.ps_seconds,
            exe_seconds=plan.build_seconds + entry.seconds,
            time_travel_seconds=seconds,
            slice_result=plan.slice_result,
            data_slicing=plan.data_slicing,
            queries_original=plan.queries_h,
            queries_modified=plan.queries_m,
            base_database=plan.start_db,
            profile=entry.profiles if explain else None,
        )
        for plan, entry, (_, seconds) in zip(plans, executed, travelled)
    ]


def _answer_naive(
    engine: Mahif, queries, workers: int, current_states
) -> list[MahifResult]:
    """``Method.NAIVE`` has no reenactment plan: statement replay
    (Algorithm 1), one task per query."""
    states = current_states or [None] * len(queries)
    executor, _ = engine._executor(workers, len(queries))
    naives = run_tasks(
        executor,
        naive_what_if,
        [
            (query, state, engine.config.backend)
            for query, state in zip(queries, states)
        ],
    )
    return [
        MahifResult(
            delta=naive.delta,
            method=Method.NAIVE,
            exe_seconds=naive.total_seconds,
            naive_breakdown=naive,
        )
        for naive in naives
    ]


def _plan_stage(
    config,
    queries: Sequence[HistoricalWhatIfQuery],
    method: Method,
    start_dbs: Sequence[Database],
    executor: ResilientExecutor | None,
) -> list[ReenactmentPlan]:
    """Plan every query, over the pool when there is one.  Only
    in-process and thread-pool planning can mutate the call's shared
    plan cache in place; process workers plan each query afresh."""
    shared: dict | None = {}
    if executor is not None and executor.kind == "process":
        shared = None
    with trace.span(
        "plan", method=method.value, queries=len(queries)
    ) as plan_span:
        stripped = run_tasks(
            executor,
            _plan_task,
            [
                (config, query, method, start_db, shared)
                for query, start_db in zip(queries, start_dbs)
            ],
        )
        plans = [
            dataclasses.replace(plan, start_db=start_db)
            for plan, start_db in zip(stripped, start_dbs)
        ]
        plan_span.set_attributes(
            {
                "affected": sum(len(p.affected) for p in plans),
                "ps_seconds": sum(p.ps_seconds for p in plans),
                "build_seconds": sum(p.build_seconds for p in plans),
            }
        )
    return plans


def pair_task(
    backend: str | None,
    query_h: Operator,
    query_m: Operator,
    db: Database,
    extra_original: Relation | None,
    extra_modified: Relation | None,
    profiled: bool,
) -> tuple[RelationDelta, float, dict | None]:
    """Evaluate one reenactment query pair over ``db`` into its delta.

    The execute stage's one task function: every (query, affected
    relation) runs through it, in-process or in a pool worker
    (module-level so process pools pick it up by reference; the operator
    trees and databases it receives all pickle).  The pair runs through the backend's
    ``evaluate_pair`` and :meth:`RelationDelta.of_results` — on the
    columnar evaluator one ordering of the two result tables, no row
    materialized.  ``extra_original`` / ``extra_modified`` are the
    Section-10 inserted tuples, unioned into each side's result.
    ``profiled`` is EXPLAIN ANALYZE: the same evaluation through
    :func:`repro.obs.profile.profile_query`, which materializes
    bottom-up through the same backends, so the delta equals the plain
    one.  Returns ``(delta, seconds, profiles)``: ``seconds`` is the
    worker-side wall time of evaluating the pair and of taking its delta,
    ``(evaluate_s, delta_s)``, and ``profiles`` is
    ``{"original": ..., "modified": ...}`` or ``None``.
    """
    t0 = time.perf_counter()
    profiles = None
    if profiled:
        from ..obs.profile import profile_query

        result_h, profile_h = profile_query(query_h, db, backend=backend)
        result_m, profile_m = profile_query(query_m, db, backend=backend)
        profiles = {"original": profile_h, "modified": profile_m}
    else:
        result_h, result_m = resolve_backend(backend).evaluate_pair(
            query_h, query_m, db
        )
    t1 = time.perf_counter()
    delta = RelationDelta.of_results(
        result_h, result_m, extra_original, extra_modified
    )
    return delta, (t1 - t0, time.perf_counter() - t1), profiles


def _scanned_only(call: tuple) -> tuple:
    """``call`` with its database cut down to the relations its query
    pair scans — applied only where the call is about to pickle (a
    process pool), where the whole start database would otherwise ship
    once per relation.  Everywhere else a call carries the start
    database object itself: the sqlite backend's connection cache is
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


@dataclasses.dataclass
class _Executed:
    """One query's evaluated relations: deltas, profiles, and the summed
    task seconds it is charged."""

    deltas: dict = dataclasses.field(default_factory=dict)
    profiles: dict = dataclasses.field(default_factory=dict)
    seconds: float = 0.0


def _execute_stage(
    engine: Mahif, config, workers: int, plans: Sequence[ReenactmentPlan],
    explain: bool,
) -> list[_Executed]:
    """Evaluate every (query, affected relation) through :func:`pair_task`
    into its query's ``deltas`` (and ``profiles``).  A failed call
    re-raises.

    The stage runs on the engine's pool when it has at least two calls
    and ``workers`` > 1; EXPLAIN always runs in-process.
    """
    slots, calls = [], []
    for index, plan in enumerate(plans):
        for relation in sorted(plan.affected):
            extra_h = extra_m = None
            if plan.inserted_original is not None:
                extra_h = plan.inserted_original[relation]
                extra_m = plan.inserted_modified[relation]
            slots.append((index, relation))
            calls.append(
                (
                    config.backend, plan.queries_h[relation],
                    plan.queries_m[relation], plan.start_db,
                    extra_h, extra_m, explain,
                )
            )
    executor = None
    if not explain:
        executor, _ = engine._executor(workers, len(calls))
    mode = "profiled" if explain else (
        f"{executor.kind}-pool" if executor is not None else "serial"
    )
    if executor is not None and executor.kind == "process":
        calls = [_scanned_only(call) for call in calls]
    executed = [_Executed() for _ in plans]
    with trace.span("execute", mode=mode, relations=len(calls)) as span:
        cold = columnar.MEMO_OUTCOMES.value(outcome="miss")
        outcomes = run_tasks(executor, pair_task, calls)
        for (index, relation), (delta, seconds, profiles) in zip(
            slots, outcomes
        ):
            # Pool workers see no active trace; their timings come back
            # with the results and are attached here.
            evaluate_s, delta_s = seconds
            trace.record_span(
                "relation", evaluate_s + delta_s, relation=relation,
                query=index, evaluate_s=evaluate_s, delta_s=delta_s,
            )
            entry = executed[index]
            entry.deltas[relation] = delta
            entry.profiles[relation] = profiles
            entry.seconds += evaluate_s + delta_s
        # relations this process scanned cold meanwhile (a process pool's
        # workers count in their own registries)
        span.set_attribute(
            "columnarized", columnar.MEMO_OUTCOMES.value(outcome="miss") - cold
        )
    return executed
