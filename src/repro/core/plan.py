"""The *plan* stage of the answer pipeline (DESIGN.md, "Answer pipeline").

Everything Algorithm 2 does between time travel and evaluation, as a
short list of stage functions over one ``MahifConfig``:

1. trim the common prefix and find the affected relations,
2. peel constant inserts away when program slicing is requested
   (Section 10),
3. program slicing (dependency analysis by default — Section 9 — or the
   greedy Theorem-4 search),
4. build per-relation reenactment queries for both sliced histories
   (Definition 3),
5. data slicing: compute per-relation filter conditions (Section 6)
   and inject them for the DS methods,
6. optimize and statically verify the trees.

:func:`plan_reenactment` runs them and returns a
:class:`ReenactmentPlan`; it takes the configuration, not an engine, so
a pool worker plans without constructing one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from ..obs import trace
from ..relational.algebra import Operator, base_relations, inject_selection
from ..relational.database import Database
from ..relational.expressions import TRUE
from ..relational.identity_memo import IdentityMemo
from ..relational.optimizer import optimize
from ..relational.schema import Schema
from ..relational.statements import (
    DeleteStatement,
    InsertQuery,
    InsertTuple,
    UpdateStatement,
)
from .data_slicing import DataSlicingConditions, compute_data_slicing
from .dependency import dependency_slice
from .hwq import AlignedHistories, HistoricalWhatIfQuery
from .insert_split import can_split, split_inserts
from .program_slicing import SliceResult, greedy_slice
from .reenactment import reenactment_queries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import MahifConfig, Method

__all__ = ["ReenactmentPlan", "plan_reenactment"]


@dataclass(frozen=True)
class ReenactmentPlan:
    """Everything :func:`plan_reenactment` produces ahead of evaluation.

    ``build_seconds`` is the reenactment-query construction cost (tree
    building + data slicing + optimization) — near zero on a shared-plan
    cache hit; evaluation adds its own time on top to form the reported
    ``exe_seconds``.
    """

    method: "Method"
    start_db: Database | None
    affected: frozenset[str]
    queries_h: Mapping[str, Operator]
    queries_m: Mapping[str, Operator]
    inserted_original: Database | None
    inserted_modified: Database | None
    slice_result: SliceResult | None
    data_slicing: DataSlicingConditions | None
    ps_seconds: float
    build_seconds: float


#: ``statement -> (share key, its hash or None)``.  Statements are
#: immutable and a stored history keeps the same objects for as long as
#: it is served, so each is walked and hashed once, not once per answer.
_SHARE_KEYS = IdentityMemo()


def share_key_and_hash(stmt) -> tuple[tuple, int | None]:
    """``(statement_share_key(stmt), its hash)``, both computed once per
    statement object; the hash is ``None`` when the statement embeds an
    unhashable constant (such a statement shares nothing)."""
    entry = _SHARE_KEYS.find(stmt)
    if entry is None:
        key = _build_share_key(stmt)
        try:
            hashed = hash(key)
        except TypeError:
            hashed = None
        entry = _SHARE_KEYS.remember(stmt, None, (key, hashed))
    return entry


def statement_share_key(stmt) -> tuple:
    """A hashable structural key for one statement, type-faithful.

    Dataclass equality compares ``Const(1) == Const(True)``, yet the two
    produce differently-typed rows — so, exactly like the plan cache's
    :func:`~repro.relational.exec.plan_compile.plan_fingerprint`, the
    key carries the types of every embedded constant alongside the
    statement structure.  Used to detect queries whose sliced histories
    are interchangeable (the shared-plan cache below), shared time-travel
    prefixes and the service's result-cache fingerprints.  Remembered on
    the statement object: asking again builds nothing.
    """
    return share_key_and_hash(stmt)[0]


def _build_share_key(stmt) -> tuple:
    from ..relational.exec.expr_compile import const_fingerprint
    from ..relational.exec.plan_compile import plan_fingerprint

    if isinstance(stmt, UpdateStatement):
        sets = tuple(sorted(stmt.set_clauses.items()))
        fingerprint = const_fingerprint(stmt.condition) + tuple(
            part for _, expr in sets for part in const_fingerprint(expr)
        )
        return ("U", stmt.relation, sets, stmt.condition, fingerprint)
    if isinstance(stmt, DeleteStatement):
        return (
            "D", stmt.relation, stmt.condition,
            const_fingerprint(stmt.condition),
        )
    if isinstance(stmt, InsertTuple):
        return (
            "I", stmt.relation, stmt.values,
            tuple(type(v).__name__ for v in stmt.values),
        )
    if isinstance(stmt, InsertQuery):
        return ("IQ", stmt.relation, stmt.query, plan_fingerprint(stmt.query))
    return ("?", stmt)


def affected_relations(aligned: AlignedHistories) -> set[str]:
    """Relations whose contents can differ between H and H[M]: targets of
    modified statements, closed under INSERT ... SELECT dataflow.  Every
    other relation provably has an empty delta and is skipped outright."""
    affected = aligned.target_relations_of_modifications()
    statements = tuple(aligned.original.statements) + tuple(
        aligned.modified.statements
    )
    changed = True
    while changed:
        changed = False
        for stmt in statements:
            if isinstance(stmt, InsertQuery):
                sources = base_relations(stmt.query)
                if sources & affected and stmt.relation not in affected:
                    affected.add(stmt.relation)
                    changed = True
    return affected


def _peel_inserts(
    pair: AlignedHistories, schemas: Mapping[str, Schema], backend: str
):
    """Section 10: ``(pair without constant inserts, inserted-tuple side
    of H, of H[M])`` — the pair itself and two ``None`` when it holds no
    constant insert."""
    if not any(
        isinstance(stmt, InsertTuple)
        for stmt in tuple(pair.original.statements)
        + tuple(pair.modified.statements)
    ):
        return pair, None, None
    split = split_inserts(pair, schemas, backend)
    return (
        split.without_inserts, split.inserted_original, split.inserted_modified
    )


def _slice(config, pair, start_db, schemas) -> tuple[SliceResult, float]:
    """Program slicing with the configured algorithm, and its seconds."""
    slicer = (
        greedy_slice
        if config.slicing_algorithm == "greedy"
        else dependency_slice
    )
    t0 = time.perf_counter()
    result = slicer(pair, start_db, schemas, config.program_slicing)
    return result, time.perf_counter() - t0


def _insert_modified_relations(trimmed: AlignedHistories) -> frozenset[str]:
    """Relations a modification inserts a constant tuple into."""
    return frozenset(
        trimmed.original[p].relation
        for p in trimmed.modified_positions
        if isinstance(trimmed.original[p], InsertTuple)
        or isinstance(trimmed.modified[p], InsertTuple)
    )


def _slicing_conditions(
    pair: AlignedHistories,
    schemas: Mapping[str, Schema],
    unfiltered: frozenset[str],
) -> DataSlicingConditions:
    """Data-slicing conditions of ``pair``, ``TRUE`` on ``unfiltered``.

    Modified inserts: after the Section-10 split the pair no longer
    carries the insert, so the collision disjunct that
    ``compute_data_slicing`` derives for insert modifications (see
    ``data_slicing._affected_condition_map``) is lost.  Filtering such a
    relation could then drop a base tuple that one side's replayed
    insert re-adds; the caller names those relations in ``unfiltered``
    and they are not filtered (their insert-side delta is tiny
    anyway).
    """
    conditions = compute_data_slicing(pair, schemas)
    if not unfiltered:
        return conditions
    override = dict.fromkeys(unfiltered, TRUE)
    return DataSlicingConditions(
        {**conditions.for_original, **override},
        {**conditions.for_modified, **override},
    )


def _optimize_and_verify(config, schemas, queries_h, queries_m):
    """Optimize both sides' trees, then run the static soundness layer
    (DESIGN.md, "Static analysis") over the fresh plans: each is
    schema/type-verified and the optimizer's rewrite certified
    NULL-sound against the unoptimized tree.  Shared-plan cache hits
    never get here — the cached trees were certified when first built.
    """
    before_h = before_m = None
    if config.optimize_queries:
        before_h, before_m = queries_h, queries_m
        queries_h = {
            name: optimize(op, config.optimizer)
            for name, op in queries_h.items()
        }
        queries_m = {
            name: optimize(op, config.optimizer)
            for name, op in queries_m.items()
        }
    if config.verify_plans:
        from ..static_analysis import verify_reenactment_plans

        with trace.span("verify", plans=len(queries_h)):
            verify_reenactment_plans(
                schemas,
                queries_h,
                queries_m,
                before_original=before_h,
                before_modified=before_m,
            )
    return queries_h, queries_m


def _build_queries(config, method, pair, schemas, unfiltered):
    """Reenactment trees for both sides of ``pair``, data-sliced for the
    DS methods: ``(queries_h, queries_m, data_slicing)``."""
    queries_h = reenactment_queries(pair.original, schemas)
    queries_m = reenactment_queries(pair.modified, schemas)
    data_slicing = None
    if method.uses_data_slicing:
        data_slicing = _slicing_conditions(pair, schemas, unfiltered)
        queries_h = {
            name: inject_selection(op, dict(data_slicing.for_original))
            for name, op in queries_h.items()
        }
        queries_m = {
            name: inject_selection(op, dict(data_slicing.for_modified))
            for name, op in queries_m.items()
        }
    queries_h, queries_m = _optimize_and_verify(
        config, schemas, queries_h, queries_m
    )
    return queries_h, queries_m, data_slicing


def _share_key(method, pair, schemas, insert_modified, split) -> tuple | None:
    """The shared-plan cache key of a sliced pair, or ``None`` when a
    statement embeds an unhashable constant (no sharing then)."""
    key = (
        method,
        tuple(statement_share_key(s) for s in pair.original.statements),
        tuple(statement_share_key(s) for s in pair.modified.statements),
        tuple(sorted(schemas.items())),
        insert_modified,
        split,
    )
    try:
        hash(key)
    except TypeError:
        return None
    return key


def plan_reenactment(
    config: "MahifConfig",
    query: HistoricalWhatIfQuery,
    method: "Method",
    start_db: Database,
    shared: dict | None = None,
) -> ReenactmentPlan:
    """Run the pipeline's plan stage for one query.

    ``start_db`` is the time-travelled version before the query's first
    modified statement (the pipeline's previous stage); ``shared`` is
    the call's keyed plan cache — one level above the per-process
    compiled-plan cache in :mod:`repro.relational.exec.plan_compile` —
    mapping the sliced statement pair (plus schemas, method and
    insert-split context) to finished ``(queries_h, queries_m,
    data_slicing)`` triples.
    """
    trimmed, _ = query.aligned().trim_prefix()
    schemas = {name: start_db.schema_of(name) for name in start_db.relations}

    pair = trimmed
    inserted_original = inserted_modified = slice_result = None
    ps_seconds = 0.0
    # INSERT ... SELECT present: program slicing is not applicable
    # (Section 10 limits it to update/delete parts); proceed with plain
    # reenactment, optionally data-sliced.
    if method.uses_program_slicing and can_split(pair):
        pair, inserted_original, inserted_modified = _peel_inserts(
            pair, schemas, config.backend
        )
        slice_result, ps_seconds = _slice(config, pair, start_db, schemas)
        pair = pair.subset(slice_result.kept_positions)

    affected = frozenset(affected_relations(trimmed))
    t0 = time.perf_counter()
    insert_modified = (
        _insert_modified_relations(trimmed)
        if method.uses_data_slicing
        else frozenset()
    )
    split = inserted_original is not None
    key = None
    if shared is not None:
        key = _share_key(method, pair, schemas, insert_modified, split)
    built = shared.get(key) if key is not None else None
    if built is None:
        built = _build_queries(
            config, method, pair, schemas,
            insert_modified if split else frozenset(),
        )
        if key is not None:
            shared[key] = built
    queries_h, queries_m, data_slicing = built
    return ReenactmentPlan(
        method=method,
        start_db=start_db,
        affected=affected,
        queries_h=queries_h,
        queries_m=queries_m,
        inserted_original=inserted_original,
        inserted_modified=inserted_modified,
        slice_result=slice_result,
        data_slicing=data_slicing,
        ps_seconds=ps_seconds,
        build_seconds=time.perf_counter() - t0,
    )
