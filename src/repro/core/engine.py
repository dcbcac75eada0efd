"""The Mahif engine: Algorithm 2 and the method variants of Section 13.3.

``answer(query, method)`` supports the five methods the paper compares:

* ``NAIVE``     — Algorithm 1 (copy + execute + delta query),
* ``R``         — reenactment only,
* ``R_DS``      — reenactment + data slicing,
* ``R_PS``      — reenactment + program slicing,
* ``R_PS_DS``   — reenactment + both (Algorithm 2).

Every answer — one query or a batch — is produced by the one staged
pipeline of :mod:`repro.core.batch` (DESIGN.md, "Answer pipeline"),
following the paper's WLOG normalizations:

1. *time travel*: align the histories (no-op padding), trim the common
   prefix before the first modified statement and materialize the
   database version at that point,
2. *plan* (:mod:`repro.core.plan`): peel constant inserts away when
   program slicing is requested (Section 10), slice the program
   (Sections 8–9), build per-relation reenactment queries for both
   sliced histories (Definition 3) and inject the data-slicing
   conditions (Section 6),
3. *route* and *execute* (:mod:`repro.core.shard`): evaluate both
   queries per affected relation — whole or per shard — union the
   inserted-tuple side back in, and compute the delta (Section 4's
   delta query),
4. *assemble* the per-relation deltas into a :class:`MahifResult`.

This module holds the vocabulary (:class:`Method`, :class:`MahifConfig`,
:class:`MahifResult`) and the :class:`Mahif` facade that owns what
outlives a call: the worker pool and the :class:`VersionCache`.
"""

from __future__ import annotations

import enum
import os
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..relational.algebra import Operator
from ..relational.database import Database
from ..relational.exec.backend import resolve_backend
from ..relational.optimizer import OptimizerConfig
from .data_slicing import DataSlicingConditions
from .delta import DatabaseDelta
from .hwq import HistoricalWhatIfQuery
from .naive import NaiveResult
from .planner import AUTO_SHARDS, ExecutionChoice
from .pool import ResilientExecutor, make_executor
from .program_slicing import ProgramSlicingConfig, SliceResult

__all__ = [
    "Method",
    "MahifConfig",
    "MahifResult",
    "Mahif",
    "PrefixKey",
    "VersionCache",
    "answer",
    "answer_batch",
]


class Method(enum.Enum):
    """The compared methods, labelled as in the paper's plots."""

    NAIVE = "N"
    R = "R"
    R_DS = "R+DS"
    R_PS = "R+PS"
    R_PS_DS = "R+PS+DS"

    @property
    def uses_program_slicing(self) -> bool:
        return self in (Method.R_PS, Method.R_PS_DS)

    @property
    def uses_data_slicing(self) -> bool:
        return self in (Method.R_DS, Method.R_PS_DS)


@dataclass(frozen=True)
class MahifConfig:
    """Engine configuration.

    ``slicing_algorithm`` selects between the Section-9 dependency
    analysis (``"dependency"``, the default — one solver call per
    statement) and the Section-8.3.3 greedy search (``"greedy"`` — one
    call per candidate, exact Theorem-4 checks).

    ``backend`` names the execution backend for every query and
    statement evaluated while answering — the pipeline hands it to each
    stage explicitly, there is no ambient default to consult:
    ``"compiled"`` (the default, and what ``None`` is normalised to)
    runs queries columnar — whole-column NumPy kernels over typed
    columns remembered per relation, closure-compiled per-row fallbacks
    where a kernel could differ from the interpreter — and replays
    statements row-wise through closure-compiled row functions,
    ``"interpreted"`` the original tree-walking evaluator (kept as the
    differential-testing oracle), ``"sqlite"`` the middleware path of
    the paper — reenactment queries and statements are translated to
    SQL and executed server-side on an in-memory SQLite database — and
    ``"vector"`` the older name of what ``"compiled"`` now runs (see
    DESIGN.md, "Execution backends" and "Columnar execution").

    ``batch_workers`` > 1 fans a call's per-query planning and
    per-(query, relation) delta evaluations out over the engine's worker
    pool (see DESIGN.md, "Answer pipeline") — processes for the
    in-process backends, threads for sqlite (whose connection cache is
    per-thread and whose queries release the GIL).

    ``shards`` > 1 turns on sharded execution (see DESIGN.md, "Sharded
    execution"): each affected relation is horizontally partitioned
    (``shard_scheme``: ``"range"`` clusters by the leading/key column so
    data-slicing routing can skip whole shards, ``"hash"`` balances
    arbitrary distributions), the reenactment pair is evaluated per
    shard, and the per-shard deltas merge back exactly.
    ``shard_workers`` > 1 fans the shard evaluations over the same pool
    as ``batch_workers`` — the wider of the two sizes it (0 evaluates
    shards serially, which still benefits from skip routing).

    ``verify_plans`` runs the static soundness layer (see DESIGN.md,
    "Static analysis") over every reenactment plan the engine builds:
    :func:`~repro.static_analysis.verify_plan` checks attribute
    resolution, schema compatibility and NULL-aware typing with
    operator-path diagnostics, and — when ``optimize_queries`` is on —
    :func:`~repro.static_analysis.check_rewrite` certifies the
    optimizer's output against its input, statically rejecting the PR-2
    class of NULL-unsound rewrites.  ``None`` (the default) resolves
    from the ``MAHIF_VERIFY_PLANS`` environment variable, which the
    test/fuzz harness sets to ``1`` so every suite run verifies every
    plan it builds; production calls default off.  Verification happens
    at plan-build time only — shared-plan cache hits reuse the already
    certified trees.

    ``shards="auto"`` (stored as the ``AUTO_SHARDS`` = 0 sentinel; the
    literal ``0`` is accepted too) hands the decision to the cost-based
    planner (see DESIGN.md, "Adaptive planning"): each reenactment plan
    is priced from relation cardinalities, sampled routing selectivity
    and shardability, and executes sharded only when the model predicts
    a real win — ``shard_workers`` is then chosen by the planner as
    well.  The naive method ignores ``shards`` entirely (it replays
    statements, there is nothing to partition).
    """

    slicing_algorithm: str = "dependency"
    program_slicing: ProgramSlicingConfig = field(
        default_factory=ProgramSlicingConfig
    )
    optimize_queries: bool = True
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    backend: str = "compiled"
    batch_workers: int = 0
    shards: int | str = 1
    shard_workers: int = 0
    shard_scheme: str = "range"
    verify_plans: bool | None = None

    def __post_init__(self) -> None:
        from ..relational.partition import PARTITION_SCHEMES

        if self.verify_plans is None:
            env = os.environ.get("MAHIF_VERIFY_PLANS", "").strip().lower()
            object.__setattr__(
                self, "verify_plans", env in ("1", "true", "on", "yes")
            )
        if self.slicing_algorithm not in ("dependency", "greedy"):
            raise ValueError(
                f"unknown slicing algorithm {self.slicing_algorithm!r}"
            )
        if self.batch_workers < 0:
            raise ValueError("batch_workers must be >= 0")
        if isinstance(self.shards, str):
            if self.shards.strip().lower() != "auto":
                raise ValueError(
                    f"shards must be >= 1, 'auto', or {AUTO_SHARDS} "
                    f"(auto sentinel); got {self.shards!r}"
                )
            object.__setattr__(self, "shards", AUTO_SHARDS)
        elif self.shards < AUTO_SHARDS:
            raise ValueError(
                "shards must be >= 1, or 'auto'/0 for planner-chosen"
            )
        if self.shard_workers < 0:
            raise ValueError("shard_workers must be >= 0")
        if self.shard_scheme not in PARTITION_SCHEMES:
            raise ValueError(
                f"unknown shard scheme {self.shard_scheme!r}; expected one "
                f"of {PARTITION_SCHEMES}"
            )
        # Raises ValueError when unknown; None becomes "compiled".
        object.__setattr__(
            self, "backend", resolve_backend(self.backend).name
        )

    @property
    def shards_auto(self) -> bool:
        """True when the adaptive planner chooses the shard count."""
        return self.shards == AUTO_SHARDS

    @property
    def may_shard(self) -> bool:
        """True when execution might shard (statically or via planner),
        i.e. routing conditions must be computed at planning time."""
        return self.shards == AUTO_SHARDS or self.shards > 1


@dataclass(frozen=True)
class MahifResult:
    """Answer plus the accounting the paper's figures report.

    ``ps_seconds`` is the program-slicing cost (Figure 16's "PS" column),
    ``exe_seconds`` everything else the query caused (the "Exe" column),
    defined once for every path through the pipeline: building its
    reenactment queries (tree construction, data-slicing conditions,
    optimization, verification — near zero on a shared-plan hit) +
    routing them (planner, partitioning, keep-mask scans) + the summed
    time of its evaluation tasks + merging shard results.  Task time is
    measured where the task runs, so on a pool it is CPU cost rather
    than wall clock; in-process, ``total_seconds`` accounts for the
    call's wall time up to the insert split.  For
    ``Method.NAIVE`` it is the Figure-15 creation + execution + delta
    total.  ``time_travel_seconds`` is what reaching the version before
    the first modified statement cost *this* query: aligning, the
    version-cache lookup and every prefix statement it had to replay —
    charged, like routing, to the query whose miss caused the replay, so
    near zero on a version-cache hit and 0 when the caller injected the
    start version (the service did the travelling) or the method is
    NAIVE (which replays by definition).  ``slice_result`` and
    ``data_slicing`` expose what the optimizations did for inspection
    and the ablation benchmarks.
    """

    delta: DatabaseDelta
    method: Method
    ps_seconds: float = 0.0
    exe_seconds: float = 0.0
    time_travel_seconds: float = 0.0
    slice_result: SliceResult | None = None
    data_slicing: DataSlicingConditions | None = None
    queries_original: Mapping[str, Operator] | None = None
    queries_modified: Mapping[str, Operator] | None = None
    naive_breakdown: NaiveResult | None = None
    #: The (time-travelled) database the reenactment queries ran over;
    #: needed to re-evaluate them, e.g. for provenance explanations.
    base_database: Database | None = None
    #: The adaptive planner's decision (``shards="auto"`` only): the
    #: shard/worker counts this answer actually executed with, plus the
    #: estimates it was based on.  ``None`` under static configuration.
    planner_choice: ExecutionChoice | None = None
    #: EXPLAIN ANALYZE output (``explain=True``):
    #: per affected relation, ``{"original": OperatorProfile,
    #: "modified": OperatorProfile}`` — per-operator wall time and row
    #: counts for both reenactment queries.  ``None`` otherwise (and
    #: always for NAIVE, which replays statements instead of building
    #: operator trees).
    profile: Mapping[str, Mapping[str, object]] | None = None

    @property
    def total_seconds(self) -> float:
        return self.time_travel_seconds + self.ps_seconds + self.exe_seconds


#: Time-travelled versions one :class:`VersionCache` keeps (an engine
#: has one; so has a what-if service, for all its histories).  A session
#: asks about a handful of positions of one or two histories; each state
#: shares every relation its prefix did not write with its base, so
#: eight cost a few relations' worth of rows, not eight databases'.
VERSION_CACHE_CAPACITY = 8


class PrefixKey:
    """A history prefix as :class:`VersionCache` keys it: the prefix
    statements' share keys and a hash of them computed once — by
    :func:`repro.core.batch.prefix_key`, from per-statement hashes that
    are themselves remembered — so the cache's dict probes re-hash no
    expression tree.  Equal share keys mean equal prefixes; a prefix
    built again from the same statement objects compares by identity,
    element for element."""

    __slots__ = ("keys", "_hash")

    def __init__(self, keys: tuple, hashed: int) -> None:
        self.keys = keys
        self._hash = hashed

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PrefixKey)
            and self._hash == other._hash
            and self.keys == other.keys
        )

    def __len__(self) -> int:
        return len(self.keys)

    def extends(self, other: "PrefixKey") -> bool:
        """Whether ``other`` is a prefix of this prefix."""
        return self.keys[: len(other)] == other.keys


class VersionCache:
    """Time-travelled database versions, least recently used evicted:
    ``(base database identity, prefix share keys) -> state``.

    The time-travel stage's memory (:func:`repro.core.batch.
    shared_start_databases`), owned by whatever outlives an answer — a
    :class:`Mahif`, and the what-if service for its stored histories —
    so the second what-if over a ``(database, history prefix)`` replays
    nothing and one a few statements deeper replays only those.  Keyed
    on the *identity* of the base database — comparing 12 000 rows to
    find out whether two databases are equal costs what the replay does
    — and on the prefix statements' type-faithful share keys
    (:class:`PrefixKey`), never on the prefix length: two histories over
    one database may share a length and nothing else.  Every entry pins
    its base database, so an ``id()`` cannot be recycled into a live
    key; the pin is released with the entry (eviction, or the owner's
    death).  Safe for concurrent use: one lock around the probes, states
    are computed outside it, and when two threads race on one version
    the first stored wins so a version keeps one identity (which is what
    lets the Φ_D memo of :mod:`repro.symbolic.compress` hit on it).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (id(base), prefix key) -> (base, state), oldest first.
        self._entries: OrderedDict[
            tuple[int, PrefixKey], tuple[Database, Database]
        ] = OrderedDict()

    def deepest(
        self, database: Database, prefix_key: PrefixKey
    ) -> tuple[int, Database]:
        """``(statements covered, state)`` of the longest kept prefix of
        ``prefix_key`` over ``database``; ``(0, database)`` when none."""
        base_id = id(database)
        with self._lock:
            best = (base_id, prefix_key)
            if best not in self._entries:
                prefixes = [
                    key
                    for key in self._entries
                    if key[0] == base_id and prefix_key.extends(key[1])
                ]
                if not prefixes:
                    return 0, database
                best = max(prefixes, key=lambda key: len(key[1]))
            self._entries.move_to_end(best)
            return len(best[1]), self._entries[best][1]

    def put(
        self, database: Database, prefix_key: PrefixKey, state: Database
    ) -> Database:
        """Keep ``state`` as the version ``prefix_key`` reaches from
        ``database``; returns the kept state (an earlier one wins)."""
        key = (id(database), prefix_key)
        with self._lock:
            _, kept = self._entries.setdefault(key, (database, state))
            self._entries.move_to_end(key)
            while len(self._entries) > VERSION_CACHE_CAPACITY:
                self._entries.popitem(last=False)
            return kept

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class Mahif:
    """Facade for answering historical what-if queries.

    >>> engine = Mahif()
    >>> result = engine.answer(query, Method.R_PS_DS)
    >>> print(result.delta.pretty())
    """

    def __init__(self, config: MahifConfig | None = None) -> None:
        self.config = config or MahifConfig()
        #: The engine's one worker pool and its width, created on first
        #: need and reused by every later call, single or batch — pool
        #: startup would otherwise dominate the small per-query work
        #: parallel execution targets.  Shut down when the engine is
        #: collected.
        self._pool: ResilientExecutor | None = None
        self._pool_width = 0
        self._pool_lock = threading.Lock()
        #: Versions this engine has time-travelled to; keep one engine
        #: per session and the prefix is replayed once, not per answer.
        self._versions = VersionCache()

    def _executor(self, workers: int, calls: int):
        """``(pool, width)`` for a pipeline stage of ``calls`` tasks that
        wants ``workers`` workers; ``(None, 0)`` means in-process — fewer
        than two workers, or a single call with nothing to overlap.  The
        pool only ever grows: a call asking for no more than the
        existing width reuses it, one asking for more — or finding the
        pool degraded to serial (its workers died twice) — replaces it.
        The retired pool finishes what other threads already submitted
        and releases its workers."""
        if workers <= 1 or calls <= 1:
            return None, 0
        with self._pool_lock:
            retired = self._pool
            if (
                retired is None
                or retired.serial
                or workers > self._pool_width
            ):
                self._pool_width = max(workers, self._pool_width)
                self._pool = make_executor(
                    self.config.backend, self._pool_width
                )
                if retired is not None:
                    self._pool_finalizer.detach()
                    retired.shutdown(wait=False)
                self._pool_finalizer = weakref.finalize(
                    self, self._pool.shutdown,
                    wait=False, cancel_futures=True,
                )
            return self._pool, self._pool_width

    def answer(
        self,
        query: HistoricalWhatIfQuery,
        method: Method = Method.R_PS_DS,
        current_state: Database | None = None,
        *,
        explain: bool = False,
    ) -> MahifResult:
        """Answer a HWQ with the selected method: the answer pipeline
        run on ``[query]``.

        ``explain=True`` runs EXPLAIN ANALYZE: the answer carries a
        per-operator time/row-count :attr:`MahifResult.profile` and
        executes unsharded, in-process.  NAIVE has no operator trees to
        profile and returns ``profile=None``.
        """
        from .batch import answer_batch_with

        return answer_batch_with(
            self, [query], method,
            explain=explain, current_states=[current_state],
        )[0]

    def answer_batch(
        self,
        queries: Sequence[HistoricalWhatIfQuery],
        method: Method = Method.R_PS_DS,
        *,
        workers: int | None = None,
        shards: int | str | None = None,
        start_databases: Sequence[Database] | None = None,
        explain: bool = False,
    ) -> list[MahifResult]:
        """Answer several HWQs over a shared history in one call.

        Produces exactly the deltas of ``[self.answer(q, method) for q in
        queries]`` (in input order) — it is the same pipeline — while
        amortizing the common structure across the batch (see DESIGN.md,
        "Answer pipeline"):

        * each distinct ``(database, history-prefix)`` version is
          time-travelled to once, reusing the deepest shared prefix
          already materialized (by this call or, the engine keeping its
          versions, an earlier one),
        * queries that slice to the same statement set share their
          reenactment operator trees, data-slicing conditions and
          optimized plans,
        * per-query planning and per-(query, relation) delta evaluations
          fan out over the engine's pool when
          ``workers``/``config.batch_workers`` > 1 — a process pool for
          the in-process backends, a thread pool for sqlite.

        ``shards`` overrides ``config.shards`` for this call, as
        ``workers`` does ``config.batch_workers`` (the what-if service
        routes each request's count through one engine per backend).

        ``start_databases`` optionally injects each query's
        time-travelled start version (the what-if service supplies the
        versions its own :class:`VersionCache` holds instead of
        replaying prefixes here).
        """
        from .batch import answer_batch_with

        return answer_batch_with(
            self, list(queries), method, workers, start_databases,
            explain=explain, shards=shards,
        )


def answer(
    query: HistoricalWhatIfQuery,
    method: Method = Method.R_PS_DS,
    config: MahifConfig | None = None,
) -> MahifResult:
    """Module-level convenience wrapper around :class:`Mahif`."""
    return Mahif(config).answer(query, method)


def answer_batch(
    queries: Sequence[HistoricalWhatIfQuery],
    method: Method = Method.R_PS_DS,
    config: MahifConfig | None = None,
) -> list[MahifResult]:
    """Module-level convenience wrapper around :meth:`Mahif.answer_batch`."""
    return Mahif(config).answer_batch(queries, method)
