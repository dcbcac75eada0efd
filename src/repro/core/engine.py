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
3. *execute* (:func:`repro.core.batch.pair_task`): evaluate both
   queries per affected relation, union the inserted-tuple side back
   in, and compute the delta (Section 4's delta query),
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
from typing import Any, Mapping, Sequence

from ..obs.metrics import global_registry
from ..relational.algebra import Operator
from ..relational.database import Database
from ..relational.exec.backend import resolve_backend
from ..relational.optimizer import OptimizerConfig
from .data_slicing import DataSlicingConditions
from .delta import DatabaseDelta
from .hwq import HistoricalWhatIfQuery
from .naive import NaiveResult
from .pool import ResilientExecutor, make_executor
from .program_slicing import ProgramSlicingConfig, SliceResult

__all__ = [
    "Method",
    "MahifConfig",
    "MahifResult",
    "Mahif",
    "MAX_SHARDS",
    "PrefixKey",
    "VersionCache",
    "answer",
    "answer_batch",
    "deprecated_shards",
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


#: The largest ``shards`` value still accepted: the cap requests had
#: when the count partitioned relations, kept so no input that was
#: valid starts failing.
MAX_SHARDS = 64

#: Inputs accepted only for compatibility, by input.
_DEPRECATED_INPUTS = global_registry().counter(
    "mahif_deprecated_input_total",
    "Deprecated inputs accepted and ignored, by input.",
    ("input",),
)


def deprecated_shards(value: Any, what: str = "shards") -> None:
    """Validate and count one ``shards`` input; it changes no answer.

    Sharded execution was removed (DESIGN.md, "Sharding (removed)"):
    every answer runs unsharded.  For one release ``shards`` is still
    accepted wherever it was — :class:`MahifConfig`, the what-if
    service's ``default_shards`` and request bodies, ``ServiceClient``
    and both CLI ``--shards`` flags — and all of them validate here: a
    count from 1 to :data:`MAX_SHARDS`, ``0``, or ``"auto"`` in any case;
    integer strings and integral floats pass too.  Anything else raises
    ``ValueError`` with the message the service has always answered it
    with (``what`` names the input in the range message).  Every
    accepted value bumps ``mahif_deprecated_input_total{input="shards"}``
    once.
    """
    if isinstance(value, str) and value.strip().lower() == "auto":
        _DEPRECATED_INPUTS.inc(input="shards")
        return
    message = 'shards must be a positive integer, 0, or "auto"; got {!r}'
    if isinstance(value, str):
        try:
            value = int(value.strip())
        except ValueError:
            raise ValueError(message.format(value)) from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(message.format(value))
    try:
        number = int(value)
    except (ValueError, OverflowError):
        raise ValueError(message.format(value)) from None
    if number != value or number < 0:
        raise ValueError(message.format(value))
    if number > MAX_SHARDS:
        raise ValueError(
            f'{what} must be between 1 and {MAX_SHARDS}, 0, or "auto"'
        )
    _DEPRECATED_INPUTS.inc(input="shards")


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
    runs every query on its one query compiler, the columnar evaluator —
    whole-column NumPy kernels over typed columns remembered per
    relation, closure-compiled per-row fallbacks where a kernel could
    differ from the interpreter; the query of an ``INSERT … SELECT``
    too — and replays statements row-wise through closure-compiled row
    functions, ``"interpreted"`` the original tree-walking evaluator
    (kept as the differential-testing oracle), ``"sqlite"`` the
    middleware path of the paper — reenactment queries and statements
    are translated to SQL and executed server-side on an in-memory
    SQLite database — and ``"vector"`` is ``"compiled"`` under its
    older name, normalised to ``"compiled"`` (see DESIGN.md, "Execution
    backends" and "Columnar execution").

    ``batch_workers`` > 1 fans a call's per-query planning and
    per-(query, relation) delta evaluations out over the engine's worker
    pool (see DESIGN.md, "Answer pipeline") — processes for the
    in-process backends, threads for sqlite (whose connection cache is
    per-thread and whose queries release the GIL).

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

    ``shards`` is deprecated and changes nothing: every answer runs
    unsharded.  A value is still validated and counted
    (:func:`deprecated_shards`) for one release, so configurations that
    name it keep constructing.
    """

    slicing_algorithm: str = "dependency"
    program_slicing: ProgramSlicingConfig = field(
        default_factory=ProgramSlicingConfig
    )
    optimize_queries: bool = True
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    backend: str = "compiled"
    batch_workers: int = 0
    shards: int | str | None = None
    verify_plans: bool | None = None

    def __post_init__(self) -> None:
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
        if self.shards is not None:
            deprecated_shards(self.shards)
        # Raises ValueError when unknown; None becomes "compiled".
        object.__setattr__(
            self, "backend", resolve_backend(self.backend).name
        )


@dataclass(frozen=True)
class MahifResult:
    """Answer plus the accounting the paper's figures report.

    ``ps_seconds`` is the program-slicing cost (Figure 16's "PS" column),
    ``exe_seconds`` everything else the query caused (the "Exe" column),
    defined once for every path through the pipeline: building its
    reenactment queries (tree construction, data-slicing conditions,
    optimization, verification — near zero on a shared-plan hit) + the
    summed time of its evaluation tasks.  Task time is
    measured where the task runs, so on a pool it is CPU cost rather
    than wall clock; in-process, ``total_seconds`` accounts for the
    call's wall time up to the insert split.  For
    ``Method.NAIVE`` it is the Figure-15 creation + execution + delta
    total.  ``time_travel_seconds`` is what reaching the version before
    the first modified statement cost *this* query: aligning, the
    version-cache lookup and every prefix statement it had to replay —
    charged to the query whose miss caused the replay, so
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
        executes in-process.  NAIVE has no operator trees to
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

        ``workers`` overrides ``config.batch_workers`` for this call
        (the what-if service routes each request's pool width through one
        engine per backend).

        ``start_databases`` optionally injects each query's
        time-travelled start version (the what-if service supplies the
        versions its own :class:`VersionCache` holds instead of
        replaying prefixes here).
        """
        from .batch import answer_batch_with

        return answer_batch_with(
            self, list(queries), method, workers, start_databases,
            explain=explain,
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
