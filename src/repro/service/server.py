"""The concurrent what-if service.

Two layers (see DESIGN.md, "Service architecture"):

* :class:`WhatIfService` — the HTTP-agnostic engine: named persistent
  histories (each a :class:`~repro.store.HistoryStore` under one root
  directory), a shared :class:`~repro.core.Mahif` engine per backend,
  and a per-history **result cache** keyed by ``(history length, query
  fingerprint)``.  Appends invalidate incrementally: an entry is dropped
  only when an appended statement accesses a relation in the entry's
  delta; every other entry is re-keyed to the new history length and
  keeps serving hits (the cache-invalidation contract is proved in
  DESIGN.md).
* :class:`WhatIfServer` — a stdlib ``ThreadingHTTPServer`` wrapping the
  service in a small JSON API.  One OS thread per request; the service
  layer is safe for concurrent use (immutable histories/databases, a
  per-history lock around store appends and cache mutations, answers
  computed outside any lock).

API (all request/response bodies are JSON)::

    GET  /health                      liveness + history names
    GET  /metrics                     Prometheus text scrape (see
                                      DESIGN.md, "Observability")
    GET  /histories                   list histories with lengths
    POST /histories                   {name, database, history_sql?|history?,
                                       checkpoint_interval?}
    GET  /histories/<name>            info incl. checkpoint versions
    POST /histories/<name>/append     {statements_sql?|statements?}
    POST /histories/<name>/whatif     {modifications, method?, backend?,
                                       shards?}
    POST /histories/<name>/batch      {queries: [spec...], method?,
                                       backend?, workers?, shards?}

Single queries run through :meth:`Mahif.answer_batch` with a one-element
batch so both endpoints share the same machinery — shared time travel
(the store's checkpoint-reconstructed version is injected, never a full
prefix replay) and, within a batch, shared reenactment plans.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping, Sequence

from ..core import HistoricalWhatIfQuery, Mahif, MahifConfig, Method
from ..core.plan import statement_share_key
from ..relational import BACKENDS
from ..relational.database import Database
from ..relational.history import History
from ..relational.parser import ParseError, parse_history
from ..relational.statements import Statement
from ..store import (
    CodecError,
    DEFAULT_CHECKPOINT_INTERVAL,
    HistoryStore,
    StoreError,
    decode_database,
    decode_statement,
)
from .resilience import (
    AdmissionController,
    Deadline,
    DeadlineExceeded,
    IdempotencyCache,
    InFlightTracker,
    Overloaded,
    ResilienceConfig,
    ServiceError,
    resilience_snapshot,
)
from ..core.planner import AUTO_SHARDS
from ..obs import trace
from ..obs.logging import log_event
from ..obs.metrics import MetricsRegistry, global_registry
from .wire import (
    METHODS,
    SpecError,
    modifications_from_spec,
    normalize_shards,
    result_payload,
)

__all__ = ["ServiceError", "WhatIfService", "WhatIfServer"]

_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")

#: Upper bound on per-request shard counts.  Engines are cached per
#: (backend, shards), so an unbounded client-chosen count would let a
#: client grow that map without limit; beyond ~CPU-count shards there
#: is no win anyway.
MAX_SHARDS = 64


@dataclass
class _CacheEntry:
    """One cached answer plus the relations its delta touches (the
    invalidation footprint — empty-delta relations are excluded, which
    is exactly what makes retention across appends sound)."""

    payload: dict
    delta_relations: frozenset[str]


@dataclass
class _HistoryHandle:
    name: str
    store: HistoryStore
    initial: Database
    lock: threading.RLock = field(default_factory=threading.RLock)
    #: Memoized ``store.history()`` — rebuilding the statement tuple per
    #: request is O(history length) on the cache-hit hot path.  Reset to
    #: None by append().
    history: History | None = None
    #: (history length, fingerprint) -> entry; all live keys carry the
    #: current length (entries are re-keyed or dropped on append).
    cache: dict[tuple, _CacheEntry] = field(default_factory=dict)
    #: fingerprint -> the shard count the adaptive planner last chose
    #: for it, so ``shards="auto"`` requests resolve to the *chosen*
    #: count's cache key and share entries with explicit requests that
    #: match it (see DESIGN.md, "Adaptive planning").
    auto_choices: dict[tuple, int] = field(default_factory=dict)
    #: idempotency key -> recorded append response (bounded LRU), so a
    #: client retry after a lost response never double-appends.
    idempotency: IdempotencyCache = field(
        default_factory=IdempotencyCache
    )


class WhatIfService:
    """Engine-level service: stores, engines, result caches.

    ``root`` is the directory persistent histories live under (one
    subdirectory per history); existing stores are reopened on startup,
    so the service resumes exactly where the last process stopped.
    """

    def __init__(
        self,
        root,
        *,
        default_backend: str = "compiled",
        default_method: str = Method.R_PS_DS.value,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        batch_workers: int = 0,
        default_shards: int | str = 1,
        sync: bool = True,
    ) -> None:
        import pathlib

        if default_backend not in BACKENDS:
            raise ServiceError(f"unknown backend {default_backend!r}")
        if default_method not in METHODS:
            raise ServiceError(f"unknown method {default_method!r}")
        if checkpoint_interval < 1:
            raise ServiceError("checkpoint_interval must be >= 1")
        if batch_workers < 0:
            raise ServiceError("batch_workers must be >= 0")
        try:
            default_shards = normalize_shards(default_shards)
        except SpecError as exc:
            raise ServiceError(str(exc)) from None
        if default_shards is None or default_shards > MAX_SHARDS:
            raise ServiceError(
                f"default_shards must be between 1 and {MAX_SHARDS}, "
                f'0, or "auto"'
            )
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.default_backend = default_backend
        self.default_method = default_method
        self.checkpoint_interval = checkpoint_interval
        self.batch_workers = batch_workers
        self.default_shards = default_shards
        #: Power-loss durability for the stores this service owns: fsync
        #: the log on append, the directory on checkpoint rename.
        self.sync = sync
        #: Per-service metrics: result-cache traffic plus the service's
        #: own degradation counters (process-wide pool/shard counters
        #: live in ``repro.core.degradation``'s global registry, merged
        #: into the ``/metrics`` scrape by the server).
        self.metrics = MetricsRegistry()
        self._cache_hits = self.metrics.counter(
            "mahif_result_cache_hits_total",
            "Result-cache hits by history.",
            ("history",),
        )
        self._cache_misses = self.metrics.counter(
            "mahif_result_cache_misses_total",
            "Result-cache misses by history.",
            ("history",),
        )
        self._cache_invalidations = self.metrics.counter(
            "mahif_result_cache_invalidations_total",
            "Result-cache entries dropped by appends, by history.",
            ("history",),
        )
        self._deadline_timeouts = self.metrics.counter(
            "mahif_deadline_timeouts_total",
            "Compute requests that exceeded their deadline budget (504).",
        )
        self._sqlite_fallbacks = self.metrics.counter(
            "mahif_sqlite_fallbacks_total",
            "Sqlite-backend failures re-answered on the compiled backend.",
        )
        self._handles: dict[str, _HistoryHandle] = {}
        self._handles_lock = threading.Lock()
        #: One shared engine per (backend, shard count) — shards are part
        #: of the key because MahifConfig is frozen per engine.
        self._engines: dict[tuple[str, int], Mahif] = {}
        self._engines_lock = threading.Lock()
        self.skipped_on_startup: dict[str, str] = {}
        for entry in sorted(self.root.iterdir()):
            if (entry / "META.json").is_file():
                try:
                    store = HistoryStore.open(entry, sync=sync)
                except StoreError as exc:
                    # One unrecoverable directory (e.g. a crash between
                    # META and the base checkpoint during create) must
                    # not take down every healthy history under root.
                    self.skipped_on_startup[entry.name] = str(exc)
                    log_event(
                        "history_skipped",
                        history=entry.name,
                        error=str(exc),
                    )
                    continue
                self._handles[entry.name] = _HistoryHandle(
                    entry.name, store, store.initial()
                )

    def close(self) -> None:
        with self._handles_lock:
            for handle in self._handles.values():
                if handle is not None:
                    handle.store.close()
            self._handles.clear()

    # -- history management ---------------------------------------------------
    def history_names(self) -> list[str]:
        with self._handles_lock:
            return sorted(
                name
                for name, handle in self._handles.items()
                if handle is not None
            )

    def register(
        self,
        name: str,
        database: Database,
        history: History | None = None,
        *,
        checkpoint_interval: int | None = None,
    ) -> dict:
        """Create a new stored history; returns its info payload."""
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ServiceError(
                "history name must match [A-Za-z0-9_.-]{1,64}"
            )
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ServiceError("checkpoint_interval must be >= 1")
        if history is not None:
            # Validate before creating anything on disk: a bad history
            # must not leave an empty store squatting on the name.
            state = database
            for stmt in history:
                try:
                    state = stmt.apply(state)
                except Exception as exc:
                    raise ServiceError(
                        f"invalid history statement {stmt!r}: {exc}"
                    ) from None
        with self._handles_lock:
            if name in self._handles:
                raise ServiceError(
                    f"history {name!r} already exists", status=409
                )
            # Reserve the name, then create the store outside the global
            # lock: writing the base checkpoint is O(database) disk I/O
            # and must not stall requests against other histories.
            self._handles[name] = None
        store = None
        try:
            if (self.root / name / "META.json").exists():
                # A store directory we did not open (e.g. skipped as
                # broken at startup): never delete it, never reuse the
                # name.  Distinct wording from the handle-duplicate 409
                # so clients can tell the two apart.
                raise ServiceError(
                    f"name {name!r} is taken by an existing store "
                    "directory under the service root", status=409,
                )
            store = HistoryStore.create(
                self.root / name,
                database,
                checkpoint_interval=(
                    checkpoint_interval
                    if checkpoint_interval is not None
                    else self.checkpoint_interval
                ),
                sync=self.sync,
            )
            # Append the initial history while the name is still only a
            # reservation (other requests see 409 "being created"), so
            # no concurrent append can interleave ahead of it; it was
            # validated above, before anything touched the disk.  The
            # validated states double as the store's apply results.
            if history is not None and len(history) > 0:
                state = database
                for stmt in history:
                    state = stmt.apply(state)
                    store.append(stmt, state=state)
        except BaseException as exc:
            # Leave no partial store behind: a failed registration must
            # be fully retryable, and a restart must not resurrect a
            # truncated history the client was told failed.
            with self._handles_lock:
                self._handles.pop(name, None)
            if store is not None:
                store.close()
                shutil.rmtree(self.root / name, ignore_errors=True)
            if isinstance(exc, ServiceError):
                raise
            if isinstance(exc, StoreError):
                raise ServiceError(str(exc), status=409) from None
            raise
        with self._handles_lock:
            self._handles[name] = _HistoryHandle(name, store, database)
        return self.info(name)

    def _handle(self, name: str) -> _HistoryHandle:
        with self._handles_lock:
            try:
                handle = self._handles[name]
            except KeyError:
                raise ServiceError(
                    f"no history named {name!r}", status=404
                ) from None
        if handle is None:  # reserved: registration still in flight
            raise ServiceError(
                f"history {name!r} is still being created", status=409
            )
        return handle

    def info(self, name: str) -> dict:
        handle = self._handle(name)
        with handle.lock:
            store = handle.store
            return {
                "name": name,
                "length": len(store),
                "relations": store.current.relation_names(),
                "checkpoint_interval": store.checkpoint_interval,
                "checkpoints": list(store.checkpoint_versions()),
                "cache": {
                    "entries": len(handle.cache),
                    "hits": int(self._cache_hits.value(history=name)),
                    "misses": int(self._cache_misses.value(history=name)),
                },
            }

    def append(
        self,
        name: str,
        statements: Sequence[Statement],
        *,
        idempotency_key: str | None = None,
    ) -> dict:
        """Durably append statements; incrementally invalidate the cache.

        An appended statement can change a cached answer only if it
        reads or writes a relation whose cached delta is non-empty (all
        other relations hold identical content in both the original and
        the hypothetical branch, so the statement acts identically on
        the two).  Entries with a disjoint footprint stay valid and are
        re-keyed to the new history length; the rest are dropped.

        ``idempotency_key`` makes the append replay-safe: a key seen
        before returns the originally recorded response (marked
        ``"idempotent_replay": true``) without appending again, so a
        client retrying a lost response cannot double-append.  One key
        names one logical request — reusing a key with different
        statements replays the original outcome.
        """
        if not statements:
            raise ServiceError("append requires at least one statement")
        if idempotency_key is not None and (
            not isinstance(idempotency_key, str)
            or not 1 <= len(idempotency_key) <= 200
        ):
            raise ServiceError(
                "idempotency_key must be a string of 1..200 characters"
            )
        handle = self._handle(name)
        with handle.lock:
            if idempotency_key is not None:
                recorded = handle.idempotency.get(idempotency_key)
                if recorded is not None:
                    return {**recorded, "idempotent_replay": True}
            # Validate the whole batch before any durable write, so a
            # bad statement in the middle cannot persist a partial
            # prefix (a 400, not a half-applied 500).  The validated
            # states double as the store's apply results below.
            states: list[Database] = []
            state = handle.store.current
            for stmt in statements:
                try:
                    state = stmt.apply(state)
                except Exception as exc:
                    raise ServiceError(
                        f"invalid statement {stmt!r}: {exc}"
                    ) from None
                states.append(state)
            appended = 0
            dropped = retained_count = 0
            try:
                for stmt, new_state in zip(statements, states):
                    handle.store.append(stmt, state=new_state)
                    appended += 1
            except StoreError as exc:
                # A rolled-back transient failure before anything
                # persisted is cleanly retryable (503 + Retry-After); a
                # mid-batch failure persisted a prefix, so a blind retry
                # would double-append it — surface that as a 500 with
                # the count, never as retryable.
                if exc.retryable and appended == 0:
                    raise Overloaded(
                        f"append failed transiently and was rolled "
                        f"back: {exc}", 0.25,
                    ) from None
                raise ServiceError(
                    f"append persisted only {appended}/"
                    f"{len(statements)} statements: {exc}", status=500,
                ) from None
            finally:
                # Invalidate for exactly the statements that became
                # durable — even if a later store write failed, the
                # cache must not keep entries the persisted prefix
                # already invalidated.
                if appended:
                    handle.history = None  # memo invalid: log advanced
                    accessed: set[str] = set()
                    for stmt in statements[:appended]:
                        accessed |= stmt.accessed_relations()
                    new_length = len(handle.store)
                    retained: dict[tuple, _CacheEntry] = {}
                    for key, entry in handle.cache.items():
                        _, shards, fingerprint = key
                        if entry.delta_relations & accessed:
                            dropped += 1
                        else:
                            retained[
                                (new_length, shards, fingerprint)
                            ] = entry
                    handle.cache = retained
                    retained_count = len(retained)
                    if dropped:
                        self._cache_invalidations.inc(dropped, history=name)
                    span_ = trace.current_span()
                    if span_ is not None:
                        span_.add_event(
                            "cache_invalidate",
                            history=name,
                            dropped=dropped,
                            retained=retained_count,
                        )
            response = {
                "name": name,
                "length": new_length,
                "cache_dropped": dropped,
                "cache_retained": retained_count,
            }
            if idempotency_key is not None:
                handle.idempotency.put(idempotency_key, response)
        return response

    # -- answering ------------------------------------------------------------
    def _engine(self, backend: str, shards: int) -> Mahif:
        if backend not in BACKENDS:
            raise ServiceError(f"unknown backend {backend!r}")
        with self._engines_lock:
            engine = self._engines.get((backend, shards))
            if engine is None:
                engine = Mahif(MahifConfig(backend=backend, shards=shards))
                self._engines[(backend, shards)] = engine
            return engine

    @staticmethod
    def _fingerprint(method: Method, backend: str, modifications) -> tuple:
        # The shard count is *not* part of this base key — it joins the
        # cache key alongside the history length, always as the
        # *effective* count an answer executed with.  Sharded and
        # unsharded answers are proved (and differentially tested)
        # identical, but the cached payload records the configuration it
        # was computed under — serving a shards=4 payload to a shards=1
        # request would misreport it, so the cache never crosses
        # *effective* shard counts; ``shards="auto"`` requests resolve
        # through ``handle.auto_choices`` to the planner's chosen count
        # and thereby share entries with matching explicit requests.
        parts = []
        for mod in modifications:
            stmt = getattr(mod, "statement", None)
            parts.append(
                (
                    type(mod).__name__,
                    mod.position,
                    statement_share_key(stmt) if stmt is not None else None,
                )
            )
        key = (method.value, backend, tuple(parts))
        try:
            hash(key)
        except TypeError:  # unhashable constant: bypass the cache
            return None
        return key

    def answer(
        self,
        name: str,
        specs: Sequence[Any],
        *,
        method: str | None = None,
        backend: str | None = None,
        workers: int | None = None,
        shards: int | str | None = None,
        deadline: Deadline | None = None,
        explain: bool = False,
    ) -> list[dict]:
        """Answer one spec per entry over the named stored history.

        Cache hits are returned immediately; misses are answered in one
        ``answer_batch`` call (shared time travel + shared plans across
        the missing queries) with each start version reconstructed from
        the store's nearest checkpoint.  ``shards`` > 1 answers through
        the sharded execution path (DESIGN.md, "Sharded execution");
        ``shards="auto"``/``0`` lets the cost-based planner decide per
        query — each response then records the ``planner`` decision and
        its ``shards`` field reports the *chosen* count, under which the
        answer is also cached.

        ``deadline`` bounds the miss computation server-side: on expiry
        the call raises :class:`~repro.service.resilience.
        DeadlineExceeded` (504) while the abandoned computation may
        still finish in the background and populate the cache.  A
        sqlite-backend failure degrades to the compiled backend (the
        answer is backend-invariant by the differential suite); the
        response's ``backend`` field reports what actually answered and
        ``degraded_from`` the backend that failed.

        ``explain=True`` attaches an EXPLAIN ANALYZE per-operator
        ``profile`` to every answer.  Explain requests are diagnostic:
        they bypass the result cache entirely (never read, never
        stored — a cached payload has no profile, and a profiled
        payload must not be served to plain requests) and execute the
        serial unsharded reenactment path.
        """
        backend = backend or self.default_backend
        try:
            method_enum = METHODS[method or self.default_method]
        except KeyError:
            raise ServiceError(f"unknown method {method!r}") from None
        if workers is None:
            workers = self.batch_workers
        # Engines, and with them their pools, are shared across requests
        # and outlive them: one request must not be able to park more
        # workers on the server than it has cores to run them on.
        workers = min(workers, os.cpu_count() or 1)
        try:
            shards = normalize_shards(shards)
        except SpecError as exc:
            raise ServiceError(str(exc)) from None
        if shards is None:
            shards = self.default_shards
        if shards > MAX_SHARDS:
            raise ServiceError(
                f'shards must be between 1 and {MAX_SHARDS}, 0, or "auto"'
            )
        auto = shards == AUTO_SHARDS
        handle = self._handle(name)

        try:
            modifications = [modifications_from_spec(s) for s in specs]
        except SpecError as exc:
            raise ServiceError(str(exc)) from None

        with handle.lock, trace.span("cache", history=name) as cache_span:
            if handle.history is None:
                handle.history = handle.store.history()
            history = handle.history
            length = len(history)
            queries = []
            fingerprints = []
            outcomes: list[dict | None] = []
            for index, mods in enumerate(modifications):
                try:
                    query = HistoricalWhatIfQuery(
                        history, handle.initial, mods
                    )
                except Exception as exc:
                    raise ServiceError(str(exc)) from None
                # Explain requests bypass the cache entirely: a None
                # fingerprint skips both the read here and the store in
                # _resolve_misses.
                fingerprint = (
                    None
                    if explain
                    else self._fingerprint(method_enum, backend, mods)
                )
                entry = None
                if fingerprint is not None:
                    # Auto requests resolve through the planner's last
                    # chosen count for this fingerprint; no choice on
                    # record means a guaranteed miss (the planner runs).
                    resolved = (
                        handle.auto_choices.get(fingerprint)
                        if auto
                        else shards
                    )
                    if resolved is not None:
                        entry = handle.cache.get(
                            (length, resolved, fingerprint)
                        )
                if entry is not None:
                    self._cache_hits.inc(history=name)
                    cache_span.add_event("hit", query=index)
                    # history_length reflects the length the entry is
                    # keyed (and still valid) at, not the length it was
                    # originally computed for.
                    outcomes.append(
                        {
                            **entry.payload,
                            "history_length": length,
                            "cached": True,
                        }
                    )
                    queries.append(None)
                    fingerprints.append(None)
                else:
                    self._cache_misses.inc(history=name)
                    cache_span.add_event("miss", query=index)
                    outcomes.append(None)
                    queries.append(query)
                    fingerprints.append(fingerprint)
            cache_span.set_attributes(
                {
                    "queries": len(modifications),
                    "misses": sum(1 for q in queries if q is not None),
                }
            )
            misses = [q for q in queries if q is not None]
            # Time travel through the store: nearest checkpoint + bounded
            # replay, materialized once per *distinct* prefix, under the
            # lock so the log cannot advance between history snapshot
            # and version load.  NAIVE replays whole histories itself
            # and ignores injected start versions — skip the I/O.
            start_dbs = None
            if misses and method_enum is not Method.NAIVE:
                prefix_lengths = [
                    self._prefix_length(query) for query in misses
                ]
                by_length = {
                    length: handle.store.as_of(length)
                    for length in set(prefix_lengths)
                }
                start_dbs = [
                    by_length[length] for length in prefix_lengths
                ]

        if misses:
            # The deadline path runs the closure on a worker thread;
            # carry the request's active span over so engine spans nest
            # under it instead of vanishing.
            parent_span = trace.current_span()

            def _resolve_misses() -> None:
                with trace.use_span(parent_span):
                    _compute_misses()

            def _compute_misses() -> None:
                answered_backend, degraded_from = self._answer_misses(
                    backend, shards, misses, method_enum, workers,
                    start_dbs, explain,
                )
                results, used_backend = answered_backend
                fresh = iter(results)
                with handle.lock:
                    current_length = len(handle.store)
                    for index, query in enumerate(queries):
                        if query is None:
                            continue
                        result = next(fresh)
                        choice = result.planner_choice
                        # The payload's "shards" is the *effective*
                        # count the answer executed with — the planner's
                        # choice under auto, the request's otherwise —
                        # and the count the entry is cached under.
                        effective = (
                            choice.shards if choice is not None else shards
                        )
                        payload = {
                            **result_payload(result),
                            "history_length": length,
                            "method": method_enum.value,
                            "backend": used_backend,
                            "shards": effective,
                        }
                        if choice is not None:
                            payload["planner"] = choice.payload()
                        if degraded_from is not None:
                            payload["degraded_from"] = degraded_from
                        outcomes[index] = {**payload, "cached": False}
                        fingerprint = fingerprints[index]
                        if fingerprint is not None and auto:
                            handle.auto_choices[fingerprint] = effective
                        if (
                            fingerprint is not None
                            and current_length == length
                        ):
                            delta_relations = frozenset(
                                relation
                                for relation, delta
                                in result.delta.relations.items()
                                if delta.added or delta.removed
                            )
                            handle.cache[
                                (length, effective, fingerprint)
                            ] = _CacheEntry(payload, delta_relations)

            if deadline is not None:
                try:
                    deadline.run(_resolve_misses, "what-if computation")
                except ServiceError as exc:
                    if exc.status == 504:
                        self._deadline_timeouts.inc()
                    raise
            else:
                _resolve_misses()
        return [outcome for outcome in outcomes if outcome is not None]

    def _answer_misses(
        self, backend, shards, misses, method_enum, workers, start_dbs,
        explain=False,
    ):
        """One ``answer_batch`` call with sqlite→compiled degradation.

        Returns ``((results, backend_used), degraded_from)``.  Only
        sqlite has an external moving part (the C library, its
        connections, its temp storage); its errors re-answer on the
        compiled backend, which the four-way differential suite proves
        answer-equivalent.  The in-process backends' failures are
        deterministic Python errors and propagate.
        """
        import sqlite3

        engine = self._engine(backend, shards)
        try:
            results = engine.answer_batch(
                misses,
                method_enum,
                workers=workers,
                start_databases=start_dbs,
                explain=explain,
            )
            return (results, backend), None
        except sqlite3.Error as exc:
            # repro-lint: allow[backend-dispatch] -- not dispatch: only the backend that owns sqlite3 may degrade on a sqlite3.Error
            if backend != "sqlite":
                raise
            self._sqlite_fallbacks.inc()
            from ..core.degradation import record_degradation

            record_degradation("sqlite_fallback")
            log_event(
                "sqlite_fallback",
                error=str(exc),
                degraded_to="compiled",
            )
            fallback = self._engine("compiled", shards)
            results = fallback.answer_batch(
                misses,
                method_enum,
                workers=workers,
                start_databases=start_dbs,
                explain=explain,
            )
            return (results, "compiled"), "sqlite"

    @staticmethod
    def _prefix_length(query) -> int:
        _, prefix_length = query.aligned().trim_prefix()
        return prefix_length

    @property
    def deadline_timeouts(self) -> int:
        return int(self._deadline_timeouts.value())

    @property
    def sqlite_fallbacks(self) -> int:
        return int(self._sqlite_fallbacks.value())

    def service_stats(self) -> dict:
        """Service-level resilience counters for ``/health`` — read from
        the same registry instruments ``/metrics`` scrapes."""
        return {
            "deadline_timeouts": self.deadline_timeouts,
            "sqlite_fallbacks": self.sqlite_fallbacks,
        }


class _Handler(BaseHTTPRequestHandler):
    """Routes the JSON API onto a :class:`WhatIfService`.

    Resilience behavior (see DESIGN.md, "Resilience"): compute routes
    (``whatif``/``batch``) pass admission control — beyond
    ``max_in_flight`` concurrent requests they are shed with 503 +
    ``Retry-After`` — and honor per-request deadline budgets from the
    ``X-Mahif-Deadline-Ms`` header (504 on expiry).  All POST routes
    require a ``Content-Length`` (411) within ``max_body_bytes`` (413).
    While the server drains for shutdown, every non-health request is
    refused 503 so in-flight work can complete.
    """

    service: WhatIfService  # injected by WhatIfServer
    resilience: ResilienceConfig  # injected by WhatIfServer
    admission: AdmissionController  # shared across requests
    tracker: InFlightTracker  # shared across requests
    metrics: MetricsRegistry  # injected by WhatIfServer
    request_seconds: Any  # Histogram, injected by WhatIfServer
    requests_total: Any  # Counter, injected by WhatIfServer
    metrics_enabled = True
    quiet = True
    protocol_version = "HTTP/1.1"

    #: Routes that run engine computation and therefore pass admission
    #: control and deadline budgeting.
    _COMPUTE = re.compile(r"/histories/[^/]+/(whatif|batch)$")

    #: Bounded route labels for metrics — raw paths would be an
    #: unbounded label cardinality (every history name a new series).
    _ROUTE_LABELS = (
        ("health", re.compile(r"^$|^/health$")),
        ("metrics", re.compile(r"^/metrics$")),
        ("append", re.compile(r"^/histories/[^/]+/append$")),
        ("whatif", re.compile(r"^/histories/[^/]+/whatif$")),
        ("batch", re.compile(r"^/histories/[^/]+/batch$")),
        ("info", re.compile(r"^/histories/[^/]+$")),
        ("histories", re.compile(r"^/histories$")),
    )

    @classmethod
    def _route_label(cls, path: str) -> str:
        for label, pattern in cls._ROUTE_LABELS:
            if pattern.match(path):
                return label
        return "other"

    # -- plumbing ----------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.quiet:
            super().log_message(format, *args)

    def _reply(
        self,
        payload: dict,
        status: int = 200,
        headers: Mapping[str, str] | None = None,
    ) -> None:
        # Keep-alive hygiene: if a route errored before reading the
        # request body, drain it now — otherwise the unread bytes would
        # be parsed as the next request's request line.  Oversized
        # bodies are not worth draining; close the connection instead.
        if not getattr(self, "_body_consumed", False):
            leftover = int(self.headers.get("Content-Length") or 0)
            if 0 < leftover <= self.resilience.max_body_bytes:
                self.rfile.read(leftover)
            elif leftover:
                self.close_connection = True
            self._body_consumed = True
        trace_id = getattr(self, "_trace_id", None)
        if trace_id is not None and "trace_id" not in payload:
            payload = {**payload, "trace_id": trace_id}
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if trace_id is not None:
            self.send_header("X-Mahif-Trace", trace_id)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self._status = status

    def _body(self) -> dict:
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            raise ServiceError("Content-Length required", status=411)
        try:
            length = int(raw_length)
        except ValueError:
            raise ServiceError("Content-Length must be an integer") from None
        if length > self.resilience.max_body_bytes:
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{self.resilience.max_body_bytes}-byte limit",
                status=413,
            )
        raw = self.rfile.read(length) if length else b"{}"
        self._body_consumed = True
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServiceError(f"request body is not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object")
        return payload

    def _deadline(self) -> Deadline | None:
        """The request's deadline budget: client header, else the
        server-side default for compute routes."""
        header = self.headers.get("X-Mahif-Deadline-Ms")
        if header is not None:
            try:
                ms = float(header)
            except ValueError:
                raise ServiceError(
                    "X-Mahif-Deadline-Ms must be a number"
                ) from None
            if ms <= 0:
                raise DeadlineExceeded("deadline already expired on arrival")
            return Deadline.after_ms(ms)
        if self.resilience.default_deadline_ms is not None:
            return Deadline.after_ms(self.resilience.default_deadline_ms)
        return None

    def _dispatch(self, handler) -> None:
        route = self._route_label(self.path.rstrip("/"))
        # The trace id is assigned (or propagated from X-Mahif-Trace)
        # for *every* request and echoed in the payload and response
        # header; whether spans are recorded is the sampler's call.
        self._trace_id = (
            self.headers.get("X-Mahif-Trace") or trace.new_trace_id()
        )
        self._status = 500
        self.tracker.enter()
        try:
            # Metrics are recorded *before* the reply bytes hit the
            # socket: a client that scrapes immediately after its
            # response must see its own request counted.
            with self.request_seconds.time(route=route), trace.start_trace(
                "request",
                trace_id=self._trace_id,
                route=route,
                method=self.command,
                path=self.path,
            ) as root:
                headers: dict[str, str] | None = None
                try:
                    payload, status = handler()
                except ServiceError as exc:
                    payload, status = {"error": str(exc)}, exc.status
                    if exc.retry_after is not None:
                        headers = {"Retry-After": f"{exc.retry_after:g}"}
                except (StoreError, CodecError, ParseError) as exc:
                    payload, status = {"error": str(exc)}, 400
                except Exception as exc:  # pragma: no cover - defensive
                    payload = {"error": f"internal error: {exc!r}"}
                    status = 500
                root.set_attribute("status", status)
            self.requests_total.inc(route=route, code=str(status))
            self._reply(payload, status=status, headers=headers)
        finally:
            self.tracker.leave()

    def _guard(self, route, *, compute: bool):
        """Drain + admission checks wrapped around a route handler."""
        if self.tracker.draining:
            raise Overloaded(
                "server is shutting down", self.resilience.retry_after
            )
        if compute:
            with self.admission:
                return route()
        return route()

    # -- routes ------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._body_consumed = False  # per-request, the handler persists
        path = self.path.rstrip("/")
        if path == "/metrics":
            # Like /health, /metrics bypasses the drain/admission guard:
            # a scrape during overload is precisely when the numbers
            # matter most.
            self._route_metrics()
            return
        if path in ("", "/health"):
            # Health stays answerable while draining or overloaded —
            # it is how orchestrators *see* those states.
            self._dispatch(lambda: self._route_health())
            return
        self._dispatch(
            lambda: self._guard(lambda: self._route_get(path), compute=False)
        )

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._body_consumed = False
        path = self.path.rstrip("/")
        compute = self._COMPUTE.fullmatch(path) is not None
        self._dispatch(
            lambda: self._guard(
                lambda: self._route_post(path), compute=compute
            )
        )

    def _route_metrics(self) -> None:
        """Prometheus text scrape: the server's registry (request
        latencies, cache traffic, shed/timeout counters) merged with the
        process-global one (degradation, planner, sqlite cache).  The
        body is rendered to one string and written in a single response,
        so concurrent scrapes never observe torn lines."""
        if not self.metrics_enabled:
            self._trace_id = None
            self.requests_total.inc(route="metrics", code="404")
            self._reply(
                {"error": "metrics are disabled on this server"},
                status=404,
            )
            return
        # Counted before rendering so the scrape includes itself (and a
        # back-to-back scrape never sees a stale count).
        self.requests_total.inc(route="metrics", code="200")
        body = self.metrics.render(global_registry()).encode("utf-8")
        self.send_response(200)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _route_health(self):
        service = self.service
        return {
            "ok": True,
            "ready": not self.tracker.draining,
            "histories": service.history_names(),
            "resilience": resilience_snapshot(
                self.admission, self.tracker, service.service_stats()
            ),
        }, 200

    def _route_get(self, path: str):
        service = self.service
        if path == "/histories":
            return {
                "histories": [
                    service.info(name) for name in service.history_names()
                ]
            }, 200
        match = re.fullmatch(r"/histories/([^/]+)", path)
        if match:
            return service.info(match.group(1)), 200
        raise ServiceError(f"no such route GET {path}", status=404)

    def _route_post(self, path: str):
        service = self.service
        if path == "/histories":
            body = self._body()
            name = body.get("name")
            if "database" not in body:
                raise ServiceError('register requires a "database" payload')
            database = decode_database(body["database"])
            if not isinstance(database, Database):
                raise ServiceError(
                    "register requires a set-semantics database"
                )
            history = _statements_of(body, "history")
            interval = _int_of(body, "checkpoint_interval")
            info = service.register(
                name,
                database,
                History(tuple(history)) if history else None,
                checkpoint_interval=interval,
            )
            return info, 201
        match = re.fullmatch(r"/histories/([^/]+)/append", path)
        if match:
            body = self._body()
            statements = _statements_of(body, "statements")
            key = body.get("idempotency_key") or self.headers.get(
                "X-Mahif-Idempotency-Key"
            )
            return service.append(
                match.group(1), statements, idempotency_key=key
            ), 200
        match = re.fullmatch(r"/histories/([^/]+)/whatif", path)
        if match:
            body = self._body()
            if "modifications" not in body:
                raise ServiceError('whatif requires "modifications"')
            results = service.answer(
                match.group(1),
                [body["modifications"]],
                method=body.get("method"),
                backend=body.get("backend"),
                shards=_shards_of(body),
                deadline=self._deadline(),
                explain=bool(body.get("explain")),
            )
            return results[0], 200
        match = re.fullmatch(r"/histories/([^/]+)/batch", path)
        if match:
            body = self._body()
            specs = body.get("queries")
            if not isinstance(specs, list) or not specs:
                raise ServiceError(
                    'batch requires a non-empty "queries" array'
                )
            results = service.answer(
                match.group(1),
                specs,
                method=body.get("method"),
                backend=body.get("backend"),
                workers=_int_of(body, "workers"),
                shards=_shards_of(body),
                deadline=self._deadline(),
                explain=bool(body.get("explain")),
            )
            return {"results": results}, 200
        raise ServiceError(f"no such route POST {path}", status=404)


def _shards_of(body: Mapping) -> int | None:
    """The optional "shards" body field: positive int, 0, or "auto"."""
    try:
        return normalize_shards(body.get("shards"))
    except SpecError as exc:
        raise ServiceError(str(exc)) from None


def _int_of(body: Mapping, key: str) -> int | None:
    """An optional integer body field; bad values are a 400, not a 500."""
    value = body.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ServiceError(f'"{key}" must be an integer')
    try:
        return int(value)
    except ValueError:
        raise ServiceError(f'"{key}" must be an integer') from None


def _statements_of(body: Mapping, key: str) -> list[Statement]:
    """Statements from a request body: ``<key>`` (codec-encoded list)
    and/or ``<key>_sql`` (a ``;``-separated SQL script)."""
    statements: list[Statement] = []
    encoded = body.get(key)
    if encoded is not None:
        if not isinstance(encoded, list):
            raise ServiceError(f'"{key}" must be a list of statements')
        statements.extend(decode_statement(item) for item in encoded)
    sql = body.get(f"{key}_sql")
    if sql:
        try:
            statements.extend(parse_history(sql))
        except ParseError as exc:
            raise ServiceError(f'unparseable "{key}_sql": {exc}') from None
    return statements


class WhatIfServer:
    """A :class:`ThreadingHTTPServer` serving a :class:`WhatIfService`.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    construction.  ``start_background()`` serves from a daemon thread
    (tests, benchmarks); ``serve_forever()`` blocks (the CLI).

    ``resilience`` tunes admission control, deadlines, body limits, and
    drain behavior (defaults are production-shaped; see
    :class:`~repro.service.resilience.ResilienceConfig`).
    :meth:`shutdown` is graceful by default: stop accepting, shed new
    requests 503, wait for in-flight requests to complete (up to
    ``drain_timeout``), then flush and close every store.
    """

    def __init__(
        self,
        service: WhatIfService,
        host: str = "127.0.0.1",
        port: int = 8734,
        *,
        quiet: bool = True,
        resilience: ResilienceConfig | None = None,
        metrics: bool = True,
    ) -> None:
        self.resilience = resilience or ResilienceConfig()
        self.admission = AdmissionController(
            self.resilience.max_in_flight, self.resilience.retry_after
        )
        self.tracker = InFlightTracker()
        # Server-owned instruments live on the *service's* registry so
        # one /metrics scrape covers both layers.  When several servers
        # wrap one service (tests mostly), the last one wins the
        # server-scoped names — unregister-then-register keeps repeat
        # construction from raising.
        registry = service.metrics
        registry.unregister("mahif_shed_total")
        registry.register(self.admission.shed_counter)
        registry.unregister("mahif_in_flight")
        registry.gauge(
            "mahif_in_flight",
            "Admitted compute requests currently executing.",
            callback=lambda: self.admission.in_flight,
        )
        self.request_seconds = registry.histogram(
            "mahif_request_seconds",
            "HTTP request latency by route, seconds.",
            ("route",),
        )
        self.requests_total = registry.counter(
            "mahif_requests_total",
            "HTTP requests served, by route and status code.",
            ("route", "code"),
        )
        handler = type(
            "_BoundHandler",
            (_Handler,),
            {
                "service": service,
                "quiet": quiet,
                "resilience": self.resilience,
                "admission": self.admission,
                "tracker": self.tracker,
                "metrics": registry,
                "metrics_enabled": metrics,
                "request_seconds": self.request_seconds,
                "requests_total": self.requests_total,
            },
        )
        self.service = service
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def start_background(self) -> "WhatIfServer":
        thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="mahif-whatif-server",
            daemon=True,
        )
        thread.start()
        self._thread = thread
        return self

    def shutdown(self, *, drain: bool | None = None) -> bool:
        """Stop the server; returns True when the drain fully completed.

        Graceful by default: (1) mark draining, so every new request is
        shed with 503 + Retry-After while health keeps answering with
        ``ready: false``; (2) stop the accept loop; (3) wait up to
        ``drain_timeout`` for in-flight requests to finish writing their
        responses; (4) close the listening socket and flush + close the
        stores.  ``drain=False`` skips step (3) (tests, emergencies).
        """
        if drain is None:
            drain = True
        self.tracker.begin_drain()
        self._httpd.shutdown()
        drained = True
        if drain:
            drained = self.tracker.wait_idle(
                timeout=self.resilience.drain_timeout
            )
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.service.close()
        return drained
