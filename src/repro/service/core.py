"""The HTTP-agnostic what-if service: stored histories and answering.

:class:`WhatIfService` owns the named persistent histories (each a
:class:`~repro.store.HistoryStore` under one root directory), one shared
:class:`~repro.core.Mahif` engine per backend, one
:class:`~repro.core.engine.VersionCache` for the versions its misses
have time-travelled to, and per history one
:class:`~repro.service.cache.ResultCache`.  It is safe for
concurrent use: histories and databases are immutable, a per-history
lock guards store appends and the cache, and answers are computed
outside any lock.

:meth:`WhatIfService.answer` is a straight line of stages — resolve the
request's options, look up the cache and time-travel the misses (under
the lock), compute and encode (outside it), publish (under it again).
Single queries run through :meth:`Mahif.answer_batch` as a
one-element batch, so both endpoints share the same machinery: shared
time travel (a version the service has visited is looked up, a new one
is reached from the deepest kept version or store checkpoint below it,
never by a full prefix replay) and, within a batch, shared reenactment
plans.
"""

from __future__ import annotations

import functools
import os
import pathlib
import re
import shutil
import sqlite3
import threading
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any, Hashable, Sequence

from ..core import HistoricalWhatIfQuery, Mahif, MahifConfig, Method
from ..core.batch import prefix_key, shared_start_databases
from ..core.degradation import record_degradation
from ..core.engine import VersionCache, deprecated_shards
from ..core.plan import statement_share_key
from ..obs import trace
from ..obs.logging import log_event
from ..obs.metrics import MetricsRegistry
from ..relational import BACKENDS
from ..relational.exec.backend import resolve_backend
from ..relational.database import Database
from ..relational.history import History
from ..relational.statements import Statement
from ..store import DEFAULT_CHECKPOINT_INTERVAL, HistoryStore, StoreError
from .cache import CachedAnswer, ResultCache
from .resilience import (
    Deadline,
    DeadlineExceeded,
    IdempotencyCache,
    Overloaded,
    ServiceError,
)
from .wire import (
    METHODS,
    SpecError,
    modifications_from_spec,
)

__all__ = ["WhatIfService"]

_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")

#: The method a request that names none is answered with.
DEFAULT_METHOD = Method.R_PS_DS


def _deprecated_shards(value: Any, what: str) -> None:
    """Validate and count a ``shards`` input the client gave (``None``:
    none); every answer runs unsharded."""
    if value is not None:
        try:
            deprecated_shards(value, what)
        except ValueError as exc:
            raise ServiceError(str(exc)) from None


def _applied(stmt: Statement, state: Database, what: str) -> Database:
    """``stmt.apply(state)``; a statement that does not apply is the
    client's error (400), whatever it raised."""
    try:
        return stmt.apply(state)
    except Exception as exc:
        raise ServiceError(f"invalid {what} {stmt!r}: {exc}") from None


def _fingerprint(options: "_Options", modifications) -> Hashable | None:
    """What identifies an answer besides the history: method, backend
    and the structural share-key of every modification's statement (two
    SQL spellings of one statement share an entry).  ``None`` bypasses
    the cache, neither looked up nor published: an explain request, or
    an unhashable constant.
    """
    if options.explain:
        return None
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
    key = (options.method.value, options.backend, tuple(parts))
    try:
        hash(key)
    except TypeError:
        return None
    return key


@dataclass(frozen=True)
class _Options:
    """One request's options, resolved against the service defaults."""

    method: Method
    backend: str
    workers: int
    explain: bool


class Answer(Mapping):
    """One answer as :meth:`WhatIfService.answer` returns it.  To an
    in-process caller it reads as the dict it equals — the cached
    payload plus ``history_length`` and ``cached`` — built on the first
    read.  The HTTP edge reads none of it: it splices the two
    per-response fields, kept here as attributes, around :attr:`body`,
    the bytes the cached payload was encoded to when it was computed,
    so an answer that only goes out over HTTP never builds its rows."""

    __slots__ = ("body", "history_length", "cached", "_answer", "_dict")

    def __init__(
        self, answer: CachedAnswer, history_length: int, cached: bool
    ) -> None:
        self.body = answer.body
        self.history_length = history_length
        self.cached = cached
        self._answer = answer
        self._dict: dict | None = None

    def _read(self) -> dict:
        if self._dict is None:
            self._dict = dict(
                self._answer.payload,
                history_length=self.history_length,
                cached=self.cached,
            )
        return self._dict

    def __getitem__(self, key: str) -> Any:
        return self._read()[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._read())

    def __len__(self) -> int:
        return len(self._read())

    def __repr__(self) -> str:
        return f"Answer({self._read()!r})"


@dataclass
class _Pending:
    """One request between lookup and publish."""

    #: The history length the lookup saw, hence the one a miss is
    #: computed at.
    length: int
    #: One slot per spec: a hit's answer, or ``None`` until published.
    outcomes: list[Answer | None] = field(default_factory=list)
    #: ``(slot, fingerprint, query)`` per miss, in slot order.
    misses: list[tuple[int, Hashable | None, HistoricalWhatIfQuery]] = field(
        default_factory=list
    )
    start_dbs: list[Database] | None = None

    @property
    def queries(self) -> list[HistoricalWhatIfQuery]:
        return [query for _, _, query in self.misses]


@dataclass
class _HistoryHandle:
    name: str
    store: HistoryStore
    lock: threading.RLock = field(default_factory=threading.RLock)
    #: Memoized ``store.history()`` — rebuilding the statement tuple per
    #: request is O(history length) on the cache-hit hot path.  Reset to
    #: None by append().
    history: History | None = None
    cache: ResultCache = field(init=False)
    #: idempotency key -> recorded append response (bounded LRU), so a
    #: client retry after a lost response never double-appends.
    idempotency: IdempotencyCache = field(
        default_factory=IdempotencyCache
    )

    def __post_init__(self) -> None:
        self.cache = ResultCache(len(self.store))


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
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        batch_workers: int = 0,
        default_shards: int | str | None = None,
        sync: bool = True,
    ) -> None:
        if default_backend not in BACKENDS:
            raise ServiceError(f"unknown backend {default_backend!r}")
        if checkpoint_interval < 1:
            raise ServiceError("checkpoint_interval must be >= 1")
        if batch_workers < 0:
            raise ServiceError("batch_workers must be >= 0")
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.default_backend = default_backend
        self.checkpoint_interval = checkpoint_interval
        self.batch_workers = batch_workers
        # Deprecated: validated and counted, changes no answer.
        _deprecated_shards(default_shards, "default_shards")
        #: Power-loss durability for the stores this service owns: fsync
        #: the log on append, the directory on checkpoint rename.
        self.sync = sync
        self._instruments()
        self._handles: dict[str, _HistoryHandle | None] = {}
        self._handles_lock = threading.Lock()
        #: One shared engine per executor; a request's pool width is an
        #: argument of the call, not of the engine.
        self._engines: dict[str, Mahif] = {}
        self._engines_lock = threading.Lock()
        #: Versions served misses have visited, for every history and
        #: backend; never invalidated (a prefix's state cannot change).
        self._versions = VersionCache()
        self.skipped_on_startup: dict[str, str] = {}
        self._reopen_stores()

    def _instruments(self) -> None:
        """The service's metric instruments, in its own registry."""
        #: Per-service metrics: result-cache traffic plus the service's
        #: own degradation counters (process-wide pool counters
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
        self._cache_entries = self.metrics.gauge(
            "mahif_result_cache_entries",
            "Answers currently held by the result cache, by history.",
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
        #: Incremented wherever a response body is serialised (the
        #: server's own replies included): by an answer once, when it is
        #: computed, however often it is served afterwards.
        self.wire_encodes = self.metrics.counter(
            "mahif_wire_encodes_total",
            "JSON response bodies serialised, by route.",
            ("route",),
        )
        #: Where a request's misses spend their time outside the locks:
        #: ``compute`` (their one ``answer_batch`` call) and ``encode``
        #: (their bytes); one observation each per request that missed.
        self._stage_seconds = self.metrics.histogram(
            "mahif_stage_seconds",
            "Seconds a request's cache misses spend in each unlocked "
            "stage: compute or encode.",
            ("stage",),
        )

    def _reopen_stores(self) -> None:
        for entry in sorted(self.root.iterdir()):
            if not (entry / "META.json").is_file():
                continue
            try:
                store = HistoryStore.open(entry, sync=self.sync)
            except StoreError as exc:
                # One unrecoverable directory (e.g. a crash between
                # META and the base checkpoint during create) must
                # not take down every healthy history under root.
                self.skipped_on_startup[entry.name] = str(exc)
                log_event(
                    "history_skipped", history=entry.name, error=str(exc)
                )
                continue
            self._handles[entry.name] = _HistoryHandle(entry.name, store)

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
        if checkpoint_interval is None:
            checkpoint_interval = self.checkpoint_interval
        if checkpoint_interval < 1:
            raise ServiceError("checkpoint_interval must be >= 1")
        with self._handles_lock:
            if name in self._handles:
                raise ServiceError(
                    f"history {name!r} already exists", status=409
                )
            # Reserve the name, then create the store outside the global
            # lock: writing the base checkpoint is O(database) disk I/O
            # and must not stall requests against other histories.
            self._handles[name] = None
        path = self.root / name
        store = None
        try:
            if (path / "META.json").exists():
                # A store directory we did not open (e.g. skipped as
                # broken at startup): never delete it, never reuse the
                # name.  Distinct wording from the handle-duplicate 409
                # so clients can tell the two apart.
                raise ServiceError(
                    f"name {name!r} is taken by an existing store "
                    "directory under the service root", status=409,
                )
            store = HistoryStore.create(
                path,
                database,
                checkpoint_interval=checkpoint_interval,
                sync=self.sync,
            )
            # Append the initial history while the name is still only a
            # reservation (other requests see 409 "being created"), so
            # no concurrent append can interleave ahead of it.  One
            # pass: each statement's validating apply is also the
            # store's apply result.
            state = database
            for stmt in history or ():
                state = _applied(stmt, state, "history statement")
                store.append(stmt, state=state)
        except BaseException as exc:
            # Leave no partial store behind: a bad history must not
            # squat on the name, a failed registration must be fully
            # retryable, and a restart must not resurrect a truncated
            # history the client was told failed.
            with self._handles_lock:
                self._handles.pop(name, None)
            if store is not None:
                store.close()
                shutil.rmtree(path, ignore_errors=True)
            if isinstance(exc, StoreError):
                raise ServiceError(str(exc), status=409) from None
            raise
        with self._handles_lock:
            self._handles[name] = _HistoryHandle(name, store)
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
        """Durably append statements; incrementally invalidate the cache
        (the rule is :class:`~repro.service.cache.ResultCache`'s).

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
                state = _applied(stmt, state, "statement")
                states.append(state)
            appended = dropped = retained = 0
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
                    dropped, retained = self._advance(
                        handle, statements[:appended]
                    )
            response = {
                "name": name,
                "length": len(handle.store),
                "cache_dropped": dropped,
                "cache_retained": retained,
            }
            if idempotency_key is not None:
                handle.idempotency.put(idempotency_key, response)
        return response

    def _advance(
        self, handle: _HistoryHandle, durable: Sequence[Statement]
    ) -> tuple[int, int]:
        """The log grew by ``durable`` (under the history's lock)."""
        handle.history = None  # memo invalid: log advanced
        accessed: set[str] = set()
        for stmt in durable:
            accessed |= stmt.accessed_relations()
        dropped, retained = handle.cache.advance(
            len(handle.store), accessed
        )
        if dropped:
            self._cache_invalidations.inc(dropped, history=handle.name)
        self._cache_entries.set(retained, history=handle.name)
        span = trace.current_span()
        if span is not None:
            span.add_event(
                "cache_invalidate",
                history=handle.name,
                dropped=dropped,
                retained=retained,
            )
        return dropped, retained

    # -- answering ------------------------------------------------------------
    def _engine(self, backend: str) -> Mahif:
        """The shared engine of the executor ``backend`` names: two names
        of one executor (``"vector"``, ``"compiled"``) share one engine,
        its version cache and its pool."""
        executor = resolve_backend(backend).name
        with self._engines_lock:
            engine = self._engines.get(executor)
            if engine is None:
                engine = Mahif(MahifConfig(backend=executor))
                self._engines[executor] = engine
            return engine

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
        route: str = "direct",
    ) -> list[Answer]:
        """Answer one spec per entry over the named stored history.

        Cache hits are returned immediately; misses are answered in one
        ``answer_batch`` call (shared time travel + shared plans across
        the missing queries) with each start version taken from the
        versions the service keeps — a position asked about before
        replays nothing, a new one starts from the deepest kept version
        or store checkpoint below it.  ``shards`` is deprecated: a value
        is validated and counted
        (:func:`~repro.core.engine.deprecated_shards`), and the answer
        is the unsharded one it always equalled.

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
        payload must not be served to plain requests) and evaluate
        in-process.

        ``route`` labels this call in ``mahif_wire_encodes_total``: the
        HTTP route it serves, ``"direct"`` for an in-process caller.
        """
        options = self._options(method, backend, workers, shards, explain)
        handle = self._handle(name)
        try:
            modifications = [modifications_from_spec(s) for s in specs]
        except SpecError as exc:
            raise ServiceError(str(exc)) from None
        # One critical section, so the log cannot advance between the
        # history snapshot and the time travel.
        with handle.lock, trace.span("cache", history=name) as cache_span:
            pending = self._lookup(handle, options, modifications, cache_span)
            pending.start_dbs = self._time_travel(
                handle.store, options.method, pending.queries
            )
        if pending.misses:
            # The deadline path resolves on a worker thread; hand it the
            # request's active span so engine spans nest under it
            # instead of vanishing.
            resolve = functools.partial(
                self._resolve, handle, options, pending, route,
                trace.current_span(),
            )
            if deadline is None:
                resolve()
            else:
                try:
                    deadline.run(resolve, "what-if computation")
                except DeadlineExceeded:
                    self._deadline_timeouts.inc()
                    raise
        return pending.outcomes

    def _options(self, method, backend, workers, shards, explain) -> _Options:
        """Stage 1: the request's options, each resolved once."""
        try:
            method = METHODS[method] if method else DEFAULT_METHOD
        except KeyError:
            raise ServiceError(f"unknown method {method!r}") from None
        backend = backend or self.default_backend
        if backend not in BACKENDS:
            raise ServiceError(f"unknown backend {backend!r}")
        if workers is None:
            workers = self.batch_workers
        # Engines, and with them their pools, are shared across requests
        # and outlive them: one request must not be able to park more
        # workers on the server than it has cores to run them on.
        workers = min(workers, os.cpu_count() or 1)
        _deprecated_shards(shards, "shards")
        return _Options(method, backend, workers, bool(explain))

    def _lookup(
        self, handle: _HistoryHandle, options: _Options, modifications, span
    ) -> _Pending:
        """Stage 2, under the history's lock: bind every spec to the
        current history and serve the ones the cache holds."""
        if handle.history is None:
            handle.history = handle.store.history()
        history = handle.history
        initial = handle.store.initial()
        pending = _Pending(len(history))
        for slot, mods in enumerate(modifications):
            try:
                query = HistoricalWhatIfQuery(history, initial, mods)
            except Exception as exc:
                raise ServiceError(str(exc)) from None
            fingerprint = _fingerprint(options, mods)
            hit = (
                None
                if fingerprint is None
                else handle.cache.get(fingerprint)
            )
            if hit is not None:
                self._cache_hits.inc(history=handle.name)
                span.add_event("hit", query=slot)
                # A retained entry is valid at the current length, not
                # only at the one it was computed for.
                pending.outcomes.append(Answer(hit, pending.length, True))
            else:
                self._cache_misses.inc(history=handle.name)
                span.add_event("miss", query=slot)
                pending.outcomes.append(None)
                pending.misses.append((slot, fingerprint, query))
        span.set_attributes(
            {"queries": len(modifications), "misses": len(pending.misses)}
        )
        return pending

    def _time_travel(
        self, store: HistoryStore, method: Method, queries
    ) -> list[Database] | None:
        """Stage 3, under the history's lock: each miss's start version
        out of the service's version cache — a position asked about
        before is a lookup, a deeper one replays only the statements
        past the deepest version kept.  The store adds what only it
        has: a checkpoint deeper than anything kept is loaded (no
        replay) and kept first, so a cold miss replays fewer than
        ``checkpoint_interval`` statements.  Replay runs compiled
        whatever backend the request names: a state does not depend on
        what computed it, and its key names no backend.  NAIVE replays
        whole histories itself and ignores injected start versions, so
        it skips the stage."""
        if not queries or method is Method.NAIVE:
            return None
        # One lookup bound every query to the same history and version 0.
        statements = queries[0].history.statements
        base = queries[0].database
        lengths = {q.aligned().trim_prefix()[1] for q in queries} - {0}
        with trace.span("time_travel", prefixes=len(lengths)) as span:
            loads = 0
            for length in sorted(lengths):
                checkpoint = length - store.replay_cost(length)
                wanted = prefix_key(statements[:length]) if checkpoint else None
                if (
                    wanted is not None
                    and self._versions.deepest(base, wanted)[0] < checkpoint
                ):
                    self._versions.put(
                        base,
                        prefix_key(statements[:checkpoint]),
                        store.as_of(checkpoint),
                    )
                    loads += 1
            span.set_attribute("checkpoint_loads", loads)
            return shared_start_databases(queries, None, self._versions)

    def _resolve(
        self, handle: _HistoryHandle, options: _Options, pending: _Pending,
        route: str, parent_span,
    ) -> None:
        """Stages 4 to 6 for the misses: compute and encode outside the
        lock — ordering and serialising a 1 MB delta is tens of
        milliseconds no append should wait for — publish under it."""
        with trace.use_span(parent_span):
            with self._stage_seconds.time(stage="compute"):
                results, used_backend = self._compute(
                    options, pending.queries, pending.start_dbs
                )
            with self._stage_seconds.time(stage="encode"):
                answers = [
                    self._encode(options, result, used_backend, route)
                    for result in results
                ]
            with handle.lock:
                self._publish(handle, pending, results, answers)

    def _compute(self, options: _Options, queries, start_dbs):
        """Stage 4: one ``answer_batch`` call; returns ``(results,
        backend used)``.

        Only sqlite has an external moving part (the C library, its
        connections, its temp storage); its errors re-answer on the
        compiled backend, which the four-way differential suite proves
        answer-equivalent.  The in-process backends' failures are
        deterministic Python errors and propagate.
        """
        backend = options.backend
        while True:
            engine = self._engine(backend)
            try:
                results = engine.answer_batch(
                    queries,
                    options.method,
                    workers=options.workers,
                    start_databases=start_dbs,
                    explain=options.explain,
                )
                return results, backend
            except sqlite3.Error as exc:
                # repro-lint: allow[backend-dispatch] -- not dispatch: only the backend that owns sqlite3 may degrade on a sqlite3.Error
                if backend != "sqlite":
                    raise
                self._sqlite_fallbacks.inc()
                record_degradation("sqlite_fallback")
                log_event(
                    "sqlite_fallback", error=str(exc), degraded_to="compiled"
                )
                backend = "compiled"

    def _encode(
        self, options: _Options, result, used_backend: str, route: str
    ) -> CachedAnswer:
        """Stage 5, outside any lock: everything about one answer that
        no later response to it will change, as the bytes — once, here —
        every one of those responses is made of (the dict an in-process
        caller reads is built on that read)."""
        fields = {"method": options.method.value, "backend": used_backend}
        if used_backend != options.backend:
            fields["degraded_from"] = options.backend
        self.wire_encodes.inc(route=route)
        return CachedAnswer.encode(result, fields)

    def _publish(
        self, handle: _HistoryHandle, pending: _Pending, results,
        answers: list[CachedAnswer],
    ) -> None:
        """Stage 6, under the history's lock: fill the misses' slots and
        offer each answer to the cache, under the relations whose delta
        is non-empty — exactly those the wire delta lists."""
        for (slot, fingerprint, _), result, answer in zip(
            pending.misses, results, answers
        ):
            pending.outcomes[slot] = Answer(answer, pending.length, False)
            if fingerprint is not None:
                handle.cache.put(
                    fingerprint,
                    answer,
                    [
                        relation
                        for relation, delta in result.delta.relations.items()
                        if not delta.is_empty()
                    ],
                    pending.length,
                )
        self._cache_entries.set(len(handle.cache), history=handle.name)

    def service_stats(self) -> dict:
        """Service-level resilience counters for ``/health`` — read from
        the same registry instruments ``/metrics`` scrapes."""
        return {
            "deadline_timeouts": int(self._deadline_timeouts.value()),
            "sqlite_fallbacks": int(self._sqlite_fallbacks.value()),
        }
