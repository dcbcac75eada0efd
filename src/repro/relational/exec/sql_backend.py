"""The ``"sqlite"`` execution backend: Mahif as a real middleware.

The paper's system rewrites a what-if history into one reenactment query
and ships it to a DBMS.  This module completes that architecture for the
reproduction: the database is loaded into an in-memory :mod:`sqlite3`
connection, operator trees and update statements are translated to SQL by
:mod:`.sqlite_sql`, executed server-side, and the results read back into
:class:`~repro.relational.relation.Relation` /
:class:`~repro.relational.bag.BagRelation` instances.

Storage model
-------------

* Set-semantics relations become plain rowid tables, one untyped column
  per attribute (BLOB affinity — values keep the storage class they were
  bound with, so comparisons follow SQLite's cross-type rules, which the
  translation layer reconciles with Python semantics).
* Bag-semantics relations carry one extra hidden column
  (:data:`~.sqlite_sql.MULT_COLUMN`) holding the row's multiplicity;
  duplicate rows arriving from queries or inserts are consolidated at
  read-back time by summing, which is exactly the bag evaluator's
  ``Counter`` behaviour.

Databases are immutable, so read-only query evaluation caches one loaded
connection per :class:`Database`/:class:`BagDatabase` *instance* (keyed
by identity, dropped via weakref when the database is collected) — the
engine evaluates many reenactment queries against one time-travelled
state, and reloading per query would swamp the measurement.  Statement
application uses a throwaway connection loaded with just the relations
the statement touches, since it must not mutate the cached image.

Cache lifetime and thread-safety contract (see DESIGN.md, "The sqlite
middleware backend"):

* entries are keyed per *thread* — a :mod:`sqlite3` connection must not
  be used from two threads at once, and the engine's batched path
  (:meth:`repro.core.engine.Mahif.answer_batch`) evaluates sqlite
  queries from a thread pool, so each worker thread gets its own loaded
  connection per database instance,
* all module state is guarded by one re-entrant lock (weakref ``_drop``
  callbacks can fire on any thread, including re-entrantly under the
  lock during an allocation inside a cache operation),
* every registered ``_drop`` callback carries the *generation* of the
  entry it was created for and is a no-op when the cached entry has
  since been replaced — otherwise a late callback (``id()`` reuse after
  GC, or a set/bag reload of the same database) would pop and close the
  live replacement connection mid-use,
* the cache is bounded: beyond ``sqlite_cache_info()["max_connections"]``
  entries the least-recently-used connection is evicted and closed, so a
  long-running batch server over many distinct databases cannot leak
  connections.  Closing is deferred while a query is in flight on the
  entry (``clear_sqlite_cache()`` is safe to call concurrently): the
  entry is marked defunct, dropped from the cache, and closed by the
  last release.
"""

from __future__ import annotations

import itertools
import sqlite3
import threading
import weakref
from collections import Counter, OrderedDict
from typing import Any, Iterable

from ..algebra import Operator, base_relations, output_schema
from ..database import Database
from ..relation import Relation
from ..schema import Schema, SchemaError
from .sqlite_sql import (
    MULT_COLUMN,
    RESERVED_COLUMNS,
    SqlBackendError,
    bind_value,
    query_to_sqlite,
    query_to_sqlite_bag,
    quote_identifier,
    statement_to_sqlite,
)

__all__ = [
    "SqlBackendError",
    "execute_query_sqlite",
    "execute_query_sqlite_bag",
    "apply_statement_sqlite",
    "apply_statement_sqlite_bag",
    "clear_sqlite_cache",
    "sqlite_cache_info",
    "set_sqlite_cache_limit",
]


# -- loading ----------------------------------------------------------------

def _check_identifier_collisions(names: Iterable[str], what: str) -> None:
    """SQLite identifiers are case-insensitive; Python names are not."""
    seen: dict[str, str] = {}
    for name in names:
        folded = name.lower()
        if folded in seen and seen[folded] != name:
            raise SqlBackendError(
                f"{what} {seen[folded]!r} and {name!r} collide under "
                "SQLite's case-insensitive identifiers"
            )
        seen[folded] = name


def _create_table(
    conn: sqlite3.Connection, name: str, schema: Schema, bag: bool
) -> None:
    for attribute in schema.attributes:
        if attribute in RESERVED_COLUMNS:
            raise SqlBackendError(
                f"attribute name {attribute!r} is reserved by the sqlite "
                "backend"
            )
    _check_identifier_collisions(schema.attributes, "attributes")
    columns = [quote_identifier(a) for a in schema.attributes]
    if bag:
        columns.append(f"{quote_identifier(MULT_COLUMN)} INTEGER")
    if not columns:
        raise SqlBackendError(f"relation {name!r} has zero columns")
    conn.execute(
        f"CREATE TABLE {quote_identifier(name)} ({', '.join(columns)})"
    )


def _load_set_relation(
    conn: sqlite3.Connection, name: str, relation: Relation
) -> None:
    _create_table(conn, name, relation.schema, bag=False)
    placeholders = ", ".join("?" for _ in relation.schema.attributes)
    conn.executemany(
        f"INSERT INTO {quote_identifier(name)} VALUES ({placeholders})",
        (tuple(bind_value(v) for v in row) for row in relation.tuples),
    )


def _load_bag_relation(conn: sqlite3.Connection, name: str, relation) -> None:
    _create_table(conn, name, relation.schema, bag=True)
    placeholders = ", ".join("?" for _ in relation.schema.attributes)
    conn.executemany(
        f"INSERT INTO {quote_identifier(name)} "
        f"VALUES ({placeholders}, ?)",
        (
            tuple(bind_value(v) for v in row) + (count,)
            for row, count in relation.multiplicities.items()
        ),
    )


def _load_database(conn: sqlite3.Connection, db, names, bag: bool) -> None:
    _check_identifier_collisions(names, "relations")
    for name in names:
        if bag:
            _load_bag_relation(conn, name, db[name])
        else:
            _load_set_relation(conn, name, db[name])


def _connect() -> sqlite3.Connection:
    # Connections are single-thread-confined *by construction* (cache
    # entries are keyed per thread; throwaway statement connections never
    # escape their frame), but eviction/clear may close an entry from a
    # different thread — which sqlite3 forbids unless the check is off.
    return sqlite3.connect(":memory:", check_same_thread=False)


# -- read-only connection cache ---------------------------------------------

class _CacheEntry:
    """One cached ``(thread, database)`` connection with its lifetime bits.

    ``generation`` identifies the entry its weakref ``_drop`` callback was
    registered for; ``in_use`` counts in-flight queries so eviction/clear
    can defer the close; ``defunct`` marks an entry removed from the cache
    whose connection the last release must close.
    """

    __slots__ = ("ref", "conn", "bag", "generation", "in_use", "defunct")

    def __init__(self, ref, conn, bag, generation):
        self.ref = ref
        self.conn = conn
        self.bag = bag
        self.generation = generation
        self.in_use = 0
        self.defunct = False


_lock = threading.RLock()
#: ``(thread ident, id(db)) -> _CacheEntry``, most recently used last.
_connections: "OrderedDict[tuple[int, int], _CacheEntry]" = OrderedDict()
_generations = itertools.count()
_cache_hits = 0
_cache_misses = 0
_generation_drops = 0
_max_connections = 32


def _retire(entry: _CacheEntry) -> None:
    """Close an entry's connection, deferred while queries are in flight.

    Caller holds ``_lock`` and has already removed the entry from
    ``_connections``.
    """
    entry.defunct = True
    if entry.in_use == 0:
        entry.conn.close()


def _acquire(db, bag: bool) -> _CacheEntry:
    """Look up or load the calling thread's connection for ``db``.

    The returned entry has its in-use count raised; callers must pair
    with :func:`_release` (closing is deferred past in-flight queries).
    """
    global _cache_hits, _cache_misses
    key = (threading.get_ident(), id(db))
    with _lock:
        entry = _connections.get(key)
        if entry is not None and entry.ref() is db and entry.bag == bag:
            _cache_hits += 1
            entry.in_use += 1
            _connections.move_to_end(key)
            return entry
        if entry is not None:  # id reuse, or a set/bag reload of one db
            del _connections[key]
            _retire(entry)
        _cache_misses += 1
    # Load outside the lock — it is the expensive part, and the key is
    # private to this thread, so nobody can race the insertion below.
    conn = _connect()
    _load_database(conn, db, db.relation_names(), bag)
    with _lock:
        generation = next(_generations)

        def _drop(_ref, key=key, generation=generation) -> None:
            global _generation_drops
            with _lock:
                stale = _connections.get(key)
                if stale is not None and stale.generation == generation:
                    del _connections[key]
                    _retire(stale)
                    _generation_drops += 1

        entry = _CacheEntry(weakref.ref(db, _drop), conn, bag, generation)
        entry.in_use = 1
        _connections[key] = entry
        while len(_connections) > _max_connections:
            evicted_key, evicted = next(iter(_connections.items()))
            if evicted is entry:  # bound of 1: keep the entry in use
                break
            del _connections[evicted_key]
            _retire(evicted)
        return entry


def _release(entry: _CacheEntry) -> None:
    with _lock:
        entry.in_use -= 1
        if entry.defunct and entry.in_use == 0:
            entry.conn.close()


def clear_sqlite_cache() -> None:
    """Close and drop every cached read-only connection.

    Safe to call while queries are in flight on other threads: their
    entries are marked defunct and closed by the last release instead of
    being yanked mid-query.
    """
    global _cache_hits, _cache_misses
    with _lock:
        entries = list(_connections.values())
        _connections.clear()
        for entry in entries:
            _retire(entry)
        _cache_hits = 0
        _cache_misses = 0


def set_sqlite_cache_limit(limit: int) -> int:
    """Set the connection-cache bound; returns the previous bound.

    Shrinking evicts (LRU-first) immediately; in-flight queries on
    evicted entries finish normally before their connection closes.
    """
    global _max_connections
    if limit < 1:
        raise ValueError("sqlite cache limit must be at least 1")
    with _lock:
        previous = _max_connections
        _max_connections = limit
        while len(_connections) > _max_connections:
            evicted_key, evicted = next(iter(_connections.items()))
            del _connections[evicted_key]
            _retire(evicted)
        return previous


def sqlite_cache_info() -> dict[str, int]:
    with _lock:
        return {
            "hits": _cache_hits,
            "misses": _cache_misses,
            "connections": len(_connections),
            "max_connections": _max_connections,
            "generation_drops": _generation_drops,
        }


def _register_cache_metrics() -> None:
    """Expose the connection-cache state as callback gauges on the
    process-global registry: the scrape reads this module's truth
    directly, so the PR 3 lifetime behavior (bounded size, generation-
    guarded weakref drops) is observable without a second copy."""
    from ...obs.metrics import global_registry

    registry = global_registry()
    for suffix, help_text in (
        ("connections", "Live cached sqlite connections."),
        ("connections_max", "Connection-cache bound."),
        ("cache_hits", "Connection-cache lookups served from cache."),
        ("cache_misses", "Connection-cache lookups that loaded a database."),
        (
            "generation_drops",
            "Entries dropped by generation-guarded weakref callbacks.",
        ),
    ):
        info_key = {
            "connections": "connections",
            "connections_max": "max_connections",
            "cache_hits": "hits",
            "cache_misses": "misses",
            "generation_drops": "generation_drops",
        }[suffix]
        registry.gauge(
            f"mahif_sqlite_{suffix}",
            help_text,
            callback=lambda key=info_key: sqlite_cache_info()[key],
        )


_register_cache_metrics()


# -- query evaluation -------------------------------------------------------

def _schemas_of(db, names: Iterable[str]) -> dict[str, Schema]:
    schemas = {}
    for name in names:
        if name not in db:
            raise SchemaError(f"no relation named {name!r}")
        schemas[name] = db.schema_of(name)
    return schemas


def execute_query_sqlite(op: Operator, db: Database) -> Relation:
    """Evaluate a set-semantics operator tree server-side on SQLite."""
    schemas = _schemas_of(db, base_relations(op))
    # Schema checks first, for error parity with the in-process backends.
    out_schema = output_schema(op, schemas)
    sql, params, _ = query_to_sqlite(op, schemas)
    entry = _acquire(db, bag=False)
    try:
        rows = entry.conn.execute(sql, params).fetchall()
    finally:
        _release(entry)
    return Relation(out_schema, frozenset(tuple(r) for r in rows))


def execute_query_sqlite_bag(op: Operator, db) -> "BagRelation":
    """Evaluate a bag-semantics operator tree server-side on SQLite."""
    from ..bag import BagRelation

    schemas = _schemas_of(db, base_relations(op))
    out_schema = output_schema(op, schemas)
    sql, params, _ = query_to_sqlite_bag(op, schemas)
    entry = _acquire(db, bag=True)
    try:
        counts: Counter = Counter()
        for row in entry.conn.execute(sql, params):
            counts[tuple(row[:-1])] += row[-1]
    finally:
        _release(entry)
    return BagRelation(out_schema, counts)


# -- statement application --------------------------------------------------

def _validate_statement(stmt, relation_schema: Schema) -> None:
    """Schema-level checks the in-process apply paths perform eagerly."""
    from ..statements import InsertTuple, UpdateStatement

    if isinstance(stmt, UpdateStatement):
        stmt.check_set_attributes(relation_schema)
    if isinstance(stmt, InsertTuple):
        if len(stmt.values) != relation_schema.arity:
            raise SchemaError(
                f"insert arity {len(stmt.values)} != schema arity "
                f"{relation_schema.arity}"
            )


def _statement_schemas(stmt, db) -> dict[str, Schema]:
    from ..statements import InsertQuery

    names = set(stmt.accessed_relations())
    names.add(stmt.relation)
    schemas = _schemas_of(db, names)
    if isinstance(stmt, InsertQuery):
        result_schema = output_schema(stmt.query, schemas)
        target_arity = schemas[stmt.relation].arity
        if result_schema.arity != target_arity:
            raise SchemaError(
                f"INSERT SELECT arity {result_schema.arity} does not "
                f"match {stmt.relation} arity {target_arity}"
            )
    return schemas


def apply_statement_sqlite(stmt, db: Database) -> Database:
    """Apply one statement server-side (set semantics).

    A throwaway connection is loaded with exactly the relations the
    statement touches; the mutated target relation is read back and the
    untouched relations of the immutable input database are shared.
    """
    target = db[stmt.relation]
    _validate_statement(stmt, target.schema)
    schemas = _statement_schemas(stmt, db)
    conn = _connect()
    try:
        _load_database(conn, db, sorted(schemas), bag=False)
        sql, params = statement_to_sqlite(stmt, schemas, bag=False)
        conn.execute(sql, params)
        cursor = conn.execute(
            f"SELECT * FROM {quote_identifier(stmt.relation)}"
        )
        rows = frozenset(tuple(r) for r in cursor.fetchall())
    finally:
        conn.close()
    return db.with_relation(stmt.relation, Relation(target.schema, rows))


def apply_statement_sqlite_bag(stmt, db) -> "BagDatabase":
    """Apply one statement server-side (bag semantics)."""
    from ..bag import BagRelation

    target = db[stmt.relation]
    _validate_statement(stmt, target.schema)
    schemas = _statement_schemas(stmt, db)
    conn = _connect()
    try:
        _load_database(conn, db, sorted(schemas), bag=True)
        sql, params = statement_to_sqlite(stmt, schemas, bag=True)
        conn.execute(sql, params)
        cursor = conn.execute(
            f"SELECT * FROM {quote_identifier(stmt.relation)}"
        )
        counts: Counter = Counter()
        for row in cursor:
            counts[tuple(row[:-1])] += row[-1]
    finally:
        conn.close()
    return db.with_relation(stmt.relation, BagRelation(target.schema, counts))
