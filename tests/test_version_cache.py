"""Warm equals cold: the version caches and the Φ_D memo.

A long-lived :class:`~repro.core.Mahif` keeps the database versions it
has time-travelled to (``core/engine.py`` ``VersionCache``, keyed on the
base database's *identity* and the prefix statements' share keys), a
:class:`~repro.service.WhatIfService` keeps one more for the misses of
all its stored histories, and ``compress_relation`` remembers Φ_D on the
*identity* of the relation it scanned (``symbolic/compress.py``).  All
are pure reuse: every answer of a warm engine must be the answer of a
fresh engine over a fresh copy of the same database — the oracle here
shares neither objects nor engine with the side under test, so no cache
can reach it.

What is fuzzed, seeded through ``MAHIF_FUZZ_SEED`` / ``MAHIF_FUZZ_SCALE``
(``tests/fuzz_differential.py``):

(i)   one engine per backend answering a random sequence of what-ifs at
      random positions, with all five methods, over several
      ``(database, history)`` pairs chosen to collide wherever a wrong
      key would let them: two equal but distinct databases, a third
      with other rows, two histories that share a prefix and then
      diverge at equal length; plus three directed cases — ``Const(1)``
      against ``Const(True)`` in a prefix statement, an unhashable
      constant in the prefix, two compression configs over one database;
(ii)  id recycling: databases are created, asked about, dropped and
      collected until both a database ``id()`` and a relation ``id()``
      have come round again — never a stale state, never a stale Φ_D,
      and the Φ_D memo ends with the entries it started with;
(iii) eight threads on one engine, mixed positions: the serial answers;
(iv)  eviction: more distinct prefixes than the cache holds.

The last two sections are the deterministic work floor (counts, never
wall time).  Library: the second what-if at a position replays 0 prefix
statements, scans 0 rows, builds 0 share keys and hashes 0 prefix
statements; one five statements deeper replays exactly 5.  Served path:
the second miss at a position applies 0 statements and starts from the
*same* ``Relation`` objects (so Φ_D and the sqlite connection are
found), also after an append; one three deeper applies 3; a cold miss
loads the nearest checkpoint and applies what lies past it; an empty
prefix and a NAIVE request touch neither cache nor checkpoint.  Every
served delta is checked against ``Method.NAIVE`` on the interpreter
over a copy of the database.  Every one of those assertions fails on
the commit before the cache it pins existed.

Mutation checks, each made by hand on the final tree at the default
seed and reverted; each must fail (i) or (ii):

* key the version cache on the prefix *length* instead of its share
  keys (``prefix_key`` keying on ``(len(prefix),)``) — fails (i)
  ``test_warm_engine_answers_like_a_fresh_one`` (diverging histories)
  and ``test_constant_types_in_the_prefix_keep_versions_apart``;
* drop the pin (``VersionCache.put`` storing ``(None, state)``) — fails
  (ii): a recycled ``id()`` finds the dead database's version (a wrong
  delta in most heap layouts, the key/pin assertion in all);
* drop ``CompressionConfig`` from the memo's inner key (``key =
  symbolic_tuple``) — fails (i)
  ``test_two_compression_configs_over_one_database``.

And on the served path (``service/core.py`` ``_time_travel``):

* the service cache's ``deepest`` always answering ``(0, database)`` —
  fails ``test_served_misses_travel_once``;
* checkpoint seeding skipped (a cold miss replays from version 0) —
  fails ``test_cold_served_miss_starts_from_the_nearest_checkpoint``;
* ``put`` keeping the later state — fails
  ``test_threads_missing_at_one_position_get_one_version``;
* replay routed through the request's backend instead of compiled —
  fails ``test_served_time_travel_runs_compiled_whatever_the_backend``
  (by the count of statements sqlite executed).

The last section pins the rule the default backend follows — queries
and statements both run columnar, a replayed state *is* the table replay
computed — by count (a spy on ``ColumnarTable.from_relation`` and
``mahif_columnar_memo_total``): replay (``stmt.apply``,
``History.execute``, ``HistoryStore.as_of``, the service's registration
and append validation) columnarizes each row-backed relation it first
touches exactly once — the base, a decoded checkpoint — and nothing
after, and a what-if or served miss over a replayed version scans
nothing.  Mutations, made and reverted the same way:

* ``columnar._cached_table`` never remembering — fails
  ``test_served_misses_and_appends_scan_no_relation`` and
  ``test_replay_columnarizes_a_stored_relation_once``;
* ``columnar_of_relation`` ignoring a relation's table (columnarizing
  its rows like a row-backed one's) — fails all three.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from fuzz_differential import (
    fresh_rng,
    random_history,
    random_modification,
    random_relation,
    random_typed_database,
    scaled,
)
from repro.core import (
    HistoricalWhatIfQuery,
    Mahif,
    MahifConfig,
    Method,
    ProgramSlicingConfig,
    Replace,
)
from repro.core import batch as batch_module
from repro.core import dependency
from repro.core import plan as plan_module
from repro.core.batch import prefix_key
from repro.core.engine import VERSION_CACHE_CAPACITY, VersionCache
from repro.obs import trace
from repro.obs.metrics import global_registry
from repro.relational import (
    Database,
    History,
    Relation,
    Schema,
    evaluate_query,
)
from repro.relational.algebra import Project, RelScan, Select
from repro.relational.columnar import ColumnarTable
from repro.relational.expressions import (
    Cmp,
    Const,
    and_,
    col,
    ge,
    gt,
    le,
    lit,
)
from repro.relational.exec import sql_backend
from repro.relational.statements import (
    DeleteStatement,
    InsertQuery,
    InsertTuple,
    UpdateStatement,
)
from repro.store import HistoryStore
from repro.service import (
    WhatIfService,
    modifications_from_spec,
    result_payload,
)
from repro.symbolic import compress
from repro.symbolic.compress import CompressionConfig, compress_relation
from repro.symbolic.vctable import SymbolicTuple

BACKENDS = ("compiled", "vector", "interpreted")


def twin(database: Database) -> Database:
    """An equal database sharing no object with ``database``."""
    return Database(
        {
            name: Relation(relation.schema, frozenset(relation.tuples))
            for name, relation in database.relations.items()
        }
    )


def outcome(engine: Mahif, query: HistoricalWhatIfQuery, method: Method):
    """What an answer is compared by: the delta with value *types*
    (``repr`` tells ``1`` from ``True``; ``==`` does not) and the slice."""
    try:
        result = engine.answer(query, method)
    # A query the generators made unanswerable must fail the same way.
    except Exception as exc:
        return type(exc).__name__
    kept = result.slice_result.kept_positions if result.slice_result else None
    delta = sorted(
        (name, list(relation_delta.annotated_rows()))
        for name, relation_delta in result.delta.relations.items()
    )
    return repr(delta), kept


def cold(query: HistoricalWhatIfQuery, method: Method, config: MahifConfig):
    """The oracle: a fresh engine over a fresh copy of the database."""
    return outcome(
        Mahif(config),
        HistoricalWhatIfQuery(
            query.history, twin(query.database), query.modifications
        ),
        method,
    )


# -- (i) warm equals cold ----------------------------------------------------


def colliding_pairs(rng):
    """``(database, history)`` pairs a wrong cache key would confuse."""
    database, types = random_typed_database(rng, rows=rng.randint(6, 14))
    other_rows = Database(
        {
            name: random_relation(
                rng, relation.schema, types[name], len(relation) + 1
            )
            for name, relation in database.relations.items()
        }
    )
    history = random_history(rng, database, types, length=rng.randint(6, 9))
    shared = rng.randint(1, len(history) - 2)
    diverged = random_history(
        rng, database, types, length=len(history) - shared
    )
    forked = History(
        history.statements[:shared] + diverged.statements
    )
    pairs = [
        (database, history),
        (twin(database), history),
        (other_rows, history),
        (database, forked),
    ]
    return pairs, types


@pytest.mark.parametrize("backend", BACKENDS)
def test_warm_engine_answers_like_a_fresh_one(backend):
    rng = fresh_rng(offset=1700 + BACKENDS.index(backend))
    config = MahifConfig(backend=backend)
    for _ in range(scaled(4)):
        pairs, types = colliding_pairs(rng)
        warm = Mahif(config)
        for step in range(16):
            database, history = rng.choice(pairs)
            modification = random_modification(rng, database, types, history)
            query = HistoricalWhatIfQuery(history, database, (modification,))
            method = rng.choice(list(Method))
            assert outcome(warm, query, method) == cold(
                query, method, config
            ), (step, method, modification)
        assert len(warm._versions) <= VERSION_CACHE_CAPACITY


SCHEMA = Schema.of("k", "P", "F")


def window(low, high):
    return and_(ge(col("P"), low), le(col("P"), high))


def rows_database(rows) -> Database:
    return Database({"R": Relation.from_rows(SCHEMA, rows)})


def windows_history(length: int) -> History:
    """Overlapping windows, so every prefix is a different state."""
    return History.of(
        *[
            UpdateStatement(
                "R", {"F": col("F") + i + 1}, window(5 * i, 5 * i + 40)
            )
            for i in range(length)
        ]
    )


def replace_at(position: int, bump: int = 100) -> tuple:
    return (
        Replace(
            position,
            UpdateStatement(
                "R",
                {"F": col("F") + bump},
                window(5 * position, 5 * position + 30),
            ),
        ),
    )


def test_constant_types_in_the_prefix_keep_versions_apart():
    """``SET F = 1`` and ``SET F = TRUE`` are equal statements under
    dataclass equality and write differently typed rows; the histories
    they start must not share a version."""
    database = rows_database([(i, i, 5) for i in range(20)])
    histories = [
        History.of(
            UpdateStatement("R", {"F": Const(value)}, ge(col("k"), 0)),
            DeleteStatement("R", gt(col("k"), 15)),
        )
        for value in (1, True)
    ]
    assert histories[0] == histories[1]
    modification = (Replace(2, DeleteStatement("R", gt(col("k"), 10))),)
    for backend in BACKENDS:
        config = MahifConfig(backend=backend)
        warm = Mahif(config)
        answers = []
        for history in histories * 2:
            query = HistoricalWhatIfQuery(history, database, modification)
            answers.append(outcome(warm, query, Method.R_PS_DS))
            assert answers[-1] == cold(query, Method.R_PS_DS, config)
        assert answers[0] != answers[1]
        assert answers[:2] == answers[2:]


def test_unhashable_constant_in_the_prefix_is_answered_without_sharing():
    database = rows_database([(i, i, 5) for i in range(20)])
    history = History.of(
        DeleteStatement("R", Cmp("=", col("k"), Const((9, [9])))),
        UpdateStatement("R", {"F": col("F") + 1}, window(0, 10)),
        UpdateStatement("R", {"F": col("F") + 2}, window(5, 15)),
    )
    for backend in BACKENDS:
        config = MahifConfig(backend=backend)
        warm = Mahif(config)
        for position in (3, 2, 3):
            query = HistoricalWhatIfQuery(
                history, database, replace_at(position)
            )
            assert outcome(warm, query, Method.R_PS_DS) == cold(
                query, Method.R_PS_DS, config
            )
        assert len(warm._versions) == 0


def test_two_compression_configs_over_one_database():
    """Two engines that compress differently, one database object: each
    gets its own Φ_D.  ``k`` and ``P`` move together in the data, so
    "``P`` low and ``k`` high" is satisfiable in the one box over all
    rows and in neither of two quantile groups: one config keeps the
    third statement, the other slices it away."""
    rows = [(i, i, 5) for i in range(10)] + [(i, i, 5) for i in range(90, 100)]
    database = rows_database(rows)
    history = History.of(
        UpdateStatement("R", {"F": col("F") + 1}, window(0, 5)),
        UpdateStatement("R", {"F": col("F") + 2}, window(40, 60)),
        UpdateStatement(
            "R", {"F": col("F") + 3}, and_(ge(col("k"), 92), le(col("k"), 95))
        ),
    )
    query = HistoricalWhatIfQuery(
        history, database,
        (Replace(1, UpdateStatement("R", {"F": lit(0)}, window(0, 7))),),
    )
    configs = [
        MahifConfig(
            program_slicing=ProgramSlicingConfig(compression=compression)
        )
        for compression in (
            CompressionConfig(),
            CompressionConfig(group_by="P", num_groups=2),
        )
    ]
    answers = []
    for config in configs * 2:
        answers.append(outcome(Mahif(config), query, Method.R_PS_DS))
        assert answers[-1] == cold(query, Method.R_PS_DS, config)
    # same delta, different slices: the configs are told apart
    assert answers[0][0] == answers[1][0]
    assert (answers[0][1], answers[1][1]) == ((1, 3), (1,))


# -- (ii) id recycling -------------------------------------------------------


def assert_keys_are_pinned(engine: Mahif) -> None:
    """Which candidate lands on a dead database's address is the
    allocator's choice; that no key can outlive its database is not:
    every key's ``id()`` is the ``id()`` of the object its entry pins."""
    for (base_id, _), (base, _) in engine._versions._entries.items():
        assert id(base) == base_id


def test_recycled_ids_never_find_a_dead_database():
    """Databases are made, asked about and dropped until database
    ``id()``s that were asked about and relation ``id()``s that were
    compressed have come round again, eight times each.  Each round
    allocates a spread of candidates and asks about the one standing
    where a dead database stood — most recently dead first, so an entry
    that outlived its database is found while the cache still holds
    it."""
    history = windows_history(4)
    modification = replace_at(3)
    symbolic = SymbolicTuple.fresh(SCHEMA, prefix="recycle")
    gc.collect()  # earlier tests' garbage must not count as the start
    entries = len(compress._PHI_D)
    engine = Mahif()
    asked: dict[int, int] = {}  # id(database) -> round it was asked in
    compressed: set[int] = set()
    recycled = {"database": 0, "relation": 0}
    for round_number in range(2000):
        # Every candidate's rows differ from every other's, this round
        # and before, so a stale version or Φ_D is a different answer.
        candidates = [
            rows_database(
                [(i, i, 64 * round_number + n) for i in range(8 + n % 5)]
            )
            for n in range(32)
        ]
        for candidate in candidates:
            relation = candidate["R"]
            recycled["relation"] += id(relation) in compressed
            compressed.add(id(relation))
            assert compress_relation(relation, symbolic) == compress._compress(
                relation, symbolic, CompressionConfig()
            ), round_number
        database = max(candidates, key=lambda c: asked.get(id(c), -1))
        recycled["database"] += id(database) in asked
        asked[id(database)] = round_number
        query = HistoricalWhatIfQuery(history, database, modification)
        assert outcome(engine, query, Method.R_PS_DS) == cold(
            query, Method.R_PS_DS, engine.config
        ), round_number
        assert len(engine._versions) <= VERSION_CACHE_CAPACITY
        assert_keys_are_pinned(engine)
        del candidates, candidate, database, relation, query
        gc.collect()
        if min(recycled.values()) >= 8:
            break
    assert min(recycled.values()) >= 8, "too few id()s came round"
    # The engine's versions pin their databases; with the engine gone
    # every relation this test compressed is dead, and so is its Φ_D.
    del engine
    gc.collect()
    assert len(compress._PHI_D) == entries


# -- (iii) one engine, many threads -----------------------------------------


def test_threads_sharing_an_engine_get_the_serial_answers():
    database = rows_database([(i, i, 5) for i in range(60)])
    history = windows_history(12)
    queries = [
        HistoricalWhatIfQuery(
            history, database, replace_at(position, bump=100 + index)
        )
        for index, position in enumerate([2, 9, 5, 12, 9, 3, 7, 11] * 4)
    ]
    serial = [cold(query, Method.R_PS_DS, MahifConfig()) for query in queries]
    engine = Mahif()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(outcome, engine, query, Method.R_PS_DS)
                for query in queries
            ]
            threaded = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert 0 < len(engine._versions) <= VERSION_CACHE_CAPACITY


# -- (iv) eviction ------------------------------------------------------------


def test_more_prefixes_than_the_cache_holds():
    database = rows_database([(i, i, 5) for i in range(60)])
    history = windows_history(VERSION_CACHE_CAPACITY + 4)
    engine = Mahif()
    positions = list(range(2, VERSION_CACHE_CAPACITY + 5))
    assert len(positions) == VERSION_CACHE_CAPACITY + 3
    for position in positions + positions[:1] + positions[::-3]:
        query = HistoricalWhatIfQuery(history, database, replace_at(position))
        assert outcome(engine, query, Method.R_PS_DS) == cold(
            query, Method.R_PS_DS, engine.config
        ), position
        assert len(engine._versions) <= VERSION_CACHE_CAPACITY
    assert len(engine._versions) == VERSION_CACHE_CAPACITY


# -- the work floor: counts, never wall time ---------------------------------


@pytest.fixture
def work(monkeypatch):
    """Counters on the two things a repeated what-if must not redo:
    prefix statements applied by the time-travel stage, and rows read
    while ``dependency_slice`` compresses a relation."""
    counts = {"applied": 0, "rows": 0}
    real_resolve = batch_module.resolve_backend
    real_compress = dependency.compress_relation
    real_iter = Relation.__iter__
    compressing = []

    def resolve(name):
        backend = real_resolve(name)

        def apply(statement, state):
            counts["applied"] += 1
            return backend.apply(statement, state)

        return dataclasses.replace(backend, apply=apply)

    def compress_counted(*args, **kwargs):
        compressing.append(True)
        try:
            return real_compress(*args, **kwargs)
        finally:
            compressing.pop()

    def iterate(self):
        if compressing:
            counts["rows"] += len(self)
        return real_iter(self)

    monkeypatch.setattr(batch_module, "resolve_backend", resolve)
    monkeypatch.setattr(dependency, "compress_relation", compress_counted)
    monkeypatch.setattr(Relation, "__iter__", iterate)
    return counts


def test_second_whatif_at_a_position_replays_and_scans_nothing(work):
    rows = 500
    database = rows_database([(i, i % 200, 5) for i in range(rows)])
    history = windows_history(40)
    engine = Mahif()

    def ask(position, bump):
        before = dict(work)
        engine.answer(
            HistoricalWhatIfQuery(
                history, database, replace_at(position, bump)
            ),
            Method.R_PS_DS,
        )
        return {name: work[name] - before[name] for name in work}

    assert ask(30, 100) == {"applied": 29, "rows": rows}
    assert ask(30, 101) == {"applied": 0, "rows": 0}
    # five statements deeper: those five, and a version never seen
    assert ask(35, 102) == {"applied": 5, "rows": rows}
    assert ask(35, 103) == {"applied": 0, "rows": 0}
    assert ask(30, 104) == {"applied": 0, "rows": 0}
    # one batch, three questions at a position never seen: the prefix is
    # replayed once for all of them, not once each (57)
    before = work["applied"]
    engine.answer_batch(
        [
            HistoricalWhatIfQuery(history, database, replace_at(20, bump))
            for bump in (105, 106, 107)
        ],
        Method.R_PS_DS,
    )
    assert work["applied"] - before == 19


class Tallied(int):
    """An integer constant that counts how often it is hashed."""

    hashed = 0

    def __hash__(self) -> int:
        Tallied.hashed += 1
        return int.__hash__(self)


def test_keying_a_prefix_again_builds_and_hashes_nothing(monkeypatch):
    """A version-cache lookup walks no statement it has keyed before:
    share keys are remembered per statement object and a prefix key is
    hashed from remembered hashes, so the second what-if at a position
    builds no key and hashes no constant of the prefix (``Tallied``,
    which only prefix statements hold) — on the probe, on ``deepest``
    and on ``put`` alike."""
    built = []
    real_build = plan_module._build_share_key

    def build(statement):
        built.append(statement)
        return real_build(statement)

    monkeypatch.setattr(plan_module, "_build_share_key", build)
    prefix = [
        UpdateStatement(
            "R",
            {"F": col("F") + 1},
            and_(
                Cmp(">=", col("P"), Const(Tallied(5 * i))),
                le(col("P"), 5 * i + 40),
            ),
        )
        for i in range(12)
    ]
    history = History.of(*prefix, *windows_history(16).statements[12:])
    database = rows_database([(i, i, 5) for i in range(60)])
    engine = Mahif()

    def ask(position, bump):
        query = HistoricalWhatIfQuery(
            history, database, replace_at(position, bump)
        )
        # the oracle replays the prefix, which hashes it for the
        # compiled-statement cache: keep it out of the count
        expected = cold(query, Method.R_PS_DS, engine.config)
        del built[:]
        Tallied.hashed = 0
        assert outcome(engine, query, Method.R_PS_DS) == expected
        of_the_prefix = {id(statement) for statement in prefix}
        return sum(id(s) in of_the_prefix for s in built), Tallied.hashed

    # the oracle built the prefix's keys; replay (columnar) hashes no
    # constant, so even the first ask hashes none
    assert ask(13, 100) == (0, 0)
    assert ask(13, 101) == (0, 0)
    assert ask(14, 102) == (0, 0)  # extends the kept prefix: no more
    assert ask(13, 103) == (0, 0)

    # the cache itself, keyed twice from the same statement objects
    versions, state = VersionCache(), rows_database([(0, 0, 0)])
    versions.put(database, prefix_key(prefix), state)
    Tallied.hashed = 0
    assert versions.deepest(database, prefix_key(prefix)) == (12, state)
    assert versions.deepest(database, prefix_key(prefix + prefix[:1])) == (
        12, state,
    )
    assert versions.deepest(database, prefix_key(prefix[:5])) == (0, database)
    assert Tallied.hashed == 0 and built == []
    # equal statements built anew are the same prefix, at full price
    rebuilt = [dataclasses.replace(statement) for statement in prefix]
    assert versions.deepest(database, prefix_key(rebuilt)) == (12, state)
    assert len(built) == 12 and Tallied.hashed >= 12


def test_served_miss_with_an_empty_prefix_reads_no_checkpoint(
    tmp_path, checkpoint_loads
):
    loads = checkpoint_loads
    database = rows_database([(i, i, 5) for i in range(50)])
    history = windows_history(5)

    def spec(bump):
        statement = f"UPDATE R SET F = F + {bump} WHERE P >= 0 AND P <= 20"
        return {"replace": [[1, statement]]}

    service = WhatIfService(tmp_path, sync=False)
    try:
        service.register("h", database, history)
        (answer,) = service.answer("h", [spec(7)])
        assert answer["cached"] is False
        # NAIVE replays the whole history itself, wherever it is asked
        (naive,) = service.answer("h", [served_spec(4)], method="N")
        assert naive["delta"] == naive_delta(database, history, served_spec(4))
        assert loads == [] and len(service._versions) == 0
    finally:
        service.close()

    # After a restart: open() decodes checkpoint 0 once (this history is
    # shorter than a checkpoint interval) and that copy is version 0.
    service = WhatIfService(tmp_path, sync=False)
    try:
        assert loads == [0]
        (again,) = service.answer("h", [spec(8)])
        assert again["cached"] is False
        assert loads == [0]
        (first,) = service.answer("h", [spec(7)])
        assert first["delta"] == answer["delta"]
    finally:
        service.close()


# -- the served path: one version cache per service ---------------------------


def served_spec(position: int, bump: int = 100) -> dict:
    """``replace_at(position, bump)`` as a client spells it."""
    low = 5 * position
    statement = (
        f"UPDATE R SET F = F + {bump} WHERE P >= {low} AND P <= {low + 30}"
    )
    return {"replace": [[position, statement]]}


def naive_delta(database: Database, history: History, spec: dict) -> dict:
    """The oracle of every served answer: naive replay, on the
    interpreter, over a copy of the database — no cache, no checkpoint,
    no pipeline stage in common with the service."""
    oracle = Mahif(MahifConfig(backend="interpreted"))
    query = HistoricalWhatIfQuery(
        history, twin(database), modifications_from_spec(spec)
    )
    return result_payload(oracle.answer(query, Method.NAIVE))["delta"]


@pytest.fixture
def service(tmp_path):
    service = WhatIfService(tmp_path, sync=False)
    yield service
    service.close()


@pytest.fixture
def starts(monkeypatch):
    """The start database of every query handed to ``answer_batch``."""
    seen: list[Database] = []
    real = Mahif.answer_batch

    def answer_batch(self, queries, method, **options):
        seen.extend(options["start_databases"])
        return real(self, queries, method, **options)

    monkeypatch.setattr(Mahif, "answer_batch", answer_batch)
    return seen


def miss(service, name, spec, work, **options):
    """One served miss: ``(answer, prefix statements applied, rows
    scanned for Φ_D)``."""
    before = dict(work)
    (answer,) = service.answer(name, [spec], **options)
    assert answer["cached"] is False
    return answer, work["applied"] - before["applied"], (
        work["rows"] - before["rows"]
    )


def test_served_misses_travel_once(service, work, starts):
    rows = 300
    database = rows_database([(i, i % 200, 5) for i in range(rows)])
    history = windows_history(20)
    service.register("h", database, history)

    answer, applied, scanned = miss(service, "h", served_spec(12, 100), work)
    assert (applied, scanned) == (11, rows)
    assert answer["delta"] == naive_delta(database, history, served_spec(12))
    # the same position again: the same objects, nothing redone
    answer, applied, scanned = miss(service, "h", served_spec(12, 101), work)
    assert (applied, scanned) == (0, 0)
    assert starts[-1]["R"] is starts[-2]["R"]
    assert answer["delta"] == naive_delta(
        database, history, served_spec(12, 101)
    )
    # the log grows; the state before statement 12 does not change
    appended = UpdateStatement("R", {"F": col("F") + 1}, window(0, 50))
    assert service.append("h", [appended])["cache_dropped"] == 2
    longer = History(history.statements + (appended,))
    answer, applied, scanned = miss(service, "h", served_spec(12, 102), work)
    assert (applied, scanned) == (0, 0)
    assert starts[-1]["R"] is starts[0]["R"]
    assert answer["delta"] == naive_delta(
        database, longer, served_spec(12, 102)
    )
    # three statements deeper: those three
    answer, applied, scanned = miss(service, "h", served_spec(15, 103), work)
    assert (applied, scanned) == (3, rows)
    assert answer["delta"] == naive_delta(
        database, longer, served_spec(15, 103)
    )
    # a batch at a shallower, a kept and a deeper position: 4 + 0 + 2
    before = work["applied"]
    specs = [served_spec(p, 104) for p in (5, 15, 17)]
    answers = service.answer("h", specs)
    assert work["applied"] - before == 4 + 0 + 2
    for spec, answer in zip(specs, answers):
        assert answer["delta"] == naive_delta(database, longer, spec)


def test_cold_served_miss_starts_from_the_nearest_checkpoint(
    tmp_path, work, checkpoint_loads
):
    loads = checkpoint_loads
    database = rows_database([(i, i % 200, 5) for i in range(200)])
    history = windows_history(20)
    expected = naive_delta(database, history, served_spec(19))
    service = WhatIfService(tmp_path, sync=False, checkpoint_interval=4)
    try:
        service.register("h", database, history)
        answer, applied, _ = miss(service, "h", served_spec(19), work)
        assert (loads, applied) == ([16], 2)
        assert answer["delta"] == expected
        _, applied, _ = miss(service, "h", served_spec(19, 101), work)
        assert (loads, applied) == ([16], 0)
        # version 13 is nearer to checkpoint 12 than to anything kept
        answer, applied, _ = miss(service, "h", served_spec(14, 102), work)
        assert (loads, applied) == ([16, 12], 1)
        assert answer["delta"] == naive_delta(
            database, history, served_spec(14, 102)
        )
        # ... and version 14 nearer to the kept 13 than to a checkpoint
        _, applied, _ = miss(service, "h", served_spec(15, 103), work)
        assert (loads, applied) == ([16, 12], 1)
    finally:
        service.close()

    # A restart is cold again, and checkpoint 16 has rotted meanwhile:
    # the store falls back to 12, rewrites 16, and the answer stands.
    rotten = tmp_path / "h" / "checkpoints" / "ckpt-00000016.json"
    rotten.write_text("{ not json")
    service = WhatIfService(tmp_path, sync=False)
    try:
        del loads[:]  # open() read the current state, checkpoint 20
        answer, applied, _ = miss(service, "h", served_spec(19), work)
        # version 0 (every query is bound to it), then 16, then 12
        assert (loads, applied) == ([0, 16, 12], 2)
        assert answer["delta"] == expected
        assert json.loads(rotten.read_text())
        _, applied, _ = miss(service, "h", served_spec(19, 101), work)
        assert (loads, applied) == ([0, 16, 12], 0)
    finally:
        service.close()


def test_histories_over_equal_databases_share_no_version(service, work, starts):
    """Three stored histories, one statement list: ``a`` and ``b`` over
    equal but distinct databases, ``c`` over other rows.  A key that
    forgot the base would hand ``b`` and ``c`` the version of ``a``."""
    database = rows_database([(i, i, 5) for i in range(60)])
    other = rows_database([(i, 2 * i, 7) for i in range(40)])
    history = windows_history(8)
    bases = {"a": database, "b": twin(database), "c": other}
    for name, base in bases.items():
        service.register(name, base, history)
    for name, base in bases.items():
        answer, applied, _ = miss(service, name, served_spec(6), work)
        assert applied == 5
        assert answer["delta"] == naive_delta(base, history, served_spec(6))
    assert len({id(start["R"]) for start in starts}) == 3
    assert len(service._versions) == 3
    for (base_id, _), (base, _) in service._versions._entries.items():
        assert id(base) == base_id
    assert {id(base) for base, _ in service._versions._entries.values()} == {
        id(base) for base in bases.values()
    }


def test_more_histories_than_the_service_cache_holds(service, work):
    history = windows_history(6)
    names = [f"h{n}" for n in range(VERSION_CACHE_CAPACITY + 2)]
    bases = {
        name: rows_database([(i, i, n) for i in range(40)])
        for n, name in enumerate(names)
    }
    for name in names:
        service.register(name, bases[name], history)
    for bump, name in enumerate(names + names[:2]):
        answer, applied, _ = miss(service, name, served_spec(5, bump), work)
        assert applied == 4  # evicted by the time it is asked again
        assert answer["delta"] == naive_delta(
            bases[name], history, served_spec(5, bump)
        )
        assert len(service._versions) <= VERSION_CACHE_CAPACITY
    assert len(service._versions) == VERSION_CACHE_CAPACITY


def test_threads_missing_at_one_position_get_one_version(
    service, starts, monkeypatch
):
    """Eight threads, each missing at position 9 of its own stored
    history — one database object and one statement list under eight
    names, so eight history locks and one cache key.  (Misses on *one*
    history queue on its lock and can never race.)  Every thread is held
    inside its replay until all eight have missed, so all eight ``put``:
    the first stored must win, and each gets that one state."""
    database = rows_database([(i, i, 5) for i in range(60)])
    history = windows_history(12)
    names = [f"h{n}" for n in range(8)]
    for name in names:
        service.register(name, database, history)
    specs = [served_spec(9, 100 + n) for n in range(8)]
    serial = [naive_delta(database, history, spec) for spec in specs]

    everyone_missed = threading.Barrier(8)
    real_resolve = batch_module.resolve_backend

    def resolve(name):
        backend = real_resolve(name)

        def apply(statement, state):
            if statement is history.statements[0]:
                everyone_missed.wait(timeout=60)
            return backend.apply(statement, state)

        return dataclasses.replace(backend, apply=apply)

    monkeypatch.setattr(batch_module, "resolve_backend", resolve)
    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = [
            pool.submit(service.answer, name, [spec])
            for name, spec in zip(names, specs)
        ]
        threaded = [future.result(timeout=120)[0] for future in futures]
    assert [answer["delta"] for answer in threaded] == serial
    assert len(starts) == 8
    assert len({id(start) for start in starts}) == 1
    assert len(service._versions) == 1


def test_served_time_travel_runs_compiled_whatever_the_backend(
    service, work, monkeypatch
):
    """A state does not depend on what computed it and its key names no
    backend, so the prefix is replayed where replay is cheapest: a
    sqlite request executes no prefix statement in sqlite, and the
    version it leaves serves a compiled request."""
    executed = []
    real_apply = sql_backend.apply_statement_sqlite

    def apply(statement, database):
        executed.append(statement)
        return real_apply(statement, database)

    monkeypatch.setattr(sql_backend, "apply_statement_sqlite", apply)
    database = rows_database([(i, i, 5) for i in range(60)])
    history = windows_history(12)
    service.register("h", database, history)
    answer, applied, _ = miss(
        service, "h", served_spec(9), work, backend="sqlite"
    )
    assert (applied, executed) == (8, [])
    assert answer["backend"] == "sqlite"
    assert answer["delta"] == naive_delta(database, history, served_spec(9))
    for backend in ("compiled", "vector", "interpreted"):
        answer, applied, _ = miss(
            service, "h", served_spec(9), work, backend=backend
        )
        assert applied == 0
        assert answer["delta"] == naive_delta(
            database, history, served_spec(9)
        )


def test_second_served_miss_finds_phi_d_and_the_sqlite_database(service):
    """What one identity per version buys downstream, by count: the
    second miss at a depth finds Φ_D on the relation and the database
    already loaded into sqlite."""
    memo = global_registry().counter(
        "mahif_phi_d_memo_total", "", ("outcome",)
    )
    database = rows_database([(i, i, 5) for i in range(60)])
    service.register("h", database, windows_history(12))
    service.answer("h", [served_spec(9, 100)], backend="sqlite")
    memo_hits = memo.value(outcome="hit")
    loaded = sql_backend.sqlite_cache_info()
    service.answer("h", [served_spec(9, 101)], backend="sqlite")
    assert memo.value(outcome="hit") > memo_hits
    again = sql_backend.sqlite_cache_info()
    assert again["misses"] == loaded["misses"]
    assert again["hits"] > loaded["hits"]


def test_time_travel_span_and_counter_on_the_served_path(tmp_path):
    outcomes = global_registry().counter(
        "mahif_version_cache_total", "", ("outcome",)
    )
    database = rows_database([(i, i, 5) for i in range(60)])
    service = WhatIfService(tmp_path, sync=False, checkpoint_interval=4)
    lines: list[str] = []
    trace.configure_tracing(lines.append, sample=1.0)
    try:
        service.register("h", database, windows_history(12))
        seen = []
        for specs in (
            [served_spec(11, 100), served_spec(3, 100), served_spec(1, 100)],
            [served_spec(11, 101)],
        ):
            before = outcomes.series()
            del lines[:]
            with trace.start_trace("request"):
                service.answer("h", specs)
            spans = {
                span["span_id"]: span for span in map(json.loads, lines)
            }
            (travel,) = [
                span for span in spans.values() if span["name"] == "time_travel"
            ]
            assert spans[travel["parent_id"]]["name"] == "cache"
            moved = {
                key: value - before.get(key, 0)
                for key, value in outcomes.series().items()
                if value != before.get(key, 0)
            }
            seen.append((travel["attributes"], moved))
    finally:
        trace.configure_tracing(None)
        service.close()
    assert seen == [
        # version 10 from checkpoint 8, version 2 from version 0, and an
        # empty prefix, which is neither a prefix nor counted
        (
            {"prefixes": 2, "checkpoint_loads": 1, "replayed": 4},
            {("extended",): 1, ("miss",): 1},
        ),
        (
            {"prefixes": 1, "checkpoint_loads": 0, "replayed": 0},
            {("hit",): 1},
        ),
    ]


# -- queries and statements run columnar --------------------------------------
#
# ``compiled`` evaluates a query over the columnar view of each relation
# it scans, and replays a statement over it too, so a replayed state is
# the table replay computed.  By count: replay — ``stmt.apply``,
# ``History.execute``, the store's ``as_of``, the service's registration
# and append validation — columnarizes each row-backed relation it first
# touches once, and nothing reads a replayed version's rows to scan them.


@pytest.fixture
def columnarized(monkeypatch):
    """Every relation ``ColumnarTable.from_relation`` scans: a spy on
    the one function that builds a columnar view of a relation."""
    scanned: list[Relation] = []
    real = ColumnarTable.from_relation.__func__

    def from_relation(cls, relation):
        scanned.append(relation)
        return real(cls, relation)

    monkeypatch.setattr(
        ColumnarTable, "from_relation", classmethod(from_relation)
    )
    return scanned


def columnar_outcomes() -> dict:
    counter = global_registry().counter(
        "mahif_columnar_memo_total", "", ("outcome",)
    )
    return {
        outcome: counter.value(outcome=outcome) for outcome in ("hit", "miss")
    }


def test_second_whatif_at_a_position_columnarizes_nothing(columnarized):
    database = rows_database([(i, i % 200, 5) for i in range(500)])
    history = windows_history(40)
    engine = Mahif()
    oracle = Mahif(MahifConfig(backend="interpreted"))

    def ask(position, bump):
        """(relations scanned cold, memo misses, whether the memo hit)."""
        modifications = replace_at(position, bump)
        expected = oracle.answer(
            HistoricalWhatIfQuery(history, twin(database), modifications),
            Method.NAIVE,
        )
        before, scanned = columnar_outcomes(), len(columnarized)
        answer = engine.answer(
            HistoricalWhatIfQuery(history, database, modifications),
            Method.R_PS_DS,
        )
        assert answer.delta == expected.delta
        after = columnar_outcomes()
        return (
            len(columnarized) - scanned,
            after["miss"] - before["miss"],
            after["hit"] > before["hit"],
        )

    # the base relation, once, by the replay to version 29; that version
    # and every later one is the table replay computed, read as it is
    assert ask(30, 100) == (1, 1, True)
    assert ask(30, 101) == (0, 0, True)
    assert ask(35, 102) == (0, 0, True)
    assert ask(30, 103) == (0, 0, True)


def test_served_misses_and_appends_scan_no_relation(service, columnarized):
    """Registration replays the history over the base relation: one
    scan.  A miss over a replayed version, and the replay that validates
    an append, read tables replay computed: none."""
    database = rows_database([(i, i % 200, 5) for i in range(300)])
    history = windows_history(20)
    service.register("h", database, history)
    assert columnarized == [database["R"]]

    def served(spec, over):
        scanned = len(columnarized)
        (answer,) = service.answer("h", [spec])
        assert answer["cached"] is False
        assert answer["delta"] == naive_delta(database, over, spec)
        return len(columnarized) - scanned

    assert served(served_spec(12, 100), history) == 0
    assert served(served_spec(12, 101), history) == 0
    assert served(served_spec(15, 101), history) == 0
    # the append is validated by replaying it, over the current table
    appended = UpdateStatement("R", {"F": col("F") + 1}, window(0, 50))
    scanned = len(columnarized)
    assert service.append("h", [appended])["cache_dropped"] == 3
    assert len(columnarized) == scanned
    longer = History(history.statements + (appended,))
    assert served(served_spec(12, 102), longer) == 0


#: An ``INSERT … SELECT`` whose query reads ``R`` itself.
INSERT_SELECT = InsertQuery(
    "R",
    Project(
        Select(RelScan("R"), le(col("P"), 3)),
        ((col("k") + 1000, "k"), (col("P"), "P"), (col("F"), "F")),
    ),
)


def test_replay_columnarizes_a_stored_relation_once(tmp_path, columnarized):
    """Every statement kind through ``stmt.apply(db)``,
    ``History.execute`` and ``HistoryStore.as_of``: replay columnarizes
    each row-backed relation it first touches exactly once and nothing
    after — the states it computes are tables — so the one other scan is
    of the relation a checkpoint load decoded."""
    database = rows_database([(i, i, 5) for i in range(80)])
    statements = (
        UpdateStatement("R", {"F": col("F") + 1}, window(0, 40)),
        DeleteStatement("R", gt(col("P"), 70)),
        InsertTuple("R", (500, 500, 5)),
        UpdateStatement("R", {"F": col("F") * 2}, ge(col("P"), 0)),
    )
    history = History(statements)
    oracle = history.execute(twin(database), backend="interpreted")

    state = database
    for statement in statements:
        state = statement.apply(state)
    assert state.same_contents(oracle)
    assert columnarized == [database["R"]]
    assert history.execute(database).same_contents(oracle)
    evaluate_query(RelScan("R"), state)
    assert columnarized == [database["R"]]
    with HistoryStore.create(
        tmp_path / "s", database, checkpoint_interval=2
    ) as store:
        store.append_history(history)
        assert columnarized == [database["R"]]
        for version in range(len(statements) + 1):
            expected = History(statements[:version]).execute(
                twin(database), backend="interpreted"
            )
            assert store.as_of(version).same_contents(expected)
    # version 3: checkpoint 2 decoded, one statement replayed over it
    assert len(columnarized) == 2 and columnarized[1] is not database["R"]


def test_insert_select_columnarizes_what_its_query_reads(columnarized):
    """The query of an ``INSERT … SELECT`` runs on the columnar
    evaluator: replaying it columnarizes the one state it scans, once —
    a second replay over the same state hits the memo."""
    database = rows_database([(i, i, 5) for i in range(80)])
    oracle = INSERT_SELECT.apply(twin(database), backend="interpreted")
    assert INSERT_SELECT.apply(database).same_contents(oracle)
    assert INSERT_SELECT.apply(database).same_contents(oracle)
    assert columnarized == [database["R"]]
