"""Fault-injected crash-recovery proofs for the history store.

The store claims (``src/repro/store/history_store.py``) that a crash at
*any* point of its durable write stream leaves it recoverable to a
consistent prefix of the log.  These tests prove it by simulation
instead of asserting it: the kill-at-every-byte-offset fuzz replays one
append scenario once per possible crash point — every byte of every log
record and checkpoint write, and every atomic rename — and checks that
``HistoryStore.open`` always recovers an exact prefix, never a torn or
reordered history, and that the reopened store still appends.

Scale/seed knobs match the other fuzz suites: ``MAHIF_FUZZ_SCALE``
multiplies the scenario size, ``MAHIF_FUZZ_SEED`` randomizes the
statement mix.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from fuzz_differential import (
    env_number,
    random_history,
    random_typed_database,
)
from repro.relational import Database, Relation, Schema
from repro.relational.expressions import TRUE, col, ge, lit
from repro.relational.statements import (
    DeleteStatement,
    InsertTuple,
    UpdateStatement,
)
from repro.store import (
    CountingOps,
    CrashingOps,
    FlakyOps,
    HistoryStore,
    SimulatedCrash,
    StoreError,
    encode_database,
    encode_statement,
)

_SCALE = env_number("MAHIF_FUZZ_SCALE", 1.0)
_SEED = env_number("MAHIF_FUZZ_SEED", 20220614)

CHECKPOINT_INTERVAL = 2


def make_db() -> Database:
    return Database(
        {"R": Relation.from_rows(Schema.of("k", "v"), [(1, 10), (2, 20)])}
    )


def make_statements(count: int) -> list:
    """A small mixed workload: updates, an insert, a delete."""
    rng = random.Random(_SEED)
    statements = []
    for i in range(count):
        kind = rng.choice(("update", "update", "insert", "delete"))
        if kind == "update":
            statements.append(
                UpdateStatement(
                    "R", {"v": col("v") + rng.randrange(1, 5)}, TRUE
                )
            )
        elif kind == "insert":
            statements.append(
                InsertTuple("R", (100 + i, rng.randrange(50)))
            )
        else:
            statements.append(
                DeleteStatement("R", ge(col("v"), lit(1000)))
            )
    return statements


def run_scenario(path, ops, statements) -> None:
    """Create a store (crash-free) then append ``statements`` under
    ``ops``; the injected crash (if any) happens inside an append."""
    store = HistoryStore.create(
        path,
        make_db(),
        checkpoint_interval=CHECKPOINT_INTERVAL,
        sync=True,
        ops=ops,
    )
    ops.arm()
    try:
        for stmt in statements:
            store.append(stmt)
    finally:
        # A simulated crash abandons the handle like a real one would —
        # nothing unflushed is pending by construction, so closing the
        # raw fh (not via ops: a dead ops raises) only releases the fd.
        try:
            store._log_fh.close()
        except OSError:
            pass


def expected_prefix_states(statements):
    """Every databases state along the scenario, index = prefix length."""
    states = [make_db()]
    for stmt in statements:
        states.append(stmt.apply(states[-1]))
    return states


def test_kill_at_every_byte_offset_recovers_consistent_prefix(tmp_path):
    """THE crash-recovery contract: for every byte offset of the durable
    write stream, dying there leaves a store that reopens to an exact
    prefix of the appended history — correct statements, correct state,
    still appendable."""
    statements = make_statements(max(2, int(4 * _SCALE)))
    encoded = [encode_statement(s) for s in statements]
    states = expected_prefix_states(statements)

    counting = CountingOps()
    run_scenario(tmp_path / "probe", counting, statements)
    total_bytes = counting.byte_count
    assert total_bytes > 0

    for offset in range(total_bytes):
        target = tmp_path / f"crash-{offset}"
        ops = CrashingOps(byte_budget=offset)
        with pytest.raises(SimulatedCrash):
            run_scenario(target, ops, statements)
        assert ops.dead

        with HistoryStore.open(target) as reopened:
            recovered = list(reopened.history())
            n = len(recovered)
            assert n <= len(statements)
            assert [encode_statement(s) for s in recovered] == encoded[:n]
            assert reopened.current == states[n]
            # Checkpoint invariant: every grid version within the
            # recovered log is present (rebuilt if the crash tore it).
            grid = set(range(0, n + 1, CHECKPOINT_INTERVAL))
            assert grid <= set(reopened.checkpoint_versions())
            # The recovered store is fully live: appending extends the
            # prefix without disturbing it.
            more = UpdateStatement("R", {"v": col("v") + 1}, TRUE)
            reopened.append(more)
            assert len(reopened) == n + 1
            assert reopened.current == more.apply(states[n])


def test_crash_on_checkpoint_rename_leaves_store_consistent(tmp_path):
    """A torn checkpoint — temp file fully written, rename never lands —
    costs nothing: the log is ahead of the checkpoint, and open()
    rebuilds the missing snapshot from it."""
    statements = make_statements(6)
    encoded = [encode_statement(s) for s in statements]
    states = expected_prefix_states(statements)

    counting = CountingOps()
    run_scenario(tmp_path / "probe", counting, statements)
    assert counting.replace_count >= 2  # interval-2 over 6 appends

    for nth in range(1, counting.replace_count + 1):
        target = tmp_path / f"torn-{nth}"
        with pytest.raises(SimulatedCrash):
            run_scenario(
                target, CrashingOps(crash_on_replace=nth), statements
            )
        with HistoryStore.open(target) as reopened:
            recovered = list(reopened.history())
            n = len(recovered)
            assert [encode_statement(s) for s in recovered] == encoded[:n]
            assert reopened.current == states[n]
            grid = set(range(0, n + 1, CHECKPOINT_INTERVAL))
            assert grid <= set(reopened.checkpoint_versions())


def test_crash_during_create_yields_unopenable_or_empty_store(tmp_path):
    """Dying inside create() may leave anything from an empty directory
    to a complete store; open() must either recover a whole empty store
    or refuse with StoreError — never crash, never invent statements."""
    counting = CountingOps()
    counting.arm()  # count create itself this time
    HistoryStore.create(
        tmp_path / "probe",
        make_db(),
        checkpoint_interval=CHECKPOINT_INTERVAL,
        sync=True,
        ops=counting,
    ).close()
    assert counting.byte_count > 0

    for offset in range(counting.byte_count):
        target = tmp_path / f"create-{offset}"
        ops = CrashingOps(byte_budget=offset)
        ops.arm()
        with pytest.raises(SimulatedCrash):
            HistoryStore.create(
                target,
                make_db(),
                checkpoint_interval=CHECKPOINT_INTERVAL,
                sync=True,
                ops=ops,
            )
        try:
            store = HistoryStore.open(target)
        except StoreError:
            continue  # refused cleanly: the caller skips the bad store
        with store:
            assert len(store) == 0
            assert store.current == make_db()


def test_transient_append_failure_rolls_back_and_retries(tmp_path):
    """A flaky disk fails an append; the store rolls the log back,
    raises a *retryable* StoreError, and the very same append succeeds
    on retry — with the on-disk log byte-identical to a never-failed
    run."""
    statements = make_statements(4)
    flaky = FlakyOps(failures=1, armed=False)
    store = HistoryStore.create(
        tmp_path / "flaky",
        make_db(),
        checkpoint_interval=CHECKPOINT_INTERVAL,
        ops=flaky,
    )
    store.append(statements[0])
    flaky.arm()
    with pytest.raises(StoreError) as excinfo:
        store.append(statements[1])
    assert excinfo.value.retryable
    assert flaky.raised == 1
    assert len(store) == 1  # the failed append left no trace

    store.append(statements[1])  # the retry
    for stmt in statements[2:]:
        store.append(stmt)
    assert len(store) == len(statements)
    store.close()

    clean = HistoryStore.create(
        tmp_path / "clean",
        make_db(),
        checkpoint_interval=CHECKPOINT_INTERVAL,
    )
    for stmt in statements:
        clean.append(stmt)
    clean.close()
    assert (
        (tmp_path / "flaky" / "log.jsonl").read_bytes()
        == (tmp_path / "clean" / "log.jsonl").read_bytes()
    )

    with HistoryStore.open(tmp_path / "flaky") as reopened:
        assert [encode_statement(s) for s in reopened.history()] == [
            encode_statement(s) for s in statements
        ]


def test_flaky_every_op_eventually_succeeds(tmp_path):
    """Each write-side op kind (write/flush/fsync/replace) can be the
    transient failure; appends stay retryable until the disk heals."""
    statements = make_statements(3)
    for failures in (1, 2, 3, 5):
        flaky = FlakyOps(failures=failures, armed=False)
        store = HistoryStore.create(
            tmp_path / f"f{failures}",
            make_db(),
            checkpoint_interval=CHECKPOINT_INTERVAL,
            sync=True,  # exercise the fsync path too
            ops=flaky,
        )
        flaky.arm()
        flaky_left = failures
        for stmt in statements:
            while True:
                try:
                    store.append(stmt)
                    break
                except StoreError as exc:
                    assert exc.retryable
                    flaky_left -= 1
                    assert flaky_left >= 0, "more failures than injected"
        assert len(store) == len(statements)
        assert store.current == expected_prefix_states(statements)[-1]
        store.close()


def test_sync_mode_fsyncs_log_and_directory(tmp_path):
    """Durability accounting: with sync=True every append fsyncs the
    log, and every checkpoint rename fsyncs the store directory; with
    sync=False neither ever happens."""
    statements = make_statements(4)

    synced = CountingOps()
    run_scenario(tmp_path / "synced", synced, statements)
    # >= one log fsync per append, plus the checkpoint temp-file fsyncs.
    assert synced.fsync_count >= len(statements)
    # 2 interval checkpoints over 4 appends, each fsyncing the dir.
    assert synced.dir_fsync_count >= 2

    relaxed = CountingOps()
    store = HistoryStore.create(
        tmp_path / "relaxed",
        make_db(),
        checkpoint_interval=CHECKPOINT_INTERVAL,
        sync=False,
        ops=relaxed,
    )
    relaxed.arm()
    for stmt in statements:
        store.append(stmt)
    store.close()
    assert relaxed.fsync_count == 0
    assert relaxed.dir_fsync_count == 0
    assert not store.sync


def test_failed_rollback_marks_store_failed(tmp_path, monkeypatch):
    """If the roll-back after a failed append write itself fails, the
    store refuses every further operation instead of serving a state
    that disagrees with its disk."""
    store = HistoryStore.create(
        tmp_path / "s", make_db(), checkpoint_interval=8
    )
    store.append(UpdateStatement("R", {"v": col("v") + 1}, TRUE))

    class DoomedOps(FlakyOps):
        def open(self, path, mode):
            raise OSError(5, "injected reopen failure")

    store._ops = DoomedOps(failures=1)
    with pytest.raises(StoreError):
        store.append(UpdateStatement("R", {"v": col("v") + 2}, TRUE))
    with pytest.raises(StoreError, match="store failed"):
        store.append(UpdateStatement("R", {"v": col("v") + 3}, TRUE))
    with pytest.raises(StoreError, match="store failed"):
        store._check_open()
    # The disk still holds the durable prefix; a reopen recovers it.
    with HistoryStore.open(tmp_path / "s") as reopened:
        assert len(reopened) == 1


def test_recovered_log_is_clean_prefix_on_disk(tmp_path):
    """After recovery the log *file* ends exactly at the last good
    record — no torn bytes left for the next append to corrupt."""
    statements = make_statements(3)
    counting = CountingOps()
    run_scenario(tmp_path / "probe", counting, statements)

    # Crash mid-way through the stream (somewhere inside a record).
    offset = counting.byte_count // 2
    target = tmp_path / "torn"
    with pytest.raises(SimulatedCrash):
        run_scenario(target, CrashingOps(byte_budget=offset), statements)
    with HistoryStore.open(target) as store:
        n = len(store)
    raw = (target / "log.jsonl").read_bytes()
    lines = raw.decode("utf-8").splitlines()
    assert len(lines) == n
    assert raw == b"" or raw.endswith(b"\n")
    for line in lines:
        json.loads(line)  # every remaining record parses


# -- version 0 is held --------------------------------------------------------
#
# ``initial()`` / ``as_of(0)`` return one held object — the database
# ``create()`` was given, or checkpoint 0 decoded at most once after
# ``open()`` — so "answers are the same before and after a restart" now
# rests on the codec round trip of checkpoint 0.


def _typed_rows(database: Database) -> dict:
    """Rows with their value types: ``repr`` tells ``1`` from ``True``
    from ``1.0``, which ``==`` does not."""
    return {
        name: (relation.schema, sorted(map(repr, relation.tuples)))
        for name, relation in database.relations.items()
    }


def test_version_zero_survives_a_restart_bit_for_bit(tmp_path):
    rng = random.Random(_SEED)
    for trial in range(max(3, int(12 * _SCALE))):
        database, types = random_typed_database(rng, rows=rng.randint(1, 14))
        history = random_history(rng, database, types, length=5)
        path = tmp_path / f"s{trial}"
        interval = rng.choice((2, 3, 32))
        with HistoryStore.create(
            path, database, checkpoint_interval=interval
        ) as store:
            assert store.initial() is database
            store.append_history(history)
            assert store.as_of(0) is database
        with HistoryStore.open(path) as store:
            reopened = store.as_of(0)
            assert reopened is store.initial() is store.as_of(0)
            assert _typed_rows(reopened) == _typed_rows(database)
            assert next(store.versions()) == (0, reopened)


def test_corrupt_or_missing_base_checkpoint_fails_open_or_first_use(tmp_path):
    """With the history shorter than a checkpoint interval ``open()``
    itself needs version 0; with a deeper checkpoint at hand it opens,
    and the first call that needs version 0 raises."""

    def store_with(name, interval, damage):
        path = tmp_path / name
        with HistoryStore.create(
            path, make_db(), checkpoint_interval=interval
        ) as store:
            for stmt in make_statements(5):
                store.append(stmt)
        damage(path / "checkpoints" / "ckpt-00000000.json")
        return path

    def corrupt(base):
        base.write_text("{corrupt")

    for damage in (corrupt, os.remove):
        name = damage.__name__
        with pytest.raises(StoreError, match="base checkpoint"):
            HistoryStore.open(store_with(f"short-{name}", 32, damage))
    with pytest.raises(StoreError, match="base checkpoint"):
        # a missing base is seen by name, before anything is decoded
        HistoryStore.open(store_with("deep-remove", 2, os.remove))
    with HistoryStore.open(store_with("deep-corrupt", 2, corrupt)) as store:
        states = expected_prefix_states(make_statements(5))
        assert store.current.same_contents(states[5])
        assert store.as_of(4).same_contents(states[4])
        for needs_base in (store.initial, lambda: store.as_of(1)):
            with pytest.raises(StoreError, match="base checkpoint"):
                needs_base()


def test_checkpoint_zero_is_decoded_at_most_once(tmp_path, checkpoint_loads):
    loads = checkpoint_loads
    statements = make_statements(5)
    for name, interval, at_open in (("short", 32, [0]), ("deep", 2, [4])):
        path = tmp_path / name
        with HistoryStore.create(
            path, make_db(), checkpoint_interval=interval
        ) as store:
            for stmt in statements:
                store.append(stmt)
            store.initial(), store.as_of(0), store.as_of(1)
            assert loads == []  # version 0 is the database it was given
        with HistoryStore.open(path) as store:
            assert loads == at_open
            store.initial(), store.as_of(0), store.as_of(1), store.initial()
            assert loads.count(0) == 1
            assert store.replay_cost(0) == 0
        loads.clear()
