"""Pool watchdog: a killed process-pool worker must not change answers.

A SIGKILLed worker (the OOM killer's signature move) poisons the whole
``ProcessPoolExecutor``.  :class:`repro.core.batch.ResilientExecutor`
claims the batch then transparently rebuilds the pool once — and if the
rebuilt pool breaks too, finishes serially — returning exactly the
deltas the serial oracle produces.  The regression test here earns that
claim the hard way: a worker shoots itself mid-batch with SIGKILL.
"""

from __future__ import annotations

import os
import signal
import sys
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor

import pytest

from repro.core import (
    HistoricalWhatIfQuery,
    Mahif,
    MahifConfig,
    Method,
    Replace,
)
from repro.core import batch as batch_module
from repro.core.batch import ResilientExecutor
from repro.core.degradation import (
    degradation_snapshot,
    record_degradation,
    reset_degradation,
)
from repro.relational import Database, History, Relation, Schema
from repro.relational.expressions import Attr, Const, col, ge
from repro.relational.statements import UpdateStatement


@pytest.fixture(autouse=True)
def _clean_degradation():
    reset_degradation()
    yield
    reset_degradation()


# -- ResilientExecutor unit tests -----------------------------------------


class _BrokenPool:
    """An executor that is already poisoned: every submit raises."""

    def __init__(self) -> None:
        self.shutdowns = 0

    def submit(self, fn, *args):
        raise BrokenExecutor("injected poisoned pool")

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdowns += 1


def _sequenced_factory(pools):
    """A factory handing out ``pools`` in order (error when exhausted)."""
    remaining = list(pools)
    return lambda: remaining.pop(0)


def _square(x):
    return x * x


def _values(outcomes):
    assert all(ok for ok, _ in outcomes)
    return [value for _, value in outcomes]


def test_healthy_pool_runs_without_degradation():
    executor = ResilientExecutor(
        _sequenced_factory([ThreadPoolExecutor(max_workers=2)]), "thread"
    )
    try:
        assert _values(
            executor.run_settled(_square, [(1,), (2,), (3,)])
        ) == [1, 4, 9]
    finally:
        executor.shutdown()
    assert degradation_snapshot() == {}


def test_broken_pool_rebuilds_once_then_succeeds():
    broken = _BrokenPool()
    executor = ResilientExecutor(
        _sequenced_factory([broken, ThreadPoolExecutor(max_workers=2)]),
        "thread",
    )
    try:
        assert _values(
            executor.run_settled(_square, [(2,), (4,)])
        ) == [4, 16]
    finally:
        executor.shutdown()
    assert broken.shutdowns == 1  # the poisoned pool was reaped
    assert degradation_snapshot() == {"pool_rebuild": 1}


def test_twice_broken_pool_degrades_to_serial():
    executor = ResilientExecutor(
        _sequenced_factory([_BrokenPool(), _BrokenPool()]), "thread"
    )
    try:
        # Both pools break; the answer still arrives, computed serially.
        assert _values(
            executor.run_settled(_square, [(3,), (5,)])
        ) == [9, 25]
        snapshot = degradation_snapshot()
        assert snapshot == {"pool_rebuild": 1, "pool_serial": 1}
        # Permanently serial now: no further factory calls, same answers.
        assert _values(executor.run_settled(_square, [(6,)])) == [36]
        assert degradation_snapshot() == snapshot
    finally:
        executor.shutdown()


def _maybe_fail(x):
    if x < 0:
        raise ValueError(f"negative input {x}")
    return x * 2


def test_run_settled_captures_per_call_failures():
    executor = ResilientExecutor(
        _sequenced_factory([ThreadPoolExecutor(max_workers=2)]), "thread"
    )
    try:
        outcomes = executor.run_settled(_maybe_fail, [(2,), (-1,), (3,)])
    finally:
        executor.shutdown()
    assert outcomes[0] == (True, 4)
    ok, exc = outcomes[1]
    assert not ok and isinstance(exc, ValueError)
    assert outcomes[2] == (True, 6)


def test_run_settled_survives_broken_pool():
    executor = ResilientExecutor(
        _sequenced_factory([_BrokenPool(), _BrokenPool()]), "thread"
    )
    try:
        outcomes = executor.run_settled(_maybe_fail, [(1,), (-2,)])
    finally:
        executor.shutdown()
    assert outcomes[0] == (True, 2)
    assert not outcomes[1][0]
    assert degradation_snapshot() == {
        "pool_rebuild": 1, "pool_serial": 1
    }


def test_shutdown_executor_falls_back_to_serial():
    executor = ResilientExecutor(
        _sequenced_factory([ThreadPoolExecutor(max_workers=1)]), "thread"
    )
    executor.shutdown()
    # The engine holds executors in caches; a post-shutdown straggler
    # call must still answer rather than crash on a missing pool.
    assert _values(executor.run_settled(_square, [(7,)])) == [49]
    assert executor.serial


def test_degradation_counters_accumulate_and_reset():
    record_degradation("pool_rebuild")
    record_degradation("sqlite_fallback", 2)
    assert degradation_snapshot() == {
        "pool_rebuild": 1, "sqlite_fallback": 2
    }
    reset_degradation()
    assert degradation_snapshot() == {}


# -- the SIGKILL regression -----------------------------------------------

_KILL_FLAG: str | None = None  # set per-test; forked workers inherit it
_REAL_TASK = batch_module.pair_task


def _suicidal_pair_task(*call):
    """Kill exactly one worker process, then behave normally.

    The O_EXCL flag file makes the suicide happen once across all
    workers (including the rebuilt pool's); ``fork`` pickles this
    function by reference, so the monkeypatched module global reaches
    the workers intact.
    """
    try:
        fd = os.open(_KILL_FLAG, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        pass
    else:
        os.close(fd)
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_TASK(*call)


def _batch_fixture():
    database = Database(
        {
            "Orders": Relation.from_rows(
                Schema.of("ID", "Price", "Fee"),
                [(i, 10 * i, i % 4) for i in range(1, 13)],
            )
        }
    )
    history = History.of(
        UpdateStatement("Orders", {"Fee": Const(0)}, ge(col("Price"), 50)),
        UpdateStatement(
            "Orders", {"Fee": Attr("Fee") + 1}, ge(col("Price"), 30)
        ),
        UpdateStatement(
            "Orders", {"Price": Attr("Price") + 2}, ge(col("Fee"), 1)
        ),
    )
    queries = [
        HistoricalWhatIfQuery(
            history,
            database,
            (
                Replace(
                    1,
                    UpdateStatement(
                        "Orders", {"Fee": Const(0)},
                        ge(col("Price"), threshold),
                    ),
                ),
            ),
        )
        for threshold in (20, 40, 60, 80)
    ]
    return queries


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="needs fork + SIGKILL semantics"
)
def test_killed_worker_mid_batch_still_matches_serial_oracle(
    tmp_path, monkeypatch
):
    """One process-pool worker is SIGKILLed while computing deltas; the
    batch must come back identical to the no-pool serial answers, with
    the rebuild recorded as a degradation event."""
    queries = _batch_fixture()
    oracle_engine = Mahif(MahifConfig(backend="compiled"))
    oracle = [
        oracle_engine.answer(q, Method.R_PS_DS).delta for q in queries
    ]

    monkeypatch.setattr(batch_module, "pair_task", _suicidal_pair_task)
    monkeypatch.setattr(
        sys.modules[__name__], "_KILL_FLAG", str(tmp_path / "killed-once")
    )

    engine = Mahif(MahifConfig(backend="compiled", batch_workers=2))
    results = engine.answer_batch(queries, Method.R_PS_DS)
    assert [r.delta for r in results] == oracle
    assert os.path.exists(tmp_path / "killed-once"), (
        "the suicide task never ran in a worker — the regression "
        "exercised nothing"
    )
    assert degradation_snapshot().get("pool_rebuild", 0) >= 1


def test_engine_replaces_a_pool_that_went_serial():
    """The engine keeps one pool across calls; once the watchdog has
    given up on it (serial for good), the next call gets a fresh one
    instead of staying serial for the engine's lifetime."""
    queries = _batch_fixture()
    engine = Mahif(MahifConfig(backend="sqlite", batch_workers=2))
    first = engine.answer_batch(queries, Method.R_PS_DS)
    pool = engine._pool
    assert pool is not None and not pool.serial
    assert engine.answer_batch(queries, Method.R_PS_DS)[0].delta == first[0].delta
    assert engine._pool is pool  # reused, not rebuilt per call
    pool.shutdown()
    again = engine.answer_batch(queries, Method.R_PS_DS)
    assert [r.delta for r in again] == [r.delta for r in first]
    assert engine._pool is not pool and not engine._pool.serial


def test_engine_pool_grows_to_the_widest_request():
    """A later call asking for more workers than the pool has gets them
    (the first caller does not fix the width for the engine's lifetime);
    a narrower one reuses the wider pool, and the retired pool is shut
    down rather than left holding idle workers."""
    queries = _batch_fixture()
    engine = Mahif(MahifConfig(backend="sqlite"))
    first = engine.answer_batch(queries, Method.R_PS_DS, workers=2)
    narrow = engine._pool
    assert engine._pool_width == 2
    wider = engine.answer_batch(queries, Method.R_PS_DS, workers=3)
    assert engine._pool is not narrow and engine._pool_width == 3
    assert narrow.serial  # retired: shut down, not leaked
    wide = engine._pool
    engine.answer_batch(queries, Method.R_PS_DS, workers=2)
    assert engine._pool is wide and engine._pool_width == 3
    assert [r.delta for r in wider] == [r.delta for r in first]


def test_retiring_a_pool_never_interrupts_a_submission():
    """The engine may retire a pool another thread is submitting to (a
    wider request replaces it): shutdown waits for the submission in
    progress, whose futures then run to completion, instead of failing
    it with 'cannot schedule new futures after shutdown'."""
    import threading

    entered, release = threading.Event(), threading.Event()

    class SlowSubmit(ThreadPoolExecutor):
        def submit(self, fn, *args):
            entered.set()
            assert release.wait(10)
            return super().submit(fn, *args)

    executor = ResilientExecutor(lambda: SlowSubmit(max_workers=1), "thread")
    outcomes = []
    caller = threading.Thread(
        target=lambda: outcomes.extend(
            executor.run_settled(_square, [(7,)])
        )
    )
    caller.start()
    assert entered.wait(10)
    retirer = threading.Thread(
        target=executor.shutdown, kwargs={"wait": False}
    )
    retirer.start()
    retirer.join(0.2)
    assert retirer.is_alive()  # held off until the submission is in
    release.set()
    caller.join(10)
    retirer.join(10)
    assert _values(outcomes) == [49]
    assert executor.serial
