"""Only the configured backend runs.

``MahifConfig(backend=...)`` reaches every stage of the answer pipeline
as an explicit argument.  These tests pin that: with the other
executors' entry points replaced by ones that raise, an engine still
answers — through time travel, the insert split, both slicers, naive
replay, the worker pool and EXPLAIN — and two engines with different
backends answering at once never see each other's.
"""

import dataclasses
import sys
import threading

import pytest

from repro.core import (
    HistoricalWhatIfQuery,
    Mahif,
    MahifConfig,
    Method,
    Replace,
)
from repro.relational import (
    BACKENDS,
    Database,
    History,
    Relation,
    Schema,
    parse_history,
    parse_statement,
)
from repro.relational.exec import backend as seam

ENTRY_POINTS = ("evaluate", "evaluate_bag", "apply", "apply_bag")


def _wrapped(name, wrap):
    """The real backend ``name`` with every entry point passed through
    ``wrap(name, entry_point)``."""
    real = seam.resolve_backend(name)
    return dataclasses.replace(
        real, **{ep: wrap(name, getattr(real, ep)) for ep in ENTRY_POINTS}
    )


def _only(monkeypatch, configured):
    """Trap every backend but the executor ``configured`` names (under
    any of its names: ``"vector"`` is ``"compiled"``); count its own
    calls."""
    executor = seam.resolve_backend(configured)
    calls = []

    def trap(name, entry_point):
        def raiser(subject, db):
            raise AssertionError(
                f"backend {name!r} ran under config {configured!r}"
            )

        return raiser

    def count(name, entry_point):
        def counted(subject, db):
            calls.append(name)
            return entry_point(subject, db)

        return counted

    monkeypatch.setattr(
        seam,
        "_BACKENDS",
        {
            name: _wrapped(
                name,
                count if seam.resolve_backend(name) is executor else trap,
            )
            for name in BACKENDS
        },
    )
    return calls


def _database():
    schema = Schema.of("a", "b")
    return Database(
        {
            "R": Relation.from_rows(
                schema, [(i, i * 10) for i in range(1, 9)]
            ),
            "S": Relation.from_rows(schema, [(100, 1)]),
        }
    )


def _history(sql):
    return History(tuple(parse_history(sql)))


#: Modified statement behind a two-statement prefix (time travel), with
#: constant inserts on both sides of it (the Section-10 insert split).
SPLIT_HISTORY = """
    UPDATE R SET b = b + 1 WHERE a >= 2;
    INSERT INTO R VALUES (20, 200);
    UPDATE R SET b = b + 10 WHERE a >= 3;
    INSERT INTO R VALUES (30, 300);
    DELETE FROM R WHERE b >= 1000;
"""

#: The same shape with an INSERT ... SELECT downstream of the modified
#: statement: S becomes affected through dataflow, and replaying the
#: statement evaluates a query inside ``apply``.
INSERT_SELECT_HISTORY = """
    UPDATE R SET b = b + 1 WHERE a >= 2;
    INSERT INTO S VALUES (101, 2);
    UPDATE R SET b = b + 10 WHERE a >= 3;
    INSERT INTO S SELECT a, b FROM R WHERE b >= 40;
"""

REPLACEMENT = "UPDATE R SET b = b + 10 WHERE a >= 5;"


def _query(sql):
    return HistoricalWhatIfQuery(
        _history(sql),
        _database(),
        (Replace(3, parse_statement(REPLACEMENT)),),
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("sql", [SPLIT_HISTORY, INSERT_SELECT_HISTORY])
class TestOnlyTheConfiguredBackendRuns:
    def test_every_pipeline_path(self, monkeypatch, backend, sql):
        query = _query(sql)
        expected = (
            Mahif(MahifConfig(backend="interpreted"))
            .answer(query, Method.NAIVE)
            .delta
        )
        assert not expected.is_empty()

        calls = _only(monkeypatch, backend)
        engine = Mahif(MahifConfig(backend=backend))
        try:
            for method in (Method.R_PS_DS, Method.NAIVE):
                seen = len(calls)
                assert engine.answer(query, method).delta == expected
                assert len(calls) > seen, method

            explained = engine.answer(query, Method.R_PS_DS, explain=True)
            assert explained.delta == expected
            assert explained.profile

            # The pool worker is told its backend; it has no scope to
            # inherit one from.
            for method in (Method.R_PS_DS, Method.NAIVE):
                results = engine.answer_batch(
                    [query, query], method, workers=2
                )
                assert [r.delta for r in results] == [expected, expected]
            assert engine._pool is not None
            assert engine._pool.kind == seam.resolve_backend(backend).pool_kind
        finally:
            if engine._pool is not None:
                engine._pool.shutdown()
        assert set(calls) == {seam.resolve_backend(backend).name}


def test_concurrent_engines_see_only_their_own_backend(monkeypatch):
    """Two engines, two backends, two threads: every backend call made
    on a thread belongs to that thread's engine."""
    seen = []

    def record(name, entry_point):
        def recorded(subject, db):
            seen.append((threading.get_ident(), name))
            return entry_point(subject, db)

        return recorded

    monkeypatch.setattr(
        seam, "_BACKENDS", {name: _wrapped(name, record) for name in BACKENDS}
    )
    query = _query(SPLIT_HISTORY)
    expected = Mahif().answer(query, Method.NAIVE).delta
    seen.clear()

    barrier = threading.Barrier(2)
    idents, failures = {}, []

    def answer_with(backend):
        idents[backend] = threading.get_ident()
        engine = Mahif(MahifConfig(backend=backend))
        try:
            barrier.wait(timeout=30)
            for _ in range(15):
                for method in (Method.R_PS_DS, Method.NAIVE):
                    if engine.answer(query, method).delta != expected:
                        failures.append((backend, method))
        except Exception as exc:  # surfaced below, on the main thread
            failures.append((backend, exc))

    threads = [
        threading.Thread(target=answer_with, args=(backend,))
        for backend in ("sqlite", "interpreted")
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    for backend, ident in idents.items():
        ran = {name for thread, name in seen if thread == ident}
        assert ran == {backend}, (backend, ran)
