"""The answer pipeline's worker pool (DESIGN.md, "Answer pipeline").

One executor type flows through the pipeline's plan and execute stages:
a :class:`ResilientExecutor` — a *process* pool for the in-process
backends (pure-Python evaluation does not parallelize under the GIL), a
*thread* pool for sqlite (the C engine releases the GIL and the
connection cache is per-thread) — or ``None`` for in-process execution.
:func:`run_settled` and :func:`run_tasks` are the only two ways a stage
runs its calls, over either.
"""

from __future__ import annotations

import threading
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Callable, Sequence

from ..relational.exec.backend import resolve_backend
from .degradation import record_degradation

__all__ = ["ResilientExecutor", "make_executor", "run_settled", "run_tasks"]


class ResilientExecutor:
    """A pool with a watchdog: rebuild a broken pool once, then serial.

    A SIGKILLed (OOM-killed, crashed) process-pool worker poisons the
    whole ``ProcessPoolExecutor`` — every pending and future submission
    raises :class:`BrokenProcessPool`.  Pipeline tasks are pure functions
    of their arguments, so the whole call list can safely re-run: the
    watchdog rebuilds the pool via its factory exactly once
    (``pool_rebuild`` degradation event) and, if the rebuilt pool breaks
    too, degrades permanently to serial in-process execution
    (``pool_serial``) — the call *always* returns what the serial oracle
    returns, only slower.

    Thread pools cannot break this way, but wrapping both kinds keeps
    one executor type flowing through the pipeline.
    """

    def __init__(self, factory: Callable[[], Executor], kind: str) -> None:
        self._factory = factory
        self.kind = kind  # "process" | "thread"
        self._executor: Executor | None = factory()
        self._lock = threading.Lock()
        self._rebuilt = False

    @property
    def serial(self) -> bool:
        """True once the pool is gone for good (twice broken, or shut
        down): every later call runs in-process."""
        return self._executor is None

    def run_settled(self, task: Callable, calls: Sequence[tuple]) -> list:
        """Run ``task`` over every call tuple, surviving a broken pool;
        one ``(True, result)`` or ``(False, exception)`` per call.  A
        broken *pool* is not a per-call failure — it triggers the
        watchdog and the whole list re-runs.

        Submission happens under the lock :meth:`shutdown` takes, so a
        pool retired by another thread (the engine replacing it with a
        wider one) either has this call's futures already — they run to
        completion — or is seen as gone, never half-submitted to."""
        while True:
            executor = None
            try:
                with self._lock:
                    executor = self._executor
                    if executor is None:
                        return run_settled(None, task, calls)
                    futures = [executor.submit(task, *args) for args in calls]
                outcomes = []
                for future in futures:
                    try:
                        outcomes.append((True, future.result()))
                    except BrokenExecutor:
                        raise
                    except Exception as exc:
                        outcomes.append((False, exc))
                return outcomes
            except BrokenExecutor:
                self._degrade(executor)

    def _degrade(self, broken: Executor) -> None:
        """Replace the broken pool (once) or drop to serial, exactly one
        transition per broken pool even under concurrent callers."""
        with self._lock:
            if self._executor is not broken:
                return  # another thread already handled this pool
            broken.shutdown(wait=False, cancel_futures=True)
            if not self._rebuilt:
                self._rebuilt = True
                self._executor = self._factory()
                record_degradation("pool_rebuild")
            else:
                self._executor = None
                record_degradation("pool_serial")

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False):
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=cancel_futures)


def make_executor(backend: str | None, workers: int) -> ResilientExecutor:
    """A ``workers``-wide pool of the kind ``backend`` asks for
    (:attr:`~repro.relational.exec.backend.Backend.pool_kind`): threads
    for sqlite, forked processes for the in-process backends."""

    def _thread_pool() -> Executor:
        return ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="mahif-batch"
        )

    def _process_pool() -> Executor:
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # platform without fork: spawn/forkserver default
            context = None
        return ProcessPoolExecutor(max_workers=workers, mp_context=context)

    kind = resolve_backend(backend).pool_kind
    return ResilientExecutor(
        _thread_pool if kind == "thread" else _process_pool, kind
    )


def run_settled(
    executor: ResilientExecutor | None,
    task: Callable,
    calls: Sequence[tuple],
) -> list:
    """Per-call ``(ok, result-or-exception)`` pairs, in order;
    in-process when there is no pool.  Pool breakage is the watchdog's
    business, not a per-call failure."""
    if executor is not None:
        return executor.run_settled(task, calls)
    outcomes = []
    for args in calls:
        try:
            outcomes.append((True, task(*args)))
        except Exception as exc:
            outcomes.append((False, exc))
    return outcomes


def run_tasks(
    executor: ResilientExecutor | None,
    task: Callable,
    calls: Sequence[tuple],
) -> list:
    """Every call's result, raising the first failure."""
    results = []
    for ok, value in run_settled(executor, task, calls):
        if not ok:
            raise value
        results.append(value)
    return results
