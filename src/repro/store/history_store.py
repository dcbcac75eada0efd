"""Append-only on-disk history store with snapshot checkpoints.

This is the persistence half of the service subsystem (see DESIGN.md,
"Service architecture"): a transaction history survives process exits as

* ``META.json`` — format marker, schema version, checkpoint interval,
* ``log.jsonl`` — one JSON record per statement, append-only,
* ``checkpoints/ckpt-<version>.json`` — full database snapshots taken at
  version 0 (the pre-history state) and after every
  ``checkpoint_interval``-th statement.

Any version ``v`` is reconstructed by loading the nearest checkpoint at
or below ``v`` and replaying at most ``checkpoint_interval`` statements
— the same policy the in-memory :class:`~repro.relational.versioning.
VersionedDatabase` now uses, so time travel never needs a full-history
replay and never holds every intermediate state at once.

Crash safety: checkpoints are written to a temp file and atomically
renamed into place, so a checkpoint file is either whole or absent.  Log
appends are single ``write()`` calls terminated by a newline; a crash
mid-append leaves at most one partial trailing line, which
:meth:`HistoryStore.open` detects (truncated or unparseable tail) and
truncates away, then discards any checkpoint deeper than the recovered
log.  The store therefore reopens to the longest durable prefix of the
history.

Durability: with ``sync=True`` (the service default) the log file is
fsynced after every append and the store directory is fsynced after
every atomic checkpoint rename, so both the record and the rename
survive power loss, not just process death.  ``sync=False`` keeps the
crash-*consistency* guarantees (a torn tail is still truncated away)
but trades power-loss durability for speed — right for tests and
throwaway stores.

Every write-side filesystem operation goes through an injectable
:class:`~repro.store.faults.FileOps` seam (``ops=``), which is how the
fault-injection suite proves these contracts instead of asserting them:
see :mod:`repro.store.faults` and ``tests/test_store_faults.py``.

Transient write errors (``OSError`` from a full or flaky disk) during
:meth:`append` roll the log back to its pre-append length and surface a
*retryable* :class:`StoreError`; the store stays open and consistent, so
a client retry (the service pairs this with idempotency keys) can
succeed once the condition clears.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Iterator

from ..relational.database import Database
from ..relational.history import History
from ..relational.statements import Statement
from ..relational.versioning import (
    DEFAULT_CHECKPOINT_INTERVAL,
    nearest_checkpoint,
)
from .codec import (
    CodecError,
    decode_database,
    decode_statement,
    encode_database,
    encode_statement,
)
from .faults import REAL_OPS, FileOps

__all__ = ["HistoryStore", "StoreError", "DEFAULT_CHECKPOINT_INTERVAL"]

FORMAT = "mahif-history-store"
FORMAT_VERSION = 1

_META = "META.json"
_LOG = "log.jsonl"
_CHECKPOINT_DIR = "checkpoints"


class StoreError(Exception):
    """Raised for invalid store operations or unreadable store layouts.

    ``retryable`` is True when the operation failed transiently (e.g. a
    disk write error that was rolled back) and left the store consistent
    — the caller may retry the same call.
    """

    def __init__(self, message: str, *, retryable: bool = False) -> None:
        super().__init__(message)
        self.retryable = retryable


def _checkpoint_name(version: int) -> str:
    return f"ckpt-{version:08d}.json"


class HistoryStore:
    """A persistent, append-only transaction history.

    Use :meth:`create` for a fresh store, :meth:`open` to recover an
    existing one; both return a store ready for :meth:`append`,
    :meth:`as_of`, and :meth:`history`.  Stores are context managers::

        with HistoryStore.create(path, initial_db) as store:
            store.append(stmt)
    """

    def __init__(
        self,
        path: pathlib.Path,
        *,
        checkpoint_interval: int,
        statements: list[Statement],
        current: Database,
        checkpoint_versions: list[int],
        sync: bool,
        ops: FileOps,
    ) -> None:
        self._path = path
        self._interval = checkpoint_interval
        self._statements = statements
        self._current = current
        self._checkpoint_versions = sorted(checkpoint_versions)
        self._sync = sync
        self._ops = ops
        self._log_fh = ops.open(path / _LOG, "ab")
        self._closed = False
        self._failed: str | None = None
        #: Version 0, held: the database ``create()`` was given, or
        #: checkpoint 0 decoded at most once (see :meth:`initial`).
        self._initial: Database | None = None

    # -- lifecycle -----------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str | pathlib.Path,
        initial: Database,
        *,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        sync: bool = False,
        ops: FileOps = REAL_OPS,
    ) -> "HistoryStore":
        """Initialize a new store at ``path`` (must not already hold one)."""
        if checkpoint_interval < 1:
            raise StoreError("checkpoint_interval must be >= 1")
        path = pathlib.Path(path)
        if (path / _META).exists():
            raise StoreError(f"store already exists at {path}")
        path.mkdir(parents=True, exist_ok=True)
        (path / _CHECKPOINT_DIR).mkdir(exist_ok=True)
        meta = {
            "format": FORMAT,
            "version": FORMAT_VERSION,
            "checkpoint_interval": checkpoint_interval,
        }
        _atomic_write(
            path / _META,
            (json.dumps(meta, indent=2) + "\n").encode("utf-8"),
            sync=sync,
            ops=ops,
        )
        (path / _LOG).touch()
        store = cls(
            path,
            checkpoint_interval=checkpoint_interval,
            statements=[],
            current=initial,
            checkpoint_versions=[],
            sync=sync,
            ops=ops,
        )
        store._initial = initial
        store._write_checkpoint(0, initial)
        if sync:
            ops.fsync_dir(path)
        return store

    @classmethod
    def open(
        cls,
        path: str | pathlib.Path,
        *,
        sync: bool = False,
        ops: FileOps = REAL_OPS,
    ) -> "HistoryStore":
        """Open an existing store, recovering from a truncated log tail."""
        path = pathlib.Path(path)
        try:
            meta = json.loads((path / _META).read_text(encoding="utf-8"))
        except OSError as exc:
            raise StoreError(f"no history store at {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise StoreError(f"corrupt store metadata at {path}: {exc}") from None
        if not isinstance(meta, dict) or meta.get("format") != FORMAT:
            raise StoreError(f"{path} is not a {FORMAT} directory")
        if meta.get("version") != FORMAT_VERSION:
            raise StoreError(
                f"unsupported store format version {meta.get('version')!r}"
            )
        try:
            interval = int(meta["checkpoint_interval"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(
                f"corrupt store metadata at {path}: {exc}"
            ) from None
        if interval < 1:
            raise StoreError(
                f"corrupt store metadata at {path}: checkpoint_interval "
                f"{interval}"
            )

        statements = cls._recover_log(path / _LOG, ops)
        named = cls._scan_checkpoints(path, len(statements))
        if 0 not in named:
            raise StoreError(f"store at {path} lost its base checkpoint")

        # Rebuild checkpoints a crash lost (log record durable, rename
        # not reached), so versions behind the hole never replay more
        # than one interval.  Checkpoints are loaded lazily — only when
        # a rebuild (or the final current-state replay) needs a base —
        # so a routine reopen costs one checkpoint load, not all of
        # them (checkpoint 0, when it is that one, stays held as version
        # 0); content corruption is likewise handled lazily, by
        # :meth:`as_of`'s fallback-and-reheal.
        grid = range(interval, len(statements) + 1, interval)
        checkpoint_versions = sorted({0} | {v for v in grid if v in named})
        store = cls(
            path,
            checkpoint_interval=interval,
            statements=statements,
            current=None,  # type: ignore[arg-type]  # set below
            checkpoint_versions=checkpoint_versions,
            sync=sync,
            ops=ops,
        )
        try:
            at = None
            state = None
            for target in [v for v in grid if v not in named]:
                if at is None or store._nearest_checkpoint(target) > at:
                    at, state = store._load_base(target)
                for stmt in statements[at:target]:
                    state = stmt.apply(state)
                at = target
                store._write_checkpoint(target, state)
            if at is None or store._checkpoint_versions[-1] > at:
                at, state = store._load_base(len(statements))
            for stmt in statements[at:]:
                state = stmt.apply(state)
            store._current = state
        except BaseException:
            store.close()
            raise
        return store

    def close(self) -> None:
        if not self._closed:
            try:
                self._log_fh.flush()
                if self._sync:
                    self._ops.fsync(self._log_fh)
            except OSError:
                pass  # closing a store on a failed disk must not raise
            finally:
                self._log_fh.close()
                self._closed = True

    def __enter__(self) -> "HistoryStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- recovery helpers ----------------------------------------------------
    @staticmethod
    def _recover_log(
        log_path: pathlib.Path, ops: FileOps = REAL_OPS
    ) -> list[Statement]:
        """Parse the statement log, truncating a partial/corrupt tail.

        Every record must be one complete, newline-terminated JSON line;
        the first violation (a crash mid-append, a torn write) ends the
        log there, and the file is truncated back to the last good
        record so subsequent appends extend a clean prefix.
        """
        statements: list[Statement] = []
        good_end = 0
        try:
            with ops.open(log_path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            # e.g. a crash in create() between the META write and the
            # log touch: surface as StoreError so callers (the service's
            # startup skip logic) can treat it as one bad store, not an
            # internal failure.
            raise StoreError(
                f"store has no readable statement log: {exc}"
            ) from None
        offset = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline == -1:
                break  # partial trailing line: not durable
            line = raw[offset:newline]
            try:
                record = json.loads(line.decode("utf-8"))
                stmt = decode_statement(record["stmt"])
            except (json.JSONDecodeError, UnicodeDecodeError, CodecError,
                    KeyError, TypeError):
                break  # corrupt record: everything after it is suspect
            statements.append(stmt)
            good_end = newline + 1
            offset = newline + 1
        if good_end < len(raw):
            with ops.open(log_path, "r+b") as fh:
                ops.truncate(fh, good_end)
        return statements

    @staticmethod
    def _scan_checkpoints(path: pathlib.Path, length: int) -> set[int]:
        """Checkpoint versions present on disk, by name only: parseable
        file name, within the recovered log (a checkpoint deeper than
        the log is stale — it described statements the truncated tail
        lost).  Content validation happens in ``open``'s single
        ascending pass, which loads each checkpoint exactly once and
        rebuilds corrupt ones from the log."""
        versions: set[int] = set()
        for entry in sorted((path / _CHECKPOINT_DIR).glob("ckpt-*.json")):
            try:
                version = int(entry.stem.split("-", 1)[1])
            except (IndexError, ValueError):
                continue
            if version > length:
                entry.unlink(missing_ok=True)
                continue
            versions.add(version)
        return versions

    # -- appending -----------------------------------------------------------
    def append(
        self, stmt: Statement, *, state: Database | None = None
    ) -> Database:
        """Durably append one statement and return the new current state.

        The log record is written, flushed, and (with ``sync``) fsynced
        *before* the in-memory state advances, so a failure between the
        two leaves the store recoverable to a consistent prefix either
        way.  A transient ``OSError`` rolls the log back to its
        pre-append length and raises a retryable :class:`StoreError`;
        if the roll-back itself fails the store is marked failed and
        every later operation raises (reopen to recover).

        ``state`` optionally supplies the caller-certified result of
        ``stmt.apply(current)`` — callers that already validated the
        statement (the service pre-validates whole batches) skip the
        second apply.  Passing a wrong state corrupts the version chain;
        only pass what was computed from :attr:`current`.
        """
        self._check_open()
        # validate before logging (unless the caller already applied it)
        new_state = state if state is not None else stmt.apply(self._current)
        record = {"i": len(self._statements) + 1,
                  "stmt": encode_statement(stmt)}
        data = (json.dumps(record) + "\n").encode("utf-8")
        try:
            self._ops.write(self._log_fh, data)
            self._ops.flush(self._log_fh)
            if self._sync:
                self._ops.fsync(self._log_fh)
        except OSError as exc:
            self._rollback_log(exc)
            raise StoreError(
                f"append failed and was rolled back: {exc}", retryable=True
            ) from None
        self._statements.append(stmt)
        self._current = new_state
        version = len(self._statements)
        if version % self._interval == 0:
            try:
                self._write_checkpoint(version, new_state)
            except OSError:
                # The record is durable; the checkpoint is an
                # optimization that open()/as_of() rebuild on demand.
                pass
        return new_state

    def _rollback_log(self, cause: OSError) -> None:
        """Truncate the log back to its last durable record after a
        failed append write, reopening the handle to drop any buffered
        partial data.  Failure to roll back marks the store failed."""
        expected = None
        try:
            self._log_fh.close()
        except OSError:
            pass
        try:
            # Re-derive the durable end: everything up to the last
            # complete record of the first len(self._statements) lines.
            with self._ops.open(self._path / _LOG, "rb") as fh:
                raw = fh.read()
            end = 0
            for _ in range(len(self._statements)):
                newline = raw.find(b"\n", end)
                if newline == -1:
                    break
                end = newline + 1
            expected = end
            with self._ops.open(self._path / _LOG, "r+b") as fh:
                self._ops.truncate(fh, expected)
            self._log_fh = self._ops.open(self._path / _LOG, "ab")
        except OSError as exc:
            self._failed = (
                f"log roll-back after failed append also failed "
                f"(append: {cause}; roll-back: {exc}); reopen the store"
            )
            self._closed = True

    def append_history(self, history: History) -> Database:
        """Append every statement of ``history`` in order."""
        for stmt in history:
            self.append(stmt)
        return self._current

    def _write_checkpoint(self, version: int, db: Database) -> None:
        target = self._path / _CHECKPOINT_DIR / _checkpoint_name(version)
        _atomic_write(
            target,
            (json.dumps(encode_database(db)) + "\n").encode("utf-8"),
            sync=self._sync,
            ops=self._ops,
        )
        if version not in self._checkpoint_versions:
            self._checkpoint_versions.append(version)
            self._checkpoint_versions.sort()

    # -- access --------------------------------------------------------------
    @property
    def path(self) -> pathlib.Path:
        return self._path

    @property
    def checkpoint_interval(self) -> int:
        return self._interval

    @property
    def sync(self) -> bool:
        """Whether appends fsync the log and checkpoint renames fsync
        the directory (power-loss durability, not just crash safety)."""
        return self._sync

    @property
    def current(self) -> Database:
        """The latest state ``H(D)``."""
        return self._current

    @property
    def version_count(self) -> int:
        """Number of versions, ``len(history) + 1``."""
        return len(self._statements) + 1

    def __len__(self) -> int:
        return len(self._statements)

    def history(self) -> History:
        return History(tuple(self._statements))

    def checkpoint_versions(self) -> tuple[int, ...]:
        return tuple(self._checkpoint_versions)

    def replay_cost(self, version: int) -> int:
        """Statements :meth:`as_of` replays for ``version`` — by the
        checkpoint policy always ``< checkpoint_interval`` (and 0 when
        the version is the current state or a checkpoint; version 0
        costs nothing at all, not even a read: it is held)."""
        self._check_version(version)
        if version == len(self._statements):
            return 0
        return version - self._nearest_checkpoint(version)

    def as_of(self, version: int) -> Database:
        """Reconstruct the state after the first ``version`` statements.

        Loads the nearest checkpoint at or below ``version`` and replays
        the ≤ ``checkpoint_interval`` statements between the two; the
        current state and version 0 are held, so they cost nothing and
        come back as the same object every time.  A
        checkpoint whose content has rotted is discarded, the replay
        falls back to the next one below, and every checkpoint-grid
        version the longer replay crosses is re-written — one corrupt
        snapshot costs one longer read, never a failed one.
        """
        self._check_version(version)
        if version == len(self._statements):
            return self._current
        base, state = self._load_base(version)
        for index in range(base, version):
            state = self._statements[index].apply(state)
            reached = index + 1
            if (
                reached % self._interval == 0
                and reached not in self._checkpoint_versions
            ):
                self._write_checkpoint(reached, state)
        return state

    def _load_base(self, version: int) -> tuple[int, Database]:
        """The deepest loadable checkpoint at or below ``version``.

        Corrupt checkpoints are deleted and dropped from the index, and
        the search falls back to the next one below.  Only version 0 is
        irreplaceable: nothing earlier exists to rebuild it from.
        """
        while True:
            base = self._nearest_checkpoint(version)
            if base == 0:
                return 0, self.initial()
            try:
                return base, _load_checkpoint(self._path, base)
            except StoreError:
                self._checkpoint_versions.remove(base)
                (
                    self._path / _CHECKPOINT_DIR / _checkpoint_name(base)
                ).unlink(missing_ok=True)

    def initial(self) -> Database:
        """Version 0, the pre-history state — always the same object:
        the database :meth:`create` was given, or checkpoint 0 decoded
        the first time it is needed after :meth:`open`."""
        if self._initial is None:
            try:
                self._initial = _load_checkpoint(self._path, 0)
            except StoreError as exc:
                raise StoreError(
                    f"store at {self._path} lost its base checkpoint: {exc}"
                ) from None
        return self._initial

    def versions(self) -> Iterator[tuple[int, Database]]:
        """Lazily iterate ``(version, state)`` pairs oldest-first, one
        statement apply per step (no checkpoint reloads)."""
        state = self.initial()
        yield 0, state
        for index, stmt in enumerate(self._statements, start=1):
            state = stmt.apply(state)
            yield index, state

    # -- internals -----------------------------------------------------------
    def _nearest_checkpoint(self, version: int) -> int:
        return nearest_checkpoint(self._checkpoint_versions, version)

    def _check_version(self, version: int) -> None:
        if not 0 <= version <= len(self._statements):
            raise StoreError(
                f"version {version} out of range 0..{len(self._statements)}"
            )

    def _check_open(self) -> None:
        if self._failed is not None:
            raise StoreError(f"store failed: {self._failed}")
        if self._closed:
            raise StoreError("store is closed")


def _load_checkpoint(path: pathlib.Path, version: int) -> Database:
    target = path / _CHECKPOINT_DIR / _checkpoint_name(version)
    try:
        payload = json.loads(target.read_text(encoding="utf-8"))
    except OSError as exc:
        raise StoreError(f"missing checkpoint {version}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise StoreError(f"corrupt checkpoint {version}: {exc}") from None
    try:
        db = decode_database(payload)
    except CodecError as exc:
        # Valid JSON, invalid payload: still a corrupt checkpoint, and
        # it must enter the same StoreError fallback-and-reheal path.
        raise StoreError(f"corrupt checkpoint {version}: {exc}") from None
    if not isinstance(db, Database):
        raise StoreError(
            f"checkpoint {version} is not a set-semantics snapshot"
        )
    return db


def _atomic_write(
    target: pathlib.Path,
    data: bytes,
    *,
    sync: bool = False,
    ops: FileOps = REAL_OPS,
) -> None:
    """Write via temp file + rename so the target is whole or absent.

    With ``sync``, the temp file is fsynced before the rename (so the
    renamed-in content is durable, not just the directory entry) and the
    parent directory is fsynced after (so the rename itself survives
    power loss).
    """
    tmp = target.with_suffix(target.suffix + ".tmp")
    fh = ops.open(tmp, "wb")
    try:
        ops.write(fh, data)
        ops.flush(fh)
        if sync:
            ops.fsync(fh)
    finally:
        fh.close()
    ops.replace(tmp, target)
    if sync:
        ops.fsync_dir(target.parent)
