"""Values derived from an immutable object, remembered on its identity.

Relations are immutable and often unhashable by content at any useful
price (hashing 12 000 rows costs what the memoised derivation does), so
what is computed *from* one — its columnar table, its compressed
constraint Φ_D — is keyed by ``id(obj)`` and lives exactly as long as the
object: a ``weakref.finalize`` drops the entry when the object dies, and
a generation token makes that eviction a no-op if the slot has since been
cleared and refilled.  There is no capacity to choose and nothing pins
the object; a dead database frees what was derived from it at once.

Users: :mod:`repro.relational.columnar` (one table per relation / bag)
and :mod:`repro.symbolic.compress` (one Φ_D per relation, symbolic tuple
and compression config).
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import Any, Hashable

__all__ = ["IdentityMemo"]

#: One lock for every memo: entries are touched for a dict probe at a
#: time.  Re-entrant because an eviction finalizer can fire from a
#: garbage collection that an allocation *inside* the lock triggered.
_LOCK = threading.RLock()
_generation = itertools.count()


class IdentityMemo:
    """``find`` / ``remember`` values per ``(object identity, key)``.

    Values are computed by the caller, outside the lock; when two
    threads race on one slot the first ``remember`` wins and both get
    its value, so a memoised result keeps one identity of its own.
    """

    def __init__(self) -> None:
        #: id(obj) -> (generation token, {key: value})
        self._entries: dict[int, tuple[int, dict]] = {}

    def find(self, obj: Any, key: Hashable = None) -> Any:
        """The remembered value, or ``None``."""
        with _LOCK:
            entry = self._entries.get(id(obj))
            return None if entry is None else entry[1].get(key)

    def remember(self, obj: Any, key: Hashable, value: Any) -> Any:
        """Keep ``value`` for as long as ``obj`` lives; returns the value
        the slot holds afterwards."""
        ident = id(obj)
        with _LOCK:
            entry = self._entries.get(ident)
            if entry is None:
                token = next(_generation)
                entry = self._entries[ident] = (token, {})
                weakref.finalize(obj, self._evict, ident, token)
            return entry[1].setdefault(key, value)

    def _evict(self, ident: int, token: int) -> None:
        with _LOCK:
            entry = self._entries.get(ident)
            if entry is not None and entry[0] == token:
                del self._entries[ident]

    def clear(self) -> None:
        with _LOCK:
            self._entries.clear()

    def __len__(self) -> int:
        """Objects with at least one remembered value."""
        with _LOCK:
            return len(self._entries)
