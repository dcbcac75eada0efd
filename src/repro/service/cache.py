"""The per-history result cache of the what-if service.

This module is the only code that knows how an answer is keyed and when
it stops being valid; :mod:`repro.service.core` looks answers up,
publishes them and reports appends, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Hashable, Iterable, Mapping

from .wire import answer_json, result_payload

__all__ = ["CachedAnswer", "ResultCache"]


class CachedAnswer:
    """The part of an answer that is the same in every response to it,
    in both renderings; the fields that vary per response —
    ``history_length``, ``cached``, ``trace_id`` — are in neither."""

    __slots__ = ("body", "_build", "_payload")

    def __init__(self, body: bytes, build: Callable[[], dict]) -> None:
        #: :attr:`payload` as UTF-8 JSON, encoded once when the answer
        #: was computed: what every HTTP response to it is spliced around.
        self.body = body
        self._build = build
        self._payload: dict | None = None

    @classmethod
    def encode(cls, result, fields: Mapping[str, Any]) -> "CachedAnswer":
        """``result``'s :func:`~repro.service.wire.result_payload`
        followed by ``fields``, as bytes now — spelled from the delta's
        sorted tables — and as a dict when it is first read.  The dict is
        built from what ``result_payload`` reads of the result, not from
        the time-travelled database and plans a
        :class:`~repro.core.engine.MahifResult` also holds."""
        read = SimpleNamespace(
            delta=result.delta,
            ps_seconds=result.ps_seconds,
            exe_seconds=result.exe_seconds,
            profile=getattr(result, "profile", None),
        )
        return cls(
            answer_json(result, tail=fields).encode("utf-8"),
            lambda: {**result_payload(read), **fields},
        )

    @property
    def payload(self) -> dict:
        """What in-process callers read, built on the first read: an
        answer that only ever goes out over HTTP builds no row lists.
        (Two first readers may race; each builds an equal dict and one
        is kept.)"""
        if self._payload is None:
            self._payload = self._build()
        return self._payload


@dataclass(frozen=True)
class _Entry:
    answer: CachedAnswer
    #: The relations whose delta is non-empty: the only ones an appended
    #: statement can access and thereby change the answer.
    delta_relations: frozenset[str]


class ResultCache:
    """Answers of one stored history, kept across appends.

    **Invariant: every entry is an answer over the history at the
    cache's current length.**  Two rules maintain it:

    * :meth:`put` refuses an answer computed at any other length, so a
      computation that raced an append cannot publish a stale answer;
    * :meth:`advance` — the history grew — drops every entry whose delta
      relations intersect the relations the appended statements access,
      and keeps the rest untouched.  Keeping them is sound because a
      relation with an empty delta holds identical content in the
      original and the hypothetical branch, so a statement that accesses
      only such relations acts identically on both and leaves the delta
      as it was (DESIGN.md, "The what-if service", has the proof
      sketch).

    An entry is keyed by the query fingerprint alone (method, backend
    and the modifications' statement share keys).

    Not thread-safe: every call is made under the owning history's lock.
    """

    def __init__(self, length: int) -> None:
        self._length = length
        self._entries: dict[Hashable, _Entry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, fingerprint: Hashable) -> CachedAnswer | None:
        """The answer cached for ``fingerprint``, if any."""
        entry = self._entries.get(fingerprint)
        return None if entry is None else entry.answer

    def put(
        self,
        fingerprint: Hashable,
        answer: CachedAnswer,
        delta_relations: Iterable[str],
        computed_at_length: int,
    ) -> bool:
        """Publish an answer; False when it was computed at another
        history length and is therefore refused."""
        if computed_at_length != self._length:
            return False
        self._entries[fingerprint] = _Entry(answer, frozenset(delta_relations))
        return True

    def advance(
        self, new_length: int, accessed_relations: Iterable[str]
    ) -> tuple[int, int]:
        """The history grew to ``new_length`` by statements accessing
        ``accessed_relations``; returns ``(dropped, retained)``."""
        self._length = new_length
        accessed = frozenset(accessed_relations)
        stale = [
            key
            for key, entry in self._entries.items()
            if entry.delta_relations & accessed
        ]
        for key in stale:
            del self._entries[key]
        return len(stale), len(self._entries)
