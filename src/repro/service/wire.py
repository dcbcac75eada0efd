"""Wire format shared by the what-if service, its client, and the CLI.

Two payload families:

* **modification specs** — the JSON shape the CLI's ``--batch`` flag
  introduced: an object with any of ``"replace"``/``"insert_stmt"``
  (lists of ``[position, sql]`` pairs) and ``"delete_stmt"`` (a list of
  positions).  :func:`modifications_from_spec` validates and parses one
  spec into the engine's modification tuple,
* **delta payloads** — the JSON rendering of a
  :class:`~repro.core.engine.MahifResult` delta plus its timing fields.
  The service omits relations whose delta is empty (so answers are
  stable under the cache-retention rule — see DESIGN.md, "Service
  architecture"); the CLI's local ``--batch`` path keeps them for
  backward compatibility.

Both renderings of a delta take its rows in ``sort_rows`` order from
the delta: the dict (:func:`result_payload`) as row lists
(:meth:`~repro.core.delta.RelationDelta.sorted_rows`), the text
(:func:`answer_json`, the one encoder: service answers and the CLI's
local ``--batch`` lines) from the two sorted tables
:meth:`~repro.core.delta.RelationDelta.tables` returns, one piece per
row for each run of columns
(:meth:`~repro.relational.columnar.Column.json_text`) — which cells the
plan passed through read from the stored relation's remembered text.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

import numpy as np

from ..core import DeleteStatementMod, Method, Replace
from ..core.hwq import InsertStatementMod, Modification
from ..relational.columnar import ColumnarTable, run_texts
from ..relational.parser import ParseError, parse_statement

__all__ = [
    "SpecError",
    "METHODS",
    "modifications_from_spec",
    "answer_json",
    "delta_payload",
    "result_payload",
]

METHODS = {m.value: m for m in Method}


class SpecError(ValueError):
    """A malformed modification-spec payload."""


def modifications_from_spec(spec: Any) -> tuple[Modification, ...]:
    """Parse one modification spec object into modification tuples.

    Raises :class:`SpecError` with a one-line description for every
    malformed shape (wrong container types, missing SQL, non-numeric
    positions, unparseable statements, unknown keys, no modifications).
    """
    if not isinstance(spec, Mapping):
        raise SpecError("modification spec must be a JSON object")
    unknown = set(spec) - {"replace", "delete_stmt", "insert_stmt"}
    if unknown:
        raise SpecError(f"unknown keys {sorted(unknown)} in spec")
    modifications: list[Modification] = []
    try:
        for pos, sql in spec.get("replace") or []:
            modifications.append(Replace(int(pos), parse_statement(sql)))
        for pos in spec.get("delete_stmt") or []:
            modifications.append(DeleteStatementMod(int(pos)))
        for pos, sql in spec.get("insert_stmt") or []:
            modifications.append(
                InsertStatementMod(int(pos), parse_statement(sql))
            )
    except ParseError as exc:
        raise SpecError(f"unparseable statement SQL: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SpecError(
            f"malformed spec: {exc} — expected "
            '{"replace"/"insert_stmt": [[position, sql], ...], '
            '"delete_stmt": [position, ...]}'
        ) from None
    if not modifications:
        raise SpecError("spec contains no modifications")
    return tuple(modifications)


def _nonempty(result, include_empty: bool):
    """``(relation, delta)`` per relation of the answer, by name."""
    for relation, delta in sorted(result.delta.relations.items()):
        if include_empty or not delta.is_empty():
            yield relation, delta


def delta_payload(result, *, include_empty: bool = False) -> dict:
    """The per-relation ``+``/``-`` tuples of one answer as JSON."""
    payload = {}
    for relation, delta in _nonempty(result, include_empty):
        removed, added = delta.sorted_rows(list)
        payload[relation] = {
            "attributes": list(delta.schema.attributes),
            "added": added,
            "removed": removed,
        }
    return payload


def _rows_json(table: ColumnarTable, pieces: list[str]) -> None:
    """Append the pieces of ``table``'s rows as a JSON list of lists:
    each run's text interleaved with the separators in one object grid,
    so no row is ever built."""
    rows, width = table.nrows, len(table.columns)
    if not rows or not width:
        pieces.append(json.dumps([[]] * rows))
        return
    texts = run_texts(table.columns)
    grid = np.empty((rows, 2 * len(texts)), dtype=object)
    for index, text in enumerate(texts):
        grid[:, 2 * index] = text
    grid[:, 1:-1:2] = ", "
    grid[:, -1] = "], ["
    grid[-1, -1] = "]]"
    pieces.append("[[")
    pieces += grid.ravel().tolist()


def answer_json(
    result,
    head: Mapping[str, Any] | None = None,
    tail: Mapping[str, Any] | None = None,
    *,
    include_empty: bool = False,
) -> str:
    """``json.dumps({**head, **result_payload(result), **tail})``, byte
    for byte, without building the payload's rows: the delta's text is
    spelled column by column from the sorted tables and the whole is
    assembled with one ``"".join``; the small fields around it go
    through ``json.dumps``."""
    rest = {**_answer_fields(result), **(tail or {})}
    pieces = ["{"]
    if head:
        pieces += [json.dumps(dict(head))[1:-1], ", "]
    pieces.append('"delta": {')
    for index, (relation, delta) in enumerate(
        _nonempty(result, include_empty)
    ):
        removed, added = delta.tables()
        if index:
            pieces.append(", ")
        pieces += [
            json.dumps(relation), ': {"attributes": ',
            json.dumps(list(delta.schema.attributes)), ', "added": ',
        ]
        _rows_json(added, pieces)
        pieces.append(', "removed": ')
        _rows_json(removed, pieces)
        pieces.append("}")
    pieces += ["}, ", json.dumps(rest)[1:]]
    return "".join(pieces)


def _answer_fields(result) -> dict:
    """Everything of :func:`result_payload` after its ``"delta"``."""
    fields = {
        "ps_seconds": result.ps_seconds,
        "exe_seconds": result.exe_seconds,
    }
    profile = getattr(result, "profile", None)
    if profile is not None:
        fields["profile"] = {
            relation: {
                side: prof.payload() for side, prof in sides.items()
            }
            for relation, sides in sorted(profile.items())
        }
    return fields


def result_payload(result, *, include_empty: bool = False) -> dict:
    """One JSON record for an answered what-if query.

    EXPLAIN ANALYZE answers additionally carry ``"profile"``: per
    affected relation, the per-operator time/row-count trees of both
    reenactment queries (see :class:`repro.obs.profile.OperatorProfile`,
    ``payload()`` shape).
    """
    return {
        "delta": delta_payload(result, include_empty=include_empty),
        **_answer_fields(result),
    }
