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
"""

from __future__ import annotations

from typing import Any, Mapping

from ..core import DeleteStatementMod, Method, Replace
from ..core.hwq import InsertStatementMod, Modification
from ..relational.parser import ParseError, parse_statement
from ..relational.relation import sort_rows

__all__ = [
    "SpecError",
    "METHODS",
    "modifications_from_spec",
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


def delta_payload(result, *, include_empty: bool = False) -> dict:
    """The per-relation ``+``/``-`` tuples of one answer as JSON."""
    return {
        relation: {
            "attributes": list(delta.schema.attributes),
            "added": [list(row) for row in sort_rows(delta.added)],
            "removed": [list(row) for row in sort_rows(delta.removed)],
        }
        for relation, delta in sorted(result.delta.relations.items())
        if include_empty or delta.added or delta.removed
    }


def result_payload(result, *, include_empty: bool = False) -> dict:
    """One JSON record for an answered what-if query.

    EXPLAIN ANALYZE answers additionally carry ``"profile"``: per
    affected relation, the per-operator time/row-count trees of both
    reenactment queries (see :class:`repro.obs.profile.OperatorProfile`,
    ``payload()`` shape).
    """
    payload = {
        "delta": delta_payload(result, include_empty=include_empty),
        "ps_seconds": result.ps_seconds,
        "exe_seconds": result.exe_seconds,
    }
    profile = getattr(result, "profile", None)
    if profile is not None:
        payload["profile"] = {
            relation: {
                side: prof.payload() for side, prof in sides.items()
            }
            for relation, sides in sorted(profile.items())
        }
    return payload
