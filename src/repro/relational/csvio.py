"""CSV import/export for relations and databases.

The middleware's bulk interface: load base tables from CSV files (with
light type inference: int → float → string; empty cells are NULL), save
query results and deltas back out.  Used by the command-line tool and
handy in tests/examples.
"""

from __future__ import annotations

import csv
import io
import pathlib
from typing import Any, Iterable

from .database import Database
from .relation import Relation, sort_rows
from .schema import Schema

__all__ = [
    "relation_from_csv",
    "relation_to_csv",
    "bag_from_csv",
    "bag_to_csv",
    "BAG_COUNT_COLUMN",
    "load_database_dir",
    "parse_value",
    "format_value",
]

#: Reserved header name of the multiplicity column in bag CSV files.
BAG_COUNT_COLUMN = "_count"


def parse_value(text: str) -> Any:
    """Infer a Python value from a CSV cell.

    Empty cell → NULL; ``true``/``false`` → bool; then int, float, str.
    """
    if text == "":
        return None
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def format_value(value: Any) -> str:
    """Format one cell so that ``parse_value`` round-trips it exactly.

    Floats use shortest-round-trip ``repr`` — ``%g`` truncated to 6
    significant digits, silently corrupting exported deltas (e.g.
    ``0.1234567890123`` → ``0.123457``).  ``repr`` always renders a
    float with a ``.``, an exponent, ``inf`` or ``nan``, so the output
    never re-parses as an int, and Python guarantees
    ``float(repr(x)) == x`` (sign of ``-0.0`` included).
    """
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def relation_from_csv(source: str | pathlib.Path | io.TextIOBase) -> Relation:
    """Load a relation from a CSV file (first row is the header)."""
    if isinstance(source, (str, pathlib.Path)):
        with open(source, newline="") as fh:
            return relation_from_csv(fh)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("CSV file is empty (no header row)") from None
    schema = Schema(tuple(h.strip() for h in header))
    rows = []
    for line_number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != schema.arity:
            raise ValueError(
                f"line {line_number}: expected {schema.arity} cells, "
                f"got {len(row)}"
            )
        rows.append(tuple(parse_value(cell) for cell in row))
    return Relation.from_rows(schema, rows)


def relation_to_csv(
    relation: Relation, target: str | pathlib.Path | io.TextIOBase
) -> None:
    """Write a set relation to CSV (deterministic row order).

    Rejects :class:`~repro.relational.bag.BagRelation` inputs: writing
    only the distinct rows would silently drop multiplicities — use
    :func:`bag_to_csv`, which preserves them.
    """
    from .bag import BagRelation  # local: bag imports the exec layer

    if isinstance(relation, BagRelation):
        raise TypeError(
            "relation_to_csv would silently drop bag multiplicities; "
            "use bag_to_csv for bag-semantics relations"
        )
    if isinstance(target, (str, pathlib.Path)):
        with open(target, "w", newline="") as fh:
            relation_to_csv(relation, fh)
            return
    writer = csv.writer(target)
    writer.writerow(relation.schema.attributes)
    for row in relation.sorted_rows():
        writer.writerow([format_value(v) for v in row])


def bag_to_csv(
    bag,
    target: str | pathlib.Path | io.TextIOBase,
    *,
    style: str = "count",
) -> None:
    """Write a bag relation to CSV without losing multiplicities.

    ``style="count"`` (the default) appends a :data:`BAG_COUNT_COLUMN`
    multiplicity column — compact, and :func:`bag_from_csv` recognises
    the reserved header on import.  ``style="repeat"`` writes each row
    once per multiplicity (headers stay the plain schema, so the file
    also loads as a set relation, deliberately collapsing duplicates).
    """
    if style not in ("count", "repeat"):
        raise ValueError(
            f"unknown bag CSV style {style!r}; expected 'count' or 'repeat'"
        )
    if BAG_COUNT_COLUMN in bag.schema.attributes:
        raise ValueError(
            f"schema already has a {BAG_COUNT_COLUMN!r} column; cannot "
            "add the multiplicity column"
        )
    if isinstance(target, (str, pathlib.Path)):
        with open(target, "w", newline="") as fh:
            bag_to_csv(bag, fh, style=style)
            return
    writer = csv.writer(target)
    ordered = sort_rows(bag.multiplicities)
    if style == "count":
        writer.writerow([*bag.schema.attributes, BAG_COUNT_COLUMN])
        for row in ordered:
            writer.writerow(
                [*map(format_value, row), bag.multiplicities[row]]
            )
    else:
        writer.writerow(bag.schema.attributes)
        for row in ordered:
            formatted = [format_value(v) for v in row]
            for _ in range(bag.multiplicities[row]):
                writer.writerow(formatted)


def bag_from_csv(source: str | pathlib.Path | io.TextIOBase):
    """Load a bag relation from CSV.

    A trailing :data:`BAG_COUNT_COLUMN` header marks an explicit
    multiplicity column (cells must be positive ints); otherwise every
    physical row counts once and duplicates accumulate.
    """
    from .bag import BagRelation

    if isinstance(source, (str, pathlib.Path)):
        with open(source, newline="") as fh:
            return bag_from_csv(fh)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("CSV file is empty (no header row)") from None
    header = [h.strip() for h in header]
    counted = bool(header) and header[-1] == BAG_COUNT_COLUMN
    schema = Schema(tuple(header[:-1] if counted else header))
    counts: dict[tuple[Any, ...], int] = {}
    for line_number, row in enumerate(reader, start=2):
        if not row:
            continue
        expected = schema.arity + (1 if counted else 0)
        if len(row) != expected:
            raise ValueError(
                f"line {line_number}: expected {expected} cells, "
                f"got {len(row)}"
            )
        if counted:
            try:
                count = int(row[-1])
            except ValueError:
                raise ValueError(
                    f"line {line_number}: multiplicity {row[-1]!r} is "
                    "not an integer"
                ) from None
            if count < 1:
                raise ValueError(
                    f"line {line_number}: multiplicity must be >= 1, "
                    f"got {count}"
                )
            row = row[:-1]
        else:
            count = 1
        key = tuple(parse_value(cell) for cell in row)
        counts[key] = counts.get(key, 0) + count
    return BagRelation(schema, counts)


def load_database_dir(directory: str | pathlib.Path) -> Database:
    """Load every ``*.csv`` in a directory as a relation named after the
    file stem."""
    directory = pathlib.Path(directory)
    relations = {}
    for path in sorted(directory.glob("*.csv")):
        relations[path.stem] = relation_from_csv(path)
    if not relations:
        raise ValueError(f"no CSV files found in {directory}")
    return Database(relations)
