"""Relation schemas.

A schema is an ordered list of attribute names with optional type tags.
Set-semantics relations (Section 2 of the paper) are sets of tuples over
the universal domain; the type tags are advisory and used by the workload
generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

__all__ = ["Schema", "SchemaError", "check_union_compatible"]


class SchemaError(Exception):
    """Raised on schema violations (arity/name mismatches)."""


@dataclass(frozen=True)
class Schema:
    """An ordered relation schema ``Sch(R) = (A_1, ..., A_n)``."""

    attributes: tuple[str, ...]
    types: tuple[str, ...] = field(default=())
    #: Cached attribute->position map, built in ``__post_init__``.
    _index: dict[str, int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        attrs = tuple(self.attributes)
        object.__setattr__(self, "attributes", attrs)
        if len(set(attrs)) != len(attrs):
            raise SchemaError(f"duplicate attribute names in {attrs}")
        if self.types:
            types = tuple(self.types)
            if len(types) != len(attrs):
                raise SchemaError("types must match attributes in length")
            object.__setattr__(self, "types", types)
        else:
            object.__setattr__(self, "types", ("any",) * len(attrs))
        # Cached position map: attribute lookups and tuple<->dict
        # conversions are per-row hot paths for the interpreter backend
        # (22 call sites), so they must not rescan the attribute tuple.
        object.__setattr__(
            self, "_index", {a: i for i, a in enumerate(attrs)}
        )

    @classmethod
    def of(cls, *attributes: str, types: Iterable[str] | None = None) -> "Schema":
        """Build a schema from attribute names."""
        return cls(tuple(attributes), tuple(types) if types else ())

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[str]:
        return iter(self.attributes)

    def __contains__(self, name: str) -> bool:
        return name in self.attributes

    def index_of(self, name: str) -> int:
        """Position of attribute ``name``; raises :class:`SchemaError`."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"attribute {name!r} not in schema {self.attributes}"
            ) from None

    def type_of(self, name: str) -> str:
        return self.types[self.index_of(name)]

    def as_dict(self, values: tuple[Any, ...]) -> dict[str, Any]:
        """Zip a raw tuple into an attribute->value mapping."""
        if len(values) != self.arity:
            raise SchemaError(
                f"tuple arity {len(values)} != schema arity {self.arity}"
            )
        return dict(zip(self.attributes, values))

    def from_dict(self, binding: dict[str, Any]) -> tuple[Any, ...]:
        """Project an attribute->value mapping back into tuple order."""
        try:
            return tuple(binding[a] for a in self.attributes)
        except KeyError as exc:
            raise SchemaError(f"missing attribute {exc} in binding") from None

    def rename(self, mapping: dict[str, str]) -> "Schema":
        """Schema with attributes renamed via ``mapping`` (others kept)."""
        return Schema(
            tuple(mapping.get(a, a) for a in self.attributes), self.types
        )

    def concat(self, other: "Schema") -> "Schema":
        """Schema concatenation for joins; raises on name clashes."""
        return Schema(self.attributes + other.attributes, self.types + other.types)


def check_union_compatible(left: Schema, right: Schema, what: str) -> None:
    """Union/difference compatibility: same arity AND attribute names.

    The evaluators used to check arity only and silently keep the left
    schema, which let positionally-compatible but differently-named
    inputs slip through; every construction site in the library renames
    union sides to a common schema, so a name mismatch is a bug in the
    caller and now fails loudly.
    """
    if left.arity != right.arity:
        raise SchemaError(
            f"{what} arity mismatch: {left.arity} vs {right.arity}"
        )
    if left.attributes != right.attributes:
        raise SchemaError(
            f"{what} attribute-name mismatch: {left.attributes} vs "
            f"{right.attributes}"
        )
