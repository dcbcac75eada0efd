"""Brute-force finite-domain satisfiability checker.

Used in tests to cross-validate the solver: a formula is satisfiable
over given finite domains iff some assignment evaluates it to true.  This
is exponential and only suitable for the small domains used in property
tests — which is exactly its purpose.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Mapping, Sequence

from ..relational.expressions import (
    Expr,
    evaluate,
    variables_of,
    attributes_of,
)

__all__ = ["enumerate_satisfying", "is_satisfiable_bruteforce"]


def enumerate_satisfying(
    formula: Expr,
    domains: Mapping[str, Sequence[Any]],
    limit: int | None = None,
):
    """Yield assignments (name -> value) under which ``formula`` is true.

    ``domains`` must cover every :class:`Var` and :class:`Attr` referenced
    by the formula; a missing name raises ``KeyError`` eagerly.
    """
    names = sorted(variables_of(formula) | attributes_of(formula))
    for name in names:
        if name not in domains:
            raise KeyError(f"no domain given for {name!r}")
    count = 0
    spaces = [domains[name] for name in names]
    for values in itertools.product(*spaces):
        binding = dict(zip(names, values))
        if bool(evaluate(formula, binding)):
            yield binding
            count += 1
            if limit is not None and count >= limit:
                return


def is_satisfiable_bruteforce(
    formula: Expr, domains: Mapping[str, Sequence[Any]]
) -> bool:
    """True iff some assignment from the finite domains satisfies the
    formula."""
    for _ in enumerate_satisfying(formula, domains, limit=1):
        return True
    return False
