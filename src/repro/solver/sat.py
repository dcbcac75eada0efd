"""One-shot satisfiability API.

Program slicing needs one primitive (Section 8.3.2): *is this condition
formula satisfiable?*  :func:`check_satisfiable` answers it for a single
whole formula and is exactly a :class:`repro.solver.session.SolverSession`
with an empty prefix and one check — the session simplifies the formula
(once; nothing here or downstream does so again), short-circuits the
trivial cases, tries the interval presolver and falls through to the
exact case split.  Callers that ask many questions behind a shared
prefix hold a session instead.
"""

from __future__ import annotations

from ..relational.expressions import Expr
from .session import SatResult, SolverSession

__all__ = ["SatResult", "check_satisfiable"]


def check_satisfiable(formula: Expr) -> SatResult:
    """Check whether ``formula`` has a satisfying assignment."""
    return SolverSession().check(formula)
