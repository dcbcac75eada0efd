"""A prepared conjunction: many satisfiability checks behind one prefix.

Program slicing asks one question per statement (Section 9) — is
``Φ_D ∧ Φ_defs ∧ core(u_i)`` satisfiable? — and all n questions share
``Φ_D``.  :class:`SolverSession` prepares that prefix once (simplified,
and folded into interval boxes); each :meth:`~SolverSession.check` then
simplifies only its own ``core`` and the defining conjuncts it drags in,
and decides in three steps:

1. *trivial* — some piece simplified to ``FALSE``, or every piece to
   ``TRUE`` (histories frequently produce constant-foldable conditions);
2. *intervals* — :class:`repro.solver.intervals.IntervalPrefix` folds
   each disjunct of the check's own part once and meets it with each
   prefix box;
3. *split* — whatever the boxes cannot decide goes to
   :func:`repro.solver.intervals.case_split`, the exact case split over
   the whole conjunction, which answers SAT with a confirmed witness.

This module is the one place between a caller and a verdict that calls
``simplify``: callers pass raw formulas, the presolver and the split
receive simplified ones.  A check the split cannot decide (an atom that
does not normalise to ``var op constant``) is
:attr:`IntervalOutcome.UNKNOWN`, which callers treat as "cannot prove",
keeping the overall algorithm sound.

A session is a plain local object: it holds no module state, so
concurrent engines and pool workers share nothing through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from ..obs.metrics import global_registry
from ..relational.expressions import Expr, FALSE, TRUE, and_, simplify
from .intervals import IntervalOutcome, IntervalPrefix, case_split

__all__ = ["SatResult", "SolverSession"]


@dataclass(frozen=True)
class SatResult:
    """Outcome of a satisfiability check with an optional witness.

    ``witness`` maps variable names to values when the case split proved
    the formula satisfiable (the interval boxes answer without one).
    """

    status: IntervalOutcome
    witness: dict[str, Any] | None = None

    @property
    def is_sat(self) -> bool:
        return self.status is IntervalOutcome.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is IntervalOutcome.UNSAT


#: Checks by the step that decided them (process-global, like the
#: degradation counters: slicing runs deep inside engines that do not
#: know which service owns them).
_CHECKS = global_registry().counter(
    "mahif_solver_checks_total",
    "Satisfiability checks by deciding step (trivial, intervals, split) "
    "and outcome (sat, unsat, unknown).",
    ("decided_by", "outcome"),
)


class SolverSession:
    """Satisfiability of ``prefix ∧ defining ∧ core`` for many cores.

    ``prefix`` is simplified and boxed here, once; see the module
    docstring for what each :meth:`check` still pays for.
    """

    def __init__(self, prefix: Expr = TRUE) -> None:
        self._prefix = simplify(prefix)
        self._intervals = IntervalPrefix(self._prefix)
        #: id(conjunct) -> (conjunct, simplified).  Symbolic execution
        #: hands every check the same conjunct objects; holding the
        #: original keeps its id from being reused.
        self._defining: dict[int, tuple[Expr, Expr]] = {}

    @property
    def intervals(self) -> IntervalPrefix:
        """The prepared prefix boxes; their counts are what a
        ``dependency_slice`` span reports."""
        return self._intervals

    def _simplified_defining(self, conjunct: Expr) -> Expr:
        entry = self._defining.get(id(conjunct))
        if entry is None:
            entry = self._defining[id(conjunct)] = (
                conjunct, simplify(conjunct)
            )
        return entry[1]

    def check(self, core: Expr, defining: Iterable[Expr] = ()) -> SatResult:
        """Check ``prefix ∧ defining ∧ core``.  Each defining conjunct is
        simplified once per session, ``core`` once per call."""
        decided_by, result = self._decide(core, defining)
        _CHECKS.inc(decided_by=decided_by, outcome=result.status.value)
        return result

    def _decide(
        self, core: Expr, defining: Iterable[Expr]
    ) -> tuple[str, SatResult]:
        pieces = [self._simplified_defining(c) for c in defining]
        pieces.append(simplify(core))
        if self._prefix == FALSE or FALSE in pieces:
            return "trivial", SatResult(IntervalOutcome.UNSAT)
        rest = and_(*(piece for piece in pieces if piece != TRUE))
        if self._prefix == TRUE and rest == TRUE:
            return "trivial", SatResult(IntervalOutcome.SAT, {})

        outcome = self._intervals.decide(rest)
        if outcome is not IntervalOutcome.UNKNOWN:
            return "intervals", SatResult(outcome)
        formula = and_(*(f for f in (self._prefix, rest) if f != TRUE))
        return "split", SatResult(*case_split(formula))
