"""A prepared conjunction: many satisfiability checks behind one prefix.

Program slicing asks one question per statement (Section 9) — is
``Φ_D ∧ Φ_defs ∧ core(u_i)`` satisfiable? — and all n questions share
``Φ_D``.  :class:`SolverSession` prepares that prefix once (simplified,
and folded into interval boxes when the presolver is on); each
:meth:`~SolverSession.check` then simplifies only its own ``core`` and
the defining conjuncts it drags in, and decides in three steps:

1. *trivial* — some piece simplified to ``FALSE``, or every piece to
   ``TRUE`` (histories frequently produce constant-foldable conditions);
2. *intervals* — :class:`repro.solver.intervals.IntervalPrefix` folds
   each disjunct of the check's own part once and meets it with each
   prefix box;
3. *milp* — whatever the boxes cannot decide is compiled (Figure 13) and
   handed to branch and bound, with the already-simplified pieces
   conjoined as they are.

This module is the one place between a caller and a verdict that calls
``simplify``: callers pass raw formulas, the presolver and the compiler
receive simplified ones.  Every failure mode (unsupported expression,
node-limit hit) maps to :data:`Feasibility.UNKNOWN`, which callers treat
as "cannot prove", keeping the overall algorithm sound.

A session is a plain local object: it holds no module state, so
concurrent engines and pool workers share nothing through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from ..obs.metrics import global_registry
from ..relational.expressions import Expr, FALSE, TRUE, and_, simplify
from .branch_bound import Feasibility, solve
from .compiler import FormulaCompiler, UnsupportedExpression
from .intervals import IntervalOutcome, IntervalPrefix

__all__ = ["SatResult", "SolverConfig", "SolverSession"]

#: Branch-and-bound nodes before a check gives up with ``UNKNOWN``.
NODE_LIMIT = 400


@dataclass(frozen=True)
class SolverConfig:
    """Tunables for the satisfiability pipeline.

    ``use_interval_presolve`` short-circuits formulas decidable by pure
    interval reasoning (most of the Section-9 dependency checks) before
    paying for MILP compilation; disable it to benchmark the raw MILP
    path.
    """

    use_interval_presolve: bool = True


@dataclass(frozen=True)
class SatResult:
    """Outcome of a satisfiability check with an optional witness.

    ``witness`` maps variable names to (decoded) values when satisfiable.
    ``model_stats`` carries the compiled model size for benchmarking (the
    paper reports MILP cost separately as "PS" time).
    """

    status: Feasibility
    witness: dict[str, Any] | None = None
    model_stats: dict[str, int] | None = None
    nodes: int = 0

    @property
    def is_sat(self) -> bool:
        return self.status is Feasibility.FEASIBLE

    @property
    def is_unsat(self) -> bool:
        return self.status is Feasibility.INFEASIBLE


#: Checks by the step that decided them (process-global, like the
#: degradation counters: slicing runs deep inside engines that do not
#: know which service owns them).
_CHECKS = global_registry().counter(
    "mahif_solver_checks_total",
    "Satisfiability checks by deciding step (trivial, intervals, milp) "
    "and outcome (sat, unsat, unknown).",
    ("decided_by", "outcome"),
)

_OUTCOME = {
    Feasibility.FEASIBLE: "sat",
    Feasibility.INFEASIBLE: "unsat",
    Feasibility.UNKNOWN: "unknown",
}


class SolverSession:
    """Satisfiability of ``prefix ∧ defining ∧ core`` for many cores.

    ``prefix`` is simplified and boxed here, once; see the module
    docstring for what each :meth:`check` still pays for.
    """

    def __init__(
        self, prefix: Expr = TRUE, config: SolverConfig | None = None
    ) -> None:
        self._config = config or SolverConfig()
        self._prefix = simplify(prefix)
        self._intervals = (
            IntervalPrefix(self._prefix)
            if self._config.use_interval_presolve
            else None
        )
        #: id(conjunct) -> (conjunct, simplified).  Symbolic execution
        #: hands every check the same conjunct objects; holding the
        #: original keeps its id from being reused.
        self._defining: dict[int, tuple[Expr, Expr]] = {}

    @property
    def intervals(self) -> IntervalPrefix | None:
        """The prepared prefix boxes (``None`` with the presolver off);
        their counts are what a ``dependency_slice`` span reports."""
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
        _CHECKS.inc(decided_by=decided_by, outcome=_OUTCOME[result.status])
        return result

    def _decide(
        self, core: Expr, defining: Iterable[Expr]
    ) -> tuple[str, SatResult]:
        pieces = [self._simplified_defining(c) for c in defining]
        pieces.append(simplify(core))
        if self._prefix == FALSE or FALSE in pieces:
            return "trivial", SatResult(Feasibility.INFEASIBLE)
        rest = and_(*(piece for piece in pieces if piece != TRUE))
        if self._prefix == TRUE and rest == TRUE:
            return "trivial", SatResult(Feasibility.FEASIBLE, {})

        if self._intervals is not None:
            outcome = self._intervals.decide(rest)
            if outcome is IntervalOutcome.SAT:
                return "intervals", SatResult(Feasibility.FEASIBLE)
            if outcome is IntervalOutcome.UNSAT:
                return "intervals", SatResult(Feasibility.INFEASIBLE)

        formula = and_(*(f for f in (self._prefix, rest) if f != TRUE))
        compiler = FormulaCompiler()
        try:
            compiler.assert_condition(formula)
        except UnsupportedExpression:
            return "milp", SatResult(Feasibility.UNKNOWN)

        solved = solve(compiler.model, node_limit=NODE_LIMIT)
        witness = None
        if solved.status is Feasibility.FEASIBLE and solved.assignment is not None:
            witness = _decode_witness(compiler, solved.assignment)
        return "milp", SatResult(
            solved.status, witness, compiler.model.stats(), solved.nodes
        )


def _decode_witness(
    compiler: FormulaCompiler, assignment: dict[str, float]
) -> dict[str, Any]:
    """Strip the compiler's variable-name prefixes and decode strings."""
    witness: dict[str, Any] = {}
    for name, value in assignment.items():
        if name.startswith("attr::") or name.startswith("sym::"):
            plain = name.split("::", 1)[1]
            decoded = None
            if abs(value - round(value)) < 1e-6:
                decoded = compiler.encoder.decode(int(round(value)))
            witness[plain] = decoded if decoded is not None else value
    return witness
