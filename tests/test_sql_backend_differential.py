"""Three-way differential fuzz: interpreter == compiled == sqlite.

The machine-generated half of the middleware story: seeded random
schemas, databases, plans, histories and what-if modifications are run
through all three execution backends (``"vector"`` is another name for
``"compiled"``, so it is not run twice), asserting identical results under
set *and* bag semantics, for query evaluation, full history replay
(final database state), and every engine method variant.

Case budget (unscaled defaults, checked by ``test_case_budget``):

* ``N_PLANS`` reused-generator plans x {set, bag}           = 2*N_PLANS
* ``N_REPLAYS`` typed histories x {set, bag} final states   = 2*N_REPLAYS
* ``N_HWQS`` what-if queries x 5 methods                    = 5*N_HWQS
* ``N_BATCHES`` batched replays x 5 methods (batch ≡ loop,
  shared-plan path) plus their modified histories x {set, bag}

comfortably over the 200-case acceptance floor.  Set
``MAHIF_FUZZ_SEED``/``MAHIF_FUZZ_SCALE`` to randomize or shrink runs
(see ``fuzz_differential``).
"""

import pytest

from fuzz_differential import (
    fresh_rng,
    random_history,
    random_hwq,
    random_hwq_batch,
    random_typed_database,
    scaled,
)
from test_exec_compiled import (
    random_database as random_untyped_database,
    random_plan,
)

from repro.core import Mahif, MahifConfig, Method
from repro.relational import (
    BACKENDS,
    BagDatabase,
    evaluate_query,
    evaluate_query_bag,
    evaluate_query_bag_interpreted,
    evaluate_query_interpreted,
    execute_history_bag,
)
from repro.relational.algebra import (
    Difference,
    Join,
    Project,
    RelScan,
    Select,
    Singleton,
    Union,
    output_schema,
)
from repro.relational.expressions import (
    EvaluationError,
    attributes_of,
    variables_of,
)
from repro.relational.schema import SchemaError

#: The non-oracle backends, compared against the interpreter.
CHECKED = ("compiled", "sqlite")
#: Every distinct executor: the oracle first.
EXECUTORS = ("interpreted", *CHECKED)

N_PLANS = 150
N_REPLAYS = 120
N_HWQS = 24
N_BATCHES = 6
BATCH_SIZE = 4


def test_case_budget():
    """The acceptance floor: ≥ 200 seeded differential cases by default."""
    assert (
        2 * N_PLANS
        + 2 * N_REPLAYS
        + len(Method) * N_HWQS
        + len(Method) * N_BATCHES * BATCH_SIZE
        >= 200
    )


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _well_scoped(op, schemas):
    """Whether every expression reads only in-scope attributes.

    The sqlite backend rejects unbound references eagerly at translation
    time while the in-process backends raise lazily per evaluated row
    (see DESIGN.md); the reused untyped plan generator produces a few
    such plans, which get their own dedicated test below.
    """

    def refs(expr):
        return attributes_of(expr) | variables_of(expr)

    def scope(node):
        return set(output_schema(node, schemas).attributes)

    try:
        if isinstance(op, (RelScan, Singleton)):
            output_schema(op, schemas)
            return True
        if isinstance(op, Select):
            return _well_scoped(op.input, schemas) and refs(
                op.condition
            ) <= scope(op.input)
        if isinstance(op, Project):
            if not _well_scoped(op.input, schemas):
                return False
            inner = scope(op.input)
            return all(refs(expr) <= inner for expr, _ in op.outputs)
        if isinstance(op, (Union, Difference)):
            return _well_scoped(op.left, schemas) and _well_scoped(
                op.right, schemas
            )
        if isinstance(op, Join):
            if not (
                _well_scoped(op.left, schemas)
                and _well_scoped(op.right, schemas)
            ):
                return False
            return refs(op.condition) <= scope(op.left) | scope(op.right)
    except SchemaError:
        # Schema-level failures raise identically on every backend and
        # are compared directly by the differential.
        return True
    return False


def _outcome(fn):
    try:
        return fn(), None
    except (SchemaError, EvaluationError) as exc:
        return None, type(exc)


# ---------------------------------------------------------------------------
# plan-level differential (reusing the untyped PR-1 generators)
# ---------------------------------------------------------------------------

class TestPlanDifferential:
    def test_random_plans_three_way_set_semantics(self):
        rng = fresh_rng(offset=1)
        compared = 0
        for trial in range(scaled(N_PLANS)):
            db = random_untyped_database(rng)
            plan = random_plan(rng)
            if not _well_scoped(
                plan, {name: db.schema_of(name) for name in db.relations}
            ):
                continue
            compared += 1
            reference, ref_err = _outcome(
                lambda: evaluate_query_interpreted(plan, db)
            )
            for backend in CHECKED:
                actual, err = _outcome(
                    lambda: evaluate_query(plan, db, backend=backend)
                )
                assert err == ref_err, (trial, backend, err, ref_err)
                if ref_err is None:
                    assert actual.schema.attributes == reference.schema.attributes
                    assert actual.tuples == reference.tuples, (trial, backend)
        assert compared >= scaled(N_PLANS) * 0.8  # the filter skips few

    def test_random_plans_three_way_bag_semantics(self):
        rng = fresh_rng(offset=2)
        for trial in range(scaled(N_PLANS)):
            db = random_untyped_database(rng, rows=8)
            plan = random_plan(rng)
            if not _well_scoped(
                plan, {name: db.schema_of(name) for name in db.relations}
            ):
                continue
            bag_db = BagDatabase.from_set_database(db)
            reference, ref_err = _outcome(
                lambda: evaluate_query_bag_interpreted(plan, bag_db)
            )
            for backend in CHECKED:
                actual, err = _outcome(
                    lambda: evaluate_query_bag(plan, bag_db, backend=backend)
                )
                assert err == ref_err, (trial, backend, err, ref_err)
                if ref_err is None:
                    assert dict(actual.multiplicities) == dict(
                        reference.multiplicities
                    ), (trial, backend)

    def test_unbound_reference_raises_eagerly_on_sqlite(self):
        """The documented timing caveat: over an *empty* input the lazy
        backends never evaluate the condition, the sqlite translation
        rejects the unknown column up front (it must — SQLite itself
        would silently read ``"missing"`` as the string 'missing')."""
        from repro.relational import Database, Relation, Schema
        from repro.relational.expressions import col, eq, FALSE

        db = Database(
            {"R": Relation.from_rows(Schema.of("a"), [(1,), (2,)])}
        )
        plan = Select(
            Select(RelScan("R"), FALSE), eq(col("missing"), 1)
        )
        assert evaluate_query_interpreted(plan, db).tuples == frozenset()
        assert evaluate_query(plan, db, backend="compiled").tuples == frozenset()
        assert evaluate_query(plan, db, backend="vector").tuples == frozenset()
        with pytest.raises(EvaluationError, match="unbound reference"):
            evaluate_query(plan, db, backend="sqlite")


# ---------------------------------------------------------------------------
# history replay differential: final database state, set and bag
# ---------------------------------------------------------------------------

class TestReplayDifferential:
    def test_history_replay_final_state_three_way(self):
        rng = fresh_rng(offset=3)
        for trial in range(scaled(N_REPLAYS)):
            db, types_by_name = random_typed_database(rng)
            history = random_history(
                rng, db, types_by_name, allow_insert_query=True
            )
            bag_db = BagDatabase.from_set_database(db)
            set_states = {}
            bag_states = {}
            for backend in EXECUTORS:
                set_states[backend] = history.execute(db, backend=backend)
                bag_states[backend] = execute_history_bag(
                    history, bag_db, backend=backend
                )
            for backend in CHECKED:
                assert set_states[backend].same_contents(
                    set_states["interpreted"]
                ), (trial, backend, "set")
                assert bag_states[backend].same_contents(
                    bag_states["interpreted"]
                ), (trial, backend, "bag")


# ---------------------------------------------------------------------------
# engine differential: every method variant, every backend
# ---------------------------------------------------------------------------

class TestEngineDifferential:
    def test_all_method_variants_agree_three_way(self):
        rng = fresh_rng(offset=4)
        for trial in range(scaled(N_HWQS)):
            query = random_hwq(rng)
            reference = None
            for backend in EXECUTORS:
                engine = Mahif(MahifConfig(backend=backend))
                for method in Method:
                    delta = engine.answer(query, method).delta
                    if reference is None:
                        reference = delta
                    else:
                        assert delta == reference, (
                            trial,
                            backend,
                            method.value,
                        )

    def test_workload_generator_three_way(self):
        """The benchmark workload generator through all three backends."""
        from repro.workloads import WorkloadSpec, build_workload

        workload = build_workload(
            WorkloadSpec(dataset="taxi", rows=120, updates=6, seed=3)
        )
        reference = None
        for backend in EXECUTORS:
            engine = Mahif(MahifConfig(backend=backend))
            for method in Method:
                delta = engine.answer(workload.query, method).delta
                if reference is None:
                    reference = delta
                else:
                    assert delta == reference, (backend, method.value)


# ---------------------------------------------------------------------------
# batched replay differential: answer_batch ≡ sequential loop, shared plans
# ---------------------------------------------------------------------------

class TestBatchDifferential:
    def test_batched_answering_matches_sequential_three_way(self):
        """``answer_batch`` over a shared database+history (including a
        duplicated modification, so the shared-plan cache takes hits)
        must equal the sequential loop for every method and backend —
        and every backend must agree with the interpreter."""
        rng = fresh_rng(offset=7)
        for trial in range(scaled(N_BATCHES)):
            batch = random_hwq_batch(rng, size=BATCH_SIZE)
            for method in Method:
                reference = None
                for backend in EXECUTORS:
                    engine = Mahif(MahifConfig(backend=backend))
                    sequential = [
                        engine.answer(query, method).delta
                        for query in batch
                    ]
                    batched = [
                        result.delta
                        for result in engine.answer_batch(batch, method)
                    ]
                    assert batched == sequential, (
                        trial, backend, method.value,
                    )
                    if reference is None:
                        reference = batched
                    else:
                        assert batched == reference, (
                            trial, backend, method.value,
                        )

    def test_batched_answering_with_worker_pools(self):
        """The pooled paths — processes for compiled, threads for sqlite
        — replay one batch identically to the serial batch."""
        rng = fresh_rng(offset=8)
        batch = random_hwq_batch(rng, size=BATCH_SIZE)
        for backend in CHECKED:
            serial = Mahif(MahifConfig(backend=backend)).answer_batch(batch)
            pooled = Mahif(
                MahifConfig(backend=backend, batch_workers=2)
            ).answer_batch(batch)
            assert [r.delta for r in pooled] == [r.delta for r in serial], (
                backend
            )

    def test_batched_modified_histories_replay_set_and_bag(self):
        """Each batch query's ``H[M]`` replays to the same final state on
        every backend, under set and bag semantics — the batched replay
        sweep of the differential matrix."""
        rng = fresh_rng(offset=9)
        for trial in range(scaled(N_BATCHES)):
            batch = random_hwq_batch(rng, size=BATCH_SIZE)
            bag_db = BagDatabase.from_set_database(batch[0].database)
            for index, query in enumerate(batch):
                modified = query.modified_history()
                set_states = {}
                bag_states = {}
                for backend in EXECUTORS:
                    set_states[backend] = modified.execute(
                        query.database, backend=backend
                    )
                    bag_states[backend] = execute_history_bag(
                        modified, bag_db, backend=backend
                    )
                for backend in CHECKED:
                    assert set_states[backend].same_contents(
                        set_states["interpreted"]
                    ), (trial, index, backend, "set")
                    assert bag_states[backend].same_contents(
                        bag_states["interpreted"]
                    ), (trial, index, backend, "bag")


# ---------------------------------------------------------------------------
# CLI end-to-end with --backend sqlite
# ---------------------------------------------------------------------------

class TestCliSqlite:
    def test_whatif_backend_sqlite_matches_compiled(self, tmp_path, capsys):
        from repro.cli import main

        data = tmp_path / "tables"
        data.mkdir()
        (data / "Orders.csv").write_text(
            "id,price,fee\n1,70,5\n2,40,5\n3,90,0\n"
        )
        history = tmp_path / "history.sql"
        history.write_text(
            "UPDATE Orders SET fee = 10 WHERE price >= 50;\n"
            "DELETE FROM Orders WHERE fee >= 10;\n"
        )
        outputs = {}
        for backend in BACKENDS:  # every accepted --backend name
            out = tmp_path / f"delta_{backend}.csv"
            code = main(
                [
                    "whatif",
                    "--data", str(data),
                    "--history", str(history),
                    "--replace", "1",
                    "UPDATE Orders SET fee = 0 WHERE price >= 50",
                    "--backend", backend,
                    "--out", str(out),
                    "--quiet",
                ]
            )
            assert code == 0
            outputs[backend] = out.read_text()
        assert outputs["sqlite"] == outputs["compiled"]
        assert outputs["vector"] == outputs["compiled"]
        assert outputs["interpreted"] == outputs["compiled"]
        assert outputs["sqlite"].strip()  # the delta is not empty
