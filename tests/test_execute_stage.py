"""The answer pipeline's one execute path: a :func:`pair_task` per
(query, affected relation), in-process or over the engine's pool.

Every reenactment answer ends here, so this suite pins the pieces of
``repro.core.batch`` that turn plans into deltas:

* :func:`pair_task` — one query pair over one database, with the
  Section-10 inserted tuples unioned into their side, plain or profiled;
* :func:`_scanned_only` — the cut a call's database gets before it
  pickles into a process pool, which must keep every relation the pair
  scans (``INSERT ... SELECT`` makes a pair scan a second relation);
* :func:`_execute_stage` — one task per (query, relation), the mode it
  reports on its ``execute`` span, failures re-raised, the start
  database handed to in-process tasks as the very object planned on;
* end to end, the scenarios that once exercised the routing around this
  path — inserted tuples no base row produces, histories with
  ``INSERT ... SELECT``, pooled batches — answered on every backend.

Seeded via ``MAHIF_FUZZ_SEED``; ``MAHIF_FUZZ_SCALE`` shrinks the
randomized trials (see ``fuzz_differential``).
"""

import dataclasses
import json
import pickle
import time

import pytest

from fuzz_differential import fresh_rng, random_hwq, random_hwq_batch, scaled

from repro.core import (
    HistoricalWhatIfQuery,
    Mahif,
    MahifConfig,
    Method,
    Replace,
)
from repro.core import batch as batch_module
from repro.core.batch import _scanned_only, pair_task
from repro.core.delta import RelationDelta
from repro.obs import trace
from repro.relational import Database, History, Relation, Schema
from repro.relational.algebra import RelScan, Select, Union
from repro.relational.exec.backend import BACKENDS
from repro.relational.expressions import Attr, and_, ge, le
from repro.relational.statements import (
    InsertQuery,
    InsertTuple,
    UpdateStatement,
)

SCHEMA = Schema(("k", "v"))
REENACTING = [method for method in Method if method is not Method.NAIVE]
N_INSERT_SELECT_HWQS = 3


@pytest.fixture(autouse=True)
def _tracing_reset():
    yield
    trace.configure_tracing(None)


def make_db(rows=40):
    return Database(
        {"data": Relation.from_rows(SCHEMA, [(k, k % 7) for k in range(rows)])}
    )


def window_update(low, high, shift, relation="data"):
    return UpdateStatement(
        relation,
        {"v": Attr("v") + shift},
        and_(ge(Attr("k"), low), le(Attr("k"), high)),
    )


def window_query(db=None, *, updates=3):
    db = db or make_db()
    history = History.of(
        *(window_update(0, 5, 1 + i) for i in range(updates))
    )
    return HistoricalWhatIfQuery(
        history, db, (Replace(1, window_update(0, 5, 99)),)
    )


def two_relation_query():
    """A query whose modifications touch two relations."""
    db = Database(
        {
            "data": make_db()["data"],
            "other": Relation.from_rows(SCHEMA, [(k, 0) for k in range(9)]),
        }
    )
    history = History.of(
        window_update(0, 5, 1), window_update(2, 6, 3, relation="other")
    )
    return HistoricalWhatIfQuery(
        history,
        db,
        (
            Replace(1, window_update(0, 5, 40)),
            Replace(2, window_update(0, 3, 50, relation="other")),
        ),
    )


def insert_select_query():
    """The insert sits *after* the modified statement, so it is part of
    the reenacted pair (a prefix insert would be time-travelled away)
    and the query for ``data`` scans ``src`` too."""
    db = Database(
        {
            "data": Relation.from_rows(SCHEMA, [(1, 2), (2, 3)]),
            "src": Relation.from_rows(SCHEMA, [(7, 8), (9, 1)]),
        }
    )
    history = History.of(
        window_update(0, 99, 5),
        InsertQuery("data", Select(RelScan("src"), ge(Attr("k"), 8))),
    )
    return HistoricalWhatIfQuery(
        history, db, (Replace(1, window_update(0, 99, 50)),)
    )


def oracle(query):
    """Statement replay on the tree-walking evaluator: no reenactment,
    no slicing, no execute stage."""
    return Mahif(MahifConfig(backend="interpreted")).answer(
        query, Method.NAIVE
    ).delta


def pair(db=None):
    """``(query_h, query_m, db)``: the modified side drops ``k < 10``."""
    db = db or make_db()
    return RelScan("data"), Select(RelScan("data"), ge(Attr("k"), 10)), db


def rows(*tuples):
    return Relation.from_rows(SCHEMA, list(tuples))


# ---------------------------------------------------------------------------
# pair_task
# ---------------------------------------------------------------------------

class TestPairTask:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_delta_is_the_difference_of_the_two_sides(self, backend):
        query_h, query_m, db = pair()
        delta, seconds, profiles = pair_task(
            backend, query_h, query_m, db, None, None, False
        )
        assert delta.removed == frozenset((k, k % 7) for k in range(10))
        assert delta.added == frozenset()
        evaluate_s, delta_s = seconds
        assert evaluate_s >= 0.0 and delta_s >= 0.0
        assert profiles is None

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_an_extra_joins_its_own_side(self, backend):
        query_h, query_m, db = pair()
        plain, _, _ = pair_task(
            backend, query_h, query_m, db, None, None, False
        )
        delta, _, _ = pair_task(
            backend, query_h, query_m, db, None, rows((1000, 0)), False
        )
        assert delta.added == frozenset({(1000, 0)})
        assert delta.removed == plain.removed
        delta, _, _ = pair_task(
            backend, query_h, query_m, db, rows((1000, 0)), None, False
        )
        assert delta.removed == plain.removed | {(1000, 0)}
        assert delta.added == frozenset()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_the_same_extra_on_both_sides_cancels(self, backend):
        query_h, query_m, db = pair()
        plain, _, _ = pair_task(
            backend, query_h, query_m, db, None, None, False
        )
        extra = rows((1000, 0), (1001, 1))
        delta, _, _ = pair_task(
            backend, query_h, query_m, db, extra, extra, False
        )
        assert delta == plain

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_profiled_delta_equals_the_plain_one(self, backend):
        query_h, query_m, db = pair()
        plain, _, _ = pair_task(
            backend, query_h, query_m, db, None, rows((1000, 0)), False
        )
        delta, _, profiles = pair_task(
            backend, query_h, query_m, db, None, rows((1000, 0)), True
        )
        assert delta == plain
        assert set(profiles) == {"original", "modified"}

    def test_a_call_and_its_result_pickle(self):
        """What a process pool ships both ways."""
        query_h, query_m, db = pair()
        call = ("compiled", query_h, query_m, db, None, rows((5, 5)), False)
        shipped = pickle.loads(pickle.dumps(call))
        result = pair_task(*shipped)
        back = pickle.loads(pickle.dumps(result))
        assert back[0] == pair_task(*call)[0]
        assert isinstance(back[0], RelationDelta)


# ---------------------------------------------------------------------------
# _scanned_only
# ---------------------------------------------------------------------------

def three_relation_call(backend="compiled"):
    db = Database(
        {
            "data": make_db()["data"],
            "src": rows((100, 1), (200, 2)),
            "unread": rows((0, 0)),
        }
    )
    query_h = RelScan("data")
    query_m = Union(RelScan("data"), Select(RelScan("src"), ge(Attr("k"), 150)))
    return (backend, query_h, query_m, db, None, rows((7, 7)), False)


class TestScannedOnly:
    def test_cuts_the_database_to_the_scanned_relations(self):
        call = three_relation_call()
        cut = _scanned_only(call)
        assert set(cut[3].relations) == {"data", "src"}
        for name in ("data", "src"):
            assert cut[3][name] is call[3][name]

    def test_a_call_scanning_every_relation_is_returned_as_is(self):
        query_h, query_m, db = pair()
        call = ("compiled", query_h, query_m, db, None, None, False)
        assert _scanned_only(call) is call

    def test_keeps_everything_but_the_database(self):
        call = three_relation_call()
        cut = _scanned_only(call)
        assert cut[:3] == call[:3]
        assert cut[4:] == call[4:]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_the_cut_call_answers_the_same_delta(self, backend):
        call = three_relation_call(backend)
        whole, _, _ = pair_task(*call)
        cut, _, _ = pair_task(*_scanned_only(call))
        assert cut == whole
        assert cut.added == frozenset({(200, 2), (7, 7)})


# ---------------------------------------------------------------------------
# _execute_stage
# ---------------------------------------------------------------------------

def record_pair_tasks(monkeypatch):
    """Record every in-process :func:`pair_task` call's arguments."""
    seen = []

    def recording(*call):
        seen.append(call)
        return pair_task(*call)

    monkeypatch.setattr(batch_module, "pair_task", recording)
    return seen


def traced_spans(config, queries, *, explain=False):
    lines: list[str] = []
    trace.configure_tracing(lines.append, sample=1.0)
    with trace.start_trace("request"):
        results = Mahif(config).answer_batch(
            queries, Method.R_PS_DS, explain=explain
        )
    return list(map(json.loads, lines)), results


def execute_span(config, queries, *, explain=False):
    spans, results = traced_spans(config, queries, explain=explain)
    (span,) = [span for span in spans if span["name"] == "execute"]
    return span["attributes"], results


def relation_spans(config, queries):
    spans, _ = traced_spans(config, queries)
    return [span for span in spans if span["name"] == "relation"]


class TestExecuteStage:
    def test_one_task_per_query_and_affected_relation(self, monkeypatch):
        seen = record_pair_tasks(monkeypatch)
        queries = [two_relation_query(), window_query()]
        results = Mahif().answer_batch(queries, Method.R)
        assert len(seen) == 3
        assert [sorted(result.delta.relations) for result in results] == [
            ["data", "other"], ["data"],
        ]
        for query, result in zip(queries, results):
            assert result.delta == oracle(query)

    @pytest.mark.parametrize(
        "backend, workers, explain, mode",
        [
            ("compiled", 0, False, "serial"),
            ("compiled", 2, False, "process-pool"),
            ("sqlite", 2, False, "thread-pool"),
            ("compiled", 2, True, "profiled"),
        ],
    )
    def test_the_execute_span_names_its_mode(
        self, backend, workers, explain, mode
    ):
        queries = [window_query(), two_relation_query()]
        config = MahifConfig(backend=backend, batch_workers=workers)
        attributes, results = execute_span(config, queries, explain=explain)
        assert attributes["mode"] == mode
        assert attributes["relations"] == 3
        assert [r.delta for r in results] == [oracle(q) for q in queries]

    @pytest.mark.parametrize(
        "backend, workers",
        [("compiled", 0), ("compiled", 2), ("sqlite", 2)],
    )
    def test_every_relation_span_splits_evaluate_from_delta(
        self, backend, workers
    ):
        """Each call's ``relation`` span — attached in this process,
        whether the call ran here or in a pool — carries the two layers
        of its duration: ``evaluate_s`` and ``delta_s``."""
        queries = [window_query(), two_relation_query()]
        config = MahifConfig(backend=backend, batch_workers=workers)
        spans = relation_spans(config, queries)
        assert len(spans) == 3
        for span in spans:
            attributes = span["attributes"]
            assert attributes["evaluate_s"] >= 0.0
            assert attributes["delta_s"] >= 0.0
            assert span["duration"] == pytest.approx(
                attributes["evaluate_s"] + attributes["delta_s"]
            )

    def test_delta_s_times_the_delta_and_evaluate_s_the_pair(
        self, monkeypatch
    ):
        """Each attribute times its own layer: a delay put into
        ``RelationDelta.of_results`` lands in ``delta_s``, one put into
        the backend's ``evaluate_pair`` in ``evaluate_s``."""
        delay = 0.05
        real_of_results = RelationDelta.of_results.__func__

        def slow_delta(cls, *args, **kwargs):
            time.sleep(delay)
            return real_of_results(cls, *args, **kwargs)

        monkeypatch.setattr(
            RelationDelta, "of_results", classmethod(slow_delta)
        )
        config = MahifConfig()
        (span,) = relation_spans(config, [window_query()])
        assert span["attributes"]["delta_s"] >= delay
        monkeypatch.undo()

        real_resolve = batch_module.resolve_backend

        def slowed(name):
            backend = real_resolve(name)

            def slow_pair(*args):
                time.sleep(delay)
                return backend.evaluate_pair(*args)

            return dataclasses.replace(backend, evaluate_pair=slow_pair)

        monkeypatch.setattr(batch_module, "resolve_backend", slowed)
        (span,) = relation_spans(config, [window_query()])
        assert span["attributes"]["evaluate_s"] >= delay

    def test_a_failed_task_re_raises(self, monkeypatch):
        def failing(*call):
            raise RuntimeError("evaluation failed")

        monkeypatch.setattr(batch_module, "pair_task", failing)
        with pytest.raises(RuntimeError, match="evaluation failed"):
            Mahif().answer(window_query(), Method.R_PS_DS)

    def test_in_process_tasks_get_the_planned_database_itself(
        self, monkeypatch
    ):
        """The sqlite connection cache is keyed by database identity: a
        fresh subset wrapper per call would re-ingest every relation."""
        seen = record_pair_tasks(monkeypatch)
        query = insert_select_query()
        engine = Mahif(MahifConfig(backend="sqlite"))
        (result,) = engine.answer_batch([query], Method.R)
        assert [call[3] for call in seen] == [result.base_database]
        assert seen[0][3] is result.base_database
        assert set(seen[0][3].relations) == {"data", "src"}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_affected_relation_gets_its_delta(self, backend):
        query = two_relation_query()
        result = Mahif(MahifConfig(backend=backend)).answer(query, Method.R)
        assert sorted(result.queries_original) == ["data", "other"]
        assert result.delta == oracle(query)
        assert not result.delta["other"].is_empty()


# ---------------------------------------------------------------------------
# end to end on every backend
# ---------------------------------------------------------------------------

class TestAnswers:
    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
    def test_an_inserted_tuple_no_base_row_produces_is_answered(
        self, method
    ):
        """An inserted tuple arrives through a singleton, not the base
        rows; data slicing must not filter it out."""
        history = History.of(window_update(0, 5, 1))
        query = HistoricalWhatIfQuery(
            history, make_db(rows=30),
            (Replace(1, InsertTuple("data", (1000, 0))),),
        )
        expected = oracle(query)
        assert (1000, 0) in expected["data"].added
        for backend in BACKENDS:
            engine = Mahif(MahifConfig(backend=backend))
            assert engine.answer(query, method).delta == expected, backend

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_an_insert_select_history_is_answered(self, backend):
        query = insert_select_query()
        expected = oracle(query)
        engine = Mahif(MahifConfig(backend=backend))
        for method in Method:
            assert engine.answer(query, method).delta == expected, method

    @pytest.mark.parametrize("backend", ["compiled", "sqlite"])
    def test_a_batch_with_repeats_equals_single_answers(self, backend):
        db = make_db()
        base = window_query(db)
        other = HistoricalWhatIfQuery(
            base.history, db, (Replace(2, window_update(2, 4, 77)),)
        )
        queries = [base, other, base]
        expected = [oracle(query) for query in queries]
        for workers in (0, 2):
            config = MahifConfig(backend=backend, batch_workers=workers)
            results = Mahif(config).answer_batch(queries, Method.R_PS_DS)
            assert [r.delta for r in results] == expected, workers


# ---------------------------------------------------------------------------
# seeded differential: INSERT ... SELECT histories, pooled evaluation
# ---------------------------------------------------------------------------

def insert_select_hwqs():
    rng = fresh_rng(offset=92)
    return [
        random_hwq(rng, allow_insert_query=True)
        for _ in range(scaled(N_INSERT_SELECT_HWQS))
    ]


class TestDifferential:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
    def test_insert_select_histories(self, method, backend):
        """Histories with ``INSERT ... SELECT``: reenactment queries read
        a second relation.  Every backend equals the interpreter."""
        reference = Mahif(MahifConfig(backend="interpreted"))
        engine = Mahif(MahifConfig(backend=backend))
        for trial, query in enumerate(insert_select_hwqs()):
            assert engine.answer(query, method).delta == reference.answer(
                query, method
            ).delta, trial

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_insert_select_histories_pooled(self, backend):
        """Over a process pool each call's database is cut to what its
        pair scans; the cut must keep the ``INSERT ... SELECT`` source."""
        queries = insert_select_hwqs()
        serial = Mahif(MahifConfig(backend=backend))
        pooled = Mahif(MahifConfig(backend=backend, batch_workers=2))
        for method in (Method.R, Method.R_PS_DS):
            assert [
                r.delta for r in pooled.answer_batch(queries, method)
            ] == [
                r.delta for r in serial.answer_batch(queries, method)
            ], method

    @pytest.mark.parametrize("backend", ["compiled", "sqlite"])
    @pytest.mark.parametrize("method", REENACTING, ids=lambda m: m.value)
    def test_pooled_evaluation_matches_serial(self, method, backend):
        """Processes for compiled, threads for sqlite: scheduling changes,
        answers do not."""
        queries = random_hwq_batch(fresh_rng(offset=93), size=4)
        serial = Mahif(MahifConfig(backend=backend)).answer_batch(
            queries, method
        )
        pooled = Mahif(
            MahifConfig(backend=backend, batch_workers=2)
        ).answer_batch(queries, method)
        assert [r.delta for r in pooled] == [r.delta for r in serial]


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
