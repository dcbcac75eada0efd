"""The observability layer in isolation: metrics instruments and
Prometheus rendering, span trees and sampling, EXPLAIN ANALYZE
profiling, and the engine's explain surface."""

import json
import re
import threading

import pytest

from repro import (
    Database,
    HistoricalWhatIfQuery,
    History,
    Mahif,
    MahifConfig,
    Method,
    Relation,
    Schema,
    parse_statement,
)
from repro.core import Replace
from repro.core.dependency import dependency_slice
from repro.core.hwq import align
from repro.obs import trace
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
)
from repro.obs.profile import OperatorProfile, profile_query
from repro.relational.algebra import (
    Project,
    RelScan,
    Select,
    Union,
    evaluate_query,
)
from repro.relational.exec.backend import BACKENDS
from repro.relational.expressions import and_, col, ge, le, lit, lt
from repro.relational.statements import UpdateStatement


#: One Prometheus text-format sample line: name{labels} value.
_METRIC_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r" (-?\d+(\.\d+)?([eE][+-]?\d+)?|[nN]a[nN]|[+-]?[iI]nf)$"
)


def parse_exposition(text: str) -> dict[str, float]:
    """Validate a Prometheus text scrape line by line; return the
    ``{name{labels}: value}`` samples.  Any torn or malformed line
    fails the assertion."""
    assert text.endswith("\n"), "exposition must end with a newline"
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert _METRIC_LINE.match(line), f"malformed sample line: {line!r}"
        series, value = line.rsplit(" ", 1)
        assert series not in samples, f"duplicate series: {series!r}"
        samples[series] = float(value)
    return samples


@pytest.fixture(autouse=True)
def _tracing_reset():
    yield
    trace.configure_tracing(None)


class TestCounter:
    def test_inc_value_and_labels(self):
        c = Counter("mahif_x_total", "help", ("kind",))
        c.inc(kind="a")
        c.inc(2, kind="a")
        c.inc(kind="b")
        assert c.value(kind="a") == 3
        assert c.value(kind="b") == 1
        assert c.value(kind="missing") == 0

    def test_monotonic(self):
        c = Counter("mahif_x_total", "help")
        with pytest.raises(ValueError, match="monotonic"):
            c.inc(-1)

    def test_label_mismatch_rejected(self):
        c = Counter("mahif_x_total", "help", ("kind",))
        with pytest.raises(ValueError, match="expected labels"):
            c.inc(other="a")
        with pytest.raises(ValueError, match="expected labels"):
            c.inc()

    def test_render(self):
        c = Counter("mahif_x_total", "help text", ("kind",))
        c.inc(kind="a")
        lines = c.render()
        assert lines[0] == "# HELP mahif_x_total help text"
        assert lines[1] == "# TYPE mahif_x_total counter"
        assert 'mahif_x_total{kind="a"} 1' in lines

    def test_unlabeled_renders_zero_before_first_inc(self):
        c = Counter("mahif_x_total", "help")
        assert "mahif_x_total 0" in c.render()


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("mahif_x", "help")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value() == 3

    def test_callback_reads_live_state(self):
        state = {"n": 7}
        g = Gauge("mahif_x", "help", callback=lambda: state["n"])
        assert g.value() == 7
        state["n"] = 9
        assert "mahif_x 9" in g.render()

    def test_callback_gauge_rejects_set_and_labels(self):
        g = Gauge("mahif_x", "help", callback=lambda: 1)
        with pytest.raises(ValueError, match="callback"):
            g.set(2)
        with pytest.raises(ValueError, match="labeled"):
            Gauge("mahif_y", "help", ("kind",), callback=lambda: 1)

    def test_broken_callback_renders_nan(self):
        def boom() -> float:
            raise RuntimeError("broken")

        g = Gauge("mahif_x", "help", callback=boom)
        (sample,) = [
            line for line in g.render() if not line.startswith("#")
        ]
        assert sample == "mahif_x nan"


class TestHistogram:
    def test_cumulative_buckets_sum_count(self):
        h = Histogram("mahif_x_seconds", "help", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)  # over the top bound: only +Inf
        lines = h.render()
        assert 'mahif_x_seconds_bucket{le="0.1"} 1' in lines
        assert 'mahif_x_seconds_bucket{le="1.0"} 2' in lines
        assert 'mahif_x_seconds_bucket{le="+Inf"} 3' in lines
        assert "mahif_x_seconds_count 3" in lines
        assert h.count() == 3
        assert h.sum() == pytest.approx(5.55)

    def test_timer_uses_injected_clock(self):
        ticks = iter([10.0, 10.25])
        h = Histogram(
            "mahif_x_seconds", "help", ("route",),
            buckets=(0.1, 1.0), clock=lambda: next(ticks),
        )
        with h.time(route="whatif"):
            pass
        assert h.sum(route="whatif") == pytest.approx(0.25)
        assert h.count(route="whatif") == 1


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("mahif_x_total", "help")
        b = registry.counter("mahif_x_total", "other help")
        assert a is b

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("mahif_x_total", "help")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("mahif_x_total", "help")

    def test_register_external_instrument(self):
        registry = MetricsRegistry()
        owned = Counter("mahif_shed_total", "help")
        assert registry.register(owned) is owned
        assert registry.register(owned) is owned  # idempotent
        with pytest.raises(ValueError, match="already registered"):
            registry.register(Counter("mahif_shed_total", "help"))
        registry.unregister("mahif_shed_total")
        registry.register(Counter("mahif_shed_total", "help"))

    def test_reset_zeroes_but_keeps_registration(self):
        registry = MetricsRegistry()
        counter = registry.counter("mahif_x_total", "help")
        counter.inc(5)
        registry.reset()
        assert registry.counter("mahif_x_total", "help") is counter
        assert counter.value() == 0

    def test_render_is_valid_exposition(self):
        registry = MetricsRegistry()
        registry.counter("mahif_x_total", "help", ("kind",)).inc(
            kind='we"ird\nvalue'
        )
        registry.gauge("mahif_g", "help").set(1.5)
        registry.histogram(
            "mahif_h_seconds", "help", buckets=(0.1,)
        ).observe(0.05)
        samples = parse_exposition(registry.render())
        assert samples['mahif_x_total{kind="we\\"ird\\nvalue"}'] == 1
        assert samples["mahif_g"] == 1.5
        assert samples['mahif_h_seconds_bucket{le="+Inf"}'] == 1

    def test_render_merges_without_shadowing(self):
        mine = MetricsRegistry()
        other = MetricsRegistry()
        mine.counter("mahif_shared_total", "help").inc(1)
        other.counter("mahif_shared_total", "help").inc(99)
        other.counter("mahif_only_total", "help").inc(2)
        samples = parse_exposition(mine.render(other))
        assert samples["mahif_shared_total"] == 1  # first wins
        assert samples["mahif_only_total"] == 2


class TestTracing:
    def test_span_tree_flushes_at_root_close(self):
        lines: list[str] = []
        trace.configure_tracing(lines.append, sample=1.0)
        with trace.start_trace("request", trace_id="t" * 32) as root:
            with trace.span("plan", method="R+PS+DS"):
                with trace.span("verify"):
                    pass
            assert not lines  # nothing emitted before the root closes
        spans = [json.loads(line) for line in lines]
        assert [s["name"] for s in spans] == ["request", "plan", "verify"]
        assert all(s["trace_id"] == "t" * 32 for s in spans)
        by_name = {s["name"]: s for s in spans}
        assert by_name["request"]["parent_id"] is None
        assert by_name["plan"]["parent_id"] == by_name["request"]["span_id"]
        assert by_name["verify"]["parent_id"] == by_name["plan"]["span_id"]
        assert by_name["plan"]["attributes"] == {"method": "R+PS+DS"}
        assert all(s["duration"] >= 0 for s in spans)

    def test_unsampled_trace_is_noop_and_free(self):
        lines: list[str] = []
        trace.configure_tracing(lines.append, sample=0.0)
        with trace.start_trace("request") as root:
            root.set_attribute("status", 200)
            with trace.span("plan"):
                pass
        assert not lines
        assert trace.current_span() is None

    def test_span_without_active_trace_is_noop(self):
        with trace.span("orphan") as s:
            s.add_event("ignored")
        assert trace.current_span() is None

    @pytest.mark.parametrize("unsampled_sink", [False, True])
    def test_dormant_answer_builds_no_span(
        self, monkeypatch, orders_db, paper_history, unsampled_sink
    ):
        """The dormant path's cost as a count, not a clock: with no sink
        — or a sink and a lost sampling draw — a whole answer passes
        every ``span`` / ``record_span`` / ``start_trace`` site and
        constructs no ``Span``."""
        built = []
        real_init = trace.Span.__init__

        def counting_init(self, trace_id, name, *rest):
            built.append(name)
            real_init(self, trace_id, name, *rest)

        monkeypatch.setattr(trace.Span, "__init__", counting_init)
        lines: list[str] = []
        trace.configure_tracing(
            lines.append if unsampled_sink else None, sample=0.0
        )
        with trace.start_trace("request"):
            Mahif(MahifConfig()).answer(
                _paper_query(orders_db, paper_history), Method.R_PS_DS
            )
        assert built == [] and lines == []

    def test_deterministic_sampler(self):
        lines: list[str] = []
        draws = iter([True, False])
        trace.configure_tracing(
            lines.append, sampler=lambda: next(draws)
        )
        with trace.start_trace("a"):
            pass
        with trace.start_trace("b"):
            pass
        assert [json.loads(l)["name"] for l in lines] == ["a"]

    def test_error_recorded_on_exception(self):
        lines: list[str] = []
        trace.configure_tracing(lines.append, sample=1.0)
        with pytest.raises(RuntimeError):
            with trace.start_trace("request"):
                raise RuntimeError("boom")
        (root,) = [json.loads(line) for line in lines]
        assert root["attributes"]["error"] == "RuntimeError"

    def test_use_span_bridges_threads(self):
        lines: list[str] = []
        trace.configure_tracing(lines.append, sample=1.0)
        with trace.start_trace("request") as root:
            def worker() -> None:
                with trace.use_span(root):
                    with trace.span("compute"):
                        pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        spans = {json.loads(l)["name"]: json.loads(l) for l in lines}
        assert spans["compute"]["parent_id"] == spans["request"]["span_id"]

    def test_record_span_attaches_completed_child(self):
        lines: list[str] = []
        trace.configure_tracing(lines.append, sample=1.0)
        with trace.start_trace("request"):
            trace.record_span("relation", 0.125, relation="R")
        spans = [json.loads(line) for line in lines]
        child = next(s for s in spans if s["name"] == "relation")
        assert child["duration"] == pytest.approx(0.125)
        assert child["attributes"] == {"relation": "R"}

    def test_broken_sink_never_raises(self):
        def sink(line: str) -> None:
            raise OSError("disk full")

        trace.configure_tracing(sink, sample=1.0)
        with trace.start_trace("request"):
            pass  # must not raise


def _fee_query() -> Union:
    """Union of two selections over Orders — four operator kinds."""
    cheap = Select(RelScan("Orders"), lt(col("Price"), lit(50)))
    pricey = Project(
        Select(RelScan("Orders"), ge(col("Price"), lit(50))),
        (
            (col("ID"), "ID"),
            (col("Customer"), "Customer"),
            (col("Country"), "Country"),
            (col("Price"), "Price"),
            (lit(0), "ShippingFee"),
        ),
    )
    return Union(cheap, pricey)


class TestProfileQuery:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_result_matches_plain_evaluation(self, orders_db, backend):
        op = _fee_query()
        plain = evaluate_query(op, orders_db, backend=backend)
        result, profile = profile_query(op, orders_db, backend=backend)
        assert result == plain
        assert profile.operator == "Union"
        assert profile.rows == len(plain)
        kinds = {profile.operator}
        stack = list(profile.children)
        while stack:
            node = stack.pop()
            kinds.add(node.operator)
            stack.extend(node.children)
        assert {"Union", "Select", "Project", "RelScan"} <= kinds

    def test_payload_roundtrip_and_pretty(self, orders_db):
        _, profile = profile_query(_fee_query(), orders_db)
        assert OperatorProfile.from_payload(profile.payload()) == profile
        text = profile.pretty()
        assert text.splitlines()[0].startswith("Union [rows=")
        assert "  Select" in text  # children indent
        assert "rows=" in text and "ms]" in text
        assert profile.total_seconds >= profile.seconds


def _paper_query(orders_db, paper_history) -> HistoricalWhatIfQuery:
    return HistoricalWhatIfQuery(
        paper_history,
        orders_db,
        (
            # Replace u1: zero fees only from 60 up.
            Replace(
                1,
                parse_statement(
                    "UPDATE Orders SET ShippingFee = 0 WHERE Price >= 60"
                ),
            ),
        ),
    )


class TestEngineExplain:
    @pytest.fixture
    def query(self, orders_db, paper_history):
        return _paper_query(orders_db, paper_history)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_explain_delta_matches_plain(self, query, backend):
        config = MahifConfig(backend=backend)
        plain = Mahif(config).answer(query, Method.R_PS_DS)
        explained = Mahif(config).answer(
            query, Method.R_PS_DS, explain=True
        )
        assert explained.delta.relations == plain.delta.relations
        assert plain.profile is None
        assert explained.profile is not None
        assert set(explained.profile) == {"Orders"}
        sides = explained.profile["Orders"]
        assert set(sides) == {"original", "modified"}
        for side in sides.values():
            assert isinstance(side, OperatorProfile)
            assert side.rows >= 0 and side.seconds >= 0.0

    def test_explain_is_per_call(self, query):
        # EXPLAIN is a per-call request, not engine state: one engine
        # profiles the call that asks and no other.
        engine = Mahif(MahifConfig())
        assert engine.answer(query, Method.R_PS_DS).profile is None
        explained = engine.answer(query, Method.R_PS_DS, explain=True)
        assert explained.profile is not None
        assert engine.answer(query, Method.R_PS_DS).profile is None

    def test_naive_explain_has_no_profile(self, query):
        result = Mahif(MahifConfig()).answer(
            query, Method.NAIVE, explain=True
        )
        assert result.profile is None
        assert result.delta is not None

    def test_explain_forces_serial_evaluation(self, query):
        # Pooled config + explain: the profiled path bypasses the pool,
        # and the answers still match.
        pooled = Mahif(MahifConfig(batch_workers=2))
        plain = pooled.answer_batch([query, query], Method.R_PS_DS)
        explained = pooled.answer_batch(
            [query, query], Method.R_PS_DS, explain=True
        )
        assert [r.delta for r in explained] == [r.delta for r in plain]
        assert all(r.profile is not None for r in explained)

    def test_batch_explain(self, orders_db, paper_history, query):
        engine = Mahif(MahifConfig())
        results = engine.answer_batch(
            [query, query], Method.R_PS_DS, explain=True
        )
        assert len(results) == 2
        for result in results:
            assert result.profile is not None
            assert set(result.profile) == {"Orders"}

    def test_engine_spans_under_active_trace(self, query):
        lines: list[str] = []
        trace.configure_tracing(lines.append, sample=1.0)
        with trace.start_trace("request"):
            Mahif(MahifConfig()).answer(query, Method.R_PS_DS)
        names = [json.loads(line)["name"] for line in lines]
        assert "plan" in names
        assert "execute" in names
        assert "relation" in names

    def test_optimize_span_per_tree_under_plan(self, query):
        """One ``optimize`` span per tree the plan stage optimizes, a
        child of ``plan``, carrying the rewrite's counts."""
        lines: list[str] = []
        trace.configure_tracing(lines.append, sample=1.0)
        with trace.start_trace("request"):
            Mahif(MahifConfig()).answer(query, Method.R_PS_DS)
        spans = [json.loads(line) for line in lines]
        (plan,) = [span for span in spans if span["name"] == "plan"]
        optimized = [span for span in spans if span["name"] == "optimize"]
        # both sides of every relation the database holds
        assert len(optimized) == 2 * len(query.database.relations)
        for span in optimized:
            assert span["parent_id"] == plan["span_id"]
            attributes = span["attributes"]
            assert set(attributes) == {
                "passes", "merges_tried", "merges_kept", "simplified",
                "operators_in", "operators_out",
            }
            assert attributes["passes"] >= 1
            assert attributes["merges_kept"] <= attributes["merges_tried"]
            assert 1 <= attributes["operators_out"] <= attributes["operators_in"]

    def test_dependency_slice_span_per_affected_relation(self, query):
        """One ``dependency_slice`` span per relation a modification
        targets, a child of ``plan``, carrying the slicer's counts."""
        lines: list[str] = []
        trace.configure_tracing(lines.append, sample=1.0)
        with trace.start_trace("request"):
            result = Mahif(MahifConfig()).answer(query, Method.R_PS_DS)
        spans = [json.loads(line) for line in lines]
        (plan,) = [span for span in spans if span["name"] == "plan"]
        (sliced,) = [s for s in spans if s["name"] == "dependency_slice"]
        assert sliced["parent_id"] == plan["span_id"]
        attributes = sliced["attributes"]
        assert set(attributes) == {
            "statements", "solver_calls", "kept",
            "prefix_boxes", "rest_boxes", "meets",
        }
        assert attributes["statements"] == len(query.history)
        assert attributes["solver_calls"] == result.slice_result.solver_calls
        assert attributes["kept"] == len(result.slice_result.kept_positions)
        assert 0 < attributes["meets"] <= (
            attributes["prefix_boxes"] * attributes["rest_boxes"]
        )


# -- solver outcome counters -----------------------------------------------


def series_moved(counter, before: dict) -> dict:
    """The label tuples whose value changed since ``before``, by how
    much (the global registry is shared by every test in the process)."""
    return {
        key: value - before.get(key, 0)
        for key, value in counter.series().items()
        if value != before.get(key, 0)
    }


def test_solver_checks_counter_moves_by_solver_calls():
    """``mahif_solver_checks_total{decided_by,outcome}``: one increment per
    statement checked, so an operator reads "0 case splits" off /metrics."""
    schema = Schema.of("k", "P", "F")
    database = Database(
        {"R": Relation.from_rows(schema, [(i, i, 0) for i in range(100)])}
    )

    def window(low):
        return and_(ge(col("P"), low), le(col("P"), low + 5))

    history = History.of(
        *[
            UpdateStatement("R", {"F": col("F") + 1}, window(10 * i))
            for i in range(11)
        ]
    )
    aligned = align(
        history,
        [Replace(1, UpdateStatement("R", {"F": col("F") + 1}, window(2)))],
    )
    counter = global_registry().counter(
        "mahif_solver_checks_total", "", ("decided_by", "outcome")
    )
    before = counter.series()
    result = dependency_slice(aligned, database, {"R": schema})
    moved = series_moved(counter, before)
    assert result.solver_calls == 10
    assert sum(moved.values()) == result.solver_calls
    # disjoint windows over P: the boxes decide every check, all UNSAT
    assert moved == {("intervals", "unsat"): 10}
    assert 'mahif_solver_checks_total{decided_by="intervals",outcome="unsat"}' in (
        global_registry().render()
    )


# -- version cache and Φ_D memo counters -------------------------------------


def test_version_cache_and_phi_d_memo_counters_for_three_answers():
    """``mahif_version_cache_total{outcome}`` and
    ``mahif_phi_d_memo_total{outcome}`` over one engine asked at
    positions 4, 4 and 6 of one history: replay, nothing, two
    statements — and Φ_D scanned once per version reached."""
    schema = Schema.of("k", "P", "F")
    database = Database(
        {"R": Relation.from_rows(schema, [(i, i, 0) for i in range(100)])}
    )

    def update(low, bump=1):
        return UpdateStatement(
            "R",
            {"F": col("F") + bump},
            and_(ge(col("P"), low), le(col("P"), low + 30)),
        )

    history = History.of(*[update(10 * i) for i in range(6)])
    registry = global_registry()
    versions = registry.counter("mahif_version_cache_total", "", ("outcome",))
    memo = registry.counter("mahif_phi_d_memo_total", "", ("outcome",))

    engine = Mahif()
    seen = []
    for position, bump in ((4, 7), (4, 8), (6, 9)):
        before = versions.series(), memo.series()
        result = engine.answer(
            HistoricalWhatIfQuery(
                history, database,
                (Replace(position, update(10 * position, bump)),),
            )
        )
        seen.append(
            (series_moved(versions, before[0]), series_moved(memo, before[1]))
        )
        assert result.total_seconds == pytest.approx(
            result.time_travel_seconds
            + result.ps_seconds
            + result.exe_seconds
        )
    assert seen == [
        ({("miss",): 1}, {("miss",): 1}),
        ({("hit",): 1}, {("hit",): 1}),
        ({("extended",): 1}, {("miss",): 1}),
    ]
    # an empty prefix has nothing to look up and is not counted
    before = versions.series()
    engine.answer(
        HistoricalWhatIfQuery(history, database, (Replace(1, update(5)),))
    )
    assert series_moved(versions, before) == {}
    rendered = registry.render()
    assert 'mahif_version_cache_total{outcome="extended"} ' in rendered
    assert 'mahif_phi_d_memo_total{outcome="hit"} ' in rendered


def test_columnar_memo_counter_and_the_execute_span(orders_db, paper_history):
    """``mahif_columnar_memo_total{outcome}`` and ``columnarized`` on the
    engine's ``execute`` span: the first answer scans the relation cold,
    once for both sides of the pair; the second finds the table."""
    memo = global_registry().counter(
        "mahif_columnar_memo_total", "", ("outcome",)
    )
    query = _paper_query(orders_db, paper_history)
    engine = Mahif()
    lines: list[str] = []
    trace.configure_tracing(lines.append, sample=1.0)  # reset by autouse
    seen = []
    for _ in range(2):
        before = memo.series()
        del lines[:]
        with trace.start_trace("request"):
            engine.answer(query, Method.R_PS_DS)
        (execute,) = [
            span for span in map(json.loads, lines)
            if span["name"] == "execute"
        ]
        moved = series_moved(memo, before)
        seen.append(
            (execute["attributes"]["columnarized"], moved.get(("miss",), 0))
        )
        assert moved[("hit",)] >= 1
    assert seen == [(1, 1), (0, 0)]
    assert 'mahif_columnar_memo_total{outcome="miss"} ' in (
        global_registry().render()
    )


def test_gc_hook_counts_one_collection_per_collect():
    """``mahif_gc_collections_total{generation}`` /
    ``mahif_gc_pause_seconds_total{generation}`` come from the process's
    one ``gc.callbacks`` hook: ``gc.collect(2)`` moves generation ``"2"``
    by exactly one, and a registry built later adds no second hook."""
    import gc

    from repro.obs import metrics

    registry = global_registry()
    collections = registry._metrics["mahif_gc_collections_total"]
    pauses = registry._metrics["mahif_gc_pause_seconds_total"]
    before = collections.value(generation="2")
    paused = pauses.value(generation="2")
    gc.collect(2)
    assert collections.value(generation="2") == before + 1
    assert pauses.value(generation="2") > paused

    def hooks():
        return [c for c in gc.callbacks if isinstance(c, metrics._GcHook)]

    assert len(hooks()) == 1
    metrics.MetricsRegistry()
    metrics.MetricsRegistry()
    assert len(hooks()) == 1
    rendered = registry.render()
    assert 'mahif_gc_collections_total{generation="2"} ' in rendered
    assert 'mahif_gc_pause_seconds_total{generation="0"} ' in rendered
