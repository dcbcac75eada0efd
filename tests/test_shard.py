"""Unit tests for the sharded execution driver (``repro.core.shard``)."""

import pytest

from repro.core import (
    HistoricalWhatIfQuery,
    Mahif,
    MahifConfig,
    Method,
    Replace,
)
from repro.core.batch import shared_start_databases
from repro.core.data_slicing import DataSlicingConditions
from repro.core.plan import plan_reenactment
from repro.core.shard import (
    evaluate_shard_works,
    plan_relation_shards,
    routing_condition,
    shard_keep_mask,
    shardable,
)
from repro.relational import (
    Database,
    History,
    Relation,
    Schema,
)
from repro.relational.algebra import (
    Difference,
    Join,
    Project,
    RelScan,
    Select,
    Singleton,
    Union,
)
from repro.relational.expressions import (
    Attr,
    Const,
    TRUE,
    and_,
    eq,
    ge,
    le,
)
from repro.relational.partition import range_partition
from repro.relational.statements import (
    InsertQuery,
    InsertTuple,
    UpdateStatement,
)

SCHEMA = Schema(("k", "v"))


def make_db(rows=40):
    return Database(
        {"data": Relation.from_rows(SCHEMA, [(k, k % 7) for k in range(rows)])}
    )


def window_update(low, high, shift):
    return UpdateStatement(
        "data",
        {"v": Attr("v") + shift},
        and_(ge(Attr("k"), low), le(Attr("k"), high)),
    )


def window_query(db=None, *, updates=3):
    db = db or make_db()
    history = History.of(
        *(window_update(0, 5, 1 + i) for i in range(updates))
    )
    replacement = window_update(0, 5, 99)
    return HistoricalWhatIfQuery(history, db, (Replace(1, replacement),))


class TestShardable:
    def test_reenactment_shapes_are_shardable(self):
        scan = RelScan("data")
        stack = Project(
            Select(
                Union(scan, Singleton(SCHEMA, (1, 2))), eq(Attr("k"), 1)
            ),
            ((Attr("k"), "k"), (Attr("v"), "v")),
        )
        assert shardable(stack, "data")

    def test_foreign_scan_join_difference_are_not(self):
        assert not shardable(RelScan("other"), "data")
        assert not shardable(
            Join(RelScan("data"), RelScan("data"), TRUE), "data"
        )
        assert not shardable(
            Difference(RelScan("data"), RelScan("data")), "data"
        )
        assert not shardable(
            Union(RelScan("data"), RelScan("other")), "data"
        )


class TestRouting:
    def test_no_conditions_means_no_skipping(self):
        assert routing_condition(None, "data") == TRUE
        empty = DataSlicingConditions({}, {})
        assert routing_condition(empty, "data") == TRUE

    def test_disjunction_of_both_sides(self):
        conditions = DataSlicingConditions(
            {"data": eq(Attr("k"), 1)}, {"data": eq(Attr("k"), 2)}
        )
        condition = routing_condition(conditions, "data")
        parts = range_partition(make_db()["data"], 4)
        keep = shard_keep_mask(parts, condition)
        assert keep[0] is True  # keys 1 and 2 live in the first chunk
        assert keep[1:] == [False, False, False]

    def test_protect_first_overrides_skip(self):
        parts = range_partition(make_db()["data"], 4)
        condition = eq(Attr("k"), -1)  # matches nothing
        assert shard_keep_mask(parts, condition) == [False] * 4
        assert shard_keep_mask(parts, condition, protect_first=True) == [
            True, False, False, False,
        ]

    def test_erroring_predicate_is_conservative(self):
        parts = range_partition(make_db()["data"], 2)
        condition = le(Attr("k"), Const("not-a-number"))
        assert shard_keep_mask(parts, condition) == [True, True]

    def test_true_condition_keeps_everything(self):
        parts = range_partition(make_db()["data"], 3)
        assert shard_keep_mask(parts, TRUE) == [True, True, True]


def _plan(config, query, method, start_db=None):
    """The pipeline's time-travel and plan stages for one query."""
    if start_db is None:
        (start_db,) = shared_start_databases([query])
    return plan_reenactment(config, query, method, start_db)


class TestEngineSharded:
    @pytest.mark.parametrize("scheme", ["hash", "range"])
    @pytest.mark.parametrize("shards", [2, 4, 9])
    def test_sharded_answer_matches_unsharded(self, scheme, shards):
        query = window_query()
        oracle = Mahif(MahifConfig()).answer(query, Method.R_PS_DS).delta
        config = MahifConfig(
            shards=shards, shard_scheme=scheme, shard_workers=0
        )
        assert Mahif(config).answer(query, Method.R_PS_DS).delta == oracle

    def test_skip_statistics_on_clustered_workload(self):
        """Range partitioning + a narrow window: shards the modification
        provably cannot touch skip reenactment entirely."""
        config = MahifConfig(shards=4, shard_scheme="range")
        query = window_query()
        plan = _plan(config, query, Method.R)
        work = plan_relation_shards(
            "compiled", plan, "data", config.shards, config.shard_scheme
        )
        ((delta, _, _),) = evaluate_shard_works([work], None)
        assert work.sharded is True
        assert work.shard_count == 4
        assert work.skipped == 3
        assert len(work.calls) == 1
        oracle = Mahif(MahifConfig()).answer(query, Method.R).delta
        assert dict(oracle.relations) == {"data": delta}

    def test_insert_modification_survives_full_skip(self):
        """An inserted tuple arrives via a singleton, not the base rows;
        with every shard otherwise skippable the protected first shard
        must still deliver it."""
        db = make_db(rows=30)
        history = History.of(window_update(0, 5, 1))
        replacement = InsertTuple("data", (1000, 0))
        query = HistoricalWhatIfQuery(
            history, db, (Replace(1, replacement),)
        )
        oracle = Mahif(MahifConfig()).answer(query, Method.R).delta
        sharded = Mahif(MahifConfig(shards=8)).answer(query, Method.R).delta
        assert sharded == oracle
        assert (1000, 0) in sharded["data"].added

    def test_insert_select_history_falls_back_unsharded(self):
        db = Database(
            {
                "data": Relation.from_rows(SCHEMA, [(1, 2), (2, 3)]),
                "src": Relation.from_rows(SCHEMA, [(7, 8), (9, 1)]),
            }
        )
        # The insert sits *after* the modified statement, so it is part
        # of the reenacted pair (a prefix insert would be time-travelled
        # away) and the data query must scan src — unshardable.
        history = History.of(
            window_update(0, 99, 5),
            InsertQuery(
                "data", Select(RelScan("src"), ge(Attr("k"), 8))
            ),
        )
        query = HistoricalWhatIfQuery(
            history, db, (Replace(1, window_update(0, 99, 50)),)
        )
        oracle = Mahif(MahifConfig()).answer(query, Method.R).delta
        engine = Mahif(MahifConfig(shards=3))
        assert engine.answer(query, Method.R).delta == oracle
        plan = _plan(engine.config, query, Method.R)
        work = plan_relation_shards("compiled", plan, "data", 3, "range")
        assert work.sharded is False
        assert (work.shard_count, work.skipped) == (1, 0)

    @pytest.mark.parametrize("backend", ["compiled", "sqlite"])
    def test_shard_worker_pools(self, backend):
        """Processes for the in-process backends, threads for sqlite —
        pooled shard evaluation equals serial."""
        query = window_query()
        oracle = Mahif(MahifConfig(backend=backend)).answer(
            query, Method.R_PS_DS
        ).delta
        config = MahifConfig(backend=backend, shards=3, shard_workers=3)
        assert Mahif(config).answer(query, Method.R_PS_DS).delta == oracle

    def test_batch_with_shards_and_pool(self):
        db = make_db()
        base = window_query(db)
        other = HistoricalWhatIfQuery(
            base.history, db, (Replace(2, window_update(2, 4, 77)),)
        )
        queries = [base, other, base]
        expected = [
            Mahif(MahifConfig()).answer(q, Method.R_PS_DS).delta
            for q in queries
        ]
        for workers in (0, 2):
            config = MahifConfig(shards=4, batch_workers=workers)
            results = Mahif(config).answer_batch(queries, Method.R_PS_DS)
            assert [r.delta for r in results] == expected

    def test_partition_memo_reuses_shard_databases(self):
        """Batch queries over one start database must share the shard
        Database wrappers — the sqlite connection cache is keyed by
        database identity, so fresh wrappers per query would re-ingest
        every shard server-side."""
        config = MahifConfig(shards=3)
        db = make_db()
        first = window_query(db)
        second = HistoricalWhatIfQuery(
            first.history, db, (Replace(2, window_update(1, 3, 55)),)
        )
        plan_a = _plan(config, first, Method.R)
        plan_b = _plan(config, second, Method.R, plan_a.start_db)
        partitions: dict = {}
        work_a = plan_relation_shards(
            "compiled", plan_a, "data", 3, "range", partitions
        )
        work_b = plan_relation_shards(
            "compiled", plan_b, "data", 3, "range", partitions
        )
        dbs_a = {id(call[3]) for call in work_a.calls}
        dbs_b = {id(call[3]) for call in work_b.calls}
        assert dbs_a & dbs_b, "shard databases were rebuilt, not reused"

    def test_naive_method_ignores_sharding(self):
        query = window_query()
        oracle = Mahif(MahifConfig()).answer(query, Method.NAIVE).delta
        assert (
            Mahif(MahifConfig(shards=4)).answer(query, Method.NAIVE).delta
            == oracle
        )


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            MahifConfig(shards=-1)
        with pytest.raises(ValueError):
            MahifConfig(shards="many")
        with pytest.raises(ValueError):
            MahifConfig(shard_workers=-1)
        with pytest.raises(ValueError):
            MahifConfig(shard_scheme="zigzag")

    def test_auto_sentinel_accepted(self):
        from repro.core.planner import AUTO_SHARDS

        assert MahifConfig(shards="auto").shards == AUTO_SHARDS
        assert MahifConfig(shards=0).shards_auto
        assert MahifConfig(shards="auto").may_shard
        assert not MahifConfig(shards=1).may_shard
        assert MahifConfig(shards=4).may_shard

    def test_cli_flag_parses(self):
        from repro.cli import _engine_config, build_parser

        args = build_parser().parse_args(
            ["whatif", "--data", "d", "--history", "h", "--replace",
             "1", "sql", "--shards", "4"]
        )
        assert args.shards == 4
        assert _engine_config(args).shards == 4
        serve = build_parser().parse_args(
            ["serve", "--root", "r", "--shards", "2"]
        )
        assert serve.shards == 2

    def test_cli_shards_default_is_unset(self):
        """The remote path must distinguish "not given" (server default
        applies) from an explicit --shards 1 (force unsharded), so the
        flag defaults to None and the local config maps None -> 1."""
        from repro.cli import _engine_config, build_parser

        args = build_parser().parse_args(
            ["whatif", "--data", "d", "--history", "h", "--replace",
             "1", "sql"]
        )
        assert args.shards is None
        assert _engine_config(args).shards == 1
