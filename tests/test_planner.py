"""The adaptive cost-based execution planner (DESIGN.md, "Adaptive
planning").

Four claims under test:

* **Differential**: ``shards="auto"`` answers are bit-identical to
  ``shards=1`` for fuzzed histories/queries across all 4 backends × all
  5 methods, on the single and the batched answering path — the planner
  may only ever trade time, never answers.
* **Cost model**: sub-threshold inputs (every fuzz-sized query, and
  partition-dominated R+PS+DS even at scale — the PR-5 regression this
  planner exists to fix) plan ``shards=1`` via the selectivity-0 quick
  reject, while a large plain-R workload with clustered routing matches
  plans ``shards>1`` — and still answers identically.
* **Witness soundness**: the keep mask computed from sampled witnesses
  equals the exhaustive-scan mask — witnesses only short-circuit proofs
  of *keep*, never introduce a skip.
* **Visibility**: service payloads carry the planner's decision
  (``"planner"``) and report the *chosen* count in ``"shards"``, and
  auto answers share cache entries with explicit requests at the chosen
  count.
"""

import pytest

from fuzz_differential import (
    fresh_rng,
    random_hwq,
    random_hwq_batch,
    scaled,
)

from repro import (
    Database,
    HistoricalWhatIfQuery,
    Relation,
    Schema,
    parse_history,
    parse_statement,
)
from repro.core import (
    AUTO_SHARDS,
    CostModel,
    Mahif,
    MahifConfig,
    Method,
    Replace,
    estimate_relation,
    plan_execution,
)
from repro.core.batch import shared_start_databases
from repro.core.plan import plan_reenactment
from repro.core.shard import routing_condition, shard_keep_mask
from repro.relational import History, partition_relation
from repro.relational.exec.backend import BACKENDS
from repro.relational.expressions import TRUE
from repro.service import ServiceClient, WhatIfServer, WhatIfService
from repro.service.wire import SpecError, normalize_shards

N_HWQS = 3
N_BATCHES = 2


def _deltas(query, method, backend, shards):
    config = MahifConfig(backend=backend, shards=shards)
    result = Mahif(config).answer(query, method)
    return result


# -- a mid-size workload the planner actually shards -------------------------
#
# 15k rows, a history whose statements all touch k < 60 — routing
# selectivity ~0.4%, range-clustered at the low end of the key space.
# Plain R at this size clears both planner margins; R+PS+DS does not
# (partitioning alone costs more than the sliced evaluation — the exact
# shape of the PR-5 bench regression).

BIG_ROWS = 15_000


@pytest.fixture(scope="module")
def big_query():
    schema = Schema.of("k", "v")
    rows = [(key, key % 7) for key in range(BIG_ROWS)]
    db = Database({"R": Relation.from_rows(schema, rows)})
    history = History(
        tuple(
            parse_history(
                """
                UPDATE R SET v = v + 1 WHERE k < 60;
                UPDATE R SET v = v * 2 WHERE k < 40;
                UPDATE R SET v = v - 1 WHERE k < 20;
                UPDATE R SET v = v + 3 WHERE k < 50;
                UPDATE R SET v = v - 2 WHERE k < 35;
                UPDATE R SET v = v + 5 WHERE k < 45;
                UPDATE R SET v = v * 3 WHERE k < 25;
                UPDATE R SET v = v - 4 WHERE k < 55;
                """
            )
        )
    )
    modification = Replace(
        1, parse_statement("UPDATE R SET v = v + 2 WHERE k < 30")
    )
    return HistoricalWhatIfQuery(history, db, (modification,))


def _plan_of(query, method, *, backend="compiled"):
    config = MahifConfig(backend=backend, shards="auto")
    (start_db,) = shared_start_databases([query])
    return plan_reenactment(config, query, method, start_db), config


class TestAutoDifferential:
    def test_auto_matches_unsharded_all_methods_backends(self):
        """Bit-identical deltas, and a planner choice on every auto
        answer (absent on explicit counts)."""
        rng = fresh_rng(offset=170)
        for trial in range(scaled(N_HWQS)):
            query = random_hwq(rng, rows=10)
            for method in Method:
                for backend in BACKENDS:
                    auto = _deltas(query, method, backend, "auto")
                    plain = _deltas(query, method, backend, 1)
                    assert auto.delta == plain.delta, (
                        trial, method, backend
                    )
                    if method is Method.NAIVE:
                        continue  # naive never consults the planner
                    assert auto.planner_choice is not None
                    assert plain.planner_choice is None

    def test_auto_batch_matches_unsharded(self):
        rng = fresh_rng(offset=171)
        for trial in range(scaled(N_BATCHES)):
            queries = random_hwq_batch(rng, size=4, rows=10)
            for backend in BACKENDS:
                for method in (Method.R, Method.R_PS_DS):
                    auto = Mahif(
                        MahifConfig(backend=backend, shards="auto")
                    ).answer_batch(queries, method)
                    plain = Mahif(
                        MahifConfig(backend=backend, shards=1)
                    ).answer_batch(queries, method)
                    assert [r.delta for r in auto] == [
                        r.delta for r in plain
                    ], (trial, method, backend)
                    assert all(
                        r.planner_choice is not None for r in auto
                    )

    def test_auto_sharded_choice_matches_unsharded(self, big_query):
        """The case the fuzz sizes never reach: the planner commits to
        ``shards>1`` and the answer is still bit-identical."""
        auto = _deltas(big_query, Method.R, "compiled", "auto")
        plain = _deltas(big_query, Method.R, "compiled", 1)
        assert auto.planner_choice.shards > 1
        assert auto.delta == plain.delta


class TestCostModel:
    def test_sub_threshold_plans_sequential_without_sampling(self):
        """Tiny inputs must be quick-rejected from free statistics
        alone — the cheap estimates carry no sampled witnesses."""
        rng = fresh_rng(offset=172)
        query = random_hwq(rng, rows=10)
        plan, config = _plan_of(query, Method.R_PS_DS)
        choice = plan_execution(plan, config)
        assert choice.shards == 1
        assert choice.shard_workers == 0
        assert "selectivity 0" in choice.reason
        assert all(
            not estimate.witnesses
            for estimate in choice.estimates.values()
        )

    def test_large_plain_r_plans_sharded(self, big_query):
        plan, config = _plan_of(big_query, Method.R)
        choice = plan_execution(plan, config)
        assert choice.shards > 1
        assert choice.estimated_seconds < choice.baseline_seconds
        assert choice.reason.startswith("sharded")

    def test_partition_dominated_ds_plans_sequential(self, big_query):
        """The PR-5 regression shape: R+PS+DS at 15k rows — the sliced
        evaluation is cheaper than partitioning it, so the planner must
        refuse to shard."""
        plan, config = _plan_of(big_query, Method.R_PS_DS)
        choice = plan_execution(plan, config)
        assert choice.shards == 1

    def test_margins_veto_sharding(self, big_query):
        """Inflated safety margins force the sequential choice even
        where sharding would model as profitable."""
        plan, config = _plan_of(big_query, Method.R)
        strict = CostModel(min_benefit_seconds=1e9)
        assert plan_execution(
            plan, config, cost_model=strict
        ).shards == 1
        strict = CostModel(min_speedup=1e9)
        assert plan_execution(
            plan, config, cost_model=strict
        ).shards == 1

    def test_max_shards_bounds_choice(self, big_query):
        plan, config = _plan_of(big_query, Method.R)
        choice = plan_execution(plan, config, max_shards=8)
        assert 1 < choice.shards <= 8


class TestEstimatesAndWitnesses:
    def test_sampling_is_bounded(self, big_query):
        plan, _ = _plan_of(big_query, Method.R)
        estimate = estimate_relation(plan, "R", sample_limit=16)
        assert estimate.sampled <= 16
        assert estimate.cardinality == BIG_ROWS

    def test_witness_mask_equals_exhaustive_scan(self, big_query):
        """A shard holds a witness iff the scan would keep it for that
        same row, so the short-circuited mask is identical — witnesses
        can never turn a keep into a skip."""
        plan, _ = _plan_of(big_query, Method.R)
        condition = routing_condition(plan.routing, "R")
        assert condition != TRUE
        estimate = estimate_relation(plan, "R")
        assert estimate.witnesses
        parts = partition_relation(plan.start_db["R"], 8, "range")
        scanned = shard_keep_mask(parts, condition)
        witnessed = shard_keep_mask(
            parts, condition, witnesses=estimate.witnesses
        )
        assert witnessed == scanned

    def test_witness_mask_equals_scan_fuzzed(self):
        rng = fresh_rng(offset=173)
        checked = 0
        for _ in range(scaled(6)):
            query = random_hwq(rng, rows=12)
            plan, _ = _plan_of(query, Method.R)
            for relation in sorted(plan.affected):
                condition = routing_condition(plan.routing, relation)
                if condition == TRUE:
                    continue
                estimate = estimate_relation(plan, relation)
                for scheme in ("hash", "range"):
                    parts = partition_relation(
                        plan.start_db[relation], 3, scheme
                    )
                    assert shard_keep_mask(
                        parts, condition, witnesses=estimate.witnesses
                    ) == shard_keep_mask(parts, condition)
                    checked += 1
        assert checked  # the fuzz must exercise non-trivial routing


class TestNormalizeShards:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (None, None),
            ("auto", AUTO_SHARDS),
            (" AUTO ", AUTO_SHARDS),
            (0, AUTO_SHARDS),
            (4, 4),
            ("4", 4),
            (8.0, 8),
        ],
    )
    def test_accepted(self, value, expected):
        assert normalize_shards(value) == expected

    @pytest.mark.parametrize("value", [True, -1, 1.5, "many", [], "-2"])
    def test_rejected(self, value):
        with pytest.raises(SpecError):
            normalize_shards(value)


@pytest.fixture
def auto_server(tmp_path, orders_db, paper_history):
    service = WhatIfService(tmp_path / "stores", default_shards="auto")
    service.register("orders", orders_db, paper_history)
    server = WhatIfServer(service, port=0).start_background()
    yield server
    server.shutdown()


class TestServiceVisibility:
    SPEC = {
        "replace": [
            [1, "UPDATE Orders SET ShippingFee = 0 WHERE Price >= 55"]
        ]
    }

    def test_payload_carries_planner_choice(self, auto_server):
        client = ServiceClient(auto_server.url)
        answer = client.whatif("orders", self.SPEC)
        planner = answer["planner"]
        assert answer["shards"] == planner["shards"] >= 1
        assert planner["reason"]
        assert {"estimated_seconds", "baseline_seconds"} <= set(planner)

    def test_explicit_shards_have_no_planner_payload(self, auto_server):
        client = ServiceClient(auto_server.url)
        answer = client.whatif("orders", self.SPEC, shards=2)
        assert answer["shards"] == 2
        assert "planner" not in answer

    def test_auto_shares_cache_with_chosen_count(self, auto_server):
        client = ServiceClient(auto_server.url)
        first = client.whatif("orders", self.SPEC)
        assert first["cached"] is False
        second = client.whatif("orders", self.SPEC)
        assert second["cached"] is True
        explicit = client.whatif(
            "orders", self.SPEC, shards=first["shards"]
        )
        assert explicit["cached"] is True
        assert explicit["delta"] == first["delta"]

    def test_auto_string_per_request(self, auto_server):
        client = ServiceClient(auto_server.url)
        explicit = client.whatif("orders", self.SPEC, shards=1)
        auto = client.whatif("orders", self.SPEC, shards="auto")
        assert auto["delta"] == explicit["delta"]
        assert "planner" in auto

    def test_recorded_workers_are_the_pool_the_answer_ran_on(
        self, tmp_path, monkeypatch
    ):
        """The planner's worker count is not just reported: the pool the
        answer executes on is sized from it, and the payload records
        that pool's width."""
        from repro.core import engine as engine_module
        from repro.core import planner as planner_module

        # A model under which sharding and parallel dispatch are free,
        # on a box with four CPUs: the planner asks for >= 2 workers.
        monkeypatch.setattr(
            planner_module,
            "DEFAULT_COST_MODEL",
            CostModel(
                partition_row_cost=0.0,
                keep_scan_row_cost=0.0,
                merge_row_cost=0.0,
                shard_fixed_cost=0.0,
                planning_cost=0.0,
                min_benefit_seconds=0.0,
                min_speedup=1.0,
                parallel_threshold_seconds=0.0,
            ),
        )
        monkeypatch.setattr(planner_module.os, "cpu_count", lambda: 4)
        widths = []
        make_executor = engine_module.make_executor

        def spy(backend, workers):
            widths.append(workers)
            return make_executor(backend, workers)

        monkeypatch.setattr(engine_module, "make_executor", spy)

        service = WhatIfService(tmp_path / "stores", default_shards="auto")
        rows = [(key, key % 7) for key in range(2000)]
        service.register(
            "r",
            Database({"R": Relation.from_rows(Schema.of("k", "v"), rows)}),
            History(
                tuple(
                    parse_history(
                        """
                        UPDATE R SET v = v + 1 WHERE k < 600;
                        UPDATE R SET v = v * 2 WHERE k < 400;
                        """
                    )
                )
            ),
        )
        # The routing matches span several range shards, so execution
        # really has calls to overlap.
        spec = {"replace": [[1, "UPDATE R SET v = v + 2 WHERE k < 300"]]}
        (answer,) = service.answer("r", [spec], method="R")
        planned = answer["planner"]["shard_workers"]
        assert planned >= 2
        assert widths == [planned]
        oracle = service.answer("r", [spec], method="N", shards=1)
        assert answer["delta"] == oracle[0]["delta"]
