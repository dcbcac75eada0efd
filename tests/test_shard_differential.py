"""Shard-invariance differential fuzz: sharded == unsharded, everywhere.

The sharded execution subsystem (DESIGN.md, "Sharded execution") claims
bit-identical deltas for any shard count, partition scheme, backend and
method.  This suite fuzzes that claim along every axis:

* shard counts ``SHARD_COUNTS = (1, 2, 8)`` — including more shards than
  most generated relations have rows (empty shards + skip routing),
* all 4 execution backends x all 5 engine methods, hash and range
  partitioning, serial and pooled shard evaluation,
* histories with ``INSERT ... SELECT`` (the unshardable fallback path)
  and insert-heavy modifications (singleton protection + the
  insert-collision routing relaxation),
* the batched answering path with ``shards > 1``,
* bag semantics: partitioned history replay (inserts routed to exactly
  one shard) and :func:`merge_bag_deltas` against the unsharded oracle.

Case budget (unscaled defaults, checked by ``test_case_budget``): at
least 200 generated (query, method, backend, shard-count) cases.
Seeded via ``MAHIF_FUZZ_SEED``; ``MAHIF_FUZZ_SCALE`` shrinks CI smoke
runs (see ``fuzz_differential``).
"""

import pytest

from fuzz_differential import (
    SHARD_COUNTS,
    fresh_rng,
    random_history,
    random_hwq,
    random_hwq_batch,
    random_typed_database,
    scaled,
)

from repro.core import Mahif, MahifConfig, Method
from repro.relational import (
    BACKENDS,
    BagDatabase,
    bag_delta,
    execute_history_bag,
    merge_bag_deltas,
    merge_shard_bags,
    partition_bag,
    stable_shard_of,
)
from repro.relational.statements import InsertQuery, InsertTuple

N_HWQS = 5
N_FALLBACK_HWQS = 3
N_BAG_REPLAYS = 20


def test_case_budget():
    """The acceptance floor: ≥ 200 shard-differential cases by default."""
    assert (
        (N_HWQS + N_FALLBACK_HWQS)
        * len(Method)
        * len(BACKENDS)
        * len(SHARD_COUNTS)
        >= 200
    )


def _deltas_by_config(query, method, backend, shards, scheme, workers=0):
    config = MahifConfig(
        backend=backend,
        shards=shards,
        shard_scheme=scheme,
        shard_workers=workers,
    )
    return Mahif(config).answer(query, method).delta


class TestShardInvariance:
    def test_all_methods_backends_shard_counts(self):
        """Bit-identical deltas for shards in {1, 2, 8}, 4 backends,
        5 methods; the partition scheme alternates per trial."""
        rng = fresh_rng(offset=91)
        for trial in range(scaled(N_HWQS)):
            query = random_hwq(rng)
            scheme = "hash" if trial % 2 == 0 else "range"
            for method in Method:
                oracle = _deltas_by_config(
                    query, method, "interpreted", 1, scheme
                )
                for backend in BACKENDS:
                    for shards in SHARD_COUNTS:
                        delta = _deltas_by_config(
                            query, method, backend, shards, scheme
                        )
                        assert delta == oracle, (
                            f"trial {trial}: {backend}/{method.value}/"
                            f"shards={shards}/{scheme} diverged"
                        )

    def test_insert_select_histories_use_fallback_correctly(self):
        """Histories with INSERT ... SELECT make reenactment queries
        read a second relation — unshardable, so the engine must fall
        back to one exact unsharded evaluation for them."""
        rng = fresh_rng(offset=92)
        for trial in range(scaled(N_FALLBACK_HWQS)):
            query = random_hwq(rng, allow_insert_query=True)
            for method in Method:
                oracle = _deltas_by_config(
                    query, method, "interpreted", 1, "hash"
                )
                for backend in BACKENDS:
                    for shards in SHARD_COUNTS:
                        delta = _deltas_by_config(
                            query, method, backend, shards, "hash"
                        )
                        assert delta == oracle, (
                            f"trial {trial}: fallback {backend}/"
                            f"{method.value}/shards={shards} diverged"
                        )

    def test_pooled_shard_evaluation_matches_serial(self):
        """shard_workers > 1 (process pool for compiled, thread pool
        for sqlite) changes scheduling, never answers."""
        rng = fresh_rng(offset=93)
        query = random_hwq(rng)
        for backend in ("compiled", "sqlite"):
            oracle = _deltas_by_config(
                query, Method.R_PS_DS, backend, 1, "range"
            )
            delta = _deltas_by_config(
                query, Method.R_PS_DS, backend, 2, "range", workers=2
            )
            assert delta == oracle

    def test_batched_answering_with_shards(self):
        """answer_batch with shards > 1 equals the unsharded sequential
        loop, including the shared-plan cache-hit path."""
        rng = fresh_rng(offset=94)
        queries = random_hwq_batch(rng, size=4)
        for backend in BACKENDS:
            expected = [
                Mahif(MahifConfig(backend=backend)).answer(
                    q, Method.R_PS_DS
                ).delta
                for q in queries
            ]
            for shards in (2, 8):
                config = MahifConfig(backend=backend, shards=shards)
                results = Mahif(config).answer_batch(
                    queries, Method.R_PS_DS
                )
                assert [r.delta for r in results] == expected, (
                    f"{backend}/shards={shards} batch diverged"
                )


class TestBagShardInvariance:
    """Bag semantics: partitioned replay + merged signed deltas equal
    the unsharded oracle.  Inserts are routed to exactly one shard
    (multiplicities are additive, so evaluating a constant insert per
    shard would multiply it by the shard count — the bag analogue of
    the set path's singleton protection)."""

    @staticmethod
    def _replay_sharded(history, bag_db, shards, scheme):
        names = bag_db.relation_names()
        shard_dbs = [
            BagDatabase(
                {
                    name: partition_bag(bag_db[name], shards, scheme)[s]
                    for name in names
                }
            )
            for s in range(shards)
        ]
        for stmt in history:
            if isinstance(stmt, InsertQuery):
                raise AssertionError(
                    "bag shard replay generator must not emit I_Q"
                )
            if isinstance(stmt, InsertTuple):
                target = stable_shard_of(tuple(stmt.values), shards)
                shard_dbs[target] = stmt_apply_bag(stmt, shard_dbs[target])
            else:
                shard_dbs = [
                    stmt_apply_bag(stmt, shard_db)
                    for shard_db in shard_dbs
                ]
        return shard_dbs

    def test_partitioned_replay_and_delta_merge(self):
        rng = fresh_rng(offset=95)
        for trial in range(scaled(N_BAG_REPLAYS)):
            db, types_by_name = random_typed_database(rng, rows=8)
            history = random_history(rng, db, types_by_name)
            modified = random_history(rng, db, types_by_name)
            scheme = "hash" if trial % 2 == 0 else "range"
            shards = 2 if trial % 3 else 5
            bag_db = BagDatabase.from_set_database(db)

            full_h = execute_history_bag(history, bag_db)
            full_m = execute_history_bag(modified, bag_db)
            shard_h = self._replay_sharded(history, bag_db, shards, scheme)
            shard_m = self._replay_sharded(modified, bag_db, shards, scheme)

            for name in bag_db.relation_names():
                merged = merge_shard_bags(
                    [shard_db[name] for shard_db in shard_h]
                )
                assert dict(merged.multiplicities) == dict(
                    full_h[name].multiplicities
                ), f"trial {trial}: sharded bag replay diverged on {name}"
                per_shard = [
                    bag_delta(h[name], m[name])
                    for h, m in zip(shard_h, shard_m)
                ]
                assert merge_bag_deltas(per_shard) == bag_delta(
                    full_h[name], full_m[name]
                ), f"trial {trial}: merged bag delta diverged on {name}"


def stmt_apply_bag(stmt, bag_db):
    from repro.relational import apply_statement_bag

    return apply_statement_bag(stmt, bag_db)


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
