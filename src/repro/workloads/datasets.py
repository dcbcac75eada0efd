"""Synthetic datasets standing in for the paper's evaluation data.

The paper uses 5M/50M-row samples of the Chicago taxi trips open dataset,
a TPC-C ``stock`` relation (Benchbase, SF 100) and a YCSB ``usertable``
(SF 5000).  None are available offline; these generators produce tables
with the same attributes (the subset the workloads touch), realistic
correlated value distributions, and — crucially for the experiments —
*numeric fee/quantity columns with controllable selectivity structure*,
because the paper's histories are range-predicate updates over those
columns.

All values are integers or 2-decimal floats, and every table has an
immutable integer key (see the key-preservation note in DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from ..relational.relation import Relation
from ..relational.schema import Schema

__all__ = [
    "TAXI_SCHEMA",
    "TPCC_STOCK_SCHEMA",
    "YCSB_SCHEMA",
    "taxi_trips",
    "tpcc_stock",
    "ycsb_usertable",
    "dataset_by_name",
    "DATASETS",
]

TAXI_COMPANIES = (
    "Flash Cab",
    "Taxi Affiliation Services",
    "Yellow Cab",
    "Blue Diamond",
    "City Service",
    "Sun Taxi",
    "Medallion Leasing",
    "Chicago Carriage",
)

TAXI_SCHEMA = Schema.of(
    "trip_id",
    "company",
    "pickup_area",
    "trip_seconds",
    "trip_miles",
    "fare",
    "tips",
    "tolls",
    "extras",
    "trip_total",
    types=(
        "int", "str", "int", "int", "float",
        "float", "float", "float", "float", "float",
    ),
)

TPCC_STOCK_SCHEMA = Schema.of(
    "s_i_id",
    "s_w_id",
    "s_quantity",
    "s_ytd",
    "s_order_cnt",
    "s_remote_cnt",
    types=("int", "int", "int", "int", "int", "int"),
)

YCSB_SCHEMA = Schema.of(
    "ycsb_key",
    "field0",
    "field1",
    "field2",
    "field3",
    "field4",
    types=("int", "int", "int", "int", "int", "int"),
)


def _round2(values: np.ndarray) -> np.ndarray:
    return np.round(values, 2)


def taxi_trips(n: int, seed: int = 7) -> Relation:
    """A synthetic Chicago-taxi-trips table with ``n`` rows.

    Distributions mirror the real dataset's shape: trip duration and
    distance are log-normal-ish and correlated; the fare is metered from
    them; tips concentrate around 0/15/20%; tolls and extras are sparse;
    ``trip_total`` is the exact sum of the fee components — the workloads'
    updates recompute exactly these relationships.
    """
    rng = np.random.default_rng(seed)
    trip_id = np.arange(1, n + 1)
    company = rng.choice(len(TAXI_COMPANIES), size=n)
    pickup_area = rng.integers(1, 78, size=n)
    trip_miles = _round2(np.exp(rng.normal(0.8, 0.9, size=n)).clip(0.1, 60.0))
    speed_mph = rng.normal(18.0, 5.0, size=n).clip(4.0, 45.0)
    trip_seconds = (trip_miles / speed_mph * 3600).astype(int).clip(60, 3 * 3600)
    fare = _round2(3.25 + 2.25 * trip_miles + 0.1 * (trip_seconds / 36.0))
    tip_rate = rng.choice([0.0, 0.10, 0.15, 0.20], size=n, p=[0.45, 0.2, 0.2, 0.15])
    tips = _round2(fare * tip_rate)
    tolls = _round2(
        np.where(rng.random(n) < 0.03, rng.uniform(1.0, 6.0, size=n), 0.0)
    )
    extras = _round2(
        np.where(rng.random(n) < 0.25, rng.choice([0.5, 1.0, 2.0, 4.0], size=n), 0.0)
    )
    trip_total = _round2(fare + tips + tolls + extras)

    rows = zip(
        trip_id.tolist(),
        (TAXI_COMPANIES[i] for i in company.tolist()),
        pickup_area.tolist(),
        trip_seconds.tolist(),
        trip_miles.tolist(),
        fare.tolist(),
        tips.tolist(),
        tolls.tolist(),
        extras.tolist(),
        trip_total.tolist(),
    )
    return Relation.from_rows(TAXI_SCHEMA, rows)


def tpcc_stock(n: int, seed: int = 11) -> Relation:
    """A TPC-C ``stock``-like relation with ``n`` rows.

    ``s_quantity`` is uniform 10..100 as in the spec; ``s_ytd`` and the
    order counters follow the usual post-run skew.  The paper's workloads
    issue range updates over quantity and ytd.
    """
    rng = np.random.default_rng(seed)
    items_per_warehouse = 100_000
    s_i_id = np.arange(1, n + 1) % items_per_warehouse + 1
    s_w_id = np.arange(n) // items_per_warehouse + 1
    s_quantity = rng.integers(10, 101, size=n)
    s_ytd = rng.integers(0, 1000, size=n)
    s_order_cnt = rng.integers(0, 100, size=n)
    s_remote_cnt = np.minimum(
        s_order_cnt, rng.integers(0, 20, size=n)
    )
    # make the composite key unique even past one warehouse of rows
    key = np.arange(1, n + 1)
    rows = zip(
        key.tolist(),
        s_w_id.tolist(),
        s_quantity.tolist(),
        s_ytd.tolist(),
        s_order_cnt.tolist(),
        s_remote_cnt.tolist(),
    )
    return Relation.from_rows(TPCC_STOCK_SCHEMA, rows)


def ycsb_usertable(n: int, seed: int = 13) -> Relation:
    """A YCSB ``usertable``-like relation with ``n`` rows.

    Real YCSB fields are opaque strings; the paper's workloads update them
    with key-range predicates, so numeric fields exercise the identical
    code paths.  Keys are dense and ordered — the physical key correlation
    the paper notes helps data slicing on YCSB.
    """
    rng = np.random.default_rng(seed)
    key = np.arange(1, n + 1)
    fields = rng.integers(0, 10_000, size=(n, 5))
    rows = zip(
        key.tolist(),
        *(fields[:, i].tolist() for i in range(5)),
    )
    return Relation.from_rows(YCSB_SCHEMA, rows)


#: name -> (generator, key attribute, predicate attribute, value attribute)
DATASETS = {
    "taxi": (taxi_trips, "trip_id", "fare", "trip_total"),
    "tpcc": (tpcc_stock, "s_i_id", "s_quantity", "s_ytd"),
    "ycsb": (ycsb_usertable, "ycsb_key", "ycsb_key", "field0"),
}


def dataset_by_name(name: str, n: int, seed: int = 7) -> Relation:
    """Generate a dataset by short name (``taxi``/``tpcc``/``ycsb``)."""
    try:
        generator = DATASETS[name][0]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; options: {sorted(DATASETS)}"
        ) from None
    return generator(n, seed=seed)
