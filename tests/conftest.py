"""Shared fixtures: the paper's running example and small databases."""

from __future__ import annotations

import os
import pathlib
import sys

# Fallback so the tests run even without the editable install.
_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

# The static soundness layer is on for every test run: each reenactment
# plan the engine builds is schema/type-verified and each optimizer
# rewrite certified NULL-sound (setdefault, so a run can still opt out
# with MAHIF_VERIFY_PLANS=0 to measure raw planning cost).
os.environ.setdefault("MAHIF_VERIFY_PLANS", "1")

import pytest

from repro import (
    Database,
    History,
    Relation,
    Schema,
    parse_history,
    parse_statement,
)

ORDER_SCHEMA = Schema.of("ID", "Customer", "Country", "Price", "ShippingFee")

ORDER_ROWS = [
    (11, "Susan", "UK", 20, 5),
    (12, "Alex", "UK", 50, 5),
    (13, "Jack", "US", 60, 3),
    (14, "Mark", "US", 30, 4),
]


@pytest.fixture
def orders_db() -> Database:
    """The paper's Figure 1 database."""
    return Database(
        {"Orders": Relation.from_rows(ORDER_SCHEMA, ORDER_ROWS)}
    )


@pytest.fixture
def paper_history() -> History:
    """The paper's Figure 2 history (u1, u2, u3)."""
    return History(
        tuple(
            parse_history(
                """
                UPDATE Orders SET ShippingFee = 0 WHERE Price >= 50;
                UPDATE Orders SET ShippingFee = ShippingFee + 5
                    WHERE Country = 'UK' AND Price <= 100;
                UPDATE Orders SET ShippingFee = ShippingFee - 2
                    WHERE Price <= 30 AND ShippingFee >= 10;
                """
            )
        )
    )


@pytest.fixture
def u1_prime():
    """The paper's hypothetical replacement u1' (threshold $60)."""
    return parse_statement(
        "UPDATE Orders SET ShippingFee = 0 WHERE Price >= 60;"
    )


@pytest.fixture
def checkpoint_loads(monkeypatch) -> list[int]:
    """The version of every checkpoint the history store reads and
    decodes from now on, in order — a count of disk work, not a timing."""
    from repro.store import history_store

    loads: list[int] = []
    real_load = history_store._load_checkpoint

    def load(path, version):
        loads.append(version)
        return real_load(path, version)

    monkeypatch.setattr(history_store, "_load_checkpoint", load)
    return loads
