"""``shards`` is deprecated: accepted where it always was, counted, ignored.

Sharded execution is gone; every answer runs unsharded.  For one release
the four places a caller could name a shard count still take one —
``MahifConfig(shards=)``, ``WhatIfService(default_shards=)``, a request
body's ``"shards"`` and ``mahif whatif --shards`` — and each must:

* answer exactly what the same question answers with ``shards`` absent,
* bump ``mahif_deprecated_input_total{input="shards"}`` exactly once per
  construction or request that named it, and
* keep rejecting what it rejected, with the same exception class and
  message (``MahifConfig`` now shares the wire's messages).
"""

from __future__ import annotations

import re

import pytest

from repro import HistoricalWhatIfQuery, Mahif, MahifConfig, Method
from repro.cli import build_parser, main
from repro.core.engine import MAX_SHARDS, deprecated_shards
from repro.obs.metrics import global_registry
from repro.relational.csvio import relation_to_csv
from repro.relational.sqlgen import history_to_sql
from repro.service import (
    ServiceClient,
    ServiceClientError,
    ServiceError,
    WhatIfServer,
    WhatIfService,
    modifications_from_spec,
    result_payload,
)

ACCEPTED = [1, 4, 0, "auto", " AUTO "]
REJECTED = [-1, "two", True, 1.5, MAX_SHARDS + 1]
SQL = "UPDATE Orders SET ShippingFee = 0 WHERE Price >= 60"
SPEC = {"replace": [[1, SQL]]}


def deprecated_inputs() -> float:
    return global_registry().counter(
        "mahif_deprecated_input_total", "", ("input",)
    ).value(input="shards")


def rejection(value, what: str = "shards") -> str:
    """The message every surface has always rejected ``value`` with."""
    if value == MAX_SHARDS + 1:
        return f'{what} must be between 1 and {MAX_SHARDS}, 0, or "auto"'
    return f'shards must be a positive integer, 0, or "auto"; got {value!r}'


@pytest.fixture
def query(orders_db, paper_history):
    return HistoricalWhatIfQuery(
        paper_history, orders_db, modifications_from_spec(SPEC)
    )


@pytest.fixture
def served(tmp_path, orders_db, paper_history):
    """A client of a server with no default shard count."""
    service = WhatIfService(tmp_path / "served")
    service.register("h", orders_db, paper_history)
    server = WhatIfServer(service, port=0).start_background()
    yield ServiceClient(server.url)
    server.shutdown()


@pytest.fixture
def cli_args(tmp_path, orders_db, paper_history):
    """``whatif`` arguments over the example on disk; ``--out`` last."""
    tables = tmp_path / "tables"
    tables.mkdir()
    relation_to_csv(orders_db["Orders"], tables / "Orders.csv")
    history = tmp_path / "history.sql"
    history.write_text(history_to_sql(paper_history))
    return [
        "whatif", "--data", str(tables), "--history", str(history),
        "--replace", "1", SQL, "--quiet", "--out",
    ]


def _config(value, query, tmp_path, served, cli_args):
    before = deprecated_inputs()
    config = MahifConfig(shards=value)
    counted = deprecated_inputs() - before
    with_shards = Mahif(config).answer(query, Method.R_PS_DS).delta
    without = Mahif(MahifConfig()).answer(query, Method.R_PS_DS).delta
    return with_shards, without, counted


def _service_default(value, query, tmp_path, served, cli_args):
    answers = []
    before = deprecated_inputs()
    for root, shards in (("with", value), ("without", None)):
        service = WhatIfService(tmp_path / root, default_shards=shards)
        service.register("h", query.database, query.history)
        answers.append(service.answer("h", [SPEC])[0])
        service.close()
    counted = deprecated_inputs() - before
    with_shards, without = answers
    assert set(with_shards) == set(without)
    return with_shards["delta"], without["delta"], counted


def _request_body(value, query, tmp_path, served, cli_args):
    before = deprecated_inputs()
    with_shards = served.whatif("h", SPEC, shards=value)
    counted = deprecated_inputs() - before
    # Computed with shards named, then served to a request without.
    assert not with_shards["cached"]
    without = served.whatif("h", SPEC)
    assert without["cached"]
    assert deprecated_inputs() - before == counted
    assert not {"planner", "shards"} & set(with_shards)
    oracle = result_payload(Mahif().answer(query, Method.R_PS_DS))["delta"]
    assert with_shards["delta"] == oracle
    return with_shards["delta"], without["delta"], counted


def _cli_whatif(value, query, tmp_path, served, cli_args):
    with_out, without_out = tmp_path / "with.csv", tmp_path / "without.csv"
    before = deprecated_inputs()
    assert main([*cli_args, str(with_out), "--shards", str(value)]) == 0
    counted = deprecated_inputs() - before
    assert main([*cli_args, str(without_out)]) == 0
    assert deprecated_inputs() - before == counted
    return with_out.read_bytes(), without_out.read_bytes(), counted


SURFACES = {
    "MahifConfig": _config,
    "WhatIfService(default_shards=)": _service_default,
    "request body": _request_body,
    "mahif whatif --shards": _cli_whatif,
}


@pytest.mark.parametrize("value", ACCEPTED, ids=repr)
@pytest.mark.parametrize("surface", SURFACES)
def test_accepted_shards_are_counted_and_change_no_answer(
    surface, value, query, tmp_path, served, cli_args
):
    with_shards, without, counted = SURFACES[surface](
        value, query, tmp_path, served, cli_args
    )
    assert with_shards == without
    assert counted == 1


@pytest.mark.parametrize("value", REJECTED, ids=repr)
def test_rejected_shards_keep_their_errors(
    value, tmp_path, served, cli_args
):
    before = deprecated_inputs()
    with pytest.raises(ValueError, match=re.escape(rejection(value))):
        MahifConfig(shards=value)
    with pytest.raises(ServiceError) as raised:
        WhatIfService(tmp_path / "s", default_shards=value)
    assert str(raised.value) == rejection(value, "default_shards")
    with pytest.raises(ServiceClientError) as raised:
        served.whatif("h", SPEC, shards=value)
    assert raised.value.status == 400
    assert rejection(value) in str(raised.value)
    with pytest.raises(SystemExit) as raised:
        main([*cli_args, str(tmp_path / "out.csv"), "--shards", str(value)])
    if isinstance(value, int) and not isinstance(value, bool):
        assert raised.value.code == f"repro.cli: error: {rejection(value)}"
    else:  # not an integer: argparse's invalid-value exit
        assert raised.value.code == 2
    assert deprecated_inputs() == before


@pytest.mark.parametrize(
    "value", ["auto", " AUTO ", 0, 4, "4", 8.0, MAX_SHARDS, str(MAX_SHARDS)],
    ids=repr,
)
def test_deprecated_shards_accepts_and_counts_once(value):
    before = deprecated_inputs()
    assert deprecated_shards(value) is None
    assert deprecated_inputs() - before == 1


@pytest.mark.parametrize(
    "value",
    [True, -1, 1.5, "many", [], "-2", "", float("inf"), float("nan")],
    ids=repr,
)
def test_deprecated_shards_rejects_and_counts_nothing(value):
    # An integer string is reported as the integer it parsed to.
    shown = int(value) if value == "-2" else value
    before = deprecated_inputs()
    with pytest.raises(ValueError, match=re.escape(rejection(shown))):
        deprecated_shards(value)
    assert deprecated_inputs() == before


def test_the_range_message_names_the_input():
    for what in ("shards", "default_shards"):
        with pytest.raises(ValueError) as raised:
            deprecated_shards(MAX_SHARDS + 1, what)
        assert str(raised.value) == rejection(MAX_SHARDS + 1, what)


@pytest.mark.parametrize("command", ["whatif", "serve"])
def test_the_cli_flag_parses_and_defaults_to_unset(command):
    """``--shards`` parses where it always did; left out it is ``None``,
    so nothing is counted for a run that never named it."""
    required = {
        "whatif": ["--data", "d", "--history", "h", "--replace", "1", "sql"],
        "serve": ["--root", "r"],
    }[command]
    parser = build_parser()
    assert parser.parse_args([command, *required]).shards is None
    assert parser.parse_args([command, *required, "--shards", "4"]).shards == 4
    assert parser.parse_args(
        [command, *required, "--shards", "Auto"]
    ).shards == "auto"
