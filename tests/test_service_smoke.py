"""End-to-end service smoke: the real ``repro.cli serve`` process, the
real CLI client over HTTP, deltas asserted equal to the in-process
``Mahif.answer_batch`` oracle."""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro import HistoricalWhatIfQuery, Mahif, MahifConfig
from repro.relational.csvio import load_database_dir
from repro.relational.history import History
from repro.relational.parser import parse_history
from repro.service import METHODS, modifications_from_spec, result_payload

HISTORY_SQL = (
    "UPDATE Orders SET ShippingFee = 0 WHERE Price >= 50;\n"
    "UPDATE Orders SET ShippingFee = ShippingFee + 5 "
    "WHERE Country = 'UK' AND Price <= 100;\n"
    "UPDATE Orders SET ShippingFee = ShippingFee - 2 "
    "WHERE Price <= 30 AND ShippingFee >= 10;\n"
)

SPECS = [
    {"replace": [[1, "UPDATE Orders SET ShippingFee = 0 "
                     f"WHERE Price >= {threshold}"]]}
    for threshold in (25, 40, 60, 75)
] + [{"delete_stmt": [2]}]


@pytest.fixture
def workspace(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "Orders.csv").write_text(
        "ID,Customer,Country,Price,ShippingFee\n"
        "11,Susan,UK,20,5\n"
        "12,Alex,UK,50,5\n"
        "13,Jack,US,60,3\n"
        "14,Mark,US,30,4\n"
    )
    (tmp_path / "history.sql").write_text(HISTORY_SQL)
    (tmp_path / "batch.json").write_text(json.dumps(SPECS))
    return tmp_path


def _spawn_server(tmp_path) -> tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--root", str(tmp_path / "stores"),
            "--port", "0",
            "--name", "orders",
            "--data", str(tmp_path / "data"),
            "--history", str(tmp_path / "history.sql"),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    url = None
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line and process.poll() is not None:
            raise RuntimeError("server exited before becoming ready")
        if "serving what-if queries on " in line:
            url = line.split("serving what-if queries on ", 1)[1].split()[0]
            break
    if url is None:
        process.kill()
        raise RuntimeError("server did not report its address in time")
    return process, url


def test_cli_server_batch_equals_in_process_answer_batch(workspace):
    process, url = _spawn_server(workspace)
    try:
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "whatif",
                "--url", url,
                "--name", "orders",
                "--batch", str(workspace / "batch.json"),
                "--quiet",
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env={
                **os.environ,
                "PYTHONPATH": str(
                    pathlib.Path(__file__).resolve().parents[1] / "src"
                ),
            },
        )
        assert result.returncode == 0, result.stderr
        remote = [
            json.loads(line)
            for line in result.stdout.splitlines()
            if line.startswith("{")
        ]
        assert len(remote) == len(SPECS)

        database = load_database_dir(workspace / "data")
        history = History(tuple(parse_history(HISTORY_SQL)))
        queries = [
            HistoricalWhatIfQuery(
                history, database, modifications_from_spec(spec)
            )
            for spec in SPECS
        ]
        oracle = Mahif(MahifConfig(backend="compiled")).answer_batch(
            queries, METHODS["R+PS+DS"]
        )
        assert [record["delta"] for record in remote] == [
            result_payload(r)["delta"] for r in oracle
        ]
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
