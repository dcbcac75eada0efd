"""Bytes once: what the server sends is the answer the service computed.

An answer is encoded when it is computed and every response to it is
spliced around those bytes, so four things need pinning: the spliced
bytes decode to exactly the dict an in-process caller gets, for every
shape an answer takes; a hit never serialises (counted, not timed); a
miss sent over HTTP builds no payload rows — the dict is built on its
first in-process read (counted; mutation check, made by hand on a copy
of the tree: ``CachedAnswer.encode`` building the dict at once fails
``test_an_http_miss_builds_no_payload_rows``); and a reply is one
write, so a reused connection never waits out Nagle's algorithm between
headers and body.
"""

from __future__ import annotations

import http.client
import json
import re
import sqlite3
from types import SimpleNamespace

import pytest

from repro import Database, History, Relation, Schema, parse_history
from repro.service import WhatIfServer, WhatIfService
from repro.service import server as server_module

SPEC = {"replace": [[1, "UPDATE Orders SET Fee = 0 WHERE Price >= 70"]]}
OTHER = {"replace": [[1, "UPDATE Orders SET Fee = 1 WHERE Price >= 30"]]}
SIDE_APPEND = {"statements_sql": "UPDATE Audit SET Flag = 1 WHERE ID = 1;"}


@pytest.fixture
def served(tmp_path):
    """A server over two relations, so an append can miss an answer's
    delta: its ``service`` and ``address``, ``send`` for one request on
    one keep-alive connection, and ``answers`` — what
    ``WhatIfService.answer`` handed the server, request by request."""
    database = Database(
        {
            "Orders": Relation.from_rows(
                Schema.of("ID", "Price", "Fee"),
                [(i, 10 * i, 5) for i in range(1, 13)],
            ),
            "Audit": Relation.from_rows(Schema.of("ID", "Flag"), [(1, 0)]),
        }
    )
    history = History(
        tuple(
            parse_history(
                "UPDATE Orders SET Fee = 0 WHERE Price >= 50;"
                "UPDATE Orders SET Fee = Fee + 2 WHERE Price <= 90;"
            )
        )
    )
    service = WhatIfService(tmp_path / "stores")
    service.register("h", database, history)
    real_answer = service.answer
    recorded = []

    def recording_answer(*args, **kwargs):
        recorded.append(real_answer(*args, **kwargs))
        return recorded[-1]

    service.answer = recording_answer
    server = WhatIfServer(service, port=0).start_background()
    connection = http.client.HTTPConnection(*server.address, timeout=30)

    def send(method, path, body=None, headers=None):
        """(status, headers, raw body) of one request on the one
        connection."""
        connection.request(
            method, path,
            body=None if body is None else json.dumps(body),
            headers=headers or {},
        )
        response = connection.getresponse()
        return response.status, response.headers, response.read()

    yield SimpleNamespace(
        service=service, address=server.address, send=send, answers=recorded
    )
    connection.close()
    server.shutdown()


class _BrokenSqliteEngine:
    def answer_batch(self, *args, **kwargs):
        raise sqlite3.OperationalError("injected: database is locked")


def _poison_sqlite(service) -> None:
    real_engine = service._engine
    service._engine = lambda backend: (
        _BrokenSqliteEngine() if backend == "sqlite" else real_engine(backend)
    )


#: name -> (route, request body, the key only this shape carries)
#: (``"auto shards"``: the keys it must *not* carry)
SHAPES = {
    "whatif": ("whatif", {"modifications": SPEC}, None),
    "batch": ("batch", {"queries": [SPEC, OTHER]}, None),
    "explain": ("whatif", {"modifications": SPEC, "explain": True}, "profile"),
    "auto shards": (
        "whatif", {"modifications": SPEC, "shards": "auto"}, None
    ),
    "sqlite degraded": (
        "whatif", {"modifications": SPEC, "backend": "sqlite"},
        "degraded_from",
    ),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_sent_bytes_decode_to_the_answer_dict(served, shape):
    """Miss and hit alike: the body on the socket is the dict the
    service returned, plus ``trace_id`` — nothing lost, nothing stale."""
    route, body, marker = SHAPES[shape]
    if shape == "sqlite degraded":
        _poison_sqlite(served.service)
    for attempt in ("miss", "hit"):
        status, headers, raw = served.send(
            "POST", f"/histories/h/{route}", body
        )
        assert status == 200, raw
        answers = served.answers[-1]
        expected = (
            {"results": answers} if route == "batch" else dict(answers[0])
        )
        expected["trace_id"] = headers["X-Mahif-Trace"]
        assert json.loads(raw) == expected
        first = answers[0]
        assert {"delta", "history_length", "cached", "method"} <= set(first)
        if marker is not None:
            assert marker in first
        if shape == "auto shards":
            # Deprecated and ignored: it leaves no trace in the answer.
            assert not {"planner", "shards"} & set(first)
        # Explain bypasses the cache; everything else hits on the repeat.
        cached = attempt == "hit" and shape != "explain"
        assert [a["cached"] for a in answers] == [cached] * len(answers)
    if shape == "auto shards":
        # The delta is the plain shape's, computed afresh (explain
        # bypasses the cache) ...
        plain = served.service.answer("h", [SPEC], explain=True)[0]
        assert first["delta"] == plain["delta"]
        # ... and a plain request is served the same cache entry.
        _, _, raw = served.send(
            "POST", "/histories/h/whatif", {"modifications": SPEC}
        )
        assert json.loads(raw)["cached"]


def test_a_batch_mixes_hits_and_misses(served):
    served.send("POST", "/histories/h/whatif", {"modifications": OTHER})
    _, headers, raw = served.send(
        "POST", "/histories/h/batch", {"queries": [SPEC, OTHER, SPEC]}
    )
    sent = json.loads(raw)
    assert sent == {
        "results": served.answers[-1], "trace_id": headers["X-Mahif-Trace"]
    }
    # Lookup precedes computing: a batch's own repeat is a second miss.
    assert [a["cached"] for a in sent["results"]] == [False, True, False]


def test_retained_hit_reports_the_new_length_around_the_same_bytes(served):
    whatif = ("POST", "/histories/h/whatif", {"modifications": SPEC})
    _, _, miss = served.send(*whatif)
    status, _, info = served.send("POST", "/histories/h/append", SIDE_APPEND)
    assert status == 200 and json.loads(info)["cache_retained"] == 1
    _, _, hit = served.send(*whatif)
    cut = b', "history_length": '
    assert miss.count(cut) == hit.count(cut) == 1
    # Byte-identical up to the splice: delta, timings, configuration.
    assert miss.split(cut)[0] == hit.split(cut)[0]
    assert b'"delta": {"Orders"' in hit.split(cut)[0]
    miss, hit = json.loads(miss), json.loads(hit)
    assert (miss["history_length"], miss["cached"]) == (2, False)
    assert (hit["history_length"], hit["cached"]) == (3, True)


@pytest.mark.parametrize(
    "path, body",
    [("/histories/h/whatif", {"modifications": SPEC}), ("/health", None)],
    ids=["spliced", "dumped"],
)
def test_a_hostile_trace_id_comes_back_as_valid_json(served, path, body):
    """The id arrives in a client header and is echoed into the body."""
    trace_id = 'a"b\\c-é", "cached": "no'
    status, headers, raw = served.send(
        "POST" if body else "GET", path, body, {"X-Mahif-Trace": trace_id}
    )
    assert status == 200
    assert json.loads(raw)["trace_id"] == trace_id
    assert headers["X-Mahif-Trace"] == trace_id
    assert json.loads(raw).get("cached") != "no"


def _counter(served, name: str, route: str) -> int:
    _, _, text = served.send("GET", "/metrics")
    match = re.search(
        r'^%s\{route="%s"\} (\d+)$' % (name, route), text.decode(), re.M
    )
    return int(match.group(1)) if match else 0


def test_a_hit_never_serialises(served):
    """The floor under ``hit_ms_p50``, as a count: one miss and eight
    hits encode once; the bytes sent are counted per route."""
    before = _counter(served, "mahif_wire_encodes_total", "whatif")
    sent = 0
    for attempt in range(9):
        _, _, raw = served.send(
            "POST", "/histories/h/whatif", {"modifications": SPEC}
        )
        assert json.loads(raw)["cached"] is (attempt > 0)
        sent += len(raw)
    assert _counter(served, "mahif_wire_encodes_total", "whatif") == before + 1
    assert _counter(served, "mahif_response_bytes_total", "whatif") == sent
    # Not merely uncounted: all nine replies were made of one object.
    (miss,), *hits = served.answers[-9:]
    assert all(hit.body is miss.body for (hit,) in hits)
    # A retained entry is still the same bytes; a dropped one is not.
    served.send("POST", "/histories/h/append", SIDE_APPEND)
    served.send("POST", "/histories/h/whatif", {"modifications": SPEC})
    assert _counter(served, "mahif_wire_encodes_total", "whatif") == before + 1
    served.send(
        "POST", "/histories/h/append",
        {"statements_sql": "UPDATE Orders SET Fee = 9 WHERE ID = 12;"},
    )
    served.send("POST", "/histories/h/whatif", {"modifications": SPEC})
    assert _counter(served, "mahif_wire_encodes_total", "whatif") == before + 2
    # In-process callers encode too (the cache needs the bytes), under
    # their own label; every other reply is one encode per request.
    served.service.answer("h", [OTHER])
    assert served.service.wire_encodes.value(route="direct") == 1
    health = _counter(served, "mahif_wire_encodes_total", "health")
    served.send("GET", "/health")
    assert _counter(served, "mahif_wire_encodes_total", "health") == health + 1


def test_an_http_miss_builds_no_payload_rows(served, monkeypatch):
    """The floor under the encode stage, as a count: a miss sent over
    HTTP is encoded to bytes once and never rendered as row lists; the
    dict is built on its first in-process read, once."""
    from repro.service import cache as cache_module

    built = []
    real_result_payload = cache_module.result_payload

    def counting_result_payload(*args, **kwargs):
        built.append(1)
        return real_result_payload(*args, **kwargs)

    monkeypatch.setattr(
        cache_module, "result_payload", counting_result_payload
    )
    before = _counter(served, "mahif_wire_encodes_total", "whatif")
    for attempt in ("miss", "hit"):
        _, _, raw = served.send(
            "POST", "/histories/h/whatif", {"modifications": SPEC}
        )
        assert json.loads(raw)["cached"] is (attempt == "hit")
    assert built == []
    assert _counter(served, "mahif_wire_encodes_total", "whatif") == before + 1
    miss, hit = (answers[0] for answers in served.answers[-2:])
    assert miss["delta"] == json.loads(raw)["delta"]
    assert dict(hit) == {**dict(miss), "cached": True}
    assert built == [1]


def test_every_reply_is_one_write(served, monkeypatch):
    """Headers and body leave in one ``write``: sent apart, a body under
    the MSS waits ~40 ms for the client's delayed ACK on any reused
    connection.  Counted on a recording ``wfile``, every route, all down
    one keep-alive connection."""
    writes = []
    real_setup = server_module._Handler.setup

    class Recording:
        def __init__(self, raw):
            self.raw = raw

        def write(self, data):
            writes.append(len(data))
            return self.raw.write(data)

        def __getattr__(self, name):
            return getattr(self.raw, name)

    def setup(handler):
        real_setup(handler)
        handler.wfile = Recording(handler.wfile)

    monkeypatch.setattr(server_module._Handler, "setup", setup)
    # A connection of this test's own: the handler above is per
    # connection, and the fixture's was set up before the patch.
    connection = http.client.HTTPConnection(*served.address, timeout=30)
    database = {
        "kind": "set",
        "relations": {"R": {"attributes": ["a"], "rows": [[1]]}},
    }
    requests = [
        ("GET", "/health", None, 200),
        ("GET", "/metrics", None, 200),
        ("GET", "/histories", None, 200),
        ("POST", "/histories", {"name": "g", "database": database}, 201),
        ("GET", "/histories/h", None, 200),
        ("POST", "/histories/h/append", SIDE_APPEND, 200),
        ("POST", "/histories/h/whatif", {"modifications": SPEC}, 200),
        ("POST", "/histories/h/whatif", {"modifications": SPEC}, 200),
        ("POST", "/histories/h/batch", {"queries": [SPEC, OTHER]}, 200),
        ("POST", "/histories/h/whatif", {"modifications": {}}, 400),
        ("GET", "/histories/missing", None, 404),
        ("GET", "/no/such/route", None, 404),
    ]
    try:
        for sent, (method, path, body, expected) in enumerate(requests, 1):
            connection.request(
                method, path, body=None if body is None else json.dumps(body)
            )
            response = connection.getresponse()
            raw = response.read()
            assert response.status == expected, (path, raw)
            assert len(writes) == sent, (path, writes)
            assert writes[-1] > len(raw)  # headers went with the body
    finally:
        connection.close()
