"""Sharded sessions over the wire: equivalence, fault rejection, config."""

import numpy as np
import pytest

from repro.service.core import AssignmentService, SessionConfig


@pytest.fixture()
def service():
    with AssignmentService() as svc:
        yield svc


def _open(service, *, shards, session=None, **params):
    request = {
        "op": "open_session",
        "nodes": 60,
        "n_servers": 6,
        "shards": shards,
        **params,
    }
    if session is not None:
        request["session"] = session
    reply = service.handle(request)
    assert reply["ok"], reply
    return reply["result"]["session"]


def _trajectory(seed=23, n_events=60, nodes=60):
    rng = np.random.default_rng(seed)
    connected: list = []
    events = []
    for _ in range(n_events):
        candidates = [n for n in range(nodes) if n not in connected]
        if connected and (rng.random() < 0.3 or not candidates):
            node = connected.pop(int(rng.integers(len(connected))))
            events.append(("leave", node))
        else:
            node = candidates[int(rng.integers(len(candidates)))]
            events.append(("join", node))
            connected.append(node)
    return events


def _digest(service, sid):
    return service.handle({"op": "query", "session": sid, "what": "digest"})[
        "result"
    ]


def test_sharded_session_matches_unsharded_over_the_wire(service):
    """Same nodes, seeds and event sequence: a shards=4 session must
    return the same whole replies (seq included) and reach the same
    state digest as shards=1."""
    flat = _open(service, shards=1, session="flat")
    sharded = _open(service, shards=4, session="sharded")
    for op, node in _trajectory():
        a = service.handle({"op": op, "session": flat, "node": node})
        b = service.handle({"op": op, "session": sharded, "node": node})
        assert a["ok"] and b["ok"], (a, b)
        assert a == b
    assert _digest(service, flat) == _digest(service, sharded)
    stats_a = service.handle(
        {"op": "query", "session": flat, "what": "stats"}
    )["result"]
    stats_b = service.handle(
        {"op": "query", "session": sharded, "what": "stats"}
    )["result"]
    assert stats_a["loads"] == stats_b["loads"]
    assert stats_a["d"] == stats_b["d"]
    assert stats_a["n_clients"] == stats_b["n_clients"]


def test_fault_events_rejected_on_sharded_sessions(service):
    sid = _open(service, shards=2)
    service.handle({"op": "join", "session": sid, "node": 1})
    before = _digest(service, sid)
    for request in (
        {"op": "crash", "session": sid, "server": 0},
        {"op": "recover", "session": sid, "server": 0},
        {"op": "partition", "session": sid, "servers": [1]},
        {"op": "heal", "session": sid, "servers": [1]},
    ):
        reply = service.handle(request)
        assert not reply["ok"]
        assert reply["error"]["code"] == "session-state"
        assert "shards=1" in reply["error"]["message"]
    # The rejection changed nothing: the client is still connected.
    stats = service.handle(
        {"op": "query", "session": sid, "what": "stats"}
    )["result"]
    assert stats["n_clients"] == 1
    assert stats["n_usable"] == 6
    # ...and it used no sequence number.
    assert _digest(service, sid) == before
    joined = service.handle({"op": "join", "session": sid, "node": 2})
    assert joined["result"]["seq"] == before["seq"] + 1


def test_sharded_sessions_are_volatile_only(service):
    reply = service.handle(
        {
            "op": "open_session",
            "nodes": 60,
            "n_servers": 6,
            "shards": 2,
            "durability": "wal",
        }
    )
    assert not reply["ok"]
    assert reply["error"]["code"] == "invalid-parameter"
    assert "volatile" in reply["error"]["message"]


def test_sharded_queries_and_rebalance(service):
    sid = _open(service, shards=4)
    for node in range(10):
        service.handle({"op": "join", "session": sid, "node": node})
    digest = service.handle(
        {"op": "query", "session": sid, "what": "digest"}
    )["result"]
    assert len(digest["digest"]) == 64
    d = service.handle({"op": "query", "session": sid, "what": "d"})["result"]
    assert d["d_ms"] > 0.0
    health = service.handle(
        {"op": "query", "session": sid, "what": "health"}
    )["result"]
    assert health["health"] == "healthy"
    rebalance = service.handle(
        {"op": "rebalance", "session": sid, "max_moves": 8}
    )
    assert rebalance["ok"], rebalance
    assert rebalance["result"]["moves"] >= 0


def test_sharded_batch_round_trip(service):
    sid = _open(service, shards=2)
    events = [
        {"op": "join", "node": 1},
        {"op": "join", "node": 2},
        {"op": "leave", "node": 1},
        {"op": "crash", "server": 0},  # rejected inline, not fatally
    ]
    reply = service.handle({"op": "batch", "session": sid, "events": events})
    assert reply["ok"], reply
    results = reply["result"]["results"]
    assert results[0]["outcome"] == "assigned"
    assert results[2]["outcome"] == "left"
    assert results[3].get("error", {}).get("code") == "session-state"


def test_config_round_trips_shards(service):
    sid = _open(service, shards=4)
    reply = service.handle({"op": "query", "session": sid, "what": "config"})
    config = reply["result"]["config"]
    assert config["shards"] == 4
    rebuilt = SessionConfig.from_dict(config)
    assert rebuilt.online.shards == 4


def test_close_session_final_stats(service):
    sid = _open(service, shards=2)
    service.handle({"op": "join", "session": sid, "node": 4})
    reply = service.handle({"op": "close_session", "session": sid})
    assert reply["ok"], reply
    assert reply["result"]["final"]["n_clients"] == 1
