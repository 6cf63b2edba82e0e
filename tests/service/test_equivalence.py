"""The output-equivalence contract, enforced.

The same seeded event sequence must produce **byte-identical**
assignment trajectories and state digests through every execution
path:

- the raw library stack (:mod:`repro.service.replay` — no service
  code),
- the in-process service (``AssignmentService.handle``),
- the wire protocol (TCP JSON-lines through a live server),

and at **both** durability modes (``off`` and ``wal`` — the WAL-backed
runtime must not perturb a single reply byte). These are the
acceptance tests of the service redesign: if any layer drifts, the
canonical-JSON digests diverge and the diff points at the first
unequal event.
"""

import json

import pytest

from repro.algorithms.online import OnlineConfig
from repro.resilience.runtime import DurabilityConfig, DurableRuntime
from repro.service.client import ServiceClient
from repro.service.core import AssignmentService, SessionConfig
from repro.service.replay import replay_events, trajectory_digest
from repro.service.server import ServerThread
from repro.service.workload import generate_events

NODES = 100
EVENTS_10K = 10_000

CONFIG_OFF = SessionConfig(
    nodes=NODES,
    n_servers=8,
    online=OnlineConfig(capacity=16),
    durability=DurabilityConfig(mode="off"),
    max_backlog=48,
)


def _canonical(trajectory):
    return json.dumps(list(trajectory), sort_keys=True, separators=(",", ":"))


def _events(servers, n_events=EVENTS_10K, seed=42):
    return generate_events(
        NODES,
        servers,
        n_events=n_events,
        seed=seed,
        fault_every=211,
        partition_every=307,
        rebalance_every=401,
    )


def _service_run(config, events, base_dir=None):
    """Drive the events through AssignmentService.handle in-process."""
    with AssignmentService(base_dir=base_dir) as svc:
        session = svc.open_session(config)
        reply = svc.handle(
            {"op": "batch", "session": session.id, "events": events}
        )
        assert reply["ok"], reply
        digest = svc.handle(
            {"op": "query", "session": session.id, "what": "digest"}
        )["result"]["digest"]
        return reply["result"]["results"], digest, svc.matrix_for(config)


@pytest.fixture(scope="module")
def library_baseline():
    """The reference: raw manager+failover+degrade, no service code."""
    config = CONFIG_OFF
    matrix = config.build_matrix()
    servers = config.resolve_servers(matrix)
    events = _events(servers)
    result = replay_events(matrix, config, events)
    return config, events, result


class TestInProcessEquivalence:
    def test_10k_events_durability_off(self, library_baseline):
        config, events, lib = library_baseline
        traj, digest, _ = _service_run(config, events)
        assert digest == lib.digest
        assert _canonical(traj) == _canonical(lib.trajectory)

    def test_10k_events_durability_wal(self, library_baseline, tmp_path):
        config, events, lib = library_baseline
        wal_config = SessionConfig(
            **{
                **_config_kwargs(config),
                "durability": DurabilityConfig(mode="wal", checkpoint_every=500),
            }
        )
        traj, digest, matrix = _service_run(
            wal_config, events, base_dir=str(tmp_path)
        )
        # WAL-backed replies and state are byte-identical to the
        # durability-free library path...
        assert digest == lib.digest
        assert _canonical(traj) == _canonical(lib.trajectory)
        # ...and the on-disk state independently recovers to the same
        # digest (checkpoint + WAL-tail re-execution).
        recovered = DurableRuntime.recover(str(tmp_path / "s1"), matrix)
        try:
            assert recovered.digest() == lib.digest
        finally:
            recovered.close()

    def test_trajectory_digest_matches_full_compare(self, library_baseline):
        config, events, lib = library_baseline
        traj, _, _ = _service_run(config, events)
        assert trajectory_digest(traj) == trajectory_digest(lib.trajectory)

    def test_outcome_mix_is_nontrivial(self, library_baseline):
        # Guard against a vacuous pass: the seeded workload must
        # actually exercise joins, leaves, faults and degraded mode.
        _, _, lib = library_baseline
        for outcome in ("assigned", "left", "crashed", "recovered",
                        "partitioned", "healed", "rebalanced"):
            assert lib.outcomes.get(outcome, 0) > 0, lib.outcomes


class TestWireEquivalence:
    def test_wire_matches_library(self, library_baseline):
        config, events, lib = library_baseline
        with ServerThread() as (host, port):
            with ServiceClient(host, port) as client:
                opened = client.open_session(**config.to_dict())
                session = opened["session"]
                trajectory = []
                for start in range(0, len(events), 500):
                    trajectory.extend(
                        client.batch(session, events[start : start + 500])
                    )
                digest = client.query(session, "digest")["digest"]
        assert digest == lib.digest
        assert _canonical(trajectory) == _canonical(lib.trajectory)

    def test_wire_wal_matches_library(self, library_baseline, tmp_path):
        config, events, lib = library_baseline
        params = {
            **config.to_dict(),
            "durability": "wal",
            "checkpoint_every": 500,
        }
        service = AssignmentService(base_dir=str(tmp_path))
        with ServerThread(service) as (host, port):
            with ServiceClient(host, port) as client:
                opened = client.open_session(**params)
                session = opened["session"]
                trajectory = []
                for start in range(0, len(events), 500):
                    trajectory.extend(
                        client.batch(session, events[start : start + 500])
                    )
                digest = client.query(session, "digest")["digest"]
        assert digest == lib.digest
        assert _canonical(trajectory) == _canonical(lib.trajectory)

    def test_pipelined_wire_replies_in_order(self, library_baseline):
        # Pipelining (many batches in flight) must not reorder
        # replies or perturb a byte.
        config, events, lib = library_baseline
        subset = events[:2000]
        with ServerThread() as (host, port):
            with ServiceClient(host, port) as client:
                opened = client.open_session(**config.to_dict())
                session = opened["session"]
                ids = [
                    client.send(
                        "batch",
                        session=session,
                        events=subset[start : start + 250],
                    )
                    for start in range(0, len(subset), 250)
                ]
                replies = client.drain()
        assert [r["id"] for r in replies] == ids
        trajectory = []
        for reply in replies:
            trajectory.extend(ServiceClient.unwrap(reply)["results"])
        assert _canonical(trajectory) == _canonical(lib.trajectory[:2000])


#: Events the wire rejects by validation or precondition; the library
#: replayer must reject them identically and keep going.
MALFORMED_EVENTS = [
    pytest.param({"op": "rebalance", "max_moves": -1}, id="negative-moves"),
    pytest.param({"op": "join", "node": True}, id="bool-node"),
    pytest.param({"op": "join", "node": 1.0}, id="float-node"),
    pytest.param({"op": "rebalance", "max_moves": True}, id="bool-moves"),
    pytest.param({"op": "join"}, id="missing-node"),
]


@pytest.mark.parametrize("bad_event", MALFORMED_EVENTS)
def test_malformed_event_matches_library(bad_event):
    config = SessionConfig(nodes=40, n_servers=4, online=OnlineConfig(capacity=8))
    matrix = config.build_matrix()
    servers = config.resolve_servers(matrix)
    events = generate_events(40, servers, n_events=40, seed=3)
    stream = events[:20] + [bad_event] + events[20:]
    lib = replay_events(matrix, config, stream)
    traj, digest, _ = _service_run(config, stream)
    assert "error" in traj[20]
    assert _canonical(traj) == _canonical(lib.trajectory)
    assert digest == lib.digest


def _config_kwargs(config: SessionConfig) -> dict:
    return {
        "nodes": config.nodes,
        "kind": config.kind,
        "matrix_seed": config.matrix_seed,
        "n_servers": config.n_servers,
        "placement": config.placement,
        "placement_seed": config.placement_seed,
        "servers": config.servers,
        "online": config.online,
        "durability": config.durability,
        "max_backlog": config.max_backlog,
        "d_budget": config.d_budget,
        "readmit_moves": config.readmit_moves,
        "shed_policy": config.shed_policy,
    }
