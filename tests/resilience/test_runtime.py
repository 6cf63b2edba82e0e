"""DurableRuntime: log-then-apply, checkpoints, byte-identical recovery."""

import json
import os
import shutil
from pathlib import Path

import pytest

from repro.algorithms.online import OnlineConfig
from repro.datasets.synthetic import small_world_latencies
from repro.errors import (
    BadRequestError,
    CheckpointError,
    InvalidAssignmentError,
    InvalidParameterError,
    ResilienceError,
    SessionStateError,
    UnknownOperationError,
)
from repro.placement import random_placement
from repro.resilience import (
    DegradePolicy,
    DurabilityConfig,
    DurableRuntime,
    list_checkpoints,
)
from repro.resilience.runtime import WAL_NAME, parse_event


@pytest.fixture
def matrix():
    return small_world_latencies(30, seed=4)


@pytest.fixture
def servers(matrix):
    return random_placement(matrix, 3, seed=1)


def client_nodes(matrix, servers, n):
    server_set = set(int(s) for s in servers)
    return [u for u in range(matrix.n_nodes) if u not in server_set][:n]


def churn(runtime, nodes, *, checkpoint_every=0):
    """A deterministic little workload touching every event kind,
    checkpointing after every ``checkpoint_every``-th event."""
    steps = [lambda node=node: runtime.join(node) for node in nodes[:6]] + [
        lambda: runtime.leave(nodes[1]),
        lambda: runtime.crash(0),
        lambda: runtime.join(nodes[6]),
        lambda: runtime.partition([1]),
        lambda: runtime.leave(nodes[2]),
        lambda: runtime.heal([1]),
        lambda: runtime.recover_server(0),
        lambda: runtime.rebalance(max_moves=4),
    ]
    for i, step in enumerate(steps, 1):
        step()
        if checkpoint_every and i % checkpoint_every == 0:
            runtime.checkpoint()


class TestFreshStart:
    def test_genesis_record_written(self, tmp_path, matrix, servers):
        with DurableRuntime(tmp_path, matrix, servers) as runtime:
            assert runtime.applied_seq == 1
            assert runtime.health == "healthy"
        from repro.resilience import read_wal

        records = read_wal(tmp_path / WAL_NAME).records
        assert records[0].kind == "open"
        assert records[0].data["matrix_fingerprint"]

    def test_refuses_existing_wal(self, tmp_path, matrix, servers):
        DurableRuntime(tmp_path, matrix, servers).close()
        with pytest.raises(ResilienceError, match="already exists"):
            DurableRuntime(tmp_path, matrix, servers)

    def test_refuses_existing_checkpoints(self, tmp_path, matrix, servers):
        runtime = DurableRuntime(tmp_path, matrix, servers)
        runtime.checkpoint()
        runtime.close()
        os.unlink(tmp_path / WAL_NAME)
        with pytest.raises(ResilienceError, match="checkpoints already"):
            DurableRuntime(tmp_path, matrix, servers)


class TestEventApi:
    def test_join_leave(self, tmp_path, matrix, servers):
        nodes = client_nodes(matrix, servers, 2)
        with DurableRuntime(tmp_path, matrix, servers) as runtime:
            assert runtime.join(nodes[0]) == "assigned"
            assert runtime.n_clients == 1
            with pytest.raises(InvalidAssignmentError, match="already"):
                runtime.join(nodes[0])
            assert runtime.leave(nodes[0]) == "left"
            assert runtime.leave(nodes[1]) == "absent"

    def test_crash_recover_validation(self, tmp_path, matrix, servers):
        with DurableRuntime(tmp_path, matrix, servers) as runtime:
            runtime.crash(0)
            with pytest.raises(InvalidParameterError, match="already down"):
                runtime.crash(0)
            runtime.recover_server(0)
            with pytest.raises(InvalidParameterError, match="already up"):
                runtime.recover_server(0)

    def test_partition_heal_validation(self, tmp_path, matrix, servers):
        with DurableRuntime(tmp_path, matrix, servers) as runtime:
            runtime.partition([1])
            with pytest.raises(InvalidParameterError, match="unreachable"):
                runtime.partition([1])
            runtime.heal([1])
            with pytest.raises(InvalidParameterError, match="reachable"):
                runtime.heal([1])
            with pytest.raises(InvalidParameterError):
                runtime.partition([])

    def test_capacity_exhaustion_queues_then_rejects(
        self, tmp_path, matrix, servers
    ):
        nodes = client_nodes(matrix, servers, 5)
        policy = DegradePolicy(max_backlog=1)
        with DurableRuntime(
            tmp_path,
            matrix,
            servers,
            online=OnlineConfig(capacity=1),
            policy=policy,
        ) as runtime:
            assert [runtime.join(n) for n in nodes[:3]] == ["assigned"] * 3
            assert runtime.join(nodes[3]) == "queued"
            # Capacity is not a structural violation, so the same-event
            # tick already moved DEGRADED -> RECOVERING (waiting on a
            # leave to free a slot).
            assert runtime.health == "recovering"
            assert runtime.join(nodes[4]) == "rejected"
            assert runtime.leave(nodes[3]) == "dequeued"

    def test_total_outage_degrades_instead_of_raising(
        self, tmp_path, matrix, servers
    ):
        nodes = client_nodes(matrix, servers, 3)
        with DurableRuntime(tmp_path, matrix, servers) as runtime:
            for node in nodes:
                runtime.join(node)
            for s in range(3):
                runtime.crash(s)
            assert runtime.health == "degraded"
            assert runtime.n_clients == 0  # total outage sheds everyone
            assert runtime.join(nodes[0]) == "queued"
            runtime.recover_server(0)
            runtime.rebalance()  # RECOVERING drains on the next events
            assert runtime.health == "healthy"
            assert runtime.manager.is_connected(nodes[0])

    def test_closed_runtime_refuses_events(self, tmp_path, matrix, servers):
        runtime = DurableRuntime(tmp_path, matrix, servers)
        runtime.close()
        runtime.close()  # idempotent
        with pytest.raises(ResilienceError, match="closed"):
            runtime.join(client_nodes(matrix, servers, 1)[0])


class TestRecovery:
    def test_byte_identical_with_checkpoint(self, tmp_path, matrix, servers):
        nodes = client_nodes(matrix, servers, 8)
        runtime = DurableRuntime(tmp_path, matrix, servers)
        churn(runtime, nodes, checkpoint_every=4)
        expected = runtime.digest()
        expected_d = runtime.current_d()
        runtime.abandon()
        assert list_checkpoints(tmp_path)

        recovered = DurableRuntime.recover(tmp_path, matrix)
        assert recovered.digest() == expected
        assert recovered.current_d() == expected_d
        recovered.close()

    def test_byte_identical_wal_only(self, tmp_path, matrix, servers):
        """No commit, no checkpoint: recovery replays the whole log."""
        nodes = client_nodes(matrix, servers, 8)
        runtime = DurableRuntime(tmp_path, matrix, servers)
        churn(runtime, nodes)
        expected = runtime.digest()
        runtime.abandon()
        assert not list_checkpoints(tmp_path)

        recovered = DurableRuntime.recover(tmp_path, matrix)
        assert recovered.digest() == expected
        recovered.close()

    def test_recovered_runtime_keeps_sequencing(
        self, tmp_path, matrix, servers
    ):
        nodes = client_nodes(matrix, servers, 8)
        runtime = DurableRuntime(tmp_path, matrix, servers)
        runtime.join(nodes[0])
        seq = runtime.applied_seq
        runtime.abandon()
        recovered = DurableRuntime.recover(tmp_path, matrix)
        assert recovered.applied_seq == seq
        recovered.join(nodes[1])
        assert recovered.applied_seq == seq + 1
        recovered.close()

    def test_torn_tail_is_truncated_on_recover(
        self, tmp_path, matrix, servers
    ):
        nodes = client_nodes(matrix, servers, 4)
        runtime = DurableRuntime(tmp_path, matrix, servers)
        for node in nodes:
            runtime.join(node)
        expected = runtime.digest()
        runtime.abandon()
        with open(tmp_path / WAL_NAME, "ab") as handle:
            handle.write(b'{"crc":"00000000","data"')
        with pytest.warns(RuntimeWarning, match="torn final record"):
            recovered = DurableRuntime.recover(tmp_path, matrix)
        assert recovered.digest() == expected
        recovered.close()

    def test_degrade_state_survives_recovery(self, tmp_path, matrix, servers):
        nodes = client_nodes(matrix, servers, 5)
        policy = DegradePolicy(max_backlog=4)
        runtime = DurableRuntime(
            tmp_path,
            matrix,
            servers,
            online=OnlineConfig(capacity=1),
            policy=policy,
        )
        for node in nodes[:3]:
            runtime.join(node)
        assert runtime.join(nodes[3]) == "queued"
        expected = runtime.digest()
        runtime.abandon()
        recovered = DurableRuntime.recover(tmp_path, matrix)
        assert recovered.digest() == expected
        assert recovered.health == "recovering"
        assert recovered.degrade.backlog == (nodes[3],)
        recovered.close()

    def test_matrix_fingerprint_mismatch(self, tmp_path, matrix, servers):
        DurableRuntime(tmp_path, matrix, servers).close()
        other = small_world_latencies(30, seed=5)
        with pytest.raises(CheckpointError, match="fingerprint"):
            DurableRuntime.recover(tmp_path, other)

    def test_empty_directory_raises(self, tmp_path, matrix):
        with pytest.raises(ResilienceError, match="nothing to recover"):
            DurableRuntime.recover(tmp_path, matrix)

    def test_damaged_newest_checkpoint_falls_back(
        self, tmp_path, matrix, servers
    ):
        nodes = client_nodes(matrix, servers, 8)
        runtime = DurableRuntime(
            tmp_path,
            matrix,
            servers,
            durability=DurabilityConfig(keep_checkpoints=3),
        )
        churn(runtime, nodes, checkpoint_every=3)
        expected = runtime.digest()
        runtime.abandon()
        checkpoints = list_checkpoints(tmp_path)
        assert len(checkpoints) >= 2
        with open(checkpoints[-1][1], "w", encoding="utf-8") as handle:
            handle.write("{corrupt")
        with pytest.warns(RuntimeWarning, match="skipping invalid"):
            recovered = DurableRuntime.recover(tmp_path, matrix)
        assert recovered.digest() == expected
        recovered.close()


PARENT_SESSION = Path(__file__).resolve().parents[1] / "data" / "parent_wal_session"


class TestRecoverEarlierSession:
    """A WAL session written by a version whose runtime config still
    carried the kernel backend and top-k keys recovers byte for byte."""

    @pytest.fixture
    def recorded(self):
        with open(f"{PARENT_SESSION}.json", encoding="utf-8") as handle:
            return json.load(handle)

    @pytest.fixture
    def durability(self):
        return DurabilityConfig(mode="wal")

    def _recover(self, tmp_path, durability, *, drop_checkpoints=False):
        directory = tmp_path / "session"
        shutil.copytree(PARENT_SESSION, directory)
        if drop_checkpoints:
            for _, path in list_checkpoints(directory):
                os.unlink(path)
        matrix = small_world_latencies(30, seed=4)
        return DurableRuntime.recover(directory, matrix, durability=durability)

    @pytest.mark.parametrize("drop_checkpoints", [False, True], ids=["checkpoint", "wal-only"])
    def test_recovers_recorded_digest(
        self, tmp_path, recorded, durability, drop_checkpoints
    ):
        runtime = self._recover(
            tmp_path, durability, drop_checkpoints=drop_checkpoints
        )
        assert runtime.state_dict()["config"].items() >= recorded["config"].items()
        assert runtime.digest() == recorded["digest"]
        runtime.close()

    def test_continues_after_recovery(self, tmp_path, recorded, durability):
        runtime = self._recover(tmp_path, durability)
        runtime.join(recorded["next_join"])
        assert runtime.digest() == recorded["digest_after_join"]
        runtime.close()


class TestStateDict:
    def test_digest_changes_with_state(self, tmp_path, matrix, servers):
        nodes = client_nodes(matrix, servers, 2)
        with DurableRuntime(tmp_path, matrix, servers) as runtime:
            before = runtime.digest()
            runtime.join(nodes[0])
            after = runtime.digest()
        assert before != after

    def test_state_dict_is_json_safe(self, tmp_path, matrix, servers):
        import json

        nodes = client_nodes(matrix, servers, 3)
        with DurableRuntime(tmp_path, matrix, servers) as runtime:
            churn(runtime, nodes + client_nodes(matrix, servers, 8)[3:])
            state = runtime.state_dict()
        json.dumps(state)  # must not raise
        assert state["schema"] == 1


def churn_events(nodes):
    """:func:`churn` in wire form."""
    return [
        *({"op": "join", "node": n} for n in nodes[:6]),
        {"op": "leave", "node": nodes[1]},
        {"op": "crash", "server": 0},
        {"op": "join", "node": nodes[6]},
        {"op": "partition", "servers": [1]},
        {"op": "leave", "node": nodes[2]},
        {"op": "heal", "servers": [1]},
        {"op": "recover", "server": 0},
        {"op": "rebalance", "max_moves": 4},
    ]


def volatile(matrix, servers, **online):
    return DurableRuntime(
        None,
        matrix,
        servers,
        online=OnlineConfig(**online),
        durability=DurabilityConfig(mode="off"),
    )


class TestApply:
    def test_apply_matches_per_op_methods(self, matrix, servers):
        nodes = client_nodes(matrix, servers, 8)
        with volatile(matrix, servers) as by_method:
            churn(by_method, nodes)
            with volatile(matrix, servers) as by_event:
                envelopes = [by_event.apply(e) for e in churn_events(nodes)]
                assert by_event.digest() == by_method.digest()
        assert [e["seq"] for e in envelopes] == list(range(2, 2 + len(envelopes)))
        assert [e["outcome"] for e in envelopes] == (
            ["assigned"] * 6
            + ["left", "crashed", "assigned", "partitioned", "left"]
            + ["healed", "recovered", "rebalanced"]
        )
        assert envelopes[0]["server"] is not None
        assert envelopes[-1]["moves"] >= 0
        assert set(envelopes[7]) >= {"server", "evacuated", "shed"}

    @pytest.mark.parametrize(
        "event, error",
        [
            ({"op": "join", "node": True}, BadRequestError),
            ({"op": "join", "node": 2.0}, BadRequestError),
            ({"op": "join"}, BadRequestError),
            ({"op": "partition", "servers": []}, BadRequestError),
            ({"op": "rebalance", "max_moves": -1}, InvalidParameterError),
            ({"op": "teleport", "node": 1}, UnknownOperationError),
        ],
    )
    def test_rejected_event_uses_no_seq(self, matrix, servers, event, error):
        with volatile(matrix, servers) as runtime:
            before = runtime.digest()
            with pytest.raises(error):
                runtime.apply(event)
            assert runtime.digest() == before
            assert runtime.apply({"op": "rebalance"})["seq"] == 2

    def test_parse_event_canonical_form(self):
        assert parse_event({"op": "heal", "servers": [3, 1], "id": 9}) == {
            "op": "heal",
            "servers": [1, 3],
        }
        assert parse_event({"op": "rebalance"}) == {
            "op": "rebalance",
            "max_moves": 16,
        }

    def test_recovery_replays_logged_events(self, tmp_path, matrix, servers):
        nodes = client_nodes(matrix, servers, 8)
        runtime = DurableRuntime(tmp_path, matrix, servers)
        for event in churn_events(nodes):
            runtime.apply(event)
        expected = runtime.digest()
        runtime.abandon()
        recovered = DurableRuntime.recover(tmp_path, matrix)
        assert recovered.digest() == expected
        recovered.close()


class TestShardedRuntime:
    def test_digest_equals_unsharded(self, matrix, servers):
        nodes = client_nodes(matrix, servers, 12)
        with volatile(matrix, servers) as flat, volatile(
            matrix, servers, shards=3
        ) as sharded:
            for node in nodes:
                assert flat.apply({"op": "join", "node": node}) == sharded.apply(
                    {"op": "join", "node": node}
                )
            for node in nodes[::3]:
                assert flat.leave(node) == sharded.leave(node)
            assert sharded.digest() == flat.digest()

    def test_fault_events_refused_before_seq(self, matrix, servers):
        with volatile(matrix, servers, shards=2) as runtime:
            before = runtime.digest()
            for call in (
                lambda: runtime.crash(0),
                lambda: runtime.recover_server(0),
                lambda: runtime.partition([1]),
                lambda: runtime.heal([1]),
            ):
                with pytest.raises(SessionStateError, match="shards=1"):
                    call()
            assert runtime.digest() == before

    def test_sharded_runtime_is_volatile_only(self, tmp_path, matrix, servers):
        with pytest.raises(InvalidParameterError, match="volatile"):
            DurableRuntime(
                tmp_path, matrix, servers, online=OnlineConfig(shards=2)
            )


class TestCommit:
    """``sync()`` is the commit point; a power cut keeps what it covered."""

    def test_genesis_is_durable_on_open(self, tmp_path, matrix, servers):
        runtime = DurableRuntime(tmp_path, matrix, servers)
        assert runtime.wal.synced_bytes == os.path.getsize(tmp_path / WAL_NAME) > 0
        runtime.close()

    def test_power_cut_keeps_every_acknowledged_event(
        self, tmp_path, matrix, servers
    ):
        nodes = client_nodes(matrix, servers, 8)
        runtime = DurableRuntime(tmp_path, matrix, servers)
        for node in nodes[:4]:
            runtime.join(node)
        runtime.sync()
        acknowledged = runtime.digest()
        for node in nodes[4:]:
            runtime.join(node)  # applied, never committed
        durable = runtime.wal.synced_bytes
        runtime.abandon()
        os.truncate(tmp_path / WAL_NAME, durable)
        recovered = DurableRuntime.recover(tmp_path, matrix)
        assert recovered.digest() == acknowledged
        recovered.close()

    def test_checkpoint_cadence_tracks_wal_bytes(self, tmp_path):
        """After every event, the WAL bytes past the newest checkpoint
        stay within CHECKPOINT_LOG_RATIO times its size plus one
        record, across a recovery too."""
        from repro.datasets import synthesize_meridian_like
        from repro.placement import kcenter_b
        from repro.resilience.runtime import CHECKPOINT_LOG_RATIO
        from repro.service.workload import generate_events

        big = synthesize_meridian_like(200, seed=0)
        placed = kcenter_b(big, 8, seed=0)
        events = generate_events(
            200, placed, n_events=5000, seed=3, fault_every=400,
            partition_every=700, rebalance_every=300,
        )
        runtime = DurableRuntime(tmp_path, big, placed)
        offset_at = {runtime.applied_seq: runtime.wal.bytes_written}
        longest = 0
        checkpoints = set()
        for i, event in enumerate(events):
            if i == len(events) // 2:
                runtime.abandon()
                runtime = DurableRuntime.recover(tmp_path, big)
            runtime.apply(event)
            wal = runtime.wal
            offset_at[runtime.applied_seq] = wal.bytes_written
            longest = max(longest, wal.bytes_written - offset_at[runtime.applied_seq - 1])
            found = list_checkpoints(tmp_path)  # before the commit: the peak
            if found:
                seq, path = found[-1]
                checkpoints.add(seq)
                bound = CHECKPOINT_LOG_RATIO * os.path.getsize(path) + longest
                assert wal.bytes_written - offset_at[seq] <= bound, (i, seq)
            runtime.sync()
        runtime.close()
        assert len(checkpoints) >= 5
