"""Tests for online assignment under churn."""

import numpy as np
import pytest

from repro.algorithms.online import (
    OnlineAssignmentManager,
    OnlineConfig,
    simulate_churn,
)
from repro.core import max_interaction_path_length
from repro.datasets.synthetic import small_world_latencies
from repro.errors import (
    CapacityError,
    InvalidAssignmentError,
    InvalidParameterError,
)
from repro.placement import random_placement


@pytest.fixture
def matrix():
    return small_world_latencies(50, seed=9)


@pytest.fixture
def servers(matrix):
    return random_placement(matrix, 5, seed=0)


@pytest.fixture
def manager(matrix, servers):
    return OnlineAssignmentManager(matrix, servers)


class TestJoinLeave:
    def test_join_assigns_and_counts(self, manager):
        s = manager.join(10)
        assert 0 <= s < manager.n_servers
        assert manager.n_clients == 1
        assert manager.server_of(10) == s

    def test_double_join_rejected(self, manager):
        manager.join(10)
        with pytest.raises(InvalidAssignmentError):
            manager.join(10)

    def test_out_of_range_join_rejected(self, manager):
        with pytest.raises(InvalidAssignmentError):
            manager.join(999)

    def test_leave(self, manager):
        manager.join(10)
        manager.leave(10)
        assert manager.n_clients == 0

    def test_leave_unknown_rejected(self, manager):
        with pytest.raises(InvalidAssignmentError):
            manager.leave(10)

    def test_loads_track_membership(self, manager):
        for node in (10, 11, 12):
            manager.join(node)
        assert manager.loads().sum() == 3
        manager.leave(11)
        assert manager.loads().sum() == 2

    def test_clients_sorted(self, manager):
        for node in (30, 10, 20):
            manager.join(node)
        assert manager.clients == (10, 20, 30)


class TestJoinQuality:
    def test_first_join_minimizes_round_trip(self, matrix, servers):
        manager = OnlineAssignmentManager(matrix, servers)
        node = 17
        s = manager.join(node)
        d = matrix.values
        round_trips = [
            d[node, sv] + d[sv, node] for sv in servers
        ]
        assert round_trips[s] == pytest.approx(min(round_trips))

    def test_incremental_d_matches_exact(self, manager):
        rng = np.random.default_rng(1)
        for node in rng.choice(range(6, 50), size=20, replace=False):
            manager.join(int(node))
        assert manager.verify()

    def test_greedy_join_no_worse_than_nearest(self, matrix, servers):
        rng = np.random.default_rng(2)
        nodes = [int(n) for n in rng.choice(range(6, 50), size=25, replace=False)]
        greedy_mgr = OnlineAssignmentManager(
            matrix, servers, OnlineConfig(join_policy="greedy")
        )
        nearest_mgr = OnlineAssignmentManager(
            matrix, servers, OnlineConfig(join_policy="nearest")
        )
        for node in nodes:
            greedy_mgr.join(node)
            nearest_mgr.join(node)
        assert greedy_mgr.current_d() <= nearest_mgr.current_d() * 1.05

    def test_invalid_join_policy(self, matrix, servers):
        with pytest.raises(ValueError):
            OnlineAssignmentManager(
                matrix, servers, OnlineConfig(join_policy="round-robin")
            )


class TestCapacity:
    def test_capacity_respected(self, matrix, servers):
        manager = OnlineAssignmentManager(matrix, servers, OnlineConfig(capacity=2))
        for node in range(6, 16):
            manager.join(node)
        assert np.all(manager.loads() <= 2)

    def test_full_system_rejects_joins(self, matrix, servers):
        manager = OnlineAssignmentManager(matrix, servers, OnlineConfig(capacity=1))
        for node in range(6, 11):
            manager.join(node)
        with pytest.raises(CapacityError):
            manager.join(20)

    def test_invalid_capacity(self, matrix, servers):
        with pytest.raises(ValueError):
            OnlineAssignmentManager(matrix, servers, OnlineConfig(capacity=0))


class TestRebalance:
    def test_rebalance_never_worsens(self, matrix, servers):
        manager = OnlineAssignmentManager(
            matrix, servers, OnlineConfig(join_policy="nearest")
        )
        rng = np.random.default_rng(3)
        for node in rng.choice(range(6, 50), size=30, replace=False):
            manager.join(int(node))
        before = manager.current_d()
        manager.rebalance(max_moves=20)
        assert manager.current_d() <= before + 1e-9
        assert manager.verify()

    def test_rebalance_empty_noop(self, manager):
        assert manager.rebalance() == 0

    def test_snapshot_round_trip(self, manager):
        for node in (10, 11, 12, 13):
            manager.join(node)
        problem, assignment, nodes = manager.snapshot()
        assert problem.n_clients == 4
        assert nodes == (10, 11, 12, 13)
        assert max_interaction_path_length(assignment) == pytest.approx(
            manager.current_d()
        )

    def test_snapshot_empty_rejected(self, manager):
        with pytest.raises(InvalidAssignmentError):
            manager.snapshot()


class TestChurnSimulation:
    def test_trace_shape(self, matrix, servers):
        result = simulate_churn(matrix, servers, n_events=60, seed=0)
        assert len(result.trace) >= 60
        for point in result.trace:
            assert point.event in ("join", "leave", "rebalance")
            assert point.d >= 0.0

    def test_reproducible(self, matrix, servers):
        a = simulate_churn(matrix, servers, n_events=40, seed=5)
        b = simulate_churn(matrix, servers, n_events=40, seed=5)
        assert a.trace == b.trace

    def test_rebalance_events_emitted(self, matrix, servers):
        result = simulate_churn(
            matrix, servers, n_events=40, rebalance_every=10, seed=1
        )
        assert any(p.event == "rebalance" for p in result.trace)

    def test_nearest_policy_no_better_than_greedy(self, matrix, servers):
        greedy = simulate_churn(
            matrix, servers, n_events=80, join_policy="greedy", seed=2
        )
        nearest = simulate_churn(
            matrix, servers, n_events=80, join_policy="nearest", seed=2
        )
        assert greedy.mean_d() <= nearest.mean_d() * 1.05

    def test_invalid_probability(self, matrix, servers):
        with pytest.raises(ValueError):
            simulate_churn(matrix, servers, join_probability=1.5)

    @pytest.mark.parametrize(
        "kwargs",
        [{"n_events": 0}, {"n_events": -1}, {"rebalance_every": -1}],
        ids=["no-events", "negative-events", "negative-cadence"],
    )
    def test_invalid_cadence_rejected(self, matrix, servers, kwargs):
        with pytest.raises(InvalidParameterError):
            simulate_churn(matrix, servers, **kwargs)

    def test_zero_cadence_means_off(self, matrix, servers):
        off = simulate_churn(matrix, servers, n_events=40, rebalance_every=0)
        assert off.moves_by_rebalance == 0
        assert all(p.event != "rebalance" for p in off.trace)
        assert off == simulate_churn(matrix, servers, n_events=40)

    def test_capacitated_churn(self, matrix, servers):
        result = simulate_churn(
            matrix, servers, n_events=50, capacity=12, seed=3
        )
        assert result.trace


class TestChurnEdgeCases:
    def _fill(self, manager, *, n=20, capacity=None):
        server_set = set(int(s) for s in manager.server_nodes)
        nodes = [
            u for u in range(manager.matrix.n_nodes) if u not in server_set
        ][:n]
        for node in nodes:
            manager.join(node)
        return nodes

    def test_server_emptied_then_repopulated(self, manager):
        self._fill(manager)
        target = int(np.argmax(manager.loads()))
        members = manager.members_of(target)
        assert members, "expected the busiest server to have members"
        for client in members:
            manager.leave(client)
        assert manager.loads()[target] == 0
        assert manager.verify()
        # The emptied server must still be a live join target and the
        # returning clients must land somewhere valid.
        for client in members:
            s = manager.join(client)
            assert 0 <= s < manager.n_servers
        assert manager.n_clients == 20
        assert manager.verify()

    def test_join_at_full_capacity_leaves_state_unchanged(
        self, matrix, servers
    ):
        manager = OnlineAssignmentManager(matrix, servers, OnlineConfig(capacity=4))
        self._fill(manager, n=20)  # 5 servers * 4 slots: completely full
        assert int(manager.loads().sum()) == 20
        before = {c: manager.server_of(c) for c in manager.clients}
        d_before = manager.current_d()
        with pytest.raises(CapacityError):
            manager.join(49)
        assert {c: manager.server_of(c) for c in manager.clients} == before
        assert manager.current_d() == pytest.approx(d_before)
        assert manager.n_clients == 20

    def test_rebalance_zero_moves_is_noop(self, manager):
        self._fill(manager)
        before = {c: manager.server_of(c) for c in manager.clients}
        d_before = manager.current_d()
        assert manager.rebalance(max_moves=0) == 0
        assert {c: manager.server_of(c) for c in manager.clients} == before
        assert manager.current_d() == pytest.approx(d_before)


class TestRestrictedClientUniverse:
    """client_nodes= restricts the joinable universe (the sharding hook)."""

    @pytest.fixture
    def universe(self, matrix):
        return np.array([2, 3, 11, 17, 29, 41], dtype=np.int64)

    @pytest.fixture
    def restricted(self, matrix, servers, universe):
        return OnlineAssignmentManager(
            matrix, servers, client_nodes=universe
        )

    def test_universe_is_reported(self, restricted, universe):
        assert np.array_equal(restricted.client_nodes, universe)

    def test_default_universe_is_none(self, manager):
        assert manager.client_nodes is None

    def test_members_of_universe_join_normally(self, restricted, universe):
        for node in universe:
            server = restricted.join(int(node))
            assert 0 <= server < restricted.n_servers
        assert restricted.clients == tuple(sorted(int(n) for n in universe))

    def test_outside_node_rejected(self, restricted):
        with pytest.raises(InvalidAssignmentError):
            restricted.join(4)  # valid node, not in the universe
        with pytest.raises(InvalidAssignmentError):
            restricted.leave(4)

    def test_decisions_match_unrestricted_manager(
        self, matrix, servers, universe
    ):
        """Restricting the universe must not change placement decisions
        for nodes inside it — same matrix rows, same engine math."""
        full = OnlineAssignmentManager(matrix, servers)
        restricted = OnlineAssignmentManager(
            matrix, servers, client_nodes=universe
        )
        for node in universe:
            assert restricted.join(int(node)) == full.join(int(node))
            assert restricted.current_d() == full.current_d()
        restricted.leave(int(universe[0]))
        full.leave(int(universe[0]))
        assert restricted.current_d() == full.current_d()
        assert restricted.verify()

    def test_empty_universe_rejected(self, matrix, servers):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            OnlineAssignmentManager(
                matrix, servers, client_nodes=np.array([], dtype=np.int64)
            )
