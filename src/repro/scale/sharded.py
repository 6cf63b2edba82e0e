"""Region-sharded online assignment for large client universes.

One :class:`~repro.algorithms.online.OnlineAssignmentManager` holds an
incremental engine over its whole client universe — O(|universe| · |S|)
distance state. :class:`ShardedOnlineManager` splits the universe into
``config.shards`` **regions** (clients hashed by their nearest-server
index, so a region's clients share latency geometry) and gives each
region its own manager over only its slice of nodes. Joins, leaves and
moves route to the owning shard in O(1); per-shard engine state shrinks
by the shard count.

The objective stays **exact**: D decomposes into per-server farthest
outgoing/incoming legs, and a max decomposes over any partition of the
clients — merging the shards' ``l`` vectors elementwise and running the
O(|S|^2) server reduction recovers the global D, cross-shard client
pairs included. ``shards=1`` degenerates to a single manager over the
full universe and is byte-identical to using
:class:`~repro.algorithms.online.OnlineAssignmentManager` directly
(test-enforced at shard counts 1/2/8 in
``tests/scale/test_sharded.py``).

Rebalancing runs bounded Distributed-Greedy repair inside each shard,
then spends any remaining budget on the shards that own the current
global witness path — the only shards whose moves can lower the global
maximum.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.online import OnlineAssignmentManager, OnlineConfig
from repro.algorithms.policies import OnlinePolicy, PlacementView, resolve_policy
from repro.core.assignment import Assignment
from repro.core.problem import ClientAssignmentProblem
from repro.errors import (
    CapacityError,
    InvalidAssignmentError,
    InvalidParameterError,
)
from repro.kernels.numpy_backend import objective_refresh, server_path_totals
from repro.net.provider import LatencyProvider
from repro.obs.metrics import registry
from repro.scale.coreset import DEFAULT_CHUNK_SIZE
from repro.types import IndexArrayLike, as_index_array


class ShardedOnlineManager:
    """Routes online churn to per-region shard managers (see module docs).

    Parameters
    ----------
    matrix:
        Latency source over the node universe (any provider).
    servers:
        Node indices hosting servers (shared by every shard).
    config:
        An :class:`~repro.algorithms.online.OnlineConfig`;
        ``config.shards`` sets the region count.
    client_nodes:
        The joinable client universe. Defaults to every non-server node.
    chunk_size:
        Chunking of the nearest-server routing precompute (memory knob
        for million-node universes).
    """

    def __init__(
        self,
        matrix: LatencyProvider,
        servers: IndexArrayLike,
        config: Optional[OnlineConfig] = None,
        *,
        client_nodes: Optional[IndexArrayLike] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        config = config or OnlineConfig()
        self._matrix = matrix
        self._servers = as_index_array(servers, "servers")
        if self._servers.size == 0:
            raise InvalidParameterError("need at least one server")
        self._config = config
        if client_nodes is None:
            mask = np.ones(matrix.n_nodes, dtype=bool)
            mask[self._servers] = False
            universe = np.flatnonzero(mask).astype(np.int64)
        else:
            universe = as_index_array(client_nodes, "client_nodes")
            if universe.size == 0:
                raise InvalidParameterError(
                    "client_nodes must be non-empty when given"
                )
        self._universe = universe
        self._policy = resolve_policy(config.join_policy)
        n_shards = min(config.shards, universe.size)
        #: node -> shard index, for O(1) routing
        self._shard_of: Dict[int, int] = {}
        shard_nodes: List[List[int]] = [[] for _ in range(n_shards)]
        if n_shards == 1:
            for node in universe:
                self._shard_of[int(node)] = 0
            shard_nodes[0] = [int(n) for n in universe]
        else:
            # Region key: nearest-server index, computed in chunks so a
            # million-node universe never materializes |C| x |S| at once.
            for start in range(0, universe.size, chunk_size):
                block = universe[start : start + chunk_size]
                cs = self._matrix.client_server_distances(block, self._servers)
                nearest = np.argmin(cs, axis=1)
                shards = nearest % n_shards
                for node, shard in zip(block, shards):
                    self._shard_of[int(node)] = int(shard)
                    shard_nodes[int(shard)].append(int(node))
        # Empty regions still get a manager (a manager needs >= 1
        # client node); park them on the first universe node — they
        # simply never receive a join.
        self._managers: List[OnlineAssignmentManager] = []
        for shard in range(n_shards):
            nodes = shard_nodes[shard] or [int(universe[0])]
            self._managers.append(
                OnlineAssignmentManager(
                    matrix,
                    self._servers,
                    config,
                    client_nodes=np.asarray(nodes, dtype=np.int64),
                )
            )

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Number of region shards."""
        return len(self._managers)

    @property
    def n_servers(self) -> int:
        """Number of servers."""
        return int(self._servers.size)

    @property
    def config(self) -> OnlineConfig:
        """The shared configuration."""
        return self._config

    @property
    def n_clients(self) -> int:
        """Number of currently connected clients across all shards."""
        return sum(m.n_clients for m in self._managers)

    # Sharded managers do not model server fault events (crash,
    # partition), so every server is always active, reachable, usable —
    # the properties exist so service-layer introspection works
    # uniformly across manager kinds.
    @property
    def n_active_servers(self) -> int:
        """Number of up servers (always all of them; no fault events)."""
        return self.n_servers

    @property
    def n_reachable_servers(self) -> int:
        """Number of reachable servers (always all of them)."""
        return self.n_servers

    @property
    def n_usable_servers(self) -> int:
        """Number of servers accepting clients (always all of them)."""
        return self.n_servers

    def is_active(self, server: int) -> bool:
        """Whether ``server`` is up (always; no fault events)."""
        return True

    def is_reachable(self, server: int) -> bool:
        """Whether ``server`` is reachable (always; no fault events)."""
        return True

    @property
    def capacity(self) -> Optional[int]:
        """The per-server capacity, if any."""
        return self._config.capacity

    @property
    def matrix(self) -> LatencyProvider:
        """The latency source shared by every shard."""
        return self._matrix

    @property
    def server_nodes(self) -> np.ndarray:
        """Node indices hosting the servers (read-only view)."""
        return self._servers

    @property
    def clients(self) -> Tuple[int, ...]:
        """Currently connected client nodes (sorted, all shards)."""
        out: List[int] = []
        for m in self._managers:
            out.extend(m.clients)
        return tuple(sorted(out))

    def shard_of_node(self, client_node: int) -> int:
        """The shard that owns ``client_node``."""
        try:
            return self._shard_of[int(client_node)]
        except KeyError:
            raise InvalidAssignmentError(
                f"client node {client_node} is outside this manager's "
                f"client universe"
            ) from None

    def shard(self, index: int) -> OnlineAssignmentManager:
        """The shard manager at ``index`` (for inspection/tests)."""
        return self._managers[index]

    def loads(self) -> np.ndarray:
        """Per-server client counts, summed over shards."""
        total = np.zeros(self.n_servers, dtype=np.int64)
        for m in self._managers:
            total += m.loads()
        return total

    def is_connected(self, client_node: int) -> bool:
        """Whether ``client_node`` is currently connected."""
        shard = self._shard_of.get(int(client_node))
        return shard is not None and self._managers[shard].is_connected(
            client_node
        )

    def server_of(self, client_node: int) -> int:
        """Local server index of a connected client."""
        return self._managers[self.shard_of_node(client_node)].server_of(
            client_node
        )

    # ------------------------------------------------------------------
    def _out_leg(self, client_node: int) -> np.ndarray:
        node_arr = np.array([client_node], dtype=np.int64)
        return np.ascontiguousarray(
            self._matrix.client_server_distances(node_arr, self._servers)[0],
            dtype=np.float64,
        )

    def _nearest_join_costs(self, client_node: int) -> np.ndarray:
        """The client's outgoing legs, capacity-masked against global loads."""
        costs = self._out_leg(client_node).copy()
        if self._config.capacity is not None:
            costs = np.where(
                self.loads() >= self._config.capacity, np.inf, costs
            )
        return costs

    def _path_join_costs(
        self, client_node: int, *, loads: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Candidate path lengths ``L(s')`` from the *merged* global state.

        Reproduces the unsharded manager's greedy decision exactly: the
        same float64 operations, in the same order, as the engine's
        fused kernel on a full-universe engine — which is what makes
        shard counts 1/2/8 decide identically. Capacity masks against
        *global* loads (or the adjusted ``loads`` a caller passes).
        """
        node_arr = np.array([client_node], dtype=np.int64)
        out_leg = self._out_leg(client_node)
        in_leg = np.ascontiguousarray(
            self._matrix.server_client_distances(self._servers, node_arr)[
                :, 0
            ],
            dtype=np.float64,
        )
        l_out, l_in = self.merged_l_vectors()
        ss = np.asarray(
            self._matrix.server_server_distances(self._servers),
            dtype=np.float64,
        )
        best_in = (ss + l_in[None, :]).max(axis=1)
        best_out = (l_out[:, None] + ss).max(axis=0)
        costs = np.maximum(out_leg + best_in, best_out + in_leg)
        np.maximum(costs, out_leg + in_leg, out=costs)
        if self._config.capacity is not None:
            if loads is None:
                loads = self.loads()
            costs = np.where(loads >= self._config.capacity, np.inf, costs)
        return costs

    def placement_view(self, client_node: int) -> PlacementView:
        """The policy's view of one arriving client (merged global state)."""
        return PlacementView(
            client_node=client_node,
            n_servers=self.n_servers,
            capacity=self._config.capacity,
            nearest_costs=lambda: self._nearest_join_costs(client_node),
            path_costs=lambda: self._path_join_costs(client_node),
            loads=self.loads,
        )

    @property
    def policy(self) -> OnlinePolicy:
        """The resolved placement policy shared by this manager."""
        return self._policy

    def candidate_costs(self, client_node: int) -> np.ndarray:
        """Public masked ``L(s')`` vector for a client (policy seam).

        Mirrors :meth:`OnlineAssignmentManager.candidate_costs` from
        merged global state. A connected client's own contribution is
        *not* removed from the merged ``l`` vectors (the reduction
        keeps it), so the stay-put cost is an upper bound —
        conservative for remediation policies. Capacity credits the
        client's own slot back.
        """
        loads = None
        if (
            self._config.capacity is not None
            and self.is_connected(client_node)
        ):
            loads = self.loads()
            loads[self.server_of(client_node)] -= 1
        return self._path_join_costs(client_node, loads=loads)

    def join(self, client_node: int) -> int:
        """Connect a new client; returns its assigned local server index.

        The placement decision is delegated to the shared policy over a
        merged-state :meth:`placement_view`; the binding is then
        installed into the owning region shard.
        """
        manager = self._managers[self.shard_of_node(client_node)]
        if manager.is_connected(client_node):
            raise InvalidAssignmentError(
                f"client {client_node} already connected"
            )
        best = self._policy.choose_server(self.placement_view(client_node))
        manager.restore_client(client_node, best)
        registry().counter("scale.sharded.joins").inc()
        return best

    def leave(self, client_node: int) -> None:
        """Disconnect a client from its region shard."""
        self._managers[self.shard_of_node(client_node)].leave(client_node)
        registry().counter("scale.sharded.leaves").inc()

    def move(self, client_node: int, server: int) -> None:
        """Reassign a connected client (delegated to its shard).

        Capacity is checked against *global* per-server loads before
        delegation — a shard manager only sees its own members.
        """
        if (
            self._config.capacity is not None
            and 0 <= server < self.n_servers
            and self.is_connected(client_node)
            and self.server_of(client_node) != server
            and int(self.loads()[server]) >= self._config.capacity
        ):
            raise CapacityError(f"server {server} is at capacity")
        self._managers[self.shard_of_node(client_node)].move(
            client_node, server
        )

    # ------------------------------------------------------------------
    def merged_l_vectors(self) -> Tuple[np.ndarray, np.ndarray]:
        """Global per-server ``(l_out, l_in)``: elementwise shard maxima."""
        l_out = np.full(self.n_servers, -np.inf)
        l_in = np.full(self.n_servers, -np.inf)
        for m in self._managers:
            if m.n_clients == 0:
                continue
            shard_out, shard_in = m.l_vectors()
            np.maximum(l_out, shard_out, out=l_out)
            np.maximum(l_in, shard_in, out=l_in)
        return l_out, l_in

    def current_d(self) -> float:
        """The exact global maximum interaction path length.

        Merges the shards' farthest-client vectors (a max decomposes
        over any client partition) and runs the O(|S|^2) server
        reduction; 0.0 with no clients connected.
        """
        l_out, l_in = self.merged_l_vectors()
        if not np.isfinite(l_out).any():
            return 0.0
        return objective_refresh(l_out, l_in, self._server_distances())

    def _server_distances(self) -> np.ndarray:
        return np.asarray(
            self._matrix.server_server_distances(self._servers),
            dtype=np.float64,
        )

    # ------------------------------------------------------------------
    def rebalance(self, *, max_moves: int = 16) -> int:
        """Bounded repair: per-shard DGA, then witness-shard focus.

        Each shard first runs Distributed-Greedy repair with an equal
        slice of the budget. Any remaining budget goes to the shards
        owning the current global witness path (the farthest outgoing
        and incoming legs of the merged reduction) — only their moves
        can lower the global maximum. Returns total moves made.
        """
        if max_moves < 1 or self.n_clients == 0:
            return 0
        per_shard = max(1, max_moves // self.n_shards)
        moves = 0
        for m in self._managers:
            if moves >= max_moves:
                break
            if m.n_clients:
                # reserved = the other shards' loads, recomputed per
                # shard since earlier repairs in this pass moved clients.
                moves += m.rebalance(
                    max_moves=min(per_shard, max_moves - moves),
                    reserved=self.loads() - m.loads(),
                )
        remaining = max_moves - moves
        if remaining > 0 and self.n_shards > 1:
            for shard in self._witness_shards():
                if remaining <= 0:
                    break
                manager = self._managers[shard]
                if manager.n_clients:
                    global_loads = self.loads()
                    made = manager.rebalance(
                        max_moves=remaining,
                        reserved=global_loads - manager.loads(),
                    )
                    moves += made
                    remaining -= made
        registry().counter("scale.sharded.rebalance_moves").inc(moves)
        return moves

    def _witness_shards(self) -> Tuple[int, ...]:
        """Shards owning the legs of the current global witness path."""
        l_out, l_in = self.merged_l_vectors()
        used, totals = server_path_totals(l_out, l_in, self._server_distances())
        if used.size == 0:
            return ()
        flat = int(np.argmax(totals))
        s_out = int(used[flat // used.size])
        s_in = int(used[flat % used.size])
        shards: List[int] = []
        for server, vector_index in ((s_out, 0), (s_in, 1)):
            target = (l_out if vector_index == 0 else l_in)[server]
            for shard, m in enumerate(self._managers):
                if m.n_clients == 0:
                    continue
                if m.l_vectors()[vector_index][server] == target:
                    if shard not in shards:
                        shards.append(shard)
                    break
        return tuple(shards)

    def snapshot(
        self,
    ) -> Tuple[ClientAssignmentProblem, Assignment, Tuple[int, ...]]:
        """Freeze the global state into problem + assignment objects.

        Same contract as :meth:`OnlineAssignmentManager.snapshot`, over
        the union of all shards' connected clients.
        """
        nodes = self.clients
        if not nodes:
            raise InvalidAssignmentError("no clients connected")
        problem = ClientAssignmentProblem(
            self._matrix,
            self._servers,
            clients=list(nodes),
            capacities=self._config.capacity,
        )
        server_of = np.array(
            [self.server_of(n) for n in nodes], dtype=np.int64
        )
        return problem, Assignment(problem, server_of), nodes

    def verify(self) -> bool:
        """Cross-check every shard engine plus the merged global D."""
        for m in self._managers:
            if m.n_clients and not m.verify():
                return False
        # Recompute the global D from scratch via shard snapshots.
        if self.n_clients == 0:
            return True
        d = self.current_d()
        best = -np.inf
        l_out, l_in = self.merged_l_vectors()
        used = np.flatnonzero(np.isfinite(l_out))
        ss = np.asarray(
            self._matrix.server_server_distances(self._servers),
            dtype=np.float64,
        )
        for u in used:
            for v in used:
                best = max(best, l_out[u] + ss[u, v] + l_in[v])
        return abs(best - d) <= 1e-9 * max(1.0, abs(best))

    def __repr__(self) -> str:
        return (
            f"ShardedOnlineManager({self.n_shards} shards, "
            f"{self.n_clients} clients, |S|={self.n_servers})"
        )
