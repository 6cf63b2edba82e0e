"""Online client assignment under churn.

The paper's §VI argues that, unlike server placement, client assignment
"can be adjusted promptly to adapt to system dynamics". This module
makes that concrete: an :class:`OnlineAssignmentManager` maintains an
assignment while clients **join and leave**, using the same move-cost
machinery as Distributed-Greedy:

- **join**: the arriving client is placed on the server minimizing the
  resulting maximum interaction path length through that client
  (``L(s') = max_{s''} d(c, s') + d(s', s'') + l(s'')``), respecting
  capacities — an O(|S|^2) decision, no global recomputation;
- **leave**: the client is removed and its server's farthest-client
  summary refreshed;
- **rebalance**: run a bounded number of Distributed-Greedy
  modifications to repair accumulated drift.

A :func:`simulate_churn` driver replays a Poisson arrival/departure
process and records D over time with and without periodic rebalancing,
so the value of prompt reassignment is measurable (see
``benchmarks/bench_online.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.algorithms.policies import (
    OnlinePolicy,
    PlacementView,
    resolve_policy,
    validate_policy_name,
)
from repro.core.assignment import Assignment
from repro.core.incremental import DEFAULT_TOP_K, IncrementalObjective
from repro.core.metrics import max_interaction_path_length
from repro.core.problem import ClientAssignmentProblem
from repro.errors import (
    CapacityError,
    FailoverError,
    InvalidAssignmentError,
    InvalidParameterError,
)
from repro.net.latency import LatencyMatrix
from repro.net.provider import LatencyProvider
from repro.obs import registry
from repro.types import IndexArrayLike, as_index_array
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class OnlineConfig:
    """Typed configuration for :class:`OnlineAssignmentManager`.

    Consolidates the manager's former keyword sprawl into one validated
    object that can be passed around, serialized (:meth:`to_dict` /
    :meth:`from_dict`), and shared between the library path and the
    service layer (:mod:`repro.service`).

    Parameters
    ----------
    capacity:
        Optional uniform per-server client capacity (``None`` =
        unlimited).
    join_policy:
        Placement rule for arrivals, by name from the
        :mod:`repro.algorithms.policies` registry: ``"greedy"``
        minimizes the resulting D, ``"nearest"`` is the
        deployed-system default; ``"threshold"`` and ``"spread"`` are
        remediation-style policies (see ``docs/scenarios.md``).
    backend:
        Kernel backend for the manager's incremental engine — one of
        ``"auto"`` (default), ``"numba"``, ``"numpy"``; see
        :func:`repro.kernels.resolve_backend` and
        ``docs/performance.md``.
    top_k:
        Per-server, per-direction top-k retention of the engine's
        farthest-client lists (default
        :data:`repro.core.incremental.DEFAULT_TOP_K`). Larger values
        trade memory for fewer lazy rebuilds under heavy churn.
    shards:
        Number of region shards for
        :class:`~repro.scale.sharded.ShardedOnlineManager` (default 1 =
        a single unsharded manager). The plain
        :class:`OnlineAssignmentManager` ignores this knob; it exists on
        the config so the service layer can carry one serialized object
        for both deployment shapes.
    """

    capacity: Optional[int] = None
    join_policy: str = "greedy"
    backend: str = "auto"
    top_k: int = DEFAULT_TOP_K
    shards: int = 1

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity < 1:
            raise InvalidParameterError(
                f"capacity must be >= 1, got {self.capacity}"
            )
        validate_policy_name(self.join_policy)
        from repro.kernels import validate_backend_name

        validate_backend_name(self.backend)
        if self.top_k < 2:
            raise InvalidParameterError(
                f"top_k must be >= 2, got {self.top_k}"
            )
        if self.shards < 1:
            raise InvalidParameterError(
                f"shards must be >= 1, got {self.shards}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable view (stable keys, scalars only)."""
        return {
            "capacity": None if self.capacity is None else int(self.capacity),
            "join_policy": self.join_policy,
            "backend": self.backend,
            "top_k": int(self.top_k),
            "shards": int(self.shards),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "OnlineConfig":
        """Rebuild a config from :meth:`to_dict` output.

        ``backend`` / ``top_k`` / ``shards`` default when absent so
        configs (and checkpoints) serialized before those knobs existed
        keep loading.
        """
        capacity = data.get("capacity")
        return cls(
            capacity=None if capacity is None else int(capacity),
            join_policy=str(data.get("join_policy", "greedy")),
            backend=str(data.get("backend", "auto")),
            top_k=int(data.get("top_k", DEFAULT_TOP_K)),
            shards=int(data.get("shards", 1)),
        )


class OnlineAssignmentManager:
    """Maintains a client assignment under joins, leaves and rebalances.

    Parameters
    ----------
    matrix:
        Latency source over the node universe — a dense
        :class:`~repro.net.latency.LatencyMatrix` or any other
        :class:`~repro.net.provider.LatencyProvider`.
    servers:
        Node indices hosting servers.
    config:
        An :class:`OnlineConfig` (capacity, join policy, kernel
        backend, top-k); defaults to ``OnlineConfig()``.
    client_nodes:
        Optional restriction of the joinable client universe to these
        node indices (the region-sharding hook:
        :class:`~repro.scale.sharded.ShardedOnlineManager` gives each
        shard the nodes routed to it). ``None`` (the default) keeps the
        historical behavior — every node may join.

    Notes
    -----
    Clients are identified by their **node index** in the matrix. The
    manager's state lives in an
    :class:`~repro.core.incremental.IncrementalObjective` over the
    client universe (partial assignment: unconnected nodes are simply
    unassigned), which keeps the per-server farthest-client summaries
    (the ``l(s)`` of the paper's §IV-D, split by direction) and the
    best-completion reductions cached. Joins and move-cost queries are
    O(|S|) on warm caches and the current D is always available from the
    engine's cache — independent of the number of connected clients.
    """

    def __init__(
        self,
        matrix: LatencyProvider,
        servers: IndexArrayLike,
        config: Optional[OnlineConfig] = None,
        *,
        client_nodes: Optional[IndexArrayLike] = None,
    ) -> None:
        config = config or OnlineConfig()
        self._matrix = matrix
        self._servers = as_index_array(servers, "servers")
        if self._servers.size == 0:
            raise InvalidParameterError("need at least one server")
        self._config = config
        self._capacity = config.capacity
        self._join_policy = config.join_policy
        self._policy = resolve_policy(config.join_policy)
        #: node -> local server index
        self._assigned: Dict[int, int] = {}
        #: per-server member node sets
        self._members: List[Set[int]] = [set() for _ in range(self._servers.size)]
        #: per-server liveness; crashed servers are excluded from every
        #: placement decision until reactivated
        self._active = np.ones(self._servers.size, dtype=bool)
        #: per-server reachability; partitioned servers are excluded
        #: from placement like crashed ones, but keep their members
        #: (clients ride out the partition on a stale assignment)
        self._reachable = np.ones(self._servers.size, dtype=bool)
        # Incremental objective over the client universe; connected
        # clients are assigned, everything else stays unassigned. The
        # manager's uniform capacity and liveness masks are applied at
        # decision time, so the engine's problem carries no capacities.
        # Without a client_nodes restriction the universe's local client
        # index coincides with the node index (clients default to every
        # node), so no translation happens on that path; a restricted
        # universe carries an explicit node -> engine-index map.
        if client_nodes is None:
            self._client_nodes: Optional[np.ndarray] = None
            self._node_to_engine: Optional[Dict[int, int]] = None
            self._universe = ClientAssignmentProblem(matrix, self._servers)
        else:
            nodes = as_index_array(client_nodes, "client_nodes")
            if nodes.size == 0:
                raise InvalidParameterError(
                    "client_nodes must be non-empty when given"
                )
            self._client_nodes = nodes
            self._node_to_engine = {int(n): i for i, n in enumerate(nodes)}
            self._universe = ClientAssignmentProblem(
                matrix, self._servers, clients=nodes
            )
        self._engine = IncrementalObjective(
            self._universe,
            history=False,
            k=config.top_k,
            backend=config.backend,
        )

    def _engine_index(self, client_node: int) -> int:
        """The engine's local client index for a node (identity when the
        universe is unrestricted)."""
        if self._node_to_engine is None:
            return client_node
        try:
            return self._node_to_engine[client_node]
        except KeyError:
            raise InvalidAssignmentError(
                f"client node {client_node} is outside this manager's "
                f"client universe"
            ) from None

    # ------------------------------------------------------------------
    @property
    def n_servers(self) -> int:
        """Number of servers."""
        return int(self._servers.size)

    @property
    def config(self) -> OnlineConfig:
        """The manager's resolved configuration."""
        return self._config

    @property
    def capacity(self) -> Optional[int]:
        """Uniform per-server client capacity (None = unlimited)."""
        return self._capacity

    @property
    def server_nodes(self) -> np.ndarray:
        """Node indices of the servers (copy)."""
        return self._servers.copy()

    @property
    def matrix(self) -> LatencyProvider:
        """The latency provider the manager operates on."""
        return self._matrix

    @property
    def client_nodes(self) -> Optional[np.ndarray]:
        """The restricted client universe, or ``None`` (= every node)."""
        if self._client_nodes is None:
            return None
        return self._client_nodes.copy()

    @property
    def n_clients(self) -> int:
        """Number of currently connected clients."""
        return len(self._assigned)

    @property
    def clients(self) -> Tuple[int, ...]:
        """Currently connected client nodes (sorted)."""
        return tuple(sorted(self._assigned))

    def server_of(self, client_node: int) -> int:
        """Local server index of a connected client."""
        return self._assigned[client_node]

    def is_connected(self, client_node: int) -> bool:
        """Whether ``client_node`` is currently connected."""
        return client_node in self._assigned

    def loads(self) -> np.ndarray:
        """Per-server client counts."""
        return np.array([len(m) for m in self._members], dtype=np.int64)

    # ------------------------------------------------------------------
    # Server liveness (fail-stop crash / recovery support)
    # ------------------------------------------------------------------
    @property
    def n_active_servers(self) -> int:
        """Number of servers currently up."""
        return int(self._active.sum())

    def is_active(self, server: int) -> bool:
        """Whether local server ``server`` is up."""
        self._check_server_index(server)
        return bool(self._active[server])

    def members_of(self, server: int) -> Tuple[int, ...]:
        """Client nodes currently assigned to a server (sorted)."""
        self._check_server_index(server)
        return tuple(sorted(self._members[server]))

    def _check_server_index(self, server: int) -> None:
        if not 0 <= server < self.n_servers:
            raise InvalidParameterError(
                f"server index {server} out of range [0, {self.n_servers})"
            )

    def deactivate_server(self, server: int) -> Tuple[int, ...]:
        """Mark a server as crashed (fail-stop).

        The server is excluded from every subsequent placement decision
        (joins, evacuations, rebalances) until
        :meth:`reactivate_server`. Its members are **not** moved — call
        :meth:`evacuate` to reassign them. Returns the stranded client
        nodes so the caller can drive the evacuation. Idempotent.
        """
        self._check_server_index(server)
        self._active[server] = False
        return tuple(sorted(self._members[server]))

    def reactivate_server(self, server: int) -> None:
        """Mark a previously crashed server as up again. Idempotent.

        The recovered server starts empty; run :meth:`rebalance` to move
        clients back onto it where that shortens interaction paths.
        """
        self._check_server_index(server)
        self._active[server] = True

    # ------------------------------------------------------------------
    # Server reachability (network partition support)
    # ------------------------------------------------------------------
    @property
    def n_reachable_servers(self) -> int:
        """Number of servers not currently behind a partition."""
        return int(self._reachable.sum())

    @property
    def n_usable_servers(self) -> int:
        """Number of servers both up and reachable."""
        return int((self._active & self._reachable).sum())

    def is_reachable(self, server: int) -> bool:
        """Whether local server ``server`` is on our side of the network."""
        self._check_server_index(server)
        return bool(self._reachable[server])

    def partition_server(self, server: int) -> Tuple[int, ...]:
        """Mark a server as unreachable (network partition). Idempotent.

        Unlike :meth:`deactivate_server`, the server is presumed still
        *running*: its members stay assigned (serving with a stale
        assignment) but it is excluded from every placement decision —
        joins, moves, evacuations and rebalances — until
        :meth:`heal_server`. Returns the member nodes riding out the
        partition.
        """
        self._check_server_index(server)
        self._reachable[server] = False
        return tuple(sorted(self._members[server]))

    def heal_server(self, server: int) -> None:
        """Mark a partitioned server as reachable again. Idempotent."""
        self._check_server_index(server)
        self._reachable[server] = True

    def _usable(self) -> np.ndarray:
        """Boolean mask of servers valid as placement targets."""
        return self._active & self._reachable

    def move(self, client_node: int, server: int) -> None:
        """Reassign a connected client to a specific usable server."""
        if client_node not in self._assigned:
            raise InvalidAssignmentError(f"client {client_node} is not connected")
        self._check_server_index(server)
        if not self._active[server]:
            raise FailoverError(f"cannot move client onto down server {server}")
        if not self._reachable[server]:
            raise FailoverError(
                f"cannot move client onto unreachable server {server}"
            )
        if (
            self._capacity is not None
            and self._assigned[client_node] != server
            and len(self._members[server]) >= self._capacity
        ):
            raise CapacityError(f"server {server} is at capacity")
        old = self._assigned[client_node]
        if old != server:
            self._members[old].discard(client_node)
            self._members[server].add(client_node)
            self._assigned[client_node] = server
            self._engine.apply(self._engine_index(client_node), server)

    def evacuate(self, server: int) -> List[Tuple[int, int]]:
        """Reassign every client of ``server`` onto the active servers.

        Capacity-aware and greedy: clients are drained farthest-first
        (largest round trip to their dead server first) and each is
        placed by the same ``L(s')`` move-cost rule as a join. The whole
        evacuation is feasibility-checked up front so a failed
        evacuation never leaves the manager half-moved; insufficient
        surviving capacity raises :class:`~repro.errors.FailoverError`.

        Returns the ``(client_node, new_server)`` moves made.
        """
        self._check_server_index(server)
        stranded = self._members[server]
        if not stranded:
            return []
        if self._active[server]:
            raise FailoverError(
                f"server {server} is still active; deactivate it before "
                f"evacuating (or use move() to drain it)"
            )
        usable = self._usable()
        if not usable.any():
            raise FailoverError(
                "every server is down or unreachable; nowhere to evacuate to"
            )
        if self._capacity is not None:
            loads = self.loads()
            free = int(
                (self._capacity - loads[usable]).clip(min=0).sum()
            )
            if free < len(stranded):
                raise FailoverError(
                    f"cannot evacuate server {server}: {len(stranded)} "
                    f"client(s) stranded but only {free} free slot(s) on "
                    f"surviving servers"
                )
        # Round trips to the dead server via provider block calls — one
        # (|stranded|, 1) slice per direction, never the dense matrix.
        stranded_arr = np.fromiter(stranded, dtype=np.int64, count=len(stranded))
        node = self._servers[server]
        node_arr = np.array([node], dtype=np.int64)
        to_node = self._matrix.client_server_distances(stranded_arr, node_arr)
        from_node = self._matrix.server_client_distances(node_arr, stranded_arr)
        round_trip = {
            int(c): max(float(to_node[i, 0]), float(from_node[0, i]))
            for i, c in enumerate(stranded_arr)
        }
        order = sorted(stranded, key=lambda c: (-round_trip[c], c))
        moves: List[Tuple[int, int]] = []
        for client in order:
            costs = self._candidate_costs(client, exclude_self=True)
            best = int(np.argmin(costs))
            if not np.isfinite(costs[best]):
                # Unreachable given the up-front feasibility check, but
                # fail loudly rather than corrupt state.
                raise FailoverError(
                    f"no feasible server for evacuated client {client}"
                )
            self.move(client, best)
            moves.append((client, best))
        return moves

    # ------------------------------------------------------------------
    def current_d(self) -> float:
        """The maximum interaction path length of the current state.

        Served from the incremental engine's cache (exact, directional).
        Returns 0.0 with no clients connected.
        """
        return self._engine.d()

    def l_vectors(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(l_out, l_in)`` per-server farthest-client legs (copies).

        Unused servers hold ``-inf``. The sharded manager merges these
        across shards (elementwise max) to recover the exact global D.
        """
        return self._engine.l_vectors()

    def _candidate_costs(self, client_node: int, *, exclude_self: bool) -> np.ndarray:
        """L(s') for assigning ``client_node`` to each server.

        Served by the incremental engine in O(|S|) on warm caches. A
        connected client's own contribution is always excluded by the
        engine (``exclude_self`` is only meaningful for connected
        clients; joins pass ``False`` for documentation value).
        """
        del exclude_self  # the engine excludes a connected client itself
        costs, _d_rest = self._engine.candidate_paths(
            self._engine_index(client_node)
        )
        if self._capacity is not None:
            loads = self._engine.loads
            if client_node in self._assigned:
                loads[self._assigned[client_node]] -= 1
            costs = np.where(loads >= self._capacity, np.inf, costs)
        return np.where(self._usable(), costs, np.inf)

    def candidate_costs(self, client_node: int) -> np.ndarray:
        """Public masked ``L(s')`` vector for a client (policy seam).

        For a connected client the cost of staying put is included
        (own contribution excluded by the engine; own capacity slot
        credited back), so remediation policies can compare "stay"
        against every alternative. Unusable or saturated servers hold
        ``+inf``.
        """
        return self._candidate_costs(
            client_node, exclude_self=client_node in self._assigned
        )

    def _nearest_join_costs(self, client_node: int) -> np.ndarray:
        """Masked outgoing legs for a join (the historical nearest rule)."""
        costs = self._matrix.client_server_distances(
            np.array([client_node], dtype=np.int64), self._servers
        )[0].astype(float)
        if self._capacity is not None:
            costs = np.where(self.loads() >= self._capacity, np.inf, costs)
        return np.where(self._usable(), costs, np.inf)

    def placement_view(self, client_node: int) -> PlacementView:
        """The :class:`~repro.algorithms.policies.PlacementView` a policy
        sees when placing ``client_node``."""
        return PlacementView(
            client_node=client_node,
            n_servers=self.n_servers,
            capacity=self._capacity,
            nearest_costs=lambda: self._nearest_join_costs(client_node),
            path_costs=lambda: self._candidate_costs(
                client_node, exclude_self=False
            ),
            loads=self.loads,
        )

    @property
    def policy(self) -> OnlinePolicy:
        """The manager's resolved placement policy instance."""
        return self._policy

    # ------------------------------------------------------------------
    def join(self, client_node: int) -> int:
        """Connect a new client; returns its assigned local server index.

        The placement decision is delegated to the manager's
        :class:`~repro.algorithms.policies.OnlinePolicy`. Raises
        :class:`~repro.errors.InvalidAssignmentError` if already
        connected and :class:`~repro.errors.CapacityError` when every
        server is saturated.
        """
        if client_node in self._assigned:
            raise InvalidAssignmentError(f"client {client_node} already connected")
        if not 0 <= client_node < self._matrix.n_nodes:
            raise InvalidAssignmentError(f"client node {client_node} out of range")
        engine_idx = self._engine_index(client_node)
        best = self._policy.choose_server(self.placement_view(client_node))
        self._assigned[client_node] = best
        self._members[best].add(client_node)
        self._engine.apply(engine_idx, best)
        registry().counter("online.joins").inc()
        return best

    def leave(self, client_node: int) -> None:
        """Disconnect a client."""
        try:
            server = self._assigned.pop(client_node)
        except KeyError:
            raise InvalidAssignmentError(
                f"client {client_node} is not connected"
            ) from None
        self._members[server].discard(client_node)
        self._engine.unassign(self._engine_index(client_node))
        registry().counter("online.leaves").inc()

    def restore_client(self, client_node: int, server: int) -> None:
        """Install a client→server binding verbatim (recovery path).

        Used by :mod:`repro.resilience.checkpoint` to rebuild a
        manager from a snapshot: the binding was legal when it was
        recorded, so no placement policy runs and liveness /
        reachability / capacity checks are bypassed — a binding onto a
        currently-down server is exactly what a mid-outage checkpoint
        contains.
        """
        if client_node in self._assigned:
            raise InvalidAssignmentError(f"client {client_node} already connected")
        if not 0 <= client_node < self._matrix.n_nodes:
            raise InvalidAssignmentError(f"client node {client_node} out of range")
        self._check_server_index(server)
        engine_idx = self._engine_index(client_node)
        self._assigned[client_node] = server
        self._members[server].add(client_node)
        self._engine.apply(engine_idx, server)

    def rebalance(
        self,
        *,
        max_moves: int = 16,
        reserved: Optional[np.ndarray] = None,
    ) -> int:
        """Run bounded Distributed-Greedy repair; returns moves made.

        ``reserved`` (length ``|S|``) subtracts externally-held slots
        from this manager's uniform capacity during repair — the
        region-sharding layer passes the other shards' per-server loads
        so a shard's repair can never overfill a server globally.
        """
        if len(self._assigned) < 1 or max_moves < 1:
            return 0
        result = self._run_dga(max_moves, reserved)
        registry().counter("online.rebalance_moves").inc(result)
        return result

    def _run_dga(
        self, max_moves: int, reserved: Optional[np.ndarray] = None
    ) -> int:
        from repro.algorithms.distributed_greedy import distributed_greedy_detailed

        # Repair runs over the *usable* servers only, so a bounded
        # rebalance can never move a client onto a crashed or
        # partitioned server.
        usable = np.flatnonzero(self._usable())
        stranded = [
            node
            for node, s in self._assigned.items()
            if not self._active[s]
        ]
        if stranded:
            raise FailoverError(
                f"{len(stranded)} client(s) still assigned to down "
                f"server(s); evacuate before rebalancing"
            )
        # Clients riding out a partition on an unreachable server keep
        # their stale assignment: they cannot be reached to be moved,
        # so the repair problem covers only clients on usable servers.
        nodes = tuple(
            sorted(
                node
                for node, s in self._assigned.items()
                if self._reachable[s]
            )
        )
        if not nodes or usable.size == 0:
            return 0
        capacities: Union[None, int, np.ndarray] = self._capacity
        if capacities is not None and reserved is not None:
            capacities = (
                np.full(usable.size, int(capacities), dtype=np.int64)
                - np.asarray(reserved, dtype=np.int64)[usable]
            )
        problem = ClientAssignmentProblem(
            self._matrix,
            self._servers[usable],
            clients=list(nodes),
            capacities=capacities,
        )
        to_sub = {int(s): i for i, s in enumerate(usable)}
        server_of = np.array(
            [to_sub[self._assigned[n]] for n in nodes], dtype=np.int64
        )
        result = distributed_greedy_detailed(
            problem,
            initial=Assignment(problem, server_of),
            max_modifications=max_moves,
        )
        # Fold the improved assignment back into the live state. Applied
        # directly (not via move()) because the final assignment honors
        # capacities even where individual steps would transiently not.
        for local_idx, node in enumerate(nodes):
            new_server = int(usable[result.assignment.server_of[local_idx]])
            old_server = self._assigned[node]
            if new_server != old_server:
                self._members[old_server].discard(node)
                self._members[new_server].add(node)
                self._assigned[node] = new_server
                self._engine.apply(self._engine_index(node), new_server)
        return result.n_modifications

    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[ClientAssignmentProblem, Assignment, Tuple[int, ...]]:
        """Freeze the current state into problem + assignment objects.

        Returns ``(problem, assignment, client_nodes)`` where
        ``client_nodes[i]`` is the node of local client ``i``.
        """
        if not self._assigned:
            raise InvalidAssignmentError("no clients connected")
        nodes = tuple(sorted(self._assigned))
        problem = ClientAssignmentProblem(
            self._matrix,
            self._servers,
            clients=list(nodes),
            capacities=self._capacity,
        )
        server_of = np.array([self._assigned[n] for n in nodes], dtype=np.int64)
        return problem, Assignment(problem, server_of), nodes

    def verify(self) -> bool:
        """Internal consistency check: incremental D equals the exact D."""
        if not self._assigned:
            return True
        _problem, assignment, _nodes = self.snapshot()
        exact = max_interaction_path_length(assignment)
        return abs(exact - self.current_d()) <= 1e-6 * max(1.0, exact)


# ----------------------------------------------------------------------
# Churn driver
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChurnTracePoint:
    """State after one churn event."""

    event_index: int
    event: str  # "join" | "leave" | "rebalance"
    n_clients: int
    d: float


@dataclass(frozen=True)
class ChurnResult:
    """Outcome of a churn simulation."""

    trace: Tuple[ChurnTracePoint, ...]
    moves_by_rebalance: int

    def mean_d(self) -> float:
        """Time-average D over the trace (ignoring empty-system points)."""
        values = [p.d for p in self.trace if p.n_clients > 0]
        return float(np.mean(values)) if values else 0.0

    def final_d(self) -> float:
        """D after the last event."""
        return self.trace[-1].d if self.trace else 0.0


def simulate_churn(
    matrix: LatencyProvider,
    servers: IndexArrayLike,
    *,
    n_events: int = 200,
    join_probability: float = 0.55,
    rebalance_every: Optional[int] = None,
    rebalance_moves: int = 8,
    capacity: Optional[int] = None,
    join_policy: str = "greedy",
    backend: str = "auto",
    seed: SeedLike = 0,
) -> ChurnResult:
    """Replay a random join/leave sequence through the online manager.

    Joins pick a uniformly random unconnected node; leaves pick a
    uniformly random connected client. When ``rebalance_every`` is set,
    a bounded Distributed-Greedy repair runs after every that-many
    events. Returns the D-over-time trace. ``join_policy`` selects the
    placement rule for arrivals ("greedy" = minimize resulting D,
    "nearest" = deployed-system default); ``backend`` the manager's
    kernel backend.
    """
    if not 0.0 < join_probability < 1.0:
        raise InvalidParameterError("join_probability must be in (0, 1)")
    rng = ensure_rng(seed)
    manager = OnlineAssignmentManager(
        matrix,
        servers,
        OnlineConfig(
            capacity=capacity, join_policy=join_policy, backend=backend
        ),
    )
    server_set = set(int(s) for s in as_index_array(servers))
    candidates = [u for u in range(matrix.n_nodes) if u not in server_set]
    trace: List[ChurnTracePoint] = []
    total_moves = 0

    for i in range(n_events):
        connected = manager.clients
        do_join = (not connected) or (
            len(connected) < len(candidates) and rng.uniform() < join_probability
        )
        if do_join:
            free = [u for u in candidates if not manager.is_connected(u)]
            node = int(free[rng.integers(0, len(free))])
            try:
                manager.join(node)
                event = "join"
            except CapacityError:
                if not connected:
                    continue
                manager.leave(int(connected[rng.integers(0, len(connected))]))
                event = "leave"
        else:
            manager.leave(int(connected[rng.integers(0, len(connected))]))
            event = "leave"
        trace.append(
            ChurnTracePoint(i, event, manager.n_clients, manager.current_d())
        )
        if rebalance_every and (i + 1) % rebalance_every == 0 and manager.n_clients:
            moves = manager.rebalance(max_moves=rebalance_moves)
            total_moves += moves
            trace.append(
                ChurnTracePoint(
                    i, "rebalance", manager.n_clients, manager.current_d()
                )
            )
    return ChurnResult(trace=tuple(trace), moves_by_rebalance=total_moves)
