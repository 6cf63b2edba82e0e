"""Chaos harness: kill the runtime mid-workload, recover, diff.

The property the whole resilience layer is gated on:

    the workload is applied in seeded requests of 1 to
    :data:`MAX_REQUEST_EVENTS` events, each ending in a commit
    (:meth:`~repro.resilience.runtime.DurableRuntime.sync`), as the
    service applies its requests. For every kill point ``k``, a power
    cut after event ``k`` — the runtime abandoned, its WAL truncated to
    the last fsynced byte, optionally followed by a torn record — and
    recovery from disk yield (1) a **byte-identical** state digest to
    the uninterrupted baseline at the last acknowledged request
    boundary ``a <= k``, and (2) an **identical D/interactivity
    trajectory and final digest** when events ``[a, n)`` are replayed
    on the recovered runtime.

:func:`chaos_workload` draws the workload: joins/leaves from a seeded
churn process interleaved with crash/recover edges from an
MTTF/MTTR :class:`~repro.faults.schedule.FaultSchedule` and
partition/heal edges from
:func:`~repro.faults.models.random_partition_schedule`. The generator
tracks its own believed-connected set, so the event list is fixed
up-front — the runtime's admission outcomes (queued, rejected) never
feed back into the workload, which is what makes baseline and replay
see the same events.

:func:`run_chaos` runs the baseline and every kill point and returns a
:class:`ChaosReport`; ``repro chaos`` is the CLI wrapper and the
``chaos-smoke`` CI job asserts ``report.ok`` at a fixed seed.
"""

from __future__ import annotations

import bisect
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.algorithms.online import OnlineConfig
from repro.errors import InvalidParameterError
from repro.faults.models import random_partition_schedule
from repro.faults.schedule import FaultSchedule
from repro.net.latency import LatencyMatrix
from repro.obs import registry, span
from repro.resilience.degrade import DegradePolicy
from repro.resilience.runtime import WAL_NAME, DurabilityConfig, DurableRuntime
from repro.types import IndexArrayLike, as_index_array
from repro.utils.rng import SeedLike, derive_seed, ensure_rng


def chaos_workload(
    matrix: LatencyMatrix,
    servers: IndexArrayLike,
    *,
    n_events: int = 120,
    join_probability: float = 0.6,
    mttf: Optional[float] = None,
    mttr: Optional[float] = None,
    partition_mtbp: Optional[float] = None,
    partition_mttr: Optional[float] = None,
    seed: SeedLike = 0,
) -> Tuple[Dict[str, Any], ...]:
    """Draw a deterministic churn-under-faults event list.

    Events are in wire form (``{"op": "join", "node": 17}``, see
    :func:`~repro.resilience.runtime.parse_event`), ready for
    :meth:`DurableRuntime.apply <repro.resilience.runtime.DurableRuntime.apply>`.

    One churn event (join or leave) per integer tick; crash/recover and
    partition/heal edges fire at the tick their schedule time rounds
    into. Defaults scale the fault rates to ``n_events`` so a typical
    workload sees a handful of crashes and at least one partition
    window. ``mttf=float('inf')``-style suppression: pass huge values
    to disable a fault class.
    """
    if n_events < 1:
        raise InvalidParameterError(f"n_events must be >= 1, got {n_events}")
    if not 0.0 < join_probability < 1.0:
        raise InvalidParameterError("join_probability must be in (0, 1)")
    server_array = as_index_array(servers, "servers")
    n_servers = int(server_array.size)
    horizon = float(n_events)
    mttf = float(mttf) if mttf is not None else max(8.0, horizon / 2)
    mttr = float(mttr) if mttr is not None else max(4.0, horizon / 10)
    partition_mtbp = (
        float(partition_mtbp) if partition_mtbp is not None else horizon / 2
    )
    partition_mttr = (
        float(partition_mttr) if partition_mttr is not None else horizon / 8
    )
    base_seed = seed if isinstance(seed, int) else None
    crash_seed = derive_seed(base_seed, 1)
    partition_seed = derive_seed(base_seed, 2)
    schedule = FaultSchedule.generate(
        n_servers,
        horizon,
        mttf=mttf,
        mttr=mttr,
        seed=crash_seed if crash_seed is not None else 1,
        max_concurrent_down=max(1, n_servers - 1),
        partitions=random_partition_schedule(
            n_servers,
            horizon,
            mtbp=partition_mtbp,
            mttr=partition_mttr,
            seed=partition_seed if partition_seed is not None else 2,
        ),
    )
    fault_edges = schedule.all_events()
    rng = ensure_rng(seed)
    server_set = set(int(s) for s in server_array)
    candidates = [u for u in range(matrix.n_nodes) if u not in server_set]
    believed: Set[int] = set()
    # Mirror of the availability masks, so the generator never emits a
    # crash for a down server or a heal for a reachable one even after
    # the concurrency-capped schedule skipped edges.
    down: Set[int] = set()
    unreachable: Set[int] = set()
    events: List[Dict[str, Any]] = []
    edge_index = 0
    for tick in range(n_events):
        while edge_index < len(fault_edges) and fault_edges[edge_index].time <= tick:
            edge = fault_edges[edge_index]
            edge_index += 1
            if edge.kind == "crash" and edge.server not in down:
                down.add(edge.server)
                events.append({"op": "crash", "server": int(edge.server)})
            elif edge.kind == "recover" and edge.server in down:
                down.remove(edge.server)
                events.append({"op": "recover", "server": int(edge.server)})
            elif edge.kind == "partition" and edge.server not in unreachable:
                unreachable.add(edge.server)
                events.append({"op": "partition", "servers": [int(edge.server)]})
            elif edge.kind == "heal" and edge.server in unreachable:
                unreachable.remove(edge.server)
                events.append({"op": "heal", "servers": [int(edge.server)]})
        do_join = (not believed) or (
            len(believed) < len(candidates)
            and rng.uniform() < join_probability
        )
        if do_join:
            free = [u for u in candidates if u not in believed]
            node = int(free[rng.integers(0, len(free))])
            believed.add(node)
            events.append({"op": "join", "node": node})
        else:
            pool = sorted(believed)
            node = int(pool[rng.integers(0, len(pool))])
            believed.remove(node)
            events.append({"op": "leave", "node": node})
    return tuple(events)


#: Bytes appended to simulate a writer killed mid-record: valid-looking
#: JSON prefix, no checksum, no terminating newline.
TORN_TAIL = b'{"crc":"00000000","data":{"node":'

#: Largest request (events per commit) the harness draws.
MAX_REQUEST_EVENTS = 16


def request_boundaries(n_events: int, seed: SeedLike = 0) -> Tuple[int, ...]:
    """Seeded request ends: event counts after which a request commits.

    Request sizes are drawn uniformly from ``1..MAX_REQUEST_EVENTS``;
    the last boundary is ``n_events``.
    """
    rng = ensure_rng(derive_seed(seed, 3) if isinstance(seed, int) else seed)
    ends: List[int] = []
    end = 0
    while end < n_events:
        end = min(n_events, end + int(rng.integers(1, MAX_REQUEST_EVENTS + 1)))
        ends.append(end)
    return tuple(ends)


@dataclass(frozen=True)
class KillPointResult:
    """Recovery verification at one kill point."""

    kill_point: int
    #: Events acknowledged (committed) before the kill: the last
    #: request boundary at or before it.
    acknowledged: int
    #: WAL records replayed on top of the checkpoint during recovery.
    replayed: int
    torn_tail: bool
    recovery_seconds: float
    #: Recovered digest == baseline digest at the acknowledged point.
    state_match: bool
    #: D after every remaining event matches the baseline bit-for-bit.
    trajectory_match: bool
    #: Digest after replaying the full remainder matches the baseline's.
    final_match: bool

    @property
    def ok(self) -> bool:
        return self.state_match and self.trajectory_match and self.final_match


@dataclass(frozen=True)
class ChaosReport:
    """Outcome of a full chaos run (baseline + all kill points)."""

    n_events: int
    kill_points: Tuple[int, ...]
    results: Tuple[KillPointResult, ...]
    baseline_final_digest: str
    baseline_final_d: float
    baseline_health: str

    @property
    def ok(self) -> bool:
        """Whether every kill point recovered byte-identically."""
        return all(r.ok for r in self.results)

    def render(self) -> str:
        """Human-readable verdict table."""
        lines = [
            f"chaos: {self.n_events} events, "
            f"{len(self.kill_points)} kill point(s), "
            f"baseline D={self.baseline_final_d:.4f} "
            f"({self.baseline_health}), "
            f"digest {self.baseline_final_digest[:12]}…",
            "kill   ack  replayed  torn  state  trajectory  final  recovery",
        ]
        for r in self.results:
            lines.append(
                f"{r.kill_point:4d}  {r.acknowledged:4d}  {r.replayed:8d}  "
                f"{'yes' if r.torn_tail else ' no'}  "
                f"{'  ok' if r.state_match else 'FAIL'}  "
                f"{'        ok' if r.trajectory_match else '      FAIL'}  "
                f"{'  ok' if r.final_match else 'FAIL'}  "
                f"{r.recovery_seconds * 1e3:7.1f}ms"
            )
        lines.append("verdict: " + ("OK" if self.ok else "MISMATCH"))
        return "\n".join(lines)


def run_chaos(
    matrix: LatencyMatrix,
    servers: IndexArrayLike,
    base_dir: os.PathLike,
    *,
    workload: Optional[Sequence[Dict[str, Any]]] = None,
    n_events: int = 120,
    kill_points: Sequence[int] = (),
    seed: SeedLike = 0,
    capacity: Optional[int] = None,
    policy: Optional[DegradePolicy] = None,
    tear_tail: bool = True,
) -> ChaosReport:
    """Run the power-cut/recover/diff property over a workload.

    Events go in seeded requests (:func:`request_boundaries`), each
    committed with :meth:`DurableRuntime.sync`. For each kill point
    ``k``: apply events ``[0, k)`` the same way into a fresh runtime
    under ``base_dir/kill-k``, abandon it, truncate its WAL to the last
    fsynced byte, optionally append a torn tail, recover from disk and
    compare digests against the baseline at the last acknowledged
    boundary ``a <= k``; then replay events ``[a, n)`` and compare the
    D trajectory (exact float equality) and final digest. Empty
    ``kill_points`` defaults to three indices spread across the
    workload.
    """
    events = tuple(workload) if workload is not None else chaos_workload(
        matrix, servers, n_events=n_events, seed=seed
    )
    n_total = len(events)
    if not kill_points:
        kill_points = (
            max(1, n_total // 4),
            max(1, n_total // 2),
            max(1, (3 * n_total) // 4),
        )
    kill_points = tuple(sorted(set(int(k) for k in kill_points)))
    for k in kill_points:
        if not 1 <= k <= n_total:
            raise InvalidParameterError(
                f"kill point {k} outside [1, {n_total}]"
            )
    base_dir = os.fspath(base_dir)
    os.makedirs(base_dir, exist_ok=True)
    boundaries = (0,) + request_boundaries(n_total, seed)
    commits = set(boundaries)
    acknowledged = {
        k: boundaries[bisect.bisect_right(boundaries, k) - 1] for k in kill_points
    }
    durability = DurabilityConfig()
    common = dict(
        online=OnlineConfig(capacity=capacity),
        durability=durability,
        policy=policy,
    )

    # ------------------------------------------------------------- baseline
    with span("chaos.baseline", events=n_total):
        baseline = DurableRuntime(
            os.path.join(base_dir, "baseline"), matrix, servers, **common
        )
        wanted = set(acknowledged.values())
        digest_at: Dict[int, str] = {0: baseline.digest()}
        trajectory: List[float] = []
        for i, event in enumerate(events):
            baseline.apply(event)
            trajectory.append(baseline.current_d())
            if i + 1 in commits:
                baseline.sync()
            if i + 1 in wanted:
                digest_at[i + 1] = baseline.digest()
        baseline_final_digest = baseline.digest()
        baseline_final_d = baseline.current_d()
        baseline_health = baseline.health
        baseline.close()

    # ---------------------------------------------------------- kill points
    results: List[KillPointResult] = []
    for k in kill_points:
        a = acknowledged[k]
        directory = os.path.join(base_dir, f"kill-{k:05d}")
        wal_path = os.path.join(directory, WAL_NAME)
        with span("chaos.kill_point", kill_point=k):
            victim = DurableRuntime(directory, matrix, servers, **common)
            for i, event in enumerate(events[:k]):
                victim.apply(event)
                if i + 1 in commits:
                    victim.sync()
            checkpoint_seq = victim._last_checkpoint_seq
            durable_bytes = victim.wal.synced_bytes
            victim.abandon()
            os.truncate(wal_path, durable_bytes)
            if tear_tail:
                with open(wal_path, "ab") as handle:
                    handle.write(TORN_TAIL)
            start = time.perf_counter()
            recovered = DurableRuntime.recover(
                directory, matrix, durability=durability
            )
            recovery_seconds = time.perf_counter() - start
            replayed = recovered.applied_seq - checkpoint_seq
            state_match = recovered.digest() == digest_at[a]
            trajectory_match = True
            for i in range(a, n_total):
                recovered.apply(events[i])
                if recovered.current_d() != trajectory[i]:
                    trajectory_match = False
            final_match = recovered.digest() == baseline_final_digest
            recovered.close()
        result = KillPointResult(
            kill_point=k,
            acknowledged=a,
            replayed=max(0, replayed),
            torn_tail=tear_tail,
            recovery_seconds=recovery_seconds,
            state_match=state_match,
            trajectory_match=trajectory_match,
            final_match=final_match,
        )
        results.append(result)
        registry().counter(
            "chaos.kill_points_ok" if result.ok else "chaos.kill_points_failed"
        ).inc()

    return ChaosReport(
        n_events=n_total,
        kill_points=kill_points,
        results=tuple(results),
        baseline_final_digest=baseline_final_digest,
        baseline_final_d=baseline_final_d,
        baseline_health=baseline_health,
    )
