"""Durability benchmarks: WAL/checkpoint overhead and recovery time.

Drives the same 10k-event churn-under-faults stream (the chaos
workload) through two configurations of the durable runtime stack:

- **no-WAL baseline** — the full ``DurableRuntime`` event path in
  volatile mode (``durability=off``: an in-memory sequence counter and
  no checkpoints), so the measured delta is exactly the durability cost
  (encode + CRC + write + fsync + snapshot), not wrapper bookkeeping;
- **group-commit WAL** — the amortized configuration
  (``fsync_every=1024``, ``checkpoint_every=2500``), asserted to stay
  within ``OVERHEAD_BUDGET`` of the baseline. The runtime's default
  group of 8 and strict per-record fsync are measured and reported as
  extra rows, not asserted: their cost is one ``fsync(2)`` per 8 (resp.
  1) events, which is a property of the disk, not of the append path.

A second test measures ``DurableRuntime.recover`` wall time against
WAL tail length (no checkpoints, so recovery replays the whole log)
and checks every recovery is byte-identical to the live runtime it
replaces.

Scale knobs (smoke runs shrink them; see the ``bench-smoke`` CI job):
``REPRO_BENCH_RESILIENCE_EVENTS`` (default 10000),
``REPRO_BENCH_RESILIENCE_NODES`` (default 2000),
``REPRO_BENCH_RESILIENCE_SERVERS`` (default 48). The overhead budget
is asserted only from ``ASSERT_NODE_FLOOR`` nodes upward — below that
the per-event assignment work is a few tens of microseconds and the
benchmark measures filesystem latency, not the append path.
"""

from __future__ import annotations

import os
import shutil
import time

import pytest

from repro.datasets import synthesize_meridian_like
from repro.experiments.persistence import BenchTable, load_result, save_result
from repro.experiments.reporting import format_table
from repro.placement import kcenter_b
from repro.resilience import DurabilityConfig, DurableRuntime, chaos_workload

OVERHEAD_BUDGET = 1.10
#: Below this node count the workload's per-event cost is too small for
#: durability to amortize against; measurements are recorded, the
#: budget is not asserted (same pattern as bench_parallel's floor).
ASSERT_NODE_FLOOR = 2000


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, str(default)))


N_EVENTS = _env_int("REPRO_BENCH_RESILIENCE_EVENTS", 10_000)
N_NODES = _env_int("REPRO_BENCH_RESILIENCE_NODES", 2_000)
N_SERVERS = _env_int("REPRO_BENCH_RESILIENCE_SERVERS", 48)


@pytest.fixture(scope="module")
def setup():
    matrix = synthesize_meridian_like(N_NODES, seed=0)
    servers = kcenter_b(matrix, N_SERVERS, seed=0)
    events = chaos_workload(matrix, servers, n_events=N_EVENTS, seed=0)
    return matrix, servers, events


def _drive(directory, matrix, servers, events, *, fsync_every, checkpoint_every):
    """Apply the event stream; returns (seconds, final D)."""
    if fsync_every is None:  # no-WAL baseline: volatile mode
        durability = DurabilityConfig(mode="off")
    else:
        durability = DurabilityConfig(
            checkpoint_every=checkpoint_every, fsync_every=fsync_every
        )
    runtime = DurableRuntime(directory, matrix, servers, durability=durability)
    start = time.perf_counter()
    for event in events:
        runtime.apply(event)
    elapsed = time.perf_counter() - start
    final_d = runtime.current_d()
    runtime.abandon()
    shutil.rmtree(directory, ignore_errors=True)
    return elapsed, final_d


def _out_path(tmp_path, filename: str) -> str:
    out = os.environ.get("REPRO_BENCH_OUT")
    return os.path.join(out, filename) if out else str(tmp_path / filename)


def test_wal_overhead(benchmark, setup, tmp_path):
    matrix, servers, events = setup
    checkpoint_every = max(1, N_EVENTS // 4)
    configs = (
        # (label, fsync_every, checkpoint_every, repeats)
        ("no-wal", None, 0, 2),
        ("wal group-1024", 1024, checkpoint_every, 2),
        ("wal group-8 (default)", 8, checkpoint_every, 1),
        ("wal strict fsync", 1, checkpoint_every, 1),
    )

    def run():
        measured = []
        for label, fsync_every, cpe, repeats in configs:
            best, final_d = min(
                _drive(
                    tmp_path / f"{label.split()[0]}-{fsync_every}-{rep}",
                    matrix,
                    servers,
                    events,
                    fsync_every=fsync_every,
                    checkpoint_every=cpe,
                )
                for rep in range(repeats)
            )
            measured.append((label, best, final_d))
        return measured

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    baseline_seconds = measured[0][1]
    baseline_d = measured[0][2]
    rows = tuple(
        (label, len(events), seconds, seconds / baseline_seconds)
        for label, seconds, _ in measured
    )
    table = BenchTable(
        name="bench_resilience_overhead",
        columns=("config", "events", "seconds", "slowdown"),
        rows=rows,
        meta={
            "n_nodes": N_NODES,
            "n_servers": N_SERVERS,
            "checkpoint_every": checkpoint_every,
            "overhead_budget": OVERHEAD_BUDGET,
            "asserted": N_NODES >= ASSERT_NODE_FLOOR,
        },
    )
    path = _out_path(tmp_path, "bench_resilience_overhead.json")
    save_result(path, table)
    assert load_result(path) == table

    print()
    print(
        f"Durability overhead ({len(events)} events, {N_NODES} nodes, "
        f"{N_SERVERS} servers)\n"
        + format_table(
            ["config", "wall (s)", "slowdown"],
            [[label, f"{s:.3f}", f"{s / baseline_seconds:.3f}x"] for label, s, _ in measured],
        )
        + f"\nresults written to {path}"
    )

    # Durability must never change the assignment trajectory.
    for label, _, final_d in measured[1:]:
        assert final_d == baseline_d, f"{label}: final D diverged from baseline"
    if N_NODES >= ASSERT_NODE_FLOOR:
        group = dict((label, s) for label, s, _ in measured)["wal group-1024"]
        slowdown = group / baseline_seconds
        assert slowdown < OVERHEAD_BUDGET, (
            f"group-commit WAL slowdown {slowdown:.3f}x exceeds the "
            f"{OVERHEAD_BUDGET}x budget"
        )


def test_recovery_time_vs_tail_length(benchmark, setup, tmp_path):
    """Recovery wall time as the un-checkpointed WAL tail grows."""
    matrix, servers, events = setup
    tails = sorted(
        {
            max(1, N_EVENTS // 8),
            max(1, N_EVENTS // 4),
            max(1, N_EVENTS // 2),
            N_EVENTS,
        }
    )

    def run():
        measured = []
        for tail in tails:
            directory = tmp_path / f"recover-{tail}"
            runtime = DurableRuntime(
                directory,
                matrix,
                servers,
                durability=DurabilityConfig(checkpoint_every=0, fsync_every=1024),
            )
            for event in events[:tail]:
                runtime.apply(event)
            expected = runtime.digest()
            runtime.abandon()
            start = time.perf_counter()
            recovered = DurableRuntime.recover(directory, matrix)
            seconds = time.perf_counter() - start
            measured.append((tail, seconds, recovered.digest() == expected))
            recovered.close()
            shutil.rmtree(directory, ignore_errors=True)
        return measured

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = tuple(
        (tail, seconds, tail / max(seconds, 1e-12))
        for tail, seconds, _ in measured
    )
    table = BenchTable(
        name="bench_resilience_recovery",
        columns=("tail_records", "seconds", "records_per_second"),
        rows=rows,
        meta={"n_nodes": N_NODES, "n_servers": N_SERVERS},
    )
    path = _out_path(tmp_path, "bench_resilience_recovery.json")
    save_result(path, table)
    assert load_result(path) == table

    print()
    print(
        f"Recovery time vs WAL tail ({N_NODES} nodes, no checkpoints)\n"
        + format_table(
            ["tail records", "recover (s)", "records/s"],
            [[t, f"{s:.3f}", f"{t / max(s, 1e-12):.0f}"] for t, s, _ in measured],
        )
        + f"\nresults written to {path}"
    )
    # Every recovery is byte-identical to the runtime it replaces.
    assert all(match for _, _, match in measured)
