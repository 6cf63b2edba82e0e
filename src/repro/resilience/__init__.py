"""Durability and recovery for the online assignment runtime.

The online layer (:class:`~repro.algorithms.online.OnlineAssignmentManager`
plus :class:`~repro.faults.failover.FailoverController`) keeps its state
in process memory, so a crash loses the session. This package makes that
state durable and the runtime survivable:

- :mod:`repro.resilience.wal` — a write-ahead event log: every
  join/leave/crash/recover/partition/rebalance is recorded as a
  checksummed JSONL record *before* it is applied, with group-commit
  fsync. A torn or corrupt tail (crash mid-write) is detected by
  checksum and truncated, never fatal.
- :mod:`repro.resilience.checkpoint` — periodic atomic snapshots of
  manager + failover + degrade state, so recovery replays a bounded WAL
  tail instead of the full history.
- :mod:`repro.resilience.runtime` — :class:`DurableRuntime`, the
  log-then-apply wrapper: ``DurableRuntime.recover(directory, matrix)``
  rebuilds **byte-identical** state (canonical digest over manager,
  failover records and degrade machine) versus an uninterrupted run.
- :mod:`repro.resilience.degrade` — degraded-mode operation: when no
  usable server remains, capacity is exhausted, or a latency budget is
  violated, the runtime serves stale assignments, queues joins up to a
  bounded backlog and rejects beyond it, with explicit
  ``HEALTHY → DEGRADED → RECOVERING → HEALTHY`` transitions exported
  through the obs registry.
- :mod:`repro.resilience.chaos` — the property harness (``repro
  chaos``): seeded kill schedules interrupt a churn workload at
  arbitrary event indices, recover from disk and diff state digests and
  the D trajectory against the fault-free baseline.

See ``docs/resilience.md`` for the on-disk formats and guarantees.
"""

from repro.resilience.chaos import (
    ChaosReport,
    KillPointResult,
    chaos_workload,
    run_chaos,
)
from repro.resilience.checkpoint import (
    Checkpoint,
    list_checkpoints,
    load_checkpoint,
    load_latest_checkpoint,
    state_digest,
    write_checkpoint,
)
from repro.resilience.degrade import (
    DEGRADED,
    HEALTHY,
    RECOVERING,
    STATE_CODES,
    DegradeController,
    DegradePolicy,
)
from repro.resilience.runtime import (
    EVENT_OPS,
    DurabilityConfig,
    DurableRuntime,
    parse_event,
)
from repro.resilience.wal import (
    WalReadResult,
    WalRecord,
    WriteAheadLog,
    read_wal,
    truncate_torn_tail,
)

__all__ = [
    # wal
    "WalRecord",
    "WalReadResult",
    "WriteAheadLog",
    "read_wal",
    "truncate_torn_tail",
    # checkpoint
    "Checkpoint",
    "write_checkpoint",
    "load_checkpoint",
    "load_latest_checkpoint",
    "list_checkpoints",
    "state_digest",
    # degrade
    "HEALTHY",
    "DEGRADED",
    "RECOVERING",
    "STATE_CODES",
    "DegradePolicy",
    "DegradeController",
    # runtime
    "DurabilityConfig",
    "DurableRuntime",
    "EVENT_OPS",
    "parse_event",
    # chaos
    "chaos_workload",
    "KillPointResult",
    "ChaosReport",
    "run_chaos",
]
