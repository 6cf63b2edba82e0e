"""The durable online runtime: log-then-apply over the assignment stack.

:class:`DurableRuntime` wraps an
:class:`~repro.algorithms.online.OnlineAssignmentManager`, a
:class:`~repro.faults.failover.FailoverController` and a
:class:`~repro.resilience.degrade.DegradeController` behind one event
API (join / leave / crash / recover_server / partition / heal /
rebalance) and one reducer, :meth:`DurableRuntime.apply`, that takes
the wire form of an event (``{"op": ..., <field>}``, validated by
:func:`parse_event`) and returns its canonical reply envelope. Every
operation is appended to the write-ahead log
(:mod:`repro.resilience.wal`) *before* it is applied, and a checkpoint
(:mod:`repro.resilience.checkpoint`) is written every
``checkpoint_every`` events, so

    ``DurableRuntime.recover(directory, matrix)``

always rebuilds the exact state of the interrupted run: latest valid
checkpoint, then deterministic re-execution of the WAL tail through
the same reducer. The recovery contract is **byte identity** —
:meth:`digest` of the recovered runtime equals the digest the
uninterrupted run had at the same WAL position. Re-execution is deterministic because every
placement decision is a function of the assignment state alone (exact
maxima from the incremental engine; no wall clocks, no RNG inside the
runtime), which is the property ``repro chaos`` verifies end to end.

Degraded-mode semantics (see :mod:`repro.resilience.degrade`): an
arrival that cannot be admitted — capacity exhausted, no usable server,
or the runtime already degraded — is queued or rejected instead of
raising, and :meth:`join` reports which (``"assigned"`` / ``"queued"``
/ ``"rejected"``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.algorithms.online import OnlineAssignmentManager, OnlineConfig
from repro.core.incremental import DEFAULT_TOP_K
from repro.errors import (
    BadRequestError,
    CapacityError,
    CheckpointError,
    InvalidAssignmentError,
    InvalidParameterError,
    ReproError,
    ResilienceError,
    SessionStateError,
    UnknownOperationError,
)
from repro.faults.failover import CrashRecord, FailoverController, RecoveryRecord
from repro.net.latency import LatencyMatrix
from repro.obs import SECONDS_BUCKETS, fingerprint_matrix, registry, span
from repro.resilience.checkpoint import (
    decode_float,
    encode_float,
    load_latest_checkpoint,
    state_digest,
    write_checkpoint,
)
from repro.resilience.degrade import HEALTHY, DegradeController, DegradePolicy
from repro.resilience.wal import (
    WalRecord,
    WriteAheadLog,
    read_wal,
    truncate_torn_tail,
)
from repro.types import IndexArrayLike, as_index_array

PathLike = Union[str, os.PathLike]

#: WAL file name inside a runtime directory.
WAL_NAME = "events.wal"

#: State-dict layout version (independent of the checkpoint envelope).
STATE_SCHEMA = 1

#: The event table: op -> (its one field, the per-op method applying
#: it, the reply builder ``(runtime, value, result) -> (outcome,
#: extra envelope keys)``). The op also names the WAL record kind, and
#: each method takes its field under the same name.
_EVENTS: Dict[str, Tuple[str, str, Any]] = {
    "join": ("node", "join", lambda rt, node, outcome: (
        outcome,
        {"server": rt.manager.server_of(node) if outcome == "assigned" else None},
    )),
    "leave": ("node", "leave", lambda rt, node, outcome: (outcome, {})),
    "crash": ("server", "crash", lambda rt, server, record: (
        "crashed",
        {
            "server": server,
            "evacuated": record.n_evacuated,
            "shed": [int(c) for c in record.shed],
        },
    )),
    "recover": ("server", "recover_server", lambda rt, server, record: (
        "recovered",
        {"server": server, "rebalance_moves": record.rebalance_moves},
    )),
    "partition": ("servers", "partition", lambda rt, servers, stale: (
        "partitioned",
        {"servers": servers, "stale": [int(c) for c in stale]},
    )),
    "heal": ("servers", "heal", lambda rt, servers, _: ("healed", {"servers": servers})),
    "rebalance": ("max_moves", "rebalance", lambda rt, _, moves: (
        "rebalanced",
        {"moves": moves},
    )),
}

#: Event operations, in their wire (and WAL record kind) spelling.
EVENT_OPS = frozenset(_EVENTS)

#: Default ``max_moves`` of a ``rebalance`` event that omits it.
DEFAULT_REBALANCE_MOVES = 16


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_event(event: Any) -> Dict[str, Any]:
    """Validate one wire-form event; returns its canonical copy.

    The canonical form is ``{"op": op, <field>: value}`` with exactly
    the op's one field (other keys, such as a request's ``id``, are
    dropped): an integer ``node`` (join/leave) or ``server``
    (crash/recover), a non-empty sorted integer list ``servers``
    (partition/heal), or an integer ``max_moves`` (rebalance, default
    :data:`DEFAULT_REBALANCE_MOVES`). Booleans and floats are not
    integers here. Raises :class:`~repro.errors.UnknownOperationError`
    for an unknown op and :class:`~repro.errors.BadRequestError` for a
    missing or mistyped field; state preconditions (a node already
    connected, a negative ``max_moves``) are the runtime's to check.
    """
    if not isinstance(event, dict):
        raise BadRequestError("an event must be an object")
    op = event.get("op")
    if op not in _EVENTS:
        raise UnknownOperationError(f"unknown session event op {op!r}")
    key = _EVENTS[op][0]
    if key == "servers":
        value = event.get(key)
        if not isinstance(value, list) or not value or not all(
            _is_int(v) for v in value
        ):
            raise BadRequestError(f"'{key}' must be a non-empty list of integers")
        value = sorted(value)
    else:
        default = DEFAULT_REBALANCE_MOVES if op == "rebalance" else None
        value = event.get(key, default)
        if not _is_int(value):
            raise BadRequestError(f"'{key}' must be an integer")
    return {"op": op, key: value}


@dataclass(frozen=True)
class DurabilityConfig:
    """Typed durability configuration for :class:`DurableRuntime`.

    Parameters
    ----------
    mode:
        ``"wal"`` (default) — log-then-apply with on-disk WAL and
        checkpoints, recoverable via :meth:`DurableRuntime.recover`.
        ``"off"`` — volatile mode: identical event semantics and state
        digests, but nothing touches disk (the WAL is an in-memory
        sequence counter and checkpoints are disabled). The service
        layer uses this for ``durability=off`` sessions so both modes
        share one runtime implementation.
    checkpoint_every:
        Events between snapshot checkpoints (``None``/``0`` disables;
        recovery then replays the whole WAL). Ignored in ``"off"``
        mode.
    fsync_every:
        WAL group-commit interval (see
        :class:`~repro.resilience.wal.WriteAheadLog`); the default of 8
        keeps append overhead low while bounding crash loss to 7
        acknowledged events.
    keep_checkpoints:
        Checkpoints retained on disk (older pruned after each write).
    """

    mode: str = "wal"
    checkpoint_every: Optional[int] = 25
    fsync_every: int = 8
    keep_checkpoints: int = 2

    def __post_init__(self) -> None:
        if self.mode not in ("wal", "off"):
            raise InvalidParameterError(
                f"durability mode must be 'wal' or 'off', got {self.mode!r}"
            )
        if self.checkpoint_every is not None and self.checkpoint_every < 0:
            raise InvalidParameterError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.fsync_every < 0:
            raise InvalidParameterError(
                f"fsync_every must be >= 0, got {self.fsync_every}"
            )
        if self.keep_checkpoints < 1:
            raise InvalidParameterError(
                f"keep_checkpoints must be >= 1, got {self.keep_checkpoints}"
            )

    @property
    def durable(self) -> bool:
        """Whether this configuration persists anything to disk."""
        return self.mode == "wal"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable view (stable keys, scalars only)."""
        return {
            "mode": self.mode,
            "checkpoint_every": (
                None
                if self.checkpoint_every is None
                else int(self.checkpoint_every)
            ),
            "fsync_every": int(self.fsync_every),
            "keep_checkpoints": int(self.keep_checkpoints),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DurabilityConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        checkpoint_every = data.get("checkpoint_every", 25)
        return cls(
            mode=str(data.get("mode", "wal")),
            checkpoint_every=(
                None if checkpoint_every is None else int(checkpoint_every)
            ),
            fsync_every=int(data.get("fsync_every", 8)),
            keep_checkpoints=int(data.get("keep_checkpoints", 2)),
        )


class _ReplayLog:
    """The log while recovery re-executes a WAL record.

    :meth:`append` hands back the record being replayed instead of
    writing a new one, after checking that the per-op method logged
    exactly what the record holds.
    """

    __slots__ = ("record",)

    path = None
    closed = False

    def __init__(self) -> None:
        self.record: Optional[WalRecord] = None

    def append(self, kind: str, data: Optional[Dict[str, Any]] = None) -> WalRecord:
        record, self.record = self.record, None
        if record is None or record.kind != kind or record.data != (data or {}):
            raise ResilienceError(
                f"replayed {kind!r} event does not match its WAL record"
            )
        return record


class _NullWal:
    """In-memory stand-in for :class:`~repro.resilience.wal.WriteAheadLog`.

    Volatile mode (:class:`DurabilityConfig` ``mode="off"``) keeps the
    runtime's log-then-apply shape — every event still receives a
    contiguous sequence number so ``applied_seq`` and therefore the
    state digest match a WAL-backed twin byte for byte — without
    touching the filesystem.
    """

    __slots__ = ("_next_seq", "_closed")

    path = None

    def __init__(self, *, next_seq: int = 1) -> None:
        self._next_seq = int(next_seq)
        self._closed = False

    @property
    def next_seq(self) -> int:
        return self._next_seq

    @property
    def last_seq(self) -> int:
        return self._next_seq - 1

    @property
    def closed(self) -> bool:
        return self._closed

    def append(self, kind: str, data: Optional[Dict[str, Any]] = None) -> WalRecord:
        if self._closed:
            raise ResilienceError("write-ahead log is closed")
        record = WalRecord(seq=self._next_seq, kind=kind, data=dict(data or {}))
        self._next_seq += 1
        return record

    def sync(self) -> None:
        pass

    def close(self) -> None:
        self._closed = True

    def abandon(self) -> None:
        self._closed = True


class DurableRuntime:
    """A crash-recoverable online assignment runtime.

    Parameters
    ----------
    directory:
        Home of the WAL and checkpoints; created if missing. A
        directory that already holds a non-empty WAL or checkpoints
        refuses a fresh start — use :meth:`recover`. May be ``None``
        in volatile mode (``durability.mode == "off"``).
    matrix, servers:
        Forwarded to :class:`~repro.algorithms.online.
        OnlineAssignmentManager`.
    online:
        An :class:`~repro.algorithms.online.OnlineConfig` (capacity,
        join policy, kernel backend, top-k, shards). ``shards > 1``
        runs a region-sharded
        :class:`~repro.scale.sharded.ShardedOnlineManager` instead; a
        sharded runtime is volatile-only and refuses server fault
        events with :class:`~repro.errors.SessionStateError`.
    durability:
        A :class:`DurabilityConfig` (mode, checkpoint cadence, fsync
        interval, retention).
    readmit_moves, shed_policy:
        Forwarded to :class:`~repro.faults.failover.FailoverController`
        (default ``"shed"``: a crash degrades rather than raises).
    policy:
        Degraded-mode policy (backlog watermark, latency budget).
    """

    def __init__(
        self,
        directory: Optional[PathLike],
        matrix: LatencyMatrix,
        servers: IndexArrayLike,
        *,
        online: Optional[OnlineConfig] = None,
        durability: Optional[DurabilityConfig] = None,
        readmit_moves: int = 8,
        shed_policy: str = "shed",
        policy: Optional[DegradePolicy] = None,
    ) -> None:
        online = online or OnlineConfig()
        durability = durability or DurabilityConfig()
        if durability.durable:
            if online.shards > 1:
                raise InvalidParameterError(
                    "sharded runtimes (shards > 1) are volatile-only; "
                    "use durability mode 'off'"
                )
            if directory is None:
                raise InvalidParameterError(
                    "durability mode 'wal' requires a directory"
                )
            directory = os.fspath(directory)
            os.makedirs(directory, exist_ok=True)
            wal_path = os.path.join(directory, WAL_NAME)
            if os.path.exists(wal_path) and os.path.getsize(wal_path) > 0:
                raise ResilienceError(
                    f"{directory}: write-ahead log already exists; use "
                    f"DurableRuntime.recover() to resume it"
                )
            from repro.resilience.checkpoint import list_checkpoints

            if list_checkpoints(directory):
                raise ResilienceError(
                    f"{directory}: checkpoints already exist; use "
                    f"DurableRuntime.recover() to resume"
                )
        else:
            directory = None if directory is None else os.fspath(directory)
        policy = policy or DegradePolicy()
        # The shard count stays out of the config: it changes how the
        # state is computed, not what it is, so a sharded runtime's
        # digest equals its unsharded twin's.
        config = {
            "servers": [int(s) for s in as_index_array(servers, "servers")],
            "capacity": online.capacity,
            "join_policy": online.join_policy,
            "backend": online.backend,
            "top_k": int(online.top_k),
            "readmit_moves": int(readmit_moves),
            "shed_policy": shed_policy,
            "max_backlog": policy.max_backlog,
            "d_budget": (
                None
                if policy.d_budget is None
                else encode_float(policy.d_budget)
            ),
            "matrix_fingerprint": fingerprint_matrix(matrix),
        }
        self._init_core(
            directory, matrix, config, durability=durability, shards=online.shards
        )
        if durability.durable:
            self._wal = WriteAheadLog(
                os.path.join(directory, WAL_NAME),
                fsync_every=durability.fsync_every,
            )
        else:
            self._wal = _NullWal()
        # Genesis record: recovery can rebuild from a bare WAL (no
        # checkpoint yet) knowing nothing but the directory + matrix.
        record = self._wal.append("open", config)
        self._applied_seq = record.seq

    # ------------------------------------------------------------------
    def _init_core(
        self,
        directory: Optional[str],
        matrix: LatencyMatrix,
        config: Dict[str, Any],
        *,
        durability: DurabilityConfig,
        shards: int = 1,
    ) -> None:
        """Build the in-memory stack from a config dict (shared by the
        fresh-start and recovery paths)."""
        expected = config["matrix_fingerprint"]
        actual = fingerprint_matrix(matrix)
        if expected != actual:
            raise CheckpointError(
                f"{directory}: matrix fingerprint mismatch (state was "
                f"recorded against {expected}, supplied matrix is {actual})"
            )
        self._directory = directory
        self._matrix = matrix
        self._config = dict(config)
        self._durability = durability
        self._checkpoint_every = (
            int(durability.checkpoint_every or 0) if durability.durable else 0
        )
        d_budget = config["d_budget"]
        degrade_policy = DegradePolicy(
            max_backlog=int(config["max_backlog"]),
            d_budget=None if d_budget is None else decode_float(d_budget),
        )
        # .get defaults keep checkpoints/WALs written before the
        # backend/top_k knobs existed recoverable.
        online = OnlineConfig(
            capacity=config["capacity"],
            join_policy=config["join_policy"],
            backend=config.get("backend", "auto"),
            top_k=int(config.get("top_k", DEFAULT_TOP_K)),
            shards=shards,
        )
        self._sharded = shards > 1
        if self._sharded:
            import numpy as np

            from repro.scale.sharded import ShardedOnlineManager

            # Universe = every node, matching the unsharded manager's
            # default (a server node may host a client too).
            self._manager: Any = ShardedOnlineManager(
                matrix,
                config["servers"],
                online,
                client_nodes=np.arange(matrix.n_nodes, dtype=np.int64),
            )
        else:
            self._manager = OnlineAssignmentManager(
                matrix, config["servers"], online
            )
        self._controller = FailoverController(
            self._manager,
            readmit_moves=int(config["readmit_moves"]),
            shed_policy=config["shed_policy"],
        )
        self._degrade = DegradeController(self._manager, degrade_policy)
        self._applied_seq = 0
        self._last_checkpoint_seq = 0
        self._replaying = False
        self._closed = False
        self._wal: Optional[Union[WriteAheadLog, _NullWal, _ReplayLog]] = None

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        directory: PathLike,
        matrix: LatencyMatrix,
        *,
        durability: Optional[DurabilityConfig] = None,
    ) -> "DurableRuntime":
        """Rebuild a runtime from its directory.

        Loads the newest valid checkpoint (invalid ones are skipped
        with a warning), replays the WAL records after it through
        :meth:`apply`, truncates a torn WAL tail if one is found, and
        reopens the WAL for appending. Raises
        :class:`~repro.errors.ResilienceError` when the directory holds
        neither a checkpoint nor a WAL, and
        :class:`~repro.errors.CheckpointError` when the recorded matrix
        fingerprint does not match ``matrix``.
        """
        durability = durability or DurabilityConfig()
        if not durability.durable:
            raise InvalidParameterError(
                "cannot recover with durability mode 'off' — there is "
                "nothing on disk to recover from"
            )
        directory = os.fspath(directory)
        wal_path = os.path.join(directory, WAL_NAME)
        start = time.perf_counter()
        with span("resilience.recover", directory=directory):
            checkpoint = load_latest_checkpoint(directory)
            result = read_wal(wal_path)
            truncate_torn_tail(wal_path, result)
            records = result.records
            if checkpoint is None and not records:
                raise ResilienceError(
                    f"{directory}: nothing to recover (no checkpoint, "
                    f"no write-ahead log)"
                )
            if checkpoint is not None:
                config = dict(checkpoint.state["config"])
            else:
                genesis = records[0]
                if genesis.kind != "open":
                    raise ResilienceError(
                        f"{directory}: write-ahead log does not start "
                        f"with an 'open' record and no checkpoint exists"
                    )
                config = dict(genesis.data)
            runtime = cls.__new__(cls)
            runtime._init_core(directory, matrix, config, durability=durability)
            if checkpoint is not None:
                runtime._restore_state(checkpoint.state)
                runtime._last_checkpoint_seq = checkpoint.seq
            else:
                runtime._applied_seq = genesis.seq
            tail = [r for r in records if r.seq > runtime._applied_seq]
            runtime._replay(tail)
            last_seq = max(
                runtime._applied_seq,
                records[-1].seq if records else 0,
            )
            runtime._wal = WriteAheadLog(
                wal_path,
                fsync_every=durability.fsync_every,
                next_seq=last_seq + 1,
            )
        metrics = registry()
        metrics.counter("resilience.recoveries").inc()
        metrics.counter("resilience.replayed_records").inc(len(tail))
        metrics.histogram("resilience.recovery_seconds", SECONDS_BUCKETS).observe(
            time.perf_counter() - start
        )
        return runtime

    def _replay(self, records: List[WalRecord]) -> None:
        """Re-execute logged events through :meth:`apply`, in order."""
        log = _ReplayLog()
        self._wal = log
        self._replaying = True
        try:
            for record in records:
                log.record = record
                try:
                    self.apply({"op": record.kind, **record.data})
                except ReproError as exc:
                    raise ResilienceError(
                        f"replay of WAL record seq={record.seq} "
                        f"kind={record.kind!r} failed: {exc}"
                    ) from exc
        finally:
            self._replaying = False

    def _restore_state(self, state: Dict[str, Any]) -> None:
        """Adopt a checkpointed state dict, then verify byte identity."""
        if state.get("schema") != STATE_SCHEMA:
            raise CheckpointError(
                f"unsupported state schema {state.get('schema')!r} "
                f"(this build reads {STATE_SCHEMA})"
            )
        manager_state = state["manager"]
        # Sorted order; the engine's observable values are exact maxima,
        # independent of application order, so any order reproduces the
        # recorded D bit-for-bit — the digest check below enforces it.
        for node, server in manager_state["assigned"]:
            self._manager.restore_client(int(node), int(server))
        for server in manager_state["inactive"]:
            self._manager.deactivate_server(int(server))
        for server in manager_state["unreachable"]:
            self._manager.partition_server(int(server))
        failover_state = state["failover"]
        self._controller.restore_records(
            [CrashRecord.from_dict(r) for r in failover_state["crashes"]],
            [RecoveryRecord.from_dict(r) for r in failover_state["recoveries"]],
        )
        self._degrade.restore(state["degrade"])
        self._applied_seq = int(state["applied_seq"])
        restored = self.state_dict()
        if state_digest(restored) != state_digest(state):
            raise CheckpointError(
                "restored state does not reproduce the checkpoint digest"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def directory(self) -> Optional[str]:
        return self._directory

    @property
    def durability(self) -> DurabilityConfig:
        """The runtime's resolved durability configuration."""
        return self._durability

    @property
    def online_config(self) -> OnlineConfig:
        """The wrapped manager's resolved online configuration."""
        return self._manager.config

    @property
    def manager(self) -> OnlineAssignmentManager:
        """The wrapped assignment manager."""
        return self._manager

    @property
    def controller(self) -> FailoverController:
        """The wrapped failover controller."""
        return self._controller

    @property
    def degrade(self) -> DegradeController:
        """The degraded-mode state machine."""
        return self._degrade

    @property
    def wal(self) -> Union[WriteAheadLog, _NullWal]:
        return self._wal

    @property
    def applied_seq(self) -> int:
        """WAL sequence number of the last applied event."""
        return self._applied_seq

    @property
    def health(self) -> str:
        """Current degrade state (``healthy``/``degraded``/``recovering``)."""
        return self._degrade.state

    @property
    def n_clients(self) -> int:
        return self._manager.n_clients

    def current_d(self) -> float:
        """The current maximum interaction path length."""
        return self._manager.current_d()

    # ------------------------------------------------------------------
    # State capture
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Canonical JSON-serializable state (the byte-identity basis).

        Floats are hex-encoded, collections sorted; two runtimes are
        considered identical iff their state dicts (equivalently their
        :meth:`digest`\\ s) are equal.
        """
        manager = self._manager
        return {
            "schema": STATE_SCHEMA,
            "config": dict(self._config),
            "applied_seq": self._applied_seq,
            "manager": {
                "assigned": [
                    [int(node), int(manager.server_of(node))]
                    for node in manager.clients
                ],
                "inactive": [
                    s for s in range(manager.n_servers) if not manager.is_active(s)
                ],
                "unreachable": [
                    s
                    for s in range(manager.n_servers)
                    if not manager.is_reachable(s)
                ],
                "d": encode_float(manager.current_d()),
            },
            "failover": {
                "crashes": [r.to_dict() for r in self._controller.crash_records],
                "recoveries": [
                    r.to_dict() for r in self._controller.recovery_records
                ],
            },
            "degrade": self._degrade.to_dict(),
        }

    def digest(self) -> str:
        """SHA-256 digest of :meth:`state_dict`."""
        return state_digest(self.state_dict())

    def checkpoint(self) -> str:
        """Force a snapshot checkpoint now; returns the path written.

        The WAL is synced first so a checkpoint never describes state
        more durable than the log that produced it.
        """
        self._require_open()
        self._wal.sync()
        path = write_checkpoint(
            self._directory,
            self._applied_seq,
            self.state_dict(),
            keep=self._durability.keep_checkpoints,
        )
        self._last_checkpoint_seq = self._applied_seq
        return path

    # ------------------------------------------------------------------
    # Event API (log-then-apply)
    # ------------------------------------------------------------------
    def apply(self, event: Dict[str, Any]) -> Dict[str, Any]:
        """Apply one wire-form event; returns its reply envelope.

        The event is validated by :func:`parse_event`, then the op's
        per-op method checks its preconditions, logs it and applies
        it. The envelope holds ``op``, ``outcome``, ``d`` (the current
        D, hex-encoded so it is byte-stable), ``clients``, ``health``
        and ``seq``, plus the op's own keys (``server``, ``shed``,
        ``stale``, ``moves``, ...). A rejected event raises before any
        sequence number is used.
        """
        event = parse_event(event)
        op = event["op"]
        key, method, reply = _EVENTS[op]
        value = event[key]
        outcome, extra = reply(self, value, getattr(self, method)(**{key: value}))
        envelope = {
            "op": op,
            "outcome": outcome,
            "d": encode_float(self._manager.current_d()),
            "clients": self._manager.n_clients,
            "health": self._degrade.state,
            "seq": self._applied_seq,
        }
        envelope.update(extra)
        return envelope

    def join(self, node: int) -> str:
        """Admit a client; returns ``"assigned"``/``"queued"``/``"rejected"``."""
        self._require_open()
        node = int(node)
        if not 0 <= node < self._matrix.n_nodes:
            raise InvalidAssignmentError(f"client node {node} out of range")
        if self._manager.is_connected(node):
            raise InvalidAssignmentError(f"client {node} already connected")
        if self._degrade.in_backlog(node):
            raise InvalidAssignmentError(f"client {node} already queued")
        record = self._wal.append("join", {"node": node})
        if self._degrade.state != HEALTHY:
            outcome = self._degrade.admission_blocked(node, "degraded")
        else:
            try:
                self._manager.join(node)
                outcome = "assigned"
            except CapacityError:
                outcome = self._degrade.admission_blocked(
                    node, "capacity-exhausted"
                )
        self._finish_event(record)
        return outcome

    def leave(self, node: int) -> str:
        """Remove a client; returns ``"left"``/``"dequeued"``/``"absent"``.

        Tolerant by design: a leave for a node that was queued (still
        waiting) dequeues it, and one for a node that was rejected or
        shed is a counted no-op — churn sources need not know the
        admission outcome of every join they issued.
        """
        self._require_open()
        node = int(node)
        record = self._wal.append("leave", {"node": node})
        if self._manager.is_connected(node):
            self._manager.leave(node)
            outcome = "left"
        elif self._degrade.discard_queued(node):
            outcome = "dequeued"
        else:
            registry().counter("resilience.absent_leaves").inc()
            outcome = "absent"
        self._finish_event(record)
        return outcome

    def crash(self, server: int) -> CrashRecord:
        """Fail-stop crash of a (currently up) local server."""
        self._require_faults("crash")
        server = int(server)
        if not self._manager.is_active(server):
            raise InvalidParameterError(f"server {server} is already down")
        record = self._wal.append("crash", {"server": server})
        crash = self._controller.on_crash(server, time=float(record.seq))
        self._finish_event(record)
        return crash

    def recover_server(self, server: int) -> RecoveryRecord:
        """Recover a (currently down) local server."""
        self._require_faults("recover")
        server = int(server)
        if self._manager.is_active(server):
            raise InvalidParameterError(f"server {server} is already up")
        record = self._wal.append("recover", {"server": server})
        recovery = self._controller.on_recover(server, time=float(record.seq))
        self._finish_event(record)
        return recovery

    def partition(self, servers: Iterable[int]) -> Tuple[int, ...]:
        """Make a server subset unreachable; returns stale-served nodes."""
        self._require_faults("partition")
        subset = sorted(int(s) for s in servers)
        if not subset:
            raise InvalidParameterError("partition needs at least one server")
        for server in subset:
            if not self._manager.is_reachable(server):
                raise InvalidParameterError(
                    f"server {server} is already unreachable"
                )
        record = self._wal.append("partition", {"servers": subset})
        stale: List[int] = []
        for server in subset:
            stale.extend(self._manager.partition_server(server))
        registry().counter("resilience.partitions").inc()
        self._finish_event(record)
        return tuple(sorted(stale))

    def heal(self, servers: Iterable[int]) -> None:
        """Restore reachability of a partitioned server subset."""
        self._require_faults("heal")
        subset = sorted(int(s) for s in servers)
        if not subset:
            raise InvalidParameterError("heal needs at least one server")
        for server in subset:
            if self._manager.is_reachable(server):
                raise InvalidParameterError(f"server {server} is reachable")
        record = self._wal.append("heal", {"servers": subset})
        for server in subset:
            self._manager.heal_server(server)
        registry().counter("resilience.heals").inc()
        self._finish_event(record)

    def rebalance(self, *, max_moves: int = DEFAULT_REBALANCE_MOVES) -> int:
        """Bounded Distributed-Greedy repair; returns moves made."""
        self._require_open()
        max_moves = int(max_moves)
        if max_moves < 0:
            raise InvalidParameterError(
                f"max_moves must be >= 0, got {max_moves}"
            )
        record = self._wal.append("rebalance", {"max_moves": max_moves})
        moves = self._manager.rebalance(max_moves=max_moves)
        self._finish_event(record)
        return moves

    def _finish_event(self, record: WalRecord) -> None:
        self._applied_seq = record.seq
        self._degrade.tick()
        if (
            not self._replaying
            and self._checkpoint_every
            and self._applied_seq - self._last_checkpoint_seq
            >= self._checkpoint_every
        ):
            self.checkpoint()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed or self._wal is None or self._wal.closed:
            raise ResilienceError("runtime is closed")

    def _require_faults(self, op: str) -> None:
        self._require_open()
        if self._sharded:
            raise SessionStateError(
                f"sharded sessions do not support server fault events "
                f"({op}); open the session with shards=1 for fault testing"
            )

    def close(self) -> None:
        """Sync the WAL and release resources (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._wal is not None:
            self._wal.close()

    def abandon(self) -> None:
        """Drop the runtime without syncing — simulate a process kill.

        Used by the chaos harness; everything appended so far is
        already flushed to the OS, matching a SIGKILL between events.
        """
        self._closed = True
        if self._wal is not None:
            self._wal.abandon()

    def __enter__(self) -> "DurableRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
