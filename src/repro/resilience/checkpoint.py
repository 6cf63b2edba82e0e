"""Atomic state snapshots for the durable runtime.

A checkpoint is one JSON document capturing the *canonical state dict*
of a :class:`~repro.resilience.runtime.DurableRuntime` — manager
assignment, liveness and reachability masks, failover records, degrade
machine, and the WAL sequence number it reflects. Recovery loads the
latest valid checkpoint and re-executes only the WAL records after its
``seq``, so the replay is bounded by the checkpoint cadence rather than
by run length. Reading the log is not: :func:`~repro.resilience.wal.
read_wal` still decodes and CRC-checks the whole file, so recovery time
keeps a term linear in the log's total size.

Integrity: every checkpoint embeds a SHA-256 digest of its state dict
(the same digest :meth:`~repro.resilience.runtime.DurableRuntime.
digest` reports, which is what the chaos harness compares). Floats in
state dicts are hex-encoded (``float.hex()``) so the digest is
bit-exact across serialization. :func:`write_checkpoint` encodes the
state once: the compact, key-sorted body that :func:`state_digest`
hashes is both hashed and spliced into the file, whose own keys are in
sorted order too, so the file is canonical JSON. Files are written via
:func:`~repro.experiments.persistence.atomic_write_text` (fsync'd temp,
rename, directory fsync), so a crash mid-checkpoint leaves the previous
checkpoint intact; a checkpoint that fails validation on load is
skipped with a warning and recovery falls back to the previous one (or
to full WAL replay).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import warnings
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import CheckpointError
from repro.experiments.persistence import atomic_write_text
from repro.obs import registry

PathLike = Union[str, os.PathLike]

#: Bump when the checkpoint layout changes incompatibly.
CHECKPOINT_SCHEMA = 1

_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{10})\.json$")


def _canonical(state: Dict[str, Any]) -> str:
    """The compact, key-sorted JSON of a state dict."""
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def state_digest(state: Dict[str, Any]) -> str:
    """SHA-256 over the compact, key-sorted JSON of a state dict.

    This is the byte-identity criterion of the resilience layer: two
    runtimes agree iff their digests agree. State dicts hex-encode
    floats, so the digest is exact — no tolerance, no rounding.
    """
    return hashlib.sha256(_canonical(state).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Checkpoint:
    """One loaded, validated checkpoint."""

    seq: int
    state: Dict[str, Any]
    path: str


def checkpoint_path(directory: PathLike, seq: int) -> str:
    """Canonical file name for the checkpoint at WAL position ``seq``."""
    return os.path.join(os.fspath(directory), f"checkpoint-{seq:010d}.json")


def write_checkpoint(
    directory: PathLike,
    seq: int,
    state: Dict[str, Any],
    *,
    keep: int = 2,
) -> str:
    """Atomically persist ``state`` as the checkpoint at ``seq``.

    Keeps the ``keep`` most recent checkpoints (older ones are pruned
    after the new one is durably in place, its rename included — never
    before, so there is no window without a valid checkpoint). Returns
    the path written.
    """
    if seq < 0:
        raise CheckpointError(f"checkpoint seq must be >= 0, got {seq}")
    if keep < 1:
        raise CheckpointError(f"keep must be >= 1, got {keep}")
    path = checkpoint_path(directory, seq)
    body = _canonical(state)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    atomic_write_text(
        path,
        f'{{"digest":"{digest}","schema_version":{CHECKPOINT_SCHEMA},'
        f'"seq":{int(seq)},"state":{body}}}\n',
    )
    registry().counter("resilience.checkpoints").inc()
    for _old_seq, old_path in list_checkpoints(directory)[:-keep]:
        try:
            os.unlink(old_path)
        except OSError:
            pass
    return path


def list_checkpoints(directory: PathLike) -> List[Tuple[int, str]]:
    """All checkpoint files in ``directory`` as ``(seq, path)``, ascending."""
    directory = os.fspath(directory)
    found: List[Tuple[int, str]] = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        match = _CHECKPOINT_RE.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    return sorted(found)


def load_checkpoint(path: PathLike) -> Checkpoint:
    """Load and validate one checkpoint file.

    Raises :class:`~repro.errors.CheckpointError` on unreadable JSON,
    an unknown schema version, or a digest mismatch.
    """
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: expected a JSON object")
    version = payload.get("schema_version")
    if version != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{path}: unsupported checkpoint schema {version!r} "
            f"(this build reads {CHECKPOINT_SCHEMA})"
        )
    state = payload.get("state")
    seq = payload.get("seq")
    if not isinstance(state, dict) or not isinstance(seq, int):
        raise CheckpointError(f"{path}: malformed checkpoint payload")
    digest = state_digest(state)
    if digest != payload.get("digest"):
        raise CheckpointError(
            f"{path}: state digest mismatch (file damaged?)"
        )
    return Checkpoint(seq=seq, state=state, path=path)


def load_latest_checkpoint(directory: PathLike) -> Optional[Checkpoint]:
    """The newest checkpoint that validates, or ``None``.

    Invalid checkpoints (truncated, bit-flipped, wrong schema) are
    skipped with a warning — recovery falls back to an older snapshot
    plus a longer WAL replay rather than failing.
    """
    for seq, path in reversed(list_checkpoints(directory)):
        try:
            return load_checkpoint(path)
        except CheckpointError as exc:
            warnings.warn(
                f"skipping invalid checkpoint {path}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            registry().counter("resilience.checkpoints_skipped").inc()
    return None


def encode_float(value: float) -> str:
    """Bit-exact JSON-safe encoding for a float (``float.hex``)."""
    return float(value).hex()


def decode_float(value: str) -> float:
    """Inverse of :func:`encode_float`."""
    return float.fromhex(value)
