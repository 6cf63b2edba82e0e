"""Run manifests: what produced a persisted result, exactly.

A :class:`RunManifest` captures the provenance of an experiment run —
package version, configuration, seeds, dataset fingerprint, platform —
so a results file found months later answers "what produced this?"
without archaeology. :func:`repro.experiments.persistence.save_result`
attaches the ambient manifest (installed by the CLI via
:func:`set_current_manifest`) to every payload it writes.

Determinism contract
--------------------
The package guarantees that re-running an experiment with the same
profile and seed produces byte-identical result files, traced or not,
at any worker count. The manifest is therefore split in two:

- the **deterministic core** (version, config, seeds, dataset
  fingerprint, platform triple) — a pure function of the run's inputs
  and environment, safe to embed in persisted results by default;
- the **volatile section** (wall-clock timestamp, hostname, PID,
  wall-seconds totals, worker count) — genuinely per-run. It is always
  included in trace files (those are per-run artifacts by nature) but
  embedded in persisted results only when ``REPRO_OBS_MANIFEST=full``
  is set, because it would break byte-identity.
"""

from __future__ import annotations

import datetime
import hashlib
import os
import platform
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro._version import __version__

#: Bump when the manifest dict layout changes incompatibly.
MANIFEST_VERSION = 1

#: Environment switch: ``full`` embeds the volatile section in
#: persisted results (at the cost of byte-identical re-runs).
MANIFEST_ENV = "REPRO_OBS_MANIFEST"


def fingerprint_matrix(matrix: Any) -> str:
    """A short stable content fingerprint of a latency source.

    For a dense matrix, SHA-256 over the shape, dtype and raw float
    bytes of ``matrix.values`` (made C-contiguous first so layout never
    leaks into the digest). For a provider without dense values that
    exposes ``content_token()`` (such as
    :class:`~repro.net.provider.CoordinateProvider`), SHA-256 over that
    token. Truncated to 16 hex chars — collision-safe at the scale of
    "did two runs use the same dataset". Raises :class:`TypeError` for
    a source with neither.
    """
    import numpy as np

    digest = hashlib.sha256()
    values = getattr(matrix, "values", None)
    if values is None:
        content_token = getattr(matrix, "content_token", None)
        if content_token is None:
            raise TypeError(
                f"cannot fingerprint {type(matrix).__name__}: it has "
                f"neither dense values nor content_token()"
            )
        digest.update(b"content-token:")
        digest.update(content_token().encode("ascii"))
        return digest.hexdigest()[:16]
    values = np.ascontiguousarray(values)
    digest.update(str(values.shape).encode("ascii"))
    digest.update(str(values.dtype).encode("ascii"))
    digest.update(values.tobytes())
    return digest.hexdigest()[:16]


@dataclass
class RunManifest:
    """Provenance of one experiment run."""

    #: What the run was (CLI command, figure id, study name, ...).
    command: str = ""
    #: Scale/parameter configuration (profile name, node counts, ...).
    config: Dict[str, Any] = field(default_factory=dict)
    #: Every seed the run consumed, by role.
    seeds: Dict[str, Any] = field(default_factory=dict)
    #: Content fingerprint of the latency matrix (see
    #: :func:`fingerprint_matrix`); ``None`` when no dataset applies.
    dataset_fingerprint: Optional[str] = None
    #: Interpreter/platform triple — deterministic per installation.
    platform: Dict[str, str] = field(default_factory=dict)
    #: Per-run facts (timestamp, host, pid, wall seconds, workers).
    volatile: Dict[str, Any] = field(default_factory=dict)

    def finalize(self, *, wall_seconds: Optional[float] = None, **extra: Any) -> None:
        """Record end-of-run volatile facts (wall-clock totals etc.)."""
        if wall_seconds is not None:
            self.volatile["wall_seconds"] = round(float(wall_seconds), 6)
        self.volatile.update(extra)

    def to_dict(self, *, include_volatile: Optional[bool] = None) -> Dict[str, Any]:
        """The manifest as plain JSON-able data.

        ``include_volatile=None`` consults the ``REPRO_OBS_MANIFEST``
        environment variable (``full`` includes it; default excludes,
        preserving byte-identical re-runs of persisted results).
        """
        if include_volatile is None:
            include_volatile = (
                os.environ.get(MANIFEST_ENV, "").lower() == "full"
            )
        body: Dict[str, Any] = {
            "manifest_version": MANIFEST_VERSION,
            "package_version": __version__,
            "command": self.command,
            "config": dict(self.config),
            "seeds": dict(self.seeds),
            "dataset_fingerprint": self.dataset_fingerprint,
            "platform": dict(self.platform),
        }
        if include_volatile:
            body["volatile"] = dict(self.volatile)
        return body


def build_manifest(
    *,
    command: str = "",
    config: Optional[Dict[str, Any]] = None,
    seeds: Optional[Dict[str, Any]] = None,
    matrix: Any = None,
    **volatile: Any,
) -> RunManifest:
    """Assemble a manifest for the current process and inputs.

    ``matrix`` (when given) is fingerprinted via
    :func:`fingerprint_matrix`. Extra keyword arguments land in the
    volatile section alongside the automatically captured timestamp,
    hostname and PID.
    """
    import numpy as np

    manifest = RunManifest(
        command=command,
        config=dict(config or {}),
        seeds=dict(seeds or {}),
        dataset_fingerprint=(
            fingerprint_matrix(matrix) if matrix is not None else None
        ),
        platform={
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": np.__version__,
            "system": platform.system(),
            "machine": platform.machine(),
        },
        volatile={
            "created_at": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"),
            "hostname": platform.node(),
            "pid": os.getpid(),
            "argv": list(sys.argv),
        },
    )
    manifest.volatile.update(volatile)
    return manifest


#: The ambient manifest the persistence layer attaches to results.
_CURRENT: Optional[RunManifest] = None


def current_manifest() -> Optional[RunManifest]:
    """The ambient manifest, or ``None`` outside an instrumented run."""
    return _CURRENT


def set_current_manifest(manifest: Optional[RunManifest]) -> Optional[RunManifest]:
    """Install (or clear, with ``None``) the ambient manifest."""
    global _CURRENT
    previous, _CURRENT = _CURRENT, manifest
    return previous


class manifest_scope:
    """Context manager installing an ambient manifest for a block."""

    def __init__(self, manifest: RunManifest) -> None:
        self._manifest = manifest
        self._previous: Optional[RunManifest] = None

    def __enter__(self) -> RunManifest:
        self._previous = set_current_manifest(self._manifest)
        return self._manifest

    def __exit__(self, *exc_info: object) -> None:
        set_current_manifest(self._previous)
