"""Saving and loading experiment results as JSON.

Figure series at paper scale take hours to produce; persisting them lets
reporting, plotting and claim-checking run without recomputation. The
format is plain JSON with a ``kind`` tag and a schema version so files
survive package upgrades (unknown versions are rejected loudly rather
than misparsed).

When a run manifest is ambient (the CLI installs one around every
command — see :mod:`repro.obs.manifest`), :func:`save_result` embeds its
deterministic core under a ``"manifest"`` key, so a results file found
months later records what produced it. Files written without a manifest
(or by older releases) load unchanged; use :func:`load_manifest` to read
the provenance back without deserializing the whole result.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import DatasetError
from repro.experiments.figures import (
    Fig7Series,
    Fig8Series,
    Fig9Trace,
    Fig10Series,
)
from repro.experiments.runner import SweepPoint

PathLike = Union[str, os.PathLike]

#: Bump when the on-disk schema changes incompatibly.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BenchTable:
    """A generic benchmark results table (kind ``"bench-table"``).

    Benchmarks that are not one of the paper's figures (e.g.
    ``benchmarks/bench_incremental.py``'s old-vs-new sweep) persist
    their measurements through this shape so they share the standard
    JSON envelope (schema version, atomic writes, loud version checks).
    Cells must be JSON scalars.
    """

    #: Benchmark identifier, e.g. ``"bench_incremental"``.
    name: str
    #: Column headers, one per cell of each row.
    columns: Tuple[str, ...]
    #: Measurement rows; ``rows[i][j]`` belongs to ``columns[j]``.
    rows: Tuple[Tuple[Any, ...], ...]
    #: Free-form context (machine, sweep parameters, ...).
    meta: Dict[str, Any] = field(default_factory=dict)

    def column(self, name: str) -> Tuple[Any, ...]:
        """All values of one column, in row order."""
        j = self.columns.index(name)
        return tuple(row[j] for row in self.rows)


FigureResult = Union[
    Fig7Series, Fig8Series, List[Fig9Trace], Fig10Series, BenchTable
]


def _point_to_dict(point: SweepPoint) -> Dict[str, Any]:
    return {
        "x": point.x,
        "mean": dict(point.mean),
        "std": dict(point.std),
        "n_runs": point.n_runs,
    }


def _point_from_dict(data: Dict[str, Any]) -> SweepPoint:
    return SweepPoint(
        x=int(data["x"]),
        mean={k: float(v) for k, v in data["mean"].items()},
        std={k: float(v) for k, v in data["std"].items()},
        n_runs=int(data["n_runs"]),
    )


def to_jsonable(result: FigureResult) -> Dict[str, Any]:
    """Convert a figure result into a JSON-serializable dict."""
    if isinstance(result, Fig7Series):
        body = {
            "kind": "fig7",
            "placement": result.placement,
            "points": [_point_to_dict(p) for p in result.points],
        }
    elif isinstance(result, Fig8Series):
        body = {
            "kind": "fig8",
            "n_servers": result.n_servers,
            "samples": {k: list(v) for k, v in result.samples.items()},
        }
    elif isinstance(result, Fig10Series):
        body = {
            "kind": "fig10",
            "placement": result.placement,
            "n_servers": result.n_servers,
            "points": [_point_to_dict(p) for p in result.points],
        }
    elif isinstance(result, BenchTable):
        body = {
            "kind": "bench-table",
            "name": result.name,
            "columns": list(result.columns),
            "rows": [list(row) for row in result.rows],
            "meta": dict(result.meta),
        }
    elif isinstance(result, list) and all(
        isinstance(t, Fig9Trace) for t in result
    ):
        body = {
            "kind": "fig9",
            "traces": [
                {
                    "placement": t.placement,
                    "n_servers": t.n_servers,
                    "normalized_trace": list(t.normalized_trace),
                    "converged": t.converged,
                }
                for t in result
            ],
        }
    else:
        raise TypeError(f"unsupported result type: {type(result)!r}")
    body["schema_version"] = SCHEMA_VERSION
    return body


def from_jsonable(data: Dict[str, Any]) -> FigureResult:
    """Reconstruct a figure result from its JSON form."""
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DatasetError(
            f"unsupported result schema version {version!r} "
            f"(this build reads {SCHEMA_VERSION})"
        )
    kind = data.get("kind")
    if kind == "fig7":
        return Fig7Series(
            placement=data["placement"],
            points=tuple(_point_from_dict(p) for p in data["points"]),
        )
    if kind == "fig8":
        return Fig8Series(
            n_servers=int(data["n_servers"]),
            samples={
                k: tuple(float(x) for x in v)
                for k, v in data["samples"].items()
            },
        )
    if kind == "fig9":
        return [
            Fig9Trace(
                placement=t["placement"],
                n_servers=int(t["n_servers"]),
                normalized_trace=tuple(float(x) for x in t["normalized_trace"]),
                converged=bool(t["converged"]),
            )
            for t in data["traces"]
        ]
    if kind == "bench-table":
        return BenchTable(
            name=data["name"],
            columns=tuple(data["columns"]),
            rows=tuple(tuple(row) for row in data["rows"]),
            meta=dict(data.get("meta", {})),
        )
    if kind == "fig10":
        return Fig10Series(
            placement=data["placement"],
            n_servers=int(data["n_servers"]),
            points=tuple(_point_from_dict(p) for p in data["points"]),
        )
    raise DatasetError(f"unknown result kind {kind!r}")


#: Per-process monotonic counter for temp-file uniqueness (two threads
#: of one process writing the same target get distinct temp names too).
_TMP_COUNTER = itertools.count()


def fsync_directory(path: PathLike) -> None:
    """Fsync a directory, so the entries created or renamed in it survive
    a power cut (a file's own fsync does not cover its name)."""
    fd = os.open(os.fspath(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_text(path: PathLike, text: str) -> None:
    """Write ``text`` to ``path`` via a fsync'd temp + rename.

    The text is written to a temporary sibling and moved into place
    with :func:`os.replace`, so a crash or interrupt mid-write can
    never leave a truncated file at ``path`` — the previous contents
    (or the absence of the file) survive instead. The directory is
    fsynced after the rename, so once this returns the new file is
    durable under its name.

    The temporary name embeds the writer's PID and a per-process
    counter, so concurrent writers targeting the same path (parallel
    sweeps persisting into a shared results directory) can never
    collide on the staging file — last rename wins, and every rename
    installs a complete, valid document. Shared by experiment results
    and :mod:`repro.resilience.checkpoint` snapshots.
    """
    path = os.fspath(path)
    tmp_path = f"{path}.{os.getpid()}-{next(_TMP_COUNTER)}.tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    fsync_directory(os.path.dirname(os.path.abspath(path)))


def atomic_write_json(path: PathLike, payload: Dict[str, Any]) -> None:
    """Write ``payload`` to ``path`` as indented, key-sorted JSON,
    atomically (see :func:`atomic_write_text` for the crash-safety
    contract)."""
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def save_result(path: PathLike, result: FigureResult) -> None:
    """Write a figure result to ``path`` as JSON, atomically.

    Results take hours to produce at paper scale; silently corrupting
    one on an unlucky Ctrl-C is the one failure mode persistence exists
    to prevent — see :func:`atomic_write_json` for the crash-safety
    contract.
    """
    from repro.obs.manifest import current_manifest

    payload = to_jsonable(result)
    manifest = current_manifest()
    if manifest is not None:
        # Deterministic core only by default (REPRO_OBS_MANIFEST=full
        # opts into the volatile section) so byte-identical re-runs of
        # the same profile+seed keep producing byte-identical files.
        payload["manifest"] = manifest.to_dict()
    atomic_write_json(path, payload)


def load_result(path: PathLike) -> FigureResult:
    """Read a figure result previously written by :func:`save_result`."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DatasetError(f"{path}: expected a JSON object at top level")
    return from_jsonable(data)


def load_manifest(path: PathLike) -> Optional[Dict[str, Any]]:
    """The ``"manifest"`` block of a saved result, or ``None``.

    Returns ``None`` both for files written before manifests existed
    and for runs executed without an ambient manifest, so callers can
    treat provenance as strictly optional.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DatasetError(f"{path}: expected a JSON object at top level")
    manifest = data.get("manifest")
    return dict(manifest) if isinstance(manifest, dict) else None
