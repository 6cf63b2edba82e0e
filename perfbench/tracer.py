"""Span recording around calls into the program's layers.

A :class:`SpanRecorder` wraps public functions and methods of ``repro``
from the outside: each wrapped call records one span (name, start, end,
parent span, request id and an optional numeric value taken from the
call's result). Spans stay in memory as flat float arrays and are
written out once, when the traced process ends.

The program itself is not edited: :func:`install` swaps the wrapped
callables into the classes and modules that hold them, so the program
runs unchanged apart from the wrapper cost, which the benchmark reports
as the tracing overhead.

Timestamps are ``time.perf_counter()`` values. On Linux that clock is
``CLOCK_MONOTONIC``, which every process on the host shares, so spans
recorded in the server can be compared with phase boundaries recorded
by the load generator.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Fields of one span row, in storage order.
FIELDS = ("id", "name", "start", "end", "parent", "request", "value")
_WIDTH = len(FIELDS)


class SpanRecorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.rows = array("d")
        self._stack: List[int] = []
        self._next_id = 0
        self.request: float = -1.0

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
        return nid

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        value: Optional[Callable[[Any], float]] = None,
        label: Optional[Callable[..., str]] = None,
        request: Optional[Callable[..., Any]] = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records one span per call.

        ``value`` maps the call's result to the span's number (bytes,
        moves, ...); ``label`` names the span from the call's arguments;
        ``request`` extracts the request id that child spans inherit.
        """
        fixed = self.name_id(name)
        rows, stack, clock = self.rows, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            nid = fixed if label is None else self.name_id(label(*args, **kwargs))
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            outer_request = self.request
            if request is not None:
                rid = request(*args, **kwargs)
                self.request = float(rid) if isinstance(rid, (int, float)) else -1.0
            stack.append(span_id)
            number = math.nan
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if value is not None:
                    number = float(value(result))
                return result
            finally:
                end = clock()
                stack.pop()
                rows.extend((span_id, nid, start, end, parent, self.request, number))
                self.request = outer_request

        return wrapper

    # -- persistence ---------------------------------------------------
    def dump(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write the spans (binary rows plus a JSON header) to ``path``."""
        header = {"names": self.names, "fields": FIELDS, "extra": extra or {}}
        blob = json.dumps(header).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            self.rows.tofile(fh)


def load(path: str) -> Tuple["Spans", Dict[str, Any]]:
    """Read a file written by :meth:`SpanRecorder.dump`."""
    with open(path, "rb") as fh:
        size = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(size).decode("utf-8"))
        rows = array("d")
        rows.frombytes(fh.read())
    return Spans(header["names"], rows), header["extra"]


class Spans:
    """Read-side view of recorded spans with self-time arithmetic."""

    def __init__(self, names: Sequence[str], rows: Iterable[float]) -> None:
        flat = list(rows)
        if len(flat) % _WIDTH:
            raise ValueError("span rows are truncated")
        self.names = list(names)
        self.ids: List[int] = []
        self.name: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.request: List[float] = []
        self.value: List[float] = []
        for i in range(0, len(flat), _WIDTH):
            sid, nid, start, end, parent, req, number = flat[i : i + _WIDTH]
            self.ids.append(int(sid))
            self.name.append(self.names[int(nid)])
            self.start.append(start)
            self.end.append(end)
            self.parent.append(int(parent))
            self.request.append(req)
            self.value.append(number)
        self.index = {sid: i for i, sid in enumerate(self.ids)}
        self.children: Dict[int, List[int]] = {}
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                self.children.setdefault(parent, []).append(i)

    @classmethod
    def from_tuples(
        cls, spans: Sequence[Tuple[int, str, float, float, int]]
    ) -> "Spans":
        """Build from ``(id, name, start, end, parent)`` tuples (tests)."""
        names: List[str] = []
        rows: List[float] = []
        for sid, name, start, end, parent in spans:
            if name not in names:
                names.append(name)
            rows.extend(
                (sid, names.index(name), start, end, parent, -1.0, math.nan)
            )
        return cls(names, rows)

    def __len__(self) -> int:
        return len(self.ids)

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def self_time(self, i: int) -> float:
        """Duration minus the part of it that child spans cover."""
        start, end = self.start[i], self.end[i]
        intervals = sorted(
            (max(self.start[c], start), min(self.end[c], end))
            for c in self.children.get(self.ids[i], ())
        )
        covered = 0.0
        cursor = start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return (end - start) - covered

    def parent_name(self, i: int) -> Optional[str]:
        j = self.index.get(self.parent[i])
        return None if j is None else self.name[j]

    def select(
        self,
        name: str,
        windows: Optional[Sequence[Tuple[float, float]]] = None,
        parent: Optional[str] = None,
    ) -> List[int]:
        """Indices of spans called ``name`` starting inside one of ``windows``."""
        out = []
        for i, n in enumerate(self.name):
            if n != name:
                continue
            if windows is not None and not any(
                lo <= self.start[i] < hi for lo, hi in windows
            ):
                continue
            if parent is not None and self.parent_name(i) != parent:
                continue
            out.append(i)
        return out


# ----------------------------------------------------------------------
# Installing wrappers into the program
# ----------------------------------------------------------------------
def _replace_everywhere(original: Callable, replacement: Callable) -> int:
    """Point every module-level reference to ``original`` at ``replacement``.

    Covers ``from x import f`` copies and module-level dict tables such
    as placement registries; returns how many references changed.
    """
    changed = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, val in list(vars(module).items()):
            if val is original:
                setattr(module, attr, replacement)
                changed += 1
            elif type(val) is dict:
                for key, item in list(val.items()):
                    if item is original:
                        val[key] = replacement
                        changed += 1
    return changed


def wrap_function(
    recorder: SpanRecorder, module: Any, attr: str, name: str, **options: Any
) -> None:
    original = getattr(module, attr)
    wrapper = recorder.wrap(name, original, **options)
    if not _replace_everywhere(original, wrapper):
        raise RuntimeError(f"no reference to {module.__name__}.{attr} found")


def wrap_method(
    recorder: SpanRecorder, cls: type, attr: str, name: str, **options: Any
) -> None:
    original = cls.__dict__[attr]
    setattr(cls, attr, recorder.wrap(name, original, **options))


def install(recorder: SpanRecorder, layers: Sequence[str]) -> None:
    """Wrap the public calls of the named layer groups.

    ``layers`` picks from ``service`` (wire codec and service core),
    ``runtime`` (durable runtime, WAL, checkpoints, online manager,
    policies, failover, engine) and ``solve`` (algorithms, lower bound,
    placement, datasets, coresets and the scale pipeline).
    """
    import repro.algorithms.base as algo_base
    import repro.algorithms.online as online
    import repro.algorithms.policies as policies
    import repro.core.incremental as incremental
    import repro.core.lower_bound as lower_bound
    import repro.datasets.meridian as meridian
    import repro.experiments.runner  # noqa: F401  (holds run_algorithm)
    import repro.faults.failover as failover
    import repro.parallel.cache  # noqa: F401  (holds placement table)
    import repro.placement.kcenter as kcenter
    import repro.resilience.checkpoint as checkpoint
    import repro.resilience.runtime as runtime
    import repro.resilience.wal as wal
    import repro.scale.coreset as coreset
    import repro.scale.pipeline as pipeline
    import repro.service.core as core
    import repro.service.protocol as protocol
    import repro.service.server  # noqa: F401  (holds codec copies)

    if "service" in layers:
        wrap_function(recorder, protocol, "decode_frame", "protocol.decode")
        wrap_function(
            recorder, protocol, "encode_frame", "protocol.encode", value=len
        )
        wrap_method(
            recorder,
            core.AssignmentService,
            "handle",
            "core.handle",
            request=lambda _self, req, *a, **k: (
                req.get("id") if isinstance(req, dict) else None
            ),
        )
        wrap_method(recorder, core.Session, "apply_event", "core.apply_event")
        wrap_method(recorder, core.Session, "query", "core.query")
    if "runtime" in layers:
        for op in ("join", "leave", "crash", "recover_server", "partition",
                   "heal", "rebalance"):
            wrap_method(recorder, runtime.DurableRuntime, op, "runtime.event")
        wrap_method(recorder, runtime.DurableRuntime, "checkpoint", "checkpoint.run")
        wrap_method(recorder, runtime.DurableRuntime, "state_dict", "checkpoint.state")
        wrap_function(recorder, checkpoint, "state_digest", "checkpoint.digest")
        wrap_function(
            recorder,
            checkpoint,
            "write_checkpoint",
            "checkpoint.write",
            value=lambda path: os.path.getsize(path),
        )
        wrap_method(recorder, wal.WriteAheadLog, "append", "wal.append")
        wrap_method(recorder, wal.WriteAheadLog, "sync", "wal.sync")
        os.fsync = recorder.wrap("os.fsync", os.fsync)
        wrap_method(recorder, online.OnlineAssignmentManager, "join", "online.join")
        wrap_method(recorder, online.OnlineAssignmentManager, "leave", "online.leave")
        wrap_method(
            recorder, online.OnlineAssignmentManager, "current_d", "online.current_d"
        )
        wrap_method(
            recorder,
            online.OnlineAssignmentManager,
            "rebalance",
            "online.rebalance",
            value=float,
        )
        for cls in _subclasses(policies.OnlinePolicy):
            if "choose_server" in cls.__dict__:
                wrap_method(recorder, cls, "choose_server", "policies.choose_server")
        wrap_method(
            recorder,
            failover.FailoverController,
            "on_crash",
            "failover.crash",
            value=lambda record: record.n_evacuated,
        )
        wrap_method(
            recorder, failover.FailoverController, "on_recover", "failover.recover"
        )
        wrap_method(recorder, incremental.IncrementalObjective, "apply", "engine.apply")
    if "solve" in layers:
        wrap_function(
            recorder,
            algo_base,
            "run_algorithm",
            "algo",
            label=lambda name, *a, **k: f"algo.{name}",
            value=lambda result: result.n_evaluations,
        )
        wrap_function(
            recorder, lower_bound, "interaction_lower_bound", "lower_bound"
        )
        random_placement = importlib.import_module("repro.placement.random_placement")
        for module, attr in (
            (random_placement, "random_placement"),
            (kcenter, "kcenter_a"),
            (kcenter, "kcenter_b"),
        ):
            wrap_function(recorder, module, attr, "placement")
        wrap_function(
            recorder, meridian, "synthesize_meridian_like", "datasets.synth"
        )
        wrap_function(recorder, coreset, "build_coreset", "coreset.build")
        wrap_method(recorder, coreset.Coreset, "expand", "pipeline.expand")
        wrap_function(
            recorder, pipeline, "expanded_objective", "pipeline.expanded_objective"
        )
        wrap_function(recorder, pipeline, "solve_at_scale", "pipeline.solve")


def _subclasses(cls: type) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out
