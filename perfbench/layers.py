"""Per-layer metrics derived from recorded spans and registry counters.

Every traced run prints every per-layer metric. A layer the workload
does not reach reads 0. Unless a metric says otherwise, churn metrics
cover the saturation phase and are per event; scale and figures
metrics cover one traced pass (one solve, or one fig7+fig10
regeneration) and are per pass.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from tracer import Spans

KERNELS = (
    "move_context",
    "reduction_top2",
    "topk_select",
    "objective_refresh",
    "weighted_loads",
)
ALGORITHMS = ("nearest-server", "longest-first-batch", "greedy", "distributed-greedy")
WAL_PARENTS = ("wal.append", "wal.sync")
Windows = Sequence[Tuple[float, float]]


def _total(spans: Spans, idx: Sequence[int]) -> float:
    return sum(spans.duration(i) for i in idx)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _self_total(spans: Spans, idx: Sequence[int]) -> float:
    return sum(spans.self_time(i) for i in idx)


def _fsyncs(spans: Spans, windows: Windows) -> List[int]:
    return [
        i for i in spans.select("os.fsync", windows) if spans.parent_name(i) in WAL_PARENTS
    ]


def kernel_metrics(registry: Dict[str, Any], units: float) -> Dict[str, float]:
    """``kernel.numpy.*`` registry counters per unit of work."""
    counters = registry.get("counters", {})
    out = {}
    for name in KERNELS:
        out[f"kernels.{name}.calls"] = counters.get(f"kernel.numpy.{name}.calls", 0) / units
        out[f"kernels.{name}.s"] = counters.get(f"kernel.numpy.{name}.seconds", 0.0) / units
    return out


def churn_metrics(
    spans: Spans, registry: Dict[str, Any], run: Dict[str, Any]
) -> Dict[str, float]:
    sat = run["sat_windows"]
    timed = run["timed_windows"]
    wall = sum(end - start for start, end in sat)
    events = run["sat_events"]
    per_us = 1e6 / events

    def in_sat(name: str) -> List[int]:
        return spans.select(name, sat)

    def in_run(name: str, parent: Optional[str] = None) -> List[int]:
        return spans.select(name, timed, parent)

    decode = in_sat("protocol.decode")
    encode = in_sat("protocol.encode")
    handle = in_sat("core.handle")
    fsync_sat = _fsyncs(spans, sat)
    fsync_run = _fsyncs(spans, timed)
    checkpoints = in_sat("checkpoint.run")
    writes = in_run("checkpoint.write")
    rebalances = in_run("online.rebalance")
    crashes = in_run("failover.crash")
    out = {
        "loadgen.cpu_share": run["loadgen_cpu_share"],
        "server.cpu_share": run["server_cpu_share"],
        # Server wall time outside the handler and codec: event loop,
        # socket reads and writes, and any idle gaps.
        "server.transport_us_per_event": (
            wall - _total(spans, decode + encode + handle)
        ) * per_us,
        "protocol.decode_us_per_event": _total(spans, decode) * per_us,
        "protocol.encode_us_per_event": _total(spans, encode) * per_us,
        "protocol.reply_bytes_per_event": sum(spans.value[i] for i in encode) / events,
        "core.handle_self_us_per_event": _self_total(
            spans, handle + in_sat("core.apply_event")
        ) * per_us,
        "runtime.self_us_per_event": _self_total(spans, in_sat("runtime.event")) * per_us,
        "wal.append_us_per_event": _total(spans, in_sat("wal.append")) * per_us,
        "wal.fsyncs_per_1k_events": len(fsync_sat) * 1000.0 / events,
        "wal.fsync_ms_mean": _mean([spans.duration(i) for i in fsync_run]) * 1e3,
        "wal.fsync_share": _total(spans, fsync_sat) / wall,
        "wal.bytes_per_event": run["wal_bytes"] / run["n_events"],
        "checkpoint.per_1k_events": len(checkpoints) * 1000.0 / events,
        "checkpoint.state_ms_mean": _mean(
            [spans.duration(i) for i in in_run("checkpoint.state", "checkpoint.run")]
        ) * 1e3,
        "checkpoint.digest_ms_mean": _mean(
            [spans.duration(i) for i in in_run("checkpoint.digest", "checkpoint.write")]
        ) * 1e3,
        "checkpoint.write_ms_mean": _mean([spans.duration(i) for i in writes]) * 1e3,
        "checkpoint.bytes_mean": _mean([spans.value[i] for i in writes]),
        "checkpoint.bytes_last": spans.value[writes[-1]] if writes else 0.0,
        "checkpoint.share": _total(spans, checkpoints) / wall,
        "online.join_us": _mean([spans.duration(i) for i in in_sat("online.join")]) * 1e6,
        "online.leave_us": _mean([spans.duration(i) for i in in_sat("online.leave")]) * 1e6,
        "policies.choose_server_us": _mean(
            [spans.duration(i) for i in in_sat("policies.choose_server")]
        ) * 1e6,
        "online.current_d_calls_per_event": len(in_sat("online.current_d")) / events,
        "online.current_d_us_per_event": _total(spans, in_sat("online.current_d")) * per_us,
        "online.rebalance_ms_mean": _mean([spans.duration(i) for i in rebalances]) * 1e3,
        "online.rebalance_moves_per_call": _mean([spans.value[i] for i in rebalances]),
        "failover.crash_ms_mean": _mean([spans.duration(i) for i in crashes]) * 1e3,
        "failover.recover_ms_mean": _mean(
            [spans.duration(i) for i in in_run("failover.recover")]
        ) * 1e3,
        "failover.moves_per_crash": _mean([spans.value[i] for i in crashes]),
        "engine.apply_per_event": len(in_sat("engine.apply")) / events,
    }
    out.update(kernel_metrics(registry, run["n_events"]))
    return out


def solve_metrics(
    spans: Spans, registry_delta: Dict[str, Any], passes: int
) -> Dict[str, float]:
    """Metrics of traced scale or figures passes, per pass."""
    counters = registry_delta.get("counters", {})
    out: Dict[str, float] = {}
    for name in ALGORITHMS:
        out[f"algo.{name}_s"] = _total(spans, spans.select(f"algo.{name}")) / passes
    out["dga.evaluations"] = (
        sum(spans.value[i] for i in spans.select("algo.distributed-greedy")) / passes
    )
    out["lower_bound.s"] = _total(spans, spans.select("lower_bound")) / passes
    out["placement.s"] = _total(spans, spans.select("placement")) / passes
    out["datasets.synth_s"] = _total(spans, spans.select("datasets.synth")) / passes
    out["coreset.build_s"] = _total(spans, spans.select("coreset.build")) / passes
    reduce_solve = [
        i for i in spans.select("algo.distributed-greedy")
        if spans.parent_name(i) == "pipeline.solve"
    ]
    out["pipeline.reduce_solve_s"] = _total(spans, reduce_solve) / passes
    out["pipeline.expand_s"] = (
        _total(spans, spans.select("pipeline.expand"))
        + _total(spans, spans.select("pipeline.expanded_objective"))
    ) / passes
    out["provider.calls"] = counters.get("provider.coordinate.calls", 0) / passes
    out["provider.elements"] = counters.get("provider.coordinate.elements", 0) / passes
    out["engine.apply_per_event"] = len(spans.select("engine.apply")) / passes
    out.update(kernel_metrics(registry_delta, passes))
    return out
