"""Tests of the benchmark itself.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import churn  # noqa: E402
import common  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_covered_child_intervals():
    spans = tracer.Spans.from_tuples(
        [
            (0, "root", 0.0, 10.0, -1),
            (1, "a", 1.0, 3.0, 0),
            (2, "b", 4.0, 8.0, 0),
            (3, "b.leaf", 5.0, 6.0, 2),
            (4, "late", 9.5, 12.0, 0),  # runs past its parent: clipped
        ]
    )
    assert spans.self_time(spans.index[0]) == pytest.approx(10.0 - 2.0 - 4.0 - 0.5)
    assert spans.self_time(spans.index[2]) == pytest.approx(3.0)
    assert spans.self_time(spans.index[3]) == pytest.approx(1.0)
    assert spans.parent_name(spans.index[3]) == "b"


def test_self_time_counts_overlapping_children_once():
    spans = tracer.Spans.from_tuples(
        [(0, "root", 0.0, 10.0, -1), (1, "x", 2.0, 6.0, 0), (2, "y", 4.0, 7.0, 0)]
    )
    assert spans.self_time(0) == pytest.approx(10.0 - 5.0)


def test_recorder_round_trip_keeps_nesting_and_values(tmp_path):
    recorder = tracer.SpanRecorder()
    inner = recorder.wrap("inner", lambda n: "x" * n, value=len)
    outer = recorder.wrap("outer", lambda: inner(3) + inner(4))
    assert outer() == "x" * 7
    path = tmp_path / "spans.bin"
    recorder.dump(str(path), {"note": 1})
    spans, extra = tracer.load(str(path))
    assert extra == {"note": 1}
    assert [spans.name[i] for i in range(len(spans))] == ["inner", "inner", "outer"]
    assert all(spans.parent_name(i) == "outer" for i in spans.select("inner"))
    assert [spans.value[i] for i in spans.select("inner")] == [3.0, 4.0]
    assert math.isnan(spans.value[spans.select("outer")[0]])


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (9999, 99.0), (10_000, 99.9), (100_000, 99.99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert common.tail_percentile(n) == expected


def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert common.percentile(samples, 50.0) == 50
    assert common.percentile(samples, 99.0) == 99
    assert common.percentile([3.0], 99.0) == 3.0


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
SMALL = {"nodes": 60, "n_servers": 4}


def _small_run():
    from repro.service.core import SessionConfig
    from repro.service.replay import replay_events, trajectory_digest

    config = SessionConfig.from_dict(SMALL)
    matrix = config.build_matrix()
    events = _events(config, matrix)
    events = events + churn.settle_events(events)
    replay = replay_events(matrix, config, events)
    d_ms = float.fromhex(replay.trajectory[-1]["d"])
    return config.to_dict(), events, replay.digest, trajectory_digest(replay.trajectory), d_ms


def _events(config, matrix):
    from repro.service.workload import generate_events

    return generate_events(
        config.nodes, config.resolve_servers(matrix), n_events=400, seed=3,
        fault_every=50, partition_every=70, rebalance_every=30,
    )


def test_library_check_accepts_matching_results():
    churn.check_against_library(*_small_run())


def test_library_check_rejects_a_tampered_digest():
    config, events, digest, trajectory, d_ms = _small_run()
    tampered = ("0" if digest[0] != "0" else "1") + digest[1:]
    with pytest.raises(common.CheckFailed, match="state digest"):
        churn.check_against_library(config, events, tampered, trajectory, d_ms)
    with pytest.raises(common.CheckFailed, match="trajectory"):
        churn.check_against_library(config, events, digest, trajectory[::-1], d_ms)
    with pytest.raises(common.CheckFailed, match="recomputed D"):
        churn.check_against_library(config, events, digest, trajectory, d_ms * 1.001)


def test_incremental_trajectory_hash_matches_the_library_digest():
    from repro.service.replay import trajectory_digest

    entries = [{"op": "join", "d": "0x1.8p+3", "clients": 1}, {"op": "leave", "error": {}}]
    hasher = churn.TrajectoryHasher()
    for entry in entries:
        hasher.add(entry)
    assert hasher.hexdigest() == trajectory_digest(entries)
    assert churn.TrajectoryHasher().hexdigest() == trajectory_digest([])


def test_settle_events_recover_and_heal_what_the_stream_left_out():
    events = [
        {"op": "crash", "server": 2},
        {"op": "crash", "server": 5},
        {"op": "recover", "server": 2},
        {"op": "partition", "servers": [1]},
        {"op": "partition", "servers": [3]},
        {"op": "heal", "servers": [1]},
    ]
    assert churn.settle_events(events) == [
        {"op": "recover", "server": 5},
        {"op": "heal", "servers": [3]},
        {"op": "rebalance", "max_moves": churn.SETTLE_MOVES},
    ]


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------
def test_layer_metric_names_are_declared():
    declared = set(common.metric_units("per_layer"))
    empty = tracer.Spans([], [])
    run_info = {
        "sat_windows": [(0.0, 1.0)], "timed_windows": [(0.0, 1.0)], "sat_events": 10,
        "n_events": 10, "loadgen_cpu_share": 0.1, "server_cpu_share": 0.5,
        "wal_bytes": 0,
    }
    produced = set(layers.churn_metrics(empty, {}, run_info))
    produced |= set(layers.solve_metrics(empty, {}, 1))
    assert produced <= declared
    extra = {"loadgen.lag_p99_ms", "coreset.reduction_ratio", "coreset.epsilon_ms",
             "pool.busy_share", "pool.cache_hit_ratio", "trace.untraced_per_s",
             "trace.traced_per_s", "trace.overhead_share"}
    assert produced | extra == declared


def test_complete_rejects_undeclared_and_missing_end_to_end_metrics():
    names = common.metric_units("end_to_end")
    full = {name: 1.0 for name in names}
    assert set(run._complete(full, "end_to_end")) == set(names)
    with pytest.raises(RuntimeError):
        run._complete({**full, "bogus": 1.0}, "end_to_end")
    with pytest.raises(RuntimeError):
        run._complete({k: v for k, v in full.items() if k != "setup_s"}, "end_to_end")


def test_printed_end_to_end_names_match_benchmark_json():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "churn-off",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    spec = common.load_benchmark_spec()
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert all(m["value"] != 0 for m in result["metrics"].values())
