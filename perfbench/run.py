"""The repository benchmark: one command, four workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload churn-off --seed 1 --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
traced variant and prints every per-layer metric. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
run record (revision, host, versions, seed, sample counts). A failed
output check prints ``"correct": false`` and exits with status 1.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH_DIR,
    ROOT,
    SRC,
    CheckFailed,
    child_env,
    emit,
    latency_summary,
    median,
    metric_units,
    require,
    run_record,
)

WORKLOADS = ("churn-off", "churn-wal", "scale-100k", "figures")
SETUP_REPEATS = 3
JOB_TIMEOUT_S = 170.0


def _load_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: repro imported from {origin}, not {SRC}")


# ----------------------------------------------------------------------
# scale-100k and figures: a fresh program process per run
# ----------------------------------------------------------------------
def _job(workdir: Path, workload: str, seed: int, seconds: int, trace: int,
         setup_only: bool) -> Dict[str, Any]:
    out = workdir / f"job-{time.perf_counter_ns()}.json"
    cmd = [sys.executable, str(BENCH_DIR / "job.py"), workload, str(seed),
           str(seconds), str(trace), str(out)]
    if setup_only:
        cmd.append("--setup-only")
    launched = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(workdir),
                          capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    require(proc.returncode == 0, f"{workload} job exited {proc.returncode}:\n{proc.stderr}")
    require("Traceback" not in proc.stderr, f"{workload} job wrote a traceback:\n{proc.stderr}")
    result = json.loads(out.read_text())
    if "check_failed" in result:
        raise CheckFailed(result["check_failed"])
    result["setup_s"] = result["ready"] - launched
    return result


def solve_workload(workload: str):
    def run(workdir: Path, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
        setups = []
        if not trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(_job(workdir, workload, seed, seconds, 0, True)["setup_s"])
        result = _job(workdir, workload, seed, seconds, trace, False)
        setups.append(result["setup_s"])
        walls = result["walls"]
        lat = latency_summary(result["latencies"])
        record = {"passes": len(walls), "pass_walls_s": walls, "setup_samples": setups,
                  "latency_samples": lat["n"], "latency_p50_ms": lat["p50_ms"],
                  "latency_p99_ms": lat["p99_ms"],
                  "tail_rule": {"percentile": lat["tail_q"], "ms": lat["tail_ms"]},
                  "units_per_pass": result["units_per_pass"]}
        if trace:
            if workload == "figures":
                record["pool_metrics"] = ("pool.* come from TrialPool.stats of the untraced "
                                          "pooled pass; spans come from a serial pass")
            return {"metrics": result["layers"], "attempted": result["attempted"],
                    "failed": result["failed"], "record": record}
        wall = median(walls)
        attempted, failed = result["attempted"], result["failed"]
        metrics = {
            "setup_s": median(setups),
            "events_per_s": result["units_per_pass"] / wall,
            "interactivity": result["interactivity"],
            "wall_s": wall,
            "d_ms": result["d_ms"],
            "peak_rss_mib": result["peak_rss_mib"],
            "ok_frac": (attempted - failed) / attempted,
        }
        return {"metrics": metrics, "attempted": attempted, "failed": failed, "record": record}

    return run


def churn_workload(mode: str):
    def run(workdir: Path, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
        import churn

        if trace:
            return churn.run_traced(workdir, mode, seed, seconds)
        return churn.run(workdir, mode, seed, seconds)

    return run


RUNNERS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "churn-off": churn_workload("off"),
    "churn-wal": churn_workload("wal"),
    "scale-100k": solve_workload("scale-100k"),
    "figures": solve_workload("figures"),
}


def _complete(metrics: Dict[str, float], kind: str) -> Dict[str, Dict[str, Any]]:
    """Every metric of ``kind``, by name with its unit (0 where unreached)."""
    units = metric_units(kind)
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    missing = sorted(set(units) - set(metrics))
    if kind == "end_to_end" and missing:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    return {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()

    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    record = run_record(args.workload, args.seed, args.seconds, args.trace)
    try:
        result = RUNNERS[args.workload](workdir, args.seed, args.seconds, args.trace)
        correct = True
    except CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        result = {"metrics": {}, "attempted": 1, "failed": 1, "record": {"check": str(exc)}}
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(result["record"])
    emit({"record": record})
    kind = "per_layer" if args.trace else "end_to_end"
    emit({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": _complete(result["metrics"], kind) if correct else {},
    })
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
