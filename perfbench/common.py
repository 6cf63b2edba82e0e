"""Shared helpers: percentiles, process probes, the run record and paths."""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: The benchmark's own directory and the checkout it runs in.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Candidate tail percentiles, highest last.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


def derived_seed(seed: int, index: int) -> int:
    """Input seed of round or pass ``index``; run seeds never share one."""
    return seed * 1000 + index


class CheckFailed(Exception):
    """An output check failed: the run is reported as incorrect."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def _rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples (exact)."""
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in percent) of unsorted samples."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[_rank(q, len(ordered)) - 1]


def median(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def tail_percentile(n_samples: int, *, beyond: int = 10) -> Optional[float]:
    """The highest candidate percentile with ``beyond`` samples above it.

    Returns ``None`` when even the median lacks that many samples.
    """
    best = None
    for q in TAIL_PERCENTILES:
        if n_samples - _rank(q, n_samples) >= beyond:
            best = q
    return best


def latency_summary(samples_s: Sequence[float]) -> Dict[str, Any]:
    """p50/p99 in ms plus the rule's tail percentile, with the count."""
    n = len(samples_s)
    tail = tail_percentile(n)
    p99 = percentile(samples_s, 99.0)
    return {
        "n": n,
        "p50_ms": percentile(samples_s, 50.0) * 1e3,
        "p99_ms": p99 * 1e3,
        "p99_beyond": sum(1 for s in samples_s if s > p99),
        "tail_q": tail,
        "tail_ms": None if tail is None else percentile(samples_s, tail) * 1e3,
    }


# ----------------------------------------------------------------------
# Process probes (Linux /proc)
# ----------------------------------------------------------------------
_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds a process has used so far."""
    with open(f"/proc/{pid}/stat", "r") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mib(pid: int) -> float:
    """A live process's peak resident set size (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status", "r") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> List[int]:
    """Direct children of a live process."""
    out: List[int] = []
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/children") as fh:
                out.extend(int(p) for p in fh.read().split())
        except FileNotFoundError:
            continue
    return out


# ----------------------------------------------------------------------
# Environment and the run record
# ----------------------------------------------------------------------
def child_env(workdir: Path) -> Dict[str, str]:
    """Environment for program processes: source tree first, temp local."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(workdir)
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("REPRO_OBS_TRACE", None)
    return env


def source_revision() -> str:
    """The git commit of the checkout, else a digest of ``src/``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_record(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    import numpy

    try:
        import numba  # noqa: F401

        numba_state = "present (not used: numpy kernels are measured)"
    except ImportError:
        numba_state = "absent"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "revision": source_revision(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_state,
    }


def load_benchmark_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in load_benchmark_spec()[kind]}


def emit(obj: Dict[str, Any]) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)


def now() -> float:
    return time.perf_counter()
