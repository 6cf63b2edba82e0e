"""One program process for the ``scale-100k`` and ``figures`` workloads.

Usage::

    PYTHONPATH=src python3 perfbench/job.py WORKLOAD SEED SECONDS TRACE OUT [--setup-only]

Writes one JSON document to ``OUT``. A *pass* is one unit of timed
work: one ``solve_at_scale`` of a 100k-client planet instance, or one
regeneration of the fig7 and fig10 random-placement panels on a fresh
``TrialPool(2)``. Each pass has its own input seed, and the number of
passes follows from ``SECONDS`` alone. With ``--setup-only`` the job
stops once it is ready for timed work, so the caller can time set-up
repeatedly.
"""

from __future__ import annotations

import dataclasses
import json
import math
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    CheckFailed,
    child_pids,
    derived_seed,
    median,
    peak_rss_mib,
    require,
)

SCALE_CLIENTS = 100_000
SCALE_SERVERS = 32
SCALE_CLUSTERS = 64
#: Clients farthest from any server, whose §V lower bound bounds D below.
LB_SAMPLE = 2000
FIGURE_WORKERS = 2
#: Seconds of budget per pass (about one pass's wall time on a 2-CPU host).
SCALE_PASS_S = 3.0
FIGURE_PASS_S = 6.0


def _noop(matrix: Any, task: int) -> int:
    return task


def _registry_counters() -> Dict[str, float]:
    from repro.obs import registry

    return dict(registry().snapshot()["counters"])


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, Any]:
    return {"counters": {k: v - before.get(k, 0) for k, v in after.items()}}


def passes(seconds: float, per_pass: float) -> int:
    """Passes per run: sized from the budget, never from measured speed."""
    return max(1, int(seconds // per_pass))


# ----------------------------------------------------------------------
# scale-100k
# ----------------------------------------------------------------------
def _scale_instance(seed: int):
    from repro.datasets import coreset_cell_size_hint, planet_instance

    instance = planet_instance(
        SCALE_CLIENTS, SCALE_SERVERS, n_clusters=SCALE_CLUSTERS, seed=seed
    )
    return instance, coreset_cell_size_hint(instance)


def _scale_solve(instance, cell: float, seed: int):
    from repro.scale import solve_at_scale

    t0 = time.perf_counter()
    result = solve_at_scale(
        instance.provider,
        instance.servers,
        instance.clients,
        cell_size=cell,
        algorithm="distributed-greedy",
        seed=seed,
    )
    return result, time.perf_counter() - t0


def _scale_checks(instance, result) -> float:
    """Recompute D at another chunk size; return D over a sample's LB."""
    import numpy as np

    from repro.core import ClientAssignmentProblem, interaction_lower_bound
    from repro.scale.coreset import DEFAULT_CHUNK_SIZE
    from repro.scale.pipeline import expanded_objective

    again = expanded_objective(
        instance.provider,
        instance.servers,
        instance.clients,
        result.server_of,
        chunk_size=DEFAULT_CHUNK_SIZE // 3 + 1,
    )
    require(
        again == result.d_expanded,
        f"D {again!r} != {result.d_expanded!r} at a second chunk size",
    )
    require(result.d_expanded <= result.bound, "expanded D exceeds the coreset bound")
    clients = np.asarray(instance.clients)
    nearest = instance.provider.client_server_distances(
        clients, np.asarray(instance.servers)
    ).min(axis=1)
    sample = np.sort(clients[np.argsort(nearest, kind="stable")[-LB_SAMPLE:]])
    problem = ClientAssignmentProblem(instance.provider, instance.servers, clients=sample)
    lower = float(interaction_lower_bound(problem))
    return result.d_expanded / lower


def scale(seed: int, seconds: float, trace: int, setup_only: bool) -> Dict[str, Any]:
    instance, cell = _scale_instance(derived_seed(seed, 0))
    ready = time.perf_counter()
    if setup_only:
        return {"ready": ready}
    walls, solved = [], []
    for index in range(1 if trace else passes(seconds, SCALE_PASS_S)):
        if index:
            instance, cell = _scale_instance(derived_seed(seed, index))
        result, wall = _scale_solve(instance, cell, derived_seed(seed, index))
        walls.append(wall)
        solved.append((instance, result))
    # Read the peak before the checks, which allocate on their own.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ratios = [_scale_checks(inst, res) for inst, res in solved]
    out: Dict[str, Any] = {
        "ready": ready,
        "walls": walls,
        "latencies": walls,
        "units_per_pass": SCALE_CLIENTS,
        "d_ms": median([res.d_expanded for _inst, res in solved]),
        "interactivity": median(ratios),
        "peak_rss_mib": rss,
        "attempted": len(walls),
        "failed": 0,
    }
    if trace:
        out["layers"] = _scale_traced(instance, cell, derived_seed(seed, 0), result)
    return out


def _scale_traced(instance, cell: float, seed: int, first) -> Dict[str, float]:
    """A warm untraced solve, then a traced one, of the same instance."""
    import layers
    import tracer

    again, untraced = _scale_solve(instance, cell, seed)
    recorder = tracer.SpanRecorder()
    tracer.install(recorder, ["runtime", "solve"])
    before = _registry_counters()
    result, wall = _scale_solve(instance, cell, seed)
    require(
        again.d_expanded == first.d_expanded == result.d_expanded,
        "repeated solves of one instance disagree",
    )
    spans = tracer.Spans(recorder.names, recorder.rows)
    metrics = layers.solve_metrics(spans, _delta(_registry_counters(), before), 1)
    metrics["coreset.reduction_ratio"] = result.coreset.reduction_ratio
    metrics["coreset.epsilon_ms"] = result.coreset.epsilon
    metrics["trace.untraced_per_s"] = 1.0 / untraced
    metrics["trace.traced_per_s"] = 1.0 / wall
    metrics["trace.overhead_share"] = 1.0 - untraced / wall
    return metrics


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------
def _figure_profile(seed: int):
    from repro.experiments.config import profile

    return dataclasses.replace(profile("bench"), seed=seed)


def _start_pool(workers: int):
    """A pool whose worker processes are up (or the serial pool)."""
    from repro.parallel import TrialPool

    pool = TrialPool(workers)
    if workers:
        pool.map_trials(_noop, list(range(4 * workers)))
    return pool


def _figure_trials(prof):
    from repro.algorithms import paper_algorithm_names
    from repro.experiments.runner import placement_trials

    algorithms = paper_algorithm_names()
    fig7 = []
    for k in prof.server_counts:
        fig7.extend(
            placement_trials("random", k, algorithms, n_runs=prof.n_random_runs, seed=prof.seed)
        )
    fig10 = []
    for capacity in prof.scaled_capacities():
        fig10.extend(
            placement_trials(
                "random",
                prof.fixed_servers,
                algorithms,
                n_runs=prof.n_random_runs,
                seed=prof.seed,
                capacity=capacity,
            )
        )
    return algorithms, fig7, fig10


def _figure_pass(prof, pool) -> Dict[str, Any]:
    """Regenerate the fig7 and fig10 random panels (as the figure code does)."""
    from repro.experiments.figures import dataset_for
    from repro.experiments.runner import aggregate_sweep, run_placement_trial
    from repro.parallel.pool import run_trials

    algorithms, fig7, fig10 = _figure_trials(prof)
    t0 = time.perf_counter()
    matrix = dataset_for(prof)
    points, outcomes = [], []
    for trials in (fig7, fig10):
        done = run_trials(run_placement_trial, trials, matrix=matrix, pool=pool)
        points.extend(aggregate_sweep(trials, done, algorithms))
        outcomes.extend(done)
    wall = time.perf_counter() - t0
    return {"wall": wall, "points": points, "outcomes": outcomes, "algorithms": algorithms}


def _pool_rss(pool) -> float:
    import os

    total = peak_rss_mib(os.getpid())
    for pid in child_pids(os.getpid()):
        try:
            total += peak_rss_mib(pid)
        except (FileNotFoundError, RuntimeError):
            continue
    return total


def _figure_summary(result: Dict[str, Any]) -> Dict[str, float]:
    normalized = [p.mean[a] for p in result["points"] for a in result["algorithms"]]
    scores = [s for o in result["outcomes"] if o.ok for s in o.value.scores]
    require(
        all(math.isfinite(s.normalized) and s.normalized >= 1.0 for s in scores),
        "a normalized interactivity is not finite and >= 1",
    )
    require(
        all(math.isfinite(v) and v >= 1.0 for v in normalized),
        "a figure point is not finite and >= 1",
    )
    return {
        "interactivity": sum(normalized) / len(normalized),
        "d_ms": sum(s.max_path_length for s in scores) / len(scores),
        "trials": len(result["outcomes"]),
        "failed": sum(1 for o in result["outcomes"] if not o.ok),
    }


def figures(seed: int, seconds: float, trace: int, setup_only: bool) -> Dict[str, Any]:
    from repro.experiments.figures import dataset_for

    prof = _figure_profile(derived_seed(seed, 0))
    dataset_for(prof)
    pool = _start_pool(FIGURE_WORKERS)
    ready = time.perf_counter()
    if setup_only:
        pool.close()
        return {"ready": ready}
    walls, summaries, rss, stats, trial_seconds = [], [], 0.0, [], []
    for index in range(1 if trace else passes(seconds, FIGURE_PASS_S)):
        if index:
            prof = _figure_profile(derived_seed(seed, index))
            pool = _start_pool(FIGURE_WORKERS)
        before = dataclasses.replace(pool.stats)
        result = _figure_pass(prof, pool)
        stats.append((before, dataclasses.replace(pool.stats)))
        rss = max(rss, _pool_rss(pool))
        pool.close()
        walls.append(result["wall"])
        trial_seconds.extend(o.seconds for o in result["outcomes"])
        summaries.append(_figure_summary(result))
    failed = sum(s["failed"] for s in summaries)
    require(failed == 0, f"{failed} figure trials failed")
    out: Dict[str, Any] = {
        "ready": ready,
        "walls": walls,
        "latencies": trial_seconds,
        "units_per_pass": summaries[0]["trials"],
        "d_ms": median([s["d_ms"] for s in summaries]),
        "interactivity": median([s["interactivity"] for s in summaries]),
        "peak_rss_mib": rss,
        "attempted": sum(s["trials"] for s in summaries),
        "failed": failed,
    }
    if trace:
        before, after = stats[0]
        busy = after.trial_seconds - before.trial_seconds
        wall = after.wall_seconds - before.wall_seconds
        hits = after.cache.hits - before.cache.hits
        lookups = after.cache.lookups - before.cache.lookups
        out["layers"] = _figures_traced(prof, summaries[0])
        out["layers"]["pool.busy_share"] = busy / (FIGURE_WORKERS * wall)
        out["layers"]["pool.cache_hit_ratio"] = hits / lookups
    return out


def _figures_traced(prof, expected: Dict[str, float]) -> Dict[str, float]:
    """Serial passes: one untraced, one traced (pool workers are not traced)."""
    import layers
    import tracer

    serial = _start_pool(0)
    plain = _figure_pass(prof, serial)
    recorder = tracer.SpanRecorder()
    tracer.install(recorder, ["runtime", "solve"])
    before = _registry_counters()
    traced = _figure_pass(prof, serial)
    serial.close()
    require(_figure_summary(traced) == expected, "traced pass disagrees with the untraced one")
    spans = tracer.Spans(recorder.names, recorder.rows)
    metrics = layers.solve_metrics(spans, _delta(_registry_counters(), before), 1)
    metrics["trace.untraced_per_s"] = 1.0 / plain["wall"]
    metrics["trace.traced_per_s"] = 1.0 / traced["wall"]
    metrics["trace.overhead_share"] = 1.0 - plain["wall"] / traced["wall"]
    return metrics


def main(argv: List[str]) -> int:
    workload, seed, seconds, trace, out = argv[:5]
    setup_only = "--setup-only" in argv[5:]
    job = {"scale-100k": scale, "figures": figures}[workload]
    try:
        result = job(int(seed), float(seconds), int(trace), setup_only)
    except CheckFailed as exc:
        result = {"check_failed": str(exc)}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
