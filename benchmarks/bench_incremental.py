"""Old-vs-new candidate-evaluation benchmark for the incremental engine.

Sweeps instance sizes (|C| in {500, 2000, 8000} by default; override
with ``REPRO_BENCH_INCREMENTAL_SIZES=60,120`` for smoke runs) and, per
size, times the candidate-evaluation hot path of the two local-search
style consumers both ways:

- **local-search style**: score all |S| destinations of a sampled
  client — from-scratch ``_objective_after_move`` per destination vs
  one ``IncrementalObjective.batch_delta_D`` call;
- **distributed-greedy style**: compute the ``L(s')`` reply vector for
  a sampled client — from-scratch ``l``-vector rebuild over all |C|
  clients vs one ``IncrementalObjective.candidate_paths`` call.

The from-scratch scorers are the test oracles in
:mod:`tests.algorithms.oracles`. Both paths score the *same*
candidates, and the benchmark asserts they agree; the heuristics'
end-to-end trajectories are pinned by the golden digests in
``tests/algorithms/test_incremental_equivalence.py``. The measurements
(wall time and evaluation counts) are persisted as a ``bench-table``
result through the standard schema.

Acceptance target (ISSUE 2): >= 5x speedup for both styles at
|C| = 8000. The assertion is gated on |C| >= 4000 so smoke sizes don't
assert on noise.

A second sweep (``test_kernel_backends``) adds the **kernel backend
axis** (ISSUE 8): the same move-batch workload is timed per backend
(``numpy`` and, when importable, ``numba``) and per matrix dtype
(float64 and float32), with bit-identical cross-backend parity asserted
within a dtype and ~1e-5 relative agreement asserted across dtypes. The
measurements land in ``BENCH_incremental.json`` (written to
``REPRO_BENCH_OUT`` when set): a bench-table carrying the run config in
``meta`` and one row per (size, dtype, backend) with seconds and the
speedup versus the numpy twin. The >= 5x numba-vs-numpy target
(ISSUE 8) is asserted only when numba is importable **and**
|C| >= 50000 — below that the compiled kernels are not expected to
dominate, and containers without numba record numpy-only rows.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.algorithms.nearest import nearest_server
from repro.core import ClientAssignmentProblem, IncrementalObjective
from repro.experiments.persistence import BenchTable, load_result, save_result
from repro.experiments.reporting import format_table
from repro.kernels import available_backends, numba_available
from repro.net.latency import LatencyMatrix
from repro.obs import Stopwatch
from tests.algorithms.oracles import (
    _candidate_lengths_recompute,
    _objective_after_move,
)

N_SERVERS = 25
N_SAMPLED_CLIENTS = 64
SPEEDUP_TARGET = 5.0
#: Sizes below this only record measurements; at or above it the
#: speedup target is asserted.
ASSERT_FLOOR = 4000
#: numba-vs-numpy target for the kernel-backend sweep (ISSUE 8).
KERNEL_SPEEDUP_TARGET = 5.0
#: The kernel speedup is asserted only at |C| >= this (and only when
#: numba is importable); smaller batches measure dispatch, not kernels.
KERNEL_ASSERT_FLOOR = 50_000


def _sizes() -> list:
    raw = os.environ.get("REPRO_BENCH_INCREMENTAL_SIZES", "500,2000,8000")
    return [int(tok) for tok in raw.split(",") if tok.strip()]


def _make_problem(n_clients: int, seed: int) -> ClientAssignmentProblem:
    """A seeded asymmetric instance with |C| clients and N_SERVERS servers."""
    rng = np.random.default_rng(seed)
    n_nodes = n_clients
    values = rng.uniform(5.0, 300.0, size=(n_nodes, n_nodes))
    np.fill_diagonal(values, 0.0)
    matrix = LatencyMatrix(values)
    servers = rng.choice(n_nodes, size=min(N_SERVERS, n_nodes // 2), replace=False)
    return ClientAssignmentProblem(matrix, np.sort(servers))


def _bench_size(n_clients: int, seed: int) -> list:
    """Measure both styles at one size; returns table rows."""
    problem = _make_problem(n_clients, seed)
    server_of = nearest_server(problem).server_of.copy()
    n_servers = problem.n_servers
    rng = np.random.default_rng(seed + 1)
    sampled = rng.choice(
        problem.n_clients,
        size=min(N_SAMPLED_CLIENTS, problem.n_clients),
        replace=False,
    )

    # Engine construction is not timed: it corresponds to state a
    # running algorithm maintains anyway, amortized over every query.
    engine = IncrementalObjective(problem, server_of, history=False)
    engine.d()

    rows = []

    # --- local-search style: all destinations of each sampled client.
    with Stopwatch() as old_watch:
        old_scores = np.array(
            [
                [
                    _objective_after_move(problem, server_of, int(c), s)
                    for s in range(n_servers)
                ]
                for c in sampled
            ]
        )
    old_evals = sampled.size * n_servers
    with Stopwatch() as new_watch:
        new_scores = np.array(
            [
                engine.batch_delta_D(int(c), respect_capacities=False)
                for c in sampled
            ]
        )
    assert np.allclose(old_scores, new_scores, rtol=1e-9), (
        "incremental local-search scores diverge from the from-scratch path"
    )
    rows.append(
        [
            n_clients,
            "local-search",
            old_watch.elapsed,
            new_watch.elapsed,
            old_watch.elapsed / max(new_watch.elapsed, 1e-12),
            old_evals,
            old_evals,
        ]
    )

    # --- distributed-greedy style: the L(s') reply vector per client.
    with Stopwatch() as old_watch:
        old_replies = np.array(
            [
                _candidate_lengths_recompute(problem, server_of, int(c))
                for c in sampled
            ]
        )
    with Stopwatch() as new_watch:
        new_replies = np.array(
            [engine.candidate_paths(int(c))[0] for c in sampled]
        )
    assert np.allclose(old_replies, new_replies, rtol=1e-9), (
        "incremental L(s') replies diverge from the from-scratch path"
    )
    rows.append(
        [
            n_clients,
            "distributed-greedy",
            old_watch.elapsed,
            new_watch.elapsed,
            old_watch.elapsed / max(new_watch.elapsed, 1e-12),
            old_evals,
            old_evals,
        ]
    )

    return rows


def test_incremental_vs_recompute(benchmark, tmp_path):
    sizes = _sizes()

    def run():
        rows = []
        for i, n in enumerate(sizes):
            rows.extend(_bench_size(n, seed=100 + i))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    columns = (
        "n_clients",
        "style",
        "old_seconds",
        "new_seconds",
        "speedup",
        "old_evaluations",
        "new_evaluations",
    )
    table = BenchTable(
        name="bench_incremental",
        columns=columns,
        rows=tuple(tuple(row) for row in rows),
        meta={
            "n_servers": N_SERVERS,
            "n_sampled_clients": N_SAMPLED_CLIENTS,
            "sizes": sizes,
        },
    )
    out = os.environ.get("REPRO_BENCH_OUT")
    if out:
        os.makedirs(out, exist_ok=True)
    path = (
        os.path.join(out, "bench_incremental.json")
        if out
        else str(tmp_path / "bench_incremental.json")
    )
    save_result(path, table)
    assert load_result(path) == table

    print()
    print(
        "Candidate evaluation: from-scratch vs incremental "
        f"({N_SAMPLED_CLIENTS} clients x {N_SERVERS} destinations each)\n"
        + format_table(
            ["|C|", "style", "old (s)", "new (s)", "speedup", "evals"],
            [
                [r[0], r[1], f"{r[2]:.4f}", f"{r[3]:.4f}", f"{r[4]:.1f}x", r[5]]
                for r in rows
            ],
        )
        + f"\nresults written to {path}"
    )

    for row in rows:
        n, style, _old_s, _new_s, speedup = row[0], row[1], row[2], row[3], row[4]
        if n >= ASSERT_FLOOR:
            assert speedup >= SPEEDUP_TARGET, (
                f"{style} at |C|={n}: {speedup:.1f}x < "
                f"{SPEEDUP_TARGET}x target"
            )


# ----------------------------------------------------------------------
# Kernel backend axis (ISSUE 8)
# ----------------------------------------------------------------------


def _bench_backends_size(n_clients: int, seed: int) -> list:
    """Time the move-batch workload per (dtype, backend) at one size.

    The workload is the local-search inner loop: one
    ``batch_delta_D`` call (all |S| destinations) per sampled client.
    The initial assignment is computed once, in float64, and shared by
    every engine so all cells score identical candidate sets.
    """
    problem64 = _make_problem(n_clients, seed)
    initial = nearest_server(problem64).server_of
    rng = np.random.default_rng(seed + 1)
    sampled = rng.choice(
        problem64.n_clients,
        size=min(N_SAMPLED_CLIENTS, problem64.n_clients),
        replace=False,
    )

    rows = []
    numpy_runs = {}  # dtype name -> (scores, d)
    for dtype_name, problem in (
        ("float64", problem64),
        ("float32", problem64.astype(np.float32)),
    ):
        per_backend = {}
        for backend in available_backends():
            engine = IncrementalObjective(
                problem, initial.copy(), history=False, backend=backend
            )
            # Warm-up outside the timed region: D refresh plus one
            # batch call, so numba's first-call compilation (and the
            # lazy per-server list builds) never pollute the timing.
            engine.d()
            engine.batch_delta_D(int(sampled[0]), respect_capacities=False)
            with Stopwatch() as watch:
                scores = np.array(
                    [
                        engine.batch_delta_D(int(c), respect_capacities=False)
                        for c in sampled
                    ]
                )
            per_backend[backend] = (watch.elapsed, scores, engine.d())

        numpy_seconds, numpy_scores, numpy_d = per_backend["numpy"]
        numpy_runs[dtype_name] = (numpy_scores, numpy_d)
        for backend, (seconds, scores, d) in sorted(per_backend.items()):
            rows.append(
                [
                    n_clients,
                    dtype_name,
                    backend,
                    seconds,
                    numpy_seconds / max(seconds, 1e-12),
                    float(d),
                ]
            )
        if "numba" in per_backend:
            # Parity contract: within one dtype the backends are
            # bit-identical — same D, same candidate scores.
            _, numba_scores, numba_d = per_backend["numba"]
            assert numba_d == numpy_d, (
                f"numba D diverges from numpy at |C|={n_clients} "
                f"({dtype_name}): {numba_d!r} != {numpy_d!r}"
            )
            assert np.array_equal(numba_scores, numpy_scores, equal_nan=True), (
                f"numba candidate scores diverge from numpy at "
                f"|C|={n_clients} ({dtype_name})"
            )

    # float32 tracks float64 to the matrix rounding (~1e-6 relative on
    # entries; summed paths tolerate a bit more).
    scores64, d64 = numpy_runs["float64"]
    scores32, d32 = numpy_runs["float32"]
    assert d32 == pytest.approx(d64, rel=1e-5)
    assert np.allclose(scores32, scores64, rtol=1e-5, atol=1e-3, equal_nan=True), (
        f"float32 candidate scores drift beyond tolerance at |C|={n_clients}"
    )
    return rows


def test_kernel_backends(benchmark, tmp_path):
    sizes = _sizes()

    def run():
        rows = []
        for i, n in enumerate(sizes):
            rows.extend(_bench_backends_size(n, seed=200 + i))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    columns = (
        "n_clients",
        "dtype",
        "backend",
        "seconds",
        "speedup_vs_numpy",
        "objective_d",
    )
    table = BenchTable(
        name="bench_incremental_backends",
        columns=columns,
        rows=tuple(tuple(row) for row in rows),
        meta={
            "n_servers": N_SERVERS,
            "n_sampled_clients": N_SAMPLED_CLIENTS,
            "sizes": sizes,
            "backends": list(available_backends()),
            "numba_available": numba_available(),
            "dtypes": ["float64", "float32"],
            "speedup_target": KERNEL_SPEEDUP_TARGET,
            "assert_floor": KERNEL_ASSERT_FLOOR,
        },
    )
    out = os.environ.get("REPRO_BENCH_OUT")
    if out:
        os.makedirs(out, exist_ok=True)
    path = (
        os.path.join(out, "BENCH_incremental.json")
        if out
        else str(tmp_path / "BENCH_incremental.json")
    )
    save_result(path, table)
    assert load_result(path) == table

    print()
    print(
        "Kernel backends: move-batch workload per (dtype, backend) "
        f"({N_SAMPLED_CLIENTS} clients x {N_SERVERS} destinations each)\n"
        + format_table(
            ["|C|", "dtype", "backend", "seconds", "vs numpy"],
            [
                [r[0], r[1], r[2], f"{r[3]:.4f}", f"{r[4]:.1f}x"]
                for r in rows
            ],
        )
        + f"\nresults written to {path}"
    )

    if numba_available():
        for row in rows:
            n, _dtype, bknd, _s, speedup = row[0], row[1], row[2], row[3], row[4]
            if bknd == "numba" and n >= KERNEL_ASSERT_FLOOR:
                assert speedup >= KERNEL_SPEEDUP_TARGET, (
                    f"numba at |C|={n}: {speedup:.1f}x < "
                    f"{KERNEL_SPEEDUP_TARGET}x target"
                )
