"""The search heuristics walk their recorded from-scratch trajectories.

Hill-climbing, simulated annealing and Distributed-Greedy score
candidate moves through :class:`~repro.core.IncrementalObjective`. The
from-scratch scorers the engine replaced live on as test oracles in
:mod:`tests.algorithms.oracles`, and two layers of checks pin the engine
to them:

- **golden trajectories** — ``tests/data/search_trajectories.json``
  holds, for each seeded instance below, the SHA-256 of every
  heuristic's outcome (hill-climbing and annealing ``server_of``; the
  Distributed-Greedy ``trace`` as hex floats, ``n_messages``,
  ``n_modifications`` and ``server_of``). The digests were captured
  with every candidate scored by the from-scratch oracles, so any
  divergence in gating, tie-breaking or floating point evaluation order
  shows up here;
- **per-candidate replies** — on the same instances, every reply the
  engine serves equals the oracle's: ``candidate_paths(c)`` the
  ``L(s')`` vector and ``batch_delta_D(c)`` the D after each move.

Regenerate the digests (only when a behaviour change is intended) with::

    PYTHONPATH=src python -m tests.algorithms.test_incremental_equivalence
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

from repro.algorithms.distributed_greedy import distributed_greedy_detailed
from repro.algorithms.local_search import hill_climbing, simulated_annealing
from repro.algorithms.nearest import nearest_server
from repro.core import ClientAssignmentProblem, IncrementalObjective
from repro.datasets.synthetic import small_world_latencies
from repro.net.latency import LatencyMatrix
from repro.placement import random_placement
from tests.algorithms.oracles import (
    _candidate_lengths_recompute,
    _objective_after_move,
)

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "search_trajectories.json"
SCHEMA = "search-trajectories-v1"
HEURISTICS = ("hill-climbing", "simulated-annealing", "distributed-greedy")


def _problems():
    cases = []
    for n, k, seed in [(30, 4, 1), (50, 6, 2), (70, 8, 3)]:
        matrix = small_world_latencies(n, seed=seed)
        servers = random_placement(matrix, k, seed=seed)
        cases.append(ClientAssignmentProblem(matrix, servers))
        cases.append(
            ClientAssignmentProblem(matrix, servers, capacities=-(-n // k) + 2)
        )
    # One asymmetric instance: the engine handles both legs separately.
    rng = np.random.default_rng(9)
    values = rng.uniform(1.0, 100.0, size=(40, 40))
    np.fill_diagonal(values, 0.0)
    asym = LatencyMatrix(values)
    cases.append(
        ClientAssignmentProblem(asym, random_placement(asym, 5, seed=9))
    )
    return cases


PROBLEMS = _problems()


def trajectory(heuristic: str, idx: int) -> Dict[str, object]:
    """The recorded outcome of one heuristic on ``PROBLEMS[idx]``."""
    problem = PROBLEMS[idx]
    if heuristic == "hill-climbing":
        server_of = hill_climbing(problem, seed=idx).server_of
        return {"server_of": server_of.tolist()}
    if heuristic == "simulated-annealing":
        server_of = simulated_annealing(problem, seed=idx, n_steps=400).server_of
        return {"server_of": server_of.tolist()}
    result = distributed_greedy_detailed(problem, seed=idx)
    return {
        "trace": [float(d).hex() for d in result.trace],
        "n_messages": result.n_messages,
        "n_modifications": result.n_modifications,
        "server_of": result.assignment.server_of.tolist(),
    }


def trajectory_digest(heuristic: str, idx: int) -> str:
    payload = json.dumps(
        trajectory(heuristic, idx), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _cases():
    for heuristic in HEURISTICS:
        for idx in range(len(PROBLEMS)):
            yield f"{heuristic}/{idx}", heuristic, idx


def _golden() -> Dict[str, str]:
    with GOLDEN_PATH.open("r", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["schema"] == SCHEMA
    return doc["digests"]


def _check(heuristic: str, idx: int) -> None:
    assert trajectory_digest(heuristic, idx) == _golden()[f"{heuristic}/{idx}"]


def test_every_case_is_recorded():
    assert sorted(case[0] for case in _cases()) == sorted(_golden())


@pytest.mark.parametrize("idx", range(len(PROBLEMS)))
def test_hill_climbing_equivalent(idx):
    _check("hill-climbing", idx)


@pytest.mark.parametrize("idx", range(len(PROBLEMS)))
def test_simulated_annealing_equivalent(idx):
    # Identical RNG draw order + identical accept/reject decisions.
    _check("simulated-annealing", idx)


@pytest.mark.parametrize("idx", range(len(PROBLEMS)))
def test_distributed_greedy_equivalent(idx):
    _check("distributed-greedy", idx)


def _visited_states(idx: int):
    """Nearest-Server plus a few seeded relocations, as (engine, server_of)."""
    problem = PROBLEMS[idx]
    server_of = nearest_server(problem).server_of.copy()
    engine = IncrementalObjective(problem, server_of, history=False)
    yield engine, server_of
    rng = np.random.default_rng(idx)
    for _ in range(3):
        c = int(rng.integers(problem.n_clients))
        s = int(rng.integers(problem.n_servers))
        server_of[c] = s
        engine.apply(c, s)
        yield engine, server_of


@pytest.mark.parametrize("idx", range(len(PROBLEMS)))
def test_candidate_replies_match_oracle(idx):
    problem = PROBLEMS[idx]
    for engine, server_of in _visited_states(idx):
        for c in range(problem.n_clients):
            paths, _d_rest = engine.candidate_paths(c)
            assert np.array_equal(
                paths, _candidate_lengths_recompute(problem, server_of, c)
            )
            scores = engine.batch_delta_D(c, respect_capacities=False)
            expected = [
                _objective_after_move(problem, server_of, c, s)
                for s in range(problem.n_servers)
            ]
            # A delta query associates the same sums differently, so it
            # may differ from the full recomputation in the last ulp.
            np.testing.assert_allclose(scores, expected, rtol=1e-12, atol=0)


if __name__ == "__main__":
    digests = {key: trajectory_digest(*rest) for key, *rest in _cases()}
    with GOLDEN_PATH.open("w", encoding="utf-8") as fh:
        json.dump({"schema": SCHEMA, "digests": digests}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
