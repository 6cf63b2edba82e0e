"""From-scratch scorers the incremental engine is checked against.

The search heuristics score candidate moves through
:class:`~repro.core.incremental.IncrementalObjective`. These are the
straightforward computations it replaced, straight from the paper's
definitions; they are slow on purpose and live here only as references
for the equivalence tests and ``benchmarks/bench_incremental.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import Assignment
from repro.core.metrics import max_interaction_path_length
from repro.core.problem import ClientAssignmentProblem


def _objective_after_move(
    problem: ClientAssignmentProblem,
    server_of: np.ndarray,
    client: int,
    new_server: int,
) -> float:
    """D after relocating one client, in O(|C| + |S|^2).

    The from-scratch reference for ``IncrementalObjective.batch_delta_D``.
    """
    old = server_of[client]
    server_of[client] = new_server
    try:
        assignment = Assignment(problem, server_of, validate=False)
        return max_interaction_path_length(assignment)
    finally:
        server_of[client] = old


def _candidate_lengths_recompute(
    problem: ClientAssignmentProblem, server_of: np.ndarray, c: int
) -> np.ndarray:
    """The pre-engine reply computation: rebuild both ``l`` vectors over
    all clients with ``c`` excluded, then score every destination."""
    cs = problem.client_server
    ss = problem.server_server
    sc = problem.server_client
    n_servers = problem.n_servers
    l_out = np.full(n_servers, -np.inf)
    l_in = np.full(n_servers, -np.inf)
    mask = np.ones(problem.n_clients, dtype=bool)
    mask[c] = False
    idx = np.flatnonzero(mask)
    np.maximum.at(l_out, server_of[idx], cs[idx, server_of[idx]])
    np.maximum.at(l_in, server_of[idx], sc[server_of[idx], idx])
    with np.errstate(invalid="ignore"):
        best_in = np.where(
            np.isfinite(l_in).any(), (ss + l_in[None, :]).max(axis=1), -np.inf
        )
        best_out = np.where(
            np.isfinite(l_out).any(), (l_out[:, None] + ss).max(axis=0), -np.inf
        )
    l_candidates = np.maximum(cs[c, :] + best_in, best_out + sc[:, c])
    return np.maximum(l_candidates, cs[c, :] + sc[:, c])
