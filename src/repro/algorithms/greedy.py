"""Greedy Assignment (paper §IV-C, Fig. 6 pseudocode).

Starting from an empty assignment, each iteration considers every
(unassigned client, server) pair ``(c, s)``. Selecting the pair means
assigning to ``s`` the client ``c`` *and* every unassigned client not
farther from ``s`` than ``c`` (the Longest-First-Batch closure). The
pair chosen is the one minimizing the amortized cost

    cost(c, s) = Δl / Δn

where ``Δn`` is the number of clients the batch would assign and ``Δl``
the resulting increase of the maximum interaction path length. Per the
pseudocode, the candidate path length for pair ``(c, s)`` is

    len(c, s) = max( 2 d(c, s),  d(c, s) + m(s),  max_len )

with ``m(s) = max over assigned clients b of d(s, s_A(b)) + d(s_A(b), b)``
shared across all candidates for ``s``, and ``max_len`` the running
maximum interaction path length.

Implementation notes
--------------------
- Fully vectorized: each iteration computes the entire ``(|S|, |C|)``
  cost matrix with numpy. ``Δn`` comes from per-server sorted client
  orders (the pseudocode's ``index[s, c]``), refreshed per iteration via
  a masked cumulative sum — the same O(|S| |C|) stage-3 recount as the
  paper's pseudocode.
- Assignment state and the ``m(s)`` reductions live in an
  :class:`~repro.core.incremental.IncrementalObjective`: batches commit
  via ``assign_many`` and the per-server farthest legs / best
  completions are read back from the engine's caches, so Greedy shares
  the maintenance (and candidate-evaluation accounting) substrate of
  the local-search family.
- Asymmetric matrices: the round-trip term uses ``d(c,s) + d(s,c)`` and
  ``m(s)`` uses the proper directional legs, reducing exactly to the
  pseudocode on symmetric inputs.
- Capacitated (§IV-E): saturated servers are excluded; for a server with
  remaining capacity ``r``, ``Δn`` is capped at ``r`` and an overflowing
  batch keeps the selected client ``c`` plus the ``r - 1`` nearest batch
  members (so ``Δl`` stays exact — ``c`` remains the farthest member).

Complexity: O(|S| |C| log |C|) preprocessing + O(|S| |C|) per iteration,
matching the paper's O(|S||C| log|C| + m |S||C|).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import register, round_trip_distances
from repro.core.assignment import Assignment
from repro.core.incremental import (
    IncrementalObjective,
    record_candidate_evaluations,
)
from repro.core.problem import ClientAssignmentProblem
from repro.obs import registry, span
from repro.utils.rng import SeedLike


@register("greedy")
def greedy(
    problem: ClientAssignmentProblem,
    *,
    seed: SeedLike = None,
    amortized: bool = True,
) -> Assignment:
    """Run Greedy Assignment.

    ``seed`` is accepted for interface uniformity and ignored — the
    algorithm is deterministic (ties broken toward the lowest flat index
    of the cost matrix).

    ``amortized`` selects the pair-selection metric: the paper's
    ``Δl/Δn`` (default) or plain ``Δl`` (ignoring batch size). The
    latter exists as an ablation of the paper's design choice — dividing
    by Δn rewards assigning many clients per unit of path-length growth;
    see ``repro.experiments.ablations.ablation_greedy_cost``.
    """
    cs = problem.client_server  # (C, S): d(c, s)
    ss = problem.server_server  # (S, S)
    sc = problem.server_client  # (S, C)
    n_clients, n_servers = cs.shape
    rt = round_trip_distances(problem)  # (C, S): d(c,s) + d(s,c)
    metrics = registry()
    batches = metrics.counter("greedy.batches")
    batch_sizes = metrics.histogram("greedy.batch_size")

    # Preprocessing: per-server client order by ascending d(c, s), and
    # each client's position in that order (the pseudocode's index[s, c]
    # before any assignment).
    order = np.argsort(cs.T, axis=1, kind="stable")  # (S, C) client ids
    pos = np.empty_like(order)
    rows = np.arange(n_servers)[:, None]
    pos[rows, order] = np.arange(n_clients)[None, :]

    unassigned = np.ones(n_clients, dtype=bool)
    remaining = (
        problem.capacities.copy().astype(np.int64)
        if problem.is_capacitated
        else None
    )

    # Assignment state + per-server farthest-leg maintenance.
    engine = IncrementalObjective(problem, history=False)
    max_len = 0.0

    with span("greedy.assign", clients=n_clients, servers=n_servers):
        while unassigned.any():
            # m terms shared per server (line 11 of the pseudocode):
            #   m_in[s]  = max_b d(s, s_A(b)) + d(s_A(b), b)   (outgoing)
            #   m_out[s] = max_b d(b, s_A(b)) + d(s_A(b), s)   (incoming)
            # served from the engine's cached best-completion reductions.
            any_assigned = engine.n_assigned > 0
            if any_assigned:
                m_in, m_out = engine.server_reductions()

            # Candidate path length for every (s, c) pair (lines 13-14).
            cand = np.maximum(rt.T, max_len)  # round trip & current max
            if any_assigned:
                cand = np.maximum(cand, cs.T + m_in[:, None])
                cand = np.maximum(cand, m_out[:, None] + sc)
            record_candidate_evaluations(cand.size)
            delta_l = cand - max_len  # >= 0

            # Δn: rank of each client among unassigned clients per server.
            cum = np.cumsum(unassigned[order], axis=1)  # (S, C)
            delta_n = np.take_along_axis(cum, pos, axis=1).astype(np.float64)

            if remaining is not None:
                delta_n = np.minimum(delta_n, remaining[:, None])

            # Assigned clients (and saturated servers) can yield Δn = 0;
            # their costs are masked right after, so silence the 0/0.
            with np.errstate(divide="ignore", invalid="ignore"):
                if amortized:
                    cost = delta_l / delta_n
                else:
                    cost = np.where(delta_n > 0, delta_l, np.inf)
            # Mask out assigned clients and saturated servers.
            cost[:, ~unassigned] = np.inf
            if remaining is not None:
                cost[remaining <= 0, :] = np.inf

            flat = int(np.argmin(cost))
            s_star, c_star = divmod(flat, n_clients)
            assert np.isfinite(cost[s_star, c_star]), "no assignable pair found"

            limit = cs[c_star, s_star]
            batch = np.flatnonzero(unassigned & (cs[:, s_star] <= limit))
            if remaining is not None and batch.size > remaining[s_star]:
                others = batch[batch != c_star]
                keep_n = int(remaining[s_star]) - 1
                if keep_n > 0:
                    nearest_others = others[
                        np.argsort(cs[others, s_star], kind="stable")
                    ]
                    batch = np.concatenate(([c_star], nearest_others[:keep_n]))
                else:
                    batch = np.array([c_star], dtype=np.int64)

            engine.assign_many(batch, s_star)
            unassigned[batch] = False
            if remaining is not None:
                remaining[s_star] -= batch.size
            max_len = float(cand[s_star, c_star])
            batches.inc()
            batch_sizes.observe(batch.size)

    return engine.assignment()


@register("greedy-absolute")
def greedy_absolute(
    problem: ClientAssignmentProblem, *, seed: SeedLike = None
) -> Assignment:
    """Ablation variant of Greedy Assignment with cost = Δl (no Δn).

    Registered separately so experiment configs can sweep it by name.
    """
    return greedy(problem, seed=seed, amortized=False)
