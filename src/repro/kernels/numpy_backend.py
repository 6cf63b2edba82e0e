"""Pure-numpy kernel twin — the engine's historical inline code.

Every function here is a verbatim extraction of the numpy the
incremental engine ran before the kernel seam existed. That makes this
backend the **reference implementation**: selecting it (or running
without numba installed) reproduces the pre-kernel engine byte for
byte, which the regression tests pin against golden walk values.

Do not "optimize" these bodies — equivalence to the old engine *is*
their specification. Raw-speed work belongs in
:mod:`repro.kernels.numba_backend` (or a future compiled backend),
gated by the parity suite.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def objective_refresh(
    l_out: np.ndarray, l_in: np.ndarray, ss: np.ndarray
) -> float:
    """Maximum of ``l_out[s1] + d(s1, s2) + l_in[s2]`` over used servers.

    Callers guarantee at least one server is used (finite ``l_out``).
    Same reduction — and the same floating point association — as
    :func:`repro.core.metrics.max_interaction_path_length`.
    """
    _used, totals = server_path_totals(l_out, l_in, ss)
    return float(totals.max())


def server_path_totals(
    l_out: np.ndarray, l_in: np.ndarray, ss: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The used servers and every ``l_out[s1] + d(s1, s2) + l_in[s2]``.

    ``totals[i, j]`` is the path from ``used[i]`` to ``used[j]``; both
    are empty when no server is used. :func:`objective_refresh` is the
    maximum; callers that need the witness path take the argmax.
    """
    used = np.flatnonzero(np.isfinite(l_out))
    sub = ss[np.ix_(used, used)]
    totals = l_out[used][:, None] + sub + l_in[used][None, :]
    return used, totals


def reduction_top2(
    ss: np.ndarray, l_in: np.ndarray, l_out: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Top-2 contributions of ``best_in`` / ``best_out`` per server.

    ``best_in[s'] = max_s d(s', s) + l_in[s]`` and
    ``best_out[s'] = max_s l_out[s] + d(s, s')``, each with its runner-up
    and the argmax of the leader, so excluding one server's column later
    costs O(1) per row. Ties resolve to the highest server index (the
    tail of a stable ascending argsort), matching the engine's original
    behavior.
    """
    n_servers = ss.shape[0]
    in_terms = ss + l_in[None, :]  # (S, S): term[s', s]
    out_terms = l_out[:, None] + ss  # (S, S): term[s, s']
    order_in = np.argsort(in_terms, axis=1, kind="stable")
    arg1_in = order_in[:, -1]
    rows = np.arange(n_servers)
    best1_in = in_terms[rows, arg1_in]
    if n_servers >= 2:
        best2_in = in_terms[rows, order_in[:, -2]]
    else:
        best2_in = np.full(n_servers, -np.inf)
    order_out = np.argsort(out_terms, axis=0, kind="stable")
    arg1_out = order_out[-1, :]
    best1_out = out_terms[arg1_out, rows]
    if n_servers >= 2:
        best2_out = out_terms[order_out[-2, :], rows]
    else:
        best2_out = np.full(n_servers, -np.inf)
    return best1_in, best2_in, arg1_in, best1_out, best2_out, arg1_out


def topk_select(dists: np.ndarray, k: int) -> Tuple[np.ndarray, float]:
    """Indices of the top-``k`` entries, sorted descending, plus bound.

    ``bound`` is the maximum distance *not* selected (``-inf`` when
    everything fits) — the rebuilt list's eviction watermark. The
    descending sort is stable over the argpartition-selected members,
    matching ``_TopList.rebuild``'s original selection exactly.
    """
    if dists.size > k:
        part = np.argpartition(-dists, k - 1)
        keep = part[:k]
        bound = float(dists[part[k:]].max())
    else:
        keep = np.arange(dists.size)
        bound = -np.inf
    order = keep[np.argsort(-dists[keep], kind="stable")]
    return order, bound


def weighted_loads(
    server_of: np.ndarray, weights: np.ndarray, n_servers: int
) -> np.ndarray:
    """Per-server total client weight (int64-exact scatter-add).

    ``server_of`` uses ``-1`` for unassigned clients, which contribute
    nothing. Weighted instances (the coreset layer's super-clients)
    consult these loads for capacity masking; member *counts* stay in
    the engine's separate ``loads`` array.
    """
    loads = np.zeros(n_servers, dtype=np.int64)
    assigned = server_of >= 0
    if assigned.any():
        np.add.at(loads, server_of[assigned], weights[assigned])
    return loads


def move_context(
    ss: np.ndarray,
    l_out: np.ndarray,
    l_in: np.ndarray,
    best1_in: np.ndarray,
    best2_in: np.ndarray,
    arg1_in: np.ndarray,
    best1_out: np.ndarray,
    best2_out: np.ndarray,
    arg1_out: np.ndarray,
    out_leg: np.ndarray,
    in_leg: np.ndarray,
    home: int,
    l_out_home: float,
    l_in_home: float,
    has_assigned: bool,
) -> Tuple[np.ndarray, float]:
    """Per-client candidate paths ``L(s')`` and the client-less objective.

    The fused hot path behind ``batch_delta_D`` / ``candidate_paths``:
    exclude the client's home server from the cached best completions
    (O(1) per row via the top-2 terms), compute ``d_rest`` — D with the
    client removed — and score every destination: the client's outgoing
    leg plus the best continuation, the best prefix plus its incoming
    leg, and its own round trip.
    """
    if home >= 0:
        best_in = np.where(arg1_in == home, best2_in, best1_in)
        np.maximum(best_in, ss[:, home] + l_in_home, out=best_in)
        best_out = np.where(arg1_out == home, best2_out, best1_out)
        np.maximum(best_out, l_out_home + ss[home, :], out=best_out)
        l_out_rest = l_out.copy()
        l_out_rest[home] = l_out_home
        with np.errstate(invalid="ignore"):
            d_rest = float(np.max(l_out_rest + best_in))
    else:
        best_in = best1_in
        best_out = best1_out
        if has_assigned:
            with np.errstate(invalid="ignore"):
                d_rest = float(np.max(l_out + best_in))
        else:
            d_rest = -np.inf
    paths = np.maximum(out_leg + best_in, best_out + in_leg)
    np.maximum(paths, out_leg + in_leg, out=paths)
    return paths, d_rest
