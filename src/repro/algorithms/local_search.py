"""Local search and simulated annealing (ablation baselines).

Not part of the paper — included to calibrate how much headroom the
paper's heuristics leave to generic metaheuristics, and as an ablation
for the design choice of Distributed-Greedy's "only clients on longest
paths move" rule (here *any* client may move).

Both optimizers use the same move structure as Distributed-Greedy
(relocate one client to another server). Candidate moves are scored
through :class:`~repro.core.incremental.IncrementalObjective` — O(|S|)
for a whole batch of destinations instead of an O(|C| + |S|^2) full
recomputation per candidate — so comparisons isolate the *search
policy*, not the move machinery.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.base import register
from repro.algorithms.nearest import nearest_server
from repro.core.assignment import Assignment
from repro.core.incremental import IncrementalObjective, record_candidate_evaluations
from repro.core.problem import ClientAssignmentProblem
from repro.obs import registry, span
from repro.utils.rng import SeedLike, ensure_rng


@register("hill-climbing")
def hill_climbing(
    problem: ClientAssignmentProblem,
    *,
    seed: SeedLike = None,
    initial: Optional[Assignment] = None,
    max_rounds: int = 50,
    backend: str = "auto",
) -> Assignment:
    """Steepest-descent over single-client relocations.

    Each round scans a random order of clients; for each client the best
    relocation is applied when it strictly reduces D. Stops when a full
    round makes no move (local optimum) or after ``max_rounds``.

    One engine query scores all |S| destinations of a client at once.
    ``backend`` selects the engine's kernel backend (see
    :func:`repro.kernels.resolve_backend`).
    """
    rng = ensure_rng(seed)
    if initial is None:
        initial = nearest_server(problem)
    server_of = initial.server_of.copy()
    loads = np.bincount(server_of, minlength=problem.n_servers)
    capacities = problem.capacities
    engine = IncrementalObjective(problem, server_of, history=False, backend=backend)

    best_d = engine.d()
    moves = registry().counter("local_search.hc_moves")
    with span("hc.search", clients=problem.n_clients, servers=problem.n_servers):
        for _ in range(max_rounds):
            improved = False
            for c in rng.permutation(problem.n_clients):
                c = int(c)
                home = int(server_of[c])
                scores: Optional[np.ndarray] = None
                for s in range(problem.n_servers):
                    if s == home:
                        continue
                    if capacities is not None and loads[s] >= capacities[s]:
                        continue
                    if scores is None:
                        scores = engine.batch_delta_D(c, respect_capacities=False)
                    if scores[s] < best_d - 1e-12:
                        server_of[c] = s
                        loads[home] -= 1
                        loads[s] += 1
                        engine.apply(c, s)
                        best_d = engine.d()
                        scores = None  # home changed: rescore lazily
                        home = s
                        improved = True
                        moves.inc()
            if not improved:
                break
    return Assignment(problem, server_of)


@register("simulated-annealing")
def simulated_annealing(
    problem: ClientAssignmentProblem,
    *,
    seed: SeedLike = None,
    initial: Optional[Assignment] = None,
    n_steps: int = 2000,
    start_temperature: Optional[float] = None,
    cooling: float = 0.995,
    backend: str = "auto",
) -> Assignment:
    """Simulated annealing over single-client relocations.

    Accepts worsening moves with probability ``exp(-Δ/T)``; the
    temperature decays geometrically by ``cooling`` per step. Returns the
    best assignment visited. The default start temperature is 10% of the
    initial objective. ``backend`` selects the engine's kernel backend
    (see :func:`repro.kernels.resolve_backend`).

    Candidates are scored by tentative apply/undo rather than
    :meth:`~IncrementalObjective.delta_D`: the acceptance test
    ``delta <= 0`` short-circuits the RNG draw, so ``d_new`` must be
    *bit*-identical to the recomputed objective at exact ties — which
    ``engine.d()`` is (same reduction, same evaluation order), while a
    delta query may differ in the last ulp through a different
    association of the same sums.
    """
    rng = ensure_rng(seed)
    if initial is None:
        initial = nearest_server(problem)
    server_of = initial.server_of.copy()
    loads = np.bincount(server_of, minlength=problem.n_servers)
    capacities = problem.capacities
    engine = IncrementalObjective(problem, server_of, backend=backend)

    current_d = engine.d()
    best_d = current_d
    best = server_of.copy()
    temperature = (
        start_temperature if start_temperature is not None else 0.1 * current_d
    )
    temperature = max(temperature, 1e-9)

    accepted = registry().counter("local_search.sa_accepted")
    with span(
        "sa.search",
        clients=problem.n_clients,
        servers=problem.n_servers,
        steps=n_steps,
    ):
        for _ in range(n_steps):
            c = int(rng.integers(0, problem.n_clients))
            s = int(rng.integers(0, problem.n_servers))
            home = int(server_of[c])
            if s == home:
                continue
            if capacities is not None and loads[s] >= capacities[s]:
                continue
            record_candidate_evaluations(1)
            engine.apply(c, s)
            d_new = engine.d()
            delta = d_new - current_d
            if delta <= 0 or rng.uniform() < np.exp(-delta / temperature):
                server_of[c] = s
                loads[home] -= 1
                loads[s] += 1
                current_d = d_new
                accepted.inc()
                if current_d < best_d:
                    best_d = current_d
                    best = server_of.copy()
            else:
                engine.undo()
            temperature *= cooling
    return Assignment(problem, best)
