"""Operation workloads for the DIA simulation.

A workload is a finite list of :class:`~repro.sim.events.Operation`
records — which client issues an operation at which simulation time.
Sequence numbers are assigned in issuance order (ties broken by client
index), so the fairness checker can compare execution order against
``seq`` order directly.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.sim.events import Operation
from repro.sim.sequencing import sequence_timed
from repro.utils.rng import SeedLike, ensure_rng


def _finalize(raw: List[Tuple[float, int]]) -> List[Operation]:
    """Sort (time, client) pairs and assign sequence numbers.

    Delegates to :mod:`repro.sim.sequencing` so workloads and scenario
    streams share one canonical tie-break rule.
    """
    return sequence_timed(
        raw,
        lambda seq, t, c: Operation(issue_sim_time=t, seq=seq, client=c),
    )


def poisson_workload(
    n_clients: int,
    *,
    rate: float = 1.0,
    horizon: float = 100.0,
    seed: SeedLike = None,
) -> List[Operation]:
    """Each client issues operations as an independent Poisson process.

    ``rate`` is operations per unit simulation time per client;
    ``horizon`` is the issuance window ``[0, horizon)``.
    """
    if rate <= 0:
        raise InvalidParameterError(f"rate must be positive, got {rate}")
    if horizon <= 0:
        raise InvalidParameterError(f"horizon must be positive, got {horizon}")
    rng = ensure_rng(seed)
    raw: List[Tuple[float, int]] = []
    for client in range(n_clients):
        t = 0.0
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= horizon:
                break
            raw.append((t, client))
    return _finalize(raw)


def uniform_workload(
    n_clients: int,
    *,
    ops_per_client: int = 5,
    horizon: float = 100.0,
    seed: SeedLike = None,
) -> List[Operation]:
    """Each client issues a fixed number of uniformly-timed operations."""
    if ops_per_client < 0:
        raise ValueError(f"ops_per_client must be nonnegative, got {ops_per_client}")
    rng = ensure_rng(seed)
    raw: List[Tuple[float, int]] = []
    for client in range(n_clients):
        for t in rng.uniform(0.0, horizon, size=ops_per_client):
            raw.append((float(t), client))
    return _finalize(raw)


def lockstep_workload(
    n_clients: int,
    *,
    rounds: int = 5,
    interval: float = 50.0,
) -> List[Operation]:
    """Every client issues one operation per round, simultaneously.

    The worst case for fairness: simultaneous issuances must still be
    executed in a globally consistent order at every server.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be nonnegative, got {rounds}")
    if interval <= 0:
        raise ValueError(f"interval must be positive, got {interval}")
    raw: List[Tuple[float, int]] = []
    for r in range(rounds):
        for client in range(n_clients):
            raw.append((r * interval, client))
    return _finalize(raw)


def adversarial_pair_workload(
    client_a: int,
    client_b: int,
    *,
    gap: float = 0.001,
    rounds: int = 10,
    interval: float = 50.0,
) -> List[Operation]:
    """Two clients issue operations ``gap`` apart each round.

    Stress case for fair ordering: the operation issued ``gap`` later
    must execute later at *every* server even when its network path is
    much shorter.
    """
    if gap <= 0:
        raise ValueError(f"gap must be positive, got {gap}")
    raw: List[Tuple[float, int]] = []
    for r in range(rounds):
        base = r * interval
        raw.append((base, client_a))
        raw.append((base + gap, client_b))
    return _finalize(raw)


def flash_crowd_workload(
    n_clients: int,
    *,
    base_rate: float = 0.2,
    burst_rate: float = 5.0,
    burst_start: float = 40.0,
    burst_duration: float = 10.0,
    horizon: float = 100.0,
    seed: SeedLike = None,
) -> List[Operation]:
    """A background Poisson load plus a synchronized burst window.

    Models a flash-crowd moment (a boss spawn, a match start): during
    ``[burst_start, burst_start + burst_duration)`` every client's rate
    jumps from ``base_rate`` to ``burst_rate``. Stress case for server
    processing backlogs (:mod:`repro.sim.processing`).
    """
    for name, value in (("base_rate", base_rate), ("burst_rate", burst_rate)):
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")
    if not 0 <= burst_start < horizon:
        raise ValueError("burst_start must lie within the horizon")
    if burst_duration <= 0:
        raise ValueError(f"burst_duration must be positive, got {burst_duration}")
    rng = ensure_rng(seed)
    burst_end = min(burst_start + burst_duration, horizon)
    raw: List[Tuple[float, int]] = []
    for client in range(n_clients):
        t = 0.0
        while True:
            rate = burst_rate if burst_start <= t < burst_end else base_rate
            t += rng.exponential(1.0 / rate)
            if t >= horizon:
                break
            raw.append((t, client))
    return _finalize(raw)


def diurnal_workload(
    n_clients: int,
    *,
    peak_rate: float = 1.0,
    trough_rate: float = 0.1,
    period: float = 100.0,
    horizon: float = 200.0,
    seed: SeedLike = None,
) -> List[Operation]:
    """Sinusoidally-modulated Poisson arrivals (day/night cycle).

    The instantaneous per-client rate oscillates between ``trough_rate``
    and ``peak_rate`` with the given period. Generated by thinning a
    Poisson process at the peak rate.
    """
    if trough_rate <= 0 or peak_rate < trough_rate:
        raise ValueError("need 0 < trough_rate <= peak_rate")
    if period <= 0 or horizon <= 0:
        raise ValueError("period and horizon must be positive")
    rng = ensure_rng(seed)
    mid = (peak_rate + trough_rate) / 2.0
    amplitude = (peak_rate - trough_rate) / 2.0
    raw: List[Tuple[float, int]] = []
    two_pi = 2.0 * np.pi
    for client in range(n_clients):
        t = 0.0
        while True:
            t += rng.exponential(1.0 / peak_rate)
            if t >= horizon:
                break
            rate = mid + amplitude * np.sin(two_pi * t / period)
            if rng.uniform() < rate / peak_rate:
                raw.append((t, client))
    return _finalize(raw)
