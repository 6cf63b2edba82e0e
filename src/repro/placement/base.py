"""Shared protocol and quality metric for server placement."""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.errors import InvalidParameterError
from repro.net.latency import LatencyMatrix
from repro.utils.rng import SeedLike


class PlacementStrategy(Protocol):
    """A server placement strategy.

    Callable taking the latency matrix, the number of servers to place,
    and a seed, returning a 1-D integer array of ``k`` distinct node
    indices.
    """

    def __call__(
        self, matrix: LatencyMatrix, k: int, *, seed: SeedLike = None
    ) -> np.ndarray: ...


def coverage_radius(matrix: LatencyMatrix, centers: np.ndarray) -> float:
    """The K-center objective: max over nodes of distance to the nearest
    center.

    Distance from node ``u`` to center ``s`` is ``d(u, s)`` (node-to-
    server direction, matching how clients reach servers).
    """
    centers = np.asarray(centers, dtype=np.int64)
    if centers.size == 0:
        raise ValueError("need at least one center")
    to_centers = matrix.values[:, centers]
    return float(to_centers.min(axis=1).max())


def validate_k(matrix: LatencyMatrix, k: int) -> None:
    """Raise :class:`InvalidParameterError` (a ``ValueError``) unless
    ``1 <= k <= n_nodes``."""
    if not 1 <= k <= matrix.n_nodes:
        raise InvalidParameterError(
            f"number of servers k={k} must be in [1, {matrix.n_nodes}]"
        )
