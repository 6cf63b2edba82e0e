"""Small cross-cutting helpers: RNG handling, validation, timing.

``Stopwatch`` lives in :mod:`repro.obs.timing` and is re-exported
here.
"""

from repro.obs.timing import Stopwatch
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import (
    require,
    require_positive,
    require_in_range,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "Stopwatch",
    "require",
    "require_positive",
    "require_in_range",
]
