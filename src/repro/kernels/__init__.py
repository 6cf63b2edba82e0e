"""Compiled compute kernels for the incremental objective engine.

:class:`~repro.core.incremental.IncrementalObjective` funnels every
heuristic's candidate scoring through four hot loops:

- **move_context** — the fused per-client candidate scoring behind
  :meth:`~repro.core.incremental.IncrementalObjective.batch_delta_D`
  (home-server exclusion, best-completion lookups, and the ``L(s')``
  path vector in one pass);
- **reduction_top2** — the per-server ``best_in`` / ``best_out``
  completions with their top-2 contributors;
- **topk_select** — top-k farthest-client selection used by the lazy
  per-server list rebuilds;
- **objective_refresh** — the O(|S_used|^2) lazy recomputation of D;
- **weighted_loads** — per-server total client weight for capacity
  masking on weighted (coreset super-client) instances. Integer
  arithmetic, so its backend parity is exact rather than bit-of-float
  identical.

Two interchangeable implementations exist:

- :mod:`repro.kernels.numpy_backend` — the pure-numpy **twin**. Its
  code is the exact numpy the engine historically inlined, so running
  on it reproduces the pre-kernel engine byte for byte.
- :mod:`repro.kernels.numba_backend` — ``@njit``-compiled loops,
  imported lazily; ``import repro`` never requires numba.

The backend is a property of the process, not an option:
:func:`resolve_backend` returns the numba suite when numba imports and
the numpy twin otherwise. Since the two are bit-identical (below), the
choice changes speed, never a result.

**Parity contract.** Within one matrix dtype the two backends maintain
*bit-identical* engine state: the cached objective D and the per-server
``l`` vectors are maxima of identically-associated float sums, and the
candidate scores use the same evaluation order. The property suite in
``tests/core/test_kernels.py`` drives thousands of random
apply/undo/batch walks asserting exactly that (scores are additionally
documented to tolerate a few ULPs — the engine-wide contract — so a
future backend with a different association stays within spec).
float32 instances agree with their float64 twins to the matrix
rounding, ~1e-6 relative (see ``docs/performance.md``).

Every resolved suite is instrumented: per-kernel call counts and
cumulative seconds land in the observability registry under
``kernel.<backend>.<name>.{calls,seconds}`` and are surfaced by
``repro obs`` as a kernel timing breakdown.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple

from repro.obs.metrics import registry

#: Kernel names a backend module must export.
KERNEL_NAMES: Tuple[str, ...] = (
    "move_context",
    "reduction_top2",
    "topk_select",
    "objective_refresh",
    "weighted_loads",
)

_NUMBA_AVAILABLE: Optional[bool] = None


def numba_available() -> bool:
    """Whether numba can actually be imported (cached after first call).

    A broken installation counts as unavailable — it must never take
    the package down with it.
    """
    global _NUMBA_AVAILABLE
    if _NUMBA_AVAILABLE is None:
        try:
            import numba  # noqa: F401

            _NUMBA_AVAILABLE = True
        except Exception:
            _NUMBA_AVAILABLE = False
    return _NUMBA_AVAILABLE


class KernelSuite:
    """One resolved backend: a named bundle of the four kernels.

    Instances are cheap veneers; the heavy state (numba's compiled
    dispatchers) lives in the backend modules. Each suite fetches its
    observability instruments at construction time — engines resolve a
    suite per instance, so a swapped registry is honored, mirroring the
    engine's own telemetry discipline.
    """

    __slots__ = (
        "name",
        "move_context",
        "reduction_top2",
        "topk_select",
        "objective_refresh",
        "weighted_loads",
    )

    def __init__(self, name: str, module) -> None:
        self.name = name
        metrics = registry()
        for kernel in KERNEL_NAMES:
            fn = getattr(module, kernel)
            setattr(self, kernel, _timed(fn, metrics, f"kernel.{name}.{kernel}"))

    def __repr__(self) -> str:
        return f"KernelSuite({self.name!r})"


def _timed(fn: Callable, metrics, prefix: str) -> Callable:
    """Wrap a kernel with call/seconds counters (one add each per call)."""
    calls = metrics.counter(f"{prefix}.calls")
    seconds = metrics.counter(f"{prefix}.seconds")
    perf_counter = time.perf_counter

    def timed(*args):
        start = perf_counter()
        out = fn(*args)
        seconds.inc(perf_counter() - start)
        calls.inc()
        return out

    return timed


def resolve_backend() -> KernelSuite:
    """The process's :class:`KernelSuite`: numba when importable, else numpy."""
    if numba_available():
        from repro.kernels import numba_backend

        return KernelSuite("numba", numba_backend)
    from repro.kernels import numpy_backend

    return KernelSuite("numpy", numpy_backend)
