"""Backend resolution, parity, and regression tests for ``repro.kernels``.

Three layers of guarantees:

- **Resolution** — the process runs numba when it imports and the
  numpy twin otherwise, and ``import repro`` does not require numba at
  all.
- **Parity** — within one dtype the numpy and numba backends keep
  bit-identical engine state over long random apply/undo/batch walks
  (run only where numba is importable); float32 instances track their
  float64 twins to the matrix rounding.
- **Regression** — a golden walk pins D and candidate-score values
  produced by the pre-kernel engine, so the numpy twin is verifiably
  the historical inline code, not merely a close cousin.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro.core import (
    Assignment,
    ClientAssignmentProblem,
    IncrementalObjective,
    max_interaction_path_length_bruteforce,
)
from repro.kernels import (
    KERNEL_NAMES,
    KernelSuite,
    numba_available,
    resolve_backend,
)
from repro.net.latency import LatencyMatrix
from tests.kernel_suites import use_kernels

needs_numba = pytest.mark.skipif(
    not numba_available(), reason="numba not importable in this environment"
)


def _random_problem(rng, n, k, *, dtype=np.float64):
    values = rng.uniform(5.0, 300.0, size=(n, n))
    np.fill_diagonal(values, 0.0)
    servers = np.sort(rng.choice(n, size=k, replace=False))
    return ClientAssignmentProblem(
        LatencyMatrix(values, dtype=dtype), servers
    )


class TestResolution:
    def test_numpy_always_resolves(self):
        with use_kernels("numpy") as suite:
            assert isinstance(suite, KernelSuite)
            assert suite.name == "numpy"
            for kernel in KERNEL_NAMES:
                assert callable(getattr(suite, kernel))

    def test_auto_matches_availability(self):
        expected = "numba" if numba_available() else "numpy"
        assert resolve_backend().name == expected

    def test_engine_surfaces_backend_choice(self):
        rng = np.random.default_rng(0)
        problem = _random_problem(rng, 20, 4)
        with use_kernels("numpy"):
            engine = IncrementalObjective(problem)
        assert engine.backend == "numpy"
        assert IncrementalObjective(problem).backend == resolve_backend().name

    def test_import_repro_never_requires_numba(self):
        """``import repro`` and an engine walk succeed with numba blocked.

        A meta-path hook makes ``import numba`` fail before repro is
        imported, proving the lazy-import seam: resolution falls back
        to the numpy twin and nothing at import time touches numba.
        """
        script = """
import sys

class _Block:
    def find_module(self, name, path=None):
        return self if name.split(".")[0] == "numba" else None
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numba":
            raise ImportError("numba blocked for test")
        return None

sys.meta_path.insert(0, _Block())
sys.modules.pop("numba", None)

import numpy as np
import repro
from repro.core import ClientAssignmentProblem, IncrementalObjective
from repro.kernels import numba_available, resolve_backend
from repro.net.latency import LatencyMatrix

assert not numba_available()
assert resolve_backend().name == "numpy"
rng = np.random.default_rng(3)
values = rng.uniform(1.0, 50.0, size=(12, 12))
np.fill_diagonal(values, 0.0)
problem = ClientAssignmentProblem(LatencyMatrix(values), [0, 5, 9])
engine = IncrementalObjective(problem)
for c in range(12):
    engine.apply(c, c % 3)
print(engine.d())
"""
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout.strip()) > 0.0


class TestObservability:
    def test_per_kernel_counters_accumulate(self):
        from repro.obs.metrics import MetricsRegistry, use_registry

        rng = np.random.default_rng(11)
        problem = _random_problem(rng, 30, 5)
        with use_registry(MetricsRegistry()) as metrics:
            engine = IncrementalObjective(problem)
            for c in range(30):
                engine.apply(c, c % 5)
            engine.d()
            engine.batch_delta_D(7, respect_capacities=False)
            counters = metrics.snapshot()["counters"]
        name = engine.backend
        kernel_counters = {
            k: v for k, v in counters.items() if k.startswith(f"kernel.{name}.")
        }
        assert kernel_counters, (
            f"no kernel.{name}.* counters recorded: {sorted(counters)}"
        )
        for kernel in ("move_context", "objective_refresh"):
            assert counters[f"kernel.{name}.{kernel}.calls"] >= 1
            assert counters[f"kernel.{name}.{kernel}.seconds"] >= 0.0


def _walk(engine, rng, n, k_servers, steps, record_every, shadow=None):
    """A deterministic apply/unassign/undo walk; returns (ds, score_sums)."""
    ds, score_sums = [], []
    for step in range(steps):
        c = int(rng.integers(0, n))
        op = rng.integers(0, 10)
        if op < 6 or engine.n_assigned == 0:
            s = int(rng.integers(0, k_servers))
            engine.apply(c, s)
        elif op < 8 and engine.server_of[c] >= 0:
            engine.unassign(c)
        else:
            engine.apply(c, int(rng.integers(0, k_servers)))
            engine.undo()
        if step % record_every == 0:
            ds.append(engine.d())
            sc = engine.batch_delta_D(
                int(rng.integers(0, n)), respect_capacities=False
            )
            score_sums.append(float(np.sum(sc[np.isfinite(sc)])))
    return ds, score_sums


class TestGoldenWalk:
    """Pinned values produced by the engine *before* the kernel seam.

    If these move, the numpy backend is no longer the byte-identical
    twin of the historical inline code — which is its entire spec.
    """

    GOLDEN_D = [
        431.2161517052526,
        841.5966022305496,
        850.8535700092947,
        858.4626582060398,
        863.757356903467,
        877.4966951117747,
        879.0017144960219,
        879.0017144960219,
    ]
    GOLDEN_SCORE_SUMS = [
        6765.558606687058,
        10099.159226766595,
        10210.242840111534,
        10301.551898472477,
        10365.088282841603,
        10529.960341341295,
        10548.020573952263,
        10548.020573952263,
    ]

    def _engine(self, backend):
        rng = np.random.default_rng(20260808)
        n = 120
        values = rng.uniform(5.0, 300.0, size=(n, n))
        np.fill_diagonal(values, 0.0)
        matrix = LatencyMatrix(values)
        servers = np.sort(rng.choice(n, size=12, replace=False))
        problem = ClientAssignmentProblem(matrix, servers)
        with use_kernels(backend):
            return IncrementalObjective(problem, history=True)

    def test_numpy_backend_is_byte_identical_to_history(self):
        engine = self._engine("numpy")
        ds, score_sums = _walk(
            engine, np.random.default_rng(7), 120, 12, 400, 50
        )
        assert ds == self.GOLDEN_D
        assert score_sums == self.GOLDEN_SCORE_SUMS

    @needs_numba
    def test_numba_backend_matches_golden_walk(self):
        engine = self._engine("numba")
        ds, score_sums = _walk(
            engine, np.random.default_rng(7), 120, 12, 400, 50
        )
        assert ds == pytest.approx(self.GOLDEN_D, rel=1e-12)
        assert score_sums == pytest.approx(self.GOLDEN_SCORE_SUMS, rel=1e-12)


class TestParity:
    @needs_numba
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_walks_bit_identical_across_backends(self, seed):
        """Thousands of steps: both backends keep identical state."""
        rng = np.random.default_rng(900 + seed)
        n, k_servers = 40, 7
        problem = _random_problem(rng, n, k_servers)
        engines = {}
        for name in ("numpy", "numba"):
            with use_kernels(name):
                engines[name] = IncrementalObjective(problem, k=3)
        walks = {
            name: np.random.default_rng(1000 + seed) for name in engines
        }
        for name, engine in engines.items():
            ds, sums = _walk(engine, walks[name], n, k_servers, 1200, 40)
            if name == "numpy":
                ref_ds, ref_sums = ds, sums
        assert ds == ref_ds
        assert sums == ref_sums
        assert engines["numpy"].d() == engines["numba"].d()
        for c in range(n):
            a = engines["numpy"].batch_delta_D(c, respect_capacities=False)
            b = engines["numba"].batch_delta_D(c, respect_capacities=False)
            assert np.array_equal(a, b, equal_nan=True)

    @pytest.mark.parametrize("backend", ["numpy"])
    def test_float32_tracks_float64(self, backend):
        rng = np.random.default_rng(77)
        n, k_servers = 50, 6
        values = rng.uniform(5.0, 300.0, size=(n, n))
        np.fill_diagonal(values, 0.0)
        servers = np.sort(rng.choice(n, size=k_servers, replace=False))
        engines = {}
        for dtype in (np.float64, np.float32):
            problem = ClientAssignmentProblem(
                LatencyMatrix(values, dtype=dtype), servers
            )
            assert problem.dtype == np.dtype(dtype)
            with use_kernels(backend):
                engines[np.dtype(dtype).name] = IncrementalObjective(problem)
        for name, engine in engines.items():
            _walk(engine, np.random.default_rng(5), n, k_servers, 600, 100)
        d64 = engines["float64"].d()
        d32 = engines["float32"].d()
        assert d32 == pytest.approx(d64, rel=1e-5)
        for c in range(0, n, 7):
            a = engines["float64"].batch_delta_D(c, respect_capacities=False)
            b = engines["float32"].batch_delta_D(c, respect_capacities=False)
            assert np.allclose(a, b, rtol=1e-5, atol=1e-3, equal_nan=True)

    def test_float32_walk_matches_bruteforce(self):
        """The engine's own contract holds on float32 instances too."""
        rng = np.random.default_rng(31)
        n, k_servers = 16, 4
        problem = _random_problem(rng, n, k_servers, dtype=np.float32)
        server_of = rng.integers(0, k_servers, n)
        engine = IncrementalObjective(problem, server_of, k=3)
        shadow = server_of.copy()
        for _ in range(300):
            c = int(rng.integers(n))
            if rng.random() < 0.7:
                s = int(rng.integers(k_servers))
                engine.apply(c, s)
                shadow[c] = s
            elif shadow[c] >= 0:
                engine.unassign(c)
                shadow[c] = -1
        # Bruteforce needs a total assignment; park stragglers first.
        for c in np.flatnonzero(shadow < 0):
            engine.apply(int(c), 0)
            shadow[c] = 0
        reference = max_interaction_path_length_bruteforce(
            Assignment(problem, shadow.copy())
        )
        assert engine.d() == pytest.approx(reference, rel=1e-6)
