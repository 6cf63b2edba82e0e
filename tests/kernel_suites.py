"""Pin the kernel suite that new engines run on, for parity tests.

The package runs one kernel backend per process (numba when it
imports, numpy otherwise). Tests and benchmarks that compare the two
build their engines inside :func:`use_kernels`.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from typing import Iterator
from unittest import mock

from repro.kernels import KernelSuite


@contextmanager
def use_kernels(name: str) -> Iterator[KernelSuite]:
    """Engines built inside the block use the ``name`` kernels.

    ``name`` is ``"numpy"`` or ``"numba"`` (the latter needs numba).
    Patches :func:`repro.core.incremental.resolve_backend`, so only
    engine construction is affected; an engine keeps its suite after
    the block ends.
    """
    suite = KernelSuite(name, importlib.import_module(f"repro.kernels.{name}_backend"))
    with mock.patch("repro.core.incremental.resolve_backend", lambda: suite):
        yield suite
