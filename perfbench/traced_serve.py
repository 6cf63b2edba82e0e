"""Run ``repro serve`` with span wrappers installed.

Usage::

    PYTHONPATH=src python3 perfbench/traced_serve.py SPANS serve --port 0 ...

Everything after ``SPANS`` is passed to the ``repro`` command line
unchanged. When the server exits (SIGINT), the recorded spans and the
program's metric registry are written to ``SPANS``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402


def main(argv: list) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = tracer.SpanRecorder()
    tracer.install(recorder, ["service", "runtime"])
    from repro.cli import main as repro_main
    from repro.obs import registry

    try:
        return repro_main(cli_args)
    finally:
        recorder.dump(spans_path, {"registry": registry().snapshot()})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
