"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage::

    python3 perfbench/serve_traced.py TRACE_DIR serve HOST:PORT [serve flags]

Everything after ``TRACE_DIR`` is passed to the program's own command
line.  When the service drains and exits (SIGTERM), the server's spans
are written to ``TRACE_DIR/spans-<pid>.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_source_tree  # noqa: E402


def main(argv: list[str]) -> int:
    use_source_tree()
    from spans import Tracer, install

    tracer = Tracer(Path(argv[0]))
    install(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[1:])
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
