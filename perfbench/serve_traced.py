"""Run ``repro serve`` with the benchmark's server-side tracing installed.

Usage::

    python3 perfbench/serve_traced.py TRACE_JSON [repro serve arguments...]

Installs :func:`tracer.install_service` in this process, then hands over to
the repository's own ``serve`` entry point.  When the server exits (SIGTERM
drains it), the aggregated spans are written to ``TRACE_JSON``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracer import Tracer, install_service  # noqa: E402


def main(argv: list[str]) -> int:
    trace_path, serve_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    install_service(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        trace_path.write_text(json.dumps(tracer.as_record()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
