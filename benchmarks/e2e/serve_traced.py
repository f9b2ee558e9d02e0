"""Run ``clou serve`` with the benchmark's span wrappers installed.

Usage (the benchmark starts it; ``repro`` must be importable)::

    python3 benchmarks/e2e/serve_traced.py SPANS.json serve --socket PATH ...

Everything after the first argument is handed to ``repro.cli.main``.
SIGUSR1 writes the spans and counters recorded so far to
``SPANS.json``; ``clou serve`` itself owns SIGTERM and SIGINT.
"""

from __future__ import annotations

import signal
import sys

from spans import Tracer


def main(argv: list[str]) -> int:
    spans_path, serve_argv = argv[0], argv[1:]
    from repro.cli import main as clou_main

    tracer = Tracer()
    tracer.install()
    signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.dump(spans_path))
    return clou_main(serve_argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
