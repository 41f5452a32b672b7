"""Start ``repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/serve_launcher.py SPANS.json serve --port 0 ...

Installs the same wrappers as the in-process traced runs, then calls
the CLI's normal entry point, so the server runs in its own process
exactly as ``repro serve`` does.  When the server has drained (after
SIGTERM) the recorded spans and counts are written to ``SPANS.json``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from spans import Tracer  # noqa: E402


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from repro import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
