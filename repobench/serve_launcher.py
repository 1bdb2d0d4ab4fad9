"""Start ``repro-serve`` with the benchmark's wrappers installed.

    PYTHONPATH=src python3 repobench/serve_launcher.py \\
        --spans-out spans.json [--inject serve.store.get=2] -- <repro-serve flags>

The wrappers go in first, then the serve CLI's own ``main`` runs with the
remaining flags.  When it returns (SIGTERM/SIGINT shut the server down
cleanly) the spans kept in memory are written to ``--spans-out``.
``--inject`` adds a fixed delay to one wrapped entry point.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Recorder, install_server, parse_inject  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("--inject", action="append", default=[], metavar="SPAN=MS")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args and serve_args[0] == "--":
        serve_args = serve_args[1:]
    recorder = Recorder()
    install_server(recorder, parse_inject(args.inject))

    from repro.serve.cli import main_serve

    code = main_serve(serve_args)
    recorder.dump(args.spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
