"""``repro-serve`` — run the partitioning service from the command line.

Examples::

    repro-serve --port 8642 --store-dir ~/.cache/repro-store
    repro-serve --port 0 --port-file port.txt --jobs 4 &
    curl -s -X POST localhost:8642/solve -d '{"benchmark": "log", "n_max": 10}'

``--port 0`` binds an ephemeral port; ``--port-file`` writes the bound
port so scripts (and the CI smoke job) can find the server without racing
its stdout.  SIGINT/SIGTERM shut the server down cleanly: in-flight work
is failed with ``shutting_down`` errors, the store is already durable
(every artifact is written at solve time), and the process exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from pathlib import Path
from typing import Optional, Sequence

from .server import DEFAULT_TRACE_BUFFER, PartitionServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Serve memory-partitioning solves over HTTP with request "
            "coalescing, micro-batching, and a persistent solution store."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8642, help="TCP port (0 = ephemeral)"
    )
    parser.add_argument(
        "--port-file",
        metavar="PATH",
        default=None,
        help="write the bound port number to PATH after startup",
    )
    parser.add_argument(
        "--store-dir",
        metavar="DIR",
        default=None,
        help="persistent solution store directory (omit for memory-only)",
    )
    parser.add_argument(
        "--store-max",
        type=int,
        default=4096,
        help="store capacity in artifacts (LRU eviction beyond this)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="solve-tier worker processes (<=1: solve in-process)",
    )
    parser.add_argument(
        "--batch-max",
        type=int,
        default=32,
        help="max distinct solves drained into one micro-batch",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="backpressure bound on queued+in-flight distinct solves",
    )
    parser.add_argument(
        "--retry-after",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="Retry-After hint attached to 429 responses",
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help=(
            "enable the /debug/* endpoints (recent request traces, "
            "in-flight jobs, store occupancy)"
        ),
    )
    parser.add_argument(
        "--trace-buffer",
        type=int,
        default=DEFAULT_TRACE_BUFFER,
        metavar="N",
        help="how many recent request traces /debug/traces retains",
    )
    return parser


async def _run(args: argparse.Namespace) -> int:
    server = PartitionServer(
        host=args.host,
        port=args.port,
        store_dir=args.store_dir,
        store_max_entries=args.store_max,
        jobs=args.jobs,
        batch_max=args.batch_max,
        max_pending=args.max_pending,
        retry_after_s=args.retry_after,
        debug=args.debug,
        trace_buffer_size=args.trace_buffer,
    )
    await server.start()
    if args.port_file:
        Path(args.port_file).write_text(f"{server.port}\n")
    store_note = f", store: {args.store_dir}" if args.store_dir else ""
    print(
        f"repro-serve listening on {server.host}:{server.port}"
        f" (jobs={args.jobs}{store_note})",
        flush=True,
    )

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # pragma: no cover - non-unix fallback
            signal.signal(sig, lambda *_: stop.set())

    serve_task = loop.create_task(server.serve_forever())
    await stop.wait()
    print("repro-serve: shutting down", flush=True)
    serve_task.cancel()
    try:
        await serve_task
    except asyncio.CancelledError:
        pass
    await server.stop()
    return 0


def main_serve(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-serve`` console script."""
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(_run(args))
    except KeyboardInterrupt:  # pragma: no cover - double ^C during shutdown
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main_serve())
