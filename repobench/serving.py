"""The serving workloads: ``repro-serve`` in its own process, one client.

``serve_warm``
    Closed loop over two keep-alive connections.  Requests are Zipf
    (s = 1.1) over a fixed catalogue of canonical solve specs, each sent as
    a seeded translation, reflection or permutation variant.  The store is
    filled during set-up, so the solver does no work while measuring.
``serve_cold``
    Closed loop over one connection against a fresh store: a seeded list of
    distinct canonical specs shaped as a design-space sweep (Table 1
    kernels at every resolution plus seeded ``verify.gen`` patterns, each
    with a descending ``n_max`` ladder).  Every request misses, solves and
    writes the store.

The client sends pre-encoded bytes over raw sockets and keeps each
response's bytes; every response is checked field for field against an
in-process ``solve()`` of the same request after the timed phase.
"""

from __future__ import annotations

import gc
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from common import (
    child_env,
    proc_peak_rss_mb,
    remove_work_dir,
    tail,
    work_dir,
)
from tracing import REQUEST_HEADER

HERE = Path(__file__).resolve().parent

#: Requests per run per second of ``--seconds`` (sized on a 2-core box so
#: one run measures about ``--seconds``; the count, not the clock, is fixed).
RATE = {"serve_warm": 1000, "serve_cold": 700}

#: Connections of the closed loop.
CONNECTIONS = {"serve_warm": 2, "serve_cold": 1}

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5

#: A traced run alternates between its two servers this many times.
TRACE_CHUNKS = 8

#: Requests sent during set-up to warm the server's code paths.
WARMUP_REQUESTS = 300

ZIPF_S = 1.1


def cpu_split() -> Tuple[Set[int], Set[int]]:
    """One CPU for ``repro-serve``, another for the polling client.

    Pinned, the server's event loop and executor thread hand work over on
    one CPU and the spinning client never competes with them.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        raise RuntimeError("the serving workloads need two CPUs (server and client)")
    return {cpus[0]}, {cpus[1]}


# -- request lists -----------------------------------------------------------


def _body(
    offsets: Sequence[Sequence[int]], name: str, shape: Sequence[int], n_max: Optional[int]
) -> bytes:
    doc: Dict[str, Any] = {"offsets": [list(v) for v in offsets], "shape": list(shape)}
    if name:
        doc["name"] = name
    if n_max is not None:
        doc["n_max"] = n_max
    return json.dumps(doc, sort_keys=True).encode()


def warm_catalogue() -> List[Tuple[Any, Tuple[int, ...], Optional[int]]]:
    """The fixed catalogue: Table 1 kernels (free and bank-limited) plus
    ``verify.gen`` patterns of suite 0, as ``(pattern, shape, n_max)``."""
    from repro.patterns.library import BENCHMARKS, benchmark_shape
    from repro.verify.gen import generate_case

    catalogue = []
    for name, factory in BENCHMARKS.items():
        pattern = factory()
        shape = benchmark_shape(name, "SD")
        catalogue.append((pattern, shape, None))
        catalogue.append((pattern, shape, max(1, pattern.size // 2)))
    for index in range(34):
        case = generate_case(0, index)
        catalogue.append((case.pattern(), tuple(case.shape), case.n_max))
    return catalogue


def warm_requests(seed: int, count: int) -> List[bytes]:
    """``count`` Zipf-distributed requests over the catalogue, each a seeded
    orbit member: a translation, reflection or permutation variant (the
    latter two from ``verify.gen.symmetry_variants``), translated again by
    a random shift so the wire offsets differ too."""
    from repro.verify.gen import symmetry_variants

    catalogue = warm_catalogue()
    variants = []
    for pattern, shape, _n_max in catalogue:
        kinds = {"translation": [("identity", pattern, shape)]}
        for kind in ("reflection", "permutation"):
            options = symmetry_variants(pattern, shape, kind)
            if options:
                kinds[kind] = options
        variants.append(list(kinds.values()))
    rng = random.Random(f"repobench:serve_warm:{seed}")
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(catalogue))]
    picks = rng.choices(range(len(catalogue)), weights=weights, k=count)
    out = []
    for index in picks:
        _tag, pattern, shape = rng.choice(rng.choice(variants[index]))
        shift = [rng.randint(-3, 3) for _ in range(pattern.ndim)]
        offsets = [[c + d for c, d in zip(v, shift)] for v in pattern.offsets]
        out.append(_body(offsets, pattern.name, shape, catalogue[index][2]))
    return out


def cold_requests(seed: int, count: int) -> Dict[bytes, str]:
    """``count`` distinct canonical specs, each base pattern with a
    descending ``n_max`` ladder (``size .. 1``), in sending order, mapped
    to their canonical digests."""
    import dataclasses

    from repro.patterns.library import BENCHMARKS, RESOLUTIONS, benchmark_shape
    from repro.serve.protocol import parse_solve_spec
    from repro.verify.gen import generate_case

    bases: List[Tuple[Any, Tuple[int, ...]]] = [
        (factory(), benchmark_shape(name, resolution))
        for name, factory in BENCHMARKS.items()
        for resolution in RESOLUTIONS
    ]
    index = 0
    rng = random.Random(f"repobench:serve_cold:{seed}")
    seen = set()
    out: Dict[bytes, str] = {}
    while len(out) < count:
        if bases:
            pattern, shape = bases.pop(rng.randrange(len(bases)))
        else:
            case = generate_case(seed, index)
            index += 1
            pattern, shape = case.pattern(), tuple(case.shape)
        base, _op = parse_solve_spec(
            json.loads(_body(pattern.offsets, pattern.name, shape, None))
        ).canonicalized()
        for n_max in range(pattern.size, 0, -1):
            body = _body(pattern.offsets, pattern.name, shape, n_max)
            digest = dataclasses.replace(base, n_max=n_max).canonical_digest()
            if digest in seen:
                continue
            seen.add(digest)
            out[body] = digest
            if len(out) == count:
                break
    return out


def offlist_requests(seed: int, count: int) -> List[bytes]:
    """Warm-up requests for the cold server that share no key with the
    measured list (their shape tails are never used by it)."""
    from repro.verify.gen import generate_case

    out = []
    for index in range(count):
        case = generate_case(seed + 7919, index)
        shape = tuple(case.shape[:-1]) + (case.shape[-1] + 10007,)
        out.append(_body(case.offsets, "", shape, case.n_max))
    return out


def expected_answer(body: bytes, key: Optional[str] = None) -> Dict[str, Any]:
    """The response an in-process ``solve()`` of this request implies
    (``key``, the canonical digest, when the caller already has it)."""
    from repro.core.solver import solve
    from repro.io import solution_to_dict
    from repro.serve.protocol import parse_solve_spec

    spec = parse_solve_spec(json.loads(body))
    result = solve(
        spec.pattern,
        shape=spec.shape,
        n_max=spec.n_max,
        objective=spec.objective,
        delta_max=spec.delta_max,
    )
    return {
        "key": key or spec.canonicalized()[0].canonical_digest(),
        "solution": solution_to_dict(result.solution),
        "objective_vector": list(result.objective_vector),
        "overhead_elements": result.overhead_elements,
        "mapping": {
            "shape": list(spec.shape),
            "rows_per_bank": result.mapping.rows_per_bank,
            "total_bank_elements": result.mapping.total_bank_elements,
        },
    }


# -- the server process --------------------------------------------------------


class Server:
    """One ``repro-serve`` process on an ephemeral port with its own store.

    Untraced it is started exactly as users deploy it
    (``python -m repro.serve.cli``, default flags plus ``--store-dir``;
    ``--port 0 --port-file`` only let the benchmark find the port).  Traced
    it is the same CLI ``main`` started through ``serve_launcher.py``, which
    installs the benchmark's wrappers (and any injected delay) first.
    """

    def __init__(
        self,
        scratch: Path,
        tag: str,
        spans_out: Optional[Path] = None,
        inject: Sequence[str] = (),
    ) -> None:
        self.dir = scratch / tag
        self.dir.mkdir()
        serve_args = [
            "--port", "0",
            "--port-file", str(self.dir / "port"),
            "--store-dir", str(self.dir / "store"),
        ]
        if spans_out is None:
            argv = [sys.executable, "-m", "repro.serve.cli"] + serve_args
        else:
            argv = [sys.executable, str(HERE / "serve_launcher.py"),
                    "--spans-out", str(spans_out)]
            for item in inject:
                argv += ["--inject", item]
            argv += ["--"] + serve_args
        self._log = open(self.dir / "server.log", "wb")
        self.proc = subprocess.Popen(
            argv, cwd=str(self.dir), env=child_env(),
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        # Set before the server starts any thread, so every thread inherits it.
        os.sched_setaffinity(self.proc.pid, cpu_split()[0])
        self.port = self._wait_port()

    def _wait_port(self) -> int:
        port_file = self.dir / "port"
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro-serve exited with {self.proc.returncode}: "
                    + (self.dir / "server.log").read_text(errors="replace")[-2000:]
                )
            try:
                text = port_file.read_text()
                if text.endswith("\n"):
                    return int(text)
            except (OSError, ValueError):
                pass
            time.sleep(0.002)
        raise RuntimeError("repro-serve did not report its port within 60 s")

    def peak_rss_mb(self) -> Optional[float]:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return self.proc.returncode


# -- the client ----------------------------------------------------------------


class Connection:
    """A keep-alive HTTP/1.1 connection speaking pre-encoded requests."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def response(self) -> Optional[Tuple[int, bytes]]:
        """The next complete response in the buffer, if there is one."""
        end = self.buf.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = self.buf[:end].decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            key, _, value = line.partition(":")
            if key.strip().lower() == "content-length":
                length = int(value)
        need = end + 4 + length
        if len(self.buf) < need:
            return None
        body, self.buf = self.buf[end + 4:need], self.buf[need:]
        return int(head[0].split(" ", 2)[1]), body

    def receive(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def roundtrip(self, request: bytes) -> Tuple[int, bytes]:
        self.sock.sendall(request)
        while True:
            answer = self.response()
            if answer is not None:
                return answer
            self.receive()

    def close(self) -> None:
        self.sock.close()


def encode(rid: int, body: bytes) -> bytes:
    return (
        b"POST /solve HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        b"Content-Type: application/json\r\n"
        + f"{REQUEST_HEADER}: {rid}\r\nContent-Length: {len(body)}\r\n\r\n".encode()
        + body
    )


@dataclass
class Sample:
    rid: int
    sent: float
    done: float
    status: int
    body: bytes


def closed_loop(
    port: int, requests: Sequence[bytes], connections: int, first_rid: int = 0
) -> Tuple[List[Sample], float]:
    """Send ``requests`` over ``connections`` closed loops; request ``i``
    goes to connection ``i % connections`` with request id
    ``first_rid + i``.  Returns samples and wall time.

    One thread drives every connection and polls the sockets instead of
    sleeping in ``recv``: on a small VM, waking a sleeping vCPU costs a
    host-dependent delay that moved whole-run medians by tens of percent;
    a polling client adds none of it to the server's latency.
    """
    wires = [encode(first_rid + i, body) for i, body in enumerate(requests)]
    conns = [Connection(port) for _ in range(connections)]
    queues = [list(range(c, len(wires), connections)) for c in range(connections)]
    cursor = [0] * connections
    sent = [0.0] * connections
    samples: List[Sample] = []

    def start(c: int) -> None:
        if cursor[c] < len(queues[c]):
            sent[c] = time.perf_counter()
            conns[c].sock.sendall(wires[queues[c][cursor[c]]])

    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpu_split()[1])
    gc_was_enabled = gc.isenabled()
    gc.disable()
    began = time.perf_counter()
    try:
        for c, conn in enumerate(conns):
            start(c)
            conn.sock.setblocking(False)
        live = [c for c in range(connections) if queues[c]]
        while live:
            for c in live:
                conn = conns[c]
                try:
                    conn.receive()
                except BlockingIOError:
                    continue
                answer = conn.response()
                if answer is None:
                    continue
                samples.append(Sample(
                    first_rid + queues[c][cursor[c]], sent[c], time.perf_counter(), *answer
                ))
                cursor[c] += 1
                conn.sock.setblocking(True)
                start(c)
                conn.sock.setblocking(False)
            live = [c for c in live if cursor[c] < len(queues[c])]
        wall = time.perf_counter() - began
    finally:
        if gc_was_enabled:
            gc.enable()
        os.sched_setaffinity(0, affinity)
        for conn in conns:
            conn.close()
    samples.sort(key=lambda s: s.rid)
    return samples, wall


def sequential(port: int, requests: Sequence[bytes]) -> List[Tuple[int, bytes]]:
    conn = Connection(port)
    try:
        return [conn.roundtrip(encode(-1, body)) for body in requests]
    finally:
        conn.close()


# -- one run -------------------------------------------------------------------


@dataclass
class Plan:
    """Everything a serving run sends, built from the seed before timing."""

    measured: List[bytes]
    fill: List[bytes]
    warmup: List[bytes]
    expected: Dict[bytes, Dict[str, Any]] = field(default_factory=dict)


def make_plan(workload: str, seed: int, seconds: float) -> Plan:
    count = max(50, int(RATE[workload] * seconds))
    keys: Dict[bytes, str] = {}
    if workload == "serve_warm":
        catalogue = warm_catalogue()
        plan = Plan(
            measured=warm_requests(seed, count),
            fill=[_body(p.offsets, p.name, s, n) for p, s, n in catalogue],
            warmup=warm_requests(seed + 104729, WARMUP_REQUESTS),
        )
    else:
        keys = cold_requests(seed, count)
        plan = Plan(
            measured=list(keys),
            fill=[],
            warmup=offlist_requests(seed, WARMUP_REQUESTS // 3),
        )
    for body in set(plan.measured):
        plan.expected[body] = expected_answer(body, keys.get(body))
    return plan


def _prepare(plan: Plan, scratch: Path, tag: str, **server_kw: Any) -> Tuple[Server, float]:
    """Start a server, fill its store and warm it; returns it and the time."""
    began = time.perf_counter()
    server = Server(scratch, tag, **server_kw)
    try:
        for status, _body in sequential(server.port, plan.fill + plan.warmup):
            if status != 200:
                raise RuntimeError(f"set-up request failed with HTTP {status}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - began


def check(plan: Plan, samples: Sequence[Sample]) -> int:
    """Failed operations: non-200 responses and answers that differ from
    the in-process solve in any field."""
    failed = 0
    for sample in samples:
        if sample.status != 200:
            failed += 1
            continue
        try:
            got = json.loads(sample.body)
        except ValueError:
            failed += 1
            continue
        if got != plan.expected[plan.measured[sample.rid]]:
            failed += 1
    return failed


def _latency_metrics(samples: Sequence[Sample], wall: float) -> Dict[str, Any]:
    latencies = [(s.done - s.sent) * 1000.0 for s in samples]
    tail_value, tail_pct, tail_beyond = tail(latencies)
    return {
        "latency_ms": median(latencies),
        "tail_latency_ms": tail_value,
        "throughput_per_s": len(samples) / wall,
        "tail_percentile": tail_pct,
        "tail_samples_beyond": tail_beyond,
        "samples": len(samples),
    }


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    inject: Sequence[str] = (),
) -> Dict[str, Any]:
    """One serving run.  Untraced: end-to-end metrics.  Traced: a request
    list half as long, sent to an untraced and to a traced server in
    alternating chunks; per-layer metrics plus the trace's overhead.
    ``inject`` delays go to the traced server only (the self-test's
    baseline is the untraced half of the same run)."""
    if inject and not trace:
        raise ValueError("delays are injected into traced runs only")
    plan = make_plan(workload, seed, seconds / 2 if trace else seconds)
    scratch = work_dir()
    servers: List[Server] = []
    try:
        if not trace:
            setups = []
            for i in range(SETUP_REPEATS):
                server, took = _prepare(plan, scratch, f"setup{i}")
                setups.append(took)
                servers.append(server)
                if i < SETUP_REPEATS - 1:
                    server.stop()
            samples, wall = closed_loop(servers[-1].port, plan.measured, CONNECTIONS[workload])
            rss = servers[-1].peak_rss_mb()
            servers[-1].stop()
            out = _latency_metrics(samples, wall)
            out.update(
                setup_s=median(setups),
                setup_samples_s=setups,
                peak_rss_mb=rss,
                attempted=len(samples),
                failed=check(plan, samples),
            )
            return out

        from analysis import serve_layers

        spans_path = scratch / "spans.json"
        plain, _ = _prepare(plan, scratch, "plain")
        servers.append(plain)
        traced, _ = _prepare(plan, scratch, "traced", spans_out=spans_path, inject=inject)
        servers.append(traced)
        # Alternate chunks between the two servers (ABBA order), so a drift in
        # the machine's speed lands on both sides of the overhead comparison.
        runs: Dict[Server, Tuple[List[Sample], List[float]]] = {
            plain: ([], []), traced: ([], [])
        }
        step = -(-len(plan.measured) // TRACE_CHUNKS)
        for i, first in enumerate(range(0, len(plan.measured), step)):
            chunk = plan.measured[first:first + step]
            for server in (plain, traced) if i % 2 == 0 else (traced, plain):
                samples, wall = closed_loop(server.port, chunk, CONNECTIONS[workload], first)
                runs[server][0].extend(samples)
                runs[server][1].append(wall)
        plain.stop()
        traced.stop()
        base = _latency_metrics(runs[plain][0], sum(runs[plain][1]))
        traced_metrics = _latency_metrics(runs[traced][0], sum(runs[traced][1]))
        layers = serve_layers(json.loads(spans_path.read_text()), runs[traced][0])
        layers["trace_overhead_pct"] = (
            (traced_metrics["latency_ms"] - base["latency_ms"]) / base["latency_ms"] * 100.0
        )
        return {
            "layers": layers,
            "untraced": base,
            "traced": traced_metrics,
            "attempted": len(runs[plain][0]) + len(runs[traced][0]),
            "failed": check(plan, runs[plain][0]) + check(plan, runs[traced][0]),
        }
    finally:
        for server in servers:
            server.stop()
        remove_work_dir(scratch)
