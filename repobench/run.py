"""Repository benchmark: warm and cold ``/solve`` serving plus an offline
paper-reproduction pass.

    python3 repobench/run.py --workload serve_warm --seed 1 --seconds 24 --trace 0
    python3 repobench/run.py --workload offline_repro --seed 1 --seconds 24 --trace 1
    python3 repobench/run.py --steadiness 10 --seconds 24

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The line before it carries the install stamp
and the details behind the numbers (tail percentile and sample counts,
set-up samples, the offline Table 1 / simulation / verify figures).
``--steadiness K`` runs every workload K times with seeds ``seed .. seed+K-1``
and prints each end-to-end metric's median and quartile spread.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, install_stamp, require_source, summarize  # noqa: E402

WORKLOADS = ("serve_warm", "serve_cold", "offline_repro")


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def measure(
    workload: str, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    """Run one workload in this process; returns the raw result."""
    if workload == "offline_repro":
        import offline

        return offline.run(seed, seconds, trace)
    import serving

    return serving.run(workload, seed, seconds, trace)


def result_line(spec: Dict[str, Any], raw: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The contract's last line: every end-to-end (or per-layer) metric."""
    source = raw["layers"] if trace else raw
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float(source.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    complete = trace or all(m["name"] in source for m in wanted)
    return {
        "correct": raw["failed"] == 0 and raw["attempted"] > 0 and complete,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }


def steadiness(seed: int, seconds: float, k: int, workloads: Sequence[str]) -> int:
    """Run each workload ``k`` times (fresh processes, seeds ``seed..``)
    and report each end-to-end metric's median and quartile spread."""
    spec = load_spec()
    report: Dict[str, Any] = {}
    for workload in workloads:
        values: Dict[str, List[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        tails = []
        for i in range(k):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed + i), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=str(ROOT),
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                return 1
            details = json.loads(lines[-2])["details"]
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.stderr.write(f"{workload} seed {seed + i}: incorrect result\n")
                return 1
            tails.append(f"{details['tail_percentile']}/{details['tail_samples_beyond']}")
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        report[workload] = {
            name: dict(summarize(vals), bound=bounds[name], values=vals)
            for name, vals in values.items()
        }
        report[workload]["tail_percentile/beyond"] = tails
        print(f"{workload}:")
        for name, vals in values.items():
            s = summarize(vals)
            flag = "ok" if s["spread"] <= bounds[name] / 3 or name == "setup_s" else "WIDE"
            print(f"  {name:18s} median {s['median']:12.4f}  spread {s['spread']*100:6.2f}%"
                  f"  (bound {bounds[name]*100:.0f}%) {flag}")
        print(f"  tail percentile/samples beyond: {', '.join(tails)}")
    print(json.dumps({"steadiness": report}))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="K")
    args = parser.parse_args(argv)
    require_source()
    if args.steadiness:
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        return steadiness(args.seed, args.seconds, args.steadiness, workloads)
    if args.workload is None:
        parser.error("--workload is required")
    spec = load_spec()
    raw = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    details = {k: v for k, v in raw.items() if k != "layers"}
    print(json.dumps({"stamp": install_stamp(), "details": details}, default=str))
    print(json.dumps(result_line(spec, raw, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
