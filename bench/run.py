"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload modules --seed 1 --seconds 25 --trace 0

Workloads: modules, barcodes, ideals, cli (see bench/README.md).  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones.  Each workload runs in its own process (``worker.py``)
against this checkout's ``src/``; the benchmark refuses to run without it.
Set-up is timed in SETUP_RUNS separate processes and reported as their median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("modules", "barcodes", "ideals", "cli")
SETUP_RUNS = 3
END_TO_END = {"ops_per_s": "ops/s", "latency_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def spawn(args, setup_only: bool):
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ordspec", "__init__.py")):
        print(f"no ordspec sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    setups = [] if args.trace else [spawn(args, True)["setup_s"] for _ in range(SETUP_RUNS - 1)]
    res = spawn(args, False)
    setups.append(res["setup_s"])
    if res["wrong"]:
        print("\n".join(res["wrong"]), file=sys.stderr)
    if args.trace:
        metrics = res["per_layer"]
    else:
        res["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": res[k], "unit": unit} for k, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
