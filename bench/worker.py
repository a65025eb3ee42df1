"""One workload process: import, build inputs, warm up, run the timed loop,
check every output, report one JSON line.

Started by ``run.py``; ``--t0`` is the parent's monotonic clock just before
this process was spawned, so set-up time counts interpreter start as well.
The loop is closed: one op at a time, the next only after the previous one
returned, and it always finishes the round it is in, so every run holds whole
rounds of the same make-up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")


class OpRaised(Exception):
    """The output of an op that raised instead of returning."""


def import_checkout_ordspec():
    """Import ordspec from this checkout's src/ and refuse any other copy."""
    sys.path.insert(0, SRC)
    import ordspec

    where = os.path.realpath(ordspec.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"ordspec resolves to {where}, not to {SRC}")


def cli_main_pass(wl):
    """Replay one round of CLI requests through ordspec.cli.main in-process."""
    from ordspec import cli

    for argv, _ in wl.requests:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                cli.main(list(argv))
            except (TypeError, SystemExit):
                # the known-fault requests raise out of main
                pass


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)
    import_checkout_ordspec()
    import workloads as W

    cls = W.WORKLOADS[args.workload]
    wl = cls(args.seed, ROOT) if cls is W.Cli else cls(args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(wl.tags())
        tracer.install([W])
    wl.warmup()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    latencies, outputs = [], []
    first_round = None
    if tracer:
        tracer.reset()
    perf = time.perf_counter
    start = perf()
    n_inputs = len(wl.inputs)
    while True:
        for _ in range(wl.round_len):
            k = len(outputs) % n_inputs
            t = perf()
            try:
                out = wl.run(k)
            except Exception as exc:  # an op that raises fails its check below
                out = OpRaised(f"{type(exc).__name__}: {exc}")
            latencies.append(perf() - t)
            outputs.append(out)
        if tracer and first_round is None:
            first_round = tracer.snapshot()
        if perf() - start >= args.seconds:
            break
    elapsed = perf() - start
    usage = resource.RUSAGE_CHILDREN if cls is W.Cli else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
    stats = tracer.dump() if tracer else None
    if tracer:
        tracer.uninstall()

    failed, wrong = 0, []
    checked = {}
    for j, out in enumerate(outputs):
        k = j % n_inputs
        if k in checked and checked[k] == out:
            # the same input again, with the same output as its checked first run
            continue
        try:
            if isinstance(out, OpRaised):
                raise out
            wl.check(k, out)
            checked[k] = out
        except Exception as exc:  # a malformed answer can break a checker in any way
            failed += 1
            if not wl.known_fault(k):
                wrong.append(f"op {j} (input {k}): {type(exc).__name__}: {exc}")
    result = {
        "setup_s": setup_s,
        "attempted": len(outputs),
        "failed": failed,
        "correct": not wrong,
        "wrong": wrong[:5],
        "elapsed_s": elapsed,
        "ops_per_s": len(outputs) / elapsed,
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        import tracing

        if cls is W.Cli:
            tracer.install([W])
            tracer.reset()
            cli_main_pass(wl)
            first_round = tracer.snapshot()
            stats = tracer.dump()
            tracer.uninstall()
            ops = wl.round_len
        else:
            ops = len(outputs)
        metrics = tracing.layer_metrics(stats, first_round, ops)
        metrics.update(tracing.coord_probes())
        metrics.update(tracing.sweep_probes(args.seed))
        metrics.update(tracing.cli_probes(ROOT, dict(os.environ, PYTHONPATH=SRC)))
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        os.makedirs(OUT, exist_ok=True)
        tracing.write_trace(
            os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"),
            {"result": result, "spans": stats, "first_round": first_round, "ops": ops},
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
