"""One benchmark pass in a fresh interpreter; prints one JSON line.

Run from the repository root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/child.py --workload crash-recovery --seed 42 [--trace]
    python3 perfbench/child.py --design

The parent (``run.py``) notes the time just before it starts this process;
``ready`` is the monotonic time of the first call into the workload, so
``ready - spawn`` is the pass's set-up time: interpreter start, imports,
config and seeded input generation.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import passes


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", default="")
    parser.add_argument("--design", action="store_true")
    args = parser.parse_args()

    if args.design:
        print(json.dumps({"sim": passes.design_metrics()}))
        return 0

    workload = passes.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        for wrap in tracing.layer_wraps():
            wrap.apply(tracer)
    inputs = workload.setup(args.seed)
    meter = passes.OpMeter(tracer)
    ready = time.monotonic()
    start = time.perf_counter()
    result = workload.run(inputs, meter)
    end = time.perf_counter()
    wall_s = end - start

    out = {
        "ready": ready,
        "wall_s": wall_s,
        "units": result.units,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "failures": meter.failures[:20],
        "latencies": meter.latencies,
        "digest": result.digest,
        "sim": result.sim,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from repro.sim.stats import memo_cache_stats

        out["layers"] = tracing.layer_metrics(tracer, start, end, memo_cache_stats(),
                                              result.counters)
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
