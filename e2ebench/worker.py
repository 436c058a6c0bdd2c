"""The measured child process of the in-process workloads.

    python3 e2ebench/worker.py --workload fig4-generate --seed 1 \
        --seconds 30 [--trace] [--setup-only]

Prints ``READY`` once set up (import, workbench, inputs), then runs
whole cycles of the seeded plan, one operation at a time (a full garbage
collection, untimed, before each), until the stop rule in
:func:`common.keep_going` ends the run.  Untraced, a
:class:`common.Speedometer` samples the host's speed throughout.  The
last stdout line is one JSON document: per-operation start times,
latencies and outputs, the speed samples, peak RSS over the first cycle
and over the run, and — with ``--trace`` — the layer summary.  Output
checks are the parent's job, after this process has exited.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = {
    "fig4-generate": (
        workloads.fig4_setup,
        workloads.fig4_plan,
        workloads.fig4_operation,
        workloads.fig4_output,
        workloads.tolerance_key,
    ),
    "table4-atpg": (
        workloads.table4_setup,
        workloads.table4_plan,
        lambda state, pair: workloads.table4_operation(state, *pair),
        workloads.atpg_output,
        lambda pair: workloads.pair_key(*pair),
    ),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    setup, plan, operate, output, key_of = WORKLOADS[args.workload]

    state = setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.mark()

    speedometer = None if tracer is not None else common.Speedometer()
    ops = []
    cycle_seconds = []
    cycles = plan(args.seed)
    if speedometer is not None:
        speedometer.start()
    start = time.perf_counter()
    while common.keep_going(cycle_seconds, time.perf_counter() - start, args.seconds):
        cycle_start = time.perf_counter()
        for item in next(cycles):
            # Free the previous operation's garbage before the timer
            # starts, so no operation pays for another's heap and the
            # seeded order cannot change an operation's cost.
            gc.collect()
            span = tracer.open("op") if tracer is not None else None
            op_start = time.perf_counter()
            error = None
            try:
                result = operate(state, item)
            except Exception as exc:  # noqa: BLE001 — a failed op is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            op_end = time.perf_counter()
            if span is not None:
                tracer.close(span)
            ops.append(
                {
                    "key": key_of(item),
                    "start": op_start,
                    "latency_s": op_end - op_start,
                    "error": error,
                    # Serialised after the timer stopped: not measured.
                    "output": output(result) if result is not None else None,
                    "timings": {
                        t.stage: t.seconds
                        for t in getattr(result, "timings", [])
                        if t.parent is None
                    },
                }
            )
        cycle_seconds.append(time.perf_counter() - cycle_start)
        if len(cycle_seconds) == 1:
            # The first cycle is the same work in every run; how many
            # more fit depends on the host's speed, and the heap grows
            # a little with each.
            first_cycle_rss = common.peak_rss_mb()
    end = time.perf_counter()
    if speedometer is not None:
        speedometer.stop()

    document = {
        "ops": ops,
        "cycles": len(cycle_seconds),
        "start": start,
        "wall_s": end - start,
        "speed": speedometer.samples if speedometer is not None else [],
        "peak_rss_mb": first_cycle_rss,
        "peak_rss_end_mb": common.peak_rss_mb(),
    }
    if tracer is not None:
        document["trace"] = tracer.summary()
    print(json.dumps(document), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
