"""End-to-end benchmark of the repro flow.

    python3 e2ebench/run.py --workload fig4-generate --seed 1 \
        --seconds 30 --trace 0

Runs one workload from the checkout root, checks every output after the
timed region and prints, as the last stdout line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` a traced run of
the same workload gives the per-layer ones.  The line before it starts
with ``# record`` and carries what a reader needs to attribute an odd
run: host-probe readings, sample counts, per-operation latencies.

See ``e2ebench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import metrics  # noqa: E402

WORKER = common.BENCH_DIR / "worker.py"


def _spawn_worker(workload, seed, seconds, trace, setup_only):
    command = [
        sys.executable, str(WORKER),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    start = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=common.ROOT, env=common.child_env(),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = process.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "READY":
            raise RuntimeError(f"{workload} worker did not get ready: {line!r}")
        lines = process.stdout.read().splitlines()
    finally:
        process.stdout.close()
        code = process.wait()
    if code != 0:
        raise RuntimeError(f"{workload} worker exited with code {code}")
    return ready, (json.loads(lines[-1]) if not setup_only else None)


def run_inprocess(workload, seed, seconds, trace):
    import checks

    setups, raw_setups = common.timed_setups(
        lambda: _spawn_worker(workload, seed, seconds, trace, True)[0]
    )
    probe_before = common.host_reading() if trace else None
    document = _spawn_worker(workload, seed, seconds, trace, False)[1]
    probe_after = common.host_reading() if trace else None

    ops = document["ops"]
    # Output checks: outside the timed region, in this process.
    sys.path.insert(0, str(common.SRC))
    if workload == "fig4-generate":
        failures = checks.check_fig4(ops, checks.load_reference("fig4"))
    else:
        failures = checks.check_table4(ops, checks.load_reference("table4"))
    failed = {index for index, _ in failures}
    failed |= {i for i, op in enumerate(ops) if op["error"]}
    speed = document["speed"]
    for op in ops:
        op["normalised_s"] = common.normalised(
            op["start"], op["start"] + op["latency_s"], speed
        )
    kept = [op for i, op in enumerate(ops) if i not in failed]
    raw_p50 = common.median([op["latency_s"] for op in kept]) if kept else float("nan")

    result = {"setup_s": common.median(setups), "peak_rss_mb": document["peak_rss_mb"]}
    if not trace:
        start = document["start"]
        result["op_p50_s"] = (
            common.median([op["normalised_s"] for op in kept]) if kept else float("nan")
        )
        result["ops_per_s"] = len(ops) / common.normalised(
            start, start + document["wall_s"], speed
        )
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cycles": document["cycles"],
        "ops": len(ops),
        "wall_s": document["wall_s"],
        "peak_rss_end_mb": document["peak_rss_end_mb"],
        "raw": {
            "setup_s": common.median(raw_setups),
            "op_p50_s": raw_p50,
            "ops_per_s": len(ops) / document["wall_s"],
        },
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "host_probe_s": [seconds for _, seconds in speed] or [probe_before, probe_after],
        "op_latencies_s": [
            (op["key"], op["latency_s"], op["normalised_s"]) for op in ops
        ],
        "failures": [message for _, message in failures]
        + [op["error"] for op in ops if op["error"]],
    }
    if trace:
        summary = document["trace"]
        layer = metrics.layer_metrics(summary, document["cycles"])
        layer.update(
            {
                "host.probe_s": 0.5 * (probe_before + probe_after),
                "trace.op_p50_s": raw_p50,
                "trace.coverage": metrics.coverage(summary),
            }
        )
        record["trace_summary"] = summary
        result = layer
    return result, len(ops), len(failed), record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("fig4-generate", "table4-atpg", "service-jobs"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.pin_threads()
    common.pin_to_one_cpu()

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no repro package under {common.SRC}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    if args.workload == "service-jobs":
        import service

        values, attempted, failed, record = service.run(
            args.seed, args.seconds, bool(args.trace)
        )
    else:
        values, attempted, failed, record = run_inprocess(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    if args.trace:
        reported = metrics.complete(values)
    else:
        reported = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in metrics.END_TO_END
        }
    print("# record " + json.dumps(record))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": reported,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
