"""Work-count repeatability and tracing overhead.

    python3 e2ebench/selfcheck.py [--seconds 5] [--seeds 1 2] [workload ...]

For each workload, runs the benchmark (as separate processes, exactly as
``run.py`` is run) traced twice on the first seed, untraced once on it,
and traced once on every further seed.  Then:

* it fails if any count-type per-layer metric (``metrics.COUNT_METRICS``)
  differs between the two traced runs of the same seed — same code, same
  inputs — and names each such count as a finding;
* it lists the counts that differ between seeds: those depend on the
  drawn inputs (a fig4 tolerance, a campaign seed), which is reported,
  not hidden by reshaping the inputs;
* it reports the tracing overhead, traced minus untraced median
  operation latency on the same seed, both as measured (the untraced
  run's ``raw.op_p50_s`` in its ``# record`` line, not the normalised
  ``op_p50_s``), and the layer coverage of operation wall time.

Counts are per cycle, and each cycle of ``fig4-generate`` and
``service-jobs`` draws its own inputs, so two runs compare only when
they held the same number of cycles.  The default ``--seconds`` is short
enough that every run holds just its minimum (one cycle in-process,
three for the service); longer runs may not, and are then reported as
not comparable.

Exits 1 when a same-seed count differs, the same-seed runs are not
comparable, or a run fails its output checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import metrics  # noqa: E402

WORKLOADS = ("fig4-generate", "table4-atpg", "service-jobs")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    output = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=common.ROOT, check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    result = json.loads(output[-1])
    result["record"] = json.loads(output[-2][len("# record "):])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    ok = True
    first = args.seeds[0]
    for workload in args.workloads:
        repeat = [run_once(workload, first, args.seconds, 1) for _ in range(2)]
        plain = run_once(workload, first, args.seconds, 0)
        others = [run_once(workload, seed, args.seconds, 1) for seed in args.seeds[1:]]
        if not all(r["correct"] for r in repeat + others + [plain]):
            ok = False
            print(f"{workload}: FAIL output checks")

        def differing(runs):
            return [
                name
                for name in metrics.COUNT_METRICS
                if len({r["metrics"][name]["value"] for r in runs}) > 1
            ]

        cycles = [r["record"]["cycles"] for r in repeat]
        if cycles[0] != cycles[1]:
            ok = False
            print(
                f"{workload}: NOT COMPARABLE: the runs on seed {first} held "
                f"{cycles[0]} and {cycles[1]} cycles, so their inputs differ; "
                "rerun with a shorter --seconds"
            )
            same_seed = []
        else:
            same_seed = differing(repeat)
        for name in same_seed:
            ok = False
            values = [r["metrics"][name]["value"] for r in repeat]
            print(f"{workload}: FINDING {name} differs on seed {first}: {values}")
        if not same_seed and cycles[0] == cycles[1]:
            print(
                f"{workload}: all {len(metrics.COUNT_METRICS)} counts repeat "
                f"exactly on seed {first}"
            )
        for name in differing(repeat[:1] + others):
            values = [r["metrics"][name]["value"] for r in repeat[:1] + others]
            print(f"{workload}: input-dependent {name} across seeds {args.seeds}: {values}")
        traced_p50 = common.median([r["metrics"]["trace.op_p50_s"]["value"] for r in repeat])
        plain_p50 = plain["record"]["raw"]["op_p50_s"]
        print(
            f"{workload}: tracing overhead {traced_p50 - plain_p50:+.3f} s on "
            f"op_p50_s ({traced_p50 / plain_p50 - 1:+.1%}, seed {first}); layer "
            f"coverage {repeat[0]['metrics']['trace.coverage']['value']:.3f}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
