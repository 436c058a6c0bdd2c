"""Record the reference outputs the benchmark's output checks compare to.

Run from the checkout root, once per intentional change of the
generator's or the ATPG's answers::

    python3 e2ebench/record_references.py            # both workloads
    python3 e2ebench/record_references.py table4     # one of them

Writes ``e2ebench/references/fig4.json`` (deviation matrix, selections
and statuses for every tolerance in the pool) and
``e2ebench/references/table4.json`` (Table 4's counts and vectors for
every recorded pair).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BENCH_DIR, SRC  # noqa: E402

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

REFERENCES = BENCH_DIR / "references"
#: every Table 4 pair is recorded, not only the ones a cycle runs.
RECORDED_CIRCUITS = ("c432", "c499", "c880", "c1908")


def record_fig4() -> dict:
    session = workloads.fig4_setup()
    document = {}
    for tolerance in workloads.FIG4_TOLERANCES:
        result = workloads.fig4_operation(session, tolerance)
        document[workloads.tolerance_key(tolerance)] = workloads.fig4_output(result)
        print(f"fig4 tolerance {tolerance}", flush=True)
    return document


def record_table4() -> dict:
    inputs = workloads.table4_setup(RECORDED_CIRCUITS)
    document = {}
    for circuit in RECORDED_CIRCUITS:
        for mode in workloads.TABLE4_MODES:
            output = workloads.atpg_output(
                workloads.table4_operation(inputs, circuit, mode)
            )
            document[workloads.pair_key(circuit, mode)] = {
                "faults": output["faults"],
                "untestable": output["untestable"],
                "n_vectors": len(output["vectors"]),
                "vectors": output["vectors"],
            }
            print(f"table4 {circuit} {mode}", flush=True)
    return document


def main(argv) -> int:
    which = argv or ["fig4", "table4"]
    REFERENCES.mkdir(exist_ok=True)
    for name in which:
        document = {"fig4": record_fig4, "table4": record_table4}[name]()
        path = REFERENCES / f"{name}.json"
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        print(f"written: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
