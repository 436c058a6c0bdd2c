"""Output checks, run after the timed region.

Each check returns a list of ``(index, message)`` failures, where
``index`` is the position of the wrongly answered operation; a failed
check counts that operation as failed.  References live in
``e2ebench/references/`` (see ``record_references.py``); the service's
golden campaign is the repository's own
``tests/analog/goldens/fig4_campaign.json``.
"""

from __future__ import annotations

import json

from common import BENCH_DIR, ROOT

REFERENCES = BENCH_DIR / "references"
GOLDEN_CAMPAIGN = ROOT / "tests" / "analog" / "goldens" / "fig4_campaign.json"


def load_reference(name: str) -> dict:
    return json.loads((REFERENCES / f"{name}.json").read_text())


def _first_difference(got, want, path="") -> str | None:
    """Where two JSON-like documents first differ (``None`` if equal)."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            if key not in got or key not in want:
                return f"{path}/{key}: present in only one side"
            found = _first_difference(got[key], want[key], f"{path}/{key}")
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            found = _first_difference(g, w, f"{path}[{i}]")
            if found:
                return found
        return None
    if got != want:
        return f"{path}: {got!r} != {want!r}"
    return None


def check_fig4(ops, reference: dict) -> list:
    """Deviation matrix, per-element selections and statuses match."""
    failures = []
    for index, op in enumerate(ops):
        if op["output"] is None:
            continue  # errored: already counted as failed
        want = reference.get(op["key"])
        if want is None:
            failures.append((index, f"no reference for tolerance {op['key']}"))
            continue
        difference = _first_difference(op["output"], want)
        if difference:
            failures.append((index, f"fig4 @ {op['key']}: {difference}"))
    return failures


def check_table4(ops, reference: dict, replay=None) -> list:
    """Table 4 counts match, and the vectors detect every claimed fault.

    ``replay(key, vectors, detected) -> list of undetected faults`` runs
    the reference fault simulator; identical outputs are replayed once.
    """
    replay = replay or replay_reference
    failures = []
    replayed: dict = {}
    for index, op in enumerate(ops):
        got = op["output"]
        if got is None:
            continue
        want = reference.get(op["key"])
        if want is None:
            failures.append((index, f"no reference for {op['key']}"))
            continue
        problems = []
        for field, value in (
            ("faults", got["faults"]),
            ("untestable", got["untestable"]),
            ("n_vectors", len(got["vectors"])),
        ):
            if value != want[field]:
                problems.append(f"{field} {value} != {want[field]}")
        if len(got["detected"]) != got["faults"] - got["untestable"]:
            problems.append(
                f"{len(got['detected'])} detected faults claimed, expected "
                f"{got['faults'] - got['untestable']}"
            )
        signature = json.dumps([op["key"], got["vectors"], got["detected"]])
        if signature not in replayed:
            replayed[signature] = replay(op["key"], got["vectors"], got["detected"])
        missed = replayed[signature]
        if missed:
            problems.append(
                f"{len(missed)} claimed fault(s) not detected on replay, "
                f"e.g. {missed[0]}"
            )
        if problems:
            failures.append((index, f"table4 {op['key']}: " + "; ".join(problems)))
    return failures


def replay_reference(key: str, vectors, detected) -> list:
    """Claimed faults the vectors miss, on the reference fault simulator."""
    from repro.circuits import benchmark_digital
    from repro.digital.faults import Fault
    from repro.digital.simulate import fault_simulate

    circuit = benchmark_digital(key.split("/")[0])
    names = sorted(circuit.inputs)
    patterns = [dict(zip(names, map(int, bits))) for bits in vectors]
    faults = [Fault(line, value, gate, pin) for line, value, gate, pin in detected]
    if faults and not patterns:
        return faults
    result = fault_simulate(circuit, patterns, faults, engine="reference")
    return [fault for fault in faults if not result[fault]]


# ----------------------------------------------------------------------
# service-jobs
# ----------------------------------------------------------------------
def rounded_outcomes(artifact_text: str) -> list:
    """A campaign artifact's outcomes, floats rounded as the golden's are."""
    outcomes = json.loads(artifact_text)["payload"]["outcomes"]
    return [
        {
            **outcome,
            "deviation": round(outcome["deviation"], 12),
            "severity": round(outcome["severity"], 12),
        }
        for outcome in outcomes
    ]


def check_golden(artifact_text: str) -> str | None:
    """The golden-spec job's payload equals the checked-in golden."""
    golden = json.loads(GOLDEN_CAMPAIGN.read_text())["payload"]["outcomes"]
    return _first_difference(rounded_outcomes(artifact_text), golden, "outcomes")
