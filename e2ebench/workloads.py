"""The in-process workloads: their input pools, seeded plans and outputs.

Both workloads run in one child process with one caller, closed loop.
A *cycle* is the unit of the operation mix; every run covers whole
cycles, so every run — whatever its seed — holds the same mix:

* ``fig4-generate``: one operation per cycle, a full-stage fig4
  pipeline at a tolerance from :data:`FIG4_TOLERANCES`.  The seed
  permutes the pool, so no operation in a run repeats another's
  generator input.
* ``table4-atpg``: one cycle is every (circuit, mode) pair of
  :data:`TABLE4_PAIRS`, in a seeded order per cycle.

``repro`` is imported inside functions only: the parent process uses
the plans without paying for the import.
"""

from __future__ import annotations

from common import seeded_rng

#: 40 generator tolerances, 3.0 % to 6.9 %.  Every one runs the same
#: deviation searches and measurements (same pairs, same bisection
#: depth); only the answers, and so a few dozen of the ~90k transfer
#: calls, differ.  Each has its own recorded reference.
FIG4_TOLERANCES = tuple(round(0.030 + 0.001 * k, 3) for k in range(40))

#: Table 4 circuits in the cycle.  c499, c880 and c1908 are recorded in
#: the references too, but a cycle over all four circuits (~63 s here)
#: does not fit a run, and mixing 4 s and 8 s calls makes the median of a
#: few calls jump between them.  c432 is the BDD-heaviest Table 4 call.
TABLE4_CIRCUITS = ("c432",)
TABLE4_MODES = ("unconstrained", "constrained")
TABLE4_PAIRS = tuple(
    (circuit, mode) for circuit in TABLE4_CIRCUITS for mode in TABLE4_MODES
)


def tolerance_key(tolerance: float) -> str:
    return f"{tolerance:.3f}"


def pair_key(circuit: str, mode: str) -> str:
    return f"{circuit}/{mode}"


def fig4_plan(seed: int):
    """Endless cycles of one tolerance each, in a seeded pool order."""
    order = list(FIG4_TOLERANCES)
    seeded_rng(seed, "fig4").shuffle(order)
    index = 0
    while True:
        yield [order[index % len(order)]]
        index += 1


def table4_plan(seed: int):
    """Endless cycles over every Table 4 pair, each cycle reshuffled."""
    rng = seeded_rng(seed, "table4")
    while True:
        cycle = list(TABLE4_PAIRS)
        rng.shuffle(cycle)
        yield cycle


# ----------------------------------------------------------------------
# fig4-generate
# ----------------------------------------------------------------------
def fig4_setup():
    """Workbench, session, and the fig4 digital block's BDD pooled.

    The session pools compiled BDDs across runs; compiling it here (a
    cheap conversion + atpg pass) keeps that one-time cost out of the
    first operation, so every operation does the same work.
    """
    from repro.api import Workbench

    session = Workbench().session()
    session.run("fig4", stages=("conversion", "atpg"))
    return session


def fig4_operation(session, tolerance: float):
    from repro.api import FULL_STAGES, GeneratorConfig

    return session.run(
        "fig4",
        stages=FULL_STAGES,
        generator=GeneratorConfig(tolerance=tolerance),
    )


def _round(value, digits: int = 12):
    if value is None:
        return None
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return repr(value)
        return float(f"{value:.{digits}g}")
    return value


def fig4_output(result) -> dict:
    """The checked part of one pipeline: deviations, selections, statuses."""
    matrix = result.deviations
    deviations = {
        f"{parameter}|{element}": [
            _round(matrix.results[(parameter, element)].deviation),
            matrix.results[(parameter, element)].direction,
        ]
        for parameter in matrix.parameters
        for element in matrix.elements
    }
    tests = []
    for test in result.report.analog_tests:
        stimulus = test.stimulus
        tests.append(
            {
                "element": test.element,
                "status": test.status.value,
                "parameter": test.parameter,
                "ed_percent": _round(test.ed_percent),
                "bound": test.bound.value if test.bound is not None else None,
                "comparator": test.comparator_index,
                "stimulus": None
                if stimulus is None
                else [_round(stimulus.amplitude, 10), _round(stimulus.frequency_hz, 10)],
                "vector": dict(sorted(test.vector.items()))
                if test.vector is not None
                else None,
                "observing_output": test.observing_output,
            }
        )
    return {"deviations": deviations, "tests": tests}


# ----------------------------------------------------------------------
# table4-atpg
# ----------------------------------------------------------------------
def table4_setup(circuits=TABLE4_CIRCUITS) -> dict:
    """Each circuit and its Table 4 constraint builder, by pair key."""
    from repro.circuits import benchmark_digital
    from repro.conversion import constraint_for_lines, random_line_assignment

    inputs = {}
    for circuit in circuits:
        digital = benchmark_digital(circuit)
        # Table 4's own constraint: 15 converter lines, seeded by name
        # exactly as repro.experiments.table4 seeds them.
        seed = sum(ord(ch) for ch in circuit)
        lines = random_line_assignment(digital.inputs, 15, seed)
        inputs[pair_key(circuit, "unconstrained")] = (digital, None)
        inputs[pair_key(circuit, "constrained")] = (
            digital,
            constraint_for_lines(lines),
        )
    return inputs


def table4_operation(inputs: dict, circuit: str, mode: str):
    from repro.atpg import run_atpg

    digital, constraint = inputs[pair_key(circuit, mode)]
    return run_atpg(digital, constraint=constraint)


def atpg_output(run) -> dict:
    """The checked part of one ATPG call: counts, vectors, claimed faults."""
    from repro.atpg import TestStatus

    return {
        "faults": run.n_faults,
        "untestable": run.n_untestable,
        "vectors": [
            "".join(str(vector[name]) for name in sorted(vector))
            for vector in run.vectors
        ],
        "detected": [
            [r.fault.line, r.fault.stuck_value, r.fault.gate, r.fault.pin]
            for r in run.results
            if r.status is TestStatus.DETECTED
        ],
    }
