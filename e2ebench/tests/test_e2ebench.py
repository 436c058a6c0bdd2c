"""The benchmark's own tests: statistics, self time, output checks.

    python3 -m pytest e2ebench/tests -q
"""

import copy
import json
import math
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import common  # noqa: E402
import metrics  # noqa: E402
import tracer  # noqa: E402


# -- the percentile rule ------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
     (199, 90), (200, 95), (999, 95), (1000, 99), (10000, 99.9)],
)
def test_tail_percentile_has_ten_samples_beyond(n, expected):
    found = common.tail_percentile([float(i) for i in range(n)])
    if expected is None:
        assert found is None
        return
    p, value, count = found
    assert (p, count) == (expected, n)
    beyond = sum(1 for i in range(n) if i > value)
    assert beyond >= 10


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert common.percentile(values, 50) == 3.0
    assert common.percentile(values, 90) == 5.0
    assert common.percentile(values, 1) == 1.0


# -- self time ------------------------------------------------------------
def _span(span_id, parent, name, start, end):
    span = tracer.Span(span_id, parent, name, start)
    span.end = end
    return span


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(1, None, "op", 0.0, 10.0),
        _span(2, 1, "deviation", 1.0, 3.0),
        _span(3, 1, "deviation", 4.0, 8.0),
        _span(4, 3, "measure", 5.0, 6.5),
    ]
    selfs = tracer.self_times(spans)
    assert selfs == pytest.approx({1: 4.0, 2: 2.0, 3: 2.5, 4: 1.5})
    # Self times partition the root's wall time.
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_summary_counts_measurements_under_deviation():
    spans = [
        _span(1, None, "op", 0.0, 10.0),
        _span(2, 1, "sensitivity", 0.0, 1.0),
        _span(3, 2, "measure", 0.1, 0.2),
        _span(4, 1, "deviation", 1.0, 3.0),
        _span(5, 4, "measure", 1.5, 2.0),
        _span(6, 4, "measure", 2.0, 2.5),
    ]
    spans[4].counts = {"spice.transfer": 3}
    summary = tracer.summarise(spans)
    assert summary["measure_under_deviation"] == 2
    assert summary["counts"] == {"spice.transfer": 3}
    layer = metrics.layer_metrics(summary, cycles=1)
    assert layer["measure.per_pair"] == 2.0
    assert layer["spice.transfer_per_measure"] == 1.0
    assert metrics.coverage(summary) == pytest.approx(0.3)


def test_tracer_window_drops_earlier_top_level_spans():
    t = tracer.Tracer()
    early = t.open("op")
    t.count("spice.transfer")
    t.close(early)
    t.count("bdd.restrict")
    t.mark()
    late = t.open("op")
    inner = t.open("measure")
    t.count("spice.transfer", 2)
    t.close(inner)
    t.close(late)
    summary = t.summary()
    assert summary["names"]["op"]["calls"] == 1
    assert summary["counts"] == {"spice.transfer": 2}


# -- host-speed normalisation --------------------------------------------------
def test_normalised_takes_probes_out_and_scales_by_their_speed():
    ref = common.PROBE_REFERENCE_S
    # Probes at 2x the reference time: the host runs at half speed, so
    # the 10 s left after the two probes are 5 s at the reference speed.
    samples = [(1.0, 2 * ref), (6.0, 2 * ref)]
    assert common.normalised(0.0, 10.0 + 4 * ref, samples) == pytest.approx(5.0)
    # Only probes that started inside the interval count.
    samples.append((50.0, ref / 10))
    assert common.normalised(0.0, 10.0 + 4 * ref, samples) == pytest.approx(5.0)
    # A probe cut off by the end of the interval paused only what was left.
    assert common.normalised(5.0, 6.0 + ref, samples) == pytest.approx(0.5)
    assert math.isnan(common.normalised(20.0, 30.0, samples))


def test_host_scale_turns_seconds_into_reference_seconds():
    ref = common.PROBE_REFERENCE_S
    assert common.host_scale(ref, ref) == 1.0
    # Readings at twice the reference time: ten measured seconds are
    # five at the reference speed.
    assert 10.0 * common.host_scale(2 * ref, 2 * ref) == pytest.approx(5.0)
    assert common.host_scale(ref, 3 * ref) == pytest.approx(0.5)


def test_timed_setups_scales_each_sample_by_its_own_readings(monkeypatch):
    ref = common.PROBE_REFERENCE_S
    # one reading before the first set-up and one after each
    readings = iter([ref, ref, 3 * ref, 3 * ref, ref, ref])
    monkeypatch.setattr(common, "host_reading", lambda: next(readings))
    monkeypatch.setattr(common, "SETUP_REPEATS", 5)
    normalised, raw = common.timed_setups(lambda: 1.0)
    assert raw == [1.0] * 5
    assert normalised == pytest.approx([1.0, 0.5, 1.0 / 3.0, 0.5, 1.0])


def test_speedometer_samples_while_the_main_thread_works():
    speedometer = common.Speedometer(period=0.05)
    speedometer.start()
    try:
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            sum(i * i for i in range(1000))
    finally:
        speedometer.stop()
    count = len(speedometer.samples)
    assert count >= 3
    assert all(seconds > 0 for _, seconds in speedometer.samples)
    time.sleep(0.15)
    assert len(speedometer.samples) == count


# -- stop rule ----------------------------------------------------------------
def test_stop_rule_runs_whole_cycles_near_the_budget():
    assert common.keep_going([], 0.0, 10.0)
    assert common.keep_going([4.0], 4.0, 10.0)  # 4 + 2 <= 10
    assert not common.keep_going([4.0, 4.0], 8.5, 10.0)
    assert common.keep_going([1.0], 20.0, 10.0, min_cycles=3)


# -- output checks ------------------------------------------------------------
@pytest.fixture(scope="module")
def fig4_reference():
    return checks.load_reference("fig4")


def _fig4_op(reference, key):
    return {"key": key, "output": copy.deepcopy(reference[key])}


def test_fig4_check_accepts_the_reference(fig4_reference):
    key = sorted(fig4_reference)[0]
    assert checks.check_fig4([_fig4_op(fig4_reference, key)], fig4_reference) == []


def test_fig4_check_rejects_a_deviation_one_resolution_step_off(fig4_reference):
    key = sorted(fig4_reference)[0]
    op = _fig4_op(fig4_reference, key)
    pair, (deviation, direction) = next(
        (pair, value)
        for pair, value in sorted(op["output"]["deviations"].items())
        if isinstance(value[0], float)
    )
    op["output"]["deviations"][pair] = [deviation + 1e-3, direction]
    failures = checks.check_fig4([op], fig4_reference)
    assert failures and pair in failures[0][1]


def test_fig4_check_rejects_a_changed_selection_or_status(fig4_reference):
    key = sorted(fig4_reference)[-1]
    op = _fig4_op(fig4_reference, key)
    op["output"]["tests"][0]["status"] = "untestable-propagation"
    assert checks.check_fig4([op], fig4_reference)
    op = _fig4_op(fig4_reference, key)
    op["output"]["tests"][0]["comparator"] = -1
    assert checks.check_fig4([op], fig4_reference)


@pytest.fixture(scope="module")
def table4_reference():
    return checks.load_reference("table4")


def _table4_op(reference, key):
    want = reference[key]
    return {
        "key": key,
        "output": {
            "faults": want["faults"],
            "untestable": want["untestable"],
            "vectors": list(want["vectors"]),
            "detected": [["x", 0, None, None]] * (want["faults"] - want["untestable"]),
        },
    }


def _replay_all_detected(key, vectors, detected):
    return []


def test_table4_check_accepts_the_reference(table4_reference):
    ops = [_table4_op(table4_reference, key) for key in sorted(table4_reference)]
    assert checks.check_table4(ops, table4_reference, _replay_all_detected) == []


def test_table4_check_rejects_a_vector_count_off_by_one(table4_reference):
    op = _table4_op(table4_reference, "c432/unconstrained")
    op["output"]["vectors"].pop()
    failures = checks.check_table4([op], table4_reference, _replay_all_detected)
    assert failures and "n_vectors" in failures[0][1]


def test_table4_check_rejects_an_untestable_count_off_by_one(table4_reference):
    op = _table4_op(table4_reference, "c499/constrained")
    op["output"]["untestable"] += 1
    assert checks.check_table4([op], table4_reference, _replay_all_detected)


def test_table4_check_rejects_vectors_that_miss_a_claimed_fault(table4_reference):
    op = _table4_op(table4_reference, "c499/unconstrained")
    failures = checks.check_table4(
        [op], table4_reference, lambda key, vectors, detected: [detected[0]]
    )
    assert failures and "not detected on replay" in failures[0][1]


def test_reference_replay_reports_faults_no_vector_detects():
    sys.path.insert(0, str(common.SRC))
    fault = ["nonexistent-line", 0, None, None]
    missed = checks.replay_reference("c499/unconstrained", [], [fault])
    assert len(missed) == 1


def test_golden_check_accepts_the_golden_and_rejects_a_perturbed_one():
    text = checks.GOLDEN_CAMPAIGN.read_text()
    assert checks.check_golden(text) is None
    document = json.loads(text)
    document["payload"]["outcomes"][0]["severity"] += 1e-9
    assert checks.check_golden(json.dumps(document))
    document = json.loads(text)
    document["payload"]["outcomes"][-1]["detected"] = not document["payload"][
        "outcomes"
    ][-1]["detected"]
    assert checks.check_golden(json.dumps(document))


# -- the contract file agrees with the catalogue -----------------------------
def test_benchmark_json_lists_the_catalogue():
    document = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in document["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in document["per_layer"]] == list(
        metrics.PER_LAYER
    )
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
