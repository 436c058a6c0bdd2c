"""Metric catalogue and the per-layer numbers derived from a trace summary.

End-to-end metrics come from untraced runs; per-layer metrics from a
separate traced run of the same workload.  Every per-layer number is
*per cycle* (the unit of a workload's mix) unless its name says it is a
percentile or a ratio, so runs of different lengths compare directly.
A layer a workload does not touch reports 0.
"""

from __future__ import annotations

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("host.probe_s", "s"),
    ("trace.op_p50_s", "s"),
    ("trace.coverage", "1"),
    ("pipeline.sensitivity_s", "s"),
    ("pipeline.deviation_s", "s"),
    ("pipeline.stimulus_s", "s"),
    ("pipeline.atpg_s", "s"),
    ("pipeline.campaign_s", "s"),
    ("deviation.pairs", "count"),
    ("deviation.self_s", "s"),
    ("deviation.pair_p50_s", "s"),
    ("measure.calls", "count"),
    ("measure.self_s", "s"),
    ("measure.per_pair", "count"),
    ("sensitivity.self_s", "s"),
    ("spice.transfer_calls", "count"),
    ("spice.solver_builds", "count"),
    ("spice.transfer_per_measure", "count"),
    ("stimulus.self_s", "s"),
    ("atpg.faults", "count"),
    ("atpg.fault_p50_s", "s"),
    ("atpg.compile_s", "s"),
    ("atpg.cut_calls", "count"),
    ("atpg.cut_self_s", "s"),
    ("atpg.untestable", "count"),
    ("atpg.vectors", "count"),
    ("atpg.faults_per_s", "1/s"),
    ("bdd.nodes", "count"),
    ("bdd.ite_misses", "count"),
    ("bdd.ite_hit_ratio", "1"),
    ("bdd.restrict_calls", "count"),
    ("bdd.boolean_difference_calls", "count"),
    ("compact.self_s", "s"),
    ("compact.patterns", "count"),
    ("campaign.self_s", "s"),
    ("campaign.injected", "count"),
    ("campaign.solve_calls", "count"),
    ("campaign.multi_rhs_columns", "count"),
    ("sharding.shards_executed", "count"),
    ("sharding.shards_from_cache", "count"),
    ("sharding.retries", "count"),
    ("service.submit_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.generate_s", "s"),
    ("service.campaign_s", "s"),
    ("service.hit_p50_s", "s"),
    ("service.hit_p90_s", "s"),
    ("service.executions", "count"),
    ("service.store_hits", "count"),
    ("service.dedup_share", "1"),
    ("service.generation_reuse_share", "1"),
    ("cache.hits", "count"),
    ("cache.puts", "count"),
    ("cache.bytes", "bytes"),
)

UNITS = dict(END_TO_END + PER_LAYER)

#: per-layer metrics that count work: identical in every run of the same
#: code (the self-check compares them across seeds).
COUNT_METRICS = tuple(
    name
    for name, unit in PER_LAYER
    if unit == "count" or name in (
        "bdd.ite_hit_ratio",
        "service.dedup_share",
        "service.generation_reuse_share",
    )
)


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: dict, cycles: int) -> dict:
    """Per-layer metrics from :func:`tracer.summarise` output.

    ``service.*``, ``cache.*``, ``host.*`` and ``trace.*`` need facts
    from outside the trace and are filled in by the caller.
    """
    names = summary["names"]
    counts = summary["counts"]

    def row(name) -> dict:
        return names.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                "p50_s": 0.0, "info": {}})

    def per_cycle(value) -> float:
        return value / cycles

    def info(name, key) -> float:
        return row(name)["info"].get(key, 0)

    deviation, measure, atpg = row("deviation"), row("measure"), row("atpg")
    transfers = counts.get("spice.transfer", 0)
    ite_hits, ite_misses = info("atpg", "ite_hits"), info("atpg", "ite_misses")
    metrics = {
        f"pipeline.{stage}_s": per_cycle(info("pipeline", f"stage.{stage}"))
        for stage in ("sensitivity", "deviation", "stimulus", "atpg", "campaign")
    }
    metrics.update(
        {
            "deviation.pairs": per_cycle(deviation["calls"]),
            "deviation.self_s": per_cycle(deviation["self_s"]),
            "deviation.pair_p50_s": deviation["p50_s"],
            "measure.calls": per_cycle(measure["calls"]),
            "measure.self_s": per_cycle(measure["self_s"]),
            "measure.per_pair": _ratio(
                summary["measure_under_deviation"], deviation["calls"]
            ),
            "sensitivity.self_s": per_cycle(row("sensitivity")["self_s"]),
            "spice.transfer_calls": per_cycle(transfers),
            "spice.solver_builds": per_cycle(counts.get("spice.solver_build", 0)),
            "spice.transfer_per_measure": _ratio(transfers, measure["calls"]),
            "stimulus.self_s": per_cycle(row("stimulus")["self_s"]),
            "atpg.faults": per_cycle(info("atpg", "faults")),
            "atpg.fault_p50_s": row("atpg.fault")["p50_s"],
            "atpg.compile_s": per_cycle(row("atpg.compile")["total_s"]),
            "atpg.cut_calls": per_cycle(row("atpg.cut")["calls"]),
            "atpg.cut_self_s": per_cycle(row("atpg.cut")["self_s"]),
            "atpg.untestable": per_cycle(info("atpg", "untestable")),
            "atpg.vectors": per_cycle(info("atpg", "vectors")),
            "atpg.faults_per_s": _ratio(info("atpg", "faults"), atpg["total_s"]),
            "bdd.nodes": per_cycle(info("atpg", "nodes")),
            "bdd.ite_misses": per_cycle(ite_misses),
            "bdd.ite_hit_ratio": _ratio(ite_hits, ite_hits + ite_misses),
            "bdd.restrict_calls": per_cycle(counts.get("bdd.restrict", 0)),
            "bdd.boolean_difference_calls": per_cycle(
                counts.get("bdd.boolean_difference", 0)
            ),
            "compact.self_s": per_cycle(row("compact")["self_s"]),
            "compact.patterns": per_cycle(info("compact", "patterns_in")),
            "campaign.self_s": per_cycle(row("campaign")["self_s"]),
            "campaign.injected": per_cycle(info("campaign", "injected")),
            "campaign.solve_calls": per_cycle(info("campaign", "solve_calls")),
            "campaign.multi_rhs_columns": per_cycle(
                info("campaign", "multi_rhs_columns")
            ),
            "sharding.shards_executed": per_cycle(info("campaign", "shards_executed")),
            "sharding.shards_from_cache": per_cycle(
                info("campaign", "shards_from_cache")
            ),
            "sharding.retries": per_cycle(info("campaign", "retries")),
        }
    )
    return metrics


def coverage(summary: dict) -> float:
    """Share of operation wall time that layer spans account for.

    The ``op`` span wraps each operation; whatever its children do not
    cover is its self time, i.e. unattributed.
    """
    op = summary["names"].get("op")
    if not op or not op["total_s"]:
        return 0.0
    return 1.0 - op["self_s"] / op["total_s"]


def complete(metrics: dict) -> dict:
    """Every per-layer metric, 0 where the workload has none, with units."""
    return {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER
    }
