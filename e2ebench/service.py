"""The ``service-jobs`` workload: one client against a ``repro serve`` child.

The server runs with ``--workers 1`` on a fresh store inside the
checkout.  One client, closed loop, waits for each job before sending
the next.  Before the timed region it computes two warm-up specs: the
golden campaign spec (whose payload is checked against the repository's
golden file) and a small example3-c432 spec, so one-time compilation is
not charged to the first cycle.

A cycle is :data:`COMPUTED_PER_CYCLE` computed jobs plus
:data:`HITS_PER_CYCLE` resubmissions of specs already computed in this
run, interleaved in a seeded order.  Computed jobs all use the default
generator config and differ only in their campaign seed, so the
generation input repeats while the campaign work stays the same size.

The run is pinned to one CPU (``run.py``), so the server works on the
same core as the client.  Untraced, a :class:`common.Speedometer` in the
client samples that core's speed while the server works; a probe takes
the core from the server for its CPU time, which
:func:`common.normalised` takes back out of a job's latency.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import common
import metrics

#: computed job kinds per cycle: two fig4 campaigns, one example3-c432.
COMPUTED_PER_CYCLE = ("fig4", "fig4", "example3-c432")
HITS_PER_CYCLE = 36
#: hits need >= 100 samples for a p90 with ten beyond it.
MIN_CYCLES = 3
FAULTS_PER_ELEMENT = 200
SHARDS = 2
GOLDEN_SPEC = {"circuit": "fig4", "campaign": {"faults_per_element": 3, "seed": 2024}}
WARMUP_SPECS = (
    GOLDEN_SPEC,
    {"circuit": "example3-c432", "campaign": {"faults_per_element": 3, "seed": 2024}},
)
SERVER_READY_TIMEOUT = 60.0


def spec_key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


def computed_spec(circuit: str, seed: int) -> dict:
    return {
        "circuit": circuit,
        "campaign": {
            "faults_per_element": FAULTS_PER_ELEMENT,
            "seed": seed,
            "shards": SHARDS,
        },
    }


def cycle_plan(rng, used_seeds: set) -> list:
    """One cycle: computed specs and hit markers, in a seeded order."""
    items = []
    for circuit in COMPUTED_PER_CYCLE:
        seed = rng.randrange(1, 1_000_000)
        while seed in used_seeds:
            seed = rng.randrange(1, 1_000_000)
        used_seeds.add(seed)
        items.append(("compute", computed_spec(circuit, seed)))
    items.extend([("hit", None)] * HITS_PER_CYCLE)
    rng.shuffle(items)
    return items


class Server:
    """A ``repro serve`` child on its own fresh store."""

    def __init__(self, index: int, trace: bool):
        self.root = common.SCRATCH / f"service-{os.getpid()}-{index}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self.trace_out = self.root / "trace.json"
        self.mark_file = self.root / "marked"
        serve = ["serve", "--store", str(self.root / "store"), "--port", "0",
                 "--workers", "1", "--quiet"]
        if trace:
            command = [sys.executable, str(common.BENCH_DIR / "serve_traced.py"),
                       "--trace-out", str(self.trace_out),
                       "--mark-file", str(self.mark_file), "--", *serve]
        else:
            command = [sys.executable, "-m", "repro", *serve]
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=common.ROOT, env=common.child_env(),
            stdout=subprocess.PIPE, text=True,
        )
        line = self.process.stdout.readline()
        if "listening on " not in line:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")
        self.url = line.split("listening on ")[1].split()[0]

    def wait_ready(self, client) -> float:
        """Seconds from process start until ``/healthz`` answers."""
        deadline = time.monotonic() + SERVER_READY_TIMEOUT
        while True:
            try:
                client.health()
                return time.perf_counter() - self.started
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def mark(self) -> None:
        """Start the traced server's measured window and wait until it has."""
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while not self.mark_file.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced server never acknowledged the mark")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb(self.process.pid)

    def stop(self) -> dict | None:
        """Interrupt, wait, clean up; the trace document when traced."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        document = None
        if self.trace_out.exists():
            document = json.loads(self.trace_out.read_text())
        shutil.rmtree(self.root, ignore_errors=True)
        return document


def _events(job: dict) -> dict:
    return {event["kind"]: event for event in job.get("events", [])}


def run(seed: int, seconds: float, trace: bool):
    sys.path.insert(0, str(common.SRC))
    import checks
    from repro.service.client import ServiceClient

    indices = iter(range(1, common.SETUP_REPEATS + 1))

    def set_up() -> float:
        server = Server(next(indices), trace=False)
        try:
            return server.wait_ready(ServiceClient(server.url))
        finally:
            server.stop()

    setups, raw_setups = common.timed_setups(set_up)
    probe_before = common.host_reading() if trace else None
    server = Server(0, trace=trace)
    speedometer = None
    failures: list[str] = []
    try:
        client = ServiceClient(server.url, timeout=120.0)
        server.wait_ready(client)

        computed_text: dict[str, str] = {}
        generation_inputs: set = set()

        for spec in WARMUP_SPECS:
            job = client.wait(client.submit(**spec)["job_id"], timeout=300.0, poll=0.02)
            if job["state"] != "done":
                failures.append(f"warm-up {spec_key(spec)} ended {job['state']}")
                continue
            computed_text[spec_key(spec)] = client.artifact_text(job["artifact"])
            generation_inputs.add(spec["circuit"])
        golden_text = computed_text.get(spec_key(GOLDEN_SPEC))
        golden_problem = checks.check_golden(golden_text) if golden_text else None
        if golden_problem:
            failures.append(f"golden spec: {golden_problem}")

        health_before = client.health()["scheduler"]
        if trace:
            server.mark()
        rng = common.seeded_rng(seed, "service")
        used_seeds: set = set()
        done_keys = list(computed_text)
        computed_latency, computed_start, hit_latency, submit_latency = [], [], [], []
        computed_kinds: list[str] = []
        queue_wait, generate_s, campaign_s = [], [], []
        reused_generation = 0
        jobs = 0
        cycle_seconds = []
        speedometer = None if trace else common.Speedometer()
        if speedometer is not None:
            speedometer.start()
        start = time.perf_counter()
        while common.keep_going(
            cycle_seconds, time.perf_counter() - start, seconds, MIN_CYCLES
        ):
            cycle_start = time.perf_counter()
            for kind, spec in cycle_plan(rng, used_seeds):
                jobs += 1
                if kind == "hit":
                    key = done_keys[rng.randrange(len(done_keys))]
                    spec = json.loads(key)
                    t0 = time.perf_counter()
                    job = client.submit(**spec)
                    text = client.artifact_text(job["artifact"]) if job.get("artifact") else None
                    hit_latency.append(time.perf_counter() - t0)
                    if not job["deduplicated"] or text != computed_text[key]:
                        failures.append(f"hit on {key} did not return the original artifact")
                    continue
                t0 = time.perf_counter()
                job = client.submit(**spec)
                submit_latency.append(time.perf_counter() - t0)
                job = client.wait(job["job_id"], timeout=300.0, poll=0.02)
                text = client.artifact_text(job["artifact"]) if job.get("artifact") else None
                computed_latency.append(time.perf_counter() - t0)
                computed_start.append(t0)
                computed_kinds.append(spec["circuit"])
                if job["state"] != "done" or text is None or job.get("served_from_store"):
                    failures.append(f"computed job {spec_key(spec)} ended {job['state']}")
                    continue
                key = spec_key(spec)
                computed_text[key] = text
                done_keys.append(key)
                if spec["circuit"] in generation_inputs:
                    reused_generation += 1
                generation_inputs.add(spec["circuit"])
                events = _events(job)
                queue_wait.append(events["running"]["ts"] - events["submitted"]["ts"])
                generate_s.append(events["generated"]["seconds"])
                campaign_s.append(events["campaign"]["seconds"])
            cycle_seconds.append(time.perf_counter() - cycle_start)
        wall = time.perf_counter() - start

        health = client.health()["scheduler"]
        if health["executions"] != len(computed_text):
            failures.append(
                f"service executed {health['executions']} campaigns for "
                f"{len(computed_text)} distinct specs"
            )
        rss = server.peak_rss_mb()
    finally:
        if speedometer is not None:
            speedometer.stop()
        document = server.stop()
    probe_after = common.host_reading() if trace else None

    cycles = len(cycle_seconds)
    speed = speedometer.samples if speedometer is not None else []
    normalised = [
        common.normalised(t0, t0 + latency, speed)
        for t0, latency in zip(computed_start, computed_latency)
    ]
    raw_p50 = common.median(computed_latency) if computed_latency else float("nan")
    values = {"setup_s": common.median(setups), "peak_rss_mb": rss}
    if not trace:
        values["op_p50_s"] = common.median(normalised) if normalised else float("nan")
        values["ops_per_s"] = jobs / common.normalised(start, start + wall, speed)
    record = {
        "workload": "service-jobs",
        "seed": seed,
        "trace": trace,
        "cycles": cycles,
        "ops": jobs,
        "computed": len(computed_latency),
        "hits": len(hit_latency),
        "wall_s": wall,
        "raw": {
            "setup_s": common.median(raw_setups),
            "op_p50_s": raw_p50,
            "ops_per_s": jobs / wall,
        },
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "host_probe_s": [seconds for _, seconds in speed] or [probe_before, probe_after],
        "computed_latencies_s": list(zip(computed_kinds, computed_latency, normalised)),
        "hit_tail": common.tail_percentile(hit_latency),
        "failures": failures,
    }
    if trace:
        summary = document["summary"]
        layer = metrics.layer_metrics(summary, cycles)
        server_side = sum(
            row["top_level_s"] for row in summary["names"].values()
        )
        hit_p90 = common.percentile(hit_latency, 90) if len(hit_latency) >= 100 else 0.0
        layer.update(
            {
                "host.probe_s": 0.5 * (probe_before + probe_after),
                "trace.op_p50_s": raw_p50,
                "trace.coverage": server_side / sum(computed_latency),
                "service.submit_s": common.median(submit_latency),
                "service.queue_wait_s": common.median(queue_wait),
                "service.generate_s": common.median(generate_s),
                "service.campaign_s": common.median(campaign_s),
                "service.hit_p50_s": common.median(hit_latency),
                "service.hit_p90_s": hit_p90,
                "service.executions": (health["executions"] - health_before["executions"]) / cycles,
                "service.store_hits": (health["store_hits"] - health_before["store_hits"]) / cycles,
                "service.dedup_share": len(hit_latency) / jobs,
                "service.generation_reuse_share": reused_generation / len(computed_latency),
                "cache.hits": document["cache"]["hits"] / cycles,
                "cache.puts": document["cache"]["puts"] / cycles,
                "cache.bytes": document["cache"]["bytes"] / cycles,
            }
        )
        record["trace_summary"] = summary
        values = layer
    return values, jobs + 1, min(len(failures), jobs + 1), record
