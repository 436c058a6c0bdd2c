"""Shared helpers of the end-to-end benchmark.

Statistics (medians and the tail-percentile rule), the host-speed
probe, child-process plumbing and the stop rule that makes every run
cover whole cycles of its operation order.  Nothing here imports
``repro``: the parent process stays light while it measures.
"""

from __future__ import annotations

import math
import os
import random
import signal
import statistics
import time
from pathlib import Path

#: the checkout root (the benchmark lives one directory below it).
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
#: run-local scratch space inside the checkout (listed in .gitignore).
SCRATCH = ROOT / ".e2ebench"

#: thread pools of the numeric libraries, pinned to one thread in every
#: child so no workload runs more busy threads than the host has cores.
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: set-ups per run; ``setup_s`` is the median of their normalised times.
SETUP_REPEATS = 3

#: percentiles the tail rule may pick from, highest last.
PERCENTILE_LADDER = (50, 75, 90, 95, 99, 99.9)


def pin_threads() -> None:
    """Pin this process's numeric thread pools (before numpy loads)."""
    for name in _THREAD_VARS:
        os.environ[name] = "1"


def pin_to_one_cpu() -> None:
    """Pin this process, and the children it starts, to its lowest CPU.

    The host's speed differs from core to core, so the speed readings
    and the work they scale must share a core: a probe on another core
    does not track it.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict:
    """Environment for child processes: ``src`` importable, BLAS pinned,
    unbuffered output, no fault-injection plan inherited."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    for name in _THREAD_VARS:
        env[name] = "1"
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("REPRO_CHAOS", None)
    return env


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def _rank(p: float, n: int) -> int:
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(values, min_beyond: int = 10):
    """The highest ladder percentile with ``min_beyond`` samples beyond it.

    Returns ``(p, value, n)`` — the percentile, its nearest-rank value
    and the sample count — or ``None`` when not even the median has
    ``min_beyond`` samples above it.
    """
    n = len(values)
    best = None
    for p in PERCENTILE_LADDER:
        if n - _rank(p, n) >= min_beyond:
            best = p
    if best is None:
        return None
    return best, percentile(values, best), n


#: seconds one :func:`host_probe` takes on the reference host (2 vCPUs,
#: Python 3.11) at its usual speed.  Normalised times are seconds at
#: the host speed where the probe takes this long.
PROBE_REFERENCE_S = 0.02

#: seconds between two probes of a :class:`Speedometer`.
SPEEDOMETER_PERIOD_S = 0.5

_PROBE_STATE = None


def host_probe() -> float:
    """Seconds for a fixed piece of work, about 20 ms on the reference host.

    A pure-Python loop, lookups at scattered keys of a dictionary, and
    small dense solves: the kinds of work the workloads do.  The same
    work every time, so a slow reading means a slow host at that moment,
    not a slow program.  The dictionary (~8 MiB) is built on the first
    call and kept, so the probe adds a constant to a process's memory
    and never a peak of its own.
    """
    global _PROBE_STATE
    import numpy as np

    if _PROBE_STATE is None:
        rng = np.random.default_rng(12345)
        matrix = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        table = {(i * 7919) % 400_009: i for i in range(100_000)}
        _PROBE_STATE = (matrix + 12.0 * np.eye(12), rng.standard_normal(12), table)
    matrix, rhs, table = _PROBE_STATE
    start = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    for i in range(40_000):
        total ^= table.get((i * 104_729) % 400_009, 0)
    for _ in range(400):
        np.linalg.solve(matrix, rhs)
    return time.perf_counter() - start


def host_reading() -> float:
    """One host-speed reading between workloads: the median of five probes."""
    return median([host_probe() for _ in range(5)])


class Speedometer:
    """Samples the host's speed from inside the measured process.

    On a shared host the speed can swing by a third within seconds and
    drift over minutes, so a probe before and after an 8 s operation
    says little about the speed during it.  Every
    :data:`SPEEDOMETER_PERIOD_S` a ``SIGALRM`` handler runs
    :func:`host_probe` on the main thread and records when it started
    and the CPU seconds it used.  CPU time, not wall time: in a server
    the probe shares the GIL with the thread doing the work, and its CPU
    time is both its own speed reading and the time the work paused for
    it, which :func:`normalised` takes back out.
    """

    def __init__(self, period: float = SPEEDOMETER_PERIOD_S):
        self.period = period
        self.samples: list[tuple[float, float]] = []
        self._probing = False

    def _on_alarm(self, signum, frame) -> None:
        # An alarm that arrives while the handler runs would nest a probe
        # inside this one and add its CPU time to this reading.
        if self._probing:
            return
        self._probing = True
        try:
            start = time.perf_counter()
            cpu = time.thread_time()
            host_probe()
            self.samples.append((start, time.thread_time() - cpu))
        finally:
            self._probing = False

    def start(self) -> None:
        """Start sampling (main thread only)."""
        host_probe()  # build the probe's state before the first alarm
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def host_scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two host readings into
    seconds at the reference speed (:data:`PROBE_REFERENCE_S`)."""
    return PROBE_REFERENCE_S / (0.5 * (before + after))


def normalised(start: float, end: float, samples) -> float:
    """Seconds from ``start`` to ``end`` at the reference host speed.

    The probes that started in the interval are taken out of it (the
    work paused for them) and measure the host's speed during it: the
    remaining seconds are scaled by ``PROBE_REFERENCE_S / mean probe``.
    An interval without a probe has no speed reading and gives NaN.
    """
    inside = [(at, seconds) for at, seconds in samples if start <= at < end]
    if not inside:
        return float("nan")
    paused = sum(min(seconds, end - at) for at, seconds in inside)
    speed = sum(seconds for _, seconds in inside) / len(inside)
    return (end - start - paused) * PROBE_REFERENCE_S / speed


def timed_setups(set_up):
    """Set up :data:`SETUP_REPEATS` times, with a host reading between two.

    ``set_up()`` starts a process, returns the seconds until it was
    ready, and stops it again.  Each sample is scaled by the readings on
    either side of it (:func:`host_scale`).  Returns the normalised
    samples and the raw ones.
    """
    readings = [host_reading()]
    normalised_samples, raw = [], []
    for _ in range(SETUP_REPEATS):
        seconds = set_up()
        readings.append(host_reading())
        raw.append(seconds)
        normalised_samples.append(seconds * host_scale(readings[-2], readings[-1]))
    return normalised_samples, raw


def seeded_rng(seed: int, salt: str) -> random.Random:
    """A private RNG per (seed, purpose), so draws never interleave."""
    return random.Random(f"{salt}:{seed}")


def keep_going(cycle_seconds, elapsed: float, seconds: float, min_cycles: int = 1) -> bool:
    """Stop rule: start another whole cycle only if it should end by about
    ``seconds`` — the run's expected end is at most half a cycle late."""
    if len(cycle_seconds) < min_cycles:
        return True
    mean_cycle = sum(cycle_seconds) / len(cycle_seconds)
    return elapsed + 0.5 * mean_cycle <= seconds


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    path = Path(f"/proc/{pid or 'self'}/status")
    for line in path.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {path}")
