"""``repro serve`` with the benchmark's tracer installed.

    python3 e2ebench/serve_traced.py --trace-out PATH --mark-file PATH \
        -- serve --store DIR --port 0 --workers 1 --quiet

Runs the program's own CLI entry point in this process after wrapping
its layers (see ``tracer.install``).  ``SIGUSR1`` starts the measured
window and touches ``--mark-file`` once it has; on ``SIGINT`` the
server shuts down and the window's layer summary and result-cache
counters are written to ``--trace-out``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402

_CACHE_FIELDS = ("hits", "puts")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--mark-file", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from repro.api.cli import main as repro_main
    from repro.core.cache import ResultCache

    tracer = tracing.Tracer()
    tracing.install(tracer)
    caches: list = []
    original_init = ResultCache.__init__

    def tracked_init(self, *a, **kw):
        original_init(self, *a, **kw)
        caches.append(self)

    ResultCache.__init__ = tracked_init
    at_mark: dict = {}

    def cache_totals() -> dict:
        totals = dict.fromkeys(_CACHE_FIELDS, 0)
        totals["bytes"] = 0
        for cache in caches:
            stats = cache.stats()
            for field in _CACHE_FIELDS:
                totals[field] += stats[field]
            totals["bytes"] += stats["bytes"]
        return totals

    def on_mark(signum, frame):
        tracer.mark()
        at_mark.update(cache_totals())
        Path(args.mark_file).write_text("marked\n")

    signal.signal(signal.SIGUSR1, on_mark)
    code = repro_main(argv)
    end = cache_totals()
    document = {
        "summary": tracer.summary(),
        "cache": {
            "hits": end["hits"] - at_mark.get("hits", 0),
            "puts": end["puts"] - at_mark.get("puts", 0),
            "bytes": end["bytes"] - at_mark.get("bytes", 0),
        },
    }
    Path(args.trace_out).write_text(json.dumps(document))
    return code


if __name__ == "__main__":
    sys.exit(main())
