"""``repro serve`` with the benchmark's layer wrappers installed (traced serve-mix).

Usage: ``serve_child.py --stats FILE --trace-out FILE --port N``. Runs the
service in this process exactly as ``python -m repro.cli serve --port N
--trace-out FILE`` would, with :mod:`layers` installed and every
``/v1/run`` request wrapped in a ``serve:request`` root span. On SIGINT
the service shuts down, the program writes its Chrome trace, and this
wrapper writes the per-layer numbers to the stats file.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import layers


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--port", required=True)
    args = parser.parse_args()

    started = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - started
    from repro.exec import cache as result_cache
    from repro.obs import tracer
    from repro.serve.service import EvaluationService
    from repro.util import stagetime

    result_cache.configure()  # $REPRO_CACHE_DIR; the CLI reuses this store
    counts = layers.Counts()
    layers.install(counts)
    handle_run = EvaluationService._handle_run

    @functools.wraps(handle_run)
    async def traced_handle_run(self, writer, body):
        with tracer.span("serve:request", category="bench"):
            await handle_run(self, writer, body)

    EvaluationService._handle_run = traced_handle_run
    stages_before = stagetime.snapshot()
    code = repro.cli.main(["serve", "--port", args.port, "--trace-out", args.trace_out])

    events = tracer.drain()
    analysis = layers.analyze(events, root_prefix="serve:")
    stats = {
        "import_s": import_s,
        "layers": layers.layer_metrics(
            events=events,
            analysis=analysis,
            counts=dict(counts.values),
            telemetry=layers.telemetry_totals(),
            stages=stagetime.delta_since(stages_before),
            overhead=0.0,
        ),
        "table": layers.format_table(analysis),
    }
    with open(args.stats, "w") as handle:
        json.dump(stats, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
