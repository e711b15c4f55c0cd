"""One fresh process of a batch workload (suite-cold, suite-warm, scenario-long).

Started by ``run.py`` with the environment of :func:`common.child_env`.
It first imports the CLI and loads the engine libraries, then prints a
``ready`` line (the orchestrator times process start to this line as
``setup_s``), then does its work and prints one ``result`` line.

Modes:

* ``probe`` — set up and exit;
* ``pass`` — one timed pass of ``suite`` or ``scenario`` against the
  empty store the orchestrator made for this process, then (untraced)
  an untimed re-run answered from the store it wrote; with ``--fill``
  the pass is suite-warm's untimed fill and runs on the batch kernel;
* ``warm`` — timed passes of ``suite`` for ``--seconds`` seconds
  against a store a ``pass`` process filled, each preceded by
  ``clear_simulation_cache()`` so every pass reads the store.

With ``--trace 1`` the pass (or, for ``warm``, a second series of
passes) runs with :mod:`layers` installed and the tracer on; the child
writes the Chrome trace next to its result and reports per-layer
numbers from it.
"""

from __future__ import annotations

import argparse
import io
import sys
import time

import layers
from common import SPEC, digest, emit, ready_document

def _scale(seed: int):
    from repro.experiments.common import QUICK_SCALE, ExperimentScale

    return ExperimentScale(
        window_instructions=QUICK_SCALE.window_instructions,
        warmup_instructions=QUICK_SCALE.warmup_instructions,
        seed=seed,
    )


def suite_jobs(scale):
    """The unique jobs one suite pass needs (paper suite plus perf study)."""
    from repro.experiments import perf_impact, runner

    unique = {}
    for job in runner.enumerate_jobs(scale) + perf_impact.perf_jobs(scale=scale):
        unique.setdefault(job.cache_key(), job)
    return list(unique.values())


def _timing(started: float) -> dict:
    """A pass's wall time and where it sits on the machine's monotonic clock."""
    return {"start": started, "wall_s": time.monotonic() - started}


def suite_pass(scale):
    """``run_all`` then the closed-loop study, as ``repro all`` + ``repro perf`` print them."""
    from repro.experiments import perf_impact, runner

    sink = io.StringIO()
    started = time.monotonic()
    runner.run_all(scale, stream=sink)
    text = sink.getvalue() + perf_impact.render(perf_impact.run(scale=scale)) + "\n"
    return text, _timing(started)


def scenario_setup(seed: int):
    """The scale and jobs of scenario-long; the workload seed seeds the traces.

    The scenario sample itself is fixed: sampling seeds draw scenarios
    whose per-instruction cost differs by about 10%, which would make the
    seed, not the program, move ``wall_s``.
    """
    from repro.cpu import stream
    from repro.experiments import robustness
    from repro.experiments.common import ExperimentScale
    from repro.scenarios.space import sample_scenarios

    knobs = SPEC["workloads"]["scenario-long"]
    scale = ExperimentScale(
        window_instructions=knobs["window_instructions"],
        warmup_instructions=knobs["warmup_instructions"],
        seed=seed,
    )
    scenarios = sample_scenarios(knobs["scenarios"], seed=knobs["scenario_seed"])
    jobs = robustness.robustness_jobs(scenarios, scale=scale)
    total = scale.window_instructions + scale.warmup_instructions
    if not stream.resolve_streaming(None, total):
        raise SystemExit(
            f"scenario-long: {total} instructions no longer reach the "
            "default streaming path; the workload would not measure it"
        )
    return scale, jobs


def scenario_pass(scale):
    from repro.experiments import robustness

    knobs = SPEC["workloads"]["scenario-long"]
    started = time.monotonic()
    text = robustness.render(
        robustness.run(scale=scale, count=knobs["scenarios"], seed=knobs["scenario_seed"])
    )
    return text + "\n", _timing(started)


def committed_mismatches(jobs) -> int:
    """Jobs whose (memoized) result did not commit the requested window.

    Measurement starts at the end of the commit cycle in which the
    warmup count is reached, so up to ``commit_width - 1`` of the
    window's instructions commit in that cycle and are not counted.
    """
    from repro.cpu.simulator import cached_result

    bad = 0
    for job in jobs:
        result = cached_result(
            job.profile,
            job.num_instructions,
            config=job.config,
            seed=job.seed,
            warmup_instructions=job.warmup_instructions,
            sleep=job.sleep,
            record_sequences=job.record_sequences,
        )
        committed = None if result is None else result.stats.committed_instructions
        lowest = job.num_instructions - (job.config.commit_width - 1 if job.warmup_instructions else 0)
        if committed is None or not lowest <= committed <= job.num_instructions:
            bad += 1
    return bad


def _traced(run_pass):
    """Run ``run_pass`` under a root span; return its output and the spans."""
    from repro.obs import tracer

    tracer.reset()
    tracer.enable(True)
    try:
        with tracer.span("bench:pass", category="bench"):
            output = run_pass()
    finally:
        tracer.enable(False)
    return output, tracer.drain()


def _layer_report(events, counts, stages_before, overhead, path):
    import json

    from repro.util import stagetime

    analysis = layers.analyze(events)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return layers.layer_metrics(
        events=events,
        analysis=analysis,
        counts=dict(counts.values),
        telemetry=layers.telemetry_totals(),
        stages=stagetime.delta_since(stages_before),
        overhead=overhead,
    ), layers.format_table(analysis)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("probe", "pass", "warm"))
    parser.add_argument("--workload", choices=("suite", "scenario"), default="suite")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-file", default="")
    parser.add_argument("--fill", action="store_true")
    args = parser.parse_args()

    emit(ready_document())
    if args.mode == "probe":
        return 0

    from repro.cpu.simulator import clear_simulation_cache
    from repro.exec import cache as result_cache
    from repro.exec import engine
    from repro.util import stagetime

    result_cache.configure()  # $REPRO_CACHE_DIR: this process's own empty store
    if args.fill:
        from repro.cpu import kernel

        # Untimed set-up only. The kernel stays out of the cache key, and
        # the batch kernel stores the same results about ten times faster.
        if kernel.batch_kernel_available():
            kernel.set_default_kernel("batch")
    scale = _scale(args.seed)
    if args.workload == "suite":
        jobs = suite_jobs(scale)
        run_pass = lambda: suite_pass(scale)  # noqa: E731
    else:
        scale, jobs = scenario_setup(args.seed)
        run_pass = lambda: scenario_pass(scale)  # noqa: E731
    instructions = sum(j.num_instructions + j.warmup_instructions for j in jobs)
    result = {
        "event": "result",
        "unique_jobs": len(jobs),
        "instructions": instructions,
        "store": str(result_cache.active().directory),
    }

    if args.mode == "pass":
        engine.reset_telemetry()
        if args.trace:
            counts = layers.Counts()
            layers.install(counts)
            stages_before = stagetime.snapshot()
            (text, timing), events = _traced(run_pass)
            # The orchestrator sets the overhead: it compares this pass
            # with the untraced one at the host's speed during each.
            result["layers"], result["table"] = _layer_report(
                events, counts, stages_before, 0.0, args.trace_file
            )
        else:
            text, timing = run_pass()
        result.update(
            passes=[{**timing, "digest": digest(text)}],
            telemetry=layers.telemetry_totals(),
            committed_mismatches=committed_mismatches(jobs),
        )
        if not args.trace:
            # Untimed: the same calls again, answered from the store the
            # pass just wrote; warm output must equal cold output.
            clear_simulation_cache()
            result["reread_digest"] = digest(run_pass()[0])
        emit(result)
        return 0

    # warm: time passes that read the store a ``pass`` process filled.
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = result["passes"] = []
    engine.reset_telemetry()
    started = time.monotonic()
    while len(passes) < SPEC["min_passes"] or time.monotonic() - started < budget:
        clear_simulation_cache()
        text, timing = run_pass()
        passes.append({**timing, "digest": digest(text)})
    result["telemetry"] = layers.telemetry_totals()
    if args.trace:
        untraced = sorted(p["wall_s"] for p in passes)[len(passes) // 2]
        counts = layers.Counts()
        layers.install(counts)
        clear_simulation_cache()
        engine.reset_telemetry()
        stages_before = stagetime.snapshot()
        (text, timing), events = _traced(run_pass)
        result["layers"], result["table"] = _layer_report(
            events, counts, stages_before, (timing["wall_s"] - untraced) / untraced,
            args.trace_file,
        )
        passes.append({**timing, "digest": digest(text), "traced": True})
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
