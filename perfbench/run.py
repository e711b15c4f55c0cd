"""The repro benchmark: one command, four named workloads.

``BENCHMARK.json`` lists three of them; ``suite-warm`` is run by hand
(``README.md`` says why).

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``suite-cold``    — ``run_all`` + the closed-loop perf study at quick
  scale, each pass in a fresh process against an empty store;
* ``suite-warm``    — the same calls, each pass reading a store an
  untimed cold pass filled;
* ``scenario-long`` — ``robustness.run`` over sampled scenarios whose
  window reaches the default streaming path, against an empty store;
* ``serve-mix``     — ``repro serve`` under a seeded open-loop request mix.

The program runs the way users run it: default kernel, streaming,
backend and workers, no engine flags. With ``--trace 0`` the last line
of stdout is a JSON object carrying every end-to-end metric; with
``--trace 1`` a separate traced run reports every per-layer metric and
prints the per-layer self-time table. The lines before it print each
metric with its unit and sample count, the output-check verdicts, the
output digests and the run's provenance, which are also written to
``.bench_build/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import common
import hostspeed
from common import BUILD, RESULTS, ROOT, SPEC, BenchError, median, quantile

WORKLOADS = ("suite-cold", "suite-warm", "scenario-long", "serve-mix")
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 150.0


class Run:
    """The scratch directory and child processes of one benchmark run."""

    def __init__(self, workload: str, seed: int, trace: int):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.dir = BUILD / "runs" / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "tmp").mkdir(parents=True)
        self._stores = 0
        self.ready: List[dict] = []
        #: Set-up times in seconds of the reference host (see :meth:`timed`).
        self.setup_samples: List[float] = []
        #: The engines the program resolved (the first child's ``ready`` line).
        self.engines: dict = {}
        #: Every process that runs the program is pinned to ``cpu``, beside
        #: the host-speed sampler; this process keeps to the other CPUs.
        self.cpu = hostspeed.measure_cpu()
        os.sched_setaffinity(0, hostspeed.other_cpus(self.cpu))
        self.speed = hostspeed.HostSpeed(self.cpu, **SPEC["host_speed"])
        #: ``(raw seconds, slowdown, samples)`` of every interval timed.
        self.timings: List[tuple] = []

    def timed(self, start: float, end: float) -> float:
        """``end - start`` (``time.monotonic()`` readings) in seconds of the
        reference host: the raw time divided by the host's slowdown over
        the interval, as the sampler measured it."""
        factor, samples = self.speed.slowdown(start, end)
        self.timings.append((end - start, factor, samples))
        return (end - start) / factor

    def pass_time(self, timing: dict) -> float:
        """A child's pass (``start``, ``wall_s``) in seconds of the reference host."""
        return self.timed(timing["start"], timing["start"] + timing["wall_s"])

    def fresh_store(self) -> Path:
        self._stores += 1
        store = self.dir / f"store-{self._stores}"
        store.mkdir()
        return store

    def env(self, store: Path) -> Dict[str, str]:
        return common.child_env(store, self.dir / "tmp")

    def log(self, name: str):
        return open(self.dir / f"{name}.log", "w")

    def child(self, *args: str, store: Optional[Path] = None) -> dict:
        """Run ``child.py`` to completion; return its result document.

        Process start to the ``ready`` line is one ``setup_s`` sample.
        """
        store = store or self.fresh_store()
        command = [sys.executable, str(common.HERE / "child.py"), *args]
        with self.log(f"child-{len(self.ready)}") as log:
            started = time.monotonic()
            proc = hostspeed.spawn_on(
                self.cpu, command, stdout=subprocess.PIPE, stderr=log, text=True,
                env=self.env(store), cwd=ROOT,
            )
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                ready = json.loads(proc.stdout.readline() or "null")
                ready_at = time.monotonic()
                if not ready:
                    raise BenchError(f"child {args[0]} died before set-up; see {log.name}")
                self.ready.append(ready)
                self.setup_samples.append(self.timed(started, ready_at))
                lines = proc.stdout.read().splitlines()
            finally:
                watchdog.cancel()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                proc.stdout.close()
        if proc.returncode != 0:
            raise BenchError(f"child {args[0]} exited {proc.returncode}; see {log.name}")
        result = json.loads(lines[-1]) if lines else {}
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        return result

    def top_up_setup(self) -> None:
        """Extra set-up-only processes until there are enough samples."""
        while len(self.setup_samples) < SPEC["setup_samples"]:
            self.child("probe")

    def keep_logs(self) -> None:
        """Copy the run's logs to ``results/`` before the scratch goes."""
        kept = RESULTS / f"logs-{self.dir.name}"
        kept.mkdir(parents=True, exist_ok=True)
        for log in self.dir.glob("*.log"):
            shutil.copy(log, kept / log.name)
        print(f"perfbench: logs kept in {kept}", file=sys.stderr)

    def close(self) -> None:
        self.speed.close()
        shutil.rmtree(self.dir, ignore_errors=True)


# -- batch workloads ------------------------------------------------------------


def _pass_args(run: Run, kind: str, trace: int) -> List[str]:
    args = ["pass", "--workload", kind, "--seed", str(run.seed), "--trace", str(trace)]
    if trace:
        args += ["--trace-file", str(RESULTS / f"{run.workload}-seed{run.seed}.trace.json")]
    return args


def batch_workload(run: Run, seconds: float) -> dict:
    """Run a batch workload; return its passes, checks and per-layer numbers."""
    kind = "scenario" if run.workload == "scenario-long" else "suite"
    docs: List[dict] = []
    if run.workload == "suite-warm":
        # The untimed cold fill and the timed warm passes are separate
        # processes on one store, as a user's first and second run are.
        store = run.fresh_store()
        fill = run.child(*_pass_args(run, kind, 0), "--fill", store=store)
        args = ["warm", "--seed", str(run.seed), "--seconds", repr(seconds)]
        if run.trace:
            args += ["--trace", "1", "--trace-file",
                     str(RESULTS / f"{run.workload}-seed{run.seed}.trace.json")]
        warm = run.child(*args, store=store)
        warm.update(
            fill_digest=fill["passes"][0]["digest"],
            fill_telemetry=fill["telemetry"],
            reread_digest=fill["reread_digest"],
            committed_mismatches=fill["committed_mismatches"],
        )
        docs.append(warm)
    elif run.trace:
        docs.append(run.child(*_pass_args(run, kind, 0)))
        docs.append(run.child(*_pass_args(run, kind, 1)))
    else:
        # As many passes as fit in ``seconds``, at least one: another pass
        # starts only if, at the mean cost so far, it ends in time. A walk
        # pass takes 10-20 s, so at 30 s that is one or two passes per run
        # (the faster the host, the more): the run-to-run median carries
        # the statistics, the store re-read checks warm == cold in every
        # run, and determinism across processes is checked by the traced
        # run, by a second pass when there is one, and by the pinned digest.
        started = time.perf_counter()
        while not docs or (time.perf_counter() - started) * (len(docs) + 1) / len(docs) <= seconds:
            docs.append(run.child(*_pass_args(run, kind, 0)))
    run.top_up_setup()
    return check_batch(run, docs)


def check_batch(run: Run, docs: List[dict]) -> dict:
    """Output checks of a batch workload; every mismatch is one failed operation."""
    checks: Dict[str, bool] = {}
    failed = 0
    attempted = 0
    passes = [p for doc in docs for p in doc["passes"] if not p.get("traced")]
    digests = [p["digest"] for doc in docs for p in doc["passes"]]
    reference = docs[0].get("fill_digest", digests[0])
    differing = sum(d != reference for d in digests)
    checks["every pass byte-identical" + (" to the cold fill" if "fill_digest" in docs[0] else "")] = not differing
    failed += differing
    rereads = [doc["reread_digest"] for doc in docs if "reread_digest" in doc]
    if rereads:
        differing = sum(d != reference for d in rereads)
        checks["re-run from the store it wrote byte-identical to the cold pass"] = not differing
        failed += differing
    checks["every store inside this run's scratch directory under .bench_build"] = all(
        Path(doc["store"]).is_relative_to(run.dir) for doc in docs
    )
    unique = docs[0]["unique_jobs"]
    for doc in docs:
        runs = len(doc["passes"])
        attempted += unique * runs
        telemetry = doc["telemetry"]
        if run.workload == "suite-warm":
            ok = telemetry["executed"] == 0 and doc["fill_telemetry"]["executed"] == unique
            checks["warm passes executed 0 jobs, the fill executed every unique job"] = ok
        else:
            ok = telemetry["executed"] == unique * runs
            checks["executed == unique jobs"] = checks.get("executed == unique jobs", True) and ok
        failed += (not ok) + telemetry["failed"]
        if "committed_mismatches" in doc:
            bad = doc["committed_mismatches"]
            checks["every job committed its window"] = (
                checks.get("every job committed its window", True) and not bad
            )
            failed += bad
    pinned = SPEC["pinned_digests"].get(run.workload.split("-")[0])
    if run.seed == SPEC["default_seed"] and pinned:
        ok = reference == pinned
        checks[f"seed {run.seed} digest matches pinned {pinned}"] = ok
        failed += not ok
    return {
        "docs": docs,
        "passes": passes,
        "checks": checks,
        "attempted": attempted,
        # Several checks can fail on one job; no more jobs fail than ran.
        "failed": min(failed, attempted),
        "digest": reference,
        "extra": {"pass_walls_s": [p["wall_s"] for p in passes]},
    }


def batch_metrics(run: Run, outcome: dict) -> Dict[str, tuple]:
    """End-to-end metrics of a batch workload: ``name -> (value, unit, n)``."""
    walls = [run.pass_time(p) for p in outcome["passes"]]
    instructions = outcome["docs"][0]["instructions"]
    limit = SPEC["op_limit_s"][run.workload]
    ok = outcome["failed"] == 0
    return {
        "wall_s": (median(walls), "s", len(walls)),
        "sim_minstr_per_s": (
            median([instructions / w / 1e6 for w in walls]), "Minstr/s", len(walls)
        ),
        "setup_s": (median(run.setup_samples), "s", len(run.setup_samples)),
        "peak_rss_mb": (
            max(d["peak_rss_mb"] for d in outcome["docs"]), "MB", len(outcome["docs"])
        ),
        "req_p50_ms": (1e3 * median(walls), "ms", len(walls)),
        "req_p99_ms": (1e3 * quantile(walls, 0.99), "ms", len(walls)),
        "goodput_frac": (ok * sum(w <= limit for w in walls) / len(walls), "ratio", len(walls)),
        "sustained_rps": (len(walls) / sum(walls), "req/s", len(walls)),
    }


def batch_layers(run: Run, outcome: dict) -> Dict[str, float]:
    traced = outcome["docs"][-1]
    values = dict(traced["layers"])
    if len(outcome["docs"]) == 2:  # an untraced pass, then a traced one
        untraced, traced_pass = (doc["passes"][0] for doc in outcome["docs"])
        values["obs.trace_overhead_frac"] = (
            run.pass_time(traced_pass) / run.pass_time(untraced) - 1
        )
    values["cli.import_s"] = median([r["import_s"] for r in run.ready])
    for line in traced["table"]:
        print(f"[bench] {line}")
    return values


# -- reporting -------------------------------------------------------------------


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(run: Run) -> dict:
    ready = run.engines
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel": ready.get("kernel"),
        "batch_kernel_available": ready.get("batch_kernel_available"),
        "batch_kernel_unavailable": ready.get("batch_kernel_unavailable"),
        "trace_kernel_available": ready.get("trace_kernel_available"),
        "trace_kernel_unavailable": ready.get("trace_kernel_unavailable"),
    }


def report(run: Run, outcome: dict, e2e: Dict[str, tuple], layer_values: Dict[str, float]) -> dict:
    metrics: Dict[str, dict] = {}
    if run.trace:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        for metric in bench["per_layer"]:
            name, unit = metric["name"], metric["unit"]
            value = float(layer_values.get(name, 0.0))
            metrics[name] = {"value": value, "unit": unit}
            moves = ", ".join(SPEC["layer_map"].get(name, []))
            print(f"[bench] layer {name} = {value:.6g} {unit}"
                  + (f"  (moves {moves})" if moves else ""))
    else:
        for name, (value, unit, n) in e2e.items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"[bench] {name} = {value:.6g} {unit} (n={n})")
    for name, ok in outcome["checks"].items():
        print(f"[bench] check {'ok  ' if ok else 'FAIL'} {name}")
    failed_frac = outcome["failed"] / outcome["attempted"]
    print(f"[bench] failed_frac = {failed_frac:.6g} "
          f"({outcome['failed']} of {outcome['attempted']} operations)")
    factors = [factor for _, factor, _ in run.timings]
    print(f"[bench] host slowdown over the {len(factors)} timed intervals: median "
          f"{median(factors):.3f}, range {min(factors):.3f}-{max(factors):.3f} "
          f"({sum(n for _, _, n in run.timings)} samples on CPU {run.cpu}); "
          "timings above are divided by it")
    record = {
        "workload": run.workload,
        "seed": run.seed,
        "trace": run.trace,
        "digest": outcome["digest"],
        "provenance": provenance(run),
        "setup_samples_s": run.setup_samples,
        "host_timings": [
            {"raw_s": raw, "slowdown": factor, "samples": n} for raw, factor, n in run.timings
        ],
        "checks": outcome["checks"],
        "failed_frac": failed_frac,
        "samples": {name: n for name, (_, _, n) in e2e.items()},
        "metrics": metrics,
        "extra": outcome.get("extra", {}),
    }
    print(f"[bench] digest {run.workload} seed {run.seed}: {outcome['digest']}")
    print(f"[bench] provenance {json.dumps(record['provenance'], sort_keys=True)}")
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{run.workload}-seed{run.seed}-trace{run.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return {
        "correct": outcome["failed"] == 0 and all(outcome["checks"].values()),
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A shell that starts this in the background leaves SIGINT ignored, and
    # every child would inherit that; serve-mix stops the service with SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src/repro'} is missing",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed, args.trace)
    try:
        # Untimed: compiles the kernels into the checkout's kernel cache
        # and writes bytecode, so no timed process pays for either.
        run.child("probe")
        run.engines = run.ready[0]
        run.ready.clear()
        run.setup_samples.clear()
        if args.workload == "serve-mix":
            import loadgen

            outcome = loadgen.serve_mix(run, args.seconds)
            e2e, layer_values = outcome["e2e"], outcome.get("layers", {})
        else:
            outcome = batch_workload(run, args.seconds)
            e2e = batch_metrics(run, outcome)
            layer_values = batch_layers(run, outcome) if args.trace else {}
        result = report(run, outcome, e2e, layer_values)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        run.keep_logs()
        return 3
    finally:
        run.close()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
