"""serve-mix: ``repro serve`` under a seeded open-loop request mix.

The service runs in its own process with default flags and an empty
store. This process is the load generator: one thread keeps a seeded
open-loop schedule and ``nproc`` threads send the requests through the
service's own client (:func:`repro.serve.client.run_remote`), so at most
``nproc`` connections are open at once. Requests are due on a fixed-rate
schedule (a nominal phase, then a short ramp of higher fixed rates);
each request's latency is timed from when it was due, so a stall also
charges the wait it imposes on the requests queued behind it. Requests
that are due while every sender is busy wait in the generator's queue
(its backlog, which is reported, as is how late the generator woke for
each due time). A measurement whose generator ran late beyond ``max_late_ms`` is
invalid and is taken again once; a second invalid one fails the run.

The traffic mixes three kinds of request, drawn from the workload seed:

* ``hot``   — a fixed set of ``simulate`` and ``perf`` requests, warmed
  during set-up and answered warm or coalesced; their text is checked
  against a local render made during set-up;
* ``sweep`` — ``sweep`` requests over varying grids on warm simulations,
  which only price;
* ``cold``  — ``simulate`` requests with fresh seeds, which go through
  the batcher, the engine and the ``cpu`` layers.

``README.md`` gives the shares and rates and what they are based on.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

import common
import hostspeed
from common import ROOT, SPEC, BenchError, digest, median, quantile

KNOBS = SPEC["workloads"]["serve-mix"]
HOST = "127.0.0.1"
NPROC = os.cpu_count() or 1


class Payloads:
    """The seeded request mix of one run."""

    def __init__(self, seed: int, names: List[str]):
        rng = random.Random(seed)
        instructions = KNOBS["simulate_instructions"]
        self.hot = [
            {"kind": "simulate", "params": {
                "benchmark": rng.choice(names), "instructions": instructions,
                "seed": rng.randrange(1, 1000)}}
            for _ in range(KNOBS["hot_simulate"])
        ] + [
            {"kind": "perf", "quick": True, "params": {
                "benchmarks": rng.choice(names),
                "policies": rng.choice(("MaxSleep", "GradualSleep")),
                "p_grid": "0.5", "wakeup_latencies": "1"}}
            for _ in range(KNOBS["hot_perf"])
        ]
        self.sweep_benchmarks = ",".join(rng.sample(names, KNOBS["sweep_benchmarks"]))
        self.warm_up = self.hot + [
            {"kind": "sweep", "quick": True, "params": {"benchmarks": self.sweep_benchmarks}}
        ]
        self._rng = rng
        self._names = names

    def sweep(self) -> dict:
        rng = self._rng
        points = KNOBS["sweep_grid_points"]
        return {"kind": "sweep", "quick": True, "params": {
            "benchmarks": self.sweep_benchmarks,
            "p_grid": f"{rng.uniform(0.05, 0.2):.3f}:{rng.uniform(0.3, 0.6):.3f}:{points}",
            "alpha_grid": f"{rng.uniform(0.2, 0.4):.3f}:{rng.uniform(0.5, 0.8):.3f}:{points}",
        }}

    def cold(self, index: int) -> dict:
        return {"kind": "simulate", "params": {
            "benchmark": self._names[index % len(self._names)],
            "instructions": KNOBS["simulate_instructions"],
            "seed": self._rng.randrange(10**6, 10**9)}}

    def draw(self, count: int) -> List[Tuple[str, dict]]:
        """``count`` requests in the mix's exact proportions, in seeded order.

        Hot requests cycle through the hot set and cold ones through the
        benchmarks, so each seed carries the same amount of work.
        """
        hot = round(count * KNOBS["mix"]["hot"])
        sweep = round(count * KNOBS["mix"]["sweep"])
        drawn = (
            [("hot", self.hot[i % len(self.hot)]) for i in range(hot)]
            + [("sweep", self.sweep()) for _ in range(sweep)]
            + [("cold", self.cold(i)) for i in range(count - hot - sweep)]
        )
        self._rng.shuffle(drawn)
        return drawn


def schedule(payloads: Payloads, seconds: float) -> List[Tuple[float, List[Tuple[float, str, dict]]]]:
    """``[(rate, [(due offset, kind, payload), ...]), ...]``: nominal phase, then the ramp."""
    nominal = seconds * KNOBS["nominal_share"]
    step = (seconds - nominal) / len(KNOBS["ramp"])
    phases = [(KNOBS["nominal_rps"], nominal)] + [
        (KNOBS["nominal_rps"] * factor, step) for factor in KNOBS["ramp"]
    ]
    out = []
    for rate, length in phases:
        count = max(1, round(rate * length))
        out.append((rate, [(i / rate, *drawn) for i, drawn in enumerate(payloads.draw(count))]))
    return out


# -- the load generator ----------------------------------------------------------------


class Record:
    """One request: when it was due, sent and answered, and what came back."""

    __slots__ = ("kind", "due", "sent", "done", "answered", "ok", "events", "late",
                 "payload", "executed")

    def __init__(self, kind: str, payload: dict):
        self.kind, self.payload = kind, payload
        self.due = self.sent = self.done = self.late = 0.0
        #: 200 with a ``result`` event; ``ok`` also needs a hot reply's text to match.
        self.answered = self.ok = False
        #: Jobs the service simulated for this request (the result's ``executed``).
        self.executed = 0
        self.events: List[Tuple[float, str]] = []

    @property
    def latency(self) -> float:
        return self.done - self.due

    def mark(self, *names: str) -> Optional[float]:
        """When the first of the events ``names`` arrived."""
        for at, name in self.events:
            if name in names:
                return at
        return None


def _send(url: str, record: Record, expected: Dict[str, str]) -> None:
    """Run one request through the service's own client, stamping each event."""
    from repro.serve import client as serve_client

    def on_event(event: dict) -> None:
        record.events.append((time.monotonic(), event.get("event")))

    record.sent = time.monotonic()
    try:
        result = serve_client.run_remote(
            url, record.payload, timeout=KNOBS["request_timeout_s"], on_event=on_event
        )
    except (serve_client.ServeClientError, OSError, http.client.HTTPException, ValueError):
        result = None
    record.done = time.monotonic()
    record.answered = result is not None
    record.executed = result.get("executed", 0) if result else 0
    record.ok = record.answered and (
        record.kind != "hot"
        or result.get("text") == expected[json.dumps(record.payload, sort_keys=True)]
    )


def _phase(url: str, pool: ThreadPoolExecutor, requests, expected: Dict[str, str],
           backlog: List[int]) -> List[Record]:
    """Send one phase on its open-loop schedule and wait until every reply is in.

    This thread keeps the schedule; the pool's ``nproc`` threads send, so
    at most ``nproc`` requests (and connections) are open at once. A
    request due while every sender is busy waits in the pool's queue: the
    generator's backlog.
    """
    lock = threading.Lock()
    waiting = [0]

    def send(record: Record) -> None:
        with lock:
            waiting[0] -= 1
        _send(url, record, expected)

    records: List[Record] = []
    futures = []
    start = time.monotonic() + 0.02
    for offset, kind, payload in requests:
        record = Record(kind, payload)
        record.due = start + offset
        delay = record.due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        record.late = max(0.0, time.monotonic() - record.due)
        with lock:
            waiting[0] += 1
            backlog[0] = max(backlog[0], waiting[0])
        futures.append(pool.submit(send, record))
        records.append(record)
    for future in futures:
        future.result()
    return records


# -- the service process ------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


class Server:
    """One ``repro serve`` process, pinned to the run's measured CPU.

    ``setup_s`` is spawn to a healthy ``/healthz``, in seconds of the
    reference host.
    """

    def __init__(self, run, traced_files: Optional[Tuple[str, str]] = None):
        from repro.serve import client as serve_client

        port = _free_port()
        self.url = f"http://{HOST}:{port}"
        store = run.fresh_store()
        if traced_files:
            command = [sys.executable, str(common.HERE / "serve_child.py"),
                       "--stats", traced_files[0], "--trace-out", traced_files[1]]
        else:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        command += ["--port", str(port)]
        self._log = run.log(f"serve-{port}")
        started = time.monotonic()
        self.proc = hostspeed.spawn_on(
            run.cpu, command, stdout=self._log, stderr=subprocess.STDOUT,
            env=run.env(store), cwd=ROOT,
        )
        self.peak_rss_mb = 0.0
        deadline = started + 60
        while True:
            try:
                if serve_client.health(self.url).get("ok"):
                    break
            except serve_client.ServeClientError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError(f"repro serve did not come up; see {self._log.name}")
            time.sleep(0.005)
        self.setup_s = run.timed(started, time.monotonic())

    def metrics(self) -> dict:
        from repro.serve import client as serve_client

        return serve_client.metrics_snapshot(self.url)["metrics"]

    def stop(self) -> None:
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
            deadline = time.monotonic() + 20
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    self.peak_rss_mb = usage.ru_maxrss / 1024.0
                    break
                if time.monotonic() > deadline:
                    self.proc.kill()
                    self.proc.wait()
                    break
                time.sleep(0.01)
        self._log.close()


# -- one measurement -------------------------------------------------------------------


def _local_renders(payloads: Payloads) -> Dict[str, str]:
    """The hot set rendered in this process, against its own store."""
    from repro.serve.schema import build_request

    return {json.dumps(p, sort_keys=True): build_request(p).render() for p in payloads.hot}


def _executed_instructions(record: Record) -> int:
    """Warmup + window instructions of the jobs the service simulated for ``record``."""
    from repro.serve.schema import build_request

    jobs = build_request(record.payload).jobs()
    per_job = sum(j.num_instructions + j.warmup_instructions for j in jobs) / len(jobs)
    return round(per_job * record.executed)


def _measure_once(run, seconds: float, expected, traced_files=None) -> dict:
    payloads = Payloads(run.seed, _benchmark_names())
    phases = schedule(payloads, seconds)
    server = Server(run, traced_files)
    try:
        for payload in payloads.warm_up:
            record = Record("warm-up", payload)
            _send(server.url, record, expected)
            if not record.ok:
                raise BenchError(f"warm-up request failed: {json.dumps(payload)}")
        before = server.metrics()
        backlog = [0]
        done: List[Tuple[float, List[Record]]] = []
        with ThreadPoolExecutor(NPROC) as pool:
            for rate, requests in phases:
                done.append((rate, _phase(server.url, pool, requests, expected, backlog)))
        after = server.metrics()
    finally:
        server.stop()
    return {"server": server, "phases": done, "before": before, "after": after,
            "backlog_max": backlog[0]}


def _throughput(run, records: List[Record]) -> float:
    """Requests answered per second, from the first due time to the last reply."""
    answered = sum(r.ok for r in records)
    return answered / run.timed(min(r.due for r in records), max(r.done for r in records))


def _benchmark_names() -> List[str]:
    from repro.cpu.workloads import benchmark_names

    return list(benchmark_names())


def _measure(run, seconds: float, expected, traced_files=None) -> dict:
    """A valid measurement: one retry if the generator ran late."""
    for _ in range(2):
        measured = _measure_once(run, seconds, expected, traced_files)
        late = [r.late for _, records in measured["phases"] for r in records]
        measured["late_p99_ms"] = 1e3 * quantile(late, 0.99)
        if measured["late_p99_ms"] <= KNOBS["max_late_ms"]:
            return measured
        print(f"[bench] serve-mix measurement invalid: generator late p99 "
              f"{measured['late_p99_ms']:.1f} ms > {KNOBS['max_late_ms']} ms; measuring again")
    raise BenchError("load generator fell behind in two measurements")


def _histogram_delta(after: Optional[dict], before: Optional[dict]) -> dict:
    """A registry histogram snapshot minus an earlier one."""
    if not after:
        return {}
    if not before:
        return dict(after)
    counts = [a - b for a, b in zip(after["counts"], before["counts"])]
    return {
        "boundaries": after["boundaries"],
        "counts": counts,
        "count": after["count"] - before["count"],
        "sum": after["sum"] - before["sum"],
        "min": None,
        "max": None,
    }


def _server_layers(measured: dict) -> Dict[str, float]:
    from repro.obs.metrics import histogram_quantile

    before, after = measured["before"], measured["after"]

    def counter(name: str) -> float:
        return after["counters"].get(name, 0.0) - before["counters"].get(name, 0.0)

    def hist(name: str) -> dict:
        return _histogram_delta(after["histograms"].get(name), before["histograms"].get(name))

    requests = counter("serve.requests")
    batches = hist("serve.batch_jobs")
    latency = hist("serve.request_seconds")
    records = [r for _, rs in measured["phases"] for r in rs]

    def phase_ms(pairs) -> List[float]:
        return [1e3 * (b - a) for a, b in pairs if a is not None and b is not None]

    accept = phase_ms((r.sent, r.mark("accepted")) for r in records)
    plan = phase_ms((r.mark("accepted"), r.mark("warm", "scheduled", "coalesced")) for r in records)
    executed = phase_ms((r.mark("scheduled"), r.mark("result")) for r in records)
    warm = phase_ms((r.mark("warm"), r.mark("result")) for r in records)

    def q(values: List[float], p: float) -> float:
        return quantile(values, p) if values else 0.0

    return {
        "serve.requests": requests,
        "serve.errors": counter("serve.errors"),
        "serve.coalesce_ratio": counter("serve.coalesce_hits") / requests if requests else 0.0,
        "serve.warm_ratio": counter("serve.warm_hits") / requests if requests else 0.0,
        "serve.batch_jobs_mean": batches["sum"] / batches["count"] if batches.get("count") else 0.0,
        "serve.request_p50_s": histogram_quantile(latency, 0.5) if latency else 0.0,
        "serve.request_p99_s": histogram_quantile(latency, 0.99) if latency else 0.0,
        "serve.accept_p50_ms": q(accept, 0.5),
        "serve.accept_p99_ms": q(accept, 0.99),
        "serve.plan_p50_ms": q(plan, 0.5),
        "serve.exec_p50_ms": q(executed, 0.5),
        "serve.exec_p99_ms": q(executed, 0.99),
        "serve.warm_render_p50_ms": q(warm, 0.5),
        "loadgen.sent": len(records),
        "loadgen.late_p99_ms": measured["late_p99_ms"],
        "loadgen.backlog_max": measured["backlog_max"],
    }


def serve_mix(run, seconds: float) -> dict:
    """Measure serve-mix; return e2e metrics, checks and (traced) per-layer values."""
    local = run.dir / "local-store"
    local.mkdir()
    os.environ.update(run.env(local))
    sys.path.insert(0, str(common.SRC))
    from repro.exec import cache as result_cache

    result_cache.configure(cache_dir=local)
    expected = _local_renders(Payloads(run.seed, _benchmark_names()))
    if not run.trace:
        while len(run.setup_samples) < SPEC["setup_samples"] - 1:
            probe = Server(run)
            probe.stop()
            run.setup_samples.append(probe.setup_s)
    measured = _measure(run, seconds, expected)
    run.setup_samples.append(measured["server"].setup_s)

    _, nominal = measured["phases"][0]
    limit = KNOBS["latency_limit_s"]
    good = [r for r in nominal if r.ok]
    # With no correct reply (a broken service) report the failed requests'
    # times rather than no number; ``correct`` is false then anyway.
    # Times the service's work sets are in seconds of the reference host
    # (``run.timed``). The makespan is not: the open-loop schedule, which
    # runs on the real clock, sets all of it but the last reply.
    good_latencies = [run.timed(r.due, r.done) for r in good]
    latencies = good_latencies or [run.timed(r.due, r.done) for r in nominal]
    makespan = max(r.done for r in nominal) - nominal[0].due
    # Only the requests the service simulated for count, over their time
    # from ``scheduled`` to the reply (batch window, engine, render).
    executed = [r for r in good if r.executed and r.mark("scheduled") is not None]
    instructions = sum(_executed_instructions(r) for r in executed)
    exec_s = sum(run.timed(r.mark("scheduled"), r.done) for r in executed)
    sustained = max(_throughput(run, records) for _, records in measured["phases"])
    records = [r for _, rs in measured["phases"] for r in rs]
    errors = [r for r in records if not r.answered]
    mismatched = [r for r in records if r.answered and not r.ok]
    unsimulated = [r for r in records if r.kind == "cold" and r.answered and r.executed != 1]
    checks = {
        "hot-set responses text-identical to the local render": not mismatched,
        "every request answered 200 with a result": not errors,
        "every cold request simulated its one job": not unsimulated,
        "service exited cleanly on SIGINT": measured["server"].proc.returncode == 0,
    }
    e2e = {
        "wall_s": (makespan, "s", len(nominal)),
        "sim_minstr_per_s": (
            instructions / exec_s / 1e6 if exec_s else 0.0, "Minstr/s", len(executed)
        ),
        "setup_s": (median(run.setup_samples), "s", len(run.setup_samples)),
        "peak_rss_mb": (measured["server"].peak_rss_mb, "MB", 1),
        "req_p50_ms": (1e3 * median(latencies), "ms", len(good)),
        "req_p99_ms": (1e3 * quantile(latencies, 0.99), "ms", len(good)),
        "goodput_frac": (
            sum(latency <= limit for latency in good_latencies) / len(nominal),
            "ratio", len(nominal),
        ),
        "sustained_rps": (sustained, "req/s", len(records)),
    }
    for rate, rs in measured["phases"]:
        lat = [r.latency for r in rs if r.ok] or [float("nan")]
        print(f"[bench] serve-mix {rate:g} req/s offered, raw host time: "
              f"{sum(r.ok for r in rs) / (max(r.done for r in rs) - rs[0].due):.1f} answered/s "
              f"n={len(rs)} ok={sum(r.ok for r in rs)} "
              f"p50={1e3 * median(lat):.1f} ms p99={1e3 * quantile(lat, 0.99):.1f} ms "
              f"kinds={ {k: sum(r.kind == k for r in rs) for k in ('hot', 'sweep', 'cold')} }")
    outcome = {
        "e2e": e2e,
        "checks": checks,
        "attempted": len(records),
        "failed": len(errors) + len(mismatched) + len(unsimulated),
        "digest": digest("".join(expected[k] for k in sorted(expected))),
        "extra": {"late_p99_ms": measured["late_p99_ms"], "backlog_max": measured["backlog_max"]},
    }
    if run.trace:
        stats_file = run.dir / "serve-stats.json"
        trace_file = common.RESULTS / f"serve-mix-seed{run.seed}.trace.json"
        traced = _measure(run, seconds, expected, (str(stats_file), str(trace_file)))
        stats = json.loads(stats_file.read_text())
        traced_nominal = [run.timed(r.due, r.done) for r in traced["phases"][0][1] if r.ok]
        layers = dict(stats["layers"])
        layers.update(_server_layers(traced))
        layers["cli.import_s"] = stats["import_s"]
        layers["obs.trace_overhead_frac"] = (
            median(traced_nominal) - median(latencies)) / median(latencies)
        for line in stats["table"]:
            print(f"[bench] {line}")
        outcome["layers"] = layers
    return outcome
