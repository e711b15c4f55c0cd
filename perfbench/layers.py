"""Per-layer instrumentation for the traced benchmark runs.

:func:`install` wraps the public calls into each layer of the program in
:mod:`repro.obs.tracer` spans named ``<layer>:<call>`` and counts the
work they do. The program's own spans (``cli.*``, ``engine.run_jobs``,
``backend.submit``, ``worker.job``, ``stage.*``) land in the same buffer
and are mapped onto the same layers. :func:`analyze` turns the buffered
spans into per-layer self times: a span's self time is its duration minus
the part of it its child spans cover, so the self times of every span
plus the self time of the root (reported as ``unattributed``) add up to
the traced wall time.

Nothing here runs in the untraced runs: end-to-end numbers are taken
with no wrapper installed.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: The program's own span names (by prefix) and the layer each belongs to.
PROGRAM_SPANS = (
    ("cli.", "cli"),
    ("engine.", "exec.engine"),
    ("backend.", "exec.backends"),
    ("worker.", "exec.backends"),
    ("stage.generate", "cpu.workloads"),
    ("stage.", "cpu.kernel"),
)

#: Layer of the benchmark's own root spans: their self time is the part
#: of a pass no layer span covers.
ROOT_LAYER = "unattributed"


def layer_of(name: str) -> str:
    if ":" in name:
        return name.split(":", 1)[0]
    for prefix, layer in PROGRAM_SPANS:
        if name.startswith(prefix):
            return layer
    return "other"


class Counts:
    """Work counters filled by the wrappers (thread-safe increments)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.values: Dict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.values[name] += amount


def _patch_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind ``original`` in every loaded ``repro`` module namespace."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _spanned(tracer, span_name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(span_name, category="bench"):
            return fn(*args, **kwargs)

    return wrapper


class _Depth(threading.local):
    value = 0


def install(counts: Counts) -> None:
    """Wrap every layer's public calls; call once, after configuring the store."""
    import repro.serve.schema  # noqa: F401  (loaded so its imports get patched)
    from repro.cpu import kernel, pipeline, simulator, workloads
    from repro.exec import cache as result_cache
    from repro.exec import engine
    from repro.exec.jobs import SimulationJob
    from repro.experiments import (
        ablations,
        common,
        figure3,
        figure4,
        figure5,
        figure7,
        figure8,
        figure9,
        perf_impact,
        robustness,
        sweep,
        table1,
        table3,
    )
    from repro.obs import tracer

    for module in (
        table1, figure3, figure4, figure5, table3, figure7, figure8, figure9,
        perf_impact, robustness, sweep,
    ):
        for call in ("run", "render"):
            original = getattr(module, call)
            _patch_everywhere(original, _spanned(tracer, f"experiments:{call}", original))
    _patch_everywhere(
        ablations.render_all,
        _spanned(tracer, "experiments:render", ablations.render_all),
    )
    _patch_everywhere(
        sweep.evaluate_grid,
        _spanned(tracer, "experiments:evaluate", sweep.evaluate_grid),
    )
    data_cls = common.BenchmarkEnergyData
    data_cls.evaluate_policy_breakdowns = _spanned(
        tracer, "experiments:evaluate", data_cls.evaluate_policy_breakdowns
    )

    _patch_everywhere(
        engine.run_jobs, _spanned(tracer, "exec.engine:run_jobs", engine.run_jobs)
    )

    cache_key = SimulationJob.cache_key

    @functools.wraps(cache_key)
    def counted_cache_key(self):
        counts.add("exec.hashing.cache_keys")
        with tracer.span("exec.hashing:cache_key", category="bench"):
            return cache_key(self)

    SimulationJob.cache_key = counted_cache_key

    store_key = simulator.simulation_key

    @functools.wraps(store_key)
    def counted_store_key(*args, **kwargs):
        counts.add("exec.hashing.store_keys")
        with tracer.span("exec.hashing:store_key", category="bench"):
            return store_key(*args, **kwargs)

    simulator.simulation_key = counted_store_key

    store = result_cache.active()
    if store is not None:
        get, put = store.get, store.put

        def counted_get(key):
            counts.add("exec.store.gets")
            with tracer.span("exec.store:get", category="bench"):
                value = get(key)
            if value is not None:
                counts.add("exec.store.get_hits")
            return value

        def counted_put(key, value):
            counts.add("exec.store.puts")
            with tracer.span("exec.store:put", category="bench"):
                put(key, value)

        store.get, store.put = counted_get, counted_put

    cached_result = simulator.cached_result

    @functools.wraps(cached_result)
    def counted_cached_result(*args, **kwargs):
        gets = counts.values["exec.store.gets"]
        with tracer.span("cpu.simulator:cached_result", category="bench"):
            hit = cached_result(*args, **kwargs)
        if hit is not None and counts.values["exec.store.gets"] == gets:
            counts.add("cpu.simulator.memo_hits")
        return hit

    _patch_everywhere(cached_result, counted_cached_result)
    simulator.Simulator.run = _spanned(
        tracer, "cpu.simulator:run", simulator.Simulator.run
    )
    pipeline.Pipeline.run = _spanned(tracer, "cpu.kernel:walk", pipeline.Pipeline.run)
    kernel.BatchPipeline.run = _spanned(
        tracer, "cpu.kernel:batch", kernel.BatchPipeline.run
    )

    # Trace generation: count the traces the simulator asks for (not the
    # member traces a phased profile builds internally) and the chunks
    # streamed out of them. Generation time is the program's own
    # ``stage.generate`` spans.
    depth = _Depth()

    def counted_chunks(chunks):
        iterator = iter(chunks)
        while True:
            depth.value += 1
            try:
                chunk = next(iterator)
            except StopIteration:
                return
            finally:
                depth.value -= 1
            counts.add("cpu.stream.chunks")
            yield chunk

    def trace_wrapper(original, streamed):
        @functools.wraps(original)
        def wrapper(profile, num_instructions, *args, **kwargs):
            if depth.value:
                return original(profile, num_instructions, *args, **kwargs)
            counts.add("cpu.workloads.traces")
            counts.add("cpu.workloads.instructions", num_instructions)
            depth.value += 1
            try:
                made = original(profile, num_instructions, *args, **kwargs)
            finally:
                depth.value -= 1
            return counted_chunks(made) if streamed else made

        return wrapper

    _patch_everywhere(workloads.iter_trace, trace_wrapper(workloads.iter_trace, True))
    _patch_everywhere(
        workloads.generate_trace, trace_wrapper(workloads.generate_trace, False)
    )


# -- span analysis -------------------------------------------------------------


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def analyze(events: List[dict], root_prefix: str = "bench:") -> dict:
    """Per-layer self/inclusive times and per-level coverage of a trace.

    Only trees under root spans whose name starts with ``root_prefix``
    count. Returns ``{"wall_s", "layers": {layer: {"calls", "incl_s",
    "self_s"}}, "levels": [{"level", "spans", "covered_s", "self_s"}],
    "names": {span name: [durations]}}``; the root layer's self time is
    reported as ``unattributed``.
    """
    spans = [e for e in events if e.get("ph") == "X"]
    by_key = {}
    for event in spans:
        by_key[(event.get("pid"), event["args"].get("span_id"))] = event
    children: Dict[tuple, List[dict]] = defaultdict(list)
    roots = []
    for event in spans:
        parent = (event.get("pid"), event["args"].get("parent_id"))
        if event["name"].startswith(root_prefix):
            # A root even inside an enclosing span (a served request runs
            # under the service's whole-lifetime ``cli.serve`` span).
            roots.append(event)
        elif parent in by_key:
            children[parent].append(event)

    layers: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
    )
    levels: Dict[int, Dict[str, float]] = defaultdict(
        lambda: {"spans": 0, "covered_s": 0.0, "self_s": 0.0}
    )
    names: Dict[str, List[float]] = defaultdict(list)
    wall = 0.0
    stack = [(root, 0, None) for root in roots]
    while stack:
        event, level, parent_layer = stack.pop()
        key = (event.get("pid"), event["args"].get("span_id"))
        start = event["ts"] / 1e6
        duration = event["dur"] / 1e6
        kids = children.get(key, [])
        covered = _covered(
            [(k["ts"] / 1e6, (k["ts"] + k["dur"]) / 1e6) for k in kids],
            start,
            start + duration,
        )
        layer = ROOT_LAYER if level == 0 else layer_of(event["name"])
        if level == 0:
            wall += duration
        row = layers[layer]
        row["calls"] += 1
        if layer != parent_layer:
            row["incl_s"] += duration
        row["self_s"] += duration - covered
        levels[level]["spans"] += 1
        levels[level]["covered_s"] += duration
        levels[level]["self_s"] += duration - covered
        names[event["name"]].append(duration)
        for kid in kids:
            stack.append((kid, level + 1, layer))
    return {
        "wall_s": wall,
        "layers": {k: dict(v) for k, v in layers.items()},
        "levels": [dict(levels[k], level=k) for k in sorted(levels)],
        "names": dict(names),
    }


def outermost_total(events: List[dict], name: str) -> float:
    """Summed duration of ``name`` spans not nested inside another ``name`` span."""
    spans = [e for e in events if e.get("ph") == "X"]
    by_key = {(e.get("pid"), e["args"].get("span_id")): e for e in spans}
    total = 0.0
    for event in spans:
        if event["name"] != name:
            continue
        parent = by_key.get((event.get("pid"), event["args"].get("parent_id")))
        nested = False
        while parent is not None:
            if parent["name"] == name:
                nested = True
                break
            parent = by_key.get((parent.get("pid"), parent["args"].get("parent_id")))
        if not nested:
            total += event["dur"] / 1e6
    return total


def format_table(analysis: dict) -> List[str]:
    """The per-layer table and per-level lines, for stderr."""
    wall = analysis["wall_s"] or 1e-12
    lines = [f"{'layer':<16} {'calls':>8} {'incl_s':>10} {'self_s':>10} {'self%':>7}"]
    rows = sorted(
        analysis["layers"].items(),
        key=lambda item: (item[0] == ROOT_LAYER, -item[1]["self_s"]),
    )
    total_self = 0.0
    for layer, row in rows:
        total_self += row["self_s"]
        lines.append(
            f"{layer:<16} {int(row['calls']):>8} {row['incl_s']:>10.4f} "
            f"{row['self_s']:>10.4f} {100 * row['self_s'] / wall:>6.1f}%"
        )
    lines.append(f"{'sum of self':<16} {'':>8} {'':>10} {total_self:>10.4f} "
                 f"{100 * total_self / wall:>6.1f}%  (traced wall {wall:.4f}s)")
    for level in analysis["levels"]:
        lines.append(
            f"level {level['level']}: {int(level['spans'])} spans cover "
            f"{level['covered_s']:.4f}s, of which {level['self_s']:.4f}s is "
            f"not covered by level {level['level'] + 1}"
            + (" (unattributed)" if level["level"] == 0 else "")
        )
    return lines


def telemetry_totals() -> Dict[str, int]:
    """``engine.telemetry()`` summed over backends."""
    from repro.exec import engine

    totals = dict.fromkeys(
        ("submitted", "unique", "cache_hits", "cache_misses", "executed", "failed"), 0
    )
    for report in engine.telemetry().values():
        for name in totals:
            totals[name] += getattr(report, name)
    return totals


def _durations(analysis: dict, name: str) -> List[float]:
    return analysis["names"].get(name, [])


def layer_metrics(
    events: List[dict],
    analysis: dict,
    counts: Dict[str, float],
    telemetry: Dict[str, int],
    stages: Dict[str, float],
    overhead: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, keyed by metric name."""
    from common import quantile

    layers = analysis["layers"]

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0)

    jobs = _durations(analysis, "worker.job")
    sim_s = stages.get("kernel", 0.0)
    unique = telemetry.get("unique", 0)
    return {
        "experiments.evaluate_s": outermost_total(events, "experiments:evaluate"),
        "experiments.run_s": outermost_total(events, "experiments:run"),
        "experiments.render_s": outermost_total(events, "experiments:render"),
        "experiments.self_s": self_s("experiments"),
        "exec.engine.batches": len(_durations(analysis, "engine.run_jobs")),
        "exec.engine.submitted": telemetry.get("submitted", 0),
        "exec.engine.unique": unique,
        "exec.engine.cache_hits": telemetry.get("cache_hits", 0),
        "exec.engine.executed": telemetry.get("executed", 0),
        "exec.engine.failed": telemetry.get("failed", 0),
        "exec.engine.hit_ratio": telemetry.get("cache_hits", 0) / unique if unique else 0.0,
        "exec.engine.self_s": self_s("exec.engine"),
        "exec.hashing.cache_keys": counts.get("exec.hashing.cache_keys", 0),
        "exec.hashing.store_keys": counts.get("exec.hashing.store_keys", 0),
        "exec.hashing.cache_key_s": sum(_durations(analysis, "exec.hashing:cache_key")),
        "exec.hashing.self_s": self_s("exec.hashing"),
        "exec.store.gets": counts.get("exec.store.gets", 0),
        "exec.store.get_hits": counts.get("exec.store.get_hits", 0),
        "exec.store.get_s": sum(_durations(analysis, "exec.store:get")),
        "exec.store.puts": counts.get("exec.store.puts", 0),
        "exec.store.put_s": sum(_durations(analysis, "exec.store:put")),
        "exec.backends.submit_s": sum(_durations(analysis, "backend.submit")),
        "exec.backends.jobs": len(jobs),
        "exec.backends.job_p50_s": quantile(jobs, 0.5) if jobs else 0.0,
        "exec.backends.job_p99_s": quantile(jobs, 0.99) if jobs else 0.0,
        "cpu.workloads.traces": counts.get("cpu.workloads.traces", 0),
        "cpu.workloads.instructions": counts.get("cpu.workloads.instructions", 0),
        "cpu.workloads.generate_s": stages.get("generate", 0.0),
        "cpu.sim_s": sim_s,
        "cpu.sim_minstr_per_s": (
            counts.get("cpu.workloads.instructions", 0) / sim_s / 1e6 if sim_s else 0.0
        ),
        "cpu.decode_s": stages.get("decode", 0.0),
        "cpu.pricing_s": stages.get("pricing", 0.0),
        "cpu.kernel.self_s": self_s("cpu.kernel"),
        "cpu.stream.chunks": counts.get("cpu.stream.chunks", 0),
        "cpu.simulator.memo_hits": counts.get("cpu.simulator.memo_hits", 0),
        "bench.unattributed_s": self_s(ROOT_LAYER),
        "obs.trace_overhead_frac": overhead,
    }
