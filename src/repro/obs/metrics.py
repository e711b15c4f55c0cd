"""The metrics registry: counters, gauges, and fixed-bucket histograms.

One process-wide registry absorbs what used to be ad-hoc telemetry
scattered across the repo — per-stage wall time
(:mod:`repro.util.stagetime` is now a compat shim over counters here),
backend executed/failed counters, store hit/miss/publish tallies, and
per-job latency histograms — behind a single snapshot API:

* :func:`registry` returns the process-wide :class:`MetricsRegistry`;
* ``registry().snapshot()`` is a JSON-serializable view of everything,
  embedded verbatim in run manifests and ``repro cache --json`` output;
* ``delta_since``/``absorb`` turn snapshots into mergeable deltas, which
  is how worker processes (pool and SSH alike) relay their metrics back
  to the coordinator over the execution wire protocol.

Histograms use fixed bucket boundaries (cumulative-free, plain
per-bucket counts) so deltas and cross-process merges are exact;
quantiles are estimated by linear interpolation inside the bucket that
crosses the requested rank — the standard Prometheus-style estimate,
plenty for p50/p99 latency reporting.

Everything here is observability only: metrics never feed results,
cache keys, or control flow.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "ENGINES_PREFIX",
    "JOB_SECONDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "engines_used",
    "format_engines",
    "histogram_quantile",
    "quantiles",
    "record_engine",
    "registry",
    "reset",
]

#: Log-ish spaced latency boundaries in seconds: 1 ms .. 5 min. A job
#: faster than 1 ms lands in the first bucket, slower than 300 s in the
#: overflow bucket.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: The per-job wall-time histogram every backend observes into.
JOB_SECONDS = "job_seconds"


class Counter:
    """A monotonically increasing float total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.add(amount)

    def add(self, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-boundary histogram with count/sum/min/max sidecars.

    ``counts`` has ``len(boundaries) + 1`` slots: observation ``v`` lands
    in the first bucket whose upper boundary satisfies ``v <= bound``,
    or the final overflow bucket.
    """

    __slots__ = ("name", "boundaries", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(b) for b in boundaries)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name!r} boundaries must be strictly increasing, got {boundaries!r}"
            )
        self.name = name
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def snapshot(self) -> dict:
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    def quantile(self, q: float) -> float:
        return histogram_quantile(self.snapshot(), q)


def histogram_quantile(snapshot: dict, q: float) -> float:
    """Estimate the ``q``-quantile (0..1) from a histogram snapshot.

    Linear interpolation inside the bucket that crosses the rank,
    clamped to the observed ``min``/``max`` when tracked — interpolation
    must never report a quantile outside the range of what was actually
    seen. Returns 0.0 for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    boundaries = snapshot.get("boundaries") or []
    counts = snapshot.get("counts") or []
    total = snapshot.get("count") or 0
    if total <= 0 or len(counts) != len(boundaries) + 1:
        return 0.0

    def clamp_observed(value: float) -> float:
        observed_max = snapshot.get("max")
        if observed_max is not None:
            value = min(value, float(observed_max))
        observed_min = snapshot.get("min")
        if observed_min is not None:
            value = max(value, float(observed_min))
        return value

    rank = q * total
    seen = 0
    for index, bucket_count in enumerate(counts):
        if bucket_count <= 0:
            continue
        if seen + bucket_count >= rank:
            lo = boundaries[index - 1] if index > 0 else 0.0
            if index < len(boundaries):
                hi = boundaries[index]
            else:
                observed_max = snapshot.get("max")
                hi = observed_max if observed_max is not None else boundaries[-1]
                hi = max(hi, lo)
            fraction = (rank - seen) / bucket_count
            return clamp_observed(lo + (hi - lo) * min(1.0, max(0.0, fraction)))
        seen += bucket_count
    observed_max = snapshot.get("max")
    return float(observed_max) if observed_max is not None else float(boundaries[-1])


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Thread-safe at the registration level (backends absorb worker deltas
    from shard threads); individual float bumps ride CPython's atomic
    dict/float semantics like the engine's historical counters did.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- instrument accessors (create on first use) --------------------

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self.counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self.gauges.setdefault(name, Gauge(name))
        return instrument

    def histogram(
        self, name: str, boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self.histograms.setdefault(name, Histogram(name, boundaries))
        return instrument

    # -- snapshots and merges ------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-serializable copy of every instrument's current state."""
        with self._lock:
            return {
                "counters": {name: c.value for name, c in self.counters.items()},
                "gauges": {name: g.value for name, g in self.gauges.items()},
                "histograms": {
                    name: h.snapshot() for name, h in self.histograms.items()
                },
            }

    def delta_since(self, before: dict) -> dict:
        """What changed since a :meth:`snapshot` (mergeable via :meth:`absorb`).

        Counters and histogram bucket counts subtract; gauges report
        their current values (last write wins across a merge). Unchanged
        instruments are omitted, so an idle worker relays ``{}``-shaped
        deltas.

        Histogram ``min``/``max`` deliberately do NOT subtract: a delta
        carries the *cumulative* extremes, because "the smallest value
        observed inside the window" is not recoverable from two
        snapshots. The contract is conservative, never wrong: a delta's
        ``min`` is <= every observation in the window and its ``max``
        is >= every one, and :meth:`absorb` merges them with min()/max()
        so absorbed extremes can only widen. Quantile estimates over
        merged deltas (the serve layer's per-request latency reports)
        therefore clamp to a range that always contains the window's
        true extremes — they may be looser than the window, never
        tighter.
        """
        now = self.snapshot()
        delta: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        before_counters = before.get("counters", {})
        for name, value in now["counters"].items():
            gained = value - before_counters.get(name, 0.0)
            if gained > 0.0:
                delta["counters"][name] = gained
        before_gauges = before.get("gauges", {})
        for name, value in now["gauges"].items():
            if name not in before_gauges or before_gauges[name] != value:
                delta["gauges"][name] = value
        before_hists = before.get("histograms", {})
        for name, snap in now["histograms"].items():
            prior = before_hists.get(name)
            if prior is None:
                if snap["count"]:
                    delta["histograms"][name] = snap
                continue
            if snap["count"] == prior.get("count") or snap["boundaries"] != prior.get(
                "boundaries"
            ):
                if snap["boundaries"] != prior.get("boundaries") and snap["count"]:
                    delta["histograms"][name] = snap
                continue
            delta["histograms"][name] = {
                "boundaries": snap["boundaries"],
                "counts": [
                    a - b for a, b in zip(snap["counts"], prior.get("counts", []))
                ],
                "count": snap["count"] - prior.get("count", 0),
                "sum": snap["sum"] - prior.get("sum", 0.0),
                "min": snap["min"],
                "max": snap["max"],
            }
        return delta

    def absorb(self, delta: dict) -> None:
        """Merge a :meth:`delta_since` payload (possibly cross-process)."""
        if not isinstance(delta, dict):
            return
        for name, gained in (delta.get("counters") or {}).items():
            if isinstance(gained, (int, float)) and gained > 0:
                self.counter(name).add(float(gained))
        for name, value in (delta.get("gauges") or {}).items():
            if isinstance(value, (int, float)):
                self.gauge(name).set(float(value))
        for name, snap in (delta.get("histograms") or {}).items():
            if not isinstance(snap, dict):
                continue
            boundaries = snap.get("boundaries") or DEFAULT_LATENCY_BUCKETS
            try:
                instrument = self.histogram(name, boundaries)
            except ValueError:
                continue
            counts = snap.get("counts") or []
            if list(instrument.boundaries) != list(boundaries) or len(counts) != len(
                instrument.counts
            ):
                # Boundary skew across versions: fold the merged mass
                # into count/sum only, never into mismatched buckets.
                counts = []
            for index, bucket_count in enumerate(counts):
                if isinstance(bucket_count, int) and bucket_count > 0:
                    instrument.counts[index] += bucket_count
            instrument.count += int(snap.get("count") or 0)
            instrument.sum += float(snap.get("sum") or 0.0)
            for side, better in (("min", min), ("max", max)):
                value = snap.get(side)
                if isinstance(value, (int, float)):
                    current = getattr(instrument, side)
                    setattr(
                        instrument,
                        side,
                        value if current is None else better(current, value),
                    )

    def remove_prefixed(self, prefix: str) -> None:
        """Drop every instrument whose name starts with ``prefix``."""
        with self._lock:
            for family in (self.counters, self.gauges, self.histograms):
                for name in [n for n in family if n.startswith(prefix)]:
                    del family[name]

    def reset(self) -> None:
        """Drop every instrument (tests, embedding applications)."""
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()


_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry every subsystem reports into."""
    return _registry


def reset() -> None:
    """Clear the process-wide registry (tests, embedding applications)."""
    _registry.reset()


#: Counter namespace recording what actually executed, bumped by the
#: process that simulates: ``engines.kernel.<name>`` counts jobs per
#: pipeline kernel, ``engines.trace.<name>`` traces per walker engine,
#: and ``engines.fallback.<reason>`` each run that fell back to a
#: slower engine. The counters ride the worker metrics relay, so a
#: batch's delta names what its pool or SSH workers ran.
ENGINES_PREFIX = "engines."
_ENGINE_FIELDS = {"kernel": "kernels", "trace": "trace_engines"}


def record_engine(kind: str, name: str, fallback: Optional[str] = None) -> None:
    """Count one use of engine ``name`` (``kind`` is kernel or trace)."""
    _registry.counter(f"{ENGINES_PREFIX}{kind}.{name}").inc()
    if fallback is not None:
        _registry.counter(f"{ENGINES_PREFIX}fallback.{fallback}").inc()


def engines_used(counters: Dict[str, float]) -> dict:
    """``{"kernels", "trace_engines", "fallbacks"}`` from counter values.

    ``counters`` is a snapshot's or a delta's ``counters`` map; the
    result holds per-engine integer counts and the sorted distinct
    fallback reasons.
    """
    used: dict = {field: {} for field in _ENGINE_FIELDS.values()}
    used["fallbacks"] = []
    for name, value in sorted(counters.items()):
        if not name.startswith(ENGINES_PREFIX):
            continue
        kind, _, engine = name[len(ENGINES_PREFIX) :].partition(".")
        if kind == "fallback":
            used["fallbacks"].append(engine)
        elif kind in _ENGINE_FIELDS:
            used[_ENGINE_FIELDS[kind]][engine] = int(value)
    return used


def format_engines(kernels: Dict[str, int], trace_engines: Dict[str, int]) -> str:
    """``kernel batch=9 trace c=9``: the engine counts, one line's worth."""

    def counts(values: Dict[str, int]) -> str:
        return " ".join(f"{k}={v}" for k, v in sorted(values.items())) or "-"

    return f"kernel {counts(kernels)} trace {counts(trace_engines)}"


def quantiles(
    snapshot: dict, qs: Iterable[float] = (0.5, 0.9, 0.99)
) -> Dict[str, float]:
    """``{"p50": ..., "p90": ..., "p99": ...}`` from a histogram snapshot."""
    out: Dict[str, float] = {}
    for q in qs:
        label = f"p{q * 100:g}"
        out[label] = histogram_quantile(snapshot, q)
    return out
