"""The metrics registry: instruments, quantiles, deltas, and merges."""

import pytest

from repro.obs import metrics
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    JOB_SECONDS,
    Histogram,
    MetricsRegistry,
    histogram_quantile,
)


class TestCounter:
    def test_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("c").add(2.0)
        registry.counter("c").inc()
        assert registry.counter("c").value == 3.0

    def test_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").add(-1.0)

    def test_same_instrument_returned(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")


class TestGauge:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(5)
        registry.gauge("g").set(2.5)
        assert registry.gauge("g").value == 2.5


class TestHistogram:
    def test_bucket_placement(self):
        h = Histogram("h", boundaries=(1.0, 2.0, 3.0))
        for value in (0.5, 1.0, 1.5, 2.5, 99.0):
            h.observe(value)
        # v <= bound lands at that bound's bucket; 99 overflows.
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.min == 0.5
        assert h.max == 99.0

    def test_rejects_unsorted_boundaries(self):
        with pytest.raises(ValueError):
            Histogram("h", boundaries=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", boundaries=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", boundaries=())

    def test_snapshot_is_json_ready(self):
        h = Histogram("h", boundaries=(1.0,))
        h.observe(0.5)
        snap = h.snapshot()
        assert snap == {
            "boundaries": [1.0],
            "counts": [1, 0],
            "count": 1,
            "sum": 0.5,
            "min": 0.5,
            "max": 0.5,
        }


class TestHistogramQuantile:
    def test_empty_histogram_is_zero(self):
        assert histogram_quantile(Histogram("h").snapshot(), 0.5) == 0.0

    def test_interpolates_within_bucket(self):
        h = Histogram("h", boundaries=(10.0, 20.0))
        for _ in range(10):
            h.observe(15.0)  # all mass in the (10, 20] bucket
        q50 = h.quantile(0.5)
        assert 10.0 < q50 <= 20.0

    def test_monotone_in_q(self):
        h = Histogram("h")
        for value in (0.002, 0.02, 0.2, 2.0, 20.0):
            h.observe(value)
        marks = [h.quantile(q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert marks == sorted(marks)

    def test_overflow_bucket_clamps_to_observed_max(self):
        h = Histogram("h", boundaries=(1.0,))
        h.observe(500.0)
        assert h.quantile(0.99) <= 500.0
        assert h.quantile(0.99) >= 1.0

    def test_clamped_to_observed_range(self):
        # Interpolation inside a wide bucket must not report a quantile
        # beyond what was actually seen: one slow outlier in the
        # (0.1, 0.25] bucket must not drag p99 past its true value.
        h = Histogram("h", boundaries=(0.05, 0.1, 0.25))
        for _ in range(30):
            h.observe(0.07)
        h.observe(0.102)
        assert h.quantile(0.99) <= 0.102
        assert h.quantile(0.01) >= 0.07

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            histogram_quantile(Histogram("h").snapshot(), 1.5)

    def test_quantiles_helper_labels(self):
        h = Histogram("h")
        h.observe(0.05)
        marks = metrics.quantiles(h.snapshot())
        assert set(marks) == {"p50", "p90", "p99"}


class TestSnapshotDeltaAbsorb:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").add(1.0)
        registry.gauge("g").set(2.0)
        registry.histogram("h").observe(0.5)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 1.0}
        assert snap["gauges"] == {"g": 2.0}
        assert snap["histograms"]["h"]["count"] == 1

    def test_delta_since_reports_only_changes(self):
        registry = MetricsRegistry()
        registry.counter("stable").add(5.0)
        registry.histogram("h").observe(1.0)
        before = registry.snapshot()
        registry.counter("grew").add(2.0)
        registry.histogram("h").observe(3.0)
        delta = registry.delta_since(before)
        assert delta["counters"] == {"grew": 2.0}
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["sum"] == 3.0
        assert "stable" not in delta["counters"]

    def test_idle_delta_is_empty(self):
        registry = MetricsRegistry()
        registry.counter("c").add(1.0)
        before = registry.snapshot()
        delta = registry.delta_since(before)
        assert delta == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_absorb_round_trip(self):
        # worker-side: accrue, delta; coordinator-side: absorb — totals
        # must match as if the work happened locally.
        worker = MetricsRegistry()
        before = worker.snapshot()
        worker.counter("stage_seconds.kernel").add(1.5)
        worker.histogram(JOB_SECONDS).observe(0.2)
        worker.histogram(JOB_SECONDS).observe(0.4)
        delta = worker.delta_since(before)

        coordinator = MetricsRegistry()
        coordinator.histogram(JOB_SECONDS).observe(0.1)
        coordinator.absorb(delta)
        assert coordinator.counter("stage_seconds.kernel").value == 1.5
        merged = coordinator.histogram(JOB_SECONDS)
        assert merged.count == 3
        assert merged.sum == pytest.approx(0.7)
        assert merged.min == 0.1
        assert merged.max == 0.4

    def test_absorb_survives_malformed_payloads(self):
        registry = MetricsRegistry()
        registry.absorb("garbage")
        registry.absorb({"counters": {"c": "NaN-ish"}, "histograms": {"h": 7}})
        assert registry.counters == {}

    def test_absorb_boundary_skew_folds_into_totals(self):
        registry = MetricsRegistry()
        registry.histogram("h", boundaries=(1.0, 2.0)).observe(0.5)
        registry.absorb(
            {
                "histograms": {
                    "h": {
                        "boundaries": [5.0],
                        "counts": [3, 0],
                        "count": 3,
                        "sum": 9.0,
                        "min": 3.0,
                        "max": 3.0,
                    }
                }
            }
        )
        h = registry.histogram("h")
        assert h.count == 4  # total mass merged
        assert h.sum == pytest.approx(9.5)
        assert sum(h.counts) == 1  # mismatched buckets untouched

    def test_delta_min_max_are_cumulative_not_windowed(self):
        """The documented merge contract: a histogram delta carries the
        *cumulative* min/max (the window's own extremes are not
        recoverable from two snapshots), so they bound every windowed
        observation conservatively."""
        registry = MetricsRegistry()
        registry.histogram("h").observe(0.001)
        registry.histogram("h").observe(10.0)
        before = registry.snapshot()
        registry.histogram("h").observe(0.5)  # the window's only value
        delta = registry.delta_since(before)["histograms"]["h"]
        assert delta["count"] == 1 and delta["sum"] == pytest.approx(0.5)
        # Cumulative extremes, not 0.5/0.5 — conservative bounds.
        assert delta["min"] == 0.001
        assert delta["max"] == 10.0

    def test_absorbed_min_max_stay_conservative(self):
        """Absorbing a cumulative-extreme delta can only widen the
        target's min/max, never tighten them — the quantile clamp the
        serve-layer latency reports rely on."""
        target = MetricsRegistry()
        target.histogram(JOB_SECONDS).observe(0.2)
        source = MetricsRegistry()
        source.histogram(JOB_SECONDS).observe(0.05)
        source.histogram(JOB_SECONDS).observe(7.0)
        before = source.snapshot()
        source.histogram(JOB_SECONDS).observe(0.3)
        target.absorb(source.delta_since(before))
        merged = target.histogram(JOB_SECONDS)
        # Widened to the absorbed cumulative extremes: every windowed
        # observation (0.3) and every local one (0.2) lies inside.
        assert merged.min == 0.05
        assert merged.max == 7.0
        assert merged.count == 2

    def test_windowed_quantiles_clamp_inside_absorbed_extremes(self):
        """Quantiles over a merged delta land within [min, max] even
        when those extremes are absorbed cumulative values."""
        target = MetricsRegistry()
        source = MetricsRegistry()
        source.histogram(JOB_SECONDS).observe(0.004)
        before = source.snapshot()
        for value in (0.02, 0.03, 0.04):
            source.histogram(JOB_SECONDS).observe(value)
        target.absorb(source.delta_since(before))
        snap = target.histogram(JOB_SECONDS).snapshot()
        for q in (0.5, 0.9, 0.99):
            estimate = histogram_quantile(snap, q)
            assert snap["min"] <= estimate <= snap["max"]

    def test_delta_ships_whole_histogram_when_new(self):
        registry = MetricsRegistry()
        before = registry.snapshot()
        registry.histogram("h").observe(1.0)
        delta = registry.delta_since(before)
        assert delta["histograms"]["h"]["count"] == 1

    def test_remove_prefixed(self):
        registry = MetricsRegistry()
        registry.counter("stage_seconds.kernel").add(1.0)
        registry.counter("other").add(1.0)
        registry.remove_prefixed("stage_seconds.")
        assert list(registry.counters) == ["other"]


class TestModuleRegistry:
    def test_registry_is_process_wide(self):
        assert metrics.registry() is metrics.registry()

    def test_default_latency_buckets_strictly_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(set(DEFAULT_LATENCY_BUCKETS))


class TestStagetimeReHome:
    """stagetime is now a compat shim over the registry's counters."""

    def test_add_lands_in_registry(self):
        from repro.util import stagetime

        stagetime.reset()
        try:
            stagetime.add("kernel", 2.0)
            assert (
                metrics.registry().counter("stage_seconds.kernel").value == 2.0
            )
            assert stagetime.totals() == {"kernel": 2.0}
        finally:
            stagetime.reset()

    def test_registry_absorb_feeds_stage_totals(self):
        # The SSH relay path: a worker's metrics delta carries its
        # stage counters; absorbing it updates stagetime.totals().
        from repro.util import stagetime

        stagetime.reset()
        try:
            metrics.registry().absorb(
                {"counters": {"stage_seconds.generate": 0.75}}
            )
            assert stagetime.totals() == {"generate": 0.75}
        finally:
            stagetime.reset()

    def test_reset_only_clears_stage_counters(self):
        from repro.util import stagetime

        metrics.registry().counter("unrelated.counter").add(1.0)
        stagetime.add("kernel", 1.0)
        stagetime.reset()
        assert stagetime.totals() == {}
        assert metrics.registry().counter("unrelated.counter").value == 1.0
        metrics.registry().remove_prefixed("unrelated.")

    def test_timed_emits_span_when_tracing(self):
        from repro.obs import tracer
        from repro.util import stagetime

        tracer.reset()
        tracer.enable(True)
        try:
            with stagetime.timed("kernel"):
                pass
            names = [e["name"] for e in tracer.events()]
            assert "stage.kernel" in names
        finally:
            tracer.enable(False)
            tracer.reset()
            stagetime.reset()


class TestEngineCounters:
    def test_recorded_engines_read_back_from_a_delta(self):
        from repro.obs.metrics import engines_used, format_engines, record_engine

        before = metrics.registry().snapshot()
        record_engine("kernel", "walk", "batch kernel unavailable: no cc")
        record_engine("kernel", "walk", "batch kernel unavailable: no cc")
        record_engine("trace", "c")
        used = engines_used(metrics.registry().delta_since(before)["counters"])
        assert used == {
            "kernels": {"walk": 2},
            "trace_engines": {"c": 1},
            "fallbacks": ["batch kernel unavailable: no cc"],
        }
        assert format_engines(used["kernels"], used["trace_engines"]) == (
            "kernel walk=2 trace c=1"
        )
        assert format_engines({}, {}) == "kernel - trace -"
