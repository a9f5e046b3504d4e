"""Unit tests for the metrics registry (repro.telemetry.registry)."""

import threading

import pytest

from repro.telemetry.registry import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        assert counter.snapshot() == 6

    def test_gauge_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(2.5)
        gauge.dec()
        assert gauge.value == 11.5

    def test_callback_gauge_reads_fn_and_rejects_mutation(self):
        box = {"n": 3}
        gauge = Gauge("g", fn=lambda: box["n"])
        assert gauge.value == 3
        box["n"] = 7
        assert gauge.snapshot() == 7
        with pytest.raises(ValueError):
            gauge.set(1)
        with pytest.raises(ValueError):
            gauge.inc()

    def test_histogram_tracks_count_sum_min_max(self):
        histogram = Histogram("h")
        for value in (1, 10, 100):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == 111
        assert snap["min"] == 1
        assert snap["max"] == 100


class TestHistogramBuckets:
    @pytest.mark.parametrize(
        "value, exponent",
        [
            (1, 0),       # 2^0 bound holds values in (0.5, 1]
            (2, 1),       # exact powers of two belong to their own bound
            (3, 2),
            (4, 2),
            (5, 3),
            (1024, 10),
            (0.75, 0),
            (0.5, -1),
        ],
    )
    def test_bucket_exponent_log2(self, value, exponent):
        assert Histogram.bucket_exponent(value) == exponent

    def test_nonpositive_values_share_the_underflow_bucket(self):
        assert Histogram.bucket_exponent(0) is None
        assert Histogram.bucket_exponent(-4) is None
        histogram = Histogram("h")
        histogram.observe(0)
        histogram.observe(-1)
        assert histogram.buckets() == [(0.0, 2)]

    def test_exponent_clamping_bounds_memory(self):
        assert Histogram.bucket_exponent(1e-300) == Histogram.MIN_EXP
        assert Histogram.bucket_exponent(1e300) == Histogram.MAX_EXP
        histogram = Histogram("h")
        for exponent in range(-500, 500):
            histogram.observe(2.0 ** exponent)
        assert len(histogram.buckets()) <= Histogram.MAX_BUCKETS

    def test_buckets_ascending_with_counts(self):
        histogram = Histogram("h")
        for value in (1, 1, 3, 100):
            histogram.observe(value)
        pairs = histogram.buckets()
        bounds = [bound for bound, _ in pairs]
        assert bounds == sorted(bounds)
        assert sum(count for _, count in pairs) == 4


class TestRegistry:
    def test_instrument_factories_are_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_cross_kind_name_reuse_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_disabled_registry_hands_out_shared_nulls(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a") is NULL_COUNTER
        assert registry.gauge("b") is NULL_GAUGE
        assert registry.histogram("c") is NULL_HISTOGRAM
        # Null mutators are no-ops, not errors.
        NULL_COUNTER.inc()
        NULL_GAUGE.set(9)
        NULL_HISTOGRAM.observe(3)
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.value == 0
        assert NULL_HISTOGRAM.count == 0

    def test_snapshot_groups_by_kind(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(2)
        snap = registry.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1

    def test_concurrent_observations_are_not_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        histogram = registry.histogram("lat")
        threads = [
            threading.Thread(
                target=lambda: [(counter.inc(), histogram.observe(1))
                                for _ in range(1000)]
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 4000
        assert histogram.snapshot()["count"] == 4000
