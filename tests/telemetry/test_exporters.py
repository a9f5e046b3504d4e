"""JSON / Prometheus exporters over live ``fs.stats()`` snapshots."""

import json

import pytest

from repro.core.filesystem import HFADFileSystem
from repro.telemetry import prometheus_text, stats_to_json, to_jsonable
from repro.telemetry.registry import MetricsRegistry


@pytest.fixture()
def fs():
    with HFADFileSystem() as fs:
        for index in range(20):
            fs.create(
                content=b"alpha beta gamma",
                owner="margo" if index % 2 else "keith",
                application="mail",
            )
        fs.query("USER/margo AND FULLTEXT/alpha")
        fs.rank("alpha beta", limit=5)
        yield fs


class TestJson:
    def test_stats_round_trip_through_json(self, fs):
        decoded = json.loads(stats_to_json(fs.stats()))
        assert decoded["objects"]["objects_created"] == 20
        assert decoded["naming"]["queries"] >= 1
        assert decoded["telemetry"]["histograms"]["query.latency_us"]["count"] >= 1
        # Everything survived serialization — no repr-escaped object leaked
        # into a *numeric* position.
        assert isinstance(decoded["keyvalue_entries_scanned"], int)

    def test_to_jsonable_handles_sets_tuples_and_opaque(self):
        class Opaque:
            def __str__(self):
                return "<op>"

        value = {"s": {3, 1, 2}, "t": (1, "x"), "o": Opaque(), "n": None}
        assert to_jsonable(value) == {
            "s": [1, 2, 3], "t": [1, "x"], "o": "<op>", "n": None,
        }


class TestPrometheus:
    def test_stats_expose_expected_series(self, fs):
        text = prometheus_text(fs.stats())
        assert "hfad_objects_objects_created 20" in text
        assert "hfad_naming_queries" in text
        assert "hfad_keyvalue_entries_scanned" in text
        # Booleans become 0/1 samples, strings are dropped entirely: the
        # recovery layer's {"mode": "wal"} must not surface as a
        # (non-numeric) sample.
        assert 'device' in text
        assert "hfad_recovery_mode" not in text
        assert "hfad_recovery_last_lsn" in text

    def test_histograms_emit_cumulative_buckets(self, fs):
        text = prometheus_text(fs.stats())
        assert "# TYPE hfad_telemetry_histograms_query_latency_us histogram" in text
        assert 'hfad_telemetry_histograms_query_latency_us_bucket{le="+Inf"}' in text
        assert "hfad_telemetry_histograms_query_latency_us_count" in text
        assert "hfad_telemetry_histograms_query_latency_us_sum" in text

    def test_bucket_counts_are_cumulative_and_end_at_total(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        for value in (1, 2, 2, 700):
            histogram.observe(value)
        text = prometheus_text(registry.snapshot(), namespace="t")
        lines = [line for line in text.splitlines()
                 if line.startswith("t_histograms_lat_bucket")]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)          # cumulative, monotone
        assert counts[-1] == 4                   # +Inf bucket is the total
        assert 't_histograms_lat_bucket{le="+Inf"} 4' in lines[-1]

    def test_metric_names_are_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("query.latency-us/total").inc(7)
        text = prometheus_text(registry.snapshot(), namespace="x")
        assert "x_counters_query_latency_us_total 7" in text


class TestPrometheusConformance:
    """Structural conformance: every sample is preceded by its # TYPE line,
    registry sections type their members, and # HELP comes from the
    instrument descriptions (``registry.describe()``)."""

    @staticmethod
    def _typed_samples(text):
        """Map sample name -> declared type, asserting the TYPE line for a
        sample family appears before any of its samples."""
        declared = {}
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ")
                declared[name] = kind
            elif line.startswith("# HELP ") or not line:
                continue
            else:
                name = line.split(" ", 1)[0].split("{", 1)[0]
                family = name
                for suffix in ("_bucket", "_sum", "_count"):
                    if name.endswith(suffix) and name[: -len(suffix)] in declared:
                        family = name[: -len(suffix)]
                        break
                assert family in declared, f"sample {name} has no # TYPE line"
        return declared

    def test_every_sample_is_typed(self, fs):
        text = prometheus_text(fs.stats(), registry=fs.telemetry.metrics)
        declared = self._typed_samples(text)
        assert declared["hfad_object_count"] == "gauge"
        assert declared["hfad_telemetry_gauges_health_status"] == "gauge"
        assert (declared["hfad_telemetry_histograms_query_latency_us"]
                == "histogram")
        assert set(declared.values()) <= {"counter", "gauge", "histogram"}

    def test_registry_sections_type_their_members(self):
        registry = MetricsRegistry()
        registry.counter("ops.total", "operations executed").inc(3)
        registry.gauge("depth", "queue depth", fn=lambda: 2.0)
        declared = self._typed_samples(
            prometheus_text(registry.snapshot(), namespace="c",
                            registry=registry))
        assert declared["c_counters_ops_total"] == "counter"
        assert declared["c_gauges_depth"] == "gauge"

    def test_help_lines_come_from_instrument_descriptions(self, fs):
        text = prometheus_text(fs.stats(), registry=fs.telemetry.metrics)
        described = fs.telemetry.metrics.describe()
        helps = {}
        for line in text.splitlines():
            if line.startswith("# HELP "):
                _, _, name, help_text = line.split(" ", 3)
                helps[name] = help_text
        assert helps, "registry-backed export must carry # HELP lines"
        kind, help_text = described["health.status"]
        assert helps["hfad_telemetry_gauges_health_status"] == help_text
        # Every emitted HELP text matches some described instrument.
        known = {entry[1] for entry in described.values()}
        assert set(helps.values()) <= known

    def test_undescribed_instruments_get_no_help_line(self):
        registry = MetricsRegistry()
        registry.counter("bare").inc(1)     # no help text supplied
        text = prometheus_text(registry.snapshot(), namespace="n",
                               registry=registry)
        assert "# HELP" not in text
        assert "n_counters_bare 1" in text
