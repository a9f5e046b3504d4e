"""The workload observatory: per-operation attribution, lock timing,
slow-query capture, windowed history and the health surface.

The centerpiece is the *differential* suite: for every user-facing
operation the attribution record must equal the deltas of the component
counters (buffer pool hits/misses, journal bytes/syncs) across exactly
that operation — proving the contextvar scope covers the whole operation
and nothing outside it, in both WAL and in-memory configurations.
"""

import threading
import time

import pytest

from repro.core.filesystem import HFADFileSystem
from repro.telemetry import (
    AttributionLedger,
    MetricsHistory,
    SlowQueryLog,
    TimedLock,
    current_operation,
)
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracing import QueryTracer


@pytest.fixture()
def wal_fs():
    with HFADFileSystem(num_blocks=1 << 16, btree_on_device=True,
                        query_cache_entries=0) as fs:
        yield fs


@pytest.fixture()
def mem_fs():
    with HFADFileSystem(query_cache_entries=0) as fs:
        yield fs


def _component_counters(fs):
    pool = fs.buffer_pool
    journal = fs.recovery.journal if fs.recovery is not None else None
    return {
        "cache_hits": pool.stats.hits if pool is not None else 0,
        "cache_misses": pool.stats.misses if pool is not None else 0,
        "wal_bytes": journal.bytes_appended if journal is not None else 0,
        "wal_syncs": journal.syncs if journal is not None else 0,
    }


def _run_attributed(fs, fn):
    """Run ``fn`` and return (operation record, component counter deltas)."""
    before = _component_counters(fs)
    fn()
    after = _component_counters(fs)
    op = fs.operations(1)[0]
    deltas = {key: after[key] - before[key] for key in before}
    return op, deltas


class TestDifferentialExactness:
    """Per-operation totals == component counter deltas, single-threaded."""

    def test_wal_create_attribution_matches_component_deltas(self, wal_fs):
        op, deltas = _run_attributed(
            wal_fs,
            lambda: wal_fs.create(content=b"alpha beta gamma", owner="margo",
                                  path="/home/margo/a.txt"),
        )
        assert op["kind"] == "create"
        for key in ("cache_hits", "cache_misses", "wal_bytes", "wal_syncs"):
            assert op[key] == deltas[key], (key, op, deltas)
        # A durable create really wrote and synced the journal.
        assert op["wal_bytes"] > 0
        assert op["wal_records"] > 0
        assert op["wal_syncs"] > 0

    def test_wal_query_attribution_matches_component_deltas(self, wal_fs):
        for index in range(12):
            wal_fs.create(content=b"alpha beta gamma",
                          owner="margo" if index % 2 else "keith")
        op, deltas = _run_attributed(
            wal_fs, lambda: wal_fs.query("USER/margo AND FULLTEXT/alpha"))
        assert op["kind"] == "query"
        for key in ("cache_hits", "cache_misses", "wal_bytes", "wal_syncs"):
            assert op[key] == deltas[key], (key, op, deltas)
        # Read-only: a query appends nothing to the journal.
        assert op["wal_bytes"] == 0 and op["wal_syncs"] == 0

    def test_dropped_cache_query_pays_real_page_reads(self, wal_fs):
        for _ in range(12):
            wal_fs.create(content=b"alpha beta gamma", owner="margo")
        wal_fs.checkpoint()
        for consumer in wal_fs.buffer_pool._consumers.values():
            consumer.drop_all()
        op, deltas = _run_attributed(
            wal_fs, lambda: wal_fs.query("FULLTEXT/alpha"))
        assert op["pages_read"] > 0          # device page-ins, not cache hits
        assert op["cache_misses"] == deltas["cache_misses"]
        assert op["cache_misses"] >= op["pages_read"]

    def test_wal_checkpoint_and_scrub_are_attributed(self, wal_fs):
        for _ in range(6):
            wal_fs.create(content=b"alpha beta", owner="nick")
        op, deltas = _run_attributed(wal_fs, wal_fs.checkpoint)
        assert op["kind"] == "checkpoint"
        assert op["wal_bytes"] == deltas["wal_bytes"]
        wal_fs.scrub(limit=4)
        scrub = wal_fs.operations(1)[0]
        assert scrub["kind"] == "scrub"
        assert scrub["detail"] == "limit=4"

    def test_a_threshold_settle_is_an_operation_of_its_own(self, wal_fs, monkeypatch):
        from repro.fulltext import persistent_index

        monkeypatch.setattr(persistent_index, "SETTLE_KEYS", 8)
        before = _component_counters(wal_fs)
        wal_fs.create(content=b"alpha beta gamma delta epsilon", owner="nick")
        after = _component_counters(wal_fs)
        create, settle = wal_fs.operations(2)  # newest first; the settle closed inside the create
        assert (create["kind"], settle["kind"]) == ("create", "settle")
        # The create is not charged for the postings of the batch it closed.
        assert settle["wal_bytes"] > 0 and settle["wal_syncs"] > 1
        assert settle["wal_bytes"] + create["wal_bytes"] == after["wal_bytes"] - before["wal_bytes"]
        index = wal_fs.stats()["persistent_index"]
        assert index["fulltext_settles"] == 1
        assert (index["fulltext_backlog_docs"], index["fulltext_backlog_keys"]) == (0, 0)
        gauges = wal_fs.stats()["telemetry"]["gauges"]
        assert gauges["fulltext.settles"] == 1 and gauges["fulltext.backlog_keys"] == 0

    def test_the_backlog_is_visible_between_settles(self, wal_fs):
        wal_fs.create(content=b"alpha beta", owner="nick")
        wal_fs.create(content=b"alpha gamma", owner="nick")
        index = wal_fs.stats()["persistent_index"]
        assert index["fulltext_backlog_docs"] == 2
        assert index["fulltext_backlog_keys"] == 6  # three terms: a block and statistics each
        assert wal_fs.stats()["telemetry"]["gauges"]["fulltext.backlog_docs"] == 2
        wal_fs.checkpoint()  # its settle is absorbed into the checkpoint's record
        assert wal_fs.operations(1)[0]["kind"] == "checkpoint"
        assert wal_fs.stats()["persistent_index"]["fulltext_backlog_docs"] == 0

    def test_in_memory_operations_report_no_device_or_wal_traffic(self, mem_fs):
        op, deltas = _run_attributed(
            mem_fs, lambda: mem_fs.create(content=b"alpha beta", owner="kim"))
        assert op["kind"] == "create"
        assert deltas == {"cache_hits": 0, "cache_misses": 0,
                          "wal_bytes": 0, "wal_syncs": 0}
        for key in ("pages_read", "pages_written", "cache_hits",
                    "cache_misses", "wal_bytes", "wal_records", "wal_syncs"):
            assert op[key] == 0, (key, op)
        mem_fs.rank("alpha", limit=5)
        rank = mem_fs.operations(1)[0]
        assert rank["kind"] == "rank" and rank["wal_bytes"] == 0

    def test_ledger_totals_equal_sum_of_operation_records(self, wal_fs):
        for index in range(8):
            wal_fs.create(content=b"alpha beta", owner=f"user{index}")
        records = [op for op in wal_fs.operations() if op["kind"] == "create"]
        totals = wal_fs.stats()["telemetry"]["attribution"]["create"]
        assert totals["count"] == len(records) == 8
        for key in ("pages_read", "cache_hits", "cache_misses",
                    "wal_bytes", "wal_records", "wal_syncs"):
            assert totals[key] == sum(op[key] for op in records), key


class TestDisabledTelemetry:
    def test_disabled_records_nothing_but_still_answers(self):
        with HFADFileSystem(telemetry=False) as fs:
            fs.create(content=b"alpha beta", owner="margo")
            assert fs.query("USER/margo")
            assert fs.operations() == []
            assert fs.slow_queries() == []
            fs.set_slow_query_threshold(0.0)   # no-op, must not raise
            assert fs.health()["status"] == "ok"
            assert current_operation() is None


class TestAttributionLedger:
    def test_ring_evicts_oldest_but_totals_keep_counting(self):
        ledger = AttributionLedger(capacity=4)
        for index in range(10):
            with ledger.operation("op", f"n{index}"):
                pass
        recent = ledger.recent()
        assert len(recent) == 4
        assert [record["detail"] for record in recent] == ["n9", "n8", "n7", "n6"]
        assert ledger.snapshot()["op"]["count"] == 10

    def test_nested_operations_are_absorbed_into_the_outer(self):
        ledger = AttributionLedger()
        with ledger.operation("outer") as outer:
            assert current_operation() is outer
            with ledger.operation("inner") as inner:
                assert inner is None
                assert current_operation() is outer
        snapshot = ledger.snapshot()
        assert snapshot["outer"]["count"] == 1
        assert "inner" not in snapshot

    def test_failed_operations_are_flagged(self):
        ledger = AttributionLedger()
        with pytest.raises(ValueError):
            with ledger.operation("boom"):
                raise ValueError("nope")
        record = ledger.recent(1)[0]
        assert record["failed"] is True
        assert ledger.snapshot()["boom"]["failed"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AttributionLedger(capacity=0)


class TestTimedLock:
    def test_reentrant_and_hold_observed_once_per_outermost(self):
        registry = MetricsRegistry()
        lock = TimedLock("t", registry)
        with lock:
            with lock:
                pass
        assert lock.acquisitions == 2
        holds = registry.snapshot()["histograms"]["lock.t.hold_us"]
        assert holds["count"] == 1          # outermost acquire→release only

    def test_contended_wait_is_observed_and_charged_to_the_operation(self):
        registry = MetricsRegistry()
        lock = TimedLock("t", registry)
        ledger = AttributionLedger()
        held = threading.Event()
        release = threading.Event()
        waiting = threading.Event()

        def holder():
            with lock:
                held.set()
                release.wait(timeout=5)

        def waiter():
            with ledger.operation("waited"):
                waiting.set()
                with lock:
                    pass

        hold_thread = threading.Thread(target=holder)
        wait_thread = threading.Thread(target=waiter)
        hold_thread.start()
        held.wait(timeout=5)
        wait_thread.start()
        waiting.wait(timeout=5)
        time.sleep(0.05)                    # let the waiter block on acquire
        release.set()
        hold_thread.join(timeout=5)
        wait_thread.join(timeout=5)
        assert lock.contended >= 1
        waits = registry.snapshot()["histograms"]["lock.t.wait_us"]
        assert waits["count"] >= 1 and waits["sum"] > 0
        record = ledger.recent(1)[0]
        assert record["lock_wait_us"] > 0
        assert record["lock_waits"]["t"]["count"] >= 1

    def test_nonblocking_acquire_fails_without_waiting(self):
        lock = TimedLock("t")
        held = threading.Event()
        release = threading.Event()

        def holder():
            with lock:
                held.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=holder)
        thread.start()
        held.wait(timeout=5)
        try:
            assert lock.acquire(blocking=False) is False
            assert lock.contended == 0      # a refused try is not a wait
        finally:
            release.set()
            thread.join(timeout=5)


class TestSlowQueryLog:
    def test_threshold_and_ring_capacity(self):
        log = SlowQueryLog(threshold_ms=1.0, capacity=2)
        for index in range(4):
            log.record("query", f"q{index}", elapsed_s=0.5)
        entries = log.last()
        assert len(entries) == 2
        assert [entry["query"] for entry in entries] == ["q3", "q2"]
        assert entries[0]["elapsed_ms"] == 500.0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SlowQueryLog(capacity=0)

    def test_fs_captures_slow_queries_with_reports(self, mem_fs):
        for index in range(10):
            mem_fs.create(content=b"alpha beta gamma",
                          owner="margo" if index % 2 else "keith")
        mem_fs.set_slow_query_threshold(0.0)   # everything is "slow" now
        mem_fs.query("USER/margo AND FULLTEXT/alpha")
        mem_fs.rank("alpha beta", limit=5)
        entries = mem_fs.slow_queries()
        by_kind = {entry["kind"]: entry for entry in entries}
        boolean = by_kind["query"]
        assert boolean["report_reexecuted"] is True
        assert boolean["report"]["plan"] if "plan" in boolean["report"] \
            else boolean["report"]          # a structured report was captured
        assert boolean["attribution"]["kind"] == "query"
        ranked = by_kind["rank"]
        assert ranked["report"]["kind"] == "ranked"   # the slow run's own span
        assert "report_reexecuted" not in ranked
        mem_fs.set_slow_query_threshold(None)
        mem_fs.query("USER/margo")
        assert len(mem_fs.slow_queries()) == len(entries)   # capture disarmed


class TestMetricsHistory:
    def test_window_reports_deltas_and_rates(self):
        registry = MetricsRegistry()
        counter = registry.counter("reqs")
        ticks = iter([0.0, 10.0])
        history = MetricsHistory(registry, clock=lambda: next(ticks))
        history.sample()
        assert history.window() is None     # one sample is not a window
        counter.inc(30)
        history.sample()
        window = history.window()
        assert window["seconds"] == 10.0
        assert window["counters"]["reqs"] == {"delta": 30, "rate": 3.0}

    def test_histogram_window_includes_quantiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        ticks = iter([0.0, 1.0])
        history = MetricsHistory(registry, clock=lambda: next(ticks))
        history.sample()
        for value in (10, 20, 1000):
            histogram.observe(value)
        history.sample()
        entry = history.window()["histograms"]["lat"]
        assert entry["count"] == 3
        assert entry["p50"] is not None and entry["p95"] is not None

    def test_capacity_must_hold_two_samples(self):
        with pytest.raises(ValueError):
            MetricsHistory(MetricsRegistry(), capacity=1)


class TestQueryTracer:
    def test_ring_capacity_and_eviction(self):
        tracer = QueryTracer(capacity=3)
        for index in range(7):
            tracer.record("boolean", f"q{index}", 0.001, index)
        traces = tracer.last()
        assert len(traces) == 3
        assert [trace.text for trace in traces] == ["q6", "q5", "q4"]
        assert traces[0].seq == 7           # sequence numbers keep counting
        assert tracer.last(1)[0].rows == 6

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryTracer(capacity=0)


class TestHealth:
    def test_healthy_wal_filesystem_reports_all_checks_ok(self, wal_fs):
        wal_fs.create(content=b"alpha", owner="margo")
        report = wal_fs.health()
        assert report["status"] == "ok"
        assert set(report["checks"]) == {
            "quarantine", "device_retries", "degraded_queries", "wal",
        }
        assert all(check["status"] == "ok"
                   for check in report["checks"].values())

    def test_worst_check_wins(self, wal_fs):
        wal_fs.integrity.stats.degraded_queries = 2      # → warn
        assert wal_fs.health()["status"] == "warn"
        wal_fs.recovery.poisoned = True                  # → fail beats warn
        report = wal_fs.health()
        assert report["status"] == "fail"
        assert report["checks"]["wal"]["status"] == "fail"
        assert report["checks"]["degraded_queries"]["status"] == "warn"

    def test_health_status_gauge_flows_into_metrics(self, wal_fs):
        gauges = wal_fs.stats()["telemetry"]["gauges"]
        assert gauges["health.status"] == 0.0
        wal_fs.recovery.poisoned = True
        assert wal_fs.stats()["telemetry"]["gauges"]["health.status"] == 2.0
