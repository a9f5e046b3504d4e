"""Race audit: LockManager and TimedLock under real thread interleavings.

These tests pin the properties the engine lock and the timed journal
mutex rely on: write preference (no writer starvation),
deadline-based timeouts that survive wakeup storms, bounded wait-table
eviction that never drops live state, and observer/histogram accounting
that stays exact when many threads contend at once.
"""

import threading
import time

from repro.concurrency.lock_manager import LockManager, LockMode
from repro.telemetry import MetricsRegistry, TimedLock


def _wait_until(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return False


class TestWritePreference:
    def test_queued_writer_bars_new_readers(self):
        manager = LockManager()
        assert manager.acquire("/r", LockMode.SHARED)
        writer_got = threading.Event()

        def writer():
            manager.acquire("/r", LockMode.EXCLUSIVE)
            writer_got.set()
            manager.release("/r", LockMode.EXCLUSIVE)

        thread = threading.Thread(target=writer)
        thread.start()
        assert _wait_until(lambda: manager.stats.waits >= 1), "writer never queued"
        # A late reader is barred while the writer waits — even though the
        # resource currently only has readers.
        assert manager.acquire("/r", LockMode.SHARED, timeout=0.05) is False
        manager.release("/r", LockMode.SHARED)
        assert writer_got.wait(2.0), "writer starved"
        thread.join()
        # With the writer gone, readers flow again.
        assert manager.acquire("/r", LockMode.SHARED, timeout=1.0)
        manager.release("/r", LockMode.SHARED)

    def test_timed_out_writer_unbars_readers(self):
        manager = LockManager()
        assert manager.acquire("/r", LockMode.SHARED)
        # Writer times out while queued; its waiting_writers mark must be
        # rolled back or readers would be barred forever.
        assert manager.acquire("/r", LockMode.EXCLUSIVE, timeout=0.02) is False
        assert manager.acquire("/r", LockMode.SHARED, timeout=0.5) is True
        manager.release("/r", LockMode.SHARED)
        manager.release("/r", LockMode.SHARED)
        assert not manager.locked("/r")


class TestDeadlines:
    def test_wakeup_storm_does_not_restart_the_clock(self):
        manager = LockManager()
        manager.acquire("/hot", LockMode.EXCLUSIVE)
        result = {}

        def waiter():
            started = time.perf_counter()
            result["granted"] = manager.acquire(
                "/hot", LockMode.EXCLUSIVE, timeout=0.2)
            result["elapsed"] = time.perf_counter() - started

        thread = threading.Thread(target=waiter)
        thread.start()
        # Storm the shared condition with unrelated releases: every one
        # wakes the waiter, and a naive re-wait would restart its timeout.
        stop = time.monotonic() + 0.5
        while time.monotonic() < stop and thread.is_alive():
            manager.acquire("/other", LockMode.SHARED)
            manager.release("/other", LockMode.SHARED)
        thread.join(timeout=2.0)
        assert not thread.is_alive(), "waiter hung past its deadline"
        assert result["granted"] is False
        assert result["elapsed"] < 1.0  # deadline, not cumulative re-waits
        manager.release("/hot", LockMode.EXCLUSIVE)


class TestWaitTableEviction:
    def _force_wait(self, manager, resource):
        # Held exclusively; a zero-ish timeout acquire registers one wait.
        manager.acquire(resource, LockMode.EXCLUSIVE)
        assert manager.acquire(resource, LockMode.SHARED, timeout=0.001) is False
        manager.release(resource, LockMode.EXCLUSIVE)

    def test_coldest_entry_evicted_hottest_survives(self):
        manager = LockManager(max_tracked_resources=2)
        for _ in range(3):
            self._force_wait(manager, "/hot")
        self._force_wait(manager, "/cold")
        self._force_wait(manager, "/new")
        table = manager.stats.wait_resources
        assert "/hot" in table and table["/hot"] == 3
        assert "/cold" not in table
        assert table["/new"] == 1
        assert manager.stats.wait_resources_evicted == 1

    def test_resource_entries_do_not_leak(self):
        # The _resources map (not just the wait table) must stay bounded:
        # idle entries are dropped at release, including after a queued
        # writer times out.
        manager = LockManager()
        for index in range(100):
            resource = f"/r{index}"
            manager.acquire(resource, LockMode.EXCLUSIVE)
            assert manager.acquire(resource, LockMode.SHARED,
                                   timeout=0.0001) is False
            manager.release(resource, LockMode.EXCLUSIVE)
        assert manager._resources == {}

    def test_queued_writer_keeps_entry_alive(self):
        manager = LockManager()
        manager.acquire("/r", LockMode.SHARED)
        entered = threading.Event()

        def writer():
            entered.set()
            manager.acquire("/r", LockMode.EXCLUSIVE)
            manager.release("/r", LockMode.EXCLUSIVE)

        thread = threading.Thread(target=writer)
        thread.start()
        entered.wait(1.0)
        assert _wait_until(lambda: manager.stats.waits >= 1)
        # While the writer queues, releasing the last reader must keep the
        # entry (its waiting_writers count lives there) yet wake the writer.
        manager.release("/r", LockMode.SHARED)
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert not manager.locked("/r")


class TestObserverAccounting:
    def test_observer_fires_once_per_contended_acquisition(self):
        manager = LockManager()
        calls = []
        manager.wait_observer = lambda resource, mode, us: calls.append(
            (resource, mode, us))
        manager.acquire("/r", LockMode.SHARED)  # uncontended: no call
        assert calls == []
        manager.acquire("/q", LockMode.EXCLUSIVE)
        assert manager.acquire("/q", LockMode.SHARED, timeout=0.01) is False
        assert len(calls) == 1  # timeouts are waits too
        resource, mode, waited_us = calls[0]
        assert (resource, mode) == ("/q", LockMode.SHARED)
        assert waited_us > 0
        manager.release("/q", LockMode.EXCLUSIVE)
        manager.release("/r", LockMode.SHARED)

    def test_observer_count_matches_wait_count_under_threads(self):
        manager = LockManager()
        calls = []
        calls_lock = threading.Lock()

        def observer(resource, mode, us):
            with calls_lock:
                calls.append(us)

        manager.wait_observer = observer
        threads_n, rounds = 4, 50
        barrier = threading.Barrier(threads_n)

        def worker():
            barrier.wait()
            for _ in range(rounds):
                manager.acquire("/x", LockMode.EXCLUSIVE)
                manager.release("/x", LockMode.EXCLUSIVE)

        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert manager.stats.acquisitions == threads_n * rounds
        assert len(calls) == manager.stats.waits
        assert all(us >= 0 for us in calls)
        assert not manager.locked("/x")


class TestTimedLockThreads:
    def test_counters_and_histograms_stay_exact_under_contention(self):
        registry = MetricsRegistry()
        lock = TimedLock("audit", registry)
        threads_n, rounds = 4, 100
        barrier = threading.Barrier(threads_n)

        def worker():
            barrier.wait()
            for _ in range(rounds):
                with lock:
                    pass

        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = registry.snapshot()["histograms"]
        total = threads_n * rounds
        assert lock.acquisitions == total
        # Every outermost hold is observed exactly once...
        assert snapshot["lock.audit.hold_us"]["count"] == total
        # ...and every contended acquisition exactly once.
        assert snapshot["lock.audit.wait_us"]["count"] == lock.contended
        assert lock.contended <= total

    def test_shared_histograms_merge_across_instances(self):
        # Same-named timed locks share one histogram pair via registry
        # idempotency: same name → same Histogram object.
        registry = MetricsRegistry()
        locks = [TimedLock("pool", registry) for _ in range(4)]
        for lock in locks:
            with lock:
                pass
        snapshot = registry.snapshot()["histograms"]
        assert snapshot["lock.pool.hold_us"]["count"] == 4
        first = locks[0]
        assert all(lock.hold_us is first.hold_us for lock in locks)
