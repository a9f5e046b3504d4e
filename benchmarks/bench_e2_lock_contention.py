"""E2 — Section 2.3: the shared-ancestor concurrency bottleneck.

"/home/nick and /home/margo are functionally unrelated most of the time, yet
accessing them requires synchronizing read access through a shared ancestor
directory."

Three schedules (disjoint home directories, one shared project directory, a
metadata-heavy scan) are replayed under hierarchical path locking and under
hFAD's flat per-object locking.  Expected shape: for disjoint working sets
the hierarchy synchronizes constantly on "/" and "/home" while flat locking
synchronizes on nothing; when the data really is shared both systems contend,
so the difference disappears — showing the hotspot is an artifact of the
namespace, not of the workload.

The real-thread sections at the bottom are the serving-concurrency numbers
ROADMAP §1 asks for:

* a per-lock wait/hold profile of a write-heavy workload (``lock.<name>.*``
  histograms from the :class:`TimedLock` wrappers on the buffer-pool stripe
  locks and the journal mutex, plus the per-tree ``lock.wal.txn.<tree>.*``
  transaction-queue waits),
* a sharded-vs-global buffer-pool lock ablation (the p95 pool-lock wait the
  striping exists to move), and
* closed-loop throughput-vs-latency curves: N client threads in a
  think-time-free loop over a Zipfian-skewed tag space, mixed readers
  (snapshot-view queries) and writers (WAL transactions).
"""

from __future__ import annotations

import bisect
import random
import threading
import time

import pytest

from repro.cache import BufferPool
from repro.concurrency import (
    home_directory_workload,
    metadata_scan_workload,
    shared_project_workload,
)
from repro.core import HFADFileSystem
from repro.hierarchical.locking import FlatLockManager, HierarchicalLockManager
from repro.telemetry import MetricsRegistry, TimedLock, histogram_quantiles

from conftest import SMOKE, emit_table, record_metric, scaled

CONCURRENCY = scaled(8, 4)


def _schedules():
    return [
        home_directory_workload(users=scaled(16, 4), operations_per_user=scaled(60, 15), write_fraction=0.3, seed=1),
        shared_project_workload(users=scaled(16, 4), operations_per_user=scaled(60, 15), write_fraction=0.5, seed=2),
        metadata_scan_workload(directories=scaled(12, 4), files_per_directory=scaled(24, 8), scanners=scaled(6, 3), seed=3),
    ]


def test_e2_contention_report():
    rows = []
    for schedule in _schedules():
        hier = HierarchicalLockManager.simulate_schedule(schedule.path_operations, CONCURRENCY)
        flat = FlatLockManager.simulate_schedule(schedule.flat_operations(), CONCURRENCY)
        hottest = hier.hottest_synchronized(1)
        rows.append(
            (
                schedule.name,
                len(schedule),
                hier.synchronizations,
                flat.synchronizations,
                hier.conflicts,
                flat.conflicts,
                hottest[0][0] if hottest else "-",
            )
        )
        if schedule.name == "home-directories":
            # Disjoint working sets: the hierarchy manufactures the hotspot.
            assert flat.synchronizations == 0
            assert hier.synchronizations > len(schedule)
            assert dict(hier.hottest_synchronized()).keys() & {"/", "/home"}
        if schedule.name == "shared-project":
            # Inherently shared data: both sides contend.
            assert flat.conflicts > 0
        if schedule.name == "metadata-scan":
            assert flat.conflicts == 0
    emit_table(
        "E2 — lock synchronizations/conflicts: hierarchical path locks vs flat (per schedule)",
        ["schedule", "ops", "hier syncs", "flat syncs", "hier conflicts", "flat conflicts", "hottest resource"],
        rows,
    )


@pytest.mark.parametrize("manager", ["hierarchical", "flat"])
def test_e2_simulation_latency(benchmark, manager):
    schedule = home_directory_workload(users=16, operations_per_user=60, write_fraction=0.3, seed=1)
    if manager == "hierarchical":
        benchmark(lambda: HierarchicalLockManager.simulate_schedule(schedule.path_operations, CONCURRENCY))
    else:
        benchmark(lambda: FlatLockManager.simulate_schedule(schedule.flat_operations(), CONCURRENCY))


def test_e2_real_thread_lock_profile():
    """Real threads, real locks: where does a write-heavy workload wait?

    Writer threads create objects against one WAL filesystem from a common
    barrier, so the master tree's transaction queue is contended by
    construction.  The per-lock wait/hold histograms (TimedLock wrappers on
    the pool stripes and journal mutex) and the per-tree queue-wait
    histograms become the report: outermost acquisitions, contended waits,
    and wait/hold quantiles per lock.
    """
    writers = scaled(8, 4)
    creates_per_writer = scaled(40, 8)
    fs = HFADFileSystem(
        num_blocks=1 << 17, btree_on_device=True,
        query_cache_entries=0,
    )
    barrier = threading.Barrier(writers)
    errors = []

    def worker(worker_id: int) -> None:
        barrier.wait()
        try:
            for index in range(creates_per_writer):
                fs.create(
                    content=f"worker {worker_id} writes document {index} "
                            f"about lock contention".encode(),
                    owner=f"writer{worker_id}",
                    path=f"/w{worker_id}/doc{index}.txt",
                )
        except Exception as error:  # noqa: BLE001 — surfaced via the join below
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(writers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors

    histograms = fs.stats()["telemetry"]["histograms"]
    lock_names = sorted(
        name[len("lock."):-len(".wait_us")]
        for name in histograms if name.startswith("lock.") and name.endswith(".wait_us")
    )
    # The TimedLock pairs (wait + hold): all buffer-pool stripes share one
    # histogram pair, the journal mutex has its own.  Per-tree transaction
    # queues record wait-only histograms (lock.wal.txn.<tree>.wait_us),
    # created lazily on the first contended wait.
    timed = [n for n in lock_names if f"lock.{n}.hold_us" in histograms]
    assert timed == ["buffer_pool", "wal.journal"]
    tree_waits = [n for n in lock_names if n.startswith("wal.txn.")]
    # A barrier start across writer threads contends the master tree queue
    # on every run.
    assert any(histograms[f"lock.{n}.wait_us"]["count"] > 0 for n in tree_waits)
    rows = []
    profile = {}
    for name in lock_names:
        wait = histograms[f"lock.{name}.wait_us"]
        hold = histograms.get(f"lock.{name}.hold_us")
        wait_q = histogram_quantiles(wait)
        hold_q = histogram_quantiles(hold) if hold else {"p50": 0, "p95": 0}
        rows.append((
            name, hold["count"] if hold else "-", wait["count"],
            wait_q["p50"] or 0, wait_q["p95"] or 0,
            hold_q["p50"] or 0, hold_q["p95"] or 0,
        ))
        profile[name] = {
            "acquisitions": hold["count"] if hold else None,
            "contended": wait["count"],
            "wait_us_sum": wait["sum"],
            "wait_p95_us": wait_q["p95"],
        }
    assert all(histograms[f"lock.{name}.hold_us"]["count"] > 0 for name in timed)
    # Contended waits inside an operation are charged to it: the ledger's
    # create totals must agree that time was spent waiting.
    totals = fs.stats()["telemetry"]["attribution"]
    assert totals["create"]["count"] == writers * creates_per_writer
    assert totals["create"]["lock_wait_us"] > 0
    record_metric("real_thread_lock_profile", {
        "writers": writers, "creates_per_writer": creates_per_writer,
        "locks": profile,
    })
    emit_table(
        "E2 — real-thread per-lock wait/hold profile (WAL filesystem, "
        f"{writers} writer threads)",
        ["lock", "acquisitions", "contended", "wait p50 µs", "wait p95 µs",
         "hold p50 µs", "hold p95 µs"],
        rows,
    )
    fs.close()


# ---------------------------------------------------------------------------
# sharded vs global buffer-pool lock (the PR's striping ablation)
# ---------------------------------------------------------------------------


def _hammer_pool(stripes: int, label: str, threads: int, ops: int):
    """Mixed reader/writer threads against one pool; returns wait stats."""
    registry = MetricsRegistry()
    pool = BufferPool(capacity=256, stripes=stripes)
    pool.instrument_locks(
        lambda index, lock: TimedLock(f"pool.{label}", registry, inner=lock))
    consumer = pool.register("bench", writeback=lambda page_id, value: None)
    keyspace = 1024  # 4x capacity: constant eviction/write-back under lock
    barrier = threading.Barrier(threads)
    errors = []

    def worker(worker_id: int) -> None:
        rng = random.Random(7000 + worker_id)
        payload = bytes(64)
        barrier.wait()
        try:
            for _ in range(ops):
                key = rng.randrange(keyspace)
                if rng.random() < 0.3:
                    consumer.put(key, payload, dirty=True, lsn=1)
                elif consumer.get(key) is None:
                    consumer.put(key, payload)
        except Exception as error:  # noqa: BLE001 — surfaced via the join
            errors.append(error)

    workers = [threading.Thread(target=worker, args=(n,)) for n in range(threads)]
    started = time.perf_counter()
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    elapsed = time.perf_counter() - started
    assert not errors, errors
    snapshot = registry.snapshot()["histograms"]
    wait = snapshot[f"lock.pool.{label}.wait_us"]
    hold = snapshot[f"lock.pool.{label}.hold_us"]
    stats = consumer.stats
    return {
        "stripes": stripes,
        "ops": threads * ops,
        "elapsed_s": round(elapsed, 4),
        "acquisitions": hold["count"],
        "contended": wait["count"],
        "wait_us_sum": wait["sum"],
        "wait_p95_us": histogram_quantiles(wait)["p95"] or 0,
        "hits": stats.hits,
        "evictions": stats.evictions,
    }


def test_e2_pool_stripe_ablation():
    """Striping the pool lock must lower contention vs one global lock.

    Identical mixed reader/writer hammering (30% dirty writes, 4x-capacity
    keyspace so evictions happen under the lock) against a 1-stripe pool
    (the PR 8 baseline: every frame behind one mutex) and an 8-stripe pool.
    With frames hashed across 8 stripes, two threads collide on a stripe
    ~1/8th as often — contended acquisitions and the p95 wait must not be
    worse, and in full-size runs the contended fraction drops hard.
    """
    threads = scaled(8, 4)
    ops = scaled(4000, 500)
    globally = _hammer_pool(1, "global", threads, ops)
    sharded = _hammer_pool(8, "sharded", threads, ops)
    emit_table(
        "E2 — buffer-pool lock ablation: 1 stripe (global) vs 8 stripes "
        f"({threads} mixed reader/writer threads, {ops} ops each)",
        ["variant", "acquisitions", "contended", "wait p95 µs", "wait µs sum",
         "evictions"],
        [
            ("global (1 stripe)", globally["acquisitions"], globally["contended"],
             globally["wait_p95_us"], round(globally["wait_us_sum"], 1),
             globally["evictions"]),
            ("sharded (8 stripes)", sharded["acquisitions"], sharded["contended"],
             sharded["wait_p95_us"], round(sharded["wait_us_sum"], 1),
             sharded["evictions"]),
        ],
    )
    record_metric("pool_stripe_ablation", {"global": globally, "sharded": sharded})
    assert globally["acquisitions"] > 0 and sharded["acquisitions"] > 0
    # The comparison needs the global lock to actually have been contended;
    # the barrier start plus thousands of ops guarantees that outside of
    # pathological scheduling, where the ablation is meaningless anyway.
    if globally["contended"] >= 50:
        assert sharded["contended"] < globally["contended"]
        assert sharded["wait_p95_us"] <= globally["wait_p95_us"]


# ---------------------------------------------------------------------------
# closed-loop throughput vs latency (Zipfian tag skew, readers + writers)
# ---------------------------------------------------------------------------


def _zipf_cdf(n: int, s: float = 1.1):
    weights = [1.0 / (k ** s) for k in range(1, n + 1)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    return cdf


def _zipf_pick(cdf, rng: random.Random) -> int:
    return bisect.bisect_left(cdf, rng.random())


def test_e2_closed_loop_curves():
    """Throughput-vs-latency curves under mixed Zipfian load.

    For each client count, N threads run a closed loop (no think time):
    75% snapshot-view queries (``find`` over a Zipfian-skewed ``UDEF``
    topic tag — the hot tags are both the most queried and the most written) and
    25% WAL write transactions (create + tag).  Per-op latencies are
    recorded wall-clock; the curve is ops/s against p50/p95 latency as
    clients scale — the closed-loop serving shape the sharded pool lock
    and per-tree queues exist to flatten.
    """
    client_counts = [1, 2] if SMOKE else [1, 2, 4, 8]
    ops_per_client = scaled(150, 25)
    topics = 64
    cdf = _zipf_cdf(topics)
    curve = []
    rows = []
    for clients in client_counts:
        fs = HFADFileSystem(
            num_blocks=1 << 17, btree_on_device=True,
            query_cache_entries=0,
        )
        seed_rng = random.Random(42)
        for index in range(scaled(120, 24)):
            oid = fs.create(
                content=f"seed document {index}".encode(),
                owner="seed", path=f"/seed/doc{index}.txt",
            )
            fs.tag(oid, "UDEF", f"topic-{_zipf_pick(cdf, seed_rng)}")
        barrier = threading.Barrier(clients)
        latencies = [[] for _ in range(clients)]
        errors = []

        def client(client_id: int) -> None:
            rng = random.Random(9000 + client_id)
            mine = latencies[client_id]
            barrier.wait()
            try:
                for index in range(ops_per_client):
                    topic = f"topic-{_zipf_pick(cdf, rng)}"
                    began = time.perf_counter()
                    if rng.random() < 0.25:
                        oid = fs.create(
                            content=f"client {client_id} op {index} about "
                                    f"{topic}".encode(),
                            owner=f"client{client_id}",
                            path=f"/c{client_id}/doc{index}.txt",
                        )
                        fs.tag(oid, "UDEF", topic)
                    else:
                        fs.find(("UDEF", topic))
                    mine.append(time.perf_counter() - began)
            except Exception as error:  # noqa: BLE001 — surfaced below
                errors.append(error)

        threads = [threading.Thread(target=client, args=(n,)) for n in range(clients)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        assert not errors, errors
        flat = sorted(lat for per_client in latencies for lat in per_client)
        assert len(flat) == clients * ops_per_client
        throughput = len(flat) / wall
        p50 = flat[len(flat) // 2] * 1e6
        p95 = flat[min(len(flat) - 1, int(len(flat) * 0.95))] * 1e6
        pool_wait = fs.stats()["telemetry"]["histograms"].get(
            "lock.buffer_pool.wait_us", {"count": 0, "sum": 0.0})
        curve.append({
            "clients": clients, "ops": len(flat), "wall_s": round(wall, 4),
            "ops_per_s": round(throughput, 1),
            "p50_us": round(p50, 1), "p95_us": round(p95, 1),
            "pool_lock_contended": pool_wait["count"],
        })
        rows.append((clients, len(flat), round(throughput, 1),
                     round(p50, 1), round(p95, 1), pool_wait["count"]))
        fs.close()
    emit_table(
        "E2 — closed-loop throughput vs latency (Zipfian topic skew, "
        "75% snapshot reads / 25% WAL writes)",
        ["clients", "ops", "ops/s", "p50 µs", "p95 µs", "pool contended"],
        rows,
    )
    record_metric("closed_loop_curve", curve)
    assert all(point["ops_per_s"] > 0 for point in curve)
