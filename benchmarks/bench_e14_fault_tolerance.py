"""E14 — what end-to-end integrity costs, and what it buys.

``repro.integrity`` made every on-device btree page self-verifying (CRC32
frames), every page-in retry transient faults, and every query survivable
over quarantined pages.  This experiment prices each of those:

* **Checksum frames** — a metadata-heavy workload, a remount and a search
  per word on the cold pool: the device traffic of the framed format and
  the number of page-ins it verified.  Frames cost a CRC over every page image on both
  page-in and write-back but zero extra blocks (the frame lives inside the
  page); the retired unframed control is in README's "Retired
  configurations" table.

* **Scrub throughput** — pages verified per second by a full scrub of a
  checkpointed device, and the cost of the interruptible variant
  (``limit=N`` increments) relative to one uninterrupted pass.

* **Transient-fault retry** — a page-in through a device that fails each
  read N times before succeeding, with backoff sleeps stubbed out: what the
  retry ladder costs in device touches.

* **Degraded-query latency** — ``search_text`` over a quarantined posting
  tree (answered via the object-content rescan fallback) vs the healthy
  index path.  Degradation trades latency for availability; the ratio is
  the price of still answering.
"""

from __future__ import annotations

import random
import time

from repro.core import HFADFileSystem
from repro.storage import BlockDevice, FaultPlan

from conftest import emit_table, record_metric, scaled

FILES = scaled(220, 40)
SCRUB_FILES = scaled(300, 50)
RETRIES = scaled(200, 30)
QUERY_REPS = scaled(40, 6)
WORDS = ("checksum frame scrub quarantine retry transient rot flip "
         "verify repair degrade fallback").split()


def _build(files=FILES, seed=17):
    rng = random.Random(seed)
    device = BlockDevice(num_blocks=1 << 16)
    fs = HFADFileSystem(
        device=device,
        btree_on_device=True,
        cache_pages=128,
        query_cache_entries=0,
    )
    oids = []
    for i in range(files):
        content = " ".join(rng.choice(WORDS) for _ in range(10)).encode()
        oids.append(fs.create(content, path=f"/bench/f{i}.txt"))
    return device, fs, oids


def test_checksum_overhead(benchmark):
    start = time.perf_counter()
    device, fs, oids = _build()
    fs.close()
    # Cold pool: every page the searches touch is paged in and verified.
    fs = HFADFileSystem.mount(device, cache_pages=128, query_cache_entries=0)
    for word in WORDS:
        fs.search_text(word)
    elapsed = time.perf_counter() - start
    integrity = fs.stats()["integrity"]
    emit_table(
        f"E14a: checksum frames over {FILES} creates + remount + searches",
        ["files", "device writes", "blocks written", "page-ins verified",
         "wall ms"],
        [[FILES, device.stats.writes, device.stats.blocks_written,
          integrity["checksum_verifications"], f"{elapsed * 1000:.1f}"]],
    )
    record_metric("checksum_verifications", integrity["checksum_verifications"])
    # Every page-in is verified, and a healthy device fails none.
    assert integrity["checksum_verifications"] > 0
    assert integrity["checksum_failures"] == 0
    fs.close()

    device, fs, oids = _build(files=scaled(60, 15))
    fs.checkpoint()
    counter = iter(range(10 ** 9))

    def one_framed_create():
        fs.create(b"checksum frame verify repair", path=None,
                  annotations=[f"b{next(counter)}"])

    benchmark(one_framed_create)
    fs.close()


def test_scrub_throughput(benchmark):
    device, fs, _oids = _build(files=SCRUB_FILES)
    fs.checkpoint()

    start = time.perf_counter()
    report = fs.scrub()
    full_elapsed = time.perf_counter() - start
    assert report.complete and report.quarantined == 0
    pages_per_s = report.pages_scanned / full_elapsed if full_elapsed else 0.0

    # The interruptible variant: same walk, parked every `step` pages.
    step = max(4, report.pages_scanned // 16)
    start = time.perf_counter()
    scanned = 0
    while True:
        part = fs.scrub(limit=step)
        scanned += part.pages_scanned
        if part.complete:
            break
    incremental_elapsed = time.perf_counter() - start
    assert scanned == report.pages_scanned

    emit_table(
        f"E14b: scrub of a checkpointed device ({SCRUB_FILES} files)",
        ["variant", "pages scanned", "wall ms", "pages/s"],
        [
            ["full pass", report.pages_scanned, f"{full_elapsed * 1000:.1f}",
             f"{pages_per_s:.0f}"],
            [f"incremental (limit={step})", scanned,
             f"{incremental_elapsed * 1000:.1f}",
             f"{scanned / incremental_elapsed:.0f}" if incremental_elapsed
             else "inf"],
        ],
    )
    record_metric("scrub_pages_scanned", report.pages_scanned)
    record_metric("scrub_pages_per_s", round(pages_per_s, 1))

    benchmark(fs.scrub)
    fs.close()


def test_transient_retry_cost(benchmark):
    device, fs, oids = _build(files=scaled(80, 20))
    fs.checkpoint()
    fs.integrity.sleep = lambda _s: None  # backoff stubbed: count touches
    root = fs._fulltext_tree.root_id
    store = fs._fulltext_tree.store

    rows = []
    for faults in (0, 1, 3):
        stats = fs.integrity.stats
        retries_before = stats.retries
        recovered_before = stats.transient_recovered
        start = time.perf_counter()
        for _ in range(RETRIES):
            store._consumer.drop_all(write_back=True)
            device.fault_plan = FaultPlan(
                transient_read_faults={root: faults})
            store.read(root)
        elapsed = time.perf_counter() - start
        device.fault_plan = None
        retries = stats.retries - retries_before
        recovered = stats.transient_recovered - recovered_before
        rows.append([faults, RETRIES, retries, recovered,
                     f"{elapsed * 1000:.1f}"])
    emit_table(
        f"E14c: page-in through transient read faults ({RETRIES} page-ins)",
        ["faults/read", "page-ins", "retries issued", "recovered",
         "wall ms"],
        rows,
    )
    # With N faults per page-in the ladder must issue exactly N retries and
    # recover every read.
    assert rows[-1][2] == 3 * RETRIES
    assert rows[-1][3] == RETRIES
    record_metric("retries_per_pagein_3faults", rows[-1][2] / RETRIES)

    def one_retried_pagein():
        store._consumer.drop_all(write_back=True)
        device.fault_plan = FaultPlan(transient_read_faults={root: 1})
        return store.read(root)

    benchmark(one_retried_pagein)
    device.fault_plan = None
    fs.close()


def test_degraded_query_latency(benchmark):
    device, fs, oids = _build()
    fs.checkpoint()

    start = time.perf_counter()
    for _ in range(QUERY_REPS):
        healthy = fs.search_text("quarantine")
    healthy_elapsed = time.perf_counter() - start

    # Quarantine the posting tree beyond repair: checkpoint truncated the
    # journal and the eviction empties the cache.
    fs._fulltext_tree.store._consumer.drop_all(write_back=True)
    device.flip_bit(fs._fulltext_tree.root_id, 40)
    report = fs.scrub()
    assert report.quarantined >= 1

    start = time.perf_counter()
    for _ in range(QUERY_REPS):
        degraded = fs.search_text("quarantine")
    degraded_elapsed = time.perf_counter() - start
    assert degraded == healthy  # availability without wrong answers

    ratio = (degraded_elapsed / healthy_elapsed
             if healthy_elapsed else float("inf"))
    integrity = fs.stats()["integrity"]
    emit_table(
        f"E14d: degraded vs healthy search_text ({QUERY_REPS} queries each)",
        ["path", "wall ms", "ms/query", "degraded queries accounted"],
        [
            ["healthy index", f"{healthy_elapsed * 1000:.1f}",
             f"{healthy_elapsed * 1000 / QUERY_REPS:.2f}", 0],
            ["quarantined → rescan fallback",
             f"{degraded_elapsed * 1000:.1f}",
             f"{degraded_elapsed * 1000 / QUERY_REPS:.2f}",
             integrity["degraded_queries"]],
        ],
    )
    record_metric("degraded_query_ratio", round(ratio, 2))
    record_metric("degraded_queries_accounted",
                  integrity["degraded_queries"])
    assert integrity["degraded_queries"] >= QUERY_REPS

    benchmark(lambda: fs.search_text("quarantine"))
    fs.close()
