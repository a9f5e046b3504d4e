"""The planner's estimate memo under threads.

Concurrent readers share one planner (the facade hands its planner to every
query), so its memo sees interleaved lookups, stores and evictions.  Driving
more distinct terms than a small memo cap through several threads at once,
with a tiny GIL switch interval to force interleavings, must raise nowhere
and never grow the memo past its cap.
"""

import sys
import threading

from repro.core.query import QueryPlanner, TagTerm
from repro.index import IndexStoreRegistry, KeyValueIndexStore

THREADS = 8
CAP = 16
TERMS = 40
ESTIMATES_PER_THREAD = 5_000


def test_planner_memo_survives_concurrent_estimates(monkeypatch):
    registry = IndexStoreRegistry()
    registry.register(KeyValueIndexStore(tags=["UDEF"]))
    for oid in range(TERMS):
        registry.insert("UDEF", f"value-{oid}", oid)
    monkeypatch.setattr(QueryPlanner, "MAX_MEMO_ENTRIES", CAP)
    planner = QueryPlanner()
    terms = [TagTerm("UDEF", f"value-{index}") for index in range(TERMS)]
    barrier = threading.Barrier(THREADS, timeout=60)
    errors = []
    oversize = []

    def worker(offset):
        try:
            barrier.wait()
            for step in range(ESTIMATES_PER_THREAD):
                assert planner.estimate(terms[(offset + step) % TERMS], registry) == 1
                if step % 1000 == 0:
                    entries = planner.snapshot()["memo_entries"]
                    if entries > CAP:
                        oversize.append(entries)
        except Exception as error:  # collected: a thread's raise is silent
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(index * 7,))
                   for index in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert oversize == []
    snapshot = planner.snapshot()
    assert snapshot["memo_entries"] <= CAP
    assert snapshot["memo_hits"] + snapshot["memo_misses"] == \
        THREADS * ESTIMATES_PER_THREAD
