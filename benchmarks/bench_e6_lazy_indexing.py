"""E6 — Section 3.4: lazy full-text indexing.

"We use background threads to perform lazy full-text indexing."  What this
repo defers is not the document's visibility but the posting writes: a
create logs the document's own record and a backlog entry in its WAL
transaction, readers see its postings through an in-memory overlay at once,
and the postings reach the tree later, in key-sorted batches (a *settle*:
every ``SETTLE_KEYS`` edited keys, and at checkpoint, close and mount).

The benchmark ingests the same document stream on a device twice — settling
after every create (``SETTLE_KEYS`` patched to 1: eager application) and at
the default threshold (deferred) — and reports ingest time, how many
documents a query issued at ingest return already sees, the closing
checkpoint that settles what is still owed, and WAL bytes and device blocks
written through the end of that checkpoint (so the deferred arm's count
includes the work it deferred).  Expected shape: both arms see every
document at once; deferring writes each index leaf once per batch instead
of once per document, so it logs and writes several times less, and the
settle it leaves for the checkpoint is small against the ingest time saved.
"""

from __future__ import annotations

import time

import pytest

from repro.core import HFADFileSystem
from repro.fulltext import persistent_index
from repro.workloads import document_corpus

from conftest import emit_table, scaled

DOCUMENTS = document_corpus(count=150, seed=33)
ARMS = {"eager": 1, "deferred": persistent_index.SETTLE_KEYS}


def _ingest(documents):
    fs = HFADFileSystem(num_blocks=1 << 17, btree_on_device=True)
    wal_before = fs.stats()["recovery"]["journal_bytes_appended"]
    device_before = fs.device.stats.snapshot()
    started = time.perf_counter()
    for item in documents:
        fs.create(item.content, path=item.path, owner=item.owner, index_content=True)
    ingest_seconds = time.perf_counter() - started
    visible_at_return = len(fs.search_text("budget"))
    settles = fs.stats()["persistent_index"]["fulltext_settles"]
    started = time.perf_counter()
    fs.checkpoint()
    checkpoint_seconds = time.perf_counter() - started
    result = {
        "ingest_ms": round(ingest_seconds * 1000, 1),
        "visible_at_return": visible_at_return,
        "visible_after_checkpoint": len(fs.search_text("budget")),
        "settles_during_ingest": settles,
        "wal_bytes": fs.stats()["recovery"]["journal_bytes_appended"] - wal_before,
        "blocks_written": fs.device.stats.delta(device_before).blocks_written,
        "checkpoint_ms": round(checkpoint_seconds * 1000, 1),
    }
    fs.close()
    return result


def test_e6_eager_vs_deferred_posting_application(monkeypatch):
    results = {}
    for arm, settle_keys in ARMS.items():
        monkeypatch.setattr(persistent_index, "SETTLE_KEYS", settle_keys)
        results[arm] = _ingest(DOCUMENTS)
    eager, deferred = results["eager"], results["deferred"]
    # Deferring the postings never defers the document: every hit is there
    # when the last create returns, both ways.
    assert eager["visible_at_return"] == eager["visible_after_checkpoint"] > 0
    assert deferred["visible_at_return"] == deferred["visible_after_checkpoint"]
    assert deferred["visible_at_return"] == eager["visible_at_return"]
    assert eager["settles_during_ingest"] >= len(DOCUMENTS) - 1
    # Counters, not timings: one leaf write per batch, not per document.
    assert deferred["wal_bytes"] * 2 < eager["wal_bytes"]
    assert deferred["blocks_written"] * 2 < eager["blocks_written"]
    emit_table(
        "E6 — ingest of 150 documents on a device: eager vs deferred posting application",
        ["postings applied", "ingest time (ms)", "hits visible at ingest return",
         "hits after checkpoint", "settles during ingest", "WAL bytes",
         "device blocks written", "closing checkpoint (ms)"],
        [(arm, r["ingest_ms"], r["visible_at_return"], r["visible_after_checkpoint"],
          r["settles_during_ingest"], r["wal_bytes"], r["blocks_written"],
          r["checkpoint_ms"]) for arm, r in results.items()],
    )


@pytest.mark.parametrize("arm", ARMS)
def test_e6_ingest_latency(benchmark, monkeypatch, arm):
    monkeypatch.setattr(persistent_index, "SETTLE_KEYS", ARMS[arm])
    benchmark.pedantic(_ingest, args=(DOCUMENTS[:40],), rounds=scaled(5, 2), iterations=1)
