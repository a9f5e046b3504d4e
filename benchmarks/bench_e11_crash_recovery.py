"""E11 — crash consistency: what durability costs, and what recovery buys.

The ROADMAP gated flipping write-back caching on by default on "journal
integration covering buffered dirty pages"; ``repro.recovery`` shipped that
integration, and this experiment quantifies the deal:

* **Commit policy** — one metadata-heavy workload (creates, tags, edits,
  deletes) run on the on-device engine (write-back **plus** write-ahead
  logging) with every commit synced, and with ``group_commit=8``, the
  bounded-loss-window variant.

  Reported: device writes, blocks written, simulated time, journal syncs —
  and, as machine-readable metrics per row, WAL bytes per op, journal-region
  blocks written per op, all blocks written per op and checkpoints.
  The claim under test: crash safety costs a bounded number of device
  blocks per operation (the retired write-through and unlogged write-back
  rows are in README's "Retired configurations" table).

* **Recovery time vs log length** — fill the journal with N committed but
  uncheckpointed operations, image the device, and measure
  ``HFADFileSystem.mount`` (journal replay + fsck-style rebuild) against N.
  Replay work should scale with the replayed tail, not with device size.
"""

from __future__ import annotations

import random
import time

from repro.core import HFADFileSystem
from repro.storage import BlockDevice

from conftest import emit_table, record_metric, scaled

OPS = scaled(300, 60)
RECOVERY_TAILS = scaled((10, 40, 160), (5, 10, 20))
WORDS = ("journal redo checkpoint replay durable commit tear crash "
         "mount fsck lsn revoke").split()


def _make_fs(group_commit=1):
    device = BlockDevice(num_blocks=1 << 16)
    return device, HFADFileSystem(
        device=device,
        btree_on_device=True,
        group_commit=group_commit,
        cache_pages=128,
        query_cache_entries=0,
    )


def _count_journal_blocks(device, fs):
    """Count the blocks every later write puts into ``fs``'s journal region
    (log flushes and checkpoint truncations); returns the running total as a
    one-element list."""
    total = [0]
    journal = fs.recovery.journal
    region = range(journal.journal_start, journal.journal_start + journal.journal_blocks)
    plain_write = device.write_blocks

    def write_blocks(block, data, nblocks=None):
        before = device.stats.blocks_written
        plain_write(block, data, nblocks)
        if block in region:
            total[0] += device.stats.blocks_written - before

    device.write_blocks = write_blocks
    return total


def _run_ops(fs, ops, rng):
    """A metadata-heavy mix: the paper's 'naming state lives in btrees' path."""
    oids = []
    for step in range(ops):
        roll = rng.random()
        if not oids or roll < 0.4:
            content = " ".join(rng.choice(WORDS) for _ in range(12)).encode()
            oid = fs.create(content, path=f"/bench/f{step}.txt")
            oids.append(oid)
        elif roll < 0.6:
            fs.tag(rng.choice(oids), "UDEF", f"tag{step}")
        elif roll < 0.8:
            fs.append(rng.choice(oids), b" more words appended")
        elif roll < 0.9:
            fs.tag(rng.choice(oids), "UDEF", f"extra{step}")
        else:
            victim = oids.pop(rng.randrange(len(oids)))
            fs.delete(victim)
    return oids


def test_durability_mode_throughput(benchmark):
    configurations = [
        ("wal (default)", dict()),
        ("wal group_commit=8", dict(group_commit=8)),
    ]
    rows = []
    results = {}
    for label, config in configurations:
        device, fs = _make_fs(**config)
        before = device.stats.snapshot()
        info_before = fs.stats()["recovery"]
        journal_blocks = _count_journal_blocks(device, fs)
        start = time.perf_counter()
        _run_ops(fs, OPS, random.Random(11))
        # The postings the measured creates deferred are paid for in the
        # window, not at the close() after it.
        fs.fulltext_index.index.settle()
        elapsed = time.perf_counter() - start
        delta = device.stats.delta(before)
        info = fs.stats()["recovery"]
        results[label] = delta

        def moved(counter):
            return info[counter] - info_before[counter]

        record_metric(f"wal_bytes_per_op[{label}]",
                      round(moved("journal_bytes_appended") / OPS, 1))
        record_metric(f"journal_blocks_written_per_op[{label}]",
                      round(journal_blocks[0] / OPS, 3))
        record_metric(f"blocks_written_per_op[{label}]",
                      round(delta.blocks_written / OPS, 3))
        record_metric(f"checkpoints[{label}]", moved("checkpoints"))
        rows.append([
            label, OPS, delta.writes, delta.blocks_written,
            f"{delta.simulated_us:.0f}", info["journal_syncs"],
            f"{elapsed * 1000:.1f}",
        ])
        fs.close()
    emit_table(
        f"E11a: commit policies over {OPS} metadata-heavy operations",
        ["mode", "ops", "device writes", "blocks written",
         "simulated us", "journal syncs", "wall ms"],
        rows,
    )
    # Crash safety costs a bounded number of device blocks per operation
    # (log appends plus write-backs), and batching commit markers can only
    # lower it.  Measured 2.08 at 300 ops, the closing settle included
    # (5.80 when every create wrote its postings through, 2.74 with one
    # tree entry per posting; README "Retired configurations"): a
    # fifteen-word vocabulary puts every posting block in one or two leaves,
    # which an eager create spliced from first edit to last in a single
    # DELTA, every time.  With the posting backlog a create logs its own
    # records and those two leaves are written once, by the settle.
    assert results["wal (default)"].blocks_written <= 2.5 * OPS
    assert (results["wal group_commit=8"].blocks_written
            <= results["wal (default)"].blocks_written)

    # Benchmark the steady-state WAL op for the timing report.
    device, fs = _make_fs()
    oids = _run_ops(fs, scaled(60, 20), random.Random(7))
    counter = iter(range(10 ** 9))

    def one_tagged_create():
        fs.tag(oids[0], "UDEF", f"bench{next(counter)}")

    benchmark(one_tagged_create)
    fs.close()


def test_recovery_time_vs_log_length(benchmark):
    rows = []
    measured = []
    for tail_ops in RECOVERY_TAILS:
        device, fs = _make_fs()
        # A sizeable journal and a high threshold keep the tail uncheckpointed.
        fs.recovery.checkpoint_threshold = 1.0
        _run_ops(fs, tail_ops, random.Random(23))
        image = BlockDevice(num_blocks=device.num_blocks,
                            block_size=device.block_size)
        image.load(device.dump())
        start = time.perf_counter()
        mounted = HFADFileSystem.mount(image)
        elapsed = time.perf_counter() - start
        info = mounted.stats()["recovery"]
        rows.append([
            tail_ops, info["replayed_transactions"], info["replayed_pages"],
            f"{elapsed * 1000:.1f}",
        ])
        measured.append((tail_ops, info["replayed_transactions"]))
        assert mounted.fsck()["clean"]
        mounted.close()
        fs.close()
    emit_table(
        "E11b: mount-time recovery vs uncheckpointed log tail",
        ["ops in tail", "transactions replayed", "pages replayed", "mount ms"],
        rows,
    )
    # Replay work grows with the tail.
    replayed = [count for _ops, count in measured]
    assert replayed == sorted(replayed)
    assert replayed[-1] > replayed[0]

    # Benchmark a fixed-size mount for the timing report.
    device, fs = _make_fs()
    fs.recovery.checkpoint_threshold = 1.0
    _run_ops(fs, RECOVERY_TAILS[0], random.Random(23))
    snapshot = device.dump()

    def mount_once():
        image = BlockDevice(num_blocks=device.num_blocks,
                            block_size=device.block_size)
        image.load(snapshot)
        return HFADFileSystem.mount(image)

    benchmark(mount_once)
    fs.close()
