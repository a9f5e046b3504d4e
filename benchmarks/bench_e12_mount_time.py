"""E12 — mount cost: O(metadata), not O(data).

A mount replays the journal, walks metadata and re-attaches the full-text
and image indexes from their on-device btrees; it never re-reads or
re-tokenizes object bytes.  (The retired re-derive-from-content control is
in README's "Retired configurations" table.)

* **E12a — mount cost vs corpus size.**  Corpora of growing size are built,
  imaged and mounted, measuring wall time, device read requests and blocks
  read.  Mounts read only btree pages — index *metadata* — so the cost per
  document does not grow with the corpus.

* **E12b — content-volume independence.**  One corpus is re-built with its
  documents padded 4x (same vocabulary, same postings, 4x the bytes).  The
  mount's read traffic stays flat.  This is the "O(metadata), not O(data)"
  claim in its purest form.
"""

from __future__ import annotations

import random
import time

from repro.core import HFADFileSystem
from repro.storage import BlockDevice

from conftest import emit_table, scaled

CORPUS_SIZES = scaled((60, 180, 540), (12, 36))
#: documents repeat their word mix this many times — realistic multi-KB
#: files whose index footprint (one posting per distinct term) is a small
#: fraction of their content.
CONTENT_REPEATS = 64
PADDED_REPEATS = CONTENT_REPEATS * 4
WORDS = (
    "anchor beacon copper dynamo escrow fathom gutter hammer island jumper "
    "kettle lumber marrow needle oxbow packet quiver ribbon shovel timber "
    "uproar vellum willow xenon yonder zephyr"
).split()


def _build_device(num_docs, content_repeats=CONTENT_REPEATS, seed=17):
    device = BlockDevice(num_blocks=1 << 18)
    fs = HFADFileSystem(
        device=device,
        btree_on_device=True,
        journal_blocks=511,
        query_cache_entries=0,
    )
    rng = random.Random(seed)
    for serial in range(num_docs):
        words = " ".join(rng.choice(WORDS) for _ in range(rng.randint(30, 60)))
        fs.create((words + " ").encode() * content_repeats,
                  path=f"/c/d{serial}.txt")
        if serial % 5 == 0:
            fs.index_image(serial + 1, [rng.random() + 0.01 for _ in range(8)])
    probe_answers = {word: fs.search_text(word) for word in WORDS[:6]}
    fs.close()
    return device, probe_answers


def _measure_mount(device, probe_answers):
    image = BlockDevice(num_blocks=device.num_blocks, block_size=device.block_size)
    image.load(device.dump())
    before = image.stats.snapshot()
    start = time.perf_counter()
    mounted = HFADFileSystem.mount(image, query_cache_entries=0)
    elapsed = time.perf_counter() - start
    delta = image.stats.delta(before)
    for word, expected in probe_answers.items():
        assert mounted.search_text(word) == expected
    mounted.close()
    return elapsed, delta


def test_mount_time_vs_corpus_size(benchmark):
    rows = []
    blocks = {}
    for num_docs in CORPUS_SIZES:
        device, probes = _build_device(num_docs)
        elapsed, delta = _measure_mount(device, probes)
        blocks[num_docs] = delta.blocks_read
        rows.append([
            num_docs, delta.reads, delta.blocks_read, f"{elapsed * 1000:.1f}",
        ])
    emit_table(
        "E12a: mount cost vs corpus size",
        ["docs", "device reads", "blocks read", "mount ms"],
        rows,
    )
    # The mount reads index pages plus a fixed journal scan, so blocks read
    # per document can only fall as the corpus grows.
    smallest, largest = CORPUS_SIZES[0], CORPUS_SIZES[-1]
    assert blocks[largest] / largest <= blocks[smallest] / smallest

    # Benchmark the steady-state mount for the timing report.
    device, probes = _build_device(smallest)
    snapshot = device.dump()

    def mount_once():
        image = BlockDevice(num_blocks=device.num_blocks,
                            block_size=device.block_size)
        image.load(snapshot)
        return HFADFileSystem.mount(image, query_cache_entries=0)

    benchmark(mount_once)


def test_mount_cost_tracks_metadata_not_data(benchmark):
    """Padding content 4x leaves the mount's reads flat."""
    num_docs = CORPUS_SIZES[0]
    rows = []
    blocks = {}
    for pad_label, repeats in (("1x", CONTENT_REPEATS), ("4x", PADDED_REPEATS)):
        device, probes = _build_device(num_docs, content_repeats=repeats)
        elapsed, delta = _measure_mount(device, probes)
        blocks[pad_label] = delta.blocks_read
        rows.append([pad_label, delta.reads, delta.blocks_read,
                     f"{elapsed * 1000:.1f}"])
    emit_table(
        f"E12b: mount cost vs content volume ({num_docs} docs, same vocabulary)",
        ["content", "device reads", "blocks read", "mount ms"],
        rows,
    )
    # Same postings either way: the mount's traffic is independent of
    # content volume (slack for extent-tree geometry).
    assert blocks["4x"] - blocks["1x"] <= 8

    def mount_padded():
        return _measure_mount(device, probes)

    benchmark(mount_padded)
