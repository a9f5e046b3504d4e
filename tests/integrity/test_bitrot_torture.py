"""Randomized bit-rot torture: no corruption may silently change an answer.

The contract under test is the integrity subsystem's reason to exist: for
hundreds of randomized single- and multi-bit corruptions of on-device btree
pages, every query outcome falls in exactly one of three buckets —

* **identical** to the uncorrupted twin image (the flip was repaired, hit
  frame padding, or the page was never consulted);
* **degraded**: answered via the object-content rescan fallback, equal to
  the twin's answer — or a flagged-partial *subset* of it when object bytes
  themselves are unreadable (never a superset, never different ids);
* **surfaced**: ``CorruptionError`` with the failing page identified.

A silently wrong answer — different from the twin without a partial flag or
an exception — fails the run.  After a scrub that repairs everything, the
device must also remount cleanly and answer byte-identically to the twin.

Knobs: ``BITROT_SEEDS`` (comma-separated), ``BITROT_FLIPS`` (corruptions
per seed).  Defaults exercise 2 × 110 = 220 corruptions per run.
"""

import os
import random
import struct

import pytest

from repro.btree.node import decode_node
from repro.core import HFADFileSystem
from repro.errors import CorruptionError
from repro.integrity import FRAME_MAGIC, FRAME_OVERHEAD, verify_frame
from repro.storage import BlockDevice
from repro.storage.journal import TYPE_HOME_DELTA

SEEDS = [int(s) for s in os.environ.get("BITROT_SEEDS", "1,2").split(",")]
FLIPS_PER_SEED = int(os.environ.get("BITROT_FLIPS", "110"))

WORDS = (
    "ember quartz falcon meadow cipher lantern orbit prism tundra velvet "
    "willow zephyr basalt cobalt drift echo"
).split()

PROBES = ("ember", "quartz", "falcon", "meadow", "nosuchword")


def build_image(seed):
    """One deterministic pristine image; returns (blocks, expected, oids)."""
    rng = random.Random(seed)
    device = BlockDevice(num_blocks=1 << 14)
    fs = HFADFileSystem(device=device,
                        query_cache_entries=0)
    oids = []
    for i in range(22):
        words = rng.sample(WORDS, rng.randint(3, 9))
        content = " ".join(words).encode()
        oid = fs.create(content, path=f"/obj/{i}.txt",
                        annotations=[f"note{i % 5}"])
        oids.append(oid)
    fs.tag(oids[0], "FULLTEXT", "handpicked")
    fs.checkpoint()
    expected = {probe: fs.search_text(probe) for probe in PROBES}
    expected["handpicked"] = fs.search_text("handpicked")
    fs.close()
    return device.dump(), expected, oids


def clone_device(blocks):
    device = BlockDevice(num_blocks=1 << 14)
    device.load(dict(blocks))
    return device


def reachable_pages(fs):
    """pid -> page_blocks for every reachable btree page, via raw reads."""
    pages = {}
    for store, root in fs.objects.scrub_sources():
        stack = [root]
        while stack:
            pid = stack.pop()
            if pid in pages:
                continue
            pages[pid] = store.page_blocks
            if store.page_is_dirty(pid):
                node = store.resident_node(pid)
            else:
                raw = fs.device.read_blocks(pid, store.page_blocks)
                node = decode_node(verify_frame(raw))
            if node is not None and not node.is_leaf:
                stack.extend(node.children)
    return pages


def framed_length(device, pid, page_blocks):
    """Bytes of the page covered by its checksum frame, or None."""
    raw = device.read_blocks(pid, page_blocks)
    if raw[: len(FRAME_MAGIC)] != FRAME_MAGIC:
        return None
    (payload_len,) = struct.unpack(
        ">I", raw[len(FRAME_MAGIC): len(FRAME_MAGIC) + 4])
    total = FRAME_OVERHEAD + payload_len
    return total if total <= len(raw) else None


def corrupt(device, rng, pid, page_blocks):
    """Apply one randomized corruption inside the page's blocks.

    Most corruptions are aimed inside the framed (checksummed) region so the
    run actually exercises detection; a slice stays fully random, landing
    mostly in padding — those must be harmless, never silently wrong.
    """
    block_size = device.block_size
    total = framed_length(device, pid, page_blocks)

    def flip_in_frame():
        offset = rng.randrange(total)
        device.flip_bit(pid + offset // block_size,
                        (offset % block_size) * 8 + rng.randrange(8))

    mode = rng.random()
    if total is None or mode < 0.15:  # anywhere in the page, often padding
        block = pid + rng.randrange(page_blocks)
        device.flip_bit(block, rng.randrange(block_size * 8))
    elif mode < 0.55:  # single bit inside the frame
        flip_in_frame()
    elif mode < 0.85:  # multi-bit burst inside the frame
        for _ in range(rng.randint(2, 8)):
            flip_in_frame()
    else:  # garbage run inside the frame, clipped to one block
        offset = rng.randrange(max(1, total - 8))
        block, block_offset = pid + offset // block_size, offset % block_size
        garbage = bytes(rng.randrange(256)
                        for _ in range(rng.randint(4, 48)))
        device.corrupt_bytes(block, block_offset,
                             garbage[: block_size - block_offset])


def run_battery(fs, expected):
    """Probe queries; returns (wrong, surfaced) — wrong must stay empty."""
    wrong = []
    surfaced = 0
    for probe, want in expected.items():
        stats = fs.integrity.stats
        partial_before = stats.partial_results
        try:
            got = fs.search_text(probe)
        except CorruptionError:
            surfaced += 1
            continue
        if got == want:
            continue
        if stats.partial_results > partial_before and set(got) <= set(want):
            continue  # flagged partial, no invented ids
        wrong.append((probe, got, want))
    # Ranked retrieval must agree on membership with the twin as well.
    try:
        hits = {hit.doc_id for hit in fs.rank("ember", limit=None)}
    except CorruptionError:
        surfaced += 1
    else:
        stats = fs.integrity.stats
        if hits != set(expected["ember"]):
            if not (stats.partial_results and hits <= set(expected["ember"])):
                wrong.append(("rank:ember", sorted(hits), expected["ember"]))
    return wrong, surfaced


@pytest.mark.parametrize("seed", SEEDS)
def test_bitrot_torture(seed):
    blocks, expected, oids = build_image(seed)
    rng = random.Random(seed * 104729)
    outcomes = {"identical": 0, "degraded": 0, "partial": 0,
                "surfaced": 0, "remount_checked": 0, "detected": 0}
    for trial in range(FLIPS_PER_SEED):
        device = clone_device(blocks)
        fs = HFADFileSystem.mount(device, cache_pages=8,
                                  query_cache_entries=0)
        fs.integrity.sleep = lambda _s: None
        if rng.random() < 0.3:
            # Pre-corruption activity: fresh page images land in the WAL,
            # exercising the scrubber's WAL-repair source.  Skip oids[0]:
            # appending re-derives postings from content, which drops its
            # manual FULLTEXT tag and would invalidate the twin's battery.
            fs.append(rng.choice(oids[1:]), b" zzfiller")
        pages = reachable_pages(fs)
        pid = rng.choice(sorted(pages))
        corrupt(device, rng, pid, pages[pid])

        wrong, surfaced = run_battery(fs, expected)
        assert not wrong, (
            f"seed {seed} trial {trial}: silently wrong answers after "
            f"corrupting page {pid}: {wrong}"
        )
        scrub = fs.scrub()
        outcomes["detected"] += scrub.repaired + scrub.quarantined
        stats = fs.integrity.stats
        if surfaced:
            outcomes["surfaced"] += 1
        elif stats.partial_results:
            outcomes["partial"] += 1
        elif stats.degraded_queries:
            outcomes["degraded"] += 1
        else:
            outcomes["identical"] += 1

        quarantine_left = len(fs.integrity.quarantine)
        try:
            fs.close()
        except CorruptionError:
            quarantine_left = max(quarantine_left, 1)
        if not quarantine_left:
            # Everything repaired (or nothing detectable was hit): the
            # device must remount cleanly and match the twin exactly.
            mounted = HFADFileSystem.mount(device, cache_pages=8,
                                           query_cache_entries=0)
            for probe, want in expected.items():
                assert mounted.search_text(probe) == want, (
                    f"seed {seed} trial {trial}: post-repair remount "
                    f"diverges from twin on {probe!r}"
                )
            audit = mounted.scrub()
            assert audit.quarantined == 0 and not audit.errors, (
                f"seed {seed} trial {trial}: post-repair scrub: {audit.errors}"
            )
            mounted.close()
            outcomes["remount_checked"] += 1
    # The run must actually have exercised the machinery, not just padding:
    # scrubs detected (repaired or quarantined) real rot, and at least one
    # fully-repaired image survived the remount differential.
    assert outcomes["detected"] > 0
    assert outcomes["remount_checked"] > 0
    assert (outcomes["degraded"] + outcomes["partial"] + outcomes["surfaced"]
            + outcomes["identical"]) == FLIPS_PER_SEED


def home_delta_page(fs):
    """A page whose logged chain starts from its home: (store, pid)."""
    logged = [record.block for _txid, records in fs.recovery.journal.scan()
              for record in records if record.rtype == TYPE_HOME_DELTA]
    stores = {}
    for store, root in fs.objects.scrub_sources():
        stack = [root]
        while stack:
            pid = stack.pop()
            stores[pid] = store
            node = store.read(pid)
            if not node.is_leaf:
                stack.extend(node.children)
    return next((stores[pid], pid) for pid in logged if pid in stores)


def rot(device, pid):
    """Flip one bit inside the page's checksum frame."""
    offset = framed_length(device, pid, 1) // 2
    device.flip_bit(pid, offset * 8)


@pytest.mark.parametrize("resident", [True, False], ids=["pool", "no-pool"])
def test_rot_under_a_home_delta(resident):
    # The WAL holds no image of a page first touched after a checkpoint,
    # only a delta against its home: once that home rots, the log cannot
    # rebuild it, and the scrub repairs from the pool or surfaces the page.
    blocks, expected, oids = build_image(1)
    device = clone_device(blocks)
    fs = HFADFileSystem.mount(device, query_cache_entries=0)
    fs.integrity.sleep = lambda _s: None
    fs.append(oids[3], b" zzfiller")
    fs.buffer_pool.flush()  # the chain's last image is home, and clean
    store, pid = home_delta_page(fs)
    if not resident:
        for each, _root in fs.objects.scrub_sources():
            each.drop_cache()
    image = fs.recovery.journal.latest_page_image(pid)
    assert image is not None and verify_frame(image)
    rot(device, pid)
    assert fs.recovery.journal.latest_page_image(pid) is None
    scrub = fs.scrub()
    assert scrub.repaired_from_wal == 0
    if resident:
        assert scrub.repaired_from_cache == 1 and scrub.quarantined == 0
        assert device.read_blocks(pid, 1)[:len(image)] == image
    else:
        assert scrub.quarantined == 1 and pid in fs.integrity.quarantine
    wrong, _surfaced = run_battery(fs, expected)
    assert not wrong
