"""Torn writes meet checksum frames: torn is *detected*, never valid.

A multi-block page write that tears (a prefix of its blocks reaches the
platter) leaves bytes that are neither the old nor the new page.  Before
checksums such a page decoded as garbage — or worse, as a plausible node.
With frames the tear is a checksum mismatch: page-in refuses it, the
scrubber repairs or quarantines it, and mount-time replay (which logs whole
framed images) rewrites it byte-exact.
"""

import random

import pytest

from repro.btree import PAGE_BYTES
from repro.btree.node import LeafNode
from repro.core import HFADFileSystem
from repro.errors import CorruptionError
from repro.integrity import FRAME_OVERHEAD, frame_page, verify_frame
from repro.recovery import CrashError, CrashingBlockDevice


class TestTornFrameDetection:
    def test_torn_multiblock_frame_fails_verification(self):
        # Craft the at-rest state a torn 4-block page write leaves behind:
        # new frame in the first blocks, stale bytes in the rest.
        block_size = 512
        node = LeafNode(
            keys=[f"key{i:04d}".encode() for i in range(60)],
            values=[b"v" * 20 for _ in range(60)],
            next_leaf=0,
        )
        new = frame_page(node.encode())
        assert len(new) > 2 * block_size, "payload must span blocks to tear"
        old = frame_page(b"older page image " * 40)
        for survived in (1, 2, 3):
            torn = new[: survived * block_size] + old[survived * block_size:]
            torn = torn[: 4 * block_size].ljust(4 * block_size, b"\x00")
            with pytest.raises(CorruptionError):
                verify_frame(torn)

    def test_clean_prefix_of_zeroes_fails_verification(self):
        # The other tear shape: the new frame's tail blocks, old bytes never
        # written (zeroes) in front — the magic itself is gone.
        new = frame_page(b"page image " * 200)
        torn = (b"\x00" * 512) + new[512:]
        with pytest.raises(CorruptionError):
            verify_frame(torn)


class TestCrashTornPages:
    """End-to-end: tear real page writes, then audit recovery + scrub."""

    def _workload(self, fs, count=10):
        return [
            fs.create(
                content=f"crash torture words number{i}".encode(),
                path=f"/c/{i}.txt",
            )
            for i in range(count)
        ]

    def test_torn_checkpoint_write_is_healed_by_replay(self):
        # Tear a write during the checkpoint's home-location flush: replay
        # must restore a fully framed page, and the scrub audit must find
        # nothing left to repair.
        for crash_at in range(0, 12, 3):
            device = CrashingBlockDevice(num_blocks=1 << 14, block_size=512)
            fs = HFADFileSystem(device=device, btree_on_device=True,
                                journal_blocks=511, query_cache_entries=0)
            oids = self._workload(fs)
            device.plan_crash(crash_at, torn_rng=random.Random(crash_at))
            try:
                fs.checkpoint()
            except CrashError:
                pass
            else:
                device.disarm()
                continue  # checkpoint finished before the crash point
            mounted = HFADFileSystem.mount(device.surviving_image())
            assert mounted.search_text("torture") == oids
            scrub = mounted.scrub()
            assert scrub.quarantined == 0, scrub.errors
            assert scrub.repaired == 0, scrub.errors
            assert not scrub.errors
            mounted.close()

    def test_torn_page_write_never_reads_as_valid_different_data(self):
        # Whatever bytes a torn page write leaves, a page-in of them must
        # either verify byte-exact with a committed image or refuse — no
        # third outcome.  Crash across many points; on each surviving image
        # every reachable page either verifies or is repaired/quarantined by
        # scrub, and queries never return wrong answers.
        for crash_at in range(2, 26, 4):
            device = CrashingBlockDevice(num_blocks=1 << 14, block_size=512)
            fs = HFADFileSystem(device=device, btree_on_device=True,
                                journal_blocks=511, query_cache_entries=0)
            device.plan_crash(crash_at, torn_rng=random.Random(crash_at * 7))
            oids = []
            try:
                oids = self._workload(fs)
                fs.checkpoint()
            except CrashError:
                pass
            else:
                device.disarm()
                continue
            mounted = HFADFileSystem.mount(device.surviving_image())
            committed = [oid for oid in oids if mounted.exists(oid)]
            result = mounted.search_text("torture")
            assert set(result) >= set(committed)
            scrub = mounted.scrub()
            assert scrub.quarantined == 0, scrub.errors
            mounted.close()


class TestFrameOverheadAccounting:
    def test_page_capacity_shrinks_by_frame_overhead(self):
        device = CrashingBlockDevice(num_blocks=1 << 14, block_size=512)
        fs = HFADFileSystem(device=device, btree_on_device=True)
        store = fs.objects._master.store
        assert store.page_bytes == PAGE_BYTES - FRAME_OVERHEAD
        assert store.page_blocks * device.block_size == PAGE_BYTES
        fs.close()
