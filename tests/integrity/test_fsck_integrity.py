"""fsck's integrity checks: superblock, journal region, quarantine.

fsck *reports* damage — it must never raise, whatever the device holds.
"""

from repro.core import HFADFileSystem
from repro.recovery.superblock import SUPERBLOCK_BLOCK
from repro.storage import BlockDevice


def make_fs():
    device = BlockDevice(num_blocks=1 << 14)
    fs = HFADFileSystem(device=device)
    fs.create(b"fsck probe content", path="/probe.txt")
    fs.checkpoint()
    return device, fs


class TestSuperblockChecks:
    def test_clean_superblock_passes(self):
        _device, fs = make_fs()
        report = fs.fsck()
        assert report["clean"], report["errors"]
        fs.close()

    def test_flipped_superblock_bit_is_reported_not_raised(self):
        device, fs = make_fs()
        device.flip_bit(SUPERBLOCK_BLOCK, 130)  # inside the JSON payload
        report = fs.fsck()
        assert not report["clean"]
        assert any("superblock" in error for error in report["errors"])
        fs.close()

    def test_zeroed_superblock_is_reported(self):
        device, fs = make_fs()
        device.write_block(SUPERBLOCK_BLOCK, b"\x00" * device.block_size)
        report = fs.fsck()
        assert any("superblock" in error for error in report["errors"])
        fs.close()


class TestJournalRegionChecks:
    def test_clean_journal_region_matches_memory(self):
        _device, fs = make_fs()
        fs.create(b"logged but not yet checkpointed", path="/tail.txt")
        report = fs.fsck()
        assert report["clean"], report["errors"]
        assert report["journal_region"]["matches_memory"]
        fs.close()

    def test_corrupted_journal_header_is_reported(self):
        device, fs = make_fs()
        # Put fresh records in the journal, then damage the header region
        # on the device behind the journal's back.
        fs.create(b"a transaction in the journal tail", path="/t.txt")
        journal_start = fs.recovery.journal.journal_start
        device.flip_bit(journal_start, 3)
        report = fs.fsck()
        assert not report["clean"]
        assert any("journal" in error for error in report["errors"])
        assert not report["journal_region"]["matches_memory"]
        fs.close()


class TestQuarantineReporting:
    def test_quarantined_pages_listed(self):
        device, fs = make_fs()
        tree = fs._fulltext_tree
        tree.store._consumer.drop_all(write_back=True)
        device.flip_bit(tree.root_id, 40)
        fs.scrub()
        report = fs.fsck()
        assert not report["clean"]
        assert report["quarantined_pages"] == [tree.root_id]
        assert any("quarantined" in error for error in report["errors"])
        fs.close()


class TestAllocatorCrossCheck:
    """fsck rebuilds occupancy from every reachable page and chunk and
    compares it with the live allocator."""

    def test_a_healthy_filesystem_has_no_occupancy_errors(self):
        # Group commit leaves the delete's marker buffered: its chunk is
        # unreachable but still allocated, waiting on a deferred free.  The
        # content is over the inline limit, so each object has a chunk.
        fs = HFADFileSystem(device=BlockDevice(num_blocks=1 << 14), group_commit=64)
        pad = b"." * (fs.objects.inline_limit + 1)
        for serial in range(30):
            fs.create(f"occupancy probe {serial}".encode() + pad, path=f"/o/{serial}.txt")
        fs.delete(fs.lookup_path("/o/3.txt"))
        assert fs.recovery.deferred_actions()
        report = fs.fsck()
        assert report["clean"], report["errors"]
        fs.close()

    def test_an_overwrite_and_a_truncate_leak_no_chunk(self):
        # The extent map is the only record of an object's chunks: a chunk
        # no extent names any more is freed, not held until the delete.
        _device, fs = make_fs()
        rewritten = fs.create(b"x" * 5000)
        fs.write(rewritten, 0, b"y" * 5000)
        emptied = fs.create(b"z" * 100)
        fs.truncate(emptied, 0, 100)
        report = fs.fsck()
        assert report["clean"], report["errors"]
        assert fs.read(rewritten) == b"y" * 5000 and fs.read(emptied) == b""
        fs.close()

    def test_a_freed_reachable_page_and_a_leaked_block_are_both_named(self):
        _device, fs = make_fs()
        allocator = fs.objects.allocator
        leaked = allocator.allocate(1)
        page = fs._fulltext_tree.root_id
        allocator.free(page)  # behind the tree's back: still reachable
        errors = fs.fsck()["errors"]
        assert any(f"reachable block {page} is not allocated" in e for e in errors), errors
        assert any(f"leak: block {leaked} " in e for e in errors), errors
        fs.close()


def journal_blocks_read(device, journal, call):
    """Journal-region blocks ``call()`` reads from ``device``; returns
    ``(blocks, call's result)``."""
    reads = []
    read_blocks = device.read_blocks

    def logged(block, nblocks):
        reads.append((block, nblocks))
        return read_blocks(block, nblocks)

    device.read_blocks = logged
    try:
        result = call()
    finally:
        del device.read_blocks
    start, end = journal.journal_start, journal.journal_start + journal.journal_blocks
    blocks = sum(max(0, min(block + n, end) - max(block, start)) for block, n in reads)
    return blocks, result


class TestJournalReads:
    """fsck reads the journal in proportion to what it holds, not the region."""

    def test_fsck_of_a_checkpointed_filesystem_reads_at_most_two_journal_blocks(self):
        device, fs = make_fs()
        blocks, report = journal_blocks_read(device, fs.recovery.journal, fs.fsck)
        assert report["clean"], report["errors"]
        assert 1 <= blocks <= 2
        fs.close()

    def test_fsck_reads_the_flushed_tail_not_the_region(self):
        device, fs = make_fs()
        fs.create(b"a transaction in the journal tail", path="/t.txt")
        journal = fs.recovery.journal
        used = -(-journal.bytes_used // device.block_size)
        blocks, report = journal_blocks_read(device, journal, fs.fsck)
        assert report["clean"], report["errors"]
        # The scan's growing runs read at most 2 * used + 1 blocks, the
        # comparison with the in-memory log exactly ``used``.
        assert used < blocks <= 3 * used + 1 < journal.journal_blocks
        fs.close()


class TestTreeShapes:
    """fsck reports each tree's shape from the invariant walk it makes."""

    @staticmethod
    def trees(fs):
        return {"master": fs.objects._master, "content": fs.objects._content,
                "fulltext": fs._fulltext_tree, "image": fs._image_tree}

    def test_each_tree_reports_its_leaves_inner_nodes_and_fill(self, monkeypatch):
        fs = HFADFileSystem(device=BlockDevice(num_blocks=1 << 15))
        for number in range(200):
            fs.create(f"document {number} of words w{number} ".encode() * 8,
                      path=f"/d/{number}")
        fs.checkpoint()
        walks = dict.fromkeys(self.trees(fs), 0)
        for name, tree in self.trees(fs).items():
            def counted(walk=tree.check_invariants, name=name):
                walks[name] += 1
                return walk()
            monkeypatch.setattr(tree, "check_invariants", counted)
        shapes = fs.fsck()["trees"]
        assert walks == dict.fromkeys(walks, 1)  # one walk per tree, no second
        for name, tree in self.trees(fs).items():
            nodes, stack = [], [tree.root_id]
            while stack:
                nodes.append(tree.store.read(stack.pop()))
                stack.extend([] if nodes[-1].is_leaf else nodes[-1].children)
            leaves = [node for node in nodes if node.is_leaf]
            fill = sum(leaf.nbytes for leaf in leaves) / (len(leaves) * tree.node_byte_limit)
            assert shapes[name] == {"leaves": len(leaves), "inner": len(nodes) - len(leaves),
                                    "fill": round(fill, 3)}, name
        assert shapes["master"]["inner"] >= 1 and shapes["content"]["leaves"] > 1
        fs.close()

    def test_a_tree_failing_its_walk_reports_an_error_and_no_shape(self, monkeypatch):
        _device, fs = make_fs()

        def broken():
            raise AssertionError("leaf keys unsorted")

        monkeypatch.setattr(fs._image_tree, "check_invariants", broken)
        report = fs.fsck()
        assert "image index: leaf keys unsorted" in report["errors"]
        assert sorted(report["trees"]) == ["content", "fulltext", "master"]
        fs.close()
