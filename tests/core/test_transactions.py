"""``fs.begin()``: a group of operations as one WAL transaction."""

import pytest

from repro.core import HFADFileSystem
from repro.errors import RecoveryError
from repro.storage import BlockDevice


class TestWalBracket:
    """On a device, a group is one WAL transaction."""

    def make_fs(self):
        device = BlockDevice(num_blocks=1 << 14, block_size=512)
        return HFADFileSystem(
            device=device, btree_on_device=True,
            journal_blocks=127, cache_pages=64,
        )

    def test_group_commits_as_one_wal_transaction(self):
        fs = self.make_fs()
        oid = fs.create(b"object")
        committed_before = fs.recovery.stats.transactions_committed
        with fs.begin():
            fs.tag(oid, "UDEF", "a")
            fs.tag(oid, "UDEF", "b")
        # Exactly one outermost WAL transaction for the whole group.
        assert fs.recovery.stats.transactions_committed == committed_before + 1
        assert fs.find(("UDEF", "a"), ("UDEF", "b")) == [oid]

    def test_a_group_may_touch_every_tree_in_any_order(self):
        # The group holds all three trees, so an image index before a
        # content create (image ranks above fulltext) is no lock-order error.
        fs = self.make_fs()
        photo = fs.create(b"photo", index_content=False)
        with fs.begin():
            fs.index_image(photo, [1, 0, 0, 0, 0, 0, 0, 0])
            oid = fs.create(b"caption words")
            assert fs.search_text("caption") == [oid]
        assert not fs.recovery.poisoned
        assert fs.search_text("caption") == [oid]

    def test_abort_before_logging_is_a_clean_no_op(self):
        fs = self.make_fs()
        oid = fs.create(b"object")
        with pytest.raises(RuntimeError):
            with fs.begin():
                raise RuntimeError("changed my mind before doing anything")
        assert not fs.recovery.poisoned
        fs.tag(oid, "UDEF", "still-works")
        assert fs.find(("UDEF", "still-works")) == [oid]


def test_volatile_mode_refuses_a_group():
    # In-memory trees have no log to make a group atomic with: refuse
    # instead of silently giving no atomicity.
    with HFADFileSystem() as fs:
        with pytest.raises(RecoveryError, match="btree_on_device"):
            fs.begin()
