"""Fixtures shared across the test tree."""

import struct
from dataclasses import dataclass

import pytest

from repro.btree import BPlusTree, DevicePageStore
from repro.cache import BufferPool
from repro.integrity import IntegrityContext
from repro.recovery import RecoveryManager
from repro.storage import BlockDevice, BuddyAllocator

try:
    from hypothesis import HealthCheck, Phase, settings
except ImportError:  # lanes that run no property test do not install it
    pass
else:
    # The torture machine's CI intensity (tests/test_torture.py), loaded with
    # ``--hypothesis-profile=torture-ci``; the seed is ``--hypothesis-seed``.
    settings.register_profile(
        "torture-ci", max_examples=108, stateful_step_count=30, deadline=None,
        phases=[Phase.generate, Phase.shrink], report_multiple_bugs=False,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

_EXTENT_PREFIX = b"\xffE"


@pytest.fixture
def extent_leaf():
    """``extent_leaf(fs, oid) -> (page_id, oids)``: the master-tree leaf that
    holds ``oid``'s extent run, and every oid with extents in that leaf.

    An object's extents are the master-tree keys ``\\xffE | oid | D | offset``,
    so a fault aimed at an object's extent map is aimed at this page.
    """

    def find(fs, oid):
        master = fs.objects._master
        prefix = _EXTENT_PREFIX + struct.pack(">Q", oid)
        first = master.cursor(prefix=prefix).first()
        assert first is not None, f"object {oid} has no extents"
        page_id, leaf, _upper = master._find_leaf(first[0])
        assert all(key in leaf.keys for key, _ in master.cursor(prefix=prefix)), (
            f"object {oid}'s extent run spans leaves"
        )
        oids = {
            struct.unpack_from(">Q", key, len(_EXTENT_PREFIX))[0]
            for key in leaf.keys
            if key.startswith(_EXTENT_PREFIX)
        }
        return page_id, oids

    return find


@dataclass
class LoggedStack:
    """A device page store in the engine's one configuration: a recovery
    manager whose WAL hook is on the pool, an allocator with the superblock
    and journal reserved, and an integrity context.

    Page writes join the manager's transactions (there is no autocommit):
    bracket tree mutations in ``stack.recovery.transaction()``, and commit
    before ``flush`` / ``drop_cache``.  The journal must hold the largest
    transaction's frame; pinned pages may overflow the pool meanwhile.
    """

    device: BlockDevice
    recovery: RecoveryManager
    pool: BufferPool
    allocator: BuddyAllocator
    integrity: IntegrityContext
    store: DevicePageStore

    def page_store(self, name="t2", pool=None) -> DevicePageStore:
        """Another store over this stack's device, allocator and WAL, on
        ``pool`` (the stack's when omitted; a cold pool reads the device)."""
        return DevicePageStore(self.device, self.allocator, pool or self.pool,
                               self.recovery, self.integrity, name=name)

    def tree(self, store=None, **kwargs) -> BPlusTree:
        """A new tree over ``store`` (this stack's when omitted); its first
        page is written in a transaction of its own."""
        with self.recovery.transaction():
            return BPlusTree(store=store or self.store, **kwargs)


def make_logged_stack(cache_pages=8, journal_blocks=32, group_commit=1,
                      num_blocks=1 << 12, block_size=512, name="t") -> LoggedStack:
    device = BlockDevice(num_blocks=num_blocks, block_size=block_size)
    recovery = RecoveryManager(device, journal_start=1, journal_blocks=journal_blocks,
                               group_commit=group_commit)
    pool = BufferPool(capacity=cache_pages)
    recovery.attach_pool(pool)
    allocator = BuddyAllocator(total_blocks=num_blocks, base=0)
    allocator.reserve(0, 1 + journal_blocks)
    integrity = IntegrityContext()
    store = DevicePageStore(device, allocator, pool, recovery, integrity, name=name)
    return LoggedStack(device, recovery, pool, allocator, integrity, store)


@pytest.fixture(scope="session")
def logged_stack():
    """``logged_stack(cache_pages=8, journal_blocks=32, group_commit=1,
    num_blocks=4096, block_size=512) -> LoggedStack``: a fresh page store
    over a fresh device, logged like the engine's."""
    return make_logged_stack
