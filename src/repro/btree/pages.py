"""Page stores: where B+-tree nodes live.

The tree itself only speaks in page ids.  Two backends are provided:

* :class:`InMemoryPageStore` — nodes kept as Python objects; used for
  standalone indexes (the degraded-mode rescue, the FFS baseline's desktop
  search) and for fast unit testing of tree logic.
* :class:`DevicePageStore` — each page is :data:`PAGE_BYTES` of blocks obtained
  from a :class:`~repro.storage.buddy.BuddyAllocator` on a
  :class:`~repro.storage.block_device.BlockDevice`.  Nodes are serialized via
  :mod:`repro.btree.node` and every page-in and write-back is device I/O, so
  experiments that count index traversals (E1) see real block traffic.

Device pages live in a :class:`~repro.cache.buffer_pool.BufferPool`
(``repro.cache``) the caller supplies; several stores may share one global
page budget (the OSD does this for its master and index btrees).
Node writes are buffered dirty in the pool and reach the device on eviction
or :meth:`DevicePageStore.flush` — the classic write-behind buffer cache.

When a :class:`~repro.recovery.manager.RecoveryManager` is attached, every
node write is logged to the WAL *before* it is buffered, pages are stamped
with the record's LSN, and pages dirtied by an open transaction are pinned
until it resolves (no-steal).  Without one the store is plain unlogged
write-back.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

from repro.cache.buffer_pool import BufferPool, PoolConsumer
from repro.errors import BTreeError, CorruptionError
from repro.integrity.checksum import FRAME_OVERHEAD, frame_page, verify_frame
from repro.storage.block_device import PAGE_BYTES, BlockDevice
from repro.storage.buddy import BuddyAllocator
from repro.btree.node import decode_node
from repro.opcontext import current_operation


class PageStore:
    """Interface for node storage backends."""

    #: number of node reads served (cache hits included).
    reads: int
    #: number of node writes performed.
    writes: int

    def allocate(self) -> int:
        """Reserve a page id for a new node."""
        raise NotImplementedError

    def read(self, page_id: int):
        """Return the node stored at ``page_id``."""
        raise NotImplementedError

    def write(self, page_id: int, node) -> None:
        """Persist ``node`` at ``page_id``."""
        raise NotImplementedError

    def free(self, page_id: int) -> None:
        """Release ``page_id``."""
        raise NotImplementedError

    def reset_counters(self) -> None:
        self.reads = 0
        self.writes = 0


class InMemoryPageStore(PageStore):
    """Node storage in a plain dict; no serialization, no device traffic."""

    def __init__(self) -> None:
        self._pages: Dict[int, object] = {}
        self._next_id = 1
        self.reads = 0
        self.writes = 0

    def allocate(self) -> int:
        page_id = self._next_id
        self._next_id += 1
        self._pages[page_id] = None
        return page_id

    def read(self, page_id: int):
        self.reads += 1
        try:
            node = self._pages[page_id]
        except KeyError:
            raise BTreeError(f"page {page_id} does not exist")
        if node is None:
            raise BTreeError(f"page {page_id} allocated but never written")
        return node

    def write(self, page_id: int, node) -> None:
        if page_id not in self._pages:
            raise BTreeError(f"page {page_id} was never allocated")
        self.writes += 1
        self._pages[page_id] = node

    def free(self, page_id: int) -> None:
        # Freeing an unknown page is a logic error in the tree.
        if page_id not in self._pages:
            raise BTreeError(f"page {page_id} is not allocated")
        del self._pages[page_id]

    @property
    def live_pages(self) -> int:
        return len(self._pages)


class DevicePageStore(PageStore):
    """Pages persisted to a block device through the buddy allocator.

    :param device: shared block device.
    :param allocator: buddy allocator managing the region pages come from.
    :param buffer_pool: the :class:`~repro.cache.buffer_pool.BufferPool` that
        holds this store's pages, possibly shared with other stores.
    :param name: consumer name under which pool statistics are reported.
    :param recovery: optional :class:`~repro.recovery.manager.RecoveryManager`;
        when set, every node write is WAL-logged before it is buffered.
    :param integrity: optional :class:`~repro.integrity.IntegrityContext`
        shared across the filesystem's stores — supplies the retrying
        device-read path, the corruption counters and the page quarantine.
    """

    def __init__(
        self,
        device: BlockDevice,
        allocator: BuddyAllocator,
        buffer_pool: BufferPool,
        name: str = "btree",
        recovery=None,
        integrity=None,
    ) -> None:
        if PAGE_BYTES % device.block_size:
            raise ValueError(
                f"a {PAGE_BYTES}-byte page is not a whole number of "
                f"{device.block_size}-byte blocks"
            )
        self.device = device
        self.allocator = allocator
        self.page_blocks = PAGE_BYTES // device.block_size
        self.integrity = integrity
        #: ``page_bytes`` is the *node* budget: every page is wrapped in a
        #: CRC32 frame (:mod:`repro.integrity.checksum`), verified on
        #: page-in and stamped on every write, log record and write-back.
        self.page_bytes = PAGE_BYTES - FRAME_OVERHEAD
        self.pool = buffer_pool
        self.recovery = recovery
        #: this store's slice of the pool.
        self._consumer: PoolConsumer = buffer_pool.register(
            name, writeback=self._write_page
        )
        self.reads = 0
        self.writes = 0

    # Page ids are the absolute device block address of the page's first block.

    def allocate(self) -> int:
        page_id = self.allocator.allocate(self.page_blocks)
        if self.recovery is not None:
            # The home holds a previous owner's bytes: no base for a delta.
            self.recovery.journal.mark_allocated(page_id)
        return page_id

    def read(self, page_id: int):
        self.reads += 1
        cached = self._consumer.get(page_id)
        if cached is not None:
            # A resident node never re-verifies: it was verified on page-in
            # (or produced by this session's own writes), and it is the
            # scrubber's first repair source for a page whose *device* bytes
            # have since rotted.
            return cached
        if self.integrity is not None and self.integrity.is_quarantined(page_id):
            # Fail fast: the device bytes are known-bad and unrepaired.
            self.integrity.stats.quarantined_reads += 1
            raise CorruptionError(f"page {page_id} is quarantined")
        if self.integrity is not None:
            raw = self.integrity.read_blocks(self.device, page_id, self.page_blocks)
        else:
            raw = self.device.read_blocks(page_id, self.page_blocks)
        op = current_operation()
        if op is not None:
            op.pages_read += 1  # a real device page-in (cache hits returned above)
        if self.integrity is not None:
            self.integrity.stats.checksum_verifications += 1
        try:
            raw = verify_frame(raw, context=f"page {page_id}")
        except CorruptionError:
            if self.integrity is not None:
                self.integrity.stats.checksum_failures += 1
                # Remember the damage: re-reads fail fast, the query
                # layer can degrade, and the scrubber knows to repair.
                self.integrity.quarantine_page(page_id)
            raise
        node = decode_node(raw)
        self._consumer.put(page_id, node)
        return node

    def write(self, page_id: int, node) -> None:
        # Validate the encoded size up front although the device write is
        # deferred — an oversized node must fail at write(), not at eviction.
        encoded = node.encode()
        if len(encoded) > self.page_bytes:
            # The tree splits by bytes, so a node this big holds one entry
            # (or separator) no split can shrink.
            at = max(range(len(node.keys)), key=node.entry_size)
            raise BTreeError(
                f"entry {node.keys[at][:32]!r} of {node.entry_size(at)} bytes "
                f"does not fit a page of {self.page_bytes} bytes "
                f"(encoded node: {len(encoded)} bytes)"
            )
        self.writes += 1
        lsn = None
        if self.recovery is not None:
            # Write-ahead: the redo record exists before the page is even
            # buffered, so no path to the device can overtake it.  The
            # *framed* bytes are logged, so replay (and the scrubber's WAL
            # repair) rewrite exactly what a healthy write-back would.
            lsn = self.recovery.log_page(page_id, frame_page(encoded))
        if self.integrity is not None:
            # A fresh logged write supersedes any rotten on-device bytes:
            # reads now come from the pool and the WAL holds the new image.
            self.integrity.release_page(page_id)
        self._consumer.put(page_id, node, dirty=True, lsn=lsn)
        if self.recovery is not None:
            # No-steal: keep the uncommitted image out of home locations.
            self.recovery.protect(self._consumer, page_id)

    def free(self, page_id: int) -> None:
        if self.integrity is not None:
            # A freed (possibly quarantined) page must not block the block's
            # next life as a data chunk or another tree's page.
            self.integrity.release_page(page_id)
        if self.recovery is not None:
            self.recovery.forget_page(self._consumer, page_id)
            # Revoke the page's logged history: its block may be re-used for
            # unlogged data, which a replay of stale images would corrupt.
            self.recovery.log_revoke(page_id)
        self._consumer.invalidate(page_id)
        if self.recovery is not None:
            # The block may be recycled for *unlogged* object data; hold it
            # until the freeing transaction's commit marker is durable, or a
            # crash could resurrect a tree whose page bytes were overwritten.
            # A partial, not a lambda: fsck reads which block is pending.
            self.recovery.on_durable(partial(self.allocator.free, page_id))
        else:
            self.allocator.free(page_id)

    def _write_page(self, page_id: int, node) -> None:
        """Buffer-pool write-back target: persist a (dirty) node."""
        self.device.write_blocks(
            page_id, frame_page(node.encode()), nblocks=self.page_blocks
        )
        op = current_operation()
        if op is not None:
            # Charged to whichever operation forced the write-back (eviction
            # or checkpoint) — deferred I/O is attributed where it happens.
            op.pages_written += 1
        if self.integrity is not None:
            # The device now holds verified-good bytes for this page.
            self.integrity.release_page(page_id)

    # ------------------------------------------------------------ scrub hooks

    def resident_node(self, page_id: int):
        """The pool-resident node for ``page_id`` without any cache
        side-effects, or ``None`` — the scrubber's repair-source probe."""
        return self._consumer.peek(page_id)

    def page_is_dirty(self, page_id: int) -> bool:
        """True when the pool holds an unflushed (dirty) copy of the page.

        Under no-force write-back the device bytes of a dirty page are
        legitimately stale — the WAL holds the authoritative image — so the
        scrubber skips verifying them rather than "repairing" ordinary
        not-yet-checkpointed state.
        """
        return self._consumer.is_dirty(page_id)

    def rewrite_resident(self, page_id: int) -> bool:
        """Rewrite a resident page's device bytes from its pooled node.

        The scrubber's cache repair: a dirty frame is flushed through the
        pool (the WAL rule applies as usual); a clean frame — whose value is
        by definition the last committed, previously written-back image — is
        re-encoded and written home directly.  Returns False when the page
        is not resident.
        """
        if self.pool.flush_page(self._consumer, page_id):
            return True
        node = self._consumer.peek(page_id)
        if node is None:
            return False
        self._write_page(page_id, node)
        return True

    # ------------------------------------------------------------ cache mgmt

    def flush(self) -> int:
        """Write back every dirty page this store holds; returns the count."""
        return self._consumer.flush()

    def drop_cache(self) -> None:
        """Empty this store's slice of the pool (used between bench phases).

        Dirty pages are written back first, so no updates are lost.
        """
        self._consumer.drop_all(write_back=True)

    # ---------------------------------------------------------- diagnostics

    @property
    def cache_hits(self) -> int:
        return self._consumer.stats.hits

    @property
    def cache_misses(self) -> int:
        return self._consumer.stats.misses
