"""The object store: uniquely-identified, fully byte-accessible containers.

This is the hFAD OSD layer (paper Section 3.3/3.4):

* every object is identified by an integer OID;
* a master btree maps OIDs to their metadata ("we also use BDB Btrees to map
  unique object IDs (OID) to the meta-data for an object");
* each object's contents are described by an :class:`~repro.osd.extent_map.ExtentMap`
  — a run of keys in that same master btree, keyed by file offset, whose
  values are device extents (one tree per store, not one per object);
* besides POSIX-style ``read``/``write``, objects support ``insert`` (grow
  from the middle) and ``remove_range`` (the paper's two-argument truncate),
  both implemented as extent-map key manipulation with no data copying.

Data blocks come from a buddy allocator over the shared block device, so every
byte of object data is backed by simulated device blocks and shows up in the
device's I/O accounting.
"""

from __future__ import annotations

import struct
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.btree import BPlusTree, DevicePageStore, InMemoryPageStore
from repro.cache import BufferPool
from repro.errors import (
    InvalidRangeError,
    KeyNotFoundError,
    NoSuchObjectError,
    ObjectStoreError,
)
from repro.osd.extent_map import ExtentMap, ObjectExtent
from repro.osd.metadata import ObjectMetadata
from repro.storage import BlockDevice, BuddyAllocator

_OID = struct.Struct(">Q")

# The master tree holds three runs of keys, in this order:
#
# * ``oid`` (8 bytes) → the object's metadata record;
# * ``\xffE | oid | D | offset`` → one extent of the object's map;
# * ``\xffN | oid | name`` → one durable name entry (not inside the metadata
#   record: a heavily-tagged object would otherwise grow its metadata value
#   past any page size).
#
# ``\xff`` sorts after every 8-byte OID key, so a metadata scan ends there,
# and extents get a run of their own instead of fattening metadata leaves
# (label writes rewrite those).
_OID_END = b"\xff"
_EXTENT_PREFIX = b"\xffE"
_NAME_PREFIX = b"\xffN"

#: keys per node of the volatile (``btree_on_device=False``) trees, which have
#: no page to fill; on a device a node's bytes decide.
_VOLATILE_MAX_KEYS = 32


@dataclass
class ObjectStoreStats:
    """Operation counters the benchmarks report."""

    objects_created: int = 0
    objects_deleted: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    bytes_inserted: int = 0
    bytes_removed: int = 0
    extents_written: int = 0
    extents_shifted: int = 0


class ObjectStore:
    """The OSD: create, read, write, insert into and truncate objects.

    :param device: block device for object data; a private device is created
        when omitted.
    :param allocator: buddy allocator over ``device``; created when omitted.
    :param btree_on_device: persist the master btree (metadata, extent maps,
        name entries) on the device too (pages allocated from the same
        allocator).  Off by default so the common configuration charges
        *data* I/O to the device and keeps index pages in memory, mirroring a
        warmed metadata cache.
    :param max_extent_blocks: cap on a single extent's size; larger writes are
        split into several extents.
    :param buffer_pool: shared :class:`~repro.cache.BufferPool` for the
        master btree when ``btree_on_device`` is set; a private pool of the
        default size is created when omitted.
    :param recovery: optional :class:`~repro.recovery.manager.RecoveryManager`.
        When set, every public mutator runs as one WAL transaction (so a
        multi-page update — btree split, extent re-keying, create/delete —
        is atomic across a crash), btree page writes are logged, and the
        store is re-mountable via :meth:`mount`.
    """

    def __init__(
        self,
        device: Optional[BlockDevice] = None,
        allocator: Optional[BuddyAllocator] = None,
        btree_on_device: bool = False,
        max_extent_blocks: int = 1024,
        data_region_start: int = 0,
        buffer_pool: Optional[BufferPool] = None,
        recovery=None,
        integrity=None,
    ) -> None:
        if device is None:
            device = BlockDevice(num_blocks=1 << 16)
        if allocator is None:
            allocator = BuddyAllocator(
                total_blocks=device.num_blocks - data_region_start, base=data_region_start
            )
        self._init_shared_state(
            device,
            btree_on_device=btree_on_device,
            max_extent_blocks=max_extent_blocks,
            buffer_pool=buffer_pool,
            recovery=recovery,
            integrity=integrity,
        )
        self.allocator = allocator
        self._master = self._new_tree("osd.master", on_root_change=self._master_root_moved)

    def _init_shared_state(
        self,
        device: BlockDevice,
        *,
        btree_on_device: bool,
        max_extent_blocks: int,
        buffer_pool: Optional[BufferPool],
        recovery,
        integrity=None,
    ) -> None:
        """Field initialization shared by ``__init__`` and :meth:`mount`.

        The two construction paths used to duplicate ~15 assignments and had
        started to diverge; everything that must be identical between a
        fresh store and a re-mounted one lives here.  The allocator and the
        master tree stay with the callers — those are exactly what mkfs and
        mount build differently.
        """
        if max_extent_blocks <= 0:
            raise ValueError("max_extent_blocks must be positive")
        self.device = device
        self.btree_on_device = btree_on_device
        self.max_extent_blocks = max_extent_blocks
        self.stats = ObjectStoreStats()
        if btree_on_device and buffer_pool is None:
            buffer_pool = BufferPool()
        self.buffer_pool = buffer_pool
        self.recovery = recovery if btree_on_device else None
        #: shared integrity context (retrying reads, quarantine, counters).
        self.integrity = integrity if btree_on_device else None
        #: data chunk blocks per live object — one entry per live oid.
        self._chunks: Dict[int, Set[int]] = {}
        self._next_oid = 1
        self._clock = 0
        self._live_objects = 0
        self._pending_atime: Dict[int, int] = {}
        self._mount_inventory = None

    # ------------------------------------------------------------ mounting

    @classmethod
    def mount(
        cls,
        device: BlockDevice,
        recovery,
        buffer_pool: Optional[BufferPool] = None,
        max_extent_blocks: int = 1024,
        integrity=None,
    ) -> "ObjectStore":
        """Re-open a store from its recovered on-device state.

        ``recovery`` must already have replayed the journal: its ``state``
        holds the effective master root and next oid.  Everything else is
        rediscovered by one walk of the master tree — metadata records, name
        entries and extents, each extent naming its data chunk — and the walk
        doubles as fsck: allocator occupancy is rebuilt from reachable
        structures only, so space held by uncommitted (never-replayed)
        allocations is reclaimed for free.
        """
        state = recovery.state
        store = cls.__new__(cls)
        store._init_shared_state(
            device,
            btree_on_device=True,
            max_extent_blocks=max_extent_blocks,
            buffer_pool=buffer_pool,
            recovery=recovery,
            integrity=integrity,
        )
        store.allocator = BuddyAllocator(total_blocks=device.num_blocks, base=0)
        if state["data_region_start"]:
            store.allocator.reserve(0, state["data_region_start"])
        # One walk of the one tree does triple duty: reserve every reachable
        # page in the allocator, rebuild the element count (so BPlusTree
        # skips its own counting walk), and surface the leaf entries
        # (metadata records, extents, names) the rest of the mount needs.
        store._master = store._new_tree(
            "osd.master",
            root_id=state["master_root"],
            count=0,
            on_root_change=store._master_root_moved,
        )
        master_count, master_entries = store._reserve_tree_pages(
            store._master, collect=True
        )
        store._master._count = master_count
        # The same walk feeds the naming rebuild: metadata records and name
        # entries are handed to the filesystem layer via the mount inventory
        # instead of being re-read with fresh cursors.
        metadata_by_oid: Dict[int, ObjectMetadata] = {}
        names_by_oid: Dict[int, List[str]] = {}
        extents = []
        for key, raw in master_entries:
            if key < _OID_END:
                oid = _OID.unpack(key)[0]
                metadata = ObjectMetadata.from_bytes(raw)
                metadata_by_oid[oid] = metadata
                store._chunks[oid] = set()
                store._clock = max(
                    store._clock, metadata.created_at,
                    metadata.modified_at, metadata.accessed_at,
                )
            elif key.startswith(_EXTENT_PREFIX):
                extents.append((_OID.unpack_from(key, len(_EXTENT_PREFIX))[0], raw))
            elif key.startswith(_NAME_PREFIX):
                name_oid = _OID.unpack_from(key, len(_NAME_PREFIX))[0]
                names_by_oid.setdefault(name_oid, []).append(
                    key[len(_NAME_PREFIX) + _OID.size:].decode("utf-8")
                )
        # The walk is depth-first, not in key order: reserve data chunks once
        # every live object is known.
        for oid, raw in extents:
            chunks = store._chunks.get(oid)
            extent = ObjectExtent.decode(raw)
            if chunks is not None and extent.block not in chunks:
                chunks.add(extent.block)
                store.allocator.reserve(extent.block, extent.nblocks)
        store._next_oid = max(state["next_oid"], max(metadata_by_oid, default=0) + 1)
        store._live_objects = len(metadata_by_oid)
        store._mount_inventory = (metadata_by_oid, names_by_oid)
        return store

    def take_mount_inventory(self):
        """Hand over (and clear) the metadata/name snapshot from the mount
        walk, or ``None`` when the store was not mounted.  The filesystem's
        naming rebuild consumes this instead of re-walking the master tree."""
        inventory = self._mount_inventory
        self._mount_inventory = None
        return inventory

    def _reserve_tree_pages(self, tree: BPlusTree, collect: bool = False):
        """Re-reserve every reachable page of ``tree`` in the allocator.

        Returns ``(leaf_entry_count, entries)`` where ``entries`` is the
        list of leaf ``(key, value)`` pairs when ``collect`` is set (the
        mount path folds its metadata/extent scans into this same walk).
        """
        page_store = tree.store
        count = 0
        entries: List = []
        stack = [tree.root_id]
        while stack:
            page_id = stack.pop()
            self.allocator.reserve(page_id, page_store.page_blocks)
            node = page_store.read(page_id)
            if node.is_leaf:
                count += len(node.keys)
                if collect:
                    entries.extend(zip(node.keys, node.values))
            else:
                stack.extend(node.children)
        return count, entries

    def open_index_tree(self, name: str, root_id: Optional[int] = None,
                        on_root_change=None) -> BPlusTree:
        """Open an auxiliary on-device btree (the persistent index trees).

        The tree shares this store's device, allocator, buffer pool and
        recovery manager, so its page writes are cached and WAL-logged
        exactly like the master tree's.  With ``root_id`` the tree is
        re-attached to an existing root (the mount path): its reachable
        pages are re-reserved in the allocator — which the mount walk
        rebuilt from reachable structures only — and the element count is
        taken from the same walk instead of a second counting pass.
        """
        if not self.btree_on_device:
            raise ObjectStoreError("index trees require btree_on_device=True")
        if root_id is None:
            return self._new_tree(name, on_root_change=on_root_change)
        tree = self._new_tree(name, root_id=root_id, count=0,
                              on_root_change=on_root_change)
        count, _entries = self._reserve_tree_pages(tree)
        tree._count = count
        return tree

    def scrub_sources(self) -> List:
        """Current ``(page_store, root_id)`` of the one on-device tree this
        store owns — the scrubber's walk roots.  The facade appends the
        persistent index trees, which it owns."""
        if not self.btree_on_device:
            return []
        return [(self._master.store, self._master.root_id)]

    def check_consistency(self) -> Dict[str, object]:
        """The per-object half of fsck: audit the on-device OSD structures.

        Walks every object's extent map, and checks the master tree's
        invariants and the allocator.  Returns ``{"objects", "extents",
        "errors"}`` — the filesystem facade aggregates this with its own
        journal and index-tree checks.  Never raises: fsck reports.
        """
        errors: List[str] = []
        objects = 0
        extents = 0
        try:
            live = self.list_objects()
        except Exception as error:  # noqa: BLE001 — fsck reports, never raises
            errors.append(f"master tree walk: {error}")
            live = []
        for oid in live:
            objects += 1
            try:
                self.check_object(oid)
                extents += self.extent_count(oid)
            except Exception as error:  # noqa: BLE001 — fsck reports, never raises
                errors.append(f"object {oid}: {error}")
        try:
            self._master.check_invariants()
        except Exception as error:  # noqa: BLE001
            errors.append(f"master tree: {error}")
        try:
            self.allocator.check_invariants()
        except Exception as error:  # noqa: BLE001
            errors.append(f"allocator: {error}")
        return {"objects": objects, "extents": extents, "errors": errors}

    # ------------------------------------------------------------ internals

    def _new_tree(self, name: str, **attach) -> BPlusTree:
        """A btree over this store's kind of pages; ``attach`` is
        :class:`BPlusTree`'s ``root_id`` / ``count`` / ``on_root_change``."""
        if not self.btree_on_device:
            return BPlusTree(store=InMemoryPageStore(),
                             max_keys=_VOLATILE_MAX_KEYS, **attach)
        page_store = DevicePageStore(
            self.device,
            self.allocator,
            self.buffer_pool,
            name=name,
            recovery=self.recovery,
            integrity=self.integrity,
        )
        return BPlusTree(store=page_store, **attach)

    def _txn(self):
        """One WAL transaction per public mutator (no-op without recovery)."""
        if self.recovery is None:
            return nullcontext()
        return self.recovery.transaction()

    def _master_root_moved(self, root: int) -> None:
        # The master root is the one page nothing else points at; journal it
        # logically so a mount can find the tree again.
        if self.recovery is not None:
            self.recovery.log_meta({"master_root": root})

    def _free_chunk(self, block: int) -> None:
        """Free a data chunk — deferred until the freeing commit is durable.

        Data blocks are written in place (not logged), so a chunk freed and
        re-used before its freeing transaction's commit marker reaches the
        device would let new bytes land in blocks that state the crash
        resurrects still references.  Deferring the free until the marker is
        durable (which group commit may delay past commit()) closes that
        window.
        """
        if self.recovery is not None:
            self.recovery.on_durable(lambda: self.allocator.free(block))
        else:
            self.allocator.free(block)

    def flush_access_times(self) -> int:
        """Persist lazily-tracked access times (clean unmount / checkpoint).

        Returns the number of metadata records updated.  Between calls,
        access times ride the next real mutation of their object (relatime);
        a crash loses at most the times recorded since the last flush.
        """
        pending = [oid for oid in self._pending_atime if self.exists(oid)]
        if pending:
            # One bracketing transaction: one commit marker and one journal
            # sync for the whole batch, not one per object.
            with self._txn():
                for oid in pending:
                    # _require overlays the pending time; saving pops it.
                    self._save_metadata(oid, self._require(oid))
        self._pending_atime.clear()
        return len(pending)

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _metadata_key(self, oid: int) -> bytes:
        return _OID.pack(oid)

    def _require(self, oid: int) -> ObjectMetadata:
        raw = self._master.get(self._metadata_key(oid))
        if raw is None:
            raise NoSuchObjectError(oid)
        metadata = ObjectMetadata.from_bytes(raw)
        # Overlay the lazily-persisted access time (relatime; see read()).
        pending = self._pending_atime.get(oid)
        if pending is not None and pending > metadata.accessed_at:
            metadata.accessed_at = pending
        return metadata

    def _save_metadata(self, oid: int, metadata: ObjectMetadata) -> None:
        # Every mutator loads metadata through _require, so the record being
        # saved already carries any pending access time: the lazy atime
        # piggybacks on the next real mutation.
        self._pending_atime.pop(oid, None)
        self._master.put(self._metadata_key(oid), metadata.to_bytes())

    def _extent_map(self, oid: int) -> ExtentMap:
        if oid not in self._chunks:
            raise NoSuchObjectError(oid)
        return ExtentMap(self._master, _EXTENT_PREFIX + _OID.pack(oid))

    # ------------------------------------------------------------ lifecycle

    def create(
        self,
        owner: str = "root",
        group: str = "root",
        mode: int = 0o644,
        attributes: Optional[Dict[str, str]] = None,
    ) -> int:
        """Create an empty object and return its OID."""
        self._check_metadata_record(
            ObjectMetadata(owner=owner, group=group, mode=mode,
                           attributes=dict(attributes or {}))
        )
        with self._txn():
            oid = self._next_oid
            self._next_oid += 1
            if self.recovery is not None:
                # next_oid is logical state only the superblock knows; log it
                # so a crashed-then-replayed mount never reuses the id.
                self.recovery.log_meta({"next_oid": self._next_oid})
            now = self._tick()
            metadata = ObjectMetadata(
                size=0,
                owner=owner,
                group=group,
                mode=mode,
                created_at=now,
                modified_at=now,
                accessed_at=now,
                attributes=dict(attributes or {}),
            )
            self._chunks[oid] = set()
            self._save_metadata(oid, metadata)
            self._live_objects += 1
            self.stats.objects_created += 1
            return oid

    def exists(self, oid: int) -> bool:
        """True if ``oid`` names a live object."""
        return self._master.get(self._metadata_key(oid)) is not None

    def delete(self, oid: int) -> None:
        """Destroy the object and release every data chunk it owns."""
        self._require(oid)
        with self._txn():
            self._extent_map(oid).clear()
            for chunk_block in self._chunks.pop(oid):
                self._free_chunk(chunk_block)
            for name in self.names(oid):
                self._master.delete(self._name_key(oid, name))
            self._master.delete(self._metadata_key(oid))
            self._pending_atime.pop(oid, None)
            self._live_objects -= 1
            self.stats.objects_deleted += 1

    def list_objects(self) -> List[int]:
        """All live OIDs in ascending order.

        Scans the metadata run only: extent and name leaves are never read,
        so rot in one of them cannot fail a listing (the degraded rescue and
        fsck start here)."""
        return [_OID.unpack(key)[0] for key, _value in self._master.cursor(end=_OID_END)]

    @property
    def object_count(self) -> int:
        # Kept as a counter: the master tree also stores per-name entries,
        # so len(tree) over-counts and a scan would cost device reads on
        # every stats() call.
        return self._live_objects

    # ------------------------------------------------------------ name entries

    def _name_key(self, oid: int, name: str) -> bytes:
        return _NAME_PREFIX + _OID.pack(oid) + name.encode("utf-8")

    def put_name(self, oid: int, name: str) -> None:
        """Persist one name entry for the object (idempotent)."""
        self._require(oid)
        with self._txn():
            self._master.put(self._name_key(oid, name), b"")

    def remove_name(self, oid: int, name: str) -> bool:
        """Drop one persisted name entry; returns True if it existed."""
        with self._txn():
            try:
                self._master.delete(self._name_key(oid, name))
                return True
            except KeyNotFoundError:
                return False

    def _entry_budget(self) -> Optional[int]:
        """Bytes one master-tree entry may take: half a page (``None`` for
        volatile trees, which have no page).

        Half, not a whole one: a node that outgrows its page splits in two,
        and two halves that both fit exist only while no entry — and no
        key, which may become an inner node's separator — is over half a
        page (a record of most of a page between two of a third of one
        cannot be split at all).  An entry over budget would fail *after*
        the enclosing WAL transaction logged pages, poisoning the
        filesystem, so callers validate before mutating anything.
        """
        page_bytes = getattr(self._master.store, "page_bytes", None)
        return None if page_bytes is None else page_bytes // 2

    def _check_metadata_record(self, metadata: ObjectMetadata) -> None:
        """Reject a metadata record over :meth:`_entry_budget`.  The slack
        covers the size and timestamps stamped later in the operation."""
        budget = self._entry_budget()
        if budget is not None and len(metadata.to_bytes()) + 256 > budget:
            raise ObjectStoreError(
                f"metadata record of {len(metadata.to_bytes())} bytes cannot "
                f"fit half a btree page ({budget} bytes; trim the attributes)"
            )

    def check_name(self, name: str) -> None:
        """Reject a name entry over :meth:`_entry_budget`."""
        budget = self._entry_budget()
        key_len = len(_NAME_PREFIX) + _OID.size + len(name.encode("utf-8"))
        if budget is not None and key_len + 64 > budget:
            raise ObjectStoreError(
                f"name entry of {key_len} bytes cannot fit half a btree page "
                f"({budget} bytes)"
            )

    def names(self, oid: int) -> List[str]:
        """All persisted name entries of the object, in key order."""
        prefix = _NAME_PREFIX + _OID.pack(oid)
        return [
            key[len(prefix):].decode("utf-8")
            for key, _value in self._master.cursor(prefix=prefix)
        ]

    # ------------------------------------------------------------ metadata

    def stat(self, oid: int) -> ObjectMetadata:
        """Return a copy of the object's metadata."""
        return self._require(oid)

    def size(self, oid: int) -> int:
        """Current object size in bytes."""
        return self._require(oid).size

    def set_attributes(self, oid: int, **attributes: str) -> None:
        """Merge free-form attributes into the object's metadata."""
        metadata = self._require(oid)
        metadata.attributes.update({key: str(value) for key, value in attributes.items()})
        self._check_metadata_record(metadata)  # before any page is logged
        with self._txn():
            metadata.touch_modified(self._tick())
            self._save_metadata(oid, metadata)

    def remove_attributes(self, oid: int, *keys: str) -> int:
        """Delete free-form attributes; returns how many existed."""
        metadata = self._require(oid)
        removed = 0
        with self._txn():
            for key in keys:
                if metadata.attributes.pop(key, None) is not None:
                    removed += 1
            if removed:
                metadata.touch_modified(self._tick())
                self._save_metadata(oid, metadata)
        return removed

    def chown(self, oid: int, owner: str, group: Optional[str] = None) -> None:
        """Change the object's security attributes."""
        metadata = self._require(oid)
        metadata.owner = owner
        if group is not None:
            metadata.group = group
        self._check_metadata_record(metadata)
        with self._txn():
            metadata.touch_modified(self._tick())
            self._save_metadata(oid, metadata)

    def chmod(self, oid: int, mode: int) -> None:
        """Change the object's permission bits."""
        metadata = self._require(oid)
        with self._txn():
            metadata.mode = mode
            metadata.touch_modified(self._tick())
            self._save_metadata(oid, metadata)

    def extent_count(self, oid: int) -> int:
        """Number of extents currently describing the object."""
        self._require(oid)
        return self._extent_map(oid).extent_count()

    # ------------------------------------------------------------ data path

    def _store_data(self, oid: int, extent_map: ExtentMap, offset: int, data: bytes) -> None:
        """Allocate extents for ``data`` and map them at ``offset``."""
        block_size = self.device.block_size
        max_bytes = self.max_extent_blocks * block_size
        position = 0
        while position < len(data):
            chunk = data[position:position + max_bytes]
            blocks_needed = (len(chunk) + block_size - 1) // block_size
            chunk_block, chunk_blocks = self.allocator.allocate_extent(blocks_needed)
            self.device.write_blocks(chunk_block, chunk, nblocks=blocks_needed)
            extent_map.insert_extent(
                offset + position,
                ObjectExtent(block=chunk_block, nblocks=chunk_blocks, skip=0, length=len(chunk)),
            )
            self._chunks[oid].add(chunk_block)
            self.stats.extents_written += 1
            position += len(chunk)

    def write(self, oid: int, offset: int, data: bytes) -> int:
        """Overwrite ``len(data)`` bytes at ``offset`` (extending if needed).

        Matches POSIX ``pwrite`` semantics: writing past the current end
        leaves a hole that reads back as zeros.
        """
        if offset < 0:
            raise InvalidRangeError("offset must be non-negative")
        metadata = self._require(oid)
        data = bytes(data)
        if not data:
            return 0
        with self._txn():
            extent_map = self._extent_map(oid)
            extent_map.punch(offset, offset + len(data))
            self._store_data(oid, extent_map, offset, data)
            metadata.size = max(metadata.size, offset + len(data))
            metadata.touch_modified(self._tick())
            self._save_metadata(oid, metadata)
            self.stats.bytes_written += len(data)
            return len(data)

    def append(self, oid: int, data: bytes) -> int:
        """Append ``data`` at the end of the object; returns the write offset."""
        offset = self.size(oid)
        self.write(oid, offset, data)
        return offset

    def read(self, oid: int, offset: int = 0, length: Optional[int] = None) -> bytes:
        """Read up to ``length`` bytes at ``offset`` (to end-of-object if None)."""
        if offset < 0:
            raise InvalidRangeError("offset must be non-negative")
        metadata = self._require(oid)
        if offset >= metadata.size:
            return b""
        if length is None:
            length = metadata.size - offset
        if length < 0:
            raise InvalidRangeError("length must be non-negative")
        length = min(length, metadata.size - offset)
        if length == 0:
            return b""
        result = bytearray(length)
        extent_map = self._extent_map(oid)
        for extent_offset, extent in extent_map.extents_in_range(offset, offset + length):
            overlap_start = max(offset, extent_offset)
            overlap_end = min(offset + length, extent_offset + extent.length)
            if overlap_end <= overlap_start:
                continue
            within_extent = overlap_start - extent_offset
            chunk = self.device.read_bytes(
                extent.block, extent.skip + within_extent, overlap_end - overlap_start
            )
            result[overlap_start - offset:overlap_end - offset] = chunk
        metadata.touch_accessed(self._tick())
        if self.recovery is None:
            self._save_metadata(oid, metadata)
        else:
            # relatime: persisting an access time costs a logged page write
            # plus a journal sync per read, so it rides the next real
            # mutation instead (stat() sees it immediately via _require;
            # a crash loses at most recent access times, never data).
            self._pending_atime[oid] = metadata.accessed_at
        self.stats.bytes_read += length
        return bytes(result)

    def insert(self, oid: int, offset: int, data: bytes) -> int:
        """Insert ``data`` at ``offset``, growing the object (paper §3.1.2).

        Bytes previously at ``offset`` and beyond move right by ``len(data)``;
        no object data is copied — only extent keys are rewritten.
        """
        metadata = self._require(oid)
        if offset < 0 or offset > metadata.size:
            raise InvalidRangeError(
                f"insert offset {offset} outside object of size {metadata.size}"
            )
        data = bytes(data)
        if not data:
            return 0
        with self._txn():
            extent_map = self._extent_map(oid)
            extent_map.split_at(offset)
            self.stats.extents_shifted += extent_map.shift(offset, len(data))
            self._store_data(oid, extent_map, offset, data)
            metadata.size += len(data)
            metadata.touch_modified(self._tick())
            self._save_metadata(oid, metadata)
            self.stats.bytes_inserted += len(data)
            return len(data)

    def remove_range(self, oid: int, offset: int, length: int) -> int:
        """Remove ``length`` bytes starting at ``offset`` (paper's truncate).

        "hFAD takes two off_t's, an offset and length, indicating exactly
        which bytes to remove from the file."  Bytes beyond the removed range
        move left; returns the number of bytes actually removed.
        """
        metadata = self._require(oid)
        if offset < 0 or length < 0:
            raise InvalidRangeError("offset/length must be non-negative")
        if offset >= metadata.size or length == 0:
            return 0
        with self._txn():
            end = min(offset + length, metadata.size)
            extent_map = self._extent_map(oid)
            extent_map.split_at(offset)
            extent_map.split_at(end)
            extent_map.punch(offset, end)
            self.stats.extents_shifted += extent_map.shift(end, -(end - offset))
            removed = end - offset
            metadata.size -= removed
            metadata.touch_modified(self._tick())
            self._save_metadata(oid, metadata)
            self.stats.bytes_removed += removed
            return removed

    # POSIX-style truncate-to-length, expressed in terms of remove_range.
    def truncate(self, oid: int, new_size: int) -> None:
        """Shrink or (sparsely) grow the object to exactly ``new_size`` bytes."""
        metadata = self._require(oid)
        if new_size < 0:
            raise InvalidRangeError("size must be non-negative")
        if new_size < metadata.size:
            self.remove_range(oid, new_size, metadata.size - new_size)
        elif new_size > metadata.size:
            with self._txn():
                metadata = self._require(oid)
                metadata.size = new_size
                metadata.touch_modified(self._tick())
                self._save_metadata(oid, metadata)

    # ------------------------------------------------------------ maintenance

    def compact(self, oid: int) -> int:
        """Rewrite the object into fresh contiguous extents.

        Punched ranges and power-of-two rounding slack accumulate over time
        (space is only reclaimed wholesale); compaction rewrites the live
        bytes and frees every old chunk.  Returns the number of blocks freed.
        """
        metadata = self._require(oid)
        contents = self.read(oid, 0, metadata.size)
        with self._txn():
            extent_map = self._extent_map(oid)
            extent_map.clear()
            old_chunks = self._chunks[oid]
            freed = 0
            for chunk_block in old_chunks:
                order = self.allocator.allocation_order(chunk_block)
                freed += (1 << order) if order is not None else 0
                self._free_chunk(chunk_block)
            self._chunks[oid] = set()
            if contents:
                self._store_data(oid, extent_map, 0, contents)
            metadata = self._require(oid)
            metadata.size = len(contents)
            metadata.touch_modified(self._tick())
            self._save_metadata(oid, metadata)
            return freed

    def check_object(self, oid: int) -> None:
        """Verify the object's extent map invariants (used by property tests)."""
        self._require(oid)
        extent_map = self._extent_map(oid)
        extent_map.check_invariants()
        assert extent_map.end_offset() <= self._require(oid).size + 0, (
            "extent map extends past the recorded object size"
        )
