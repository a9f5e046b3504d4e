"""The object store: uniquely-identified, fully byte-accessible containers.

This is the hFAD OSD layer (paper Section 3.3/3.4):

* every object is identified by an integer OID;
* a master btree maps OIDs to their metadata ("we also use BDB Btrees to map
  unique object IDs (OID) to the meta-data for an object");
* each object's contents are described by an :class:`~repro.osd.extent_map.ExtentMap`
  — a run of keys in that same master btree, keyed by file offset, whose
  values name where the bytes live (one tree per store, not one per object);
* a write of at most a quarter page lives in the **content tree**, a second
  on-device btree keyed by a serial: its bytes get the page frames, WAL
  records, crash atomicity and scrub repairs every tree page gets, and share
  pages with other small writes instead of taking a 4 KB block each (the
  btrfs inline extent);
* besides POSIX-style ``read``/``write``, objects support ``insert`` (grow
  from the middle) and ``remove_range`` (the paper's two-argument truncate),
  both implemented as extent-map key manipulation with no data copying.

Larger writes get *chunks*: block-aligned runs from a buddy allocator over
the shared block device, written once outside the WAL, each extent carrying
the CRC32 of its chunk as written.  A read that covers a whole chunk, and
every scrub pass, verify it; a chunk that fails is quarantined and its bytes
are never returned.
"""

from __future__ import annotations

import struct
import threading
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.btree import PAGE_BYTES, BPlusTree, DevicePageStore
from repro.cache import BufferPool, GenerationMemo
from repro.errors import (
    CorruptionError,
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
# * ``\xffN | oid | name`` → one durable name entry, spelled ``TAG/value``
#   (a path is ``POSIX//a/b``; not inside the metadata record: a
#   heavily-tagged object would otherwise grow its metadata value past any
#   page size).
#
# ``\xff`` sorts after every 8-byte OID key, so a metadata scan ends there,
# and extents get a run of their own instead of fattening metadata leaves
# (label writes rewrite those).
#
# The metadata run is the master tree's declared append range
# (:class:`~repro.btree.BPlusTree`'s ``append_ranges``): a new oid is one past
# the largest, so a leaf overflowing on it splits full.  The names run is
# not: tags on old objects land mid-run.  The content tree's keys are
# serials (``last + 1``), so its whole key space is one append range.
_OID_END = b"\xff"
_EXTENT_PREFIX = b"\xffE"
_NAME_PREFIX = b"\xffN"
_MASTER_APPEND_RANGES = ((b"", _OID_END),)
_CONTENT_APPEND_RANGES = ((b"", None),)


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

    The master btree (metadata, extent maps, name entries) lives on the
    device too, its pages allocated from the same allocator as the data.

    :param device, allocator, buffer_pool, recovery, integrity: the engine's
        block device, buddy allocator (superblock and journal reserved),
        shared pool (with the WAL hook), recovery manager and integrity
        context.  Every public mutator runs as one WAL transaction (so a
        multi-page update — btree split, extent re-keying, create/delete —
        is atomic across a crash) and the store is re-mountable via
        :meth:`mount`.  ``HFADFileSystem`` builds it (tests use that one).
    :param max_extent_blocks: cap on a single extent's size; larger writes are
        split into several extents.
    :param content_cache: optional :class:`~repro.cache.GenerationMemo` of
        whole objects of at most a page (oid → bytes): :meth:`read` fills
        it and answers from it, :meth:`probe_read` answers only from it.
    """

    def __init__(
        self,
        device: BlockDevice,
        allocator: BuddyAllocator,
        buffer_pool: BufferPool,
        recovery,
        integrity,
        max_extent_blocks: int = 1024,
        content_cache: Optional[GenerationMemo] = None,
    ) -> None:
        self._init_shared_state(
            device,
            max_extent_blocks=max_extent_blocks,
            buffer_pool=buffer_pool,
            recovery=recovery,
            integrity=integrity,
            content_cache=content_cache,
        )
        self.allocator = allocator
        self._master = self._new_tree("osd.master", on_root_change=self._master_root_moved,
                                      append_ranges=_MASTER_APPEND_RANGES)
        self._open_content_tree(None)

    def _init_shared_state(
        self,
        device: BlockDevice,
        *,
        max_extent_blocks: int,
        buffer_pool: BufferPool,
        recovery,
        integrity,
        content_cache: Optional[GenerationMemo],
    ) -> None:
        """Field initialization shared by ``__init__`` and :meth:`mount`;
        the allocator and the master tree, which mkfs and mount build
        differently, stay with the callers."""
        if max_extent_blocks <= 0:
            raise ValueError("max_extent_blocks must be positive")
        self.device = device
        self.max_extent_blocks = max_extent_blocks
        self.stats = ObjectStoreStats()
        self.buffer_pool = buffer_pool
        self.recovery = recovery
        #: shared integrity context (retrying reads, quarantine, counters).
        self.integrity = integrity
        self._next_oid = 1
        self._clock = 0
        self._live_objects = 0
        self._pending_atime: Dict[int, int] = {}
        #: guards the clock, the pending access times and ``bytes_read``:
        #: reads record accesses under a *shared* engine hold (and
        #: :meth:`probe_read` under none), beside mutators and the flush.
        self._access_lock = threading.Lock()
        self.content_cache = content_cache
        #: the content memo's token: bumped inside the transaction of every
        #: mutator that can change an object's bytes or size.
        self._content_generation = 0
        self._mount_inventory = None
        #: the persistent index trees opened through :meth:`open_index_tree`.
        self._index_trees: List[BPlusTree] = []

    # ------------------------------------------------------------ mounting

    @classmethod
    def mount(
        cls,
        device: BlockDevice,
        recovery,
        buffer_pool: BufferPool,
        integrity,
        max_extent_blocks: int = 1024,
        content_cache: Optional[GenerationMemo] = None,
    ) -> "ObjectStore":
        """Re-open a store from its recovered on-device state.

        ``recovery`` must already have replayed the journal: its ``state``
        holds the effective tree roots and next oid.  Everything else is
        rediscovered by one walk of the master tree — metadata records, name
        entries and extents, each naming a data chunk or a content-tree
        entry — and allocator occupancy is rebuilt from reachable structures
        only, so space held by uncommitted (never-replayed) allocations is
        reclaimed for free.  The content tree and the index trees attached
        later (:meth:`open_index_tree`) reserve their leaves without reading
        them; :meth:`check_consistency` is the full walk that cross-checks
        the result.
        """
        state = recovery.state
        store = cls.__new__(cls)
        store._init_shared_state(
            device,
            max_extent_blocks=max_extent_blocks,
            buffer_pool=buffer_pool,
            recovery=recovery,
            integrity=integrity,
            content_cache=content_cache,
        )
        store.allocator = BuddyAllocator(total_blocks=device.num_blocks, base=0)
        if state["data_region_start"]:
            store.allocator.reserve(0, state["data_region_start"])
        # One walk of the one tree does double duty: reserve every reachable
        # page in the allocator, and surface the leaf entries (metadata
        # records, extents, names) the rest of the mount needs.
        store._master = store._new_tree(
            "osd.master",
            root_id=state["master_root"],
            on_root_change=store._master_root_moved,
            append_ranges=_MASTER_APPEND_RANGES,
        )
        master_entries = store._reserve_tree_pages(store._master, store.allocator)
        # The same walk feeds the naming rebuild: name entries are handed
        # to the filesystem layer via the mount inventory instead of being
        # re-read with fresh cursors.
        live: Set[int] = set()
        names: List[Tuple[int, bytes]] = []
        name_start = len(_NAME_PREFIX) + _OID.size
        for key, raw in master_entries:
            if key < _OID_END:
                live.add(_OID.unpack(key)[0])
                metadata = ObjectMetadata.from_bytes(raw)
                store._clock = max(
                    store._clock, metadata.created_at,
                    metadata.modified_at, metadata.accessed_at,
                )
            elif key.startswith(_NAME_PREFIX):
                names.append((_OID.unpack_from(key, len(_NAME_PREFIX))[0],
                              key[name_start:]))
        store._reserve_chunks(master_entries, store.allocator)
        store._open_content_tree(state["content_root"])
        store._next_oid = max(state["next_oid"], max(live, default=0) + 1)
        store._live_objects = len(live)
        # A name entry left without its object's record names nothing.
        store._mount_inventory = [(oid, name) for oid, name in names if oid in live]
        return store

    def take_mount_inventory(self):
        """Hand over (and clear) the name entries the mount walk read, or
        ``None`` when the store was not mounted: each live object's names
        as ``(oid, b"TAG/value")``, the bytes as stored (not decoded), in no
        particular order.  The filesystem's naming rebuild consumes this
        instead of re-walking the master tree."""
        inventory = self._mount_inventory
        self._mount_inventory = None
        return inventory

    @staticmethod
    def _reserve_tree_pages(tree: BPlusTree, allocator: BuddyAllocator,
                            read_leaves: bool = True) -> List:
        """Reserve every reachable page of ``tree`` in ``allocator``.

        Returns the leaf ``(key, value)`` pairs read.  Without
        ``read_leaves`` no leaf is read but one: a B+-tree's leaves all sit
        at one depth, so one leftmost descent finds it, and each leaf is
        reserved from its parent's child list.
        """
        page_store = tree.store
        leaf_depth = None if read_leaves else tree.depth()
        entries: List = []
        stack = [(tree.root_id, 1)]
        while stack:
            page_id, depth = stack.pop()
            allocator.reserve(page_id, page_store.page_blocks)
            if depth == leaf_depth:
                continue
            node = page_store.read(page_id)
            if node.is_leaf:
                entries.extend(zip(node.keys, node.values))
            else:
                stack.extend((child, depth + 1) for child in node.children)
        return entries

    @staticmethod
    def _reserve_chunks(master_entries: List, allocator: BuddyAllocator) -> None:
        """Reserve the data chunk every extent in ``master_entries`` names
        (several extents of one object may share a chunk); an extent naming
        a content-tree entry is skipped undecoded."""
        reserved = set()
        for key, raw in master_entries:
            if key.startswith(_EXTENT_PREFIX) and not ObjectExtent.names_entry(raw):
                extent = ObjectExtent.decode(raw)
                if extent.block not in reserved:
                    reserved.add(extent.block)
                    allocator.reserve(extent.block, extent.nblocks)

    def open_index_tree(self, name: str, root_id: Optional[int] = None,
                        on_root_change=None, append_ranges=()) -> BPlusTree:
        """Open an auxiliary on-device btree (the content tree, the
        persistent index trees).

        The tree shares this store's device, allocator, buffer pool and
        recovery manager, so its page writes are cached and WAL-logged
        exactly like the master tree's.  With ``root_id`` the tree is
        re-attached to an existing root (the mount path): its pages are
        re-reserved in the allocator — which the mount walk rebuilt from
        reachable structures only — by reading its inner nodes and one
        leaf, never the rest of its leaves.  ``append_ranges`` is the
        tree's :class:`BPlusTree` split declaration, the same at mkfs and
        mount.
        """
        tree = self._new_tree(name, root_id=root_id, on_root_change=on_root_change,
                              append_ranges=append_ranges)
        if root_id is not None:
            self._reserve_tree_pages(tree, self.allocator, read_leaves=False)
        self._index_trees.append(tree)
        return tree

    def _open_content_tree(self, root_id: Optional[int]) -> None:
        """Create (mkfs) or re-attach (mount) the content tree, whose leaves
        hold the bytes of every write of at most :attr:`inline_limit`."""
        self._content = self.open_index_tree(
            "osd.content", root_id=root_id, on_root_change=self._content_root_moved,
            append_ranges=_CONTENT_APPEND_RANGES)
        #: the largest write stored in the content tree: a quarter page, so
        #: an entry stays far under the half-page entry budget.
        self.inline_limit = self._content.store.page_bytes // 4

    def scrub_sources(self) -> List:
        """Current ``(page_store, root_id)`` of every on-device tree this
        store holds — the scrubber's walk roots."""
        return [(tree.store, tree.root_id) for tree in (self._master, *self._index_trees)]

    def check_consistency(self) -> Dict[str, object]:
        """The per-object half of fsck: audit the on-device OSD structures.

        Walks every object's extent map, checks the master and content
        trees' invariants and the allocator, and cross-checks allocator
        occupancy (:meth:`_check_occupancy`).  Returns ``{"objects",
        "extents", "trees", "errors"}``, ``trees`` holding each tree whose
        invariants hold, by name (``master``, ``content``), as
        :meth:`BPlusTree.check_invariants` reports it — the filesystem facade
        aggregates this with its own journal and index-tree checks.  Never
        raises: fsck reports.
        """
        errors: List[str] = []
        trees: Dict[str, Dict[str, float]] = {}
        objects = 0
        extents = 0
        named = set()
        try:
            live = self.list_objects()
        except Exception as error:  # noqa: BLE001 — fsck reports, never raises
            errors.append(f"master tree walk: {error}")
            live = []
        for oid in live:
            objects += 1
            try:
                self.check_object(oid)
                for _offset, extent in self._extent_map(oid).extents():
                    extents += 1
                    if extent.in_tree:
                        named.add(extent.block)
            except Exception as error:  # noqa: BLE001 — fsck reports, never raises
                errors.append(f"object {oid}: {error}")
        self._check_content_entries(named, trees, errors)
        try:
            trees["master"] = self._master.check_invariants()
        except Exception as error:  # noqa: BLE001
            errors.append(f"master tree: {error}")
        try:
            self.allocator.check_invariants()
        except Exception as error:  # noqa: BLE001
            errors.append(f"allocator: {error}")
        self._check_occupancy(errors)
        return {"objects": objects, "extents": extents, "trees": trees, "errors": errors}

    def _check_content_entries(self, named: set, trees: Dict, errors: List[str]) -> None:
        """Every content-tree entry is named by an extent, and every named
        entry exists: an unnamed one is a leak, like an unreachable block."""
        try:
            trees["content"] = self._content.check_invariants()
            stored = {_OID.unpack(key)[0] for key, _value in self._content.cursor()}
        except Exception as error:  # noqa: BLE001 — fsck reports, never raises
            errors.append(f"content tree: {error}")
            return
        errors.extend(f"content tree: leak: entry {key} is named by no extent"
                      for key in sorted(stored - named))
        errors.extend(f"content tree: entry {key} is named but missing"
                      for key in sorted(named - stored))

    def _check_occupancy(self, errors: List[str]) -> None:
        """Rebuild occupancy from every reachable page and chunk — leaves
        included — into a fresh allocator, and compare it with the live one.

        A reachable page or chunk the live allocator does not hold at its
        order is an error; a live allocation nothing reaches, and no
        deferred free is waiting to release, is a leak.
        """
        live = self.allocator
        reachable = BuddyAllocator(live.total_blocks, base=live.base)
        try:
            if self.recovery.state["data_region_start"]:
                reachable.reserve(0, self.recovery.state["data_region_start"])
            master_entries = self._reserve_tree_pages(self._master, reachable)
            for tree in self._index_trees:
                self._reserve_tree_pages(tree, reachable)
            self._reserve_chunks(master_entries, reachable)
        except Exception as error:  # noqa: BLE001 — fsck reports, never raises
            errors.append(f"occupancy walk: {error}")
            return
        pending = {action.args[0] for action in self.recovery.deferred_actions()
                   if getattr(action, "func", None) == live.free}
        have, want = live.live_allocations(), reachable.live_allocations()
        errors.extend(f"allocator: reachable block {block} is not allocated at order {order}"
                      for block, order in sorted(want.items()) if have.get(block) != order)
        errors.extend(f"allocator: leak: block {block} (order {order}) is allocated "
                      "but unreachable" for block, order in sorted(have.items())
                      if want.get(block) != order and block not in pending)

    # ------------------------------------------------------------ internals

    def _new_tree(self, name: str, **attach) -> BPlusTree:
        """A btree over device pages from this store's allocator; ``attach``
        is :class:`BPlusTree`'s ``root_id`` / ``on_root_change`` /
        ``append_ranges``."""
        page_store = DevicePageStore(
            self.device,
            self.allocator,
            self.buffer_pool,
            self.recovery,
            self.integrity,
            name=name,
        )
        return BPlusTree(store=page_store, **attach)

    def _master_root_moved(self, root: int) -> None:
        # The master root is the one page nothing else points at; journal it
        # logically so a mount can find the tree again.
        self.recovery.log_meta({"master_root": root})

    def _content_root_moved(self, root: int) -> None:
        self.recovery.log_meta({"content_root": root})

    def _free_unnamed(self, extent_map: ExtentMap, removed: Iterable[ObjectExtent]) -> int:
        """Free each chunk or entry of the ``removed`` extents that no extent
        of ``extent_map`` still names: the map is the only record of what an
        object owns.  Returns the number of chunk blocks freed."""
        orphans = {extent.source: extent for extent in removed}
        if orphans:
            for _offset, extent in extent_map.extents():
                orphans.pop(extent.source, None)
        freed = 0
        for (in_tree, block), extent in sorted(orphans.items()):
            if in_tree:
                # Logged like every tree write: the entry goes in the
                # transaction that unnamed it, with nothing to defer.
                self._content.delete(_OID.pack(block))
            else:
                freed += extent.nblocks
                self._free_chunk(block)
        return freed

    def _free_chunk(self, block: int) -> None:
        """Free a data chunk — deferred until the freeing commit is durable.

        Data blocks are written in place (not logged), so a chunk freed and
        re-used before its freeing transaction's frame reaches the
        device would let new bytes land in blocks that state the crash
        resurrects still references.  Deferring the free until the frame is
        durable (which group commit may delay past commit()) closes that
        window.
        """
        # A quarantined chunk's damage goes with it.
        self.integrity.release_page(block)
        self.recovery.on_durable(partial(self.allocator.free, block))

    def flush_access_times(self) -> int:
        """Persist lazily-tracked access times (clean unmount / checkpoint).

        Returns the number of metadata records updated.  Between calls,
        access times ride the next real mutation of their object (relatime);
        a crash loses at most the times recorded since the last flush.
        Reads go on recording accesses meanwhile: the flush persists a
        snapshot of the pending times, and an access recorded after it
        stays pending for the next flush.
        """
        with self._access_lock:
            pending = list(self._pending_atime)
        if not pending:
            return 0
        flushed = 0
        # One bracketing transaction: one journal frame and one journal sync
        # for the whole batch, not one per object.  Its exclusive hold keeps
        # every object it checks alive until it is saved.
        with self.recovery.transaction():
            for oid in pending:
                try:
                    # _require overlays the pending time; saving pops it.
                    metadata = self._require(oid)
                except NoSuchObjectError:
                    # Deleted after the access: there is nothing to persist.
                    self._pending_atime.pop(oid, None)
                    continue
                self._save_metadata(oid, metadata)
                flushed += 1
        return flushed

    def _tick(self) -> int:
        with self._access_lock:
            self._clock += 1
            return self._clock

    def _note_read(self, oid: int, length: int) -> None:
        """Record a read of ``length`` bytes of ``oid`` at the next tick.

        relatime: persisting an access time costs a logged page write plus
        a journal sync per read, so it rides the next real mutation instead
        (stat() sees it immediately via _require; a crash loses at most
        recent access times, never data).
        """
        with self._access_lock:
            self._clock += 1
            self._pending_atime[oid] = self._clock
            self.stats.bytes_read += length

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
        # piggybacks on the next real mutation.  A read recorded since that
        # load is later than the record, and stays pending.
        with self._access_lock:
            if self._pending_atime.get(oid, -1) <= metadata.accessed_at:
                self._pending_atime.pop(oid, None)
        self._master.put(self._metadata_key(oid), metadata.to_bytes())

    def _extent_map(self, oid: int) -> ExtentMap:
        """The object's map; callers have checked that ``oid`` is live."""
        return ExtentMap(self._master, _EXTENT_PREFIX + _OID.pack(oid))

    # ------------------------------------------------------------ lifecycle

    def create(
        self,
        owner: str = "root",
        group: str = "root",
        mode: int = 0o644,
        attributes: Optional[Dict[str, str]] = None,
        content: bytes = b"",
        names: Iterable[str] = (),
    ) -> int:
        """Create an object and return its OID.

        ``content`` is its first write and ``names`` its first name entries
        (checked by the caller, see :meth:`check_name`): the metadata record
        is written once, with the names in the same sorted master-tree batch.
        """
        self._check_metadata_record(
            ObjectMetadata(owner=owner, group=group, mode=mode,
                           attributes=dict(attributes or {}))
        )
        content = bytes(content)
        with self.recovery.transaction():
            oid = self._next_oid
            self._next_oid += 1
            # next_oid is logical state only the superblock knows; log it so
            # a crashed-then-replayed mount never reuses the id.
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
            if content:
                self._content_generation += 1
                self._store_data(self._extent_map(oid), 0, content)
                metadata.size = len(content)
                metadata.touch_modified(self._tick())
                self.stats.bytes_written += len(content)
            record = metadata.to_bytes()
            # The metadata key (an 8-byte oid) sorts before every name key.
            self._master.apply_sorted(
                [(self._metadata_key(oid), lambda _old: record)]
                + [(key, lambda _old: b"") for key in sorted({self._name_key(oid, name)
                                                               for name in names})])
            self._live_objects += 1
            self.stats.objects_created += 1
            return oid

    def exists(self, oid: int) -> bool:
        """True if ``oid`` names a live object."""
        return self._master.get(self._metadata_key(oid)) is not None

    def delete(self, oid: int) -> None:
        """Destroy the object and release every data chunk it owns."""
        self._require(oid)
        with self.recovery.transaction():
            self._content_generation += 1
            extent_map = self._extent_map(oid)
            self._free_unnamed(extent_map, extent_map.clear())
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
        with self.recovery.transaction():
            self._master.put(self._name_key(oid, name), b"")

    def remove_name(self, oid: int, name: str) -> bool:
        """Drop one persisted name entry; returns True if it existed."""
        with self.recovery.transaction():
            try:
                self._master.delete(self._name_key(oid, name))
                return True
            except KeyNotFoundError:
                return False

    def _entry_budget(self) -> int:
        """Bytes one master-tree entry may take: half a page.

        Half, not a whole one: a node that outgrows its page splits in two,
        and two halves that both fit exist only while no entry — and no
        key, which may become an inner node's separator — is over half a
        page (a record of most of a page between two of a third of one
        cannot be split at all).  An entry over budget would fail *after*
        the enclosing WAL transaction logged pages, poisoning the
        filesystem, so callers validate before mutating anything.
        """
        return self._master.store.page_bytes // 2

    def _check_metadata_record(self, metadata: ObjectMetadata) -> None:
        """Reject a metadata record over :meth:`_entry_budget`.  The slack
        covers the size and timestamps stamped later in the operation."""
        budget = self._entry_budget()
        if len(metadata.to_bytes()) + 256 > budget:
            raise ObjectStoreError(
                f"metadata record of {len(metadata.to_bytes())} bytes cannot "
                f"fit half a btree page ({budget} bytes; trim the attributes)"
            )

    def check_name(self, name: str) -> None:
        """Reject a name entry over :meth:`_entry_budget`."""
        budget = self._entry_budget()
        key_len = len(_NAME_PREFIX) + _OID.size + len(name.encode("utf-8"))
        if key_len + 64 > budget:
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
        with self.recovery.transaction():
            metadata.touch_modified(self._tick())
            self._save_metadata(oid, metadata)

    def remove_attributes(self, oid: int, *keys: str) -> int:
        """Delete free-form attributes; returns how many existed."""
        metadata = self._require(oid)
        removed = 0
        with self.recovery.transaction():
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
        with self.recovery.transaction():
            metadata.touch_modified(self._tick())
            self._save_metadata(oid, metadata)

    def chmod(self, oid: int, mode: int) -> None:
        """Change the object's permission bits."""
        metadata = self._require(oid)
        with self.recovery.transaction():
            metadata.mode = mode
            metadata.touch_modified(self._tick())
            self._save_metadata(oid, metadata)

    def extent_count(self, oid: int) -> int:
        """Number of extents currently describing the object."""
        self._require(oid)
        return self._extent_map(oid).extent_count()

    # ------------------------------------------------------------ data path

    def _store_data(self, extent_map: ExtentMap, offset: int, data: bytes) -> None:
        """Store ``data`` and map it at ``offset``: one content-tree entry up
        to :attr:`inline_limit` bytes, else chunks of device blocks."""
        if len(data) <= self.inline_limit:
            try:
                key = _OID.unpack(self._content.last()[0])[0] + 1
            except KeyNotFoundError:
                key = 1
            self._content.put(_OID.pack(key), data)
            extent_map.insert_extent(offset, ObjectExtent.entry(key, len(data)))
            self.stats.extents_written += 1
            return
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
                ObjectExtent(block=chunk_block, nblocks=chunk_blocks, skip=0,
                             length=len(chunk), size=len(chunk), crc=zlib.crc32(chunk)),
            )
            self.stats.extents_written += 1
            position += len(chunk)

    def _extent_bytes(self, oid: int, extent: ObjectExtent, start: int, length: int) -> bytes:
        """Bytes ``[start, start + length)`` of ``extent``.  A read of a
        whole chunk checks its CRC; a chunk that fails it is quarantined
        and raises :class:`CorruptionError`, never returning the bytes."""
        if extent.in_tree:
            value = self._content.get(_OID.pack(extent.block))
            if value is None:
                raise CorruptionError(
                    f"object {oid}: content entry {extent.block} is missing")
            begin = extent.skip + start
            return value[begin:begin + length]
        if self.integrity.is_quarantined(extent.block):
            self.integrity.stats.quarantined_reads += 1
            raise CorruptionError(f"object {oid}: chunk at block {extent.block} is quarantined")
        raw = self.device.read_bytes(extent.block, extent.skip + start, length)
        if extent.whole_chunk and length == extent.length:
            self._verify_chunk(oid, extent, raw)
        return raw

    def _verify_chunk(self, oid: int, extent: ObjectExtent, raw: bytes) -> None:
        """Check ``raw``, all ``extent.size`` bytes of the extent's chunk,
        against its CRC; on a mismatch the chunk is quarantined and
        :class:`CorruptionError` raised."""
        self.integrity.stats.chunk_verifications += 1
        if zlib.crc32(raw) == extent.crc:
            return
        self.integrity.stats.chunk_crc_failures += 1
        self.integrity.quarantine_page(extent.block)
        raise CorruptionError(
            f"object {oid}: chunk at block {extent.block} fails its CRC "
            f"(crc32 {zlib.crc32(raw):08x}, written {extent.crc:08x})")

    def scrub_chunks(self) -> Tuple[int, List[str]]:
        """Verify every chunk's CRC (one scrub pass); returns ``(chunks
        checked, errors)``.  A chunk that fails is quarantined: reads of it
        raise until the extents naming it go.  Content-tree entries are
        checked with their pages by the page scrub."""
        chunks: Dict[int, Tuple[int, ObjectExtent]] = {}
        errors: List[str] = []
        try:
            for key, raw in self._master.cursor(prefix=_EXTENT_PREFIX):
                if not ObjectExtent.names_entry(raw):
                    extent = ObjectExtent.decode(raw)
                    oid = _OID.unpack_from(key, len(_EXTENT_PREFIX))[0]
                    chunks.setdefault(extent.block, (oid, extent))
        except CorruptionError as error:
            # A quarantined extent leaf: check the chunks found before it.
            errors.append(f"chunk scan stopped: {error}")
        for oid, extent in chunks.values():
            if self.integrity.is_quarantined(extent.block):
                errors.append(f"object {oid}: chunk at block {extent.block} is quarantined")
                continue
            try:
                self._verify_chunk(oid, extent, self.device.read_bytes(extent.block, 0, extent.size))
            except CorruptionError as error:
                errors.append(str(error))
        return len(chunks), errors

    def write(self, oid: int, offset: int, data: bytes) -> int:
        """Overwrite ``len(data)`` bytes at ``offset`` (extending if needed).

        Matches POSIX ``pwrite`` semantics: writing past the current end
        leaves a hole that reads back as zeros.
        """
        if offset < 0:
            raise InvalidRangeError("offset must be non-negative")
        return self._write(oid, self._require(oid), offset, data)

    def _write(self, oid: int, metadata: ObjectMetadata, offset: int, data: bytes) -> int:
        """:meth:`write` of the object whose record the caller has loaded."""
        data = bytes(data)
        if not data:
            return 0
        with self.recovery.transaction():
            self._content_generation += 1
            extent_map = self._extent_map(oid)
            self._free_unnamed(extent_map, extent_map.punch(offset, offset + len(data)))
            self._store_data(extent_map, offset, data)
            metadata.size = max(metadata.size, offset + len(data))
            metadata.touch_modified(self._tick())
            self._save_metadata(oid, metadata)
            self.stats.bytes_written += len(data)
            return len(data)

    def append(self, oid: int, data: bytes) -> int:
        """Append ``data`` at the end of the object; returns the write offset."""
        metadata = self._require(oid)
        offset = metadata.size
        self._write(oid, metadata, offset, data)
        return offset

    def read(self, oid: int, offset: int = 0, length: Optional[int] = None,
             access: bool = True, metadata: Optional[ObjectMetadata] = None) -> bytes:
        """Read up to ``length`` bytes at ``offset`` (to end-of-object if None).

        With a content memo, a current entry answers without a tree read,
        and a whole-object read of at most a page fills it.  ``access=False``
        is the engine's own read (re-indexing what a write just changed): it
        records no access time and neither consults nor fills the memo.
        ``metadata`` is the object's record if the caller loaded it in its
        open transaction: it is not read and decoded again.
        """
        if offset < 0:
            raise InvalidRangeError("offset must be non-negative")
        cache = self.content_cache if access else None
        if cache is not None:
            # Taken before reading: a mutation that lands mid-read leaves
            # the stored entry already stale.
            token = self._content_generation
            content = cache.lookup(oid, token)
            if content is not None:
                return self._memo_read(oid, content, offset, length)
        if metadata is None:
            metadata = self._require(oid)
        length = self._span(offset, length, metadata.size)
        if not length:
            return b""
        result = bytearray(length)
        extent_map = self._extent_map(oid)
        for extent_offset, extent in extent_map.extents_in_range(offset, offset + length):
            overlap_start = max(offset, extent_offset)
            overlap_end = min(offset + length, extent_offset + extent.length)
            if overlap_end <= overlap_start:
                continue
            result[overlap_start - offset:overlap_end - offset] = self._extent_bytes(
                oid, extent, overlap_start - extent_offset, overlap_end - overlap_start)
        if access:
            self._note_read(oid, length)
        data = bytes(result)
        # A writer's read of its own open transaction stores nothing: the
        # entry would answer other sessions before (or without) the commit.
        if (cache is not None and length == metadata.size <= PAGE_BYTES
                and not self.recovery.in_transaction):
            cache.store(oid, data, token)
        return data

    def probe_read(self, oid: int, offset: int = 0,
                   length: Optional[int] = None) -> Optional[bytes]:
        """:meth:`read`'s answer if the content memo holds ``oid`` current,
        else None; no tree is read and no engine lock is taken.

        It is safe because every content mutator bumps the memo's token
        inside its transaction, before the commit: while an entry is
        current it is the committed content.  A hit records the access as
        :meth:`read` does; a miss is not counted (the caller goes on to
        :meth:`read`, which counts it).
        """
        cache = self.content_cache
        if cache is None or offset < 0 or (length is not None and length < 0):
            return None
        content = cache.lookup(oid, self._content_generation, count_miss=False)
        if content is None:
            return None
        return self._memo_read(oid, content, offset, length)

    @staticmethod
    def _span(offset: int, length: Optional[int], size: int) -> int:
        """How many bytes a read of ``length`` at ``offset`` returns from an
        object of ``size`` bytes (0: nothing, and no access is recorded)."""
        if offset >= size:
            return 0
        if length is None:
            return size - offset
        if length < 0:
            raise InvalidRangeError("length must be non-negative")
        return min(length, size - offset)

    def _memo_read(self, oid: int, content: bytes, offset: int,
                   length: Optional[int]) -> bytes:
        """A read of ``content``, the memoised whole object."""
        length = self._span(offset, length, len(content))
        if not length:
            return b""
        self._note_read(oid, length)
        return content if length == len(content) else content[offset:offset + length]

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
        with self.recovery.transaction():
            self._content_generation += 1
            extent_map = self._extent_map(oid)
            extent_map.split_at(offset)
            self.stats.extents_shifted += extent_map.shift(offset, len(data))
            self._store_data(extent_map, offset, data)
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
        with self.recovery.transaction():
            self._content_generation += 1
            end = min(offset + length, metadata.size)
            extent_map = self._extent_map(oid)
            extent_map.split_at(offset)
            extent_map.split_at(end)
            self._free_unnamed(extent_map, extent_map.punch(offset, end))
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
            with self.recovery.transaction():
                self._content_generation += 1
                metadata = self._require(oid)
                metadata.size = new_size
                metadata.touch_modified(self._tick())
                self._save_metadata(oid, metadata)

    # ------------------------------------------------------------ maintenance

    def compact(self, oid: int) -> int:
        """Rewrite the object into fresh contiguous extents.

        A chunk is freed when no extent names it any more, but one that a
        write or ``remove_range`` only partly unmapped keeps its unmapped
        bytes, as every chunk keeps its power-of-two rounding slack;
        compaction rewrites the live bytes and frees every old chunk.
        Returns the number of blocks freed.
        """
        metadata = self._require(oid)
        contents = self.read(oid, 0, metadata.size)
        with self.recovery.transaction():
            self._content_generation += 1
            extent_map = self._extent_map(oid)
            freed = self._free_unnamed(extent_map, extent_map.clear())
            if contents:
                self._store_data(extent_map, 0, contents)
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
