""":class:`HFADFileSystem` — the assembled hFAD system of Figure 1.

This facade wires together the storage substrate, the OSD, the index stores
and both halves of the native API, and is the entry point examples, the POSIX
veneer and the benchmarks use:

* objects are created, read, written, grown from the middle and truncated by
  range through the access interfaces;
* objects are *named* — by POSIX paths, full-text content, users,
  applications, manual annotations, image features — through the naming
  interfaces;
* searches are conjunctions of tag/value pairs or full boolean queries,
  optionally planned by selectivity;
* content is indexed inside the operation that wrote it; the full-text
  engine's posting backlog defers the tree writes (the paper's lazy
  indexing), not the visibility.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.cache import BufferPool, GenerationMemo
from repro.core.access import ObjectHandle
from repro.core.naming import NamingInterface, PairLike, as_pair
from repro.core.query import Query, parse_query
from repro.errors import (
    CorruptionError,
    DeviceError,
    IndexStoreError,
    NoSuchObjectError,
    RecoveryError,
)
from repro.fulltext.persistent_index import PersistentInvertedIndex
from repro.integrity import IntegrityContext, Scrubber, ScrubReport
from repro.index.path_index import normalize_path
from repro.index.tags import normalize_tag
from repro.index import (
    TAG_APP,
    TAG_FULLTEXT,
    TAG_ID,
    TAG_IMAGE,
    TAG_POSIX,
    TAG_UDEF,
    TAG_USER,
    FullTextIndexStore,
    ImageIndexStore,
    IndexStoreRegistry,
    KeyValueIndexStore,
    TagValue,
)
from repro.opcontext import current_operation, detached
from repro.osd.metadata import ObjectMetadata
from repro.osd.object_store import ObjectStore
from repro.recovery import RecoveryManager, Superblock
from repro.recovery.manager import CHECKPOINT_THRESHOLD
from repro.storage import BlockDevice
from repro.storage.latency import LatencyModel
from repro.telemetry import (
    ExplainReport,
    QueryTrace,
    Telemetry,
    TimedLock,
    explain_analyze_query,
    explain_query,
)

#: health-check severities, worst-wins (the gauge exports the number).
_HEALTH_LEVELS = {"ok": 0, "warn": 1, "fail": 2}

# Every name, a POSIX path included, is persisted as one master-tree entry
# spelled ``TAG/value`` (``ObjectStore.put_name``; a path is ``POSIX//a/b``),
# so a heavily-tagged object never grows an unbounded metadata record.
# Full-text postings and image features live in their own on-device btrees
# and mounts re-attach them.  Whether an object's content is indexed is its
# metadata record's ``hfad.ci`` attribute, read where it is needed.
_RESERVED_ATTR = "hfad."      # attribute keys only the engine writes
_ATTR_INDEXED = "hfad.ci"     # content-indexed flag


def _require_pool_pages(cache_pages: int) -> None:
    """The engine keeps uncommitted dirty pages in the pool (no-steal), so
    it cannot run without one."""
    if cache_pages < 1:
        raise ValueError(
            f"cache_pages must be at least 1 (got {cache_pages}): no-steal "
            "holds uncommitted dirty pages in the buffer pool"
        )


def _reject_reserved_attributes(attributes: Iterable[str]) -> None:
    """Callers may not set the engine's own ``hfad.`` attributes: the
    content-indexed flag, for one, decides which writes re-index."""
    for key in attributes:
        if key.startswith(_RESERVED_ATTR):
            raise ValueError(
                f"attribute {key!r}: keys starting with {_RESERVED_ATTR!r} "
                "are reserved for the engine"
            )


class HFADFileSystem:
    """A tagged, search-based file system (the paper's hFAD).

    Constructing one formats the device (mkfs): a superblock and a
    write-ahead journal, then the master, content, full-text and image
    btrees, which run write-back through the shared buffer pool with every
    page CRC32-framed (``repro.integrity``).  Every operation is crash-atomic;
    re-open the device with :meth:`mount`.  There is no other engine; the
    legacy keyword that once selected one accepts only ``True``.

    :param device: block device to build on; a private in-memory device is
        created when omitted.
    :param num_blocks: size of the private device (ignored if ``device`` given).
    :param latency_model: latency model for the private device.
    :param cache_pages: global buffer-pool budget (in pages) shared by every
        btree; at least 1 (no-steal holds uncommitted dirty pages in the
        pool).
    :param query_cache_entries: capacity of each result memo (boolean and
        ranked); ``0`` disables result caching so every query re-evaluates
        the indexes.
    :param journal_blocks: size of the WAL region in device blocks (the
        metadata prefix ``superblock + journal`` is rounded up to a power of
        two and reserved out of the data allocator).  Must fit the largest
        single transaction — about one record per leaf it touches, as
        README "Sizing the journal" spells out.  An automatic checkpoint
        fires when the journal is half full.
    :param group_commit: commits batched per journal sync (``1`` = sync
        every commit; larger values trade a bounded loss window for
        throughput — see ``repro.recovery``).
    :param sync_interval_ms: upper bound on how long a group-committed
        (buffered) frame may wait for its covering sync — the WAL
        idle flusher.  ``None`` auto-enables a small default whenever
        ``group_commit > 1`` so a lone writer's commit is durable within
        the interval instead of stranded until the next writer; ``0``
        disables the flusher (the pre-fix behaviour).
    :param telemetry: enable the observability subsystem
        (``repro.telemetry``): native instruments (latency histograms, WAL
        batch sizes) record, queries leave traces in the last-N ring, and
        ``stats()`` grows a ``"telemetry"`` key.  ``False`` swaps every
        instrument for a shared no-op and drops the tracer — the hot paths
        then pay only ``is not None`` checks — while ``stats()`` keeps its
        full shape (it reads the layers directly).  Enabling telemetry
        also turns on per-operation resource attribution (every ``create``
        / ``query`` / ``rank`` / ... accounts the pages, cache traffic, WAL
        bytes and lock waits it caused — see :meth:`operations`), profiles
        the journal mutex and the engine lock (see
        :meth:`_install_timed_locks`), and arms the slow-query log.
    """

    def __init__(
        self,
        device: Optional[BlockDevice] = None,
        num_blocks: int = 1 << 16,
        latency_model: Optional[LatencyModel] = None,
        btree_on_device: bool = True,
        cache_pages: int = 256,
        query_cache_entries: int = 256,
        journal_blocks: int = 511,
        group_commit: int = 1,
        sync_interval_ms: Optional[float] = None,
        telemetry: bool = True,
        _mounted: Optional[dict] = None,
    ) -> None:
        if not btree_on_device:
            raise ValueError("btree_on_device=False named the volatile in-memory "
                             "engine, which no longer exists")
        _require_pool_pages(cache_pages)
        if device is None:
            device = BlockDevice(num_blocks=num_blocks, latency_model=latency_model)
        self.device = device
        #: the observability subsystem: a metrics registry of native
        #: instruments plus the last-N query-trace ring.
        #: ``telemetry=False`` degrades every instrument to a shared no-op;
        #: ``stats()`` reads the layers directly, so it is identical either way.
        self.telemetry = Telemetry(enabled=telemetry)
        #: the shared memory hierarchy between the btrees and the device.
        self.buffer_pool = BufferPool(capacity=cache_pages)
        #: shared integrity state (checksum/retry counters, page quarantine)
        #: for every page store.
        self.integrity = IntegrityContext()
        self._scrubber: Optional[Scrubber] = None
        if _mounted is not None:
            # mount(): the recovery manager has already replayed the journal;
            # re-open the object store from the recovered on-device state.
            self.recovery: RecoveryManager = _mounted["recovery"]
            # Pages replay could not rebuild hold torn or rotten bytes: every
            # read of them fails fast until a logged rewrite or a repair.
            for page_id in self.recovery.journal.last_replay_unresolved:
                self.integrity.quarantine_page(page_id)
            self.recovery.attach_pool(self.buffer_pool)
            self.objects = ObjectStore.mount(
                device,
                self.recovery,
                buffer_pool=self.buffer_pool,
                integrity=self.integrity,
            )
            roots = self.recovery.state
        else:
            # mkfs: reserve the metadata prefix (superblock + journal) out of
            # the data allocator; checkpoint zero is written below.
            from repro.storage.buddy import BuddyAllocator, _next_power_of_two

            data_region_start = 1 + journal_blocks
            reserved = _next_power_of_two(data_region_start)
            if reserved * 2 > device.num_blocks:
                raise ValueError(
                    f"device of {device.num_blocks} blocks too small for a "
                    f"{journal_blocks}-block journal"
                )
            self.recovery = RecoveryManager(
                device,
                journal_start=1,
                journal_blocks=journal_blocks,
                group_commit=group_commit,
                sync_interval_ms=sync_interval_ms,
            )
            self.recovery.attach_pool(self.buffer_pool)
            allocator = BuddyAllocator(total_blocks=device.num_blocks, base=0)
            allocator.reserve(0, data_region_start)
            # The four trees' first pages are one transaction, committed
            # below once the index trees exist.
            self.recovery.begin()
            self.objects = ObjectStore(
                device=device,
                allocator=allocator,
                buffer_pool=self.buffer_pool,
                recovery=self.recovery,
                integrity=self.integrity,
            )
            roots = {}
        # The btrees backing the full-text and image indexes: re-attached
        # from their checkpointed (and replay-updated) roots at mount,
        # created alongside the master tree at mkfs.
        self._fulltext_tree = self.objects.open_index_tree(
            "index.fulltext",
            root_id=roots.get("fulltext_root"),
            on_root_change=self._fulltext_root_moved,
        )
        self._image_tree = self.objects.open_index_tree(
            "index.image",
            root_id=roots.get("image_root"),
            on_root_change=self._image_root_moved,
        )
        if _mounted is None:
            self.recovery.commit()
            self.recovery.initialize(
                master_root=self.objects._master.root_id,
                next_oid=self.objects._next_oid,
                data_region_start=data_region_start,
                fulltext_root=self._fulltext_tree.root_id,
                image_root=self._image_tree.root_id,
                content_root=self.objects._content.root_id,
            )
        # Index stores (Figure 1: the extensible collection of indices).
        # The FULLTEXT store's engine and the image store read and write
        # their btrees, whose pages ride the same buffer pool and WAL as
        # everything else; a mount loads neither.  The key/value store
        # claims POSIX, so paths live where the path API reads them.
        self.keyvalue_index = KeyValueIndexStore(
            tags=(*KeyValueIndexStore.DEFAULT_TAGS, TAG_POSIX))
        self.fulltext_index = FullTextIndexStore(
            index=PersistentInvertedIndex(self._fulltext_tree, recovery=self.recovery),
        )
        self.image_index = ImageIndexStore(self._image_tree, recovery=self.recovery)
        # The posting backlog's threshold settle: after a commit, never
        # inside the transaction that crossed the line.
        self.recovery.after_commit = self._settle_if_due
        # The key/value store also serves every tag no other store claims.
        self.registry = IndexStoreRegistry(fallback=self.keyvalue_index)
        self.registry.register(self.keyvalue_index)
        self.registry.register(self.fulltext_index)
        self.registry.register(self.image_index)
        # Content indexing mutates the inverted index outside the registry;
        # bump the FULLTEXT generation at the moment a mutation becomes
        # visible so cached results die exactly then.
        self.fulltext_index.on_mutation = lambda: self.registry.touch(TAG_FULLTEXT)
        # Native API.
        # Result memos (repro.cache.query_cache): boolean answers keyed by
        # canonical query, ranked answers by (text, limit); one knob sizes
        # and enables both.
        self.query_cache = (
            GenerationMemo(query_cache_entries) if query_cache_entries else None
        )
        self.ranked_cache = (
            GenerationMemo(query_cache_entries) if query_cache_entries else None
        )
        self.naming = NamingInterface(
            self.registry,
            query_cache=self.query_cache,
            ranked_cache=self.ranked_cache,
            telemetry=self.telemetry,
        )
        if self.telemetry.enabled:
            self.recovery.commit_batch_sizes = self.telemetry.metrics.histogram(
                "wal.group_commit.batch_size",
                "transactions per sync",
            )
        self._install_timed_locks()
        self._register_telemetry()
        if _mounted is not None:
            # A crash leaves a posting backlog (the engine re-derived its
            # overlay from it); finish it before the first request.
            self._settle()
            self._rebuild_naming()
            # Clear the replayed tail and persist the recovered roots.
            self.recovery.checkpoint()

    # ------------------------------------------------------------------
    # durability: mount, checkpoint, fsck
    # ------------------------------------------------------------------

    def _fulltext_root_moved(self, root: int) -> None:
        # Like the master root: nothing on the device points at an index
        # tree's root, so journal it logically for the next mount.
        self.recovery.log_meta({"fulltext_root": root})

    def _image_root_moved(self, root: int) -> None:
        self.recovery.log_meta({"image_root": root})

    @classmethod
    def mount(
        cls,
        device: BlockDevice,
        cache_pages: int = 256,
        query_cache_entries: int = 256,
        group_commit: int = 1,
        sync_interval_ms: Optional[float] = None,
        telemetry: bool = True,
    ) -> "HFADFileSystem":
        """Re-open a device an :class:`HFADFileSystem` formatted.

        Recovery runs before any index is opened: the superblock is loaded
        and asked whether its format is one this code serves (a refusal
        leaves the device untouched), the journal's committed tail is
        replayed onto home locations, and only then is the master tree
        walked once (metadata, extent maps and name entries) and the one
        naming index, the key/value store holding tags and paths alike,
        built from the name entries that walk read, in one sorted
        bottom-up pass (see :meth:`_rebuild_naming`).  Full-text postings
        and image features re-attach from their persistent index trees
        (recorded in the superblock) without reading any object content —
        mounts cost O(metadata).  Every operation that completed before the crash is
        visible; every operation whose frame did not reach the log has
        vanished whole.
        """
        _require_pool_pages(cache_pages)
        superblock = Superblock.load(device)
        superblock.require_mountable(device.block_size)
        recovery = RecoveryManager.from_superblock(
            device, superblock,
            group_commit=group_commit,
            sync_interval_ms=sync_interval_ms,
        )
        recovery.replay()
        return cls(
            device=device,
            cache_pages=cache_pages,
            query_cache_entries=query_cache_entries,
            telemetry=telemetry,
            _mounted={"recovery": recovery},
        )

    def _rebuild_naming(self) -> None:
        """Mount-time re-indexing: load the name index from the name entries.

        Every name, POSIX paths included, is persisted as a master-tree name
        entry (covered by the WAL), and every tag but ``FULLTEXT`` and
        ``IMAGE`` (whose answers live in their on-device index trees) routes
        to the key/value store.  So the mount resolves each distinct tag
        once, refuses one routed anywhere else, and builds that store's
        tree in one sorted bottom-up pass over the entries the mount walk
        already read, rather than one insert per name.  No object bytes and
        no index leaves are read here.
        """
        by_tag: Dict[bytes, List[Tuple[bytes, int]]] = {}
        for oid, name in self.objects.take_mount_inventory():
            tag, _slash, value = name.partition(b"/")
            by_tag.setdefault(tag, []).append((value, oid))
        loaded: Dict[str, List[Tuple[bytes, int]]] = {}
        for raw, entries in by_tag.items():
            tag = normalize_tag(raw.decode("utf-8"))
            if tag in (TAG_FULLTEXT, TAG_IMAGE):
                continue
            store = self.registry.store_for(tag)
            if store is not self.keyvalue_index:
                raise RecoveryError(
                    f"names under tag {tag!r} route to the {store.name!r} "
                    "store, which a mount cannot rebuild")
            loaded.setdefault(tag, []).extend(entries)
        count = self.keyvalue_index.load(
            {tag.encode("utf-8"): entries for tag, entries in loaded.items()})
        self.naming.stats.names_added += count
        self.registry.stats.inserts += count
        for tag in loaded:
            self.registry.touch(tag)

    def _durable(self):
        """One WAL transaction bracketing a whole filesystem operation.

        The OSD wraps each of its own mutators too, but compound operations
        (create = allocate + write + name) must be atomic as a unit; nesting
        is flat, so this outer bracket subsumes the inner ones.
        """
        return self.recovery.transaction()

    def read_view(self):
        """The engine lock, shared: one snapshot-stable read.

        Every read holds one for its whole execution: readers overlap
        readers and a writer queues, so the answer reflects exactly one
        committed generation of every tree (no torn cross-tree reads, no
        mid-scan mutation).  ``with fs.read_view(): ...`` groups several
        reads into one view — e.g. a count and a listing that must agree.
        Re-entrant with the calling thread's own open transaction, so a
        writer may query its own uncommitted state; a mutation inside a
        view raises :class:`~repro.errors.RecoveryError`.
        """
        return self.recovery.read_view()

    def _settle(self) -> int:
        """Settle the posting backlog as a ledger operation (a checkpoint's
        settle is absorbed into the checkpoint's record)."""
        with self._operation("settle"):
            return self.fulltext_index.index.settle()

    def _settle_if_due(self) -> None:
        """After-commit hook: the threshold settle, booked to a record of its
        own rather than to the operation whose commit tripped it."""
        if self.fulltext_index.index.settle_due:
            with detached():
                self._settle()

    def _operation(self, kind: str, detail: str = ""):
        """Open a per-operation attribution scope (see ``repro.telemetry``).

        Every user-facing operation runs inside one of these; the layers
        below (buffer pool, page stores, journal, retry ladder) report what
        they do for the *current* operation into it via a context variable.
        With telemetry off — or when this operation is nested inside another
        one, which absorbs it — the scope yields ``None`` and costs only the
        context-manager protocol.
        """
        ledger = self.telemetry.attribution
        if ledger is None:
            return nullcontext()
        return ledger.operation(kind, detail)

    def _install_timed_locks(self) -> None:
        """Instrument the system-wide locks for contention profiling.

        The journal mutex becomes a :class:`TimedLock` delegating to the
        original RLock — same re-entrancy, same lock ordering — and the
        engine lock reports its waits through the lock manager's observer
        hook into the ``lock.engine.wait_us`` histogram, with the wait still
        charged to the blocked operation's attribution record.  The
        buffer-pool lock stays bare: it is taken on every page access, and
        a wrapper's ~3 µs there cost a page-bound query ~28 %.  With
        telemetry off nothing is wrapped.
        """
        if not self.telemetry.enabled:
            return
        metrics = self.telemetry.metrics
        self.recovery.journal._mutex = TimedLock(
            "wal.journal", metrics, inner=self.recovery.journal._mutex)
        waits = metrics.histogram(
            "lock.engine.wait_us",
            "microseconds spent queued on the engine lock "
            "(contended acquisitions only)")

        def engine_wait_observer(resource: str, mode: str,
                                 waited_us: float) -> None:
            waits.observe(waited_us)
            op = current_operation()
            if op is not None:
                op.add_lock_wait("engine", waited_us)

        self.recovery.lock_manager.wait_observer = engine_wait_observer

    def checkpoint(self) -> int:
        """Force a checkpoint: flush dirty pages, truncate the journal,
        persist the superblock.  Returns the number of pages flushed."""
        with self._operation("checkpoint"):
            self._settle()
            self.objects.flush_access_times()
            return self.recovery.checkpoint()

    def scrub(self, limit: Optional[int] = None) -> ScrubReport:
        """Online integrity scrub: verify every reachable btree page's
        checksum frame, repair rot from the buffer pool or the WAL tail,
        quarantine what neither source can heal; a finished cycle then
        checks every data chunk against its CRC and quarantines the ones
        that fail (chunks have no second copy).

        ``limit=N`` verifies at most ``N`` pages and parks the walk; the
        next call resumes it (``ScrubReport.complete`` reports whether the
        cycle finished).  Runs against the live filesystem — repairs are
        idempotent rewrites of committed state, so no lock-out is needed.
        """
        if self._scrubber is None:
            self._scrubber = Scrubber(
                self.device,
                self.integrity,
                self.objects.scrub_sources,
                journal=self.recovery.journal,
            )
        started = time.perf_counter()
        with self._operation("scrub", f"limit={limit}"):
            report = self._scrubber.scrub(limit=limit)
            if report.complete:
                # Data chunks are outside every page frame: each carries
                # its own CRC, checked once per finished cycle.
                report.chunks_scanned, chunk_errors = self.objects.scrub_chunks()
                report.chunks_corrupt = len(chunk_errors)
                report.errors.extend(chunk_errors)
        tracer = self.telemetry.tracer
        if tracer is not None:
            tracer.record(
                "scrub",
                f"limit={limit} repaired={report.repaired} "
                f"quarantined={report.quarantined}",
                time.perf_counter() - started,
                report.pages_scanned,
            )
        return report

    def fsck(self) -> Dict[str, object]:
        """Integrity audit of the on-device structures.

        The OSD audits its own objects (:meth:`ObjectStore.check_consistency`:
        extent maps, master-tree invariants, allocator); this facade aggregates that with the structures only it
        knows about — the persistent index trees and the journal.  Returns a
        report dict with an ``errors`` list — empty on a healthy filesystem.
        """
        report: Dict[str, object] = self.objects.check_consistency()
        errors: List[str] = report["errors"]
        for label, tree, root_key in (
            ("fulltext index", self._fulltext_tree, "fulltext_root"),
            ("image index", self._image_tree, "image_root"),
            ("content tree", self.objects._content, "content_root"),
        ):
            try:
                tree.check_invariants()
                persisted = self.recovery.state.get(root_key, 0)
                if persisted != tree.root_id:
                    errors.append(
                        f"{label}: persisted root {persisted} != live root "
                        f"{tree.root_id}"
                    )
            except Exception as error:  # noqa: BLE001 — fsck reports, never raises
                errors.append(f"{label}: {error}")
        journal = self.recovery.journal
        try:
            report["journal_committed_transactions"] = len(journal.scan())
            report["journal_bytes_used"] = journal.bytes_used
        except Exception as error:  # noqa: BLE001
            errors.append(f"journal: {error}")
        # The fsck blind spots the integrity work closed: the superblock and
        # the journal header region are themselves checked bytes.
        try:
            Superblock.load(self.device)
        except (RecoveryError, DeviceError) as error:
            errors.append(f"superblock: {error}")
        try:
            region = journal.verify_device_region()
            report["journal_region"] = region
            if not region["matches_memory"]:
                errors.append(
                    "journal: device bytes diverge from the flushed log "
                    f"at offset {region['first_divergence']}"
                )
        except Exception as error:  # noqa: BLE001
            errors.append(f"journal region: {error}")
        quarantined = sorted(self.integrity.quarantine)
        report["quarantined_pages"] = quarantined
        if quarantined:
            errors.append(
                f"integrity: {len(quarantined)} page(s) quarantined "
                f"pending repair: {quarantined}"
            )
        report["clean"] = not errors
        return report

    # ------------------------------------------------------------------
    # object lifecycle
    # ------------------------------------------------------------------

    def create(
        self,
        content: bytes = b"",
        path: Optional[str] = None,
        owner: str = "root",
        application: Optional[str] = None,
        tags: Iterable[PairLike] = (),
        annotations: Iterable[str] = (),
        attributes: Optional[Dict[str, str]] = None,
        index_content: bool = True,
    ) -> int:
        """Create an object, store ``content`` and give it its initial names.

        Automatic names follow Table 1: the creating user (USER/owner), the
        producing application (APP/name) when given, any manual annotations
        (UDEF/...), an optional POSIX path, and — when ``index_content`` is
        true — the object's full text.
        """
        names = self._check_names([
            TagValue(TAG_USER, owner),
            *([] if application is None else [TagValue(TAG_APP, application)]),
            *(TagValue(TAG_UDEF, annotation) for annotation in annotations),
            *tags,
            *([] if path is None else [TagValue(TAG_POSIX, path)]),
        ])
        _reject_reserved_attributes(attributes or ())
        with self._operation("create", path or ""), self._durable():
            oid = self.objects.create(owner=owner, attributes=attributes)
            if content:
                self.objects.write(oid, 0, content)
            for pair in names:
                self._add_name(oid, pair)
            if index_content:
                # Flag the object even when it starts empty so that later
                # writes through the access interfaces keep its index entry
                # current.
                self.objects.set_attributes(oid, **{_ATTR_INDEXED: "1"})
                if content:
                    self.fulltext_index.index_content(oid, content)
            return oid

    # -- the one name path ----------------------------------------------------
    #
    # Every name is one tag/value pair, a POSIX path too ("simply one name
    # among many possible names", Section 3.1.1).  _add_name / _remove_name
    # are the only code that adds or removes one: the registry indexes it
    # (bumping the tag's generation) and one ``TAG/value`` master-tree entry,
    # riding the enclosing WAL transaction, makes it survive a re-mount.

    @staticmethod
    def _canonical(pair: PairLike) -> TagValue:
        """The spelling a name is indexed and stored under: a POSIX value is
        its normalized path, so every API finds the same entry."""
        pair = as_pair(pair)
        if pair.tag == TAG_POSIX:
            return TagValue(TAG_POSIX, normalize_path(pair.value))
        return pair

    def _check_names(self, pairs: Iterable[PairLike]) -> List[TagValue]:
        """Validate names and return them canonical.

        Runs before anything is logged: with redo-only logging a failure
        after the first logged page poisons the engine, and a typo'd name
        must not cost a remount.
        """
        checked = []
        for pair in map(self._canonical, pairs):
            if "/" in pair.tag or "\x00" in pair.tag or "\x00" in pair.value:
                raise IndexStoreError(
                    f"name {str(pair)!r}: a tag may not contain '/', nor a "
                    "tag or value a NUL byte")
            self.registry.store_for(pair.tag)  # refuses the ID fast-path tag
            self.objects.check_name(str(pair))
            checked.append(pair)
        return checked

    def _add_name(self, oid: int, pair: TagValue) -> None:
        if pair.tag == TAG_POSIX:
            # A path names one object: the displaced holder loses it, index
            # entry and durable entry both, or the mount would hand it back.
            displaced = self._path_holder(pair.value)
            if displaced is not None and displaced != oid:
                self._remove_name(displaced, pair)
        self.naming.add_name(oid, pair)
        self.objects.put_name(oid, str(pair))

    def _remove_name(self, oid: int, pair: TagValue) -> bool:
        removed = self.naming.remove_name(oid, pair)
        if removed and self.objects.exists(oid):
            self.objects.remove_name(oid, str(pair))
        return removed

    def _check_usable(self) -> None:
        """A poisoned engine answers nothing: after a transaction aborted
        past its first logged record, the in-memory trees, indexes and pool
        no longer match the committed state, and only a remount does."""
        self.recovery.check_usable()

    def _require_object(self, oid: int) -> None:
        """The existence probe an operation runs before its durable bracket."""
        self._check_usable()
        if not self.objects.exists(oid):
            raise NoSuchObjectError(oid)

    def delete(self, oid: int) -> None:
        """Destroy the object and scrub every name pointing at it."""
        self._require_object(oid)
        with self._operation("delete", f"oid={oid}"), self._durable():
            self.naming.remove_all_names(oid)
            self.objects.delete(oid)

    def exists(self, oid: int) -> bool:
        with self.read_view():
            return self.objects.exists(oid)

    @property
    def object_count(self) -> int:
        return self.objects.object_count

    def list_objects(self) -> List[int]:
        with self.read_view():
            return self.objects.list_objects()

    # ------------------------------------------------------------------
    # access interfaces (read / write / insert / truncate)
    # ------------------------------------------------------------------

    # "The read and write calls are compatible with POSIX ... The insert
    # call takes arguments identical to the write call ... hFAD takes two
    # off_t's, an offset and length, indicating exactly which bytes to remove
    # from the file." (Section 3.1.2)  Every byte mutation re-indexes the
    # object's content inside its own transaction.

    def read(self, oid: int, offset: int = 0, length: Optional[int] = None) -> bytes:
        """POSIX-style pread."""
        with self._operation("read", f"oid={oid}"), self.read_view():
            return self.objects.read(oid, offset, length)

    def write(self, oid: int, offset: int, data: bytes) -> int:
        """POSIX-style pwrite (overwrites; extends at the end)."""
        with self._operation("write", f"oid={oid}"), self._durable():
            written = self.objects.write(oid, offset, data)
            self._reindex_if_tracked(oid)
            return written

    def append(self, oid: int, data: bytes) -> int:
        """Append; returns the offset the data landed at."""
        with self._operation("append", f"oid={oid}"), self._durable():
            offset = self.objects.append(oid, data)
            self._reindex_if_tracked(oid)
            return offset

    def insert(self, oid: int, offset: int, data: bytes) -> int:
        """Insert bytes at ``offset``, growing the object (same args as write)."""
        with self._operation("insert", f"oid={oid}"), self._durable():
            inserted = self.objects.insert(oid, offset, data)
            self._reindex_if_tracked(oid)
            return inserted

    def truncate(self, oid: int, offset: int, length: int) -> int:
        """The hFAD two-argument truncate (remove ``length`` bytes at ``offset``)."""
        with self._operation("truncate", f"oid={oid}"), self._durable():
            removed = self.objects.remove_range(oid, offset, length)
            self._reindex_if_tracked(oid)
            return removed

    def resize(self, oid: int, size: int) -> None:
        """POSIX truncate-to-length: shrink, or sparsely grow, to ``size``."""
        with self._operation("truncate", f"oid={oid}"), self._durable():
            self.objects.truncate(oid, size)
            self._reindex_if_tracked(oid)

    def open(self, oid: int) -> ObjectHandle:
        """A file-like handle positioned at offset zero; its calls are this
        facade's."""
        self._require_object(oid)
        return ObjectHandle(self, oid)

    def stat(self, oid: int) -> ObjectMetadata:
        """The object's metadata, without the engine's own ``hfad.`` keys."""
        with self.read_view():
            metadata = self.objects.stat(oid)
        metadata.attributes = {key: value for key, value in metadata.attributes.items()
                               if not key.startswith(_RESERVED_ATTR)}
        return metadata

    def size(self, oid: int) -> int:
        with self.read_view():
            return self.objects.size(oid)

    def set_attributes(self, oid: int, **attributes: str) -> None:
        _reject_reserved_attributes(attributes)
        self.objects.set_attributes(oid, **attributes)

    def _reindex_if_tracked(self, oid: int) -> None:
        if self.objects.stat(oid).attributes.get(_ATTR_INDEXED) == "1":
            self.fulltext_index.index_content(oid, self.objects.read(oid))

    def enable_content_indexing(self, oid: int) -> None:
        """Start tracking (and immediately index) the object's content."""
        with self._operation("enable_content_indexing", f"oid={oid}"):
            self._require_object(oid)
            with self._durable():
                self.objects.set_attributes(oid, **{_ATTR_INDEXED: "1"})
                self.fulltext_index.index_content(oid, self.objects.read(oid))

    def disable_content_indexing(self, oid: int) -> None:
        """Stop tracking the object's content and drop it from the index."""
        with self._operation("disable_content_indexing", f"oid={oid}"):
            self._require_object(oid)
            with self._durable():
                self.objects.remove_attributes(oid, _ATTR_INDEXED)
                self.fulltext_index.drop_content(oid)

    # ------------------------------------------------------------------
    # naming interfaces
    # ------------------------------------------------------------------

    def tag(self, oid: int, tag: str, value: str) -> None:
        """Add one tag/value name to an object.

        Any tag works: one no index store claims is served by the key/value
        store.
        """
        with self._operation("tag", f"oid={oid} {tag}/{value}"):
            self._require_object(oid)
            (pair,) = self._check_names([TagValue(tag, value)])
            with self._durable():
                self._add_name(oid, pair)

    def untag(self, oid: int, tag: str, value: str) -> bool:
        """Remove one tag/value name; returns True if it existed."""
        pair = self._canonical(TagValue(tag, value))
        with self._operation("untag", f"oid={oid} {pair}"), self._durable():
            return self._remove_name(oid, pair)

    def names_for(self, oid: int) -> List[TagValue]:
        with self.read_view():
            return self.naming.names_for(oid)

    def find(self, *pairs: PairLike, limit: Optional[int] = None) -> List[int]:
        """Conjunctive naming operation over tag/value pairs.

        ``limit=N`` streams the first ``N`` matches (ascending object id)
        out of the index merge and stops — top-k early exit.
        """
        with self._operation("find", " ".join(str(as_pair(p)) for p in pairs)), \
                self.read_view():
            try:
                return self.naming.resolve(list(pairs), limit=limit)
            except CorruptionError:
                return self._degraded(
                    lambda naming: naming.resolve(list(pairs), limit=limit)
                )

    def find_one(self, *pairs: PairLike) -> int:
        """Like :meth:`find` but returns one match (raises if none)."""
        with self._operation("find", " ".join(str(as_pair(p)) for p in pairs)), \
                self.read_view():
            try:
                return self.naming.resolve_one(list(pairs))
            except CorruptionError:
                return self._degraded(
                    lambda naming: naming.resolve_one(list(pairs))
                )

    def query(self, query: Union[str, Query], limit: Optional[int] = None) -> List[int]:
        """Boolean query, e.g. ``"USER/margo AND NOT APP/quicken"``.

        ``limit=N`` streams only the first ``N`` matching ids.
        """
        text = str(query)
        started = time.perf_counter()
        with self._operation("query", text) as op, self.read_view():
            if isinstance(query, str):
                query = parse_query(query)
            try:
                result = self.naming.query(query, limit=limit)
            except CorruptionError:
                result = self._degraded(
                    lambda naming: naming.query(query, limit=limit)
                )
        self._maybe_slow("query", text, time.perf_counter() - started, op,
                         limit=limit)
        return result

    def search_text(self, text: str, limit: Optional[int] = None) -> List[int]:
        """Full-text conjunction: objects containing every term of ``text``."""
        terms = self.fulltext_index.index.analyzer.analyze_query(text)
        if not terms:
            return []
        return self.find(*[TagValue("FULLTEXT", term) for term in terms], limit=limit)

    def rank(self, text: str, limit: Optional[int] = 10):
        """BM25-ranked full-text search, best hit first.

        With a ``limit`` the ranking streams through the WAND/block-max
        scored-cursor pipeline: documents whose term upper bounds cannot
        beat the current top-``limit`` are pruned unscored, so a top-10 ask
        on a large corpus touches a fraction of the matching documents.
        Results (scores *and* order) are identical to exhaustive BM25 —
        ``fs.stats()["ranked"]`` reports the work saved.  ``limit=None``
        ranks every matching document.
        """
        started = time.perf_counter()
        with self._operation("rank", text) as op, self.read_view():
            try:
                result = self.naming.rank(text, limit=limit)
            except CorruptionError:
                result = self._degraded(
                    lambda naming: naming.rank(text, limit=limit))
        self._maybe_slow("rank", text, time.perf_counter() - started, op)
        return result

    # -- graceful degradation (quarantined / corrupt index pages) -------------

    def _degraded(self, run: Callable[[NamingInterface], object]):
        """Re-run a query that hit corrupt index bytes against a rescue stack.

        Two stores read on-device pages at query time: FULLTEXT and IMAGE
        (key/value names, paths included, serve from an in-memory index).
        Postings are derived state, so the fallback rebuilds an *ephemeral
        in-memory* inverted index from the ground truth the paper's design
        guarantees we still have — the objects' own bytes — and answers from
        that instead of raising mid-cursor.  Answers are correct-if-complete: objects
        whose content is itself unreadable are skipped and the query is
        accounted as partial in ``stats()["integrity"]``.  Damage the rescan
        cannot route around (a corrupt master tree, or an image-tree page:
        histograms come from callers, not content) propagates as
        :class:`~repro.errors.CorruptionError` — surfaced, never silent.
        """
        stats = self.integrity.stats
        stats.degraded_queries += 1
        naming, partial = self._rescue_naming()
        result = run(naming)
        if partial:
            stats.partial_results += 1
        return result

    def _rescue_naming(self) -> Tuple[NamingInterface, bool]:
        """Build the one-shot degraded naming stack; returns (naming, partial)."""
        partial = False
        rescue = FullTextIndexStore(
            index=PersistentInvertedIndex(analyzer=self.fulltext_index.index.analyzer)
        )
        try:
            live = self.objects.list_objects()
        except CorruptionError:
            live, partial = [], True
        for oid in live:
            try:
                if self.objects.stat(oid).attributes.get(_ATTR_INDEXED) == "1":
                    content = self.objects.read(oid)
                    if content:
                        rescue.index_content(oid, content)
            except (CorruptionError, NoSuchObjectError):
                partial = True
        # Manual FULLTEXT keywords are persisted as master-tree name entries,
        # not object content; fold them in so keyword-named objects stay
        # findable while the posting tree is out of service.
        try:
            for oid in live:
                for entry in self.objects.names(oid):
                    pair = TagValue.parse(entry)
                    if pair.tag == TAG_FULLTEXT:
                        rescue.insert(pair.tag, pair.value, oid)
        except (CorruptionError, NoSuchObjectError):
            partial = True
        # The live routing, every store a caller registered and the
        # fallback included, with only the FULLTEXT store swapped for the
        # rescue index.
        registry = IndexStoreRegistry(fallback=self.keyvalue_index)
        for tag in sorted(self.registry.registered_tags - {TAG_ID}):
            store = self.registry.store_for(tag)
            registry.register(rescue if store is self.fulltext_index else store,
                              tags=[tag])
        naming = NamingInterface(
            registry,
            planner=self.naming.planner,
            query_cache=None,  # never memoize potentially-partial answers
            telemetry=self.telemetry,
        )
        return naming, partial

    # POSIX-path conveniences (the veneer in repro.posix builds on these):
    # the tag API on the POSIX tag, and reads of the key/value store's
    # POSIX values under a read view.

    def link_path(self, path: str, oid: int) -> None:
        """Give an object (another) POSIX path name."""
        self.tag(oid, TAG_POSIX, path)

    def rename_path(self, old_path: str, new_path: str) -> Optional[int]:
        """Move one path binding atomically; returns the object it names.

        rename(2) semantics need one transaction: unlink-then-link as two
        separate durable operations would let a crash between them strand
        the object with neither name.
        """
        old = self._canonical(TagValue(TAG_POSIX, old_path))
        (new,) = self._check_names([TagValue(TAG_POSIX, new_path)])
        with self._operation("rename_path", f"{old.value} {new.value}"), \
                self._durable():
            oid = self._path_holder(old.value)
            if oid is not None:
                self._remove_name(oid, old)
                self._add_name(oid, new)
            return oid

    def rename_path_subtree(self, old_path: str, new_path: str) -> int:
        """Rebind every path under ``old_path`` below ``new_path``.

        The POSIX veneer's directory rename; one atomic (and durable) name
        operation.  Returns the number of bindings moved.
        """
        old, new = normalize_path(old_path), normalize_path(new_path)
        with self._operation("rename_path_subtree", f"{old} {new}"), \
                self._durable():
            if old == new:
                return 0
            if new.startswith(old.rstrip("/") + "/"):
                raise IndexStoreError(
                    f"cannot rename {old} beneath itself ({new})")
            # Listed and checked inside the bracket, so no writer can bind
            # a path in between, but before anything is logged.
            moves = self.list_subtree(old)
            targets = self._check_names(
                TagValue(TAG_POSIX, new + path[len(old):]) for path, _oid in moves)
            for (path, oid), target in zip(moves, targets):
                self._remove_name(oid, TagValue(TAG_POSIX, path))
                self._add_name(oid, target)
            return len(moves)

    def unlink_path(self, path: str) -> Optional[int]:
        """Remove a POSIX path name; returns the object it named."""
        pair = self._canonical(TagValue(TAG_POSIX, path))
        with self._operation("unlink_path", pair.value), self._durable():
            oid = self._path_holder(pair.value)
            if oid is not None:
                self._remove_name(oid, pair)
            return oid

    def _path_holder(self, path: str) -> Optional[int]:
        """The object a normalized ``path`` names, or None.  Bookkeeping as
        much as a read, so it charges no query scan counter."""
        for bound, oid in self.keyvalue_index.scan(TAG_POSIX, path):
            # A path sorts before every longer one it prefixes.
            return oid if bound == path else None
        return None

    def lookup_path(self, path: str) -> Optional[int]:
        """Resolve a POSIX path to an object id (None if unbound)."""
        with self.read_view():
            return self._path_holder(normalize_path(path))

    def paths_for(self, oid: int) -> List[str]:
        """Every path naming ``oid``, sorted."""
        with self.read_view():
            return [pair.value for pair in self.keyvalue_index.values_for(oid)
                    if pair.tag == TAG_POSIX]

    def list_subtree(self, path: str) -> List[Tuple[str, int]]:
        """Every ``(path, oid)`` bound at or below ``path``, sorted."""
        path = normalize_path(path)
        below = path.rstrip("/") + "/"
        with self.read_view():
            return [(bound, oid)
                    for bound, oid in self.keyvalue_index.scan(TAG_POSIX, path)
                    if bound == path or bound.startswith(below)]

    def list_directory(self, path: str) -> List[str]:
        """The immediate children (names, not paths) of directory ``path``:
        the next component of every path bound below it, sorted."""
        below = normalize_path(path).rstrip("/") + "/"
        return sorted({bound[len(below):].split("/", 1)[0]
                       for bound, _oid in self.list_subtree(path)
                       if len(bound) > len(below)})

    # Image features (the "arbitrary index type" example).

    def index_image(self, oid: int, histogram: Sequence[float]) -> str:
        """Index an object's colour histogram; returns its dominant colour."""
        with self._operation("index_image", f"oid={oid}"):
            self._require_object(oid)
            with self._durable():
                colour = self.image_index.index_histogram(oid, histogram)
                self.registry.touch(TAG_IMAGE)
                return colour

    # ------------------------------------------------------------------
    # transactions / maintenance
    # ------------------------------------------------------------------

    def begin(self):
        """``with fs.begin(): ...`` — a group of operations as one
        crash-atomic WAL transaction.

        Every operation inside joins the group's transaction (nesting is
        flat), and the group commits as one journal frame when the block
        exits normally.  The group holds the engine lock exclusively
        throughout, so no other thread's read sees it half done.  The
        abort rule is the recovery manager's: an exception before anything
        was logged is a clean no-op; after that the engine is poisoned, every
        later call raises :class:`~repro.errors.RecoveryError`, and a remount
        replays the committed prefix, in which the group is absent as a
        whole.  The group must fit the journal (see ``journal_blocks``).
        """
        return self.recovery.transaction()

    def close(self) -> None:
        """Checkpoint (clean unmount).

        The checkpoint is best-effort: a dead device or a poisoned recovery
        manager must not turn teardown into a crash — recovery at the next
        mount handles those states by design.
        """
        self.recovery.stop_flusher()
        try:
            self.checkpoint()
        except (DeviceError, RecoveryError):
            pass

    def __enter__(self) -> "HFADFileSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def _integrity_snapshot(self) -> Dict[str, int]:
        snapshot = self.integrity.stats.snapshot()
        snapshot["quarantined_pages"] = len(self.integrity.quarantine)
        snapshot["checksum_pages"] = self.recovery.state["checksum_pages"]
        return snapshot

    def _persistent_index_snapshot(self) -> Dict[str, object]:
        # Counting documents reads the posting tree; with quarantined pages
        # that read fails — a stats snapshot must degrade, not raise.
        try:
            fulltext_documents: Optional[int] = self.fulltext_index.document_count
        except CorruptionError:
            fulltext_documents = None
        try:
            image_objects: Optional[int] = self.image_index.indexed_count
        except CorruptionError:
            image_objects = None
        backlog_docs, backlog_keys = self.fulltext_index.index.backlog
        return {
            "fulltext_root": self._fulltext_tree.root_id,
            "fulltext_documents": fulltext_documents,
            "fulltext_backlog_docs": backlog_docs,
            "fulltext_backlog_keys": backlog_keys,
            "fulltext_settles": self.fulltext_index.index.settles,
            "image_root": self._image_tree.root_id,
            "image_objects": image_objects,
        }

    def _register_telemetry(self) -> None:
        """Callback gauges over live state: quarantine size, health, and
        the posting backlog."""
        metrics = self.telemetry.metrics
        quarantine = self.integrity.quarantine
        metrics.gauge("integrity.quarantined",
                      "pages quarantined pending repair",
                      fn=lambda: len(quarantine))
        metrics.gauge("health.status",
                      "aggregate health: 0=ok 1=warn 2=fail (worst check wins)",
                      fn=lambda: float(_HEALTH_LEVELS[self.health()["status"]]))
        engine = self.fulltext_index.index
        for at, what in enumerate(("docs", "keys")):
            metrics.gauge(f"fulltext.backlog_{what}",
                          f"posting backlog: {what} a settle still owes the tree",
                          fn=lambda at=at: engine.backlog[at])
        metrics.gauge("fulltext.settles", "posting backlog settles completed",
                      fn=lambda: engine.settles)

    def stats(self) -> Dict[str, object]:
        """A snapshot of work counters across every layer (for benchmarks).

        Each layer is read directly, in this order, whether telemetry is on
        or off (a disabled result cache reports ``None``); with telemetry enabled a
        ``"telemetry"`` key is appended with the native instruments (latency
        histograms, WAL batch sizes, backlog gauges).
        """
        index = self.fulltext_index.index
        snapshot: Dict[str, object] = {
            "device": self.device.stats.snapshot(),
            "objects": self.objects.stats,
            "naming": self.naming.stats,
            "registry": self.registry.stats,
            "planner": self.naming.planner.snapshot(),
            "keyvalue_entries_scanned": self._keyvalue_entries_scanned(),
            "fulltext_term_lookups": index.term_lookups,
            "fulltext_postings_scanned": index.postings_scanned,
            "ranked": self.fulltext_index.ranked_stats.snapshot(),
            "object_count": self.object_count,
            "buffer_pool": self.buffer_pool.snapshot(),
            "query_cache": (self.query_cache.snapshot()
                            if self.query_cache is not None else None),
            "ranked_cache": (self.ranked_cache.snapshot()
                             if self.ranked_cache is not None else None),
            "persistent_index": self._persistent_index_snapshot(),
            "recovery": self.recovery.snapshot(),
            "integrity": self._integrity_snapshot(),
        }
        if self.telemetry.enabled:
            snapshot["telemetry"] = self.telemetry.metrics.snapshot()
            snapshot["telemetry"]["attribution"] = (
                self.telemetry.attribution.snapshot()
            )
        return snapshot

    # ------------------------------------------------------------------
    # observability: explain / explain analyze / trace
    # ------------------------------------------------------------------

    def _keyvalue_entries_scanned(self) -> int:
        """Entries scanned across *every* keyvalue store — the primary one
        (which also serves every unclaimed tag) plus any a caller
        registered, so the analyze differential holds for those leaves
        too."""
        total = self.keyvalue_index.scan_stats.scanned
        for store in self.registry.stores:
            if (isinstance(store, KeyValueIndexStore)
                    and store is not self.keyvalue_index):
                total += store.scan_stats.scanned
        return total

    def _analyze_counters(self):
        return (
            ("pages_read", lambda: self.device.stats.reads),
            ("keyvalue_entries_scanned", self._keyvalue_entries_scanned),
            ("fulltext_postings_scanned",
             lambda: self.fulltext_index.index.postings_scanned),
        )

    def explain(self, query: Union[str, Query]) -> ExplainReport:
        """Compile ``query`` (planner and all) and report the operator tree
        with per-node cardinality estimates — without running it."""
        with self.read_view():
            return explain_query(query, self.registry, planner=self.naming.planner)

    def explain_analyze(
        self, query: Union[str, Query], limit: Optional[int] = None
    ) -> ExplainReport:
        """Run ``query`` through a traced pipeline and report actuals.

        Every plan node is annotated with ids produced, ``next``/``seek``
        calls and wall time; the summary adds device pages read and
        store-level scan deltas.  Bypasses the query-result cache on
        purpose — a memoised answer would have nothing to say about
        execution.  Available regardless of the ``telemetry`` switch (the
        tracing cost is paid only by this call).
        """
        with self.read_view():
            report = explain_analyze_query(
                query,
                self.registry,
                planner=self.naming.planner,
                limit=limit,
                counters=self._analyze_counters(),
            )
        tracer = self.telemetry.tracer
        if tracer is not None:
            tracer.record("explain_analyze", str(report.query), report.elapsed,
                          len(report.results), span=report.root)
        return report

    def trace(self, n: Optional[int] = 10) -> List[QueryTrace]:
        """The most recent completed query traces, newest first.

        Empty when telemetry is disabled (nothing records into the ring).
        """
        tracer = self.telemetry.tracer
        if tracer is None:
            return []
        return tracer.last(n)

    # ------------------------------------------------------------------
    # observability: attribution / slow queries / health
    # ------------------------------------------------------------------

    def operations(self, n: Optional[int] = None) -> List[Dict[str, object]]:
        """The most recent completed operations' attribution records,
        newest first — what each ``create``/``query``/``rank``/... cost in
        pages, cache traffic, WAL bytes/syncs, retries and lock waits.

        Empty when telemetry is disabled.
        """
        ledger = self.telemetry.attribution
        if ledger is None:
            return []
        return ledger.recent(n)

    def slow_queries(self, n: Optional[int] = None) -> List[Dict[str, object]]:
        """The slow-query log, newest first (empty with telemetry off).

        Each entry carries the query text, its latency, the attribution
        record of the slow execution and — for boolean queries — a full
        EXPLAIN ANALYZE report captured by re-executing the query once
        (flagged ``report_reexecuted``); ranked queries attach the span the
        slow execution itself traced.
        """
        log = self.telemetry.slow_queries
        if log is None:
            return []
        return log.last(n)

    def set_slow_query_threshold(self, ms: Optional[float]) -> None:
        """Re-arm (or, with ``None``, disarm) slow-query capture at runtime."""
        log = self.telemetry.slow_queries
        if log is not None:
            log.threshold_ms = ms

    def _maybe_slow(self, kind: str, text: str, elapsed: float,
                    op, limit: Optional[int] = None) -> None:
        """Capture a just-finished query into the slow log if it qualifies.

        Runs *after* the operation scope closed so the attribution record is
        final (elapsed stamped, ledger updated).  Capture is best-effort: the
        query already succeeded and must stay succeeded.
        """
        log = self.telemetry.slow_queries
        if log is None or log.threshold_ms is None:
            return
        if elapsed * 1000.0 < log.threshold_ms:
            return
        attribution = op.snapshot() if op is not None else None
        report = None
        reexecuted = False
        if kind == "query":
            # Boolean queries re-execute once under the analyze tracer: the
            # slow run went through the (untraced) production pipeline, so
            # plan-with-actuals only exists by running it again.
            try:
                report = self.explain_analyze(text, limit=limit).to_dict()
                reexecuted = True
            except Exception:  # noqa: BLE001 — diagnosis must never fail the query
                report = None
        else:
            # The ranked pipeline traces its own span; reuse the slow run's.
            tracer = self.telemetry.tracer
            if tracer is not None:
                for trace in tracer.last(4):
                    if trace.kind == "ranked" and trace.text == text:
                        report = trace.to_dict()
                        break
        log.record(kind, text, elapsed, attribution=attribution,
                   report=report, reexecuted=reexecuted)

    def health(self) -> Dict[str, object]:
        """Aggregate health checks: ``{"status", "checks"}``.

        Each check reports ``ok``/``warn``/``fail`` plus a human-readable
        detail; the overall ``status`` is the worst individual one.  Works
        with telemetry disabled — the checks read the live components, not
        the metrics registry — so an operator can always ask.
        """
        checks: Dict[str, Dict[str, object]] = {}

        def check(name: str, status: str, detail: str) -> None:
            checks[name] = {"status": status, "detail": detail}

        stats = self.integrity.stats
        quarantined = len(self.integrity.quarantine)
        check("quarantine",
              "fail" if quarantined else "ok",
              f"{quarantined} page(s) quarantined pending repair")
        if stats.retry_exhausted:
            check("device_retries", "fail",
                  f"{stats.retry_exhausted} read(s) exhausted the retry "
                  f"budget ({stats.transient_errors} transient errors)")
        elif stats.transient_errors:
            check("device_retries", "warn",
                  f"{stats.transient_errors} transient device error(s), "
                  f"all recovered within the retry budget")
        else:
            check("device_retries", "ok", "no transient device errors")
        if stats.partial_results:
            check("degraded_queries", "fail",
                  f"{stats.partial_results} degraded quer(ies) returned "
                  f"partial results")
        elif stats.degraded_queries:
            check("degraded_queries", "warn",
                  f"{stats.degraded_queries} quer(ies) served via the "
                  f"degraded rescan fallback")
        else:
            check("degraded_queries", "ok", "no degraded queries")
        journal = self.recovery.journal
        occupancy = (journal.bytes_used / journal.capacity_bytes
                     if journal.capacity_bytes else 0.0)
        if self.recovery.poisoned:
            check("wal", "fail",
                  "recovery manager poisoned — remount required")
        elif occupancy >= 0.9:
            check("wal", "fail",
                  f"journal {occupancy:.0%} full — checkpoints are not "
                  f"keeping up")
        elif occupancy >= CHECKPOINT_THRESHOLD:
            check("wal", "warn",
                  f"journal {occupancy:.0%} full (past the "
                  f"{CHECKPOINT_THRESHOLD:.0%} checkpoint threshold)")
        else:
            check("wal", "ok", f"journal {occupancy:.0%} full")
        worst = max((c["status"] for c in checks.values()),
                    key=_HEALTH_LEVELS.__getitem__)
        return {"status": worst, "checks": checks}
