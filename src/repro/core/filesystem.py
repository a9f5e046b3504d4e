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

from repro.cache import BufferPool, QueryResultCache, RankedResultCache
from repro.core.access import AccessInterface, ObjectHandle
from repro.core.naming import NamingInterface, PairLike, as_pair
from repro.core.query import Not, Query, TagTerm, parse_query
from repro.errors import (
    CorruptionError,
    DeviceError,
    NoSuchObjectError,
    RecoveryError,
)
from repro.fulltext.persistent_index import PersistentInvertedIndex
from repro.integrity import IntegrityContext, Scrubber, ScrubReport
from repro.index.path_index import normalize_path
from repro.index import (
    TAG_APP,
    TAG_FULLTEXT,
    TAG_IMAGE,
    TAG_POSIX,
    TAG_UDEF,
    TAG_USER,
    FullTextIndexStore,
    ImageIndexStore,
    IndexStoreRegistry,
    KeyValueIndexStore,
    PersistentImageIndexStore,
    PosixPathIndexStore,
    TagValue,
)
from repro.opcontext import current_operation, detached
from repro.osd.metadata import ObjectMetadata
from repro.osd.object_store import ObjectStore
from repro.recovery import RecoveryManager, Superblock
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

# Durable-naming key/attribute vocabulary.  Manual names and POSIX paths are
# persisted as *individual master-tree entries* (``ObjectStore.put_name``) so
# a heavily-tagged object never grows an unbounded metadata record.  Full-text
# postings and image features live in their own on-device btrees and mounts
# re-attach them.
_NAME_ENTRY = "n:"       # "n:TAG/value" → the object carries this name
_PATH_ENTRY = "p:"       # "p:/a/b"      → the object is linked at this path
_ATTR_INDEXED = "hfad.ci"     # content-indexed flag


def _require_pool_pages(cache_pages: int) -> None:
    """The on-device engine keeps uncommitted dirty pages in the pool
    (no-steal), so it cannot run without one."""
    if cache_pages < 1:
        raise ValueError(
            f"cache_pages must be at least 1 with btree_on_device=True "
            f"(got {cache_pages}): no-steal holds uncommitted dirty pages "
            "in the buffer pool"
        )


def _query_tags(query: Query) -> Iterable[str]:
    """The tag of every term of a parsed boolean query."""
    if isinstance(query, TagTerm):
        return [query.tag]
    children = [query.child] if isinstance(query, Not) else query.children
    return [tag for child in children for tag in _query_tags(child)]


class HFADFileSystem:
    """A tagged, search-based file system (the paper's hFAD).

    :param device: block device to build on; a private in-memory device is
        created when omitted.
    :param num_blocks: size of the private device (ignored if ``device`` given).
    :param latency_model: latency model for the private device.
    :param btree_on_device: persist the master and index btrees on the
        device too.
        The device is formatted with a superblock and a write-ahead journal,
        btrees run write-back through the shared buffer pool, every page is
        CRC32-framed (``repro.integrity``), full-text postings and image
        features live in their own on-device btrees, and every operation is
        crash-atomic; re-open such a device with :meth:`mount`.  In-memory
        trees (the default) are volatile by nature.
    :param cache_pages: global buffer-pool budget (in pages) shared by every
        on-device btree; at least 1 with ``btree_on_device`` (no-steal holds
        uncommitted dirty pages in the pool), ignored without it.
    :param query_cache_entries: capacity of the query-result cache; ``0``
        disables result caching so every query re-evaluates the indexes.
    :param journal_blocks: size of the WAL region in device blocks (the
        metadata prefix ``superblock + journal`` is rounded up to a power of
        two and reserved out of the data allocator).  Must fit the largest
        single transaction: indexing one document logs a btree page image
        per distinct term, so size the journal up for workloads that ingest
        huge, vocabulary-rich documents.  An automatic checkpoint fires when
        the journal is half full.
    :param group_commit: commits batched per journal sync (``1`` = sync
        every commit; larger values trade a bounded loss window for
        throughput — see ``repro.recovery``).
    :param sync_interval_ms: upper bound on how long a group-committed
        (buffered) commit marker may wait for its covering sync — the WAL
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
        bytes and lock waits it caused — see :meth:`operations`), wraps the
        three system-wide mutexes in wait/hold-profiled
        :class:`~repro.telemetry.TimedLock`\\ s, and arms the slow-query log.
    """

    def __init__(
        self,
        device: Optional[BlockDevice] = None,
        num_blocks: int = 1 << 16,
        latency_model: Optional[LatencyModel] = None,
        btree_on_device: bool = False,
        cache_pages: int = 256,
        query_cache_entries: int = 256,
        journal_blocks: int = 511,
        group_commit: int = 1,
        sync_interval_ms: Optional[float] = None,
        telemetry: bool = True,
        _mounted: Optional[dict] = None,
    ) -> None:
        if btree_on_device:
            _require_pool_pages(cache_pages)
        if device is None:
            device = BlockDevice(num_blocks=num_blocks, latency_model=latency_model)
        self.device = device
        #: the observability subsystem: a metrics registry of native
        #: instruments plus the last-N query-trace ring.
        #: ``telemetry=False`` degrades every instrument to a shared no-op;
        #: ``stats()`` reads the layers directly, so it is identical either way.
        self.telemetry = Telemetry(enabled=telemetry)
        # The shared memory hierarchy between the btrees and the device.
        # Only on-device btrees consume pool pages, so an in-memory
        # configuration gets no pool (stats() then reports it as absent
        # rather than as an enabled-but-idle cache).
        self.buffer_pool = (
            BufferPool(capacity=cache_pages) if btree_on_device else None
        )
        self.recovery: Optional[RecoveryManager] = None
        #: shared integrity state (checksum/retry counters, page quarantine)
        #: for every on-device page store; None for in-memory trees, which
        #: have no device bytes to rot.
        self.integrity: Optional[IntegrityContext] = (
            IntegrityContext() if btree_on_device else None
        )
        self._scrubber: Optional[Scrubber] = None
        #: on-device btrees backing the persistent full-text / image indexes
        #: (None = volatile: the full-text engine makes its own in-memory
        #: tree, the image store keeps dicts).
        self._fulltext_tree = None
        self._image_tree = None
        if _mounted is not None:
            # mount(): the recovery manager has already replayed the journal;
            # re-open the object store from the recovered on-device state.
            self.recovery = _mounted["recovery"]
            self.recovery.attach_pool(self.buffer_pool)
            self.objects = ObjectStore.mount(
                device,
                self.recovery,
                buffer_pool=self.buffer_pool,
                integrity=self.integrity,
            )
            # Re-attach the persistent index trees from their checkpointed
            # (and replay-updated) roots.
            self._fulltext_tree = self.objects.open_index_tree(
                "index.fulltext",
                root_id=self.recovery.state["fulltext_root"],
                on_root_change=self._fulltext_root_moved,
            )
            self._image_tree = self.objects.open_index_tree(
                "index.image",
                root_id=self.recovery.state["image_root"],
                on_root_change=self._image_root_moved,
            )
        elif btree_on_device:
            # mkfs: reserve the metadata prefix (superblock + journal) out of
            # the data allocator and write checkpoint zero.
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
            self.objects = ObjectStore(
                device=device,
                allocator=allocator,
                btree_on_device=True,
                buffer_pool=self.buffer_pool,
                recovery=self.recovery,
                integrity=self.integrity,
            )
            # mkfs: the index trees are created alongside the master tree
            # so checkpoint zero already records their roots.
            self._fulltext_tree = self.objects.open_index_tree(
                "index.fulltext", on_root_change=self._fulltext_root_moved
            )
            self._image_tree = self.objects.open_index_tree(
                "index.image", on_root_change=self._image_root_moved
            )
            self.recovery.initialize(
                master_root=self.objects._master.root_id,
                next_oid=self.objects._next_oid,
                data_region_start=data_region_start,
                fulltext_root=self._fulltext_tree.root_id,
                image_root=self._image_tree.root_id,
            )
        else:
            self.objects = ObjectStore(device=device)
        # Index stores (Figure 1: the extensible collection of indices).
        # On a device, the FULLTEXT store's engine and the image store write
        # through to on-device btrees whose pages ride the same buffer pool
        # and WAL as everything else; off it, the same engine runs over an
        # in-memory tree with no WAL.
        self.keyvalue_index = KeyValueIndexStore()
        self.path_index = PosixPathIndexStore()
        self.fulltext_index = FullTextIndexStore(
            index=PersistentInvertedIndex(self._fulltext_tree, recovery=self.recovery),
        )
        if btree_on_device:
            self.image_index = PersistentImageIndexStore(
                self._image_tree,
                recovery=self.recovery,
                load=(_mounted is not None),
            )
        else:
            self.image_index = ImageIndexStore()
        if self.recovery is not None:
            # The posting backlog's threshold settle: after a commit, never
            # inside the transaction that crossed the line.
            self.recovery.after_commit = self._settle_if_due
        self.registry = IndexStoreRegistry()
        self.registry.register(self.keyvalue_index)
        self.registry.register(self.path_index)
        self.registry.register(self.fulltext_index)
        self.registry.register(self.image_index)
        # Content indexing mutates the inverted index outside the registry;
        # bump the FULLTEXT generation at the moment a mutation becomes
        # visible so cached results die exactly then.
        self.fulltext_index.on_mutation = lambda: self.registry.touch(TAG_FULLTEXT)
        # Native API.
        self.query_cache = (
            QueryResultCache(self.registry, capacity=query_cache_entries)
            if query_cache_entries
            else None
        )
        # Ranked answers get their own cache: one FULLTEXT generation is a
        # precise validity token for a whole BM25 result (see
        # RankedResultCache); shares the query-cache enable knob.
        self.ranked_cache = (
            RankedResultCache(self.registry, TAG_FULLTEXT,
                              capacity=query_cache_entries)
            if query_cache_entries
            else None
        )
        self.naming = NamingInterface(
            self.registry,
            query_cache=self.query_cache,
            ranked_cache=self.ranked_cache,
            telemetry=self.telemetry,
        )
        self.access = AccessInterface(self.objects)
        if self.recovery is not None and self.telemetry.enabled:
            self.recovery.commit_batch_sizes = self.telemetry.metrics.histogram(
                "wal.group_commit.batch_size",
                "commit markers covered by each journal sync",
            )
        self._install_timed_locks()
        self._register_telemetry()
        #: objects whose full-text index entry tracks their content.
        self._content_indexed: set = set()
        #: index stores registered on the fly for tags met during a mount.
        self._adhoc_stores: Dict[str, KeyValueIndexStore] = {}
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
        """Re-open a device formatted with ``btree_on_device=True``.

        Recovery runs before any index is opened: the superblock is loaded
        and asked whether its format is one this code serves (a refusal
        leaves the device untouched), the journal's committed tail is
        replayed onto home locations, and only then are the master tree
        (metadata, extent maps and name entries: one walk) and the naming
        indexes rebuilt from the (now consistent) device state.  Full-text postings and image features
        re-attach from their persistent index trees (recorded in the
        superblock) without reading any object content — mounts cost
        O(metadata).  Every operation that completed before the crash is
        visible; every operation that did not reach its commit marker has
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
            btree_on_device=True,
            cache_pages=cache_pages,
            query_cache_entries=query_cache_entries,
            telemetry=telemetry,
            _mounted={"recovery": recovery},
        )

    def _rebuild_naming(self) -> None:
        """Mount-time re-indexing: derive naming state from object metadata.

        Manual names and POSIX paths are persisted per entry in each
        object's metadata record (which lives in the master btree and is
        therefore covered by the WAL).  Full-text postings and image
        features are already attached from their persistent index trees —
        no object bytes are read.
        """
        # The mount walk already materialized every master-tree entry; reuse
        # it instead of issuing fresh cursors per object.
        metadata_by_oid, names_by_oid = self.objects.take_mount_inventory()
        for oid in sorted(metadata_by_oid):
            for entry in names_by_oid.get(oid, ()):
                if entry.startswith(_NAME_ENTRY):
                    pair = TagValue.parse(entry[len(_NAME_ENTRY):])
                    if pair.tag in (TAG_FULLTEXT, TAG_IMAGE):
                        continue  # already in the on-device index trees
                    self._ensure_tag_registered(pair.tag)
                    self.naming.add_name(oid, pair)
                elif entry.startswith(_PATH_ENTRY):
                    self.path_index.link(entry[len(_PATH_ENTRY):], oid)
            if metadata_by_oid[oid].attributes.get(_ATTR_INDEXED) == "1":
                self._content_indexed.add(oid)
        for tag in (TAG_POSIX, TAG_FULLTEXT, TAG_IMAGE):
            self.registry.touch(tag)

    def _ensure_tag_registered(self, tag: str) -> None:
        """Serve ad-hoc tags met during a mount with on-the-fly kv stores."""
        if self.registry.supports(tag) or tag in self._adhoc_stores:
            return
        store = KeyValueIndexStore(tags=[tag])
        self._adhoc_stores[tag] = store
        self.registry.register(store, tags=[tag])

    def _durable(self):
        """One WAL transaction bracketing a whole filesystem operation.

        The OSD wraps each of its own mutators too, but compound operations
        (create = allocate + write + name) must be atomic as a unit; nesting
        is flat, so this outer bracket subsumes the inner ones.
        """
        if self.recovery is None:
            return nullcontext()
        return self.recovery.transaction()

    def _read_view(self, *trees: str):
        """Shared per-tree latches for one snapshot-stable read.

        Held for the whole execution of a query: readers overlap readers
        and writers to *other* trees, while a writer to a viewed tree
        queues — so the answer reflects exactly one generation of every
        viewed tree (no torn cross-tree reads, no mid-scan mutation).
        Re-entrant with the calling thread's own open transaction, so a
        writer may query its own uncommitted view.  Without a WAL engine
        this is a no-op (the in-memory configuration stays single-writer).
        """
        if self.recovery is None:
            return nullcontext()
        return self.recovery.read_view(trees)

    def read_view(self, *trees: str):
        """Public snapshot grouping: several queries, one consistent view.

        ``with fs.read_view(): ...`` holds shared latches on every tree
        (or just the named ones) so a batch of queries/reads observes a
        single generation — e.g. a count and a listing that must agree.
        """
        if not trees:
            trees = ("master", "fulltext", "image")
        return self._read_view(*trees)

    def _view_of(self, tags: Iterable[str]):
        """The read view a lookup of ``tags`` needs: ``master`` always, an
        index tree only when a term routes to it — a tag-only ``find`` must
        not queue behind full-text writers (or a backlog settle)."""
        tags = set(tags)
        return self._read_view("master", *(
            tree for tag, tree in ((TAG_FULLTEXT, "fulltext"), (TAG_IMAGE, "image"))
            if tag in tags))

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

        Every buffer-pool *stripe* lock becomes a :class:`TimedLock`
        delegating to the original RLock — same re-entrancy, same lock
        ordering (``ensure_durable``'s deliberate no-txn-lock path is
        untouched).  All stripes carry the same ``"buffer_pool"`` name, so
        the registry hands them one shared wait/hold histogram pair and the
        lock profile still reads as a single logical lock while contention
        is split N ways (the sharded-vs-global ablation compares exactly
        these histograms).  The journal mutex is wrapped the same way, and
        the per-tree transaction queues report their waits through the
        lock manager's observer hook into ``lock.wal.txn.<tree>.wait_us``
        histograms — with the wait still charged to the blocked operation's
        attribution record.  The uncontended path is a single non-blocking
        acquire, so this stays out of the overhead budget; with telemetry
        off nothing is wrapped.
        """
        if not self.telemetry.enabled:
            return
        metrics = self.telemetry.metrics
        if self.buffer_pool is not None:
            self.buffer_pool.instrument_locks(
                lambda index, lock: TimedLock("buffer_pool", metrics, inner=lock))
        if self.recovery is not None:
            self.recovery.journal._mutex = TimedLock(
                "wal.journal", metrics, inner=self.recovery.journal._mutex)
            hists: Dict[str, object] = {}

            def tree_wait_observer(resource: str, mode: str,
                                   waited_us: float) -> None:
                hist = hists.get(resource)
                if hist is None:
                    # Racing threads may both build one; the registry
                    # returns the same instrument for the same name.
                    hist = hists[resource] = metrics.histogram(
                        f"lock.wal.txn.{resource}.wait_us",
                        f"microseconds spent queued on the {resource} tree "
                        "transaction lock (contended acquisitions only)")
                hist.observe(waited_us)
                op = current_operation()
                if op is not None:
                    op.add_lock_wait(f"wal.txn.{resource}", waited_us)

            self.recovery.tree_locks.manager.wait_observer = tree_wait_observer

    def checkpoint(self) -> int:
        """Force a checkpoint: flush dirty pages, truncate the journal,
        persist the superblock.  Returns the number of pages flushed."""
        with self._operation("checkpoint"):
            if self.recovery is None:
                return 0
            self._settle()
            self.objects.flush_access_times()
            return self.recovery.checkpoint()

    def _scrub_sources(self) -> List[Tuple[object, int]]:
        """Live ``(page_store, root_id)`` walk roots for the scrubber:
        the OSD's master tree (extent maps included) plus the persistent
        index trees, re-evaluated at the start of each scrub cycle."""
        sources: List[Tuple[object, int]] = list(self.objects.scrub_sources())
        for tree in (self._fulltext_tree, self._image_tree):
            if tree is not None:
                sources.append((tree.store, tree.root_id))
        return sources

    def scrub(self, limit: Optional[int] = None) -> ScrubReport:
        """Online integrity scrub: verify every reachable btree page's
        checksum frame, repair rot from the buffer pool or the WAL tail,
        quarantine what neither source can heal.

        ``limit=N`` verifies at most ``N`` pages and parks the walk; the
        next call resumes it (``ScrubReport.complete`` reports whether the
        cycle finished).  Runs against the live filesystem — repairs are
        idempotent rewrites of committed state, so no lock-out is needed.
        """
        if self.integrity is None:
            raise RecoveryError(
                "scrub requires on-device btrees (btree_on_device=True)"
            )
        if self._scrubber is None:
            self._scrubber = Scrubber(
                self.device,
                self.integrity,
                self._scrub_sources,
                journal=self.recovery.journal,
            )
        started = time.perf_counter()
        with self._operation("scrub", f"limit={limit}"):
            report = self._scrubber.scrub(limit=limit)
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
        ):
            if tree is None:
                continue
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
        if self.recovery is not None:
            journal = self.recovery.journal
            try:
                report["journal_committed_transactions"] = len(journal.scan())
                report["journal_bytes_used"] = journal.bytes_used
            except Exception as error:  # noqa: BLE001
                errors.append(f"journal: {error}")
            # The fsck blind spots the integrity work closed: the superblock
            # and the journal header region are themselves checked bytes.
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
        if self.integrity is not None:
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
        # Validate naming inputs *before* the durable bracket: with WAL
        # durability, failing after pages were logged poisons the filesystem
        # (redo-only logging cannot roll the mutation back), and a typo'd
        # tag or path must not cost a remount.
        pairs = [as_pair(pair) for pair in tags]
        for pair in pairs:
            # store_for matches insert-time routing exactly (it also rejects
            # the registry-internal ID fast-path tag, which supports() allows).
            self.registry.store_for(pair.tag)
        if path is not None:
            path = normalize_path(path)
        self._check_name_sizes(
            *(f"{_NAME_ENTRY}{p.tag}/{p.value}" for p in pairs),
            *(f"{_NAME_ENTRY}{TAG_UDEF}/{a}" for a in annotations),
            f"{_NAME_ENTRY}{TAG_USER}/{owner}",
            *([] if application is None else [f"{_NAME_ENTRY}{TAG_APP}/{application}"]),
            *([] if path is None else [f"{_PATH_ENTRY}{path}"]),
        )
        with self._operation("create", path or ""), self._durable():
            oid = self.objects.create(owner=owner, attributes=attributes)
            if content:
                self.objects.write(oid, 0, content)
            self._add_name(oid, TagValue(TAG_USER, owner))
            if application is not None:
                self._add_name(oid, TagValue(TAG_APP, application))
            for annotation in annotations:
                self._add_name(oid, TagValue(TAG_UDEF, annotation))
            for pair in pairs:
                self._add_name(oid, pair)
            if path is not None:
                self._link_path(path, oid)
            if index_content:
                # Track the object even when it starts empty so that later
                # writes through the access interfaces keep its index entry
                # current.
                self._content_indexed.add(oid)
                self._persist_attr(oid, _ATTR_INDEXED, "1")
                if content:
                    self.fulltext_index.index_content(oid, content)
            return oid

    # -- durable naming helpers -----------------------------------------------
    #
    # In-memory index mutations are paired with a persisted master-tree name
    # entry (or a bounded metadata attribute) so the name survives a re-mount;
    # the write rides the enclosing WAL transaction.  Without a recovery
    # manager nothing is persisted — in-memory trees are volatile by design.

    def _check_name_sizes(self, *entries: str) -> None:
        """Pre-flight size validation for durable name entries (no-op
        without a recovery manager — nothing is persisted then)."""
        if self.recovery is not None:
            for entry in entries:
                self.objects.check_name(entry)

    def _persist_attr(self, oid: int, key: str, value: str) -> None:
        if self.recovery is not None:
            self.objects.set_attributes(oid, **{key: value})

    def _unpersist_attr(self, oid: int, key: str) -> None:
        if self.recovery is not None and self.objects.exists(oid):
            self.objects.remove_attributes(oid, key)

    def _add_name(self, oid: int, pair: TagValue) -> None:
        self.naming.add_name(oid, pair)
        if self.recovery is not None:
            self.objects.put_name(oid, f"{_NAME_ENTRY}{pair.tag}/{pair.value}")

    def _remove_name(self, oid: int, pair: TagValue) -> bool:
        removed = self.naming.remove_name(oid, pair)
        if removed and self.recovery is not None and self.objects.exists(oid):
            self.objects.remove_name(oid, f"{_NAME_ENTRY}{pair.tag}/{pair.value}")
        return removed

    def _link_path(self, path: str, oid: int) -> None:
        # Persist the *normalized* spelling: the path index normalizes on
        # link, and a later unlink (given the normalized form) must find and
        # remove the same entry or the name would resurrect at mount.
        path = normalize_path(path)
        displaced = self.path_index.resolve(path)
        self.path_index.link(path, oid)
        self.registry.touch(TAG_POSIX)
        if self.recovery is not None:
            if (displaced is not None and displaced != oid
                    and self.objects.exists(displaced)):
                # Rebinding over an existing name: the displaced object's
                # persisted entry must die too, or it resurrects at mount
                # (and, sorting first by oid, could even win the path back).
                self.objects.remove_name(displaced, f"{_PATH_ENTRY}{path}")
            self.objects.put_name(oid, f"{_PATH_ENTRY}{path}")

    def _check_usable(self) -> None:
        """A poisoned engine answers nothing: after a transaction aborted
        past its first logged record, the in-memory trees, indexes and pool
        no longer match the committed state, and only a remount does."""
        if self.recovery is not None:
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
            self._content_indexed.discard(oid)
            self.objects.delete(oid)

    def exists(self, oid: int) -> bool:
        self._check_usable()
        return self.objects.exists(oid)

    @property
    def object_count(self) -> int:
        return self.objects.object_count

    def list_objects(self) -> List[int]:
        self._check_usable()
        return self.objects.list_objects()

    # ------------------------------------------------------------------
    # access interfaces (read / write / insert / truncate)
    # ------------------------------------------------------------------

    def read(self, oid: int, offset: int = 0, length: Optional[int] = None) -> bytes:
        with self._operation("read", f"oid={oid}"), self._read_view("master"):
            return self.access.read(oid, offset, length)

    def write(self, oid: int, offset: int, data: bytes) -> int:
        with self._operation("write", f"oid={oid}"), self._durable():
            written = self.access.write(oid, offset, data)
            self._reindex_if_tracked(oid)
            return written

    def append(self, oid: int, data: bytes) -> int:
        with self._operation("append", f"oid={oid}"), self._durable():
            offset = self.access.append(oid, data)
            self._reindex_if_tracked(oid)
            return offset

    def insert(self, oid: int, offset: int, data: bytes) -> int:
        with self._operation("insert", f"oid={oid}"), self._durable():
            inserted = self.access.insert(oid, offset, data)
            self._reindex_if_tracked(oid)
            return inserted

    def truncate(self, oid: int, offset: int, length: int) -> int:
        """The hFAD two-argument truncate (remove ``length`` bytes at ``offset``)."""
        with self._operation("truncate", f"oid={oid}"), self._durable():
            removed = self.access.truncate(oid, offset, length)
            self._reindex_if_tracked(oid)
            return removed

    def open(self, oid: int) -> ObjectHandle:
        self._check_usable()
        return self.access.open(oid)

    def stat(self, oid: int) -> ObjectMetadata:
        self._check_usable()
        return self.access.stat(oid)

    def size(self, oid: int) -> int:
        self._check_usable()
        return self.access.size(oid)

    def set_attributes(self, oid: int, **attributes: str) -> None:
        self.objects.set_attributes(oid, **attributes)

    def _reindex_if_tracked(self, oid: int) -> None:
        if oid in self._content_indexed:
            self.fulltext_index.index_content(oid, self.objects.read(oid))

    def enable_content_indexing(self, oid: int) -> None:
        """Start tracking (and immediately index) the object's content."""
        self._require_object(oid)
        with self._durable():
            self._content_indexed.add(oid)
            self._persist_attr(oid, _ATTR_INDEXED, "1")
            self.fulltext_index.index_content(oid, self.objects.read(oid))

    def disable_content_indexing(self, oid: int) -> None:
        """Stop tracking the object's content and drop it from the index."""
        self._require_object(oid)
        with self._durable():
            self._content_indexed.discard(oid)
            self._unpersist_attr(oid, _ATTR_INDEXED)
            self.fulltext_index.drop_content(oid)

    # ------------------------------------------------------------------
    # naming interfaces
    # ------------------------------------------------------------------

    def tag(self, oid: int, tag: str, value: str) -> None:
        """Add one tag/value name to an object."""
        self._require_object(oid)
        pair = TagValue(tag, value)
        self._check_name_sizes(f"{_NAME_ENTRY}{pair.tag}/{pair.value}")
        with self._durable():
            self._add_name(oid, pair)

    def untag(self, oid: int, tag: str, value: str) -> bool:
        """Remove one tag/value name; returns True if it existed."""
        pair = TagValue(tag, value)
        with self._durable():
            return self._remove_name(oid, pair)

    def names_for(self, oid: int) -> List[TagValue]:
        self._check_usable()
        return self.naming.names_for(oid)

    def find(self, *pairs: PairLike, limit: Optional[int] = None) -> List[int]:
        """Conjunctive naming operation over tag/value pairs.

        ``limit=N`` streams the first ``N`` matches (ascending object id)
        out of the index merge and stops — top-k early exit.
        """
        with self._operation("find", " ".join(str(as_pair(p)) for p in pairs)), \
                self._view_of(as_pair(p).tag for p in pairs):
            try:
                return self.naming.resolve(list(pairs), limit=limit)
            except CorruptionError:
                if self.integrity is None:
                    raise
                return self._degraded(
                    lambda naming: naming.resolve(list(pairs), limit=limit)
                )

    def find_one(self, *pairs: PairLike) -> int:
        """Like :meth:`find` but returns one match (raises if none)."""
        with self._operation("find", " ".join(str(as_pair(p)) for p in pairs)), \
                self._view_of(as_pair(p).tag for p in pairs):
            try:
                return self.naming.resolve_one(list(pairs))
            except CorruptionError:
                if self.integrity is None:
                    raise
                return self._degraded(
                    lambda naming: naming.resolve_one(list(pairs))
                )

    def query(self, query: Union[str, Query], limit: Optional[int] = None) -> List[int]:
        """Boolean query, e.g. ``"USER/margo AND NOT APP/quicken"``.

        ``limit=N`` streams only the first ``N`` matching ids.
        """
        text = str(query)
        started = time.perf_counter()
        with self._operation("query", text) as op:
            if isinstance(query, str):
                query = parse_query(query)
            with self._view_of(_query_tags(query)):
                try:
                    result = self.naming.query(query, limit=limit)
                except CorruptionError:
                    if self.integrity is None:
                        raise
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
        with self._operation("rank", text) as op, \
                self._read_view("master", "fulltext"):
            try:
                result = self.naming.rank(text, limit=limit)
            except CorruptionError:
                if self.integrity is None:
                    raise
                result = self._degraded(
                    lambda naming: naming.rank(text, limit=limit))
        self._maybe_slow("rank", text, time.perf_counter() - started, op)
        return result

    def rank_text(self, text: str, limit: Optional[int] = 10):
        """Alias of :meth:`rank` (the historical spelling)."""
        return self.rank(text, limit=limit)

    # -- graceful degradation (quarantined / corrupt index pages) -------------

    def _degraded(self, run: Callable[[NamingInterface], object]):
        """Re-run a query that hit corrupt index bytes against a rescue stack.

        The FULLTEXT tree is the only store that reads on-device pages at
        query time (paths, key/value names and image features serve from
        in-memory mirrors), so the fallback rebuilds an *ephemeral in-memory*
        inverted index from the ground truth the paper's design guarantees we
        still have — the objects' own bytes — and answers from that instead
        of raising mid-cursor.  Answers are correct-if-complete: objects
        whose content is itself unreadable are skipped and the query is
        accounted as partial in ``stats()["integrity"]``.  Damage the rescan
        cannot route around (a corrupt master tree) propagates as
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
        for oid in sorted(self._content_indexed):
            try:
                content = self.objects.read(oid)
            except (CorruptionError, NoSuchObjectError):
                partial = True
                continue
            if content:
                rescue.index_content(oid, content)
        # Manual FULLTEXT keywords are persisted as master-tree name entries,
        # not object content; fold them in so keyword-named objects stay
        # findable while the posting tree is out of service.
        try:
            for oid in self.objects.list_objects():
                for entry in self.objects.names(oid):
                    if not entry.startswith(_NAME_ENTRY):
                        continue
                    pair = TagValue.parse(entry[len(_NAME_ENTRY):])
                    if pair.tag == TAG_FULLTEXT:
                        rescue.insert(pair.tag, pair.value, oid)
        except (CorruptionError, NoSuchObjectError):
            partial = True
        registry = IndexStoreRegistry()
        registry.register(self.keyvalue_index)
        registry.register(self.path_index)
        registry.register(rescue)
        registry.register(self.image_index)
        for tag, store in self._adhoc_stores.items():
            registry.register(store, tags=[tag])
        naming = NamingInterface(
            registry,
            planner=self.naming.planner,
            query_cache=None,  # never memoize potentially-partial answers
            telemetry=self.telemetry,
        )
        return naming, partial

    # POSIX-path conveniences (the veneer in repro.posix builds on these).

    def link_path(self, path: str, oid: int) -> None:
        """Give an object (another) POSIX path name."""
        self._require_object(oid)
        path = normalize_path(path)
        self._check_name_sizes(f"{_PATH_ENTRY}{path}")
        with self._durable():
            self._link_path(path, oid)

    def rename_path(self, old_path: str, new_path: str) -> Optional[int]:
        """Move one path binding atomically; returns the object it names.

        rename(2) semantics need one commit marker: unlink-then-link as two
        separate durable operations would let a crash between them strand
        the object with neither name.
        """
        old_path = normalize_path(old_path)
        new_path = normalize_path(new_path)
        self._check_name_sizes(f"{_PATH_ENTRY}{new_path}")
        with self._durable():
            oid = self.unlink_path(old_path)
            if oid is not None:
                self._link_path(new_path, oid)
            return oid

    def rename_path_subtree(self, old_path: str, new_path: str) -> int:
        """Rebind every path under ``old_path`` below ``new_path``.

        The POSIX veneer's directory rename; one atomic (and durable) name
        operation — the persisted path entries move with the in-memory
        index, so the rename survives a re-mount.  Returns the number of
        bindings moved.
        """
        old_path = normalize_path(old_path)
        new_path = normalize_path(new_path)
        self._check_name_sizes(
            *(f"{_PATH_ENTRY}{new_path}{bound[len(old_path):]}"
              for bound, _oid in self.path_index.list_subtree(old_path))
        )

        def persist_move(bound_path: str, target: str, oid: int,
                         displaced: Optional[int]) -> None:
            if self.recovery is None:
                return
            if self.objects.exists(oid):
                self.objects.remove_name(oid, f"{_PATH_ENTRY}{bound_path}")
                self.objects.put_name(oid, f"{_PATH_ENTRY}{target}")
            if (displaced is not None and displaced != oid
                    and self.objects.exists(displaced)):
                self.objects.remove_name(displaced, f"{_PATH_ENTRY}{target}")

        with self._durable():
            moved = self.path_index.rename_subtree(
                old_path, new_path, on_move=persist_move
            )
            if moved:
                self.registry.touch(TAG_POSIX)
            return moved

    def unlink_path(self, path: str) -> Optional[int]:
        """Remove a POSIX path name; returns the object it named."""
        path = normalize_path(path)
        with self._durable():
            oid = self.path_index.unlink(path)
            if oid is not None:
                self.registry.touch(TAG_POSIX)
                if self.recovery is not None and self.objects.exists(oid):
                    self.objects.remove_name(oid, f"{_PATH_ENTRY}{path}")
            return oid

    def lookup_path(self, path: str) -> Optional[int]:
        """Resolve a POSIX path to an object id (None if unbound)."""
        self._check_usable()
        return self.path_index.resolve(path)

    def paths_for(self, oid: int) -> List[str]:
        self._check_usable()
        return self.path_index.paths_for(oid)

    # Image features (the "arbitrary index type" example).

    def index_image(self, oid: int, histogram: Sequence[float]) -> str:
        """Index an object's colour histogram; returns its dominant colour."""
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
        flat), and the group commits with one commit marker when the block
        exits normally.  The group holds every tree exclusively, so the
        operations in it may write and read any index in any order.  The
        abort rule is the recovery manager's: an exception before anything
        was logged is a clean no-op; after that the engine is poisoned, every
        later call raises :class:`~repro.errors.RecoveryError`, and a remount
        replays the committed prefix, in which the group is absent as a
        whole.  The group must fit the journal (see ``journal_blocks``).
        Volatile trees have no log to make a group atomic with, so this
        raises there.
        """
        if self.recovery is None:
            raise RecoveryError(
                "begin requires on-device btrees (btree_on_device=True)"
            )
        return self.recovery.transaction(trees=("master", "fulltext", "image"))

    def close(self) -> None:
        """Checkpoint (clean unmount).

        The checkpoint is best-effort: a dead device or a poisoned recovery
        manager must not turn teardown into a crash — recovery at the next
        mount handles those states by design.
        """
        if self.recovery is not None:
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

    def _integrity_snapshot(self) -> Optional[Dict[str, int]]:
        if self.integrity is None:
            return None
        snapshot = self.integrity.stats.snapshot()
        snapshot["quarantined_pages"] = len(self.integrity.quarantine)
        snapshot["checksum_pages"] = self.recovery.state["checksum_pages"]
        return snapshot

    def _persistent_index_snapshot(self) -> Optional[Dict[str, object]]:
        if self._fulltext_tree is None:
            return None
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
        if self.integrity is not None:
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
        or off (an absent layer reports ``None``); with telemetry enabled a
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
            "buffer_pool": (self.buffer_pool.snapshot()
                            if self.buffer_pool is not None else None),
            "query_cache": (self.query_cache.snapshot()
                            if self.query_cache is not None else None),
            "ranked_cache": (self.ranked_cache.snapshot()
                             if self.ranked_cache is not None else None),
            "persistent_index": self._persistent_index_snapshot(),
            "recovery": (self.recovery.snapshot() if self.recovery is not None
                         else {"mode": "volatile"}),
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
        plus any ad-hoc per-tag stores registered later (tags met during a
        mount, user-invented tags), so the analyze differential holds for
        those leaves too."""
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

        if self.integrity is not None:
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
        if self.recovery is not None:
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
            elif occupancy >= self.recovery.checkpoint_threshold:
                check("wal", "warn",
                      f"journal {occupancy:.0%} full (past the "
                      f"{self.recovery.checkpoint_threshold:.0%} "
                      f"checkpoint threshold)")
            else:
                check("wal", "ok", f"journal {occupancy:.0%} full")
        worst = max((c["status"] for c in checks.values()),
                    key=_HEALTH_LEVELS.__getitem__, default="ok")
        return {"status": worst, "checks": checks}
