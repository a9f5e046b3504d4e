"""The online scrubber: walk, verify, repair, quarantine.

The first ROADMAP §5 maintenance task.  A scrub walks every reachable btree
page (the master tree with every object's extent map, the persistent
full-text and image index trees), reads the raw device bytes through the retrying I/O wrapper
and verifies each page's checksum frame.  A rotten page is repaired from the
best available source, in order:

1. **The buffer pool.**  A resident copy of the page is the last good image
   by construction (page-in verified it, or it was produced by this
   session's own writes).  A dirty frame is flushed through the pool (the
   WAL rule fires as usual); a clean frame is re-encoded, re-framed and
   rewritten in place — both write only committed or WAL-logged state.
2. **The WAL tail.**  ``Journal.latest_page_image`` rebuilds the newest
   durable committed (and non-revoked) framed image logged for the block —
   its full image plus any deltas, by the same fold as replay; rewriting
   it home is exactly the idempotent redo that mount-time replay performs.
   A chain that starts from the page's home (a first-touch home delta)
   cannot rebuild a home that has rotten, so it is no source for it.
3. Neither source: the page is **quarantined**.  Subsequent page-ins fail
   fast with :class:`~repro.errors.CorruptionError` and the query layer
   degrades (full-text falls back to an object-content rescan) instead of
   serving garbage; any later write through the page store heals and
   releases the page.

Scrubs are **interruptible**: ``scrub(limit=N)`` verifies at most ``N``
pages and parks its walk stack, and the next call resumes where it left
off (``ScrubReport.complete`` says whether the cycle finished).  Repairs
are idempotent device writes of committed state, so a crash mid-scrub
needs no special recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set, Tuple

from repro.btree.node import decode_node
from repro.errors import CorruptionError, DeviceError
from repro.integrity.checksum import verify_frame
from repro.integrity.context import IntegrityContext


@dataclass
class ScrubReport:
    """Outcome of one :meth:`Scrubber.scrub` call."""

    pages_scanned: int = 0
    pages_clean: int = 0
    #: pages whose pool copy is dirty: device bytes are legitimately stale
    #: under no-force write-back (the WAL has the authoritative image), so
    #: there is nothing to verify until a flush writes them back.
    skipped_dirty: int = 0
    repaired_from_cache: int = 0
    repaired_from_wal: int = 0
    quarantined: int = 0
    #: previously quarantined pages found healthy or repaired this pass.
    released: int = 0
    #: pages whose children could not be discovered (unrepairable interior
    #: damage): the subtree below them was not scanned.
    unreachable_subtrees: int = 0
    errors: List[str] = field(default_factory=list)
    #: False when an interruptible scrub parked its walk mid-cycle.
    complete: bool = True

    @property
    def repaired(self) -> int:
        return self.repaired_from_cache + self.repaired_from_wal

    def merge(self, other: "ScrubReport") -> None:
        self.pages_scanned += other.pages_scanned
        self.pages_clean += other.pages_clean
        self.skipped_dirty += other.skipped_dirty
        self.repaired_from_cache += other.repaired_from_cache
        self.repaired_from_wal += other.repaired_from_wal
        self.quarantined += other.quarantined
        self.released += other.released
        self.unreachable_subtrees += other.unreachable_subtrees
        self.errors.extend(other.errors)
        self.complete = other.complete


class Scrubber:
    """Walks reachable pages, verifies frames and repairs what it can.

    :param device: the shared block device.
    :param context: the filesystem's :class:`IntegrityContext` (stats +
        quarantine + retry policy).
    :param tree_sources: callable returning the current ``(store, root_id)``
        pairs to walk — evaluated at the *start* of each scrub cycle so the
        walk always begins from live roots.
    :param journal: optional :class:`~repro.storage.journal.Journal` used as
        the second repair source (None = no WAL, cache-only repairs).
    """

    def __init__(
        self,
        device,
        context: IntegrityContext,
        tree_sources: Callable[[], List[Tuple[object, int]]],
        journal=None,
    ) -> None:
        self.device = device
        self.context = context
        self.tree_sources = tree_sources
        self.journal = journal
        self._stack: List[Tuple[object, int]] = []
        self._seen: Set[int] = set()

    # ------------------------------------------------------------ the walk

    @property
    def in_progress(self) -> bool:
        """True when an interrupted cycle has pages left to verify."""
        return bool(self._stack)

    def scrub(self, limit: Optional[int] = None) -> ScrubReport:
        """Verify up to ``limit`` pages (all of them when ``None``).

        Starts a fresh cycle from the live tree roots unless a previous
        interrupted cycle is still in progress, in which case it resumes.
        """
        stats = self.context.stats
        report = ScrubReport()
        if not self._stack:
            self._seen = set()
            for store, root_id in self.tree_sources():
                if getattr(store, "device", None) is None:
                    continue  # in-memory store: nothing on the device to rot
                self._push(store, root_id)
            stats.scrub_runs += 1
        budget = limit if limit is not None else float("inf")
        while self._stack and budget > 0:
            store, page_id = self._stack.pop()
            self._scrub_page(store, page_id, report)
            budget -= 1
        report.complete = not self._stack
        return report

    def _push(self, store, page_id: int) -> None:
        if page_id not in self._seen:
            self._seen.add(page_id)
            self._stack.append((store, page_id))

    def _scrub_page(self, store, page_id: int, report: ScrubReport) -> None:
        stats = self.context.stats
        stats.scrub_pages_scanned += 1
        report.pages_scanned += 1
        dirty_probe = getattr(store, "page_is_dirty", None)
        if dirty_probe is not None and dirty_probe(page_id):
            # No-force write-back: the device bytes of a dirty page are
            # allowed to be stale until a flush.  The resident node is the
            # authoritative image — walk its children, verify nothing.
            report.skipped_dirty += 1
            node = store.resident_node(page_id)
            if node is not None and not node.is_leaf:
                for child in node.children:
                    self._push(store, child)
            return
        try:
            raw = self.context.read_blocks(self.device, page_id, store.page_blocks)
        except DeviceError as error:
            report.errors.append(f"page {page_id}: unreadable: {error}")
            report.unreachable_subtrees += 1
            return
        try:
            payload = verify_frame(raw, context=f"page {page_id}")
        except CorruptionError:
            payload = self._repair(store, page_id, report)
            if payload is None:
                return  # quarantined; children undiscoverable
        else:
            report.pages_clean += 1
            if self.context.release_page(page_id):
                # e.g. a replayed WAL already healed it since quarantine.
                stats.scrub_pages_released += 1
                report.released += 1
        try:
            node = decode_node(payload)
        except Exception as error:  # noqa: BLE001 — report, keep scrubbing
            report.errors.append(f"page {page_id}: undecodable: {error}")
            report.unreachable_subtrees += 1
            return
        if not node.is_leaf:
            for child in node.children:
                self._push(store, child)

    # ------------------------------------------------------------ repairs

    def _repair(self, store, page_id: int, report: ScrubReport) -> Optional[bytes]:
        """Try cache then WAL; returns the healthy payload or None."""
        stats = self.context.stats
        released = self.context.is_quarantined(page_id)
        # 1. Buffer pool: the resident node is the last good image.
        node = store.resident_node(page_id)
        if node is not None and store.rewrite_resident(page_id):
            stats.scrub_pages_repaired_cache += 1
            report.repaired_from_cache += 1
            self._note_release(released, report)
            self.context.release_page(page_id)
            return node.encode()
        # 2. WAL tail: the newest durable committed image for this block.
        if self.journal is not None:
            image = self.journal.latest_page_image(page_id)
            if image is not None:
                try:
                    payload = verify_frame(image, context=f"page {page_id} (WAL)")
                except CorruptionError:
                    payload = None  # logged before checksums; not a source
                if payload is not None:
                    self.device.write_blocks(
                        page_id, image, nblocks=store.page_blocks
                    )
                    stats.scrub_pages_repaired_wal += 1
                    report.repaired_from_wal += 1
                    self._note_release(released, report)
                    self.context.release_page(page_id)
                    return payload
        # 3. No source: quarantine.
        if self.context.quarantine_page(page_id):
            stats.scrub_pages_quarantined += 1
            report.quarantined += 1
        report.errors.append(f"page {page_id}: unrepairable, quarantined")
        report.unreachable_subtrees += 1
        return None

    def _note_release(self, was_quarantined: bool, report: ScrubReport) -> None:
        if was_quarantined:
            self.context.stats.scrub_pages_released += 1
            report.released += 1
