"""The recovery manager: one durability path for pool, journal and trees.

This is the ARIES-lite heart of ``repro.recovery``, and the one owner of
transactions in the system.  It unifies three previously independent pieces
— the :class:`~repro.storage.journal.Journal` (redo log), the
:class:`~repro.cache.buffer_pool.BufferPool` (dirty write-back) and the
transaction boundaries of every facade operation and ``fs.begin()`` group —
into a single write-ahead-logging discipline:

* **Redo-only WAL with LSNs.**  Every page mutation of an on-device btree is
  logged as a physical page record before the page is even buffered (the
  journal keeps it as a full ``DATA`` image on first touch after a
  checkpoint and as a byte-splice ``DELTA`` afterwards); logical state
  that cannot be rediscovered by walking (the master-tree root, the next
  object id) is logged as ``META`` records.  Records get monotonically
  increasing LSNs and pages are stamped with the LSN of their latest
  record.
* **No-force.**  Commit does not write pages home; it appends a commit
  marker and (group-)syncs the log.  Dirty pages linger in the pool and
  reach the device on eviction, flush or checkpoint.
* **No-steal.**  Pages dirtied by an *open* transaction are pinned until the
  transaction resolves, so an uncommitted page image can never reach its
  home location (redo-only logging has no undo to fix that with).
* **WAL rule at the choke point.**  The pool's ``wal_hook`` calls
  :meth:`ensure_durable` before any dirty frame is written back, so even
  group-committed (buffered) records are flushed before their page.
* **Fuzzy checkpoints.**  When the journal passes ``checkpoint_threshold``
  of its capacity (checked between transactions), every dirty page is
  flushed, the journal is truncated and a fresh superblock is written.
* **Mount-time replay.**  :meth:`replay` scans the journal tail, rebuilds
  each committed page from its logged image and deltas, writes it to its
  home location (idempotent physical redo) and folds committed ``META``
  records into the superblock state — all before any index is opened.

There is one abort rule, for a single operation and a ``fs.begin()`` group
alike.  A transaction that aborts *before* logging anything (an input
validation failure) is a clean no-op.  One that aborts after logging
poisons the manager, ext4's "abort the journal and remount" behaviour:
redo-only logging cannot roll the in-memory state back, so every later
transaction, read view and checkpoint raises :class:`RecoveryError`, and a
remount replays the committed prefix, in which the aborted transaction is
absent as a whole.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from time import monotonic
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.btree.pages import PAGE_BYTES
from repro.errors import CacheError, RecoveryError
from repro.concurrency.tree_locks import TreeLockTable, _rank
from repro.storage.block_device import BlockDevice
from repro.storage.journal import (
    RECORD_OVERHEAD,
    TYPE_DATA,
    TYPE_META,
    TYPE_REVOKE,
    Journal,
)
from repro.recovery.superblock import SUPERBLOCK_BLOCK, Superblock

#: default idle-flush period when ``group_commit > 1`` and the caller did
#: not pick one: short enough that a lone writer's commit window is
#: imperceptible, long enough that a busy batch still fills before it fires.
DEFAULT_SYNC_INTERVAL_MS = 10.0


class _TxnLocal(threading.local):
    """Per-thread transaction state: each thread runs its own (flat-nested)
    WAL transaction, and cross-thread serialization happens per *tree*
    through the :class:`TreeLockTable`, not through shared counters."""

    def __init__(self) -> None:
        self.depth = 0
        self.txid: Optional[int] = None
        self.records = 0
        self.pins: Set[Tuple[object, object]] = set()
        self.on_commit: List = []
        #: trees this transaction acquired (in rank order), released on end.
        self.trees: List[str] = []


@dataclass
class RecoveryStats:
    """Counters surfaced through ``fs.stats()['recovery']``."""

    transactions_committed: int = 0
    transactions_aborted: int = 0
    #: page writes logged outside any transaction (self-committing).
    autocommits: int = 0
    pages_logged: int = 0
    meta_records_logged: int = 0
    revokes_logged: int = 0
    checkpoints: int = 0
    #: checkpoints triggered by the journal filling past the threshold.
    auto_checkpoints: int = 0
    replayed_transactions: int = 0
    replayed_pages: int = 0
    wal_forced_syncs: int = 0
    #: journal syncs issued by the interval flusher for a commit tail that
    #: never filled its group-commit batch (the stranded-commit fix).
    idle_flushes: int = 0
    #: flusher iterations that hit a device/journal error (the thread keeps
    #: running; the error surfaces on the next foreground operation).
    flush_errors: int = 0


class RecoveryManager:
    """Assigns LSNs, owns the WAL discipline and drives crash recovery.

    :param device: the shared block device.
    :param journal_start: first block of the journal region.
    :param journal_blocks: size of the journal region in blocks.
    :param checkpoint_threshold: journal-fill fraction that triggers an
        automatic checkpoint between transactions.
    :param group_commit: number of commits batched per journal sync.  ``1``
        (the default) syncs on every commit — an operation that returned is
        durable.  Larger values trade a bounded window of recent commits for
        fewer journal writes (the WAL rule is still enforced, so what *is*
        on the device is always consistent).
    :param sync_interval_ms: upper bound on how long a buffered commit
        marker may sit unsynced (the group-commit *idle flush*).  ``None``
        picks :data:`DEFAULT_SYNC_INTERVAL_MS` when ``group_commit > 1``
        and disables the flusher otherwise; ``0`` disables it explicitly
        (a tail batch then waits for the next writer, ``ensure_durable``,
        checkpoint or unmount — the pre-fix behaviour).
    :param superblock_block: device block holding the superblock.
    """

    def __init__(
        self,
        device: BlockDevice,
        journal_start: int = 1,
        journal_blocks: int = 255,
        checkpoint_threshold: float = 0.5,
        group_commit: int = 1,
        sync_interval_ms: Optional[float] = None,
        superblock_block: int = SUPERBLOCK_BLOCK,
    ) -> None:
        if not 0.0 < checkpoint_threshold <= 1.0:
            raise ValueError("checkpoint_threshold must be in (0, 1]")
        if group_commit < 1:
            raise ValueError("group_commit must be at least 1")
        if sync_interval_ms is None:
            sync_interval_ms = DEFAULT_SYNC_INTERVAL_MS if group_commit > 1 else 0.0
        if sync_interval_ms < 0:
            raise ValueError("sync_interval_ms must be non-negative")
        self.device = device
        self.journal = Journal(device, journal_start, journal_blocks)
        self.checkpoint_threshold = checkpoint_threshold
        self.group_commit = group_commit
        self.sync_interval_ms = float(sync_interval_ms)
        self.superblock_block = superblock_block
        #: logical superblock state; META records merge into this dict and a
        #: checkpoint persists it.
        self.state: Dict[str, int] = {
            "journal_start": journal_start,
            "journal_blocks": journal_blocks,
            "data_region_start": 0,
            "master_root": 0,
            "next_oid": 1,
            "page_blocks": PAGE_BYTES // device.block_size,
            "checkpoint_seq": 0,
            "fulltext_root": 0,
            "image_root": 0,
            "checksum_pages": 1,
            "fulltext_format": 3,
            "osd_format": 2,
        }
        self.pool = None  # the shared BufferPool, once attached
        self.poisoned = False
        self.stats = RecoveryStats()
        self._txn = _TxnLocal()
        #: actions from *committed* transactions still waiting for their
        #: commit marker to reach the device (group commit defers the sync).
        self._deferred_until_durable: List[Tuple[int, object]] = []
        self._unsynced_commits = 0
        #: optional telemetry histogram (duck-typed ``observe(n)``) fed the
        #: number of commit markers each journal sync covered; installed by
        #: the filesystem facade when telemetry is enabled.
        self.commit_batch_sizes = None
        # Per-tree transaction queues: a transaction on ``fulltext`` alone
        # (a posting-backlog settle's) overlaps read views of ``master``,
        # while two transactions on the *same* tree still serialize.  Journal
        # appends from overlapping transactions interleave safely — records
        # carry txids and replay groups by txid.  Readers take shared tree
        # locks through the same table (snapshot read views).
        self.tree_locks = TreeLockTable()
        # Checkpoint quiescence gate: checkpoints flush the pool and
        # truncate the journal, so they wait for zero open transactions
        # (autocommitting records register as micro-transactions) and bar
        # new ones while pending.
        self._gate = threading.Condition()
        self._active_txns = 0
        self._checkpoint_pending = False
        #: the thread inside :meth:`quiesced`, which alone passes the gate.
        self._gate_owner: Optional[int] = None
        #: optional callable run after an outermost commit has released its
        #: locks and left the gate — the index backlog's threshold settle.
        self.after_commit = None
        # Group-commit bookkeeping shared across committing threads.
        self._commit_lock = threading.Lock()
        # Superblock state dict + stats counters (cheap, leaf-level).
        self._state_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        # Durability notification: the journal's on_sync hook wakes
        # wait_durable() callers and fires registered listeners whenever
        # durable_lsn advances (commit sync, idle flush, eviction sync,
        # checkpoint).  The serving layer's write batcher acks through this.
        self._durable_cond = threading.Condition()
        self._durable_listeners: List = []
        self.journal.on_sync = self._durability_advanced
        # The idle flusher: started lazily by the first commit that leaves
        # an unsynced tail (never during mkfs/replay), stopped at unmount.
        self._flusher: Optional[threading.Thread] = None
        self._flusher_stop = threading.Event()

    # ------------------------------------------------------------ wiring

    def attach_pool(self, pool) -> None:
        """Install the WAL hook on the shared buffer pool.

        Also allows pinned overflow: no-steal pins every page an open
        transaction dirties, and a transaction touching more pages than the
        pool's budget must oversubscribe temporarily rather than dead-end in
        ``AllPagesPinnedError`` mid-mutation.
        """
        self.pool = pool
        if pool is not None:
            pool.wal_hook = self.ensure_durable
            pool.allow_pinned_overflow = True

    def check_usable(self) -> None:
        """Raise :class:`RecoveryError` once the manager is poisoned."""
        if self.poisoned:
            raise RecoveryError(
                "durability layer aborted mid-transaction; the in-memory "
                "state is untrusted — re-mount the filesystem to recover"
            )

    # ------------------------------------------------------------ transactions

    def begin(self, trees: Tuple[str, ...] = ("master",)) -> int:
        """Open (or nest into) a WAL transaction; returns the nesting depth.

        Nesting is flat: inner begin/commit pairs join the outermost
        transaction, and only the outermost commit writes the commit marker.
        ``trees`` declares which trees the transaction mutates — the
        exclusive per-tree locks are what serialize it against other
        threads, so two transactions on disjoint trees overlap.  A nested
        begin may *escalate* to additional trees (a create indexing its
        content inside its namespace operation), which must follow the
        global rank order — the table raises on violations, so a deadlock
        is impossible by construction.
        """
        txn = self._txn
        if txn.depth > 0:
            self.check_usable()
            self._acquire_trees(txn, trees)
            txn.depth += 1
            return txn.depth
        # Under sustained concurrent load there is rarely a quiesced moment
        # for the opportunistic maybe_checkpoint() to seize, so the journal
        # would fill until the hard capacity error.  Entering writers pay
        # the toll instead: past the threshold, block here (holding no
        # locks yet) and drain the journal before joining the gate.
        self._checkpoint_if_needed()
        self._enter_gate()
        try:
            self._acquire_trees(txn, trees)
            self.check_usable()
        except BaseException:
            self._finish_outermost(txn)
            raise
        txn.txid = self.journal.allocate_txid()
        txn.records = 0
        txn.pins = set()
        txn.on_commit = []
        txn.depth = 1
        return 1

    def _enter_gate(self) -> None:
        """Register one open transaction, waiting out a pending checkpoint
        (or another thread's :meth:`quiesced` block)."""
        with self._gate:
            while (self._checkpoint_pending
                   and self._gate_owner != threading.get_ident()):
                self._gate.wait()
            self._active_txns += 1

    def _acquire_trees(self, txn: _TxnLocal, trees) -> None:
        # Every acquire (fresh or re-entrant bump) is recorded and paired
        # with exactly one release in _finish_outermost — the held-counts
        # in the lock table must balance or the tree stays locked forever.
        for tree in sorted(set(trees), key=_rank):
            self.tree_locks.acquire_exclusive(tree)
            txn.trees.append(tree)

    def _finish_outermost(self, txn: _TxnLocal) -> None:
        """Release the transaction's tree locks and leave the gate."""
        trees, txn.trees = txn.trees, []
        for tree in reversed(trees):
            self.tree_locks.release_exclusive(tree)
        with self._gate:
            self._active_txns -= 1
            self._gate.notify_all()

    def commit(self) -> None:
        """Close one nesting level; the outermost close commits the group."""
        txn = self._txn
        if txn.depth <= 0:
            raise RecoveryError("commit without a matching begin")
        txn.depth -= 1
        if txn.depth > 0:
            return
        try:
            marker_lsn = None
            if txn.records:
                with self._commit_lock:
                    sync_now = self._unsynced_commits + 1 >= self.group_commit
                    try:
                        marker_lsn = self.journal.commit_txid(txn.txid, sync=sync_now)
                    except BaseException:
                        # The commit marker never became durable (journal
                        # full, device fault): the transaction effectively
                        # aborted after logging — same fail-stop state as an
                        # explicit abort-after-logging.
                        self._fail_open_transaction(txn)
                        with self._stats_lock:
                            self.stats.transactions_aborted += 1
                        raise
                    if sync_now:
                        if self.commit_batch_sizes is not None:
                            # Telemetry: how many commit markers each journal
                            # sync covered (the group-commit amortization).
                            self.commit_batch_sizes.observe(self._unsynced_commits + 1)
                        self._unsynced_commits = 0
                    else:
                        self._unsynced_commits += 1
                        # The marker is buffered; arm the idle flusher so it
                        # cannot sit stranded past sync_interval_ms.
                        self._maybe_start_flusher()
            self._release_pins(txn)
            actions, txn.on_commit = txn.on_commit, []
            if actions:
                with self._commit_lock:
                    if marker_lsn is not None and marker_lsn > self.journal.durable_lsn:
                        # Group commit left the marker buffered: the
                        # transaction can still vanish in a crash, so its
                        # irreversible actions (chunk and page frees) must
                        # wait for the covering sync.
                        self._deferred_until_durable.extend(
                            (marker_lsn, action) for action in actions
                        )
                        actions = []
            for action in actions:
                action()
            txn.txid = None
            with self._stats_lock:
                self.stats.transactions_committed += 1
        finally:
            self._finish_outermost(txn)
        self._run_durable_actions()
        self.maybe_checkpoint()
        if self.after_commit is not None:
            self.after_commit()

    def abort(self) -> None:
        """Close one nesting level abnormally.

        An abort before anything was logged (validation failures) is a clean
        no-op.  After page mutations were logged, the in-memory structures
        can no longer be trusted (redo-only WAL has no undo): the manager is
        poisoned and further durable operations raise until a re-mount
        replays the committed prefix.
        """
        txn = self._txn
        if txn.depth <= 0:
            raise RecoveryError("abort without a matching begin")
        txn.depth -= 1
        if txn.depth > 0:
            # Let the outermost frame decide; the exception unwinding
            # through the outer context managers will abort the whole group.
            return
        try:
            self._fail_open_transaction(txn)
            with self._stats_lock:
                self.stats.transactions_aborted += 1
        finally:
            self._finish_outermost(txn)

    def _fail_open_transaction(self, txn: _TxnLocal) -> None:
        """Dispose of the outermost transaction's state after a failure.

        If it logged nothing, this is a clean no-op.  Otherwise the manager
        is poisoned *and* the transaction's dirty frames are discarded from
        the pool: their uncommitted images must never be stolen to home
        locations by later (read-only) traffic, which no poisoning check on
        the mutation path alone would prevent.
        """
        if txn.records:
            for consumer, page_id in txn.pins:
                # invalidate() drops the frame and its pin together.
                consumer.invalidate(page_id)
            txn.pins = set()
            self.poisoned = True
        else:
            self._release_pins(txn)
        txn.on_commit = []
        txn.txid = None

    @contextmanager
    def transaction(self, trees: Tuple[str, ...] = ("master",)):
        """``with recovery.transaction(): ...`` — commit on success."""
        self.begin(trees)
        try:
            yield self
        except BaseException:
            self.abort()
            raise
        else:
            self.commit()

    def read_view(self, trees: Tuple[str, ...] = ("master",)):
        """Shared tree locks for one consistent read (see ``TreeLockTable``).

        Queries hold these for their whole execution: readers overlap
        readers, writers to *other* trees proceed, and a writer to a viewed
        tree queues — so every answer reflects one stable generation of
        each viewed tree (snapshot-stable reads).  A poisoned manager
        refuses: its trees may hold an aborted transaction's effects.
        """
        self.check_usable()
        return self.tree_locks.read_view(trees)

    def _release_pins(self, txn: _TxnLocal) -> None:
        for consumer, page_id in txn.pins:
            try:
                consumer.unpin(page_id)
            except CacheError:
                # The page was freed (and invalidated) inside the transaction.
                pass
        txn.pins = set()

    @property
    def in_transaction(self) -> bool:
        """Whether the *calling thread* has an open transaction."""
        return self._txn.depth > 0

    # ------------------------------------------------------------ logging

    def _log_record(self, rtype: int, block: int, payload: bytes) -> int:
        """Append one record; returns its LSN.

        Inside a transaction the record joins it; outside, it forms a
        self-committing transaction that is immediately durable (the
        uncached/write-through path).  Records from overlapping transactions
        interleave in the journal — safely, because every record carries its
        txid and replay groups by txid; what cannot happen is two
        transactions on the *same* tree interleaving, which the per-tree
        locks exclude.
        """
        txn = self._txn
        if txn.depth > 0:
            self.check_usable()
            txn.records += 1
            return self.journal.append(rtype, txn.txid, block, payload)
        self.check_usable()
        self._reserve_log_space(len(payload))
        # Autocommits register as micro-transactions in the checkpoint gate:
        # a record appended between a checkpoint's sync and its truncate
        # would otherwise be lost while its page is still only in the pool.
        self._enter_gate()
        try:
            txid = self.journal.allocate_txid()
            lsn = self.journal.append(rtype, txid, block, payload)
            self.journal.commit_txid(txid, sync=True)
        finally:
            with self._gate:
                self._active_txns -= 1
                self._gate.notify_all()
        with self._stats_lock:
            self.stats.autocommits += 1
        self.maybe_checkpoint()
        return lsn

    def log_page(self, block: int, payload: bytes) -> int:
        """Log a physical page image; returns the record's LSN.

        The journal decides whether the record holds the whole image or a
        delta against the block's previous one; either way it counts as one
        logged page.
        """
        with self._stats_lock:
            self.stats.pages_logged += 1
        return self._log_record(TYPE_DATA, block, payload)

    def log_meta(self, updates: Dict[str, int]) -> int:
        """Log a logical superblock update (master root, next oid, ...).

        The update is applied to the in-memory state immediately and
        re-applied from the log on mount-time replay.
        """
        payload = json.dumps(updates, sort_keys=True).encode("utf-8")
        with self._state_lock:
            self.state.update(updates)
        with self._stats_lock:
            self.stats.meta_records_logged += 1
        return self._log_record(TYPE_META, 0, payload)

    def log_revoke(self, block: int) -> int:
        """Log that ``block`` was freed: replay must skip its older records.

        Without this, a freed btree page whose block is later re-used for
        *unlogged* object data would be clobbered by replaying the stale
        page image (the ext3 revoke-record problem).
        """
        with self._stats_lock:
            self.stats.revokes_logged += 1
        return self._log_record(TYPE_REVOKE, block, b"")

    def _reserve_log_space(self, payload_len: int) -> None:
        """Checkpoint early if the next record wouldn't fit the journal.

        Only possible between transactions; inside one we rely on the
        between-transaction threshold checkpointing having kept headroom
        (``Journal`` still raises ``JournalError`` as the hard backstop).
        """
        if self._txn.depth > 0 or self.pool is None:
            return
        # Headroom for this record's header plus its commit marker.
        needed = payload_len + 2 * RECORD_OVERHEAD
        if self.journal.bytes_used + needed > self.journal.capacity_bytes:
            self.checkpoint()

    def protect(self, consumer, page_id) -> None:
        """No-steal: pin a page dirtied by the open transaction until it ends."""
        txn = self._txn
        if txn.depth == 0:
            return
        key = (consumer, page_id)
        if key in txn.pins:
            return
        consumer.pin(page_id)
        txn.pins.add(key)

    def forget_page(self, consumer, page_id) -> None:
        """Drop transaction bookkeeping for a page freed mid-transaction."""
        self._txn.pins.discard((consumer, page_id))

    def on_durable(self, action) -> None:
        """Run ``action`` once the covering commit marker is *durable*.

        Used to defer irreversible in-memory effects — freeing data chunks
        and btree pages, whose storage may be re-used for unlogged bytes —
        past the point where the responsible transaction can still vanish in
        a crash.  Inside a transaction that is its commit's group sync;
        outside, everything logged so far is already durable (autocommits
        sync) unless group commit left a tail, in which case the action
        waits for the next sync.
        """
        if self._txn.depth > 0:
            self._txn.on_commit.append(action)
            return
        run_now = False
        with self._commit_lock:
            if self.journal.last_lsn <= self.journal.durable_lsn:
                run_now = True
            else:
                self._deferred_until_durable.append(
                    (self.journal.last_lsn, action))
        if run_now:
            action()

    def _run_durable_actions(self) -> None:
        """Fire deferred actions whose covering marker has reached the device."""
        with self._commit_lock:
            if not self._deferred_until_durable:
                return
            durable = self.journal.durable_lsn
            ready = [a for lsn, a in self._deferred_until_durable if lsn <= durable]
            self._deferred_until_durable = [
                (lsn, a) for lsn, a in self._deferred_until_durable if lsn > durable
            ]
        for action in ready:
            action()

    def ensure_durable(self, lsn: Optional[int]) -> None:
        """The WAL rule: flush the log through ``lsn`` before a page write.

        Called from the buffer pool's eviction path while the pool lock is
        held — possibly on a different thread than an open transaction — so
        it deliberately takes no transaction lock (lock-order inversion with
        the pool) and touches only the journal, which serializes internally.
        Deferred frees are swept at the next commit or checkpoint instead;
        running them later than their covering sync is always safe.
        """
        if lsn is None or lsn <= self.journal.durable_lsn:
            return
        self.journal.sync()
        self.stats.wal_forced_syncs += 1

    # ------------------------------------------------------------ durability

    def _durability_advanced(self, durable: int) -> None:
        """Journal ``on_sync`` hook: wake waiters, fire listeners.

        Runs on whichever thread performed the sync, possibly while that
        thread still holds the journal mutex (re-entrant sync from
        ``commit_txid``) — so listeners must be non-blocking.
        """
        with self._durable_cond:
            self._durable_cond.notify_all()
            listeners = list(self._durable_listeners)
        for listener in listeners:
            try:
                listener(durable)
            except Exception:  # pragma: no cover - listener bugs stay local
                pass

    def add_durable_listener(self, listener) -> None:
        """Register ``listener(durable_lsn)``, called on every durability
        advance.  Must be non-blocking (see :meth:`_durability_advanced`)."""
        with self._durable_cond:
            self._durable_listeners.append(listener)

    def remove_durable_listener(self, listener) -> None:
        with self._durable_cond:
            try:
                self._durable_listeners.remove(listener)
            except ValueError:
                pass

    def wait_durable(self, lsn: Optional[int], timeout: Optional[float] = None) -> bool:
        """Block until ``durable_lsn >= lsn``; True on success.

        Returns False on timeout or if the manager poisons while waiting.
        With the idle flusher armed the wait is bounded by
        ``sync_interval_ms``; callers that disabled it should pass a
        timeout and force :meth:`flush_commits` themselves.
        """
        if lsn is None or lsn <= self.journal.durable_lsn:
            return True
        deadline = None if timeout is None else monotonic() + timeout
        with self._durable_cond:
            while self.journal.durable_lsn < lsn:
                if self.poisoned:
                    return False
                if deadline is None:
                    self._durable_cond.wait(0.5)
                else:
                    remaining = deadline - monotonic()
                    if remaining <= 0:
                        return False
                    self._durable_cond.wait(min(remaining, 0.5))
        return True

    def flush_commits(self) -> bool:
        """Sync a buffered commit tail now; True if a sync was issued.

        The group-commit idle flush: covers commit markers waiting out a
        partial batch and out-of-transaction deferred frees waiting on "the
        next sync".  Safe from any thread — serialized with committing
        threads by the commit lock, and syncing records of a still-open
        transaction early is harmless (replay ignores unmarked records).
        """
        if self.poisoned:
            return False
        synced = False
        with self._commit_lock:
            if (self._unsynced_commits > 0 or self._deferred_until_durable) \
                    and self.journal.bytes_unflushed > 0:
                covered = self._unsynced_commits
                self.journal.sync()
                if covered and self.commit_batch_sizes is not None:
                    self.commit_batch_sizes.observe(covered)
                self._unsynced_commits = 0
                synced = True
        if synced:
            self._run_durable_actions()
        return synced

    def _maybe_start_flusher(self) -> None:
        """Start the idle-flush thread once; caller holds ``_commit_lock``."""
        if self.sync_interval_ms <= 0:
            return
        if self._flusher is not None and self._flusher.is_alive():
            return
        self._flusher_stop = threading.Event()
        self._flusher = threading.Thread(
            target=self._flusher_loop,
            args=(self._flusher_stop,),
            name="hfad-wal-flusher",
            daemon=True,
        )
        self._flusher.start()

    def _flusher_loop(self, stop: threading.Event) -> None:
        interval = self.sync_interval_ms / 1000.0
        while not stop.wait(interval):
            try:
                if self.flush_commits():
                    with self._stats_lock:
                        self.stats.idle_flushes += 1
            except Exception:
                # Device faults (including injected crashes) surface on the
                # next foreground operation; the flusher only keeps ticking.
                with self._stats_lock:
                    self.stats.flush_errors += 1

    def stop_flusher(self, timeout: float = 2.0) -> None:
        """Stop the idle-flush thread (unmount); idempotent."""
        flusher = self._flusher
        if flusher is None:
            return
        self._flusher_stop.set()
        if flusher.is_alive():
            flusher.join(timeout)
        self._flusher = None

    # ------------------------------------------------------------ checkpoints

    def checkpoint(self) -> int:
        """Flush dirty pages, persist the superblock, truncate the journal.

        Returns the number of pages flushed.  Refuses to run inside an open
        transaction (its records would be truncated out from under it).

        The order is load-bearing: the superblock capturing the current
        logical state must be durable *before* the journal (whose META
        records are the only other copy of that state) is truncated.  A
        crash anywhere in between leaves superblock + journal tail still
        describing the same state — replay after a new superblock merely
        rewrites page images the flush already made home (idempotent).

        Concurrency: a checkpoint *quiesces* the engine — it raises if the
        calling thread has an open transaction, bars new transactions, and
        waits for every other thread's transaction (and in-flight
        autocommit) to resolve before flushing and truncating.  Read views
        are not excluded: repairs and flushes rewrite committed state only.
        """
        with self.quiesced():
            return self._checkpoint_quiesced()

    @contextmanager
    def quiesced(self):
        """Hold the checkpoint gate: bar other threads' transactions for the block.

        Entering waits — holding no lock — for every open transaction and
        in-flight autocommit to resolve; until the block exits only the
        calling thread may transact, and checkpoint between its
        transactions.  A multi-transaction maintenance pass (the index
        backlog's settle) needs both: writers must not see it half done,
        and it may outgrow the journal.  The gate, not a tree lock: waiting
        for a checkpoint while holding a lock open transactions queue on
        would deadlock.  Re-entrant per thread.
        """
        if self._txn.depth > 0:
            raise RecoveryError("cannot checkpoint inside an open transaction")
        me = threading.get_ident()
        if self._gate_owner == me:
            yield
            return
        with self._gate:
            while self._checkpoint_pending:
                self._gate.wait()
            self._checkpoint_pending = True
            while self._active_txns > 0:
                self._gate.wait()
            self._gate_owner = me
        try:
            yield
        finally:
            with self._gate:
                self._gate_owner = None
                self._checkpoint_pending = False
                self._gate.notify_all()

    def _checkpoint_quiesced(self) -> int:
        """The checkpoint body; caller holds the quiescence gate."""
        self.check_usable()
        flushed = self.pool.flush() if self.pool is not None else 0
        self.journal.sync()  # buffered group-commit markers become durable
        self._run_durable_actions()
        with self._state_lock:
            self.state["checkpoint_seq"] = self.state.get("checkpoint_seq", 0) + 1
        self.write_superblock()
        self.journal.checkpoint()
        with self._commit_lock:
            self._unsynced_commits = 0
        with self._stats_lock:
            self.stats.checkpoints += 1
        return flushed

    def maybe_checkpoint(self) -> bool:
        """Checkpoint when the journal fill passes the threshold (and no
        transaction is open).

        Opportunistic, never blocking: if any other thread is mid-
        transaction (or a checkpoint is already pending) it simply returns
        False — the journal keeps filling and a later commit triggers it.
        The journal's hard capacity error remains the backstop.
        """
        if self._txn.depth > 0 or self.poisoned:
            return False
        if self.journal.bytes_used < self.checkpoint_threshold * self.journal.capacity_bytes:
            return False
        with self._gate:
            if self._checkpoint_pending or self._active_txns > 0:
                return False
            self._checkpoint_pending = True
        try:
            self._checkpoint_quiesced()
        finally:
            with self._gate:
                self._checkpoint_pending = False
                self._gate.notify_all()
        with self._stats_lock:
            self.stats.auto_checkpoints += 1
        return True

    def _checkpoint_if_needed(self) -> bool:
        """Blocking threshold checkpoint for threads about to transact.

        Unlike :meth:`maybe_checkpoint` this *waits* for quiescence — the
        caller must hold no tree locks and not be inside a transaction.
        Whoever arrives first pays; threads that waited out a concurrent
        checkpoint re-check the fill and skip.
        """
        if self.poisoned or self._txn.depth > 0:
            return False
        threshold = self.checkpoint_threshold * self.journal.capacity_bytes
        if self.journal.bytes_used < threshold:
            return False
        with self.quiesced():
            if self.journal.bytes_used < threshold:
                return False  # the checkpoint we waited out drained it
            self._checkpoint_quiesced()
        with self._stats_lock:
            self.stats.auto_checkpoints += 1
        return True

    def write_superblock(self) -> None:
        Superblock(
            journal_start=self.state["journal_start"],
            journal_blocks=self.state["journal_blocks"],
            data_region_start=self.state["data_region_start"],
            master_root=self.state["master_root"],
            next_oid=self.state["next_oid"],
            page_blocks=self.state["page_blocks"],
            checkpoint_seq=self.state["checkpoint_seq"],
            fulltext_root=self.state.get("fulltext_root", 0),
            image_root=self.state.get("image_root", 0),
            checksum_pages=self.state["checksum_pages"],
            fulltext_format=self.state["fulltext_format"],
            osd_format=self.state["osd_format"],
        ).store(self.device, self.superblock_block)

    # ------------------------------------------------------------ lifecycle

    def initialize(self, master_root: int, next_oid: int,
                   data_region_start: int,
                   fulltext_root: int = 0, image_root: int = 0) -> None:
        """mkfs: record the freshly created roots and write checkpoint zero."""
        self.state.update(
            master_root=master_root,
            next_oid=next_oid,
            data_region_start=data_region_start,
            fulltext_root=fulltext_root,
            image_root=image_root,
        )
        self.checkpoint()

    @classmethod
    def from_superblock(cls, device: BlockDevice, superblock: Superblock,
                        group_commit: int = 1,
                        sync_interval_ms: Optional[float] = None) -> "RecoveryManager":
        """Build a manager over an existing format (mount path)."""
        manager = cls(
            device,
            journal_start=superblock.journal_start,
            journal_blocks=superblock.journal_blocks,
            group_commit=group_commit,
            sync_interval_ms=sync_interval_ms,
        )
        manager.state.update(
            data_region_start=superblock.data_region_start,
            master_root=superblock.master_root,
            next_oid=superblock.next_oid,
            checkpoint_seq=superblock.checkpoint_seq,
            fulltext_root=superblock.fulltext_root,
            image_root=superblock.image_root,
            checksum_pages=superblock.checksum_pages,
            fulltext_format=superblock.fulltext_format,
            osd_format=superblock.osd_format,
        )
        return manager

    def replay(self) -> int:
        """Mount-time recovery: replay the committed journal tail.

        Every page with committed records is rebuilt from them and written
        to its home location once (idempotent: replay never reads the home
        location); committed ``META`` records are folded into the
        superblock state.  Returns the number of transactions replayed.
        The caller should checkpoint once the namespace is rebuilt, clearing
        the replayed tail.
        """
        committed = self.journal.replay()
        for _txid, records in committed:
            for record in records:
                if record.rtype == TYPE_META:
                    self.state.update(json.loads(record.data.decode("utf-8")))
        self.stats.replayed_pages += self.journal.last_replay_applied
        self.stats.replayed_transactions += len(committed)
        return len(committed)

    # ------------------------------------------------------------ introspection

    def snapshot(self) -> Dict[str, object]:
        journal = self.journal
        return {
            "mode": "wal",
            "poisoned": self.poisoned,
            "group_commit": self.group_commit,
            "sync_interval_ms": self.sync_interval_ms,
            "idle_flushes": self.stats.idle_flushes,
            "flush_errors": self.stats.flush_errors,
            "last_lsn": journal.last_lsn,
            "durable_lsn": journal.durable_lsn,
            "min_dirty_lsn": self.pool.min_dirty_lsn() if self.pool is not None else None,
            "journal_bytes_used": journal.bytes_used,
            "journal_capacity_bytes": journal.capacity_bytes,
            "journal_bytes_appended": journal.bytes_appended,
            "journal_syncs": journal.syncs,
            "transactions_committed": self.stats.transactions_committed,
            "transactions_aborted": self.stats.transactions_aborted,
            "autocommits": self.stats.autocommits,
            "pages_logged": self.stats.pages_logged,
            "meta_records_logged": self.stats.meta_records_logged,
            "revokes_logged": self.stats.revokes_logged,
            "checkpoints": self.stats.checkpoints,
            "auto_checkpoints": self.stats.auto_checkpoints,
            "replayed_transactions": self.stats.replayed_transactions,
            "replayed_pages": self.stats.replayed_pages,
            "wal_forced_syncs": self.stats.wal_forced_syncs,
            "checkpoint_seq": self.state.get("checkpoint_seq", 0),
            "checksum_pages": self.state["checksum_pages"],
        }
