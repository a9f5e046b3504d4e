"""Write-ahead journal for the OSD layer.

Paper Section 3.3: "In ZFS, the DMU is a transactional object store; in hFAD,
the OSD *may* be transactional, but this is an implementation decision, not a
requirement."  We take the decision: the OSD can be run with a write-ahead
journal so that multi-step metadata updates (object create, extent map
update, index insert) survive a crash in the middle.

Design
------
The journal occupies a dedicated region of the shared block device
(``journal_start`` .. ``journal_start + journal_blocks``).  It is a physical
redo log with ARIES-style log sequence numbers:

* every record carries a monotonically increasing **LSN**; a transaction is a
  sequence of data/meta records plus a commit marker;
* records are serialized with length-prefixed framing and a CRC32 covering
  the *whole record* (header fields and payload), so a torn append — the
  classic crash signature — is detected even when only the header survives;
* records are first buffered in memory; :meth:`sync` makes everything
  buffered so far durable in **one** device write (group commit: a single
  flush covers every transaction that committed since the previous flush);
* ``replay`` scans the journal, replays every *committed* transaction in
  order and ignores any trailing uncommitted or torn tail;
* ``checkpoint`` truncates the journal once home locations are durable.

Journal I/O is proportional to use.  A scan reads the region in runs of
1, 2, 4, ... blocks up to the end of the log (one block when truncated).  A
*high-water mark* bounds the region's possibly non-zero bytes: the whole
region at construction and after a replay, raised by every sync; a
checkpoint zeroes the blocks below it and drops it to zero.  Bytes past the
mark are zero, so a torn truncation still leaves a zeroed *prefix*.

The one client is :class:`repro.recovery.RecoveryManager` — the
no-force/no-steal path: page writes stay dirty in the buffer pool, the WAL
rule is enforced at eviction time, and replay happens at mount.  It drives
:meth:`allocate_txid` / :meth:`append` / :meth:`commit_txid` / :meth:`sync`
and, at mount, :meth:`replay`; the journal itself never writes a home
location outside a replay.

Record framing
--------------
``MAGIC | type | txid | lsn | block | length | crc32`` (29 bytes, big-endian)
followed by ``length`` payload bytes; the CRC covers the header (CRC field
zeroed) and the payload.  Record types:

============  ==========================================================
``DATA``        full page image: write ``payload`` at device ``block``
``DELTA``       byte splice against the block's previous logged image (below)
``HOME_DELTA``  byte splice against the block's home bytes (below)
``META``        logical superblock update (JSON), interpreted by recovery
``REVOKE``      ``block`` was freed: older page records for it are dead
``COMMIT``      every earlier record of ``txid`` is committed
============  ==========================================================

Page deltas
-----------
Most page writes change a few dozen bytes of a page whose previous image
the log already holds, so :meth:`Journal.append` turns a ``DATA`` record
into a ``DELTA`` whenever that is smaller.  The payload is::

    head_len:u8 | prefix:u32 | suffix:u32 | crc32(new):u32 | head | middle

    new = head + old[head_len : head_len + prefix] + middle
               + old[len(old) - suffix :]

``head`` is the first ``head_len`` (at most :data:`DELTA_HEAD`) bytes of the
new image carried verbatim: page formats keep their always-changing fields
there (the checksum frame's length and CRC, the node's entry count), and
they would otherwise cut the common prefix to nothing.  ``crc32(new)``
covers the whole reconstructed image, so a splice against the wrong base is
*surfaced* as a :class:`~repro.errors.JournalError` and never written.  A
delta is only taken against an image logged by the same transaction or by
one whose commit marker is already in the log, so a base can never be
discarded as uncommitted while its delta survives.

**First touch.**  The first record for a page the log holds no image of —
after a checkpoint (journal truncation), a ``REVOKE`` or a replay — is a
``HOME_DELTA``: ``crc32(base)`` followed by a ``DELTA`` payload against the
page's *home* bytes, trimmed to their checksum frame
(:mod:`repro.integrity.checksum`).  That rests on one device assumption: a
page is one block and the device writes a block whole (PostgreSQL's
``full_page_writes = off`` rests on the same one).  Then the home holds one
whole image — right after a checkpoint, exactly the page's pre-image — and
a crash can never leave it half of one and half of another.  The first
record is still a full ``DATA`` image when the home holds no base:

* its bytes fail the checksum frame (rot, or a block never written);
* the block was allocated (:meth:`Journal.mark_allocated`) or revoked since
  the log last truncated or replayed — its home holds a previous owner's
  bytes;
* the device's blocks are smaller than a page
  (:data:`~repro.storage.block_device.PAGE_BYTES`), so a crash can tear a
  page write between blocks.

Replay reads the home once for each block whose surviving records start
with a ``HOME_DELTA`` and no later full image, and compares its CRC with the
chain's: equal to the base, every record applies; equal to some record's
``crc32(new)``, the pool had already written that image back, and replay
continues after it.  A home that matches neither is never written.  When
its frame fails — a torn or rotten write, which every later read detects —
the block is reported in :attr:`Journal.last_replay_unresolved` and the
mount quarantines the page; a valid frame the chain does not know (a lost
write) raises a :class:`~repro.errors.JournalError` naming the block.
Journals written before home deltas existed hold no ``HOME_DELTA`` records
and replay byte-identically; those written before deltas existed hold only
``DATA`` records and replay unchanged.
"""

from __future__ import annotations

import struct
import threading
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import CorruptionError, DeviceError, JournalError, JournalFullError
from repro.integrity.checksum import FRAME_OVERHEAD, verify_frame
from repro.storage.block_device import PAGE_BYTES, BlockDevice
from repro.opcontext import current_operation

# Record framing:  MAGIC | type | txid | lsn | block | length | crc32
# The CRC is computed over the header (with the crc field zeroed) plus the
# payload, so corruption anywhere in the record is detected, not just in the
# payload bytes.
_RECORD_HEADER = struct.Struct(">IBQQQII")
_MAGIC = 0x68464144  # "hFAD"
_CRC_OFFSET = _RECORD_HEADER.size - 4
_CRC = struct.Struct(">I")

#: framing bytes one record adds on top of its payload (header only — the
#: payload is stored verbatim).  Clients budgeting journal space headroom
#: (e.g. "one more record plus a commit marker") should use multiples of
#: this instead of guessing.
RECORD_OVERHEAD = _RECORD_HEADER.size

TYPE_DATA = 1
TYPE_COMMIT = 2
TYPE_META = 3
#: the block was freed: earlier DATA records for it must not be replayed
#: (its storage may have been re-used by *unlogged* object data since).
TYPE_REVOKE = 4
#: a byte splice against the block's previous logged image; chosen by
#: :meth:`Journal.append` in place of ``TYPE_DATA``, never passed in.
TYPE_DELTA = 5
#: ``crc32(base)`` and then a ``DELTA`` payload against the block's home
#: bytes: the first record of a page the log holds no image of (module
#: docstring, "First touch"); chosen by :meth:`Journal.append`, never passed in.
TYPE_HOME_DELTA = 6

_KNOWN_TYPES = (TYPE_DATA, TYPE_COMMIT, TYPE_META, TYPE_REVOKE, TYPE_DELTA,
                TYPE_HOME_DELTA)
_PAGE_TYPES = (TYPE_DATA, TYPE_DELTA, TYPE_HOME_DELTA, TYPE_REVOKE)

# Delta payload:  head_len | prefix | suffix | crc32(new image)  + head + middle
_DELTA_HEADER = struct.Struct(">BIII")
# Home-delta payload:  crc32(base) (a ``_CRC``) + a delta payload

#: leading bytes of a page image a delta carries verbatim instead of
#: diffing: the checksum frame (12 bytes: magic, length, CRC) plus the node
#: header (5 bytes: type, entry count) change on almost every write.
DELTA_HEAD = 17


def _shared_run(a: bytes, b: bytes, byteorder: str) -> int:
    """Bytes two equal-length strings share at their start (``"big"``) or at
    their end (``"little"``): the XOR of the two as integers has its highest
    set bit in the first byte that differs."""
    diff = int.from_bytes(a, byteorder) ^ int.from_bytes(b, byteorder)
    return len(a) - (diff.bit_length() + 7) // 8


def encode_delta(old: bytes, new: bytes) -> bytes:
    """The ``DELTA`` payload that rebuilds ``new`` from ``old``."""
    limit = min(len(old), len(new))
    head_len = min(DELTA_HEAD, limit)
    prefix = _shared_run(old[head_len:limit], new[head_len:limit], "big")
    room = limit - head_len - prefix  # the suffix may not overlap the prefix
    old_tail, new_tail = old[len(old) - room:], new[len(new) - room:]
    # A pure insert or removal leaves the whole tail shared: one memcmp.
    suffix = room if old_tail == new_tail else _shared_run(old_tail, new_tail, "little")
    return (_DELTA_HEADER.pack(head_len, prefix, suffix, zlib.crc32(new))
            + new[:head_len] + new[head_len + prefix:len(new) - suffix])


def apply_delta(delta: bytes, old: bytes) -> bytes:
    """Rebuild the image ``delta`` was encoded for from its base ``old``.

    Raises :class:`~repro.errors.JournalError` when the splice does not fit
    the base or the result fails the CRC the delta carries — the base is not
    the image the delta was taken against.
    """
    if len(delta) < _DELTA_HEADER.size:
        raise JournalError("page delta shorter than its header")
    head_len, prefix, suffix, crc = _DELTA_HEADER.unpack_from(delta, 0)
    middle_start = _DELTA_HEADER.size + head_len
    if middle_start > len(delta) or head_len + prefix + suffix > len(old):
        raise JournalError("page delta does not fit its base image")
    new = b"".join((
        delta[_DELTA_HEADER.size:middle_start],
        old[head_len:head_len + prefix],
        delta[middle_start:],
        old[len(old) - suffix:],
    ))
    if zlib.crc32(new) != crc:
        raise JournalError("page delta rebuilt an image that fails its checksum")
    return new


def _framed(raw: bytes) -> Optional[bytes]:
    """``raw`` trimmed to its checksum frame, or None when it holds none."""
    try:
        payload = verify_frame(raw)
    except CorruptionError:
        return None
    return raw[:FRAME_OVERHEAD + len(payload)]


def _new_crc(record: "JournalRecord") -> int:
    """The CRC of the image a delta or home-delta record rebuilds."""
    at = _CRC.size if record.rtype == TYPE_HOME_DELTA else 0
    if len(record.data) < at + _DELTA_HEADER.size:
        raise JournalError(f"page delta at LSN {record.lsn} shorter than its header")
    return _DELTA_HEADER.unpack_from(record.data, at)[3]


def _resolve_home(chain: List["JournalRecord"], home: Optional[bytes]) -> Optional[int]:
    """Where a chain that starts with a home delta resumes over ``home``.

    Returns how many of the chain's records the home already reflects: 0
    when it is the chain's base, ``k`` when it is the image record ``k - 1``
    rebuilt (the pool wrote that image back), the latest such position when
    an image repeats.  None when ``home`` is no image of the chain.
    """
    if home is None:
        return None
    crc = zlib.crc32(home)
    for done in range(len(chain), 0, -1):
        if _new_crc(chain[done - 1]) == crc:
            return done
    if _CRC.unpack_from(chain[0].data, 0)[0] == crc:
        return 0
    return None


@dataclass(frozen=True)
class JournalRecord:
    """A single log record.

    ``TYPE_DATA`` records are physical redo: ``data`` must be written at
    device ``block``.  ``TYPE_DELTA`` records hold a splice against the
    block's previous image (see :func:`apply_delta`), ``TYPE_HOME_DELTA``
    records the base's CRC and a splice against the block's home bytes.
    ``TYPE_META`` records carry logical state (JSON payloads interpreted by
    the recovery manager); ``block`` is unused.
    """

    block: int
    data: bytes
    lsn: int = 0
    rtype: int = TYPE_DATA


class Journal:
    """Write-ahead journal living in a reserved region of the block device."""

    def __init__(
        self,
        device: BlockDevice,
        journal_start: int,
        journal_blocks: int,
    ) -> None:
        if journal_blocks < 2:
            raise ValueError("journal needs at least two blocks")
        if journal_start < 0 or journal_start + journal_blocks > device.num_blocks:
            raise ValueError("journal region outside the device")
        self.device = device
        self.journal_start = journal_start
        self.journal_blocks = journal_blocks
        #: first-touch records are home deltas only where a page is one
        #: block, which the device writes whole; on a device of smaller
        #: blocks a page write can tear between blocks, so they stay images.
        self.home_deltas = device.block_size == PAGE_BYTES
        self._next_txid = 1
        self._next_lsn = 1
        # The in-memory append buffer mirrors the on-device journal contents
        # between checkpoints; bytes past ``_flushed`` are buffered only and
        # become durable at the next sync (group commit).
        self._log = bytearray()
        self._flushed = 0
        # The high-water mark (module docstring): unknown until a checkpoint.
        self._dirty_bytes = self.capacity_bytes
        #: highest LSN whose record is durable on the device.
        self.durable_lsn = 0
        #: highest LSN assigned so far.
        self.last_lsn = 0
        self.commits = 0
        self.syncs = 0
        self.records_appended = 0
        #: lifetime bytes appended, *monotonic* across checkpoints (unlike
        #: ``bytes_used``, which resets when the journal truncates) — the
        #: registry-side counter the attribution differential compares
        #: per-operation ``wal_bytes`` against.
        self.bytes_appended = 0
        self.checkpoints = 0
        self.replayed_transactions = 0
        #: pages written home by the last replay (one write per block).
        self.last_replay_applied = 0
        #: page records the last replay skipped as revoked.
        self.last_replay_revoked = 0
        #: blocks the last replay left unwritten: their chain starts with a
        #: home delta and their home fails its checksum frame.
        self.last_replay_unresolved: List[int] = []
        # Delta bases: block -> (txid, image) of the newest page image logged
        # since the journal last truncated, and the txids that have records
        # but no commit marker yet (their images are bases only for
        # themselves).  Blocks allocated or revoked since then have no home
        # base.  All three are cleared wherever the log truncates or replays.
        self._bases: Dict[int, Tuple[int, bytes]] = {}
        self._open_txids: Set[int] = set()
        self._reused: Set[int] = set()
        # Serializes append/sync/truncate across threads: the recovery
        # manager's transaction lock orders *transactions*, but the buffer
        # pool's eviction path may force a sync from any thread (the WAL
        # rule), and that sync must not race a concurrent append.
        self._mutex = threading.RLock()
        #: optional callable ``(durable_lsn) -> None`` invoked — with the
        #: mutex released — whenever ``durable_lsn`` advances (sync or
        #: checkpoint).  The recovery manager uses it to wake durability
        #: waiters; it must not call back into the journal.
        self.on_sync: Optional[Callable[[int], None]] = None

    def allocate_txid(self) -> int:
        """Hand out the next transaction id."""
        with self._mutex:
            txid = self._next_txid
            self._next_txid += 1
            return txid

    # -- encoding -------------------------------------------------------------

    def _encode_record(self, rtype: int, txid: int, block: int, payload: bytes,
                       lsn: Optional[int] = None) -> bytes:
        if lsn is None:
            lsn = self._take_lsn()
        header = _RECORD_HEADER.pack(_MAGIC, rtype, txid, lsn, block, len(payload), 0)
        crc = zlib.crc32(payload, zlib.crc32(header))
        return header[:_CRC_OFFSET] + _CRC.pack(crc) + payload

    def _take_lsn(self) -> int:
        lsn = self._next_lsn
        self._next_lsn += 1
        self.last_lsn = lsn
        return lsn

    def _record_size(self, payload: bytes) -> int:
        return _RECORD_HEADER.size + len(payload)

    def _require_capacity(self, nbytes: int) -> None:
        if len(self._log) + nbytes > self.capacity_bytes:
            raise JournalFullError(
                "journal full: checkpoint before committing more transactions"
            )

    # -- append / sync (the recovery-manager API) -----------------------------

    def mark_allocated(self, block: int) -> None:
        """``block`` was just allocated as a page: until the log next
        truncates or replays, its first record is a full image, because its
        home holds a previous owner's bytes."""
        with self._mutex:
            self._reused.add(block)

    def _home_image(self, block: int) -> Optional[bytes]:
        """The framed image at ``block``'s home, read for a first touch, or
        None when the home may not serve as a base (module docstring)."""
        if not self.home_deltas or block in self._reused:
            return None
        try:
            return _framed(self.device.read_blocks(block, 1))
        except DeviceError:
            return None  # an unreadable home costs a full image, not the write

    def append(self, rtype: int, txid: int, block: int, payload: bytes) -> int:
        """Buffer one record; returns its LSN.  Not yet durable — see sync.

        A ``TYPE_DATA`` page image is logged as a ``TYPE_DELTA`` against the
        block's previous logged image, or on first touch as a
        ``TYPE_HOME_DELTA`` against its home bytes, when that is smaller
        (module docstring, "Page deltas"); callers pass neither.
        """
        if rtype not in _KNOWN_TYPES or rtype in (TYPE_DELTA, TYPE_HOME_DELTA):
            raise JournalError(f"record type {rtype} cannot be appended")
        payload = image = bytes(payload)
        home = None
        if rtype == TYPE_DATA and block not in self._bases:
            # First touch: read the home before taking the mutex, which the
            # pool's forced syncs and the flusher wait on.  Appends are
            # serialized by the engine lock, and a page with no base is
            # clean, so nothing writes its home meanwhile.
            home = self._home_image(block)
        with self._mutex:
            if rtype == TYPE_DATA:
                base_txid, base = self._bases.get(block, (0, None))
                if base is not None:
                    if base_txid == txid or base_txid not in self._open_txids:
                        delta = encode_delta(base, image)
                        if len(delta) < len(image):
                            rtype, payload = TYPE_DELTA, delta
                elif home is not None:
                    delta = _CRC.pack(zlib.crc32(home)) + encode_delta(home, image)
                    if len(delta) < len(image):
                        rtype, payload = TYPE_HOME_DELTA, delta
            size = self._record_size(payload)
            self._require_capacity(size)
            lsn = self._take_lsn()
            self._log += self._encode_record(rtype, txid, block, payload, lsn=lsn)
            if rtype == TYPE_COMMIT:
                self._open_txids.discard(txid)
            else:
                self._open_txids.add(txid)
            if rtype == TYPE_REVOKE:
                self._bases.pop(block, None)
                self._reused.add(block)
            elif rtype in (TYPE_DATA, TYPE_DELTA, TYPE_HOME_DELTA):
                self._bases[block] = (txid, image)
            self.records_appended += 1
            self.bytes_appended += size
            op = current_operation()
            if op is not None:
                op.wal_records += 1
                op.wal_bytes += size
            return lsn

    def commit_txid(self, txid: int, sync: bool = True) -> int:
        """Append the commit marker for ``txid``; optionally flush the log.

        With ``sync=True`` this is group commit: the single device write
        covers every record buffered since the last flush, including other
        transactions' records and commit markers.
        """
        with self._mutex:
            lsn = self.append(TYPE_COMMIT, txid, 0, b"")
            self.commits += 1
            if sync:
                self.sync()
            return lsn

    def sync(self) -> int:
        """Flush buffered records to the journal region; returns bytes written.

        After a successful sync every record appended so far is durable
        (``durable_lsn == last_lsn``).
        """
        with self._mutex:
            before = self.durable_lsn
            pending = len(self._log) - self._flushed
            if pending > 0:
                # Raised before the write: a failed one may leave bytes behind.
                self._dirty_bytes = max(self._dirty_bytes, len(self._log))
                self._write_log_region(self._flushed, bytes(self._log[self._flushed:]))
                self._flushed = len(self._log)
                self.syncs += 1
                op = current_operation()
                if op is not None:
                    op.wal_syncs += 1
            self.durable_lsn = self.last_lsn
            durable = self.durable_lsn
        if durable != before:
            self._notify_durable(durable)
        return max(pending, 0)

    def _write_log_region(self, offset: int, data: bytes) -> None:
        """Write ``data`` at byte ``offset`` of the journal region."""
        block_size = self.device.block_size
        first_block = self.journal_start + offset // block_size
        within = offset % block_size
        self.device.write_bytes(first_block, within, data)

    # -- recovery -------------------------------------------------------------

    @staticmethod
    def _parse(raw: bytes, only_block: Optional[int] = None
               ) -> Tuple[List[Tuple[int, List[JournalRecord]]], int, int, bool]:
        """Group the well-formed records of ``raw`` by committed transaction.

        Returns ``(committed, max_txid, max_lsn, ran_out)``; see
        :meth:`scan_detailed`.  ``ran_out`` says the parse stopped at the end
        of ``raw`` rather than at a bad or zeroed record: more bytes might
        continue the log.  ``only_block`` keeps just the records of one
        block (the scrubber's question).
        """
        position = 0
        open_txns: dict = {}
        committed: List[Tuple[int, List[JournalRecord]]] = []
        max_txid = 0
        max_lsn = 0
        ran_out = True
        while position + _RECORD_HEADER.size <= len(raw):
            magic, rtype, txid, lsn, block, length, crc = _RECORD_HEADER.unpack_from(
                raw, position
            )
            if magic != _MAGIC or rtype not in _KNOWN_TYPES:
                ran_out = False
                break
            payload_start = position + _RECORD_HEADER.size
            payload_end = payload_start + length
            if payload_end > len(raw):
                break  # torn: the length field promises bytes that never made it
            payload = raw[payload_start:payload_end]
            header = raw[position:position + _CRC_OFFSET] + b"\x00\x00\x00\x00"
            if zlib.crc32(payload, zlib.crc32(header)) != crc:
                ran_out = False
                break  # torn or bit-flipped record
            max_txid = max(max_txid, txid)
            max_lsn = max(max_lsn, lsn)
            if rtype == TYPE_COMMIT:
                committed.append((txid, open_txns.pop(txid, [])))
            elif only_block is None or block == only_block:
                open_txns.setdefault(txid, []).append(
                    JournalRecord(block=block, data=payload, lsn=lsn, rtype=rtype)
                )
            position = payload_end
        return committed, max_txid, max_lsn, ran_out

    def scan_detailed(self) -> Tuple[List[Tuple[int, List[JournalRecord]]], int, int]:
        """Parse the on-device journal.

        Returns ``(committed, max_txid, max_lsn)`` where ``committed`` lists
        each committed transaction's records (data, delta and meta) in
        commit order and the maxima cover *every* well-formed record seen,
        committed or not (so id generators can be advanced past the replayed
        tail).

        Parsing stops cleanly at the first torn, corrupt or zeroed record —
        the journal tail left by a crash.  Transactions without a commit
        marker are discarded.  The region is read in runs of 1, 2, 4, ...
        blocks, each block once, until a run holds that stopping point.
        """
        block_size = self.device.block_size
        raw = bytearray()
        run = 1
        while True:
            read = len(raw) // block_size
            run = min(run, self.journal_blocks - read)
            raw += self.device.read_blocks(self.journal_start + read, run)
            committed, max_txid, max_lsn, ran_out = self._parse(raw)
            if not ran_out or len(raw) == self.capacity_bytes:
                return committed, max_txid, max_lsn
            run *= 2

    def scan(self) -> List[Tuple[int, List[JournalRecord]]]:
        """Parse the on-device journal, returning committed transactions."""
        committed, _max_txid, _max_lsn = self.scan_detailed()
        return committed

    def _fold_pages(self, committed: List[Tuple[int, List[JournalRecord]]]
                    ) -> Tuple[Dict[int, bytes], int, Dict[int, Optional[bytes]]]:
        """Rebuild the newest image of every block the committed log covers.

        The one fold replay and :meth:`latest_page_image` share: each
        block's page records in LSN order, a ``DATA`` record replacing the
        block's image and a delta splicing into it.  A chain with no full
        image starts from the block's home, read once (module docstring,
        "First touch").  Returns ``(images, revoked, unresolved)``:
        ``revoked`` counts the page records skipped, ``unresolved`` maps
        each block whose home matched no image of its chain to those home
        bytes trimmed to their frame (None when the frame fails).

        Revoke handling (the ext3 lesson): a committed ``TYPE_REVOKE`` record
        says the block was freed at that LSN — any *older* page record for
        it must not be replayed, because the block may since hold unlogged
        object data that replaying would corrupt.  Newer records (the block
        was re-used as a logged page again) still apply.
        """
        pages = [r for _txid, records in committed for r in records
                 if r.rtype in _PAGE_TYPES]
        revoked: Dict[int, int] = {}
        for record in pages:
            if record.rtype == TYPE_REVOKE:
                revoked[record.block] = max(revoked.get(record.block, 0), record.lsn)
        chains: Dict[int, List[JournalRecord]] = {}
        skipped = 0
        for record in sorted(pages, key=lambda r: r.lsn):
            if record.rtype == TYPE_REVOKE:
                continue
            if record.lsn <= revoked.get(record.block, 0):
                skipped += 1
            else:
                chains.setdefault(record.block, []).append(record)
        images: Dict[int, bytes] = {}
        unresolved: Dict[int, Optional[bytes]] = {}
        for block, chain in chains.items():
            full = [at for at, record in enumerate(chain) if record.rtype == TYPE_DATA]
            if full:
                done, image = full[-1] + 1, chain[full[-1]].data
            elif chain[0].rtype != TYPE_HOME_DELTA:
                raise JournalError(
                    f"page delta at LSN {chain[0].lsn} for block {block} "
                    "has no base image in the journal"
                )
            else:
                image = _framed(self.device.read_blocks(block, 1))
                done = _resolve_home(chain, image)
                if done is None:
                    unresolved[block] = image
                    continue
            for record in chain[done:]:
                image = self._splice(record, image)
            images[block] = image
        return images, skipped, unresolved

    @staticmethod
    def _splice(record: JournalRecord, image: bytes) -> bytes:
        """Apply one delta or home-delta record to the block's image."""
        if record.rtype == TYPE_DELTA:
            return apply_delta(record.data, image)
        # A home delta past a chain's start: the log was replayed and
        # extended, and the home it was taken against is the image so far.
        if _CRC.unpack_from(record.data, 0)[0] != zlib.crc32(image):
            raise JournalError(
                f"home delta at LSN {record.lsn} for block {record.block} "
                "was taken against another image"
            )
        return apply_delta(record.data[_CRC.size:], image)

    def replay(self) -> List[Tuple[int, List[JournalRecord]]]:
        """Replay committed physical records and resynchronize counters.

        Every block with committed page records is rebuilt from them
        (:meth:`_fold_pages`) and written to its home location once —
        idempotent physical redo, which reads a home only for a chain that
        starts with a home delta.  A block whose home matches no image of
        its chain is not written: listed in :attr:`last_replay_unresolved`
        when its home fails its frame, a :class:`~repro.errors.JournalError`
        naming it otherwise, raised before any block is written.  Meta
        records are returned untouched for the recovery manager to
        interpret.  The in-memory append buffer is rebuilt so new commits go
        after the replayed tail, the txid/LSN generators are advanced past
        everything seen in the log, and the delta bases are dropped: the
        next record for any block starts from its home again.
        """
        committed, max_txid, max_lsn = self.scan_detailed()
        images, self.last_replay_revoked, unresolved = self._fold_pages(committed)
        stale = sorted(block for block, home in unresolved.items() if home is not None)
        if stale:
            raise JournalError(
                f"home of block {stale[0]} holds a valid page the log's chain "
                "for it never logged (a lost write): replay would build on it"
            )
        for block, image in images.items():
            self.device.write_blocks(block, image)
        self.last_replay_applied = len(images)
        self.last_replay_unresolved = sorted(unresolved)
        self.replayed_transactions += len(committed)
        self._next_txid = max(self._next_txid, max_txid + 1)
        self._next_lsn = max(self._next_lsn, max_lsn + 1)
        self.last_lsn = self._next_lsn - 1
        # Rebuild the append buffer from the committed prefix; it is already
        # durable on the device, so nothing is pending.
        self._log = bytearray()
        for txid, records in committed:
            for record in records:
                self._log += self._encode_record(
                    record.rtype, txid, record.block, record.data, lsn=record.lsn
                )
            self._log += self._encode_record(TYPE_COMMIT, txid, 0, b"", lsn=0)
        self._flushed = len(self._log)
        # Past the scan's stopping point the region may hold a torn
        # truncation's leftovers: the next checkpoint zeroes all of it.
        self._dirty_bytes = self.capacity_bytes
        self._bases.clear()
        self._open_txids.clear()
        self._reused.clear()
        self.durable_lsn = self.last_lsn
        return committed

    # -- integrity helpers ----------------------------------------------------

    def latest_page_image(self, block: int) -> Optional[bytes]:
        """The newest committed, durable, non-revoked image logged for ``block``.

        The scrubber's WAL repair source: if a home location rots after its
        page was logged but before the next checkpoint truncates the log,
        this image is byte-exact what a healthy write-back would have put
        there.  Only the *flushed* prefix of the in-memory mirror is
        consulted — rewriting a home location from a buffered (not yet
        durable) record would break the WAL rule — and only transactions
        whose commit marker is durable count.  The image is rebuilt by the
        same fold as replay (full image or home, then deltas; a committed
        revoke kills every older record), so a chain that starts from a home
        which has since rotted yields None, never a wrong image.
        """
        with self._mutex:
            raw = bytes(self._log[:self._flushed])
        committed, _max_txid, _max_lsn, _ran_out = self._parse(raw, only_block=block)
        try:
            images, _revoked, _unresolved = self._fold_pages(committed)
        except DeviceError:
            return None  # the home an image would be folded from is unreadable
        return images.get(block)

    def verify_device_region(self) -> dict:
        """Compare the on-device journal against the in-memory mirror.

        The append buffer mirrors the flushed on-device log byte for byte
        between checkpoints, so any divergence in that prefix is silent
        corruption of the journal region (bit rot, a misdirected write) —
        exactly the blind spot a structural re-scan cannot see, because a
        flipped bit simply truncates the scan at a "torn" record.  Returns a
        report dict; never raises (fsck aggregates it).
        """
        with self._mutex:
            expected = bytes(self._log[:self._flushed])
        report = {
            "flushed_bytes": len(expected),
            "matches_memory": True,
            "first_divergence": None,
        }
        if not expected:
            return report
        try:
            nblocks = -(-len(expected) // self.device.block_size)
            on_device = self.device.read_blocks(self.journal_start, nblocks)[:len(expected)]
        except Exception as error:  # noqa: BLE001 — fsck reports, never raises
            report["matches_memory"] = False
            report["first_divergence"] = f"unreadable: {error}"
            return report
        if on_device != expected:
            diverged = next(
                (i for i, (a, b) in enumerate(zip(on_device, expected)) if a != b),
                min(len(on_device), len(expected)),
            )
            report["matches_memory"] = False
            report["first_divergence"] = diverged
        return report

    def checkpoint(self) -> None:
        """Truncate the journal: home locations are assumed durable.

        The blocks below the high-water mark are zeroed in one device write
        (none when the mark is zero); the rest of the region is zero
        already.  So a crash can tear the truncation only into a zeroed
        *prefix* — which scan reads as an empty log, never as a resurrected
        stale record.  (Callers persist their checkpoint state *before*
        truncating; see RecoveryManager.)
        """
        with self._mutex:
            before = self.durable_lsn
            dirty_blocks = -(-self._dirty_bytes // self.device.block_size)
            if dirty_blocks:
                self.device.write_blocks(self.journal_start, b"", nblocks=dirty_blocks)
            self._dirty_bytes = 0
            self._log = bytearray()
            self._flushed = 0
            self._bases.clear()
            self._open_txids.clear()
            self._reused.clear()
            self.durable_lsn = self.last_lsn
            durable = self.durable_lsn
            self.checkpoints += 1
        if durable != before:
            self._notify_durable(durable)

    def _notify_durable(self, durable: int) -> None:
        """Fire ``on_sync`` outside the mutex; listener failures stay local."""
        hook = self.on_sync
        if hook is None:
            return
        try:
            hook(durable)
        except Exception:  # pragma: no cover - listeners must not sink I/O
            pass

    # -- introspection --------------------------------------------------------

    @property
    def bytes_used(self) -> int:
        """Bytes of journal space consumed since the last checkpoint."""
        return len(self._log)

    @property
    def bytes_unflushed(self) -> int:
        """Buffered bytes not yet durable (waiting on the next sync)."""
        return len(self._log) - self._flushed

    @property
    def capacity_bytes(self) -> int:
        return self.journal_blocks * self.device.block_size
