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
redo log with ARIES-style log sequence numbers, and one transaction is one
**frame** of it:

* every record carries a monotonically increasing **LSN**; a transaction's
  records are *staged* by :meth:`append` and sealed into one frame by
  :meth:`commit_txid`, which carries one CRC32 over the whole frame, so a
  torn append — the classic crash signature — is detected wherever it cut;
* sealed frames are first buffered in memory; :meth:`sync` makes every
  sealed frame durable in **one** device write (group commit: a single
  flush covers every transaction that committed since the previous flush),
  and never writes a stage;
* ``replay`` scans the journal, replays every whole frame in order and
  ignores the torn or zeroed tail after the last one;
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

Frames
------
The log is a run of frames (big-endian)::

    frame = MAGIC:u32 | first_lsn:u64 | length:u32 | crc32:u32 | entry*
    entry = type:u8 | block:u32 | length:u32 | payload

A frame's ``length`` counts its entry bytes, and its CRC covers the header
(CRC field zeroed) and every entry; entry *i* has LSN ``first_lsn + i``.
The header is 20 bytes, an entry's 9 (:data:`TXN_OVERHEAD`,
:data:`RECORD_OVERHEAD`).

There is no commit record.  A transaction's records reach the log only when
it commits, sealed into its frame, so a frame that parses whole *is* a
committed transaction, and a torn one is dropped whole.  The log needs no
transaction id either: the engine lock serializes transactions, so their
records never interleave, and one stage is open at a time.  A record for
another transaction id abandons the open stage, whose records never reach
the log and whose images never become delta bases (its transaction aborted
after logging).

A region that starts with ``hFAD`` — the per-record format before frames,
where every record carried its own txid, LSN and CRC and a ``COMMIT`` record
closed each transaction — is refused with a :class:`~repro.errors.JournalError`
naming that format, before replay writes a block.  A region that starts
with zeros (a checkpointed journal of either format) is an empty log.

Entry types:

============  ==========================================================
``DATA``        full page image: write ``payload`` at device ``block``
``DELTA``       byte splice against the block's previous logged image (below)
``HOME_DELTA``  byte splice against the block's home bytes (below)
``META``        logical superblock update (JSON), interpreted by recovery
``REVOKE``      ``block`` was freed: older page records for it are dead
============  ==========================================================

Page deltas
-----------
Most transactions change a few dozen bytes of a page whose previous image
the log already holds, so :meth:`Journal.append` turns a ``DATA`` record
into a ``DELTA`` whenever that is smaller.  The recovery manager logs each
page a transaction wrote once, as its final image, when the transaction
seals, so a record is one delta against the page's image from before the
transaction: its last sealed image, or its home on first touch (below).  A
block appended twice in one stage — only a direct caller of the journal
does that — deltas against the stage's own earlier image.  The payload is::

    head_len:u8 | prefix:u32 | suffix:u32 | crc32(new):u32 | head | middle

    new = head + old[head_len : head_len + prefix] + middle
               + old[len(old) - suffix :]

``head`` is the first ``head_len`` (at most :data:`DELTA_HEAD`) bytes of the
new image carried verbatim: page formats keep their always-changing fields
there (the checksum frame's length and CRC, the node's entry count), and
they would otherwise cut the common prefix to nothing.  ``crc32(new)``
covers the whole reconstructed image, so a splice against the wrong base is
*surfaced* as a :class:`~repro.errors.JournalError` and never written.  A
delta is only taken against an image logged by the same transaction or by a
sealed frame, which precedes it in the log, so a crash can never keep a
delta and drop its base.

**Run lists.**  One splice carries everything from the first changed byte
to the last, so a leaf that took several scattered edits (a settle batch
adds a row to many terms of one leaf) would log nearly all of itself.  A
middle longer than :data:`RUN_SEARCH_ABOVE` bytes is therefore searched for
runs it shares with the base, and when those make it strictly smaller it
travels as a run list, flagged by the top bit of ``head_len``::

    middle = run*
    run    = lit_len:u16 | copy_from:u16 | copy_len:u16 | literal
           -> literal + old[copy_from : copy_from + copy_len]

``copy_from`` is an absolute offset into the base (a page is at most 65,535
bytes).  The search anchors a :data:`RUN_PROBE`-byte piece of the middle,
taken at 1/2, 1/4 or 3/4 of it, in the base — within :data:`RUN_WINDOW`
bytes of its aligned offset first, since on a page of look-alike records
the first repeat of a piece is seldom its own — extends the match both ways
and searches the two sides the same way.  A short middle is never searched, so
its delta is the single splice the encoder wrote before run lists existed.
A run that reaches past the base or the payload is a
:class:`~repro.errors.JournalError`, like a splice that does not fit.

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

# A frame:  MAGIC | first_lsn | length | crc32, then ``length`` bytes of
# entries; the CRC covers the header (crc field zeroed) and the entries.
_FRAME = struct.Struct(">IQII")
_FRAME_MAGIC = 0x68465458  # "hFTX"
# An entry:  type | block | length, then ``length`` payload bytes.
_ENTRY = struct.Struct(">BII")
_CRC = struct.Struct(">I")
# What the per-record format (before frames) began every record with.
_RECORD_MAGIC = b"hFAD"

#: framing bytes one record adds on top of its payload (its entry header —
#: the payload is stored verbatim).  Clients budgeting journal space
#: headroom should use multiples of this and :data:`TXN_OVERHEAD` instead
#: of guessing.
RECORD_OVERHEAD = _ENTRY.size
#: framing bytes one transaction adds on top of its records (its frame header).
TXN_OVERHEAD = _FRAME.size

TYPE_DATA = 1
# 2 was the per-record format's COMMIT record.
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

_KNOWN_TYPES = (TYPE_DATA, TYPE_META, TYPE_REVOKE, TYPE_DELTA, TYPE_HOME_DELTA)
_PAGE_TYPES = (TYPE_DATA, TYPE_DELTA, TYPE_HOME_DELTA, TYPE_REVOKE)

# Delta payload:  head_len | prefix | suffix | crc32(new image)  + head + middle
_DELTA_HEADER = struct.Struct(">BIII")
# Home-delta payload:  crc32(base) (a ``_CRC``) + a delta payload

#: leading bytes of a page image a delta carries verbatim instead of
#: diffing: the checksum frame (12 bytes: magic, length, CRC) plus the node
#: header (5 bytes: type, entry count) change on almost every write.
DELTA_HEAD = 17

#: a delta's middle longer than this many bytes is searched for runs it
#: shares with the base (module docstring, "Run lists"); shorter ones stay raw.
RUN_SEARCH_ABOVE = 96
#: bytes of a long middle looked up in the base to anchor a shared run.
RUN_PROBE = 24
#: how far from its aligned offset the base is searched for a probe first.
RUN_WINDOW = 128
# A run:  lit_len | copy_from | copy_len  (big-endian u16s), then the literal.
_RUN = struct.Struct(">HHH")
# Set in ``head_len`` when the middle is a run list; DELTA_HEAD is below it.
_RUNS_FLAG = 0x80
# Bytes :func:`_agree` narrows a difference down to before it XORs them.
_XOR_WINDOW = 256
assert PAGE_BYTES <= 0xFFFF, "a run's offsets and lengths are u16"


def _agree(a: bytes, at_a: int, b: bytes, at_b: int, room: int, forward: bool) -> int:
    """How many bytes, at most ``room``, ``a`` and ``b`` agree on going
    forward from ``a[at_a]`` and ``b[at_b]``, or backward from just before.

    One memcmp settles a whole side shared (a pure insert or removal);
    otherwise halving memcmps narrow the first difference to a small
    window, and the XOR of its two pieces as integers has its highest set
    bit in the byte that differs.  Offsets ``agreed`` / ``differs`` count
    away from ``at`` in the walk's direction.
    """
    if forward:
        if a[at_a:at_a + room] == b[at_b:at_b + room]:
            return room
    elif a[at_a - room:at_a] == b[at_b - room:at_b]:
        return room
    agreed, differs = 0, room
    while differs - agreed > _XOR_WINDOW:
        middle = (agreed + differs) // 2
        if forward:
            same = a[at_a + agreed:at_a + middle] == b[at_b + agreed:at_b + middle]
        else:
            same = a[at_a - middle:at_a - agreed] == b[at_b - middle:at_b - agreed]
        agreed, differs = (middle, differs) if same else (agreed, middle)
    if forward:
        x, y = a[at_a + agreed:at_a + differs], b[at_b + agreed:at_b + differs]
    else:
        x, y = a[at_a - differs:at_a - agreed], b[at_b - differs:at_b - agreed]
    order = "big" if forward else "little"
    diff = int.from_bytes(x, order) ^ int.from_bytes(y, order)
    return differs - (diff.bit_length() + 7) // 8


def _copies(old: bytes, new: bytes, o0: int, o1: int, n0: int, n1: int,
            out: List[Tuple[int, int, int]]) -> None:
    """Append ``(at, source, length)`` for runs of ``new[n0:n1]`` that
    ``old[o0:o1]`` holds, in order.

    The region's ends differ (the caller's splice or run stopped at them),
    so a run is only found inside: around a :data:`RUN_PROBE`-byte probe at
    1/2, 1/4 or 3/4 of a region longer than :data:`RUN_SEARCH_ABOVE`,
    extended both ways as far as the bytes agree; then the side before it is
    searched the same way, and the side after it next.  A probe is looked
    for within :data:`RUN_WINDOW` bytes of where it would sit had nothing
    before it moved, and only then in the whole region: a page of repeated
    entries holds the probe many times, and the first repeat is rarely the
    aligned one.
    """
    while n1 - n0 > RUN_SEARCH_ABOVE:
        span = n1 - n0 - RUN_PROBE
        for at in (n0 + span // 2, n0 + span // 4, n0 + 3 * span // 4):
            probe, aligned = new[at:at + RUN_PROBE], o0 + at - n0
            hit = old.find(probe, max(o0, aligned - RUN_WINDOW),
                           min(o1, aligned + RUN_WINDOW + RUN_PROBE))
            if hit < 0:
                hit = old.find(probe, o0, o1)
            if hit >= 0:
                break
        else:
            return
        back = _agree(old, hit, new, at, min(hit - o0, at - n0), False)
        ahead = _agree(old, hit, new, at, min(o1 - hit, n1 - at), True)
        _copies(old, new, o0, hit - back, n0, at - back, out)
        out.append((at - back, hit - back, back + ahead))
        o0, n0 = hit + ahead, at + ahead


def _run_list(old: bytes, new: bytes, o0: int, o1: int, n0: int, n1: int) -> Optional[bytes]:
    """``new[n0:n1]`` as runs against ``old`` when the base holds enough of
    it, in fewer bytes than the raw middle; None otherwise."""
    copies: List[Tuple[int, int, int]] = []
    _copies(old, new, o0, o1, n0, n1, copies)
    trailing = n1 > (copies[-1][0] + copies[-1][2] if copies else n0)
    literal = n1 - n0 - sum(length for _at, _source, length in copies)
    if _RUN.size * (len(copies) + trailing) + literal >= n1 - n0:
        return None
    runs, cursor = [], n0
    for at, source, length in copies:
        runs += (_RUN.pack(at - cursor, source, length), new[cursor:at])
        cursor = at + length
    if trailing:
        runs += (_RUN.pack(n1 - cursor, 0, 0), new[cursor:n1])
    return b"".join(runs)


def encode_delta(old: bytes, new: bytes) -> bytes:
    """The ``DELTA`` payload that rebuilds ``new`` from ``old``."""
    limit = min(len(old), len(new))
    head_len = min(DELTA_HEAD, limit)
    prefix = _agree(old, head_len, new, head_len, limit - head_len, True)
    # the suffix may not overlap the prefix
    suffix = _agree(old, len(old), new, len(new), limit - head_len - prefix, False)
    middle_start, middle_end = head_len + prefix, len(new) - suffix
    runs = None
    # A run's offsets are u16: every page fits, arbitrary bytes may not.
    if middle_end - middle_start > RUN_SEARCH_ABOVE and max(len(old), len(new)) <= 0xFFFF:
        runs = _run_list(old, new, middle_start, len(old) - suffix, middle_start, middle_end)
    flag, middle = (0, new[middle_start:middle_end]) if runs is None else (_RUNS_FLAG, runs)
    return (_DELTA_HEADER.pack(head_len | flag, prefix, suffix, zlib.crc32(new))
            + new[:head_len] + middle)


def _apply_runs(runs: bytes, start: int, old: bytes) -> List[bytes]:
    """The pieces a run-list middle (``runs[start:]``) rebuilds from ``old``."""
    pieces, end = [], len(runs)
    while start < end:
        if start + _RUN.size > end:
            raise JournalError("page delta's run list does not fit its payload")
        literal, source, length = _RUN.unpack_from(runs, start)
        start += _RUN.size
        if start + literal > end or source + length > len(old):
            raise JournalError("page delta's run does not fit its payload or base")
        pieces += (runs[start:start + literal], old[source:source + length])
        start += literal
    return pieces


def apply_delta(delta: bytes, old: bytes) -> bytes:
    """Rebuild the image ``delta`` was encoded for from its base ``old``.

    Raises :class:`~repro.errors.JournalError` when the splice or a run does
    not fit the base or the payload, or the result fails the CRC the delta
    carries — the base is not the image the delta was taken against.
    """
    if len(delta) < _DELTA_HEADER.size:
        raise JournalError("page delta shorter than its header")
    flagged, prefix, suffix, crc = _DELTA_HEADER.unpack_from(delta, 0)
    head_len = flagged & ~_RUNS_FLAG
    middle_start = _DELTA_HEADER.size + head_len
    if middle_start > len(delta) or head_len + prefix + suffix > len(old):
        raise JournalError("page delta does not fit its base image")
    if flagged & _RUNS_FLAG:
        middle = _apply_runs(delta, middle_start, old)
    else:
        middle = [delta[middle_start:]]
    new = b"".join((
        delta[_DELTA_HEADER.size:middle_start],
        old[head_len:head_len + prefix],
        *middle,
        old[len(old) - suffix:],
    ))
    if zlib.crc32(new) != crc:
        raise JournalError("page delta rebuilt an image that fails its checksum")
    return new


def _header_crc(first_lsn: int, length: int) -> int:
    """The CRC of a frame's header with its CRC field zeroed; the frame's
    CRC continues it over the entries."""
    return zlib.crc32(_FRAME.pack(_FRAME_MAGIC, first_lsn, length, 0))


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
        if device.num_blocks > 0xFFFFFFFF:
            raise ValueError("an entry names its block in 32 bits")
        self.device = device
        self.journal_start = journal_start
        self.journal_blocks = journal_blocks
        #: first-touch records are home deltas only where a page is one
        #: block, which the device writes whole; on a device of smaller
        #: blocks a page write can tear between blocks, so they stay images.
        self.home_deltas = device.block_size == PAGE_BYTES
        self._next_txid = 1
        self._next_lsn = 1
        # The in-memory log mirrors the on-device journal between
        # checkpoints: sealed frames up to ``_sealed``, then the open stage's
        # frame (its header a placeholder until it seals).  Bytes past
        # ``_flushed`` are buffered only; sealed ones become durable at the
        # next sync (group commit), staged ones never before they seal.
        self._log = bytearray()
        self._sealed = 0
        self._flushed = 0
        # The high-water mark (module docstring): unknown until a checkpoint.
        self._dirty_bytes = self.capacity_bytes
        #: highest LSN whose record is durable on the device.
        self.durable_lsn = 0
        #: highest LSN assigned so far, staged records included.
        self.last_lsn = 0
        #: highest LSN of a sealed frame: what the next sync makes durable.
        self.sealed_lsn = 0
        self.commits = 0
        self.syncs = 0
        self.records_appended = 0
        #: frames sealed into the log.
        self.frames = 0
        #: lifetime bytes appended, *monotonic* across checkpoints (unlike
        #: ``bytes_used``, which resets when the journal truncates) — the
        #: registry-side counter the attribution differential compares
        #: per-operation ``wal_bytes`` against.  A record counts when it is
        #: staged, its frame header when the frame seals.
        self.bytes_appended = 0
        #: the part of ``bytes_appended`` that is frame and entry headers;
        #: the rest is payload.
        self.framing_bytes = 0
        self.checkpoints = 0
        self.replayed_transactions = 0
        #: pages written home by the last replay (one write per block).
        self.last_replay_applied = 0
        #: page records the last replay skipped as revoked.
        self.last_replay_revoked = 0
        #: blocks the last replay left unwritten: their chain starts with a
        #: home delta and their home fails its checksum frame.
        self.last_replay_unresolved: List[int] = []
        # Delta bases: block -> the newest page image sealed since the
        # journal last truncated; the open stage's own images (None where it
        # revoked the block) join them when it seals.  Blocks allocated or
        # revoked since the log truncated have no home base.  All are
        # cleared wherever the log truncates or replays.
        self._bases: Dict[int, bytes] = {}
        self._stage_txid: Optional[int] = None
        self._stage_lsn = 0
        self._stage_bases: Dict[int, Optional[bytes]] = {}
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
        """Hand out the next transaction id: the stage owner's name, never
        written to the log."""
        with self._mutex:
            txid = self._next_txid
            self._next_txid += 1
            return txid

    def _take_lsn(self) -> int:
        lsn = self._next_lsn
        self._next_lsn += 1
        self.last_lsn = lsn
        return lsn

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

    def _base(self, txid: int, block: int) -> Optional[bytes]:
        """The image a record of ``txid`` for ``block`` may be a delta of."""
        if txid == self._stage_txid and block in self._stage_bases:
            return self._stage_bases[block]
        return self._bases.get(block)

    def append(self, rtype: int, txid: int, block: int, payload: bytes) -> int:
        """Stage one record of ``txid``'s transaction; returns its LSN.  It
        reaches the log when :meth:`commit_txid` seals the frame.

        A ``TYPE_DATA`` page image is logged as a ``TYPE_DELTA`` against the
        block's last sealed image (or this stage's own), or on first touch as a
        ``TYPE_HOME_DELTA`` against its home bytes, when that is smaller
        (module docstring, "Page deltas"); callers pass neither.  A record
        of another ``txid`` than the open stage's abandons that stage.
        """
        if rtype not in _KNOWN_TYPES or rtype in (TYPE_DELTA, TYPE_HOME_DELTA):
            raise JournalError(f"record type {rtype} cannot be appended")
        payload = image = bytes(payload)
        home = None
        if rtype == TYPE_DATA and self._base(txid, block) is None:
            # First touch: read the home before taking the mutex, which the
            # pool's forced syncs and the flusher wait on.  Appends are
            # serialized by the engine lock, and a page with no base is
            # clean, so nothing writes its home meanwhile.
            home = self._home_image(block)
        with self._mutex:
            if txid != self._stage_txid:
                self._close_stage()  # abandoned: nothing of it was sealed
            if rtype == TYPE_DATA:
                base = self._base(txid, block)
                if base is not None:
                    delta = encode_delta(base, image)
                    if len(delta) < len(image):
                        rtype, payload = TYPE_DELTA, delta
                elif home is not None:
                    delta = _CRC.pack(zlib.crc32(home)) + encode_delta(home, image)
                    if len(delta) < len(image):
                        rtype, payload = TYPE_HOME_DELTA, delta
            entry = _ENTRY.pack(rtype, block, len(payload))
            size = len(entry) + len(payload)
            opening = self._stage_txid is None
            self._require_capacity(size + (_FRAME.size if opening else 0))
            if opening:
                self._stage_txid = txid
                self._stage_lsn = self._next_lsn
                self._log += bytes(_FRAME.size)  # the header, written at seal
            lsn = self._take_lsn()
            self._log += entry
            self._log += payload
            if rtype == TYPE_REVOKE:
                self._stage_bases[block] = None
                self._reused.add(block)
            elif rtype != TYPE_META:
                self._stage_bases[block] = image
            self.records_appended += 1
            self._book(size, len(entry), records=1)
            return lsn

    def _book(self, size: int, framing: int, records: int = 0) -> None:
        """Count ``size`` appended bytes, ``framing`` of them headers, for
        the journal and the current operation."""
        self.bytes_appended += size
        self.framing_bytes += framing
        op = current_operation()
        if op is not None:
            op.wal_records += records
            op.wal_bytes += size

    def _close_stage(self) -> None:
        """Forget the open stage: what it staged past the last seal, and
        its images."""
        del self._log[self._sealed:]
        self._stage_txid, self._stage_bases = None, {}

    def commit_txid(self, txid: int, sync: bool = True) -> int:
        """Seal ``txid``'s stage into the log as one frame; optionally flush
        the log.  Returns the frame's last LSN: the transaction is durable
        once ``durable_lsn`` reaches it.

        With ``sync=True`` this is group commit: the single device write
        covers every frame sealed since the last flush, other transactions'
        included.  A transaction that staged nothing seals no frame.
        """
        with self._mutex:
            if txid == self._stage_txid:
                body = self._sealed + _FRAME.size
                length = len(self._log) - body
                with memoryview(self._log) as log:
                    crc = zlib.crc32(log[body:], _header_crc(self._stage_lsn, length))
                self._log[self._sealed:body] = _FRAME.pack(
                    _FRAME_MAGIC, self._stage_lsn, length, crc)
                self._sealed = len(self._log)
                self.sealed_lsn = self.last_lsn
                for block, image in self._stage_bases.items():
                    if image is None:
                        self._bases.pop(block, None)
                    else:
                        self._bases[block] = image
                self._close_stage()
                self.frames += 1
                self._book(_FRAME.size, _FRAME.size)
            self.commits += 1
            if sync:
                self.sync()
            return self.sealed_lsn

    def sync(self) -> int:
        """Flush sealed frames to the journal region; returns bytes written.

        After a successful sync every sealed frame is durable
        (``durable_lsn`` is the last sealed LSN); an open stage is not
        written.
        """
        with self._mutex:
            before = self.durable_lsn
            pending = self._sealed - self._flushed
            if pending > 0:
                # Raised before the write: a failed one may leave bytes behind.
                self._dirty_bytes = max(self._dirty_bytes, self._sealed)
                self._write_log_region(self._flushed, bytes(self._log[self._flushed:self._sealed]))
                self._flushed = self._sealed
                self.syncs += 1
                op = current_operation()
                if op is not None:
                    op.wal_syncs += 1
            self.durable_lsn = self.sealed_lsn
            durable = self.durable_lsn
        if durable != before:
            self._notify_durable(durable)
        return pending

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
        """The whole frames at the start of ``raw``.

        Returns ``(frames, end, last_lsn, ran_out)``: each frame as
        ``(first_lsn, records)``, the byte offset where they end, the last
        LSN they hold, and whether the parse stopped at the end of ``raw``
        rather than at a torn, corrupt or zeroed frame: more bytes might
        continue the log.  ``only_block`` keeps just the records of one
        block (the scrubber's question).  A region in the per-record format
        raises :class:`~repro.errors.JournalError`.
        """
        if raw[:len(_RECORD_MAGIC)] == _RECORD_MAGIC:
            raise JournalError(
                "journal region holds the per-record log format (a txid, LSN "
                "and CRC on every record, a COMMIT record per transaction), "
                "which this build does not replay: mount the image with the "
                "build that wrote it and checkpoint, then mount it here"
            )
        frames: List[Tuple[int, List[JournalRecord]]] = []
        position = last_lsn = 0
        with memoryview(raw) as view:
            while position + _FRAME.size <= len(raw):
                magic, first_lsn, length, crc = _FRAME.unpack_from(raw, position)
                if magic != _FRAME_MAGIC:
                    return frames, position, last_lsn, False
                body = position + _FRAME.size
                end = body + length
                if end > len(raw):
                    # torn, or the length field promises bytes a later read
                    # may still bring
                    return frames, position, last_lsn, True
                if zlib.crc32(view[body:end], _header_crc(first_lsn, length)) != crc:
                    return frames, position, last_lsn, False  # torn or bit-flipped
                records, lsn, at = [], first_lsn, body
                while at < end:
                    if at + _ENTRY.size > end:
                        raise JournalError(f"frame at LSN {first_lsn}: an entry overruns it")
                    rtype, block, size = _ENTRY.unpack_from(raw, at)
                    at += _ENTRY.size
                    if rtype not in _KNOWN_TYPES or at + size > end:
                        raise JournalError(
                            f"frame at LSN {first_lsn}: entry {lsn - first_lsn} "
                            f"of type {rtype} does not fit it"
                        )
                    if only_block is None or block == only_block:
                        records.append(JournalRecord(block=block, data=bytes(view[at:at + size]),
                                                     lsn=lsn, rtype=rtype))
                    at += size
                    lsn += 1
                frames.append((first_lsn, records))
                last_lsn = max(last_lsn, lsn - 1)
                position = end
        return frames, position, last_lsn, True

    def _scan_region(self) -> Tuple[List[Tuple[int, List[JournalRecord]]], bytes, int]:
        """Parse the on-device journal: ``(frames, log, last_lsn)``, where
        ``log`` is the bytes of those frames.

        Parsing stops cleanly at the first torn, corrupt or zeroed frame —
        the journal tail left by a crash.  The region is read in runs of 1,
        2, 4, ... blocks, each block once, until a run holds that stopping
        point.
        """
        block_size = self.device.block_size
        raw = bytearray()
        run = 1
        while True:
            read = len(raw) // block_size
            run = min(run, self.journal_blocks - read)
            raw += self.device.read_blocks(self.journal_start + read, run)
            frames, end, last_lsn, ran_out = self._parse(raw)
            if not ran_out or len(raw) == self.capacity_bytes:
                return frames, bytes(raw[:end]), last_lsn
            run *= 2

    def scan(self) -> List[Tuple[int, List[JournalRecord]]]:
        """Parse the on-device journal: each committed transaction (whole
        frame) as ``(first_lsn, records)``, in log order."""
        return self._scan_region()[0]

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
        pages = [r for _first, records in committed for r in records
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
        interpret.  The in-memory log becomes the bytes of the replayed
        frames, so new commits go after them and it matches the device; the
        LSN generator is advanced past them, and the delta bases are
        dropped: the next record for any block starts from its home again.
        """
        committed, log, last_lsn = self._scan_region()
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
        self._next_lsn = max(self._next_lsn, last_lsn + 1)
        self.last_lsn = self._next_lsn - 1
        self._restart(log)
        # Past the scan's stopping point the region may hold a torn
        # truncation's leftovers: the next checkpoint zeroes all of it.
        self._dirty_bytes = self.capacity_bytes
        return committed

    def _restart(self, log: bytes) -> None:
        """Make ``log``, durable on the device, the whole in-memory log:
        no stage, no delta bases, every LSN so far durable."""
        self._log = bytearray(log)
        self._sealed = self._flushed = len(log)
        self._close_stage()
        self._bases.clear()
        self._reused.clear()
        self.sealed_lsn = self.durable_lsn = self.last_lsn

    # -- integrity helpers ----------------------------------------------------

    def latest_page_image(self, block: int) -> Optional[bytes]:
        """The newest committed, durable, non-revoked image logged for ``block``.

        The scrubber's WAL repair source: if a home location rots after its
        page was logged but before the next checkpoint truncates the log,
        this image is byte-exact what a healthy write-back would have put
        there.  Only the *flushed* prefix of the in-memory mirror is
        consulted — rewriting a home location from a buffered (not yet
        durable) frame would break the WAL rule.  The image is rebuilt by the
        same fold as replay (full image or home, then deltas; a committed
        revoke kills every older record), so a chain that starts from a home
        which has since rotted yields None, never a wrong image.
        """
        with self._mutex:
            raw = bytes(self._log[:self._flushed])
        committed, _end, _last_lsn, _ran_out = self._parse(raw, only_block=block)
        try:
            images, _revoked, _unresolved = self._fold_pages(committed)
        except DeviceError:
            return None  # the home an image would be folded from is unreadable
        return images.get(block)

    def verify_device_region(self) -> dict:
        """Compare the on-device journal against the in-memory mirror.

        The in-memory log mirrors the flushed on-device log byte for byte
        between checkpoints, so any divergence in that prefix is silent
        corruption of the journal region (bit rot, a misdirected write) —
        exactly the blind spot a structural re-scan cannot see, because a
        flipped bit simply truncates the scan at a "torn" frame.  Returns a
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
        stale frame.  An open stage is abandoned.  (Callers persist their
        checkpoint state *before* truncating; see RecoveryManager.)
        """
        with self._mutex:
            before = self.durable_lsn
            dirty_blocks = -(-self._dirty_bytes // self.device.block_size)
            if dirty_blocks:
                self.device.write_blocks(self.journal_start, b"", nblocks=dirty_blocks)
            self._dirty_bytes = 0
            self._restart(b"")
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
        """Bytes of journal space consumed since the last checkpoint, the
        open stage's included."""
        return len(self._log)

    @property
    def bytes_unflushed(self) -> int:
        """Sealed bytes not yet durable (waiting on the next sync)."""
        return self._sealed - self._flushed

    @property
    def capacity_bytes(self) -> int:
        return self.journal_blocks * self.device.block_size
