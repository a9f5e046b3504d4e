"""The on-device superblock: the root of the mountable hFAD format.

hFAD keeps *all* naming state in btrees on the object store (paper Section
3.4), so a remount must be able to find those trees from device bytes alone.
The superblock is the fixed-location record that makes that possible:

* device geometry of the durability layer (journal location and size, the
  reserved metadata prefix data allocations must avoid);
* the master-btree root page and the next object id — the two pieces of
  logical state that cannot be rediscovered by walking (everything else is
  reachable from the master tree: metadata records, name entries and every
  object's extent map are key ranges of it, data chunks and content-tree
  entries named by extents) — and the roots of the other trees;
* the page geometry stamp (``page_blocks``): a btree page is
  :data:`~repro.storage.block_device.PAGE_BYTES` whatever the device's
  block size, and an image stamped with any other page size is refused;
* the layout stamps of the trees' contents (``osd_format``,
  ``fulltext_format``), each refused when it is not the one layout served
  (:data:`OSD_FORMAT`, :data:`FULLTEXT_FORMAT`).

This module is also the one place that knows which on-device formats are
mountable: :meth:`Superblock.from_bytes` rejects a field set it does not
recognise and :meth:`Superblock.require_mountable` refuses a format this
code does not serve.

It is written only at **checkpoints**, never in the hot path: between
checkpoints the recovery manager logs superblock-relevant changes as logical
``META`` records in the WAL, and mount-time replay folds them back in.  A
torn superblock write is detected by the CRC and fails the mount loudly
rather than silently opening a corrupt namespace.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict, dataclass, fields

from repro.btree.pages import PAGE_BYTES
from repro.errors import RecoveryError
from repro.storage.block_device import BlockDevice

#: fixed device block where the superblock lives.
SUPERBLOCK_BLOCK = 0

_MAGIC = b"HFADSB01"
_PREFIX = struct.Struct(">8sII")  # magic | payload length | crc32(payload)

#: the one full-text tree layout served: posting blocks of 5-byte
#: ``slot · tf`` rows (the key carries the rest of the oid), 16-byte term
#: statistics, ``L`` lengths, a term's positions in ``D`` as u16 when all
#: are below 2 ** 16 (a flag bit in its position count says u32), a
#: document's tfs in ``P`` as u16 when it has fewer than 2 ** 16 tokens, and
#: the durable posting backlog (``P`` /
#: ``R`` records; :mod:`repro.fulltext.persistent_index`), its terms stemmed
#: keeping a final ``ss``.  4 stemmed ``glass`` to ``glas``; 3 was 12-byte
#: ``oid · tf`` rows, 24-byte statistics and u32 positions and tfs.
FULLTEXT_FORMAT = 5
#: the one master tree layout served: every object's extents in the master
#: tree (``\xffE | oid | D | offset`` keys; :mod:`repro.osd.object_store`),
#: not in an extent tree per object, each value tagged as a CRC-carrying
#: chunk or a content-tree entry (:mod:`repro.osd.extent_map`), every name in
#: one encoding, ``TAG/value`` under ``\xffN | oid`` (a path is
#: ``POSIX//a/b``), and every btree node's entries with u16 length prefixes
#: (:mod:`repro.btree.node`).  4 had u32 prefixes.
OSD_FORMAT = 5


@dataclass
class Superblock:
    """Checkpoint image of the filesystem's logical roots."""

    journal_start: int
    journal_blocks: int
    #: blocks [0, data_region_start) are metadata (superblock + journal) and
    #: are reserved out of the data allocator at mkfs/mount time.
    data_region_start: int
    master_root: int
    next_oid: int
    #: page-geometry stamp: device blocks per btree page.  Times the device's
    #: block size it must come to ``PAGE_BYTES``, the only page size.
    page_blocks: int
    #: monotonically increasing checkpoint counter (diagnostics).
    checkpoint_seq: int = 0
    #: root pages of the persistent full-text / image index btrees and of
    #: the OSD's content tree; ``0`` means the device carries none and is
    #: refused at mount.
    fulltext_root: int = 0
    image_root: int = 0
    content_root: int = 0
    #: page-format version stamp: ``1`` means every btree page is wrapped
    #: in a CRC32 checksum frame (:mod:`repro.integrity.checksum`) — the
    #: only page format; any other value is refused at mount.
    checksum_pages: int = 1
    #: full-text tree layout stamp: :data:`FULLTEXT_FORMAT` is the only
    #: layout; any other value is refused at mount.
    fulltext_format: int = FULLTEXT_FORMAT
    #: master tree and node layout stamp: :data:`OSD_FORMAT` is the only
    #: layout; any other value is refused at mount.
    osd_format: int = OSD_FORMAT

    # -- serialization --------------------------------------------------------

    def to_bytes(self) -> bytes:
        payload = json.dumps(asdict(self), sort_keys=True).encode("utf-8")
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        return _PREFIX.pack(_MAGIC, len(payload), crc) + payload

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Superblock":
        if len(raw) < _PREFIX.size:
            raise RecoveryError("superblock truncated")
        magic, length, crc = _PREFIX.unpack_from(raw, 0)
        if magic != _MAGIC:
            raise RecoveryError(
                "no hFAD superblock on this device (was it ever formatted "
                "by an HFADFileSystem?)"
            )
        payload = raw[_PREFIX.size:_PREFIX.size + length]
        if len(payload) < length or (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            raise RecoveryError("superblock checksum mismatch (torn write?)")
        stored = json.loads(payload.decode("utf-8"))
        expected = {f.name for f in fields(cls)}
        found = set(stored) if isinstance(stored, dict) else set()
        if found != expected:
            stamp = stored.get("osd_format") if isinstance(stored, dict) else None
            raise RecoveryError(
                f"superblock written by another format version (osd_format="
                f"{stamp}): "
                f"unknown fields {sorted(found - expected)}, "
                f"missing fields {sorted(expected - found)}"
            )
        return cls(**stored)

    def require_mountable(self, block_size: int) -> None:
        """Refuse a format this code does not serve, naming the field.

        Mounts ask before journal replay writes a single home block, so a
        refused device is left byte-identical.  ``block_size`` is the
        device's, which the superblock does not record.
        """
        if self.page_blocks * block_size != PAGE_BYTES:
            raise RecoveryError(
                f"unsupported on-device format: superblock page_blocks="
                f"{self.page_blocks} on {block_size}-byte blocks is a "
                f"{self.page_blocks * block_size}-byte btree page, but only "
                f"{PAGE_BYTES}-byte pages are mountable"
            )
        if self.checksum_pages != 1:
            raise RecoveryError(
                f"unsupported on-device format: superblock checksum_pages="
                f"{self.checksum_pages}, but only CRC-framed btree pages "
                "(checksum_pages=1) are mountable"
            )
        if self.fulltext_format != FULLTEXT_FORMAT:
            raise RecoveryError(
                f"unsupported on-device format: superblock fulltext_format="
                f"{self.fulltext_format}, but only full-text trees of slot-keyed "
                "posting rows with a posting backlog, their stems keeping a final "
                f"'ss' (fulltext_format={FULLTEXT_FORMAT}), are mountable"
            )
        if self.osd_format != OSD_FORMAT:
            raise RecoveryError(
                f"unsupported on-device format: superblock osd_format="
                f"{self.osd_format}, but only extent maps kept in the master "
                "tree, naming CRC-carrying chunks or content-tree entries, "
                "with names spelled TAG/value, in btree nodes of u16 entry "
                f"lengths (osd_format={OSD_FORMAT}) are mountable"
            )
        for name in ("fulltext_root", "image_root", "content_root"):
            if not getattr(self, name):
                raise RecoveryError(
                    f"unsupported on-device format: superblock {name}=0, but "
                    "only devices carrying their persistent index trees are "
                    "mountable"
                )

    # -- device I/O -----------------------------------------------------------

    def store(self, device: BlockDevice, block: int = SUPERBLOCK_BLOCK) -> None:
        encoded = self.to_bytes()
        if len(encoded) > device.block_size:
            raise RecoveryError("superblock does not fit in one device block")
        device.write_block(block, encoded)

    @classmethod
    def load(cls, device: BlockDevice, block: int = SUPERBLOCK_BLOCK) -> "Superblock":
        return cls.from_bytes(device.read_block(block))
