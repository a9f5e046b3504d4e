"""The on-device superblock: the root of the mountable hFAD format.

hFAD keeps *all* naming state in btrees on the object store (paper Section
3.4), so a remount must be able to find those trees from device bytes alone.
The superblock is the fixed-location record that makes that possible:

* device geometry of the durability layer (journal location and size, the
  reserved metadata prefix data allocations must avoid);
* the master-btree root page and the next object id — the two pieces of
  logical state that cannot be rediscovered by walking (everything else is
  reachable from the master tree: metadata records, name entries and every
  object's extent map are key ranges of it, data chunks named by extents);
* the page geometry stamp (``page_blocks``): a btree page is
  :data:`~repro.btree.pages.PAGE_BYTES` whatever the device's block size,
  and an image stamped with any other page size is refused;
* the layout stamps of the trees' contents (``osd_format``,
  ``fulltext_format``), each refused when it is not the one layout served.

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
    #: root pages of the persistent full-text / image index btrees; ``0``
    #: means the device carries none and is refused at mount.
    fulltext_root: int = 0
    image_root: int = 0
    #: page-format version stamp: ``1`` means every btree page is wrapped
    #: in a CRC32 checksum frame (:mod:`repro.integrity.checksum`) — the
    #: only page format; any other value is refused at mount.
    checksum_pages: int = 1
    #: full-text tree layout stamp: ``3`` is posting blocks (``T`` blocks,
    #: ``L`` lengths, positions in ``D``) with the durable posting backlog
    #: (``P`` / ``R`` records; :mod:`repro.fulltext.persistent_index`) — the
    #: only layout; any other value is refused at mount.
    fulltext_format: int = 3
    #: master tree layout stamp: ``2`` keeps every object's extents in the
    #: master tree (``\xffE | oid | D | offset`` keys;
    #: :mod:`repro.osd.object_store`), not in an extent tree per object —
    #: the only layout; any other value is refused at mount.
    osd_format: int = 2

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
                "with btree_on_device=True?)"
            )
        payload = raw[_PREFIX.size:_PREFIX.size + length]
        if len(payload) < length or (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            raise RecoveryError("superblock checksum mismatch (torn write?)")
        stored = json.loads(payload.decode("utf-8"))
        expected = {f.name for f in fields(cls)}
        found = set(stored) if isinstance(stored, dict) else set()
        if found != expected:
            raise RecoveryError(
                "superblock written by another format version: "
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
        if self.fulltext_format != 3:
            raise RecoveryError(
                f"unsupported on-device format: superblock fulltext_format="
                f"{self.fulltext_format}, but only posting-block full-text "
                "trees with a posting backlog (fulltext_format=3) are mountable"
            )
        if self.osd_format != 2:
            raise RecoveryError(
                f"unsupported on-device format: superblock osd_format="
                f"{self.osd_format}, but only extent maps kept in the master "
                "tree (osd_format=2) are mountable"
            )
        for name in ("fulltext_root", "image_root"):
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
