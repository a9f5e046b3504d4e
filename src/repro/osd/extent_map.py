"""The per-object extent map: logical byte offset → stored extent.

This is the structure the paper describes in Section 3.4: each object is a
btree "whose keys are file offsets and whose data items are the disk
addresses and lengths corresponding to those offsets".  An object's map is
a key range of a shared tree (the OSD's master tree) rather than a tree of
its own, so an object with one extent costs one entry, not one page.
Nothing in that map requires a value to be a device address: an extent
names either a *chunk* of device blocks (written once, unlogged, with the
CRC32 of its bytes as written) or an *entry* of the OSD's content tree (a
small write's bytes, in CRC-framed, WAL-logged tree pages; the btrfs inline
extent).  Because the map is keyed by offset:

* reads walk only the extents overlapping the requested range;
* ``insert`` and ``remove_range`` (truncate-from-the-middle) become *key*
  manipulations — split one extent, re-key the extents to the right — with no
  copying of object data, which is exactly the "little implementation effort"
  claim the E3 experiment quantifies.

Extents may begin mid-chunk or mid-entry (``skip`` bytes in) so that
splitting an extent at an arbitrary byte never copies data; a slice keeps
the chunk's CRC, which covers the whole chunk.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Iterator, List, Tuple

from repro.btree import BPlusTree
from repro.errors import InvalidRangeError

_KEY_PREFIX = b"D"
_KEY_END = b"E"
_OFFSET = struct.Struct(">Q")
#: an extent value's first byte says what it names.
_CHUNK_TAG = b"B"
_ENTRY_TAG = b"T"
_CHUNK = struct.Struct(">QIIQII")  # block, nblocks, skip, length, size, crc
_ENTRY = struct.Struct(">QII")     # content key, skip, length


@dataclass(frozen=True)
class ObjectExtent:
    """A run of object bytes stored contiguously: in a chunk or an entry.

    A chunk extent's bytes are device bytes
    ``[block * block_size + skip, block * block_size + skip + length)`` of a
    chunk of ``nblocks`` blocks, written once with ``size`` bytes whose
    CRC32 is ``crc``.  An entry extent (``in_tree``, built by :meth:`entry`)
    is bytes ``[skip, skip + length)`` of the content-tree entry keyed by
    ``block``; it has no blocks, size or CRC of its own (the tree's page
    frames check it).
    """

    block: int
    nblocks: int
    skip: int
    length: int
    size: int = 0
    crc: int = 0
    in_tree: bool = False

    def __post_init__(self) -> None:
        if self.block < 0 or (self.nblocks != 0 if self.in_tree else self.nblocks <= 0):
            raise InvalidRangeError("extent block/nblocks invalid")
        if self.skip < 0 or self.length < 0:
            raise InvalidRangeError("extent skip/length must be non-negative")

    @classmethod
    def entry(cls, key: int, length: int) -> "ObjectExtent":
        """The whole content-tree entry ``key`` of ``length`` bytes."""
        return cls(block=key, nblocks=0, skip=0, length=length, in_tree=True)

    @property
    def source(self) -> tuple:
        """What the extent's bytes live in: extents with equal sources share
        one chunk or one entry, which is freed when the last of them goes."""
        return self.in_tree, self.block

    @property
    def whole_chunk(self) -> bool:
        """A chunk extent naming every byte its chunk was written with."""
        return not self.in_tree and self.skip == 0 and self.length == self.size

    @staticmethod
    def names_entry(data: bytes) -> bool:
        """Whether an encoded value names a content-tree entry (no decode)."""
        return data[:1] == _ENTRY_TAG

    def encode(self) -> bytes:
        if self.in_tree:
            return _ENTRY_TAG + _ENTRY.pack(self.block, self.skip, self.length)
        return _CHUNK_TAG + _CHUNK.pack(self.block, self.nblocks, self.skip,
                                        self.length, self.size, self.crc)

    @classmethod
    def decode(cls, data: bytes) -> "ObjectExtent":
        if data[:1] == _ENTRY_TAG:
            key, skip, length = _ENTRY.unpack_from(data, 1)
            return cls(block=key, nblocks=0, skip=skip, length=length, in_tree=True)
        block, nblocks, skip, length, size, crc = _CHUNK.unpack_from(data, 1)
        return cls(block=block, nblocks=nblocks, skip=skip, length=length,
                   size=size, crc=crc)

    def slice(self, start: int, length: int) -> "ObjectExtent":
        """Return the sub-extent covering ``[start, start+length)`` of this one."""
        if start < 0 or length < 0 or start + length > self.length:
            raise InvalidRangeError("slice outside extent")
        return replace(self, skip=self.skip + start, length=length)


class ExtentMap:
    """Offset-keyed view over one object's extents, stored in a B+-tree.

    Every key is ``prefix + b"D" + offset``: the tree may hold other entries
    and other objects' maps, and ``prefix`` (the object's key prefix in the
    shared tree) keeps each map's keys one contiguous run.
    """

    def __init__(self, tree: BPlusTree, prefix: bytes = b"") -> None:
        self._tree = tree
        self._prefix = prefix + _KEY_PREFIX
        #: first key past every offset (``D`` + 1).
        self._end = prefix + _KEY_END

    def _encode_key(self, offset: int) -> bytes:
        return self._prefix + _OFFSET.pack(offset)

    # ------------------------------------------------------------- queries

    def extents(self) -> Iterator[Tuple[int, ObjectExtent]]:
        """All ``(logical_offset, extent)`` pairs in offset order.

        The scan starts at offset zero's key, not at the bare prefix: when a
        run begins a leaf, the separator in front of it is usually that key,
        and a descent for the prefix (which sorts before it) would read the
        neighbouring leaf first.
        """
        start = len(self._prefix)
        for key, value in self._tree.cursor(start=self._encode_key(0), end=self._end):
            yield _OFFSET.unpack_from(key, start)[0], ObjectExtent.decode(value)

    def extent_count(self) -> int:
        return sum(1 for _ in self.extents())

    def extents_in_range(self, start: int, end: int) -> List[Tuple[int, ObjectExtent]]:
        """Extents overlapping ``[start, end)``, in offset order."""
        if start < 0 or end < start:
            raise InvalidRangeError(f"bad range [{start}, {end})")
        result: List[Tuple[int, ObjectExtent]] = []
        for offset, extent in self.extents():
            if offset >= end:
                break
            if offset + extent.length > start:
                result.append((offset, extent))
        return result

    def mapped_bytes(self) -> int:
        """Total bytes covered by extents (excludes holes)."""
        return sum(extent.length for _offset, extent in self.extents())

    def end_offset(self) -> int:
        """One past the last mapped byte (0 for an empty map)."""
        last = 0
        for offset, extent in self.extents():
            last = max(last, offset + extent.length)
        return last

    # ------------------------------------------------------------ mutation

    def insert_extent(self, offset: int, extent: ObjectExtent) -> None:
        """Map ``[offset, offset + extent.length)`` to ``extent``.

        The caller must have cleared the range first (see :meth:`punch`); the
        map never checks for overlaps on the fast path.
        """
        if offset < 0:
            raise InvalidRangeError("offset must be non-negative")
        if extent.length == 0:
            return
        self._tree.put(self._encode_key(offset), extent.encode())

    def remove_extent(self, offset: int) -> None:
        self._tree.delete(self._encode_key(offset))

    def punch(self, start: int, end: int) -> List[ObjectExtent]:
        """Unmap ``[start, end)``, splitting boundary extents as needed.

        Returns the extents it removed whole.  Their chunks and entries are
        not freed here: another extent of the map may still name the same
        one (see ``ObjectStore._free_unnamed``).
        """
        if start < 0 or end < start:
            raise InvalidRangeError(f"bad range [{start}, {end})")
        removed: List[ObjectExtent] = []
        if start == end:
            return removed
        for offset, extent in self.extents_in_range(start, end):
            extent_end = offset + extent.length
            self.remove_extent(offset)
            if offset < start:
                # Keep the head portion [offset, start).
                self.insert_extent(offset, extent.slice(0, start - offset))
            if extent_end > end:
                # Keep the tail portion [end, extent_end).
                self.insert_extent(end, extent.slice(end - offset, extent_end - end))
            if offset >= start and extent_end <= end:
                removed.append(extent)
        return removed

    def split_at(self, offset: int) -> None:
        """Ensure no extent spans ``offset`` (splitting one if necessary)."""
        if offset < 0:
            raise InvalidRangeError("offset must be non-negative")
        for extent_offset, extent in self.extents_in_range(max(0, offset - 1), offset + 1):
            if extent_offset < offset < extent_offset + extent.length:
                self.remove_extent(extent_offset)
                self.insert_extent(extent_offset, extent.slice(0, offset - extent_offset))
                self.insert_extent(
                    offset, extent.slice(offset - extent_offset, extent_offset + extent.length - offset)
                )
                return
        # Nothing spans the offset: the range is already aligned on an extent
        # boundary (or falls in a hole) and there is nothing to split.

    def shift(self, from_offset: int, delta: int) -> int:
        """Re-key every extent at or beyond ``from_offset`` by ``delta`` bytes.

        Returns the number of extents moved.  ``delta`` may be negative; the
        caller is responsible for having cleared the destination range.
        This is the metadata-only "make room / close the gap" step behind
        ``insert`` and ``remove_range``.
        """
        if delta == 0:
            return 0
        moved: List[Tuple[int, ObjectExtent]] = []
        for offset, extent in self.extents():
            if offset >= from_offset:
                moved.append((offset, extent))
        if not moved:
            return 0
        if delta < 0 and moved[0][0] + delta < 0:
            raise InvalidRangeError("shift would move an extent below offset zero")
        # Delete then reinsert in an order that can never collide with keys
        # that are still present.
        if delta > 0:
            ordered = list(reversed(moved))
        else:
            ordered = moved
        for offset, _extent in ordered:
            self.remove_extent(offset)
        for offset, extent in ordered:
            self.insert_extent(offset + delta, extent)
        return len(moved)

    def clear(self) -> List[ObjectExtent]:
        """Remove every extent, returning them (so the store can free blocks)."""
        removed = list(self.extents())
        for offset, _extent in removed:
            self.remove_extent(offset)
        return [extent for _offset, extent in removed]

    # --------------------------------------------------------- invariants

    def check_invariants(self) -> None:
        """Extents must be sorted, non-overlapping and non-empty."""
        previous_end = -1
        previous_offset = -1
        for offset, extent in self.extents():
            assert extent.length > 0, "zero-length extent stored"
            assert offset > previous_offset, "extent keys out of order"
            assert offset >= previous_end, (
                f"extent at {offset} overlaps previous ending at {previous_end}"
            )
            previous_offset = offset
            previous_end = offset + extent.length
