"""Key/value index store for simple attribute tags.

"A key/value store suffices for simple attributes" (Section 3.2).  This store
serves USER, UDEF, APP and, as the registry's fallback, every tag no other
store claims: each ``(tag, value)`` pair maps to a set of object ids.  Entries live in a B+-tree so the
store can be backed by the device like every other index, and so lookups are
prefix scans rather than hash probes (giving us ``values_for`` and
``enumerate_values`` for free).

Key layout::

    F \x00 tag \x00 value \x00 oid(8B)   -> b""        (forward entries)
    R \x00 oid(8B) \x00 tag \x00 value   -> b""        (reverse entries)

The reverse entries make ``remove_object`` and ``values_for`` cheap, which
matters because every object deletion must scrub its names from every index.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence

from repro.btree import BPlusTree, PageStore
from repro.errors import IndexStoreError
from repro.index.store import IndexStore
from repro.index.tags import TAG_APP, TAG_UDEF, TAG_USER, TagValue, normalize_tag
from repro.query.cursors import DocIdCursor, ScanCounter

_OID = struct.Struct(">Q")
_MAX_OID = (1 << 64) - 1
_SEP = b"\x00"
_FORWARD = b"F"
_REVERSE = b"R"


def _encode_text(text: str) -> bytes:
    encoded = text.encode("utf-8")
    if _SEP in encoded:
        raise IndexStoreError("tag/value strings may not contain NUL bytes")
    return encoded


class PrefixOidCursor(DocIdCursor):
    """Streams the oids of one key-prefix range straight off a B+-tree.

    Works for any key layout whose keys end in the big-endian oid (this
    store's ``F\\0tag\\0value\\0<oid>`` entries): key order *is* ascending oid
    order, so no sort or materialization is needed.  ``seek`` maps an oid
    target onto a tree re-descent (O(log n)), which is what lets leapfrog
    intersections skip most of a huge tag's entries.
    """

    def __init__(self, tree, prefix: bytes, cardinality, counter: ScanCounter) -> None:
        self._cursor = tree.cursor(prefix=prefix)
        self._prefix = prefix
        self._cardinality = cardinality
        self._counter = counter
        self._estimate: Optional[int] = None
        self._floor = 0
        self._done = False

    def _accept(self, item) -> Optional[int]:
        if item is None:
            self._done = True
            return None
        key, _value = item
        oid = _OID.unpack(key[len(self._prefix):])[0]
        self._floor = oid + 1
        self._counter.scanned += 1
        return oid

    def next(self) -> Optional[int]:
        if self._done:
            return None
        return self._accept(self._cursor.next_item())

    def seek(self, target: int) -> Optional[int]:
        if self._done:
            return None
        target = max(target, self._floor)
        if target > _MAX_OID:
            self._done = True
            return None
        self._counter.seeks += 1
        return self._accept(self._cursor.seek(self._prefix + _OID.pack(target)))

    def estimate(self) -> int:
        if self._estimate is None:
            self._estimate = self._cardinality()
        return self._estimate


class KeyValueIndexStore(IndexStore):
    """Attribute index: ``(tag, value) → {oid}`` over a B+-tree."""

    name = "keyvalue"

    #: tags served when the caller registers the store without overriding.
    DEFAULT_TAGS = (TAG_USER, TAG_UDEF, TAG_APP)

    def __init__(
        self,
        tags: Optional[Sequence[str]] = None,
        store: Optional[PageStore] = None,
        max_keys: int = 64,
    ) -> None:
        chosen = self.DEFAULT_TAGS if tags is None else tags
        self._tags = tuple(normalize_tag(tag) for tag in chosen)
        self._tree = BPlusTree(store=store, max_keys=max_keys)
        #: entries touched by lookups and streaming cursors (for benchmarks).
        self.scan_stats = ScanCounter()

    def tags(self) -> Sequence[str]:
        return self._tags

    # -------------------------------------------------------------- keys

    def _forward_key(self, tag: str, value: str, oid: int) -> bytes:
        return _FORWARD + _SEP + _encode_text(tag) + _SEP + _encode_text(value) + _SEP + _OID.pack(oid)

    def _forward_prefix(self, tag: str, value: str) -> bytes:
        return _FORWARD + _SEP + _encode_text(tag) + _SEP + _encode_text(value) + _SEP

    def _reverse_key(self, oid: int, tag: str, value: str) -> bytes:
        return _REVERSE + _SEP + _OID.pack(oid) + _SEP + _encode_text(tag) + _SEP + _encode_text(value)

    def _reverse_prefix(self, oid: int) -> bytes:
        return _REVERSE + _SEP + _OID.pack(oid) + _SEP

    # --------------------------------------------------------- interface

    def insert(self, tag: str, value: str, oid: int) -> None:
        tag = normalize_tag(tag)
        self._tree.put(self._forward_key(tag, value, oid), b"")
        self._tree.put(self._reverse_key(oid, tag, value), b"")

    def remove(self, tag: str, value: str, oid: int) -> bool:
        tag = normalize_tag(tag)
        forward = self._forward_key(tag, value, oid)
        if self._tree.get(forward) is None:
            return False
        self._tree.delete(forward)
        self._tree.delete(self._reverse_key(oid, tag, value))
        return True

    def lookup(self, tag: str, value: str) -> List[int]:
        tag = normalize_tag(tag)
        prefix = self._forward_prefix(tag, value)
        # Keys end in the big-endian oid, so prefix order is ascending oid
        # order already — no sort needed.
        oids = [
            _OID.unpack(key[len(prefix):])[0]
            for key, _ in self._tree.cursor(prefix=prefix)
        ]
        self.scan_stats.scanned += len(oids)
        return oids

    def open_cursor(self, tag: str, value: str) -> DocIdCursor:
        """Stream matches straight from the B+-tree prefix range."""
        tag = normalize_tag(tag)
        prefix = self._forward_prefix(tag, value)
        return PrefixOidCursor(
            self._tree,
            prefix,
            cardinality=lambda: self.cardinality(tag, value),
            counter=self.scan_stats,
        )

    def remove_object(self, oid: int) -> int:
        pairs = self.values_for(oid)
        for pair in pairs:
            self.remove(pair.tag, pair.value, oid)
        return len(pairs)

    def values_for(self, oid: int) -> List[TagValue]:
        prefix = self._reverse_prefix(oid)
        result: List[TagValue] = []
        for key, _ in self._tree.cursor(prefix=prefix):
            remainder = key[len(prefix):]
            tag_bytes, value_bytes = remainder.split(_SEP, 1)
            result.append(TagValue(tag=tag_bytes.decode("utf-8"), value=value_bytes.decode("utf-8")))
        return result

    # ------------------------------------------------------------ extras

    def enumerate_values(self, tag: str) -> List[str]:
        """Every distinct value stored under ``tag`` (sorted)."""
        tag = normalize_tag(tag)
        prefix = _FORWARD + _SEP + _encode_text(tag) + _SEP
        values = set()
        for key, _ in self._tree.cursor(prefix=prefix):
            remainder = key[len(prefix):]
            # remainder is "<value> \x00 <oid:8 bytes>"; the oid may itself
            # contain NUL bytes, so strip a fixed-width suffix instead of
            # splitting on the separator.
            value_bytes = remainder[:-(_OID.size + 1)]
            values.add(value_bytes.decode("utf-8"))
        return sorted(values)

    def holds(self, tag: str) -> bool:
        """Whether any object is named under ``tag`` here."""
        prefix = _FORWARD + _SEP + _encode_text(normalize_tag(tag)) + _SEP
        return next(iter(self._tree.cursor(prefix=prefix)), None) is not None

    def cardinality(self, tag: str, value: str) -> int:
        """Number of objects named by ``(tag, value)`` — used by the planner.

        Counts keys without decoding them (and without charging the scan
        counter: estimating is not scanning).
        """
        tag = normalize_tag(tag)
        prefix = self._forward_prefix(tag, value)
        return sum(1 for _ in self._tree.cursor(prefix=prefix))

    @property
    def entry_count(self) -> int:
        """Total forward entries (one per naming association)."""
        return sum(1 for _ in self._tree.cursor(prefix=_FORWARD + _SEP))
