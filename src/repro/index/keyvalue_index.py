"""Key/value index store for simple attribute tags.

"A key/value store suffices for simple attributes" (Section 3.2).  This store
serves USER, UDEF, APP, in the facade POSIX paths too ("simply one name
among many", Section 3.1.1), and, as the registry's fallback, every tag no
other store claims: each ``(tag, value)`` pair maps to a set of object ids.  Entries live in a B+-tree so the
store can be backed by the device like every other index, and so lookups are
prefix scans rather than hash probes (giving us ``values_for``, ``scan``
and ``enumerate_values`` for free).

Key layout::

    F \x00 tag \x00 value \x00 oid(8B)   -> b""        (forward entries)
    R \x00 oid(8B) \x00 tag \x00 value   -> b""        (reverse entries)

The reverse entries make ``remove_object`` and ``values_for`` cheap, which
matters because every object deletion must scrub its names from every index.
``_entry_keys`` is the one encoder of that layout: ``insert`` and ``remove``
use it one name at a time, and ``load`` — how a mount fills the facade's
store — for every name at once, sorting the keys and building the tree
bottom up (``BPlusTree.bulk_load``) instead of inserting them one by one.
"""

from __future__ import annotations

import struct
from itertools import repeat
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

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


def _entry_keys(tag: bytes, value: bytes, oid: int) -> Tuple[bytes, bytes]:
    """The forward and the reverse key of one ``(tag, value, oid)`` entry."""
    packed = _OID.pack(oid)
    return (b"%s\0%s\0%s\0%s" % (_FORWARD, tag, value, packed),
            b"%s\0%s\0%s\0%s" % (_REVERSE, packed, tag, value))


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

    def _forward_prefix(self, tag: str, value: str) -> bytes:
        return _FORWARD + _SEP + _encode_text(tag) + _SEP + _encode_text(value) + _SEP

    def _reverse_prefix(self, oid: int) -> bytes:
        return _REVERSE + _SEP + _OID.pack(oid) + _SEP

    # --------------------------------------------------------- interface

    def insert(self, tag: str, value: str, oid: int) -> None:
        forward, reverse = _entry_keys(
            _encode_text(normalize_tag(tag)), _encode_text(value), oid)
        self._tree.put(forward, b"")
        self._tree.put(reverse, b"")

    def remove(self, tag: str, value: str, oid: int) -> bool:
        forward, reverse = _entry_keys(
            _encode_text(normalize_tag(tag)), _encode_text(value), oid)
        if self._tree.get(forward) is None:
            return False
        self._tree.delete(forward)
        self._tree.delete(reverse)
        return True

    def load(self, names: Mapping[bytes, Sequence[Tuple[bytes, int]]]) -> int:
        """Fill an empty store from ``{tag: [(value, oid), ...]}``, tags
        canonical and every string UTF-8 bytes, in one bottom-up build of
        the tree rather than one insert per name; returns how many loaded.

        Every entry's keys are built, sorted once and handed to
        :meth:`~repro.btree.BPlusTree.bulk_load`, which refuses a non-empty
        store and a repeated name.
        """
        keys: List[bytes] = []
        for tag, entries in names.items():
            if _SEP in tag or _SEP in b"".join(value for value, _oid in entries):
                raise IndexStoreError("tag/value strings may not contain NUL bytes")
            for value, oid in entries:
                keys += _entry_keys(tag, value, oid)
        keys.sort()
        self._tree.bulk_load(zip(keys, repeat(b"")))
        return len(keys) // 2

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

    def scan(self, tag: str, value_prefix: str = "") -> Iterator[Tuple[str, int]]:
        """Stream ``(value, oid)`` for every value under ``tag`` that starts
        with ``value_prefix``, in key order: by value, a value before every
        longer one it prefixes, then by oid.

        Charges no scan counter: listings and bookkeeping are not query work.
        """
        prefix = _FORWARD + _SEP + _encode_text(normalize_tag(tag)) + _SEP
        for key, _ in self._tree.cursor(prefix=prefix + _encode_text(value_prefix)):
            # The remainder is "<value> \x00 <oid:8 bytes>"; the oid may itself
            # contain NUL bytes, so cut a fixed-width suffix instead of
            # splitting on the separator.
            remainder = key[len(prefix):]
            yield (remainder[:-(_OID.size + 1)].decode("utf-8"),
                   _OID.unpack(remainder[-_OID.size:])[0])

    def enumerate_values(self, tag: str) -> List[str]:
        """Every distinct value stored under ``tag`` (sorted)."""
        return sorted({value for value, _oid in self.scan(tag)})

    def holds(self, tag: str) -> bool:
        """Whether any object is named under ``tag`` here."""
        return next(self.scan(tag), None) is not None

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
