"""Persistent image-feature index: histograms and colour postings on-device.

The in-memory :class:`~repro.index.image_index.ImageIndexStore` answers
dominant-colour and similarity queries from two dicts.  This subclass keeps
those dicts as the query-serving mirror but writes every mutation through to
an on-device B+-tree, so a re-mount reloads the features from index pages —
zero object reads, no JSON histograms squeezed into metadata records.

Key layout::

    H \x00 oid(8)               -> 8 float64 histogram buckets
    C \x00 color \x00 oid(8)    -> b""   (colour membership)

Similarity lookups must score every histogram before they know their result
set (they cannot stream), so mirroring the whole feature set in memory is
the natural serving shape; the tree is the durable copy.  Loading the mirror
at mount walks only this tree's leaf pages — O(index metadata), independent
of object data volume.

Mutations bracket themselves in a recovery-manager transaction, joining the
enclosing filesystem operation's WAL transaction exactly like the master
tree's writes do.
"""

from __future__ import annotations

import struct
from contextlib import nullcontext
from typing import Sequence

from repro.btree import BPlusTree
from repro.errors import KeyNotFoundError
from repro.index.image_index import COLOR_NAMES, ImageIndexStore

_OID = struct.Struct(">Q")
_SEP = b"\x00"
_HIST_PREFIX = b"H\x00"
_COLOR_PREFIX = b"C\x00"
_HIST = struct.Struct(">8d")


class PersistentImageIndexStore(ImageIndexStore):
    """Image index whose features are mirrored into an on-device B+-tree.

    :param tree: backing tree (device-backed in the filesystem).
    :param recovery: optional recovery manager; mutations join/bracket its
        transactions.
    :param load: rebuild the in-memory mirror from the tree (the mount path).
    """

    def __init__(
        self,
        tree: BPlusTree,
        recovery=None,
        similarity_threshold: float = 0.90,
        load: bool = False,
    ) -> None:
        super().__init__(similarity_threshold=similarity_threshold)
        self._tree = tree
        self._recovery = recovery
        if load:
            self._load()

    @property
    def tree(self) -> BPlusTree:
        """The backing tree (the facade persists/checks its root)."""
        return self._tree

    def _txn(self):
        if self._recovery is None:
            return nullcontext()
        return self._recovery.transaction()

    # ---------------------------------------------------------------- keys

    def _hist_key(self, oid: int) -> bytes:
        return _HIST_PREFIX + _OID.pack(oid)

    def _color_key(self, color: str, oid: int) -> bytes:
        return _COLOR_PREFIX + color.encode("utf-8") + _SEP + _OID.pack(oid)

    def _delete_quiet(self, key: bytes) -> None:
        try:
            self._tree.delete(key)
        except KeyNotFoundError:
            pass

    def _load(self) -> None:
        """Rebuild the serving mirror from the tree (mount-time)."""
        for key, value in self._tree.cursor(prefix=_HIST_PREFIX):
            oid = _OID.unpack(key[len(_HIST_PREFIX):])[0]
            self._histograms[oid] = _HIST.unpack(value)
        for key, _value in self._tree.cursor(prefix=_COLOR_PREFIX):
            rest = key[len(_COLOR_PREFIX):]
            color = rest[:-(_OID.size + 1)].decode("utf-8")
            oid = _OID.unpack(rest[-_OID.size:])[0]
            if color in self._by_color:
                self._by_color[color].add(oid)

    # ------------------------------------------------------------ mutation

    def index_histogram(self, oid: int, histogram: Sequence[float]) -> str:
        with self._txn():
            dominant = super().index_histogram(oid, histogram)
            self._tree.put(self._hist_key(oid), _HIST.pack(*self._histograms[oid]))
            self._tree.put(self._color_key(dominant, oid), b"")
            return dominant

    def drop_features(self, oid: int) -> bool:
        if oid not in self._histograms:
            return False  # cheap early-out: no transaction for absent oids
        # Mirror and tree mutate inside one transaction (like the other
        # mutators): a failed/poisoned transaction must not leave in-memory
        # answers disagreeing with what the next mount will load.
        with self._txn():
            colors = [color for color, members in self._by_color.items()
                      if oid in members]
            dropped = super().drop_features(oid)
            if dropped:
                self._delete_quiet(self._hist_key(oid))
                for color in colors:
                    self._delete_quiet(self._color_key(color, oid))
            return dropped

    def insert(self, tag: str, value: str, oid: int) -> None:
        with self._txn():
            super().insert(tag, value, oid)
            detail = str(value).partition(":")[2]
            self._tree.put(self._color_key(detail, oid), b"")
            self._tree.put(self._hist_key(oid), _HIST.pack(*self._histograms[oid]))

    def remove(self, tag: str, value: str, oid: int) -> bool:
        with self._txn():
            removed = super().remove(tag, value, oid)
            if removed:
                detail = str(value).partition(":")[2]
                self._delete_quiet(self._color_key(detail, oid))
            return removed

    # ---------------------------------------------------------- diagnostics

    def persisted_count(self) -> int:
        """Histogram records in the tree (should equal ``indexed_count``)."""
        return sum(1 for _ in self._tree.cursor(prefix=_HIST_PREFIX))


__all__ = ["PersistentImageIndexStore", "COLOR_NAMES"]
