"""B+-tree node representations and their on-page encoding.

Nodes are either *leaves* (sorted keys with their values plus a next-leaf
link) or *inner* nodes (sorted separator keys with child page ids).  The
encoding is a simple length-prefixed layout so nodes can be persisted to a
block device page by :class:`repro.btree.pages.DevicePageStore`:

``[type:1][count:4] { [klen:4][key][vlen:4][value] } * count [next:8]``

Inner nodes store ``count`` keys followed by ``count + 1`` child page ids.

Every node carries ``nbytes``, the length :meth:`encode` would produce.  It
is taken once when the node is built or decoded and then kept current by the
tree, edit by edit, so the tree's byte-occupancy tests (split, underflow,
lend, merge) cost O(1) instead of re-summing every entry.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List

from repro.errors import BTreeError

_LEAF = 1
_INNER = 2

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_HEADER = struct.Struct(">BI")

#: page id meaning "no page" (e.g. no next leaf).
NO_PAGE = 0xFFFFFFFFFFFFFFFF

#: encoded bytes of a node with no entries: the header plus a leaf's
#: next-leaf link or an inner node's first child pointer.
NODE_OVERHEAD = _HEADER.size + _U64.size
#: encoded bytes a leaf entry adds to its key and value (two length prefixes),
#: and an inner separator to its key (length prefix and child pointer).
LEAF_ENTRY_OVERHEAD = 2 * _U32.size
INNER_ENTRY_OVERHEAD = _U32.size + _U64.size


@dataclass
class LeafNode:
    """A leaf page: parallel sorted ``keys``/``values`` plus a next pointer."""

    keys: List[bytes] = field(default_factory=list)
    values: List[bytes] = field(default_factory=list)
    next_leaf: int = NO_PAGE
    nbytes: int = field(default=0, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.nbytes:
            self.nbytes = self.encoded_size()

    @property
    def is_leaf(self) -> bool:
        return True

    def encode(self) -> bytes:
        parts = [_HEADER.pack(_LEAF, len(self.keys))]
        for key, value in zip(self.keys, self.values):
            parts.append(_U32.pack(len(key)))
            parts.append(key)
            parts.append(_U32.pack(len(value)))
            parts.append(value)
        parts.append(_U64.pack(self.next_leaf))
        return b"".join(parts)

    def encoded_size(self) -> int:
        """Exact byte length :meth:`encode` would produce, summed afresh."""
        return NODE_OVERHEAD + sum(map(self.entry_size, range(len(self.keys))))

    def entry_size(self, index: int) -> int:
        """Encoded bytes entry ``index`` contributes."""
        return LEAF_ENTRY_OVERHEAD + len(self.keys[index]) + len(self.values[index])


@dataclass
class InnerNode:
    """An internal page: ``len(children) == len(keys) + 1``.

    ``keys[i]`` separates ``children[i]`` (keys < keys[i]) from
    ``children[i+1]`` (keys >= keys[i]).
    """

    keys: List[bytes] = field(default_factory=list)
    children: List[int] = field(default_factory=list)
    nbytes: int = field(default=0, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.nbytes:
            self.nbytes = self.encoded_size()

    @property
    def is_leaf(self) -> bool:
        return False

    def encode(self) -> bytes:
        parts = [_HEADER.pack(_INNER, len(self.keys))]
        for key in self.keys:
            parts.append(_U32.pack(len(key)))
            parts.append(key)
        for child in self.children:
            parts.append(_U64.pack(child))
        return b"".join(parts)

    def encoded_size(self) -> int:
        """Exact byte length :meth:`encode` would produce, summed afresh."""
        return (_HEADER.size + _U64.size * len(self.children)
                + sum(_U32.size + len(key) for key in self.keys))

    def entry_size(self, index: int) -> int:
        """Encoded bytes separator ``index`` and one child pointer contribute."""
        return INNER_ENTRY_OVERHEAD + len(self.keys[index])


def decode_node(data: bytes):
    """Decode a node previously produced by ``encode``."""
    if len(data) < _HEADER.size:
        raise BTreeError("truncated node page")
    node_type, count = _HEADER.unpack_from(data, 0)
    offset = _HEADER.size
    if node_type == _LEAF:
        keys: List[bytes] = []
        values: List[bytes] = []
        for _ in range(count):
            (klen,) = _U32.unpack_from(data, offset)
            offset += _U32.size
            keys.append(bytes(data[offset:offset + klen]))
            offset += klen
            (vlen,) = _U32.unpack_from(data, offset)
            offset += _U32.size
            values.append(bytes(data[offset:offset + vlen]))
            offset += vlen
        (next_leaf,) = _U64.unpack_from(data, offset)
        return LeafNode(keys=keys, values=values, next_leaf=next_leaf,
                        nbytes=offset + _U64.size)
    if node_type == _INNER:
        keys = []
        for _ in range(count):
            (klen,) = _U32.unpack_from(data, offset)
            offset += _U32.size
            keys.append(bytes(data[offset:offset + klen]))
            offset += klen
        children: List[int] = []
        for _ in range(count + 1):
            (child,) = _U64.unpack_from(data, offset)
            offset += _U64.size
            children.append(child)
        return InnerNode(keys=keys, children=children, nbytes=offset)
    raise BTreeError(f"unknown node type {node_type}")
