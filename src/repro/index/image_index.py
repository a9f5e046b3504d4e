"""Image index store: an example "arbitrary index type".

Section 3.2: "we want to leave open the possibility of extending hFAD with
arbitrary index types, such as indices on images, sound, etc."  This store is
that extension point exercised: it indexes colour-histogram feature vectors
(the classic cheap image descriptor) and serves the IMAGE tag with two value
syntaxes:

* ``color:<name>`` — objects whose dominant colour bucket matches ``<name>``;
* ``similar:<oid>`` — objects whose histogram is within a cosine-similarity
  threshold of the named object's.

Real deployments would extract features from pixel data; the paper's photos
are not available, so the workload generators synthesize feature vectors with
the same statistical shape (see ``repro.workloads.photos``).  The index code
path — register, insert, route IMAGE lookups, conjoin with other tags — is
identical either way, which is what the reproduction needs.

The features live in one B+-tree, and the tree is their only copy: every
lookup reads it, so a mount loads nothing.  That tree is the filesystem's
on-device image tree (its pages ride the buffer pool and the WAL like every
other tree's), and every mutation is a transaction of the engine's recovery
manager.  Key layout::

    H \\x00 oid(8)               -> 8 float64 histogram buckets (normalized)
    C \\x00 color \\x00 oid(8)    -> b""   (colour membership)

Colour keys end in the big-endian oid, so a colour's run is its sorted
answer.
"""

from __future__ import annotations

import math
import struct
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.btree import BPlusTree
from repro.errors import IndexStoreError
from repro.index.store import IndexStore
from repro.index.tags import TAG_IMAGE, TagValue

#: the eight colour buckets a histogram is defined over.
COLOR_NAMES = ("red", "orange", "yellow", "green", "cyan", "blue", "purple", "gray")

_OID = struct.Struct(">Q")
_HIST = struct.Struct(">8d")
_HIST_PREFIX = b"H\x00"
_COLOR_PREFIX = b"C\x00"


def _validate_histogram(histogram: Sequence[float]) -> Tuple[float, ...]:
    if len(histogram) != len(COLOR_NAMES):
        raise IndexStoreError(
            f"histogram must have {len(COLOR_NAMES)} buckets, got {len(histogram)}"
        )
    values = tuple(float(v) for v in histogram)
    if any(v < 0 for v in values):
        raise IndexStoreError("histogram buckets must be non-negative")
    total = sum(values)
    if total <= 0:
        raise IndexStoreError("histogram must not be all zeros")
    return tuple(v / total for v in values)


def cosine_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    """Cosine similarity of two histograms (0 when either is all zero)."""
    dot = sum(x * y for x, y in zip(a, b))
    norm_a = math.sqrt(sum(x * x for x in a))
    norm_b = math.sqrt(sum(y * y for y in b))
    if norm_a == 0 or norm_b == 0:
        return 0.0
    return dot / (norm_a * norm_b)


def _color_of(value: str) -> Optional[str]:
    """The colour a ``color:<name>`` value names, or None."""
    kind, _, detail = str(value).partition(":")
    return detail if kind == "color" and detail in COLOR_NAMES else None


class ImageIndexStore(IndexStore):
    """Colour-histogram index serving the IMAGE tag.

    :param tree: the backing tree, the filesystem's image tree.
    :param recovery: the recovery manager logging ``tree``; each mutation
        brackets itself in one of its transactions, joining the enclosing
        filesystem operation's.
    :param similarity_threshold: the cosine score ``similar:`` requires.

    Similarity lookups must score every histogram before they know their
    result set, so this store cannot stream; it serves the cursor protocol
    through the base class's materialized-fallback adapter instead.
    """

    name = "image"

    def __init__(self, tree: BPlusTree, recovery,
                 similarity_threshold: float = 0.90) -> None:
        if not 0.0 < similarity_threshold <= 1.0:
            raise IndexStoreError("similarity_threshold must be in (0, 1]")
        self.similarity_threshold = similarity_threshold
        self.tree = tree
        self._txn = recovery.transaction

    def tags(self) -> Sequence[str]:
        return (TAG_IMAGE,)

    # ---------------------------------------------------------------- keys

    def _hist_key(self, oid: int) -> bytes:
        return _HIST_PREFIX + _OID.pack(oid)

    def _color_prefix(self, color: str) -> bytes:
        return _COLOR_PREFIX + color.encode("utf-8") + b"\x00"

    def _color_key(self, color: str, oid: int) -> bytes:
        return self._color_prefix(color) + _OID.pack(oid)

    def _histograms(self) -> Iterator[Tuple[int, Tuple[float, ...]]]:
        for key, value in self.tree.cursor(prefix=_HIST_PREFIX):
            yield _OID.unpack_from(key, len(_HIST_PREFIX))[0], _HIST.unpack(value)

    def _members(self, color: str) -> List[int]:
        prefix = self._color_prefix(color)
        return [_OID.unpack_from(key, len(prefix))[0]
                for key, _value in self.tree.cursor(prefix=prefix)]

    def _colors_of(self, oid: int) -> List[str]:
        return [color for color in COLOR_NAMES if self._color_key(color, oid) in self.tree]

    # ----------------------------------------------------- feature intake

    def index_histogram(self, oid: int, histogram: Sequence[float]) -> str:
        """Index an object's colour histogram; returns its dominant colour."""
        normalized = _validate_histogram(histogram)
        dominant = COLOR_NAMES[max(range(len(normalized)), key=normalized.__getitem__)]
        with self._txn():
            self.drop_features(oid)
            self.tree.put(self._hist_key(oid), _HIST.pack(*normalized))
            self.tree.put(self._color_key(dominant, oid), b"")
        return dominant

    def drop_features(self, oid: int) -> bool:
        """Remove an object's features; returns True if it was indexed."""
        if self._hist_key(oid) not in self.tree:
            return False  # no transaction for an absent oid
        with self._txn():
            for color in self._colors_of(oid):
                self.tree.delete(self._color_key(color, oid))
            self.tree.delete(self._hist_key(oid))
        return True

    def dominant_color(self, oid: int) -> Optional[str]:
        colors = self._colors_of(oid)
        return colors[0] if colors else None

    def similar_to(self, oid: int, limit: Optional[int] = None) -> List[Tuple[int, float]]:
        """Objects ranked by similarity to ``oid`` (excluding itself)."""
        raw = self.tree.get(self._hist_key(oid))
        if raw is None:
            return []
        reference = _HIST.unpack(raw)
        scored = [
            (other, cosine_similarity(reference, histogram))
            for other, histogram in self._histograms()
            if other != oid
        ]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[:limit] if limit is not None else scored

    # ---------------------------------------------------------- interface

    def insert(self, tag: str, value: str, oid: int) -> None:
        # Values of the form "color:red" assert a dominant colour directly
        # (e.g. from an external tagger); histograms use index_histogram.
        color = _color_of(value)
        if color is None:
            raise IndexStoreError(
                f"IMAGE insert values must be 'color:<name>', got {value!r}"
            )
        with self._txn():
            self.tree.put(self._color_key(color, oid), b"")
            if self._hist_key(oid) not in self.tree:
                self.tree.put(self._hist_key(oid), _HIST.pack(
                    *(1.0 if name == color else 0.0 for name in COLOR_NAMES)))

    def remove(self, tag: str, value: str, oid: int) -> bool:
        color = _color_of(value)
        if color is None or self._color_key(color, oid) not in self.tree:
            return False
        with self._txn():
            self.tree.delete(self._color_key(color, oid))
        return True

    def lookup(self, tag: str, value: str) -> List[int]:
        kind, _, detail = str(value).partition(":")
        if kind == "color":
            if detail not in COLOR_NAMES:
                raise IndexStoreError(f"unknown colour {detail!r}")
            return self._members(detail)
        if kind == "similar":
            try:
                reference_oid = int(detail)
            except ValueError:
                raise IndexStoreError(f"similar: expects an object id, got {detail!r}")
            return sorted(
                other
                for other, score in self.similar_to(reference_oid)
                if score >= self.similarity_threshold
            )
        raise IndexStoreError(f"unsupported IMAGE query {value!r}")

    def remove_object(self, oid: int) -> int:
        return 1 if self.drop_features(oid) else 0

    def values_for(self, oid: int) -> List[TagValue]:
        color = self.dominant_color(oid)
        if color is None:
            return []
        return [TagValue(tag=TAG_IMAGE, value=f"color:{color}")]

    # -------------------------------------------------------------- extras

    def cardinality(self, tag: str, value: str) -> int:
        color = _color_of(value)
        if color is not None:
            return len(self._members(color))
        return self.indexed_count

    @property
    def indexed_count(self) -> int:
        """Objects with a histogram: one scan of the ``H`` run."""
        return sum(1 for _ in self.tree.cursor(prefix=_HIST_PREFIX))
