"""Cursors: ordered iteration over a B+-tree range.

Cursors power directory-style listings in the POSIX veneer, range scans in
the string index stores, and the extent-map walks in the OSD.  A cursor is a
lightweight iterator; it does not pin pages, so mutating the tree while a
cursor is open gives undefined (but memory-safe) results, mirroring Berkeley
DB's unpinned cursor semantics.

Two ways to consume one:

* *iterable* — ``for key, value in cursor`` walks the range from the start;
  each ``__iter__`` call begins a fresh pass.
* *stateful* — :meth:`next_item` and :meth:`seek` share one persistent
  position, which is what the streaming index-store cursors build on:
  ``seek`` re-descends the tree to the first key ``>= target`` instead of
  scanning the leaf chain, so skipping far ahead costs O(log n).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple


class Cursor:
    """Iterate ``(key, value)`` pairs of a tree over ``[start, end)``."""

    def __init__(
        self,
        tree,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        prefix: Optional[bytes] = None,
        reverse: bool = False,
    ) -> None:
        self._tree = tree
        self.start = start
        self.end = end
        self.prefix = prefix
        self.reverse = reverse
        # Persistent iterator backing next_item()/seek(); created on first use.
        self._position: Optional[Iterator[Tuple[bytes, bytes]]] = None

    def __iter__(self) -> Iterator[Tuple[bytes, bytes]]:
        items = self._forward_from(self.start)
        if self.reverse:
            # Leaves are singly linked, so reverse iteration materializes the
            # (already range-restricted) run and walks it backwards.
            return iter(list(items)[::-1])
        return items

    def _forward_from(self, start: Optional[bytes]) -> Iterator[Tuple[bytes, bytes]]:
        for key, value in self._tree._leaf_items_from(start, self.end, self.prefix):
            if self.end is not None and key >= self.end:
                return
            if self.prefix is not None and not key.startswith(self.prefix):
                return
            yield key, value

    # ------------------------------------------------------- stateful access

    def next_item(self) -> Optional[Tuple[bytes, bytes]]:
        """The next pair at the cursor's persistent position, or ``None``.

        Unavailable on reverse cursors (the leaf chain is singly linked).
        """
        if self.reverse:
            from repro.errors import BTreeError

            raise BTreeError("stateful iteration is forward-only")
        if self._position is None:
            self._position = self._forward_from(self.start)
        return next(self._position, None)

    def seek(self, key: bytes) -> Optional[Tuple[bytes, bytes]]:
        """Reposition at the first pair with key ``>= key`` and return it.

        The target is clamped to the cursor's range start, and the range
        ``end``/``prefix`` bounds keep applying.  Seeking re-descends from the
        root, so it is O(log n) regardless of how far the jump is.
        """
        if self.reverse:
            from repro.errors import BTreeError

            raise BTreeError("seek is forward-only")
        if self.start is not None and key < self.start:
            key = self.start
        self._position = self._forward_from(key)
        return next(self._position, None)

    # ------------------------------------------------------------ consumers

    def keys(self) -> Iterator[bytes]:
        for key, _value in self:
            yield key

    def values(self) -> Iterator[bytes]:
        for _key, value in self:
            yield value

    def count(self) -> int:
        """Number of pairs the cursor would yield (consumes nothing lazily)."""
        return sum(1 for _ in self)

    def first(self) -> Optional[Tuple[bytes, bytes]]:
        """First pair in the range, or ``None`` if the range is empty."""
        for item in self:
            return item
        return None
