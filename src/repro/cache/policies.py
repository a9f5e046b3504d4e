"""The buffer pool's eviction policy: least recently used.

The pool drives a small interface, :class:`EvictionPolicy`:

* ``on_add(key)``    — ``key`` became resident,
* ``on_hit(key)``    — a resident ``key`` was accessed,
* ``on_remove(key)`` — ``key`` left the pool (evicted, or its page freed),
* ``victim(pinned)`` — propose a resident, unpinned key to evict, or ``None``.

Keys are opaque hashables; the pool uses ``(consumer_name, page_id)`` tuples.
The pool never evicts pinned pages: it passes the pinned set to ``victim``,
which must skip those keys.

:class:`LRUPolicy` is the one implementation.  LFU, Clock and ARC were
measured against it (E9; the table is frozen in README "Retired
configurations") and nothing served or benchmarked ever selected them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional, Set

Key = Hashable


class EvictionPolicy:
    """Interface an eviction policy implements."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("policy capacity must be at least 1")
        self.capacity = capacity

    def on_add(self, key: Key) -> None:
        raise NotImplementedError

    def on_hit(self, key: Key) -> None:
        raise NotImplementedError

    def on_remove(self, key: Key) -> None:
        raise NotImplementedError

    def victim(self, pinned: Set[Key]) -> Optional[Key]:
        raise NotImplementedError


class LRUPolicy(EvictionPolicy):
    """Evict the least recently used unpinned page."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._order: "OrderedDict[Key, None]" = OrderedDict()

    def on_add(self, key: Key) -> None:
        self._order[key] = None
        self._order.move_to_end(key)

    def on_hit(self, key: Key) -> None:
        if key in self._order:
            self._order.move_to_end(key)

    def on_remove(self, key: Key) -> None:
        self._order.pop(key, None)

    def victim(self, pinned: Set[Key]) -> Optional[Key]:
        for key in self._order:
            if key not in pinned:
                return key
        return None
