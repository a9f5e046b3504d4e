"""Per-tree transaction queues and snapshot read views.

The WAL engine's trees — the master/namespace tree (metadata, name entries
and every object's extent map), the full-text posting tree and the
image-feature tree — are
independent failure domains in the journal: records carry transaction ids,
replay groups by txid, and nothing in a fulltext transaction touches a
master page.  This module turns that independence into concurrency: instead
of one wholesale transaction mutex, each tree has a reader/writer queue.

* **Writers** (WAL transactions) take the *exclusive* lock of every tree
  they declare, so a transaction on ``fulltext`` alone (a posting-backlog
  settle's) leaves readers of ``master`` running.
* **Readers** (boolean/ranked queries) take *shared* locks for the duration
  of one :meth:`read_view`, so queries overlap each other freely and see a
  stable generation of each tree while writers to *other* trees proceed.

Deadlock freedom is by construction, not by detection: every acquisition —
shared or exclusive, including a transaction escalating to an extra tree
mid-flight (``master`` → ``fulltext`` when a create indexes its content) —
must follow the global rank order ``master < fulltext < image``.  Acquiring
against rank order raises :class:`~repro.errors.RecoveryError` immediately;
upgrades (shared → exclusive) are refused for the same reason.  With a total
acquisition order and no upgrades, a wait-for cycle cannot form.

Re-entrancy is layered here (the underlying :class:`LockManager` has no
owner tracking): a thread-local held-map counts acquisitions per tree, so a
transaction's nested begins, and read views opened inside a transaction
that already holds the tree exclusively, simply re-enter.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import RecoveryError
from repro.concurrency.lock_manager import LockManager, LockMode

#: the global acquisition order; unknown trees rank after the known set,
#: ordered by name, so ad-hoc tree names still get a *total* order.
TREE_RANKS = {"master": 0, "fulltext": 1, "image": 2}


def _rank(tree: str) -> Tuple[int, str]:
    return (TREE_RANKS.get(tree, len(TREE_RANKS)), tree)


class TreeLockTable:
    """Named per-tree reader/writer queues with thread-local re-entrancy."""

    def __init__(self, manager: Optional[LockManager] = None) -> None:
        self.manager = manager if manager is not None else LockManager(
            max_tracked_resources=16)
        self._held = threading.local()

    # ------------------------------------------------------------ held state

    def _held_map(self) -> Dict[str, List]:
        held = getattr(self._held, "map", None)
        if held is None:
            held = self._held.map = {}
        return held

    def held_mode(self, tree: str) -> Optional[str]:
        """The mode this *thread* holds ``tree`` in (None when not held)."""
        entry = self._held_map().get(tree)
        return entry[0] if entry is not None else None

    def held_trees(self) -> List[str]:
        """Trees the calling thread currently holds (any mode)."""
        return list(self._held_map())

    def _check_rank(self, tree: str, held: Dict[str, List]) -> None:
        for other in held:
            if _rank(other) > _rank(tree):
                raise RecoveryError(
                    f"tree-lock order violation: acquiring {tree!r} while "
                    f"holding {other!r} (the global order is "
                    "master < fulltext < image — a cycle would otherwise "
                    "be possible)"
                )

    # ------------------------------------------------------------ exclusive

    def acquire_exclusive(self, tree: str) -> bool:
        """Queue for exclusive use of ``tree``; True if newly acquired.

        Re-entrant per thread (returns False on re-entry so the caller
        knows it does not own the release).  Refuses shared → exclusive
        upgrades and rank-order violations.
        """
        held = self._held_map()
        entry = held.get(tree)
        if entry is not None:
            if entry[0] == LockMode.SHARED:
                raise RecoveryError(
                    f"cannot upgrade shared lock on tree {tree!r} to "
                    "exclusive: two upgraders would deadlock — take the "
                    "write lock up front instead"
                )
            entry[1] += 1
            return False
        self._check_rank(tree, held)
        self.manager.acquire(tree, LockMode.EXCLUSIVE)
        held[tree] = [LockMode.EXCLUSIVE, 1]
        return True

    def release_exclusive(self, tree: str) -> None:
        held = self._held_map()
        entry = held.get(tree)
        if entry is None or entry[0] != LockMode.EXCLUSIVE:
            raise RecoveryError(
                f"releasing exclusive lock on tree {tree!r} not held by "
                "this thread"
            )
        entry[1] -= 1
        if entry[1] == 0:
            del held[tree]
            self.manager.release(tree, LockMode.EXCLUSIVE)

    # ------------------------------------------------------------ read views

    @contextmanager
    def read_view(self, trees: Iterable[str]):
        """Hold shared locks on ``trees`` for the duration of the block.

        Acquisition follows the global rank order; trees already held by
        this thread (shared from an enclosing view, or exclusive from an
        open transaction) are re-entered, not re-acquired — a writer may
        query its own uncommitted view without self-deadlock.
        """
        held = self._held_map()
        entered: List[str] = []
        try:
            for tree in sorted(set(trees), key=_rank):
                entry = held.get(tree)
                if entry is not None:
                    entry[1] += 1
                else:
                    self._check_rank(tree, held)
                    self.manager.acquire(tree, LockMode.SHARED)
                    held[tree] = [LockMode.SHARED, 1]
                entered.append(tree)
            yield self
        finally:
            for tree in reversed(entered):
                entry = held[tree]
                entry[1] -= 1
                if entry[1] == 0:
                    mode = entry[0]
                    del held[tree]
                    self.manager.release(tree, mode)

    # ------------------------------------------------------------ inspection

    def snapshot(self) -> Dict[str, object]:
        stats = self.manager.stats
        return {
            "acquisitions": stats.acquisitions,
            "waits": stats.waits,
            "wait_time_us": round(stats.wait_time_us, 1),
            "wait_trees": dict(stats.wait_resources),
        }
