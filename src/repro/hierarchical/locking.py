"""Hierarchical path locking, and the contention it creates.

Paper Section 2.3: "the directories /home/nick and /home/margo are
functionally unrelated most of the time, yet accessing them requires
synchronizing read access through a shared ancestor directory.  A file system
hierarchy is a simple indexing structure with obvious hotspots."

:class:`HierarchicalLockManager` models the classic locking protocol: an
operation on a path takes a shared lock on every ancestor directory and a
lock of the requested mode on the final component.  The manager can run in
two modes:

* **simulation** (`acquire_path` with ``simulate=True``, the default for
  benchmarks): locks are tracked per logical *timestep*; conflicts are counted
  but nothing blocks, so experiments are deterministic;
* **real threads** (`path_lock` context manager): genuine reader/writer locks
  for integration tests that want actual blocking.

Its flat counterpart, :class:`FlatLockManager`, locks each object on its
own — no shared ancestors, hence no hotspot.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.concurrency.lock_manager import LockManager, LockMode
from repro.index.path_index import normalize_path


def path_components(path: str) -> List[str]:
    """The lock set of a path: itself plus every ancestor, root included."""
    path = normalize_path(path)
    components = ["/"]
    if path == "/":
        return components
    current = ""
    for part in path.strip("/").split("/"):
        current += "/" + part
        components.append(current)
    return components


@dataclass
class ContentionReport:
    """Outcome of a simulated concurrent schedule.

    Two effects are reported separately because the paper's claim has two
    parts:

    * ``conflicts`` — blocking: two concurrent operations needed the same
      resource and at least one needed it exclusively;
    * ``synchronizations`` — serialization pressure: two concurrent
      operations touched the same lock at all (even shared/shared), which is
      the "synchronizing read access through a shared ancestor directory"
      cost of Section 2.3 — lock words bounce between cores even when nobody
      blocks.
    """

    operations: int = 0
    lock_acquisitions: int = 0
    conflicts: int = 0
    synchronizations: int = 0
    conflict_resources: Dict[str, int] = field(default_factory=dict)
    synchronization_resources: Dict[str, int] = field(default_factory=dict)

    @property
    def conflict_rate(self) -> float:
        return self.conflicts / self.operations if self.operations else 0.0

    @property
    def synchronization_rate(self) -> float:
        return self.synchronizations / self.operations if self.operations else 0.0

    @staticmethod
    def _ranked(table: Dict[str, int], limit: int) -> List[Tuple[str, int]]:
        return sorted(table.items(), key=lambda item: (-item[1], item[0]))[:limit]

    def hottest(self, limit: int = 5) -> List[Tuple[str, int]]:
        """The most *blocking* resources, hottest first."""
        return self._ranked(self.conflict_resources, limit)

    def hottest_synchronized(self, limit: int = 5) -> List[Tuple[str, int]]:
        """The most *shared* resources (any-mode concurrency), hottest first."""
        return self._ranked(self.synchronization_resources, limit)


def _simulate(lock_set, operations: Sequence[Tuple[str, str]], concurrency: int) -> ContentionReport:
    """Shared simulation core: rounds of ``concurrency`` concurrent operations."""
    report = ContentionReport()
    conflict_resources: Dict[str, int] = defaultdict(int)
    synchronization_resources: Dict[str, int] = defaultdict(int)
    for start in range(0, len(operations), concurrency):
        round_operations = operations[start:start + concurrency]
        held: Dict[str, List[str]] = defaultdict(list)
        for path, mode in round_operations:
            report.operations += 1
            for resource, lock_mode in lock_set(path, mode):
                report.lock_acquisitions += 1
                others = held[resource]
                if others:
                    report.synchronizations += 1
                    synchronization_resources[resource] += 1
                for other_mode in others:
                    if lock_mode == LockMode.EXCLUSIVE or other_mode == LockMode.EXCLUSIVE:
                        report.conflicts += 1
                        conflict_resources[resource] += 1
                others.append(lock_mode)
    report.conflict_resources = dict(conflict_resources)
    report.synchronization_resources = dict(synchronization_resources)
    return report


class HierarchicalLockManager:
    """Per-path locking with ancestor share locks."""

    def __init__(self) -> None:
        self._locks = LockManager()

    # ----------------------------------------------------------- real locks

    def path_lock(self, path: str, mode: str = LockMode.SHARED):
        """Context manager taking real locks on the path and its ancestors."""
        return _PathLock(self._locks, path, mode)

    @property
    def lock_manager(self) -> LockManager:
        return self._locks

    # ----------------------------------------------------------- simulation

    @staticmethod
    def lock_set(path: str, mode: str) -> List[Tuple[str, str]]:
        """The (resource, mode) pairs an operation on ``path`` must hold.

        Ancestors are share-locked.  Exclusive operations (create, unlink,
        rename — the namespace-changing ones) also take their parent
        directory exclusively, as real hierarchical file systems do when they
        update directory contents; plain ancestors above the parent stay
        share-locked.
        """
        components = path_components(path)
        pairs: List[Tuple[str, str]] = []
        for component in components[:-1]:
            pairs.append((component, LockMode.SHARED))
        if mode == LockMode.EXCLUSIVE and len(pairs) >= 1:
            # the immediate parent's entry becomes exclusive
            parent_resource, _ = pairs[-1]
            pairs[-1] = (parent_resource, LockMode.EXCLUSIVE)
        pairs.append((components[-1], mode))
        return pairs

    @classmethod
    def simulate_schedule(
        cls, operations: Sequence[Tuple[str, str]], concurrency: int = 8
    ) -> ContentionReport:
        """Simulate ``operations`` (path, mode) running ``concurrency`` at a time.

        Within each round of ``concurrency`` operations, concurrent use of the
        same lock is counted as synchronization, and incompatible concurrent
        use as a conflict.  For a hierarchy the root and shared ancestors
        dominate both tables — the claim under test in experiment E2.
        """
        return _simulate(cls.lock_set, operations, concurrency)


class FlatLockManager:
    """The hFAD-side counterpart: one lock per object/index entry, no ancestors.

    Used by experiment E2 to show that the same operation schedule produces
    no shared-ancestor hotspot when naming is flat.
    """

    @staticmethod
    def lock_set(resource: str, mode: str) -> List[Tuple[str, str]]:
        return [(resource, mode)]

    @classmethod
    def simulate_schedule(
        cls, operations: Sequence[Tuple[str, str]], concurrency: int = 8
    ) -> ContentionReport:
        return _simulate(cls.lock_set, operations, concurrency)


class _PathLock:
    """Context manager acquiring real locks bottom-up-safe (sorted order)."""

    def __init__(self, locks: LockManager, path: str, mode: str) -> None:
        self._locks = locks
        self._pairs = HierarchicalLockManager.lock_set(path, mode)
        self._acquired: List[Tuple[str, str]] = []

    def __enter__(self) -> "_PathLock":
        # Acquire in sorted resource order to avoid deadlocks between paths.
        for resource, mode in sorted(self._pairs):
            self._locks.acquire(resource, mode)
            self._acquired.append((resource, mode))
        return self

    def __exit__(self, *exc_info) -> None:
        for resource, mode in reversed(self._acquired):
            self._locks.release(resource, mode)
        self._acquired.clear()
