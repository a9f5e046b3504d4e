"""Crash consistency for hFAD: WAL-backed durability, checkpoints, recovery.

The hFAD design keeps *all* naming state — tag indices, postings, object
metadata — in B+-trees on the object store, so a crash that tears those
trees corrupts the entire namespace, not just one directory.  This package
is the durability layer that makes the write-back configuration (the fast
one) also the safe one:

* :class:`~repro.recovery.manager.RecoveryManager` — ARIES-lite redo-only
  write-ahead logging with LSNs, no-force/no-steal buffer management, group
  commit, fuzzy checkpoints and mount-time replay.  It unifies the
  :class:`~repro.storage.journal.Journal`, the
  :class:`~repro.cache.buffer_pool.BufferPool` and the transaction
  boundaries of the OSD and namespace layers into one durability path.
* :class:`~repro.recovery.superblock.Superblock` — the fixed-location root
  of the mountable on-device format (journal geometry, master-tree root,
  next object id), written at checkpoints and patched between them by
  logical ``META`` log records.
* :class:`~repro.recovery.crash.CrashingBlockDevice` — the crash-injection
  harness: a device that dies (optionally tearing its last multi-block
  write) after the Nth write, then hands the surviving stable-storage image
  to a re-mount for audit.

Entry points: ``HFADFileSystem(btree_on_device=True)`` formats a device with
this layer; ``HFADFileSystem.mount(device)`` re-opens one, replaying the
committed journal tail before any index is touched.
"""

from repro.recovery.crash import CrashError, CrashingBlockDevice
from repro.recovery.manager import RecoveryManager, RecoveryStats
from repro.recovery.superblock import SUPERBLOCK_BLOCK, Superblock

__all__ = [
    "CrashError",
    "CrashingBlockDevice",
    "RecoveryManager",
    "RecoveryStats",
    "Superblock",
    "SUPERBLOCK_BLOCK",
]
