"""Concurrency substrate: lock managers and workload schedules.

Supports the paper's Section 2.3 parallelism argument (experiment E2):

* :mod:`repro.concurrency.lock_manager` — a reader/writer lock manager with
  acquisition and contention accounting, used in real-thread mode by both
  file systems: the hierarchical baseline locks a path's ancestors in it,
  while hFAD's recovery manager keeps a single resource in it, the engine
  lock its transactions and read views share.
* :mod:`repro.concurrency.workload` — generators of concurrent operation
  schedules (many clients working in disjoint home directories, a shared
  project tree, metadata-heavy scans) that the lock-contention benchmarks
  replay against hierarchical and flat locking.
"""

from repro.concurrency.lock_manager import LockManager, LockMode, LockStats
from repro.concurrency.workload import (
    OperationSchedule,
    home_directory_workload,
    metadata_scan_workload,
    shared_project_workload,
)

__all__ = [
    "LockManager",
    "LockMode",
    "LockStats",
    "OperationSchedule",
    "home_directory_workload",
    "shared_project_workload",
    "metadata_scan_workload",
]
