"""Stable-storage substrate shared by hFAD and the hierarchical baseline.

The paper implements hFAD over a raw device with a buddy storage allocator at
the bottom of its OSD layer (Section 3.4).  This package provides that
substrate in simulation:

* :mod:`repro.storage.block_device` — a block device with I/O accounting and
  fault injection, backed by memory or a file.
* :mod:`repro.storage.latency` — pluggable latency/cost models (HDD seek and
  rotation, SSD, null) so benchmarks can reason about *where* time goes.
* :mod:`repro.storage.buddy` — the power-of-two buddy allocator cited from
  Knuth [9].
* :mod:`repro.storage.journal` — a write-ahead journal giving the OSD its
  (optional, per Section 3.3) transactional behaviour.
"""

from repro.storage.block_device import BlockDevice, DeviceStats, FaultPlan
from repro.storage.buddy import BuddyAllocator
from repro.storage.journal import Journal, JournalRecord
from repro.storage.latency import (
    HDDLatencyModel,
    LatencyModel,
    NullLatencyModel,
    SSDLatencyModel,
)

__all__ = [
    "BlockDevice",
    "DeviceStats",
    "FaultPlan",
    "BuddyAllocator",
    "Journal",
    "JournalRecord",
    "LatencyModel",
    "NullLatencyModel",
    "HDDLatencyModel",
    "SSDLatencyModel",
]
