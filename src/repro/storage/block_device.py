"""Simulated block device with I/O accounting and fault injection.

Both hFAD (through the buddy allocator and OSD) and the hierarchical FFS-like
baseline sit on top of this device, so every experiment that compares the two
systems charges I/O against the same accounting machinery.

The device exposes classic block semantics:

* fixed block size (default 4 KiB),
* ``read_block``/``write_block`` plus multi-block variants,
* a :class:`DeviceStats` counter block tracking reads, writes, blocks moved
  and simulated time according to the attached
  :class:`~repro.storage.latency.LatencyModel`,
* a :class:`FaultPlan` hook that can fail the Nth I/O or any I/O touching a
  given block, used by the crash-consistency and failure-injection tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import DeviceError, OutOfSpaceError, TransientDeviceError
from repro.storage.latency import LatencyModel, NullLatencyModel

DEFAULT_BLOCK_SIZE = 4096

#: the one on-device page size: every btree page of every tree is this many
#: bytes of whole blocks (1 block on the default device, 8 on a 512-byte one).
#: The superblock stamps the block count and a mount refuses any other; the
#: journal logs first touches as home deltas only where a page is one block.
PAGE_BYTES = 4096


@dataclass
class DeviceStats:
    """Aggregate I/O accounting for a block device.

    ``reads``/``writes`` count *requests*; ``blocks_read``/``blocks_written``
    count blocks moved; ``simulated_us`` accumulates the latency model's cost.
    """

    reads: int = 0
    writes: int = 0
    blocks_read: int = 0
    blocks_written: int = 0
    simulated_us: float = 0.0

    def snapshot(self) -> "DeviceStats":
        """Return a copy of the current counters."""
        return DeviceStats(
            reads=self.reads,
            writes=self.writes,
            blocks_read=self.blocks_read,
            blocks_written=self.blocks_written,
            simulated_us=self.simulated_us,
        )

    def delta(self, since: "DeviceStats") -> "DeviceStats":
        """Return counters accumulated since ``since`` (an earlier snapshot)."""
        return DeviceStats(
            reads=self.reads - since.reads,
            writes=self.writes - since.writes,
            blocks_read=self.blocks_read - since.blocks_read,
            blocks_written=self.blocks_written - since.blocks_written,
            simulated_us=self.simulated_us - since.simulated_us,
        )

    @property
    def total_ios(self) -> int:
        return self.reads + self.writes

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.blocks_read = 0
        self.blocks_written = 0
        self.simulated_us = 0.0


@dataclass
class FaultPlan:
    """Declarative fault injection for device I/O.

    ``fail_after_writes`` fails every write once the device has completed that
    many successful writes — the standard way the tests simulate a crash in
    the middle of a multi-block update.  ``bad_blocks`` fails any request that
    touches one of the listed block addresses.

    ``transient_read_faults`` maps block → remaining failure count: a read
    touching the block raises :class:`~repro.errors.TransientDeviceError`
    and decrements the count, so the first N touches fail and every later
    one succeeds — the deterministic shape retry-path unit tests need.
    ``intermittent_read_blocks`` maps block → failure probability; each read
    touching the block fails transiently with that probability, drawn from
    ``rng`` (seed it for reproducible flakiness).
    """

    fail_after_writes: Optional[int] = None
    bad_blocks: frozenset = field(default_factory=frozenset)
    fail_reads: bool = False
    transient_read_faults: Dict[int, int] = field(default_factory=dict)
    intermittent_read_blocks: Dict[int, float] = field(default_factory=dict)
    rng: Optional[random.Random] = None

    def check_write(self, completed_writes: int, block: int, nblocks: int) -> None:
        if self.fail_after_writes is not None and completed_writes >= self.fail_after_writes:
            raise DeviceError(
                f"injected write fault after {completed_writes} writes "
                f"(block {block})"
            )
        self._check_bad(block, nblocks)

    def check_read(self, block: int, nblocks: int) -> None:
        if self.fail_reads:
            raise DeviceError(f"injected read fault at block {block}")
        self._check_transient(block, nblocks)
        self._check_bad(block, nblocks)

    def _check_transient(self, block: int, nblocks: int) -> None:
        for b in range(block, block + nblocks):
            remaining = self.transient_read_faults.get(b, 0)
            if remaining > 0:
                # One failure consumed per *request*, not per block: a retry
                # of the same multi-block read makes progress.
                self.transient_read_faults[b] = remaining - 1
                raise TransientDeviceError(
                    f"injected transient read fault at block {b} "
                    f"({remaining - 1} failures left)"
                )
        if self.intermittent_read_blocks:
            rng = self.rng if self.rng is not None else random
            for b in range(block, block + nblocks):
                rate = self.intermittent_read_blocks.get(b, 0.0)
                if rate and rng.random() < rate:
                    raise TransientDeviceError(
                        f"injected intermittent read fault at block {b}"
                    )

    def _check_bad(self, block: int, nblocks: int) -> None:
        for b in range(block, block + nblocks):
            if b in self.bad_blocks:
                raise DeviceError(f"injected fault: bad block {b}")


class BlockDevice:
    """An in-memory block device with accounting and optional persistence.

    Blocks are stored sparsely in a dict, so creating a "1 TiB" device costs
    nothing until blocks are written.  Unwritten blocks read back as zeros,
    matching the behaviour of a freshly zeroed disk.
    """

    def __init__(
        self,
        num_blocks: int = 1 << 18,
        block_size: int = DEFAULT_BLOCK_SIZE,
        latency_model: Optional[LatencyModel] = None,
    ) -> None:
        if num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        if block_size <= 0 or block_size & (block_size - 1):
            raise ValueError("block_size must be a positive power of two")
        self.num_blocks = num_blocks
        self.block_size = block_size
        self.latency_model = latency_model or NullLatencyModel()
        if hasattr(self.latency_model, "total_blocks"):
            self.latency_model.total_blocks = num_blocks
        self.stats = DeviceStats()
        self.fault_plan: Optional[FaultPlan] = None
        self._blocks: Dict[int, bytes] = {}
        self._zero = bytes(block_size)

    # -- capacity -----------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        """Total device capacity in bytes."""
        return self.num_blocks * self.block_size

    def _check_range(self, block: int, nblocks: int) -> None:
        if nblocks <= 0:
            raise DeviceError(f"nblocks must be positive, got {nblocks}")
        if block < 0 or block + nblocks > self.num_blocks:
            raise DeviceError(
                f"I/O out of range: blocks [{block}, {block + nblocks}) "
                f"on a device of {self.num_blocks} blocks"
            )

    # -- single block I/O ---------------------------------------------------

    def read_block(self, block: int) -> bytes:
        """Read one block; unwritten blocks return zeros."""
        return self.read_blocks(block, 1)

    def write_block(self, block: int, data: bytes) -> None:
        """Write one block.  ``data`` shorter than the block is zero-padded."""
        self.write_blocks(block, data, nblocks=1)

    # -- multi block I/O ----------------------------------------------------

    def read_blocks(self, block: int, nblocks: int) -> bytes:
        """Read ``nblocks`` contiguous blocks starting at ``block``."""
        self._check_range(block, nblocks)
        if self.fault_plan is not None:
            self.fault_plan.check_read(block, nblocks)
        self.stats.reads += 1
        self.stats.blocks_read += nblocks
        self.stats.simulated_us += self.latency_model.cost(block, nblocks, write=False)
        parts = [self._blocks.get(b, self._zero) for b in range(block, block + nblocks)]
        return b"".join(parts)

    def write_blocks(self, block: int, data: bytes, nblocks: Optional[int] = None) -> None:
        """Write ``data`` to contiguous blocks starting at ``block``.

        ``data`` may be shorter than ``nblocks * block_size``; the tail of the
        final block is zero-filled.  If ``nblocks`` is omitted it is derived
        from ``len(data)``.
        """
        if nblocks is None:
            nblocks = max(1, (len(data) + self.block_size - 1) // self.block_size)
        self._check_range(block, nblocks)
        if len(data) > nblocks * self.block_size:
            raise DeviceError(
                f"data of {len(data)} bytes does not fit in {nblocks} blocks"
            )
        if self.fault_plan is not None:
            self.fault_plan.check_write(self.stats.writes, block, nblocks)
        self.stats.writes += 1
        self.stats.blocks_written += nblocks
        self.stats.simulated_us += self.latency_model.cost(block, nblocks, write=True)
        view = memoryview(data)
        for i in range(nblocks):
            chunk = bytes(view[i * self.block_size:(i + 1) * self.block_size])
            if len(chunk) < self.block_size:
                chunk = chunk + bytes(self.block_size - len(chunk))
            if chunk == self._zero:
                self._blocks.pop(block + i, None)
            else:
                self._blocks[block + i] = chunk

    # -- byte-granularity helpers ------------------------------------------

    def read_bytes(self, block: int, offset: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``offset`` within ``block``.

        The range may span multiple blocks; it is issued as one request.
        """
        if offset < 0 or length < 0:
            raise DeviceError("offset/length must be non-negative")
        if length == 0:
            return b""
        end = offset + length
        nblocks = (end + self.block_size - 1) // self.block_size
        data = self.read_blocks(block, nblocks)
        return data[offset:end]

    def write_bytes(self, block: int, offset: int, data: bytes) -> None:
        """Read-modify-write ``data`` at ``offset`` within ``block``'s run."""
        if offset < 0:
            raise DeviceError("offset must be non-negative")
        if not data:
            return
        end = offset + len(data)
        nblocks = (end + self.block_size - 1) // self.block_size
        existing = bytearray(self.read_blocks(block, nblocks))
        existing[offset:end] = data
        self.write_blocks(block, bytes(existing), nblocks=nblocks)

    # -- fault injection: silent corruption ----------------------------------

    def flip_bit(self, block: int, bit_index: int) -> None:
        """Flip one bit of a stored block in place — simulated bit rot.

        Unlike the :class:`FaultPlan` hooks this mutates the *data*, not the
        I/O path: the next read succeeds and returns the damaged bytes, which
        only a checksum can catch.  Not counted as I/O.
        """
        self._check_range(block, 1)
        if not 0 <= bit_index < self.block_size * 8:
            raise DeviceError(f"bit index {bit_index} outside a block")
        data = bytearray(self._blocks.get(block, self._zero))
        byte, bit = divmod(bit_index, 8)
        data[byte] ^= 1 << bit
        if data == self._zero:
            self._blocks.pop(block, None)
        else:
            self._blocks[block] = bytes(data)

    def corrupt_bytes(self, block: int, offset: int, garbage: bytes) -> None:
        """Overwrite bytes within one stored block without any accounting."""
        self._check_range(block, 1)
        if offset < 0 or offset + len(garbage) > self.block_size:
            raise DeviceError("corruption range outside the block")
        data = bytearray(self._blocks.get(block, self._zero))
        data[offset:offset + len(garbage)] = garbage
        if data == self._zero:
            self._blocks.pop(block, None)
        else:
            self._blocks[block] = bytes(data)

    # -- maintenance ---------------------------------------------------------

    def discard(self, block: int, nblocks: int = 1) -> None:
        """Drop stored contents of a block range (TRIM); not counted as I/O."""
        self._check_range(block, nblocks)
        for b in range(block, block + nblocks):
            self._blocks.pop(b, None)

    def used_blocks(self) -> int:
        """Number of blocks holding non-zero data (for space accounting tests)."""
        return len(self._blocks)

    def reset_stats(self) -> None:
        """Zero the accounting counters and latency-model positioning state."""
        self.stats.reset()
        self.latency_model.reset()

    # -- persistence (optional, used by examples) ----------------------------

    def dump(self) -> Dict[int, bytes]:
        """Return a shallow copy of the populated blocks (for snapshots)."""
        return dict(self._blocks)

    def load(self, blocks: Dict[int, bytes]) -> None:
        """Restore device contents from a :meth:`dump` snapshot."""
        for b, data in blocks.items():
            if b < 0 or b >= self.num_blocks:
                raise DeviceError(f"snapshot block {b} out of range")
            if len(data) != self.block_size:
                raise DeviceError("snapshot block has wrong size")
        self._blocks = dict(blocks)


def require_capacity(device: BlockDevice, blocks_needed: int) -> None:
    """Raise :class:`OutOfSpaceError` unless the device has that many blocks."""
    if blocks_needed > device.num_blocks:
        raise OutOfSpaceError(
            f"device of {device.num_blocks} blocks cannot satisfy "
            f"{blocks_needed} blocks"
        )
