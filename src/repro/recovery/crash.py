"""Crash injection: a block device that dies after the Nth write.

The crash-consistency guarantees of :mod:`repro.recovery` are only worth
anything if they survive a power cut at *every* point of a write sequence,
not just the convenient ones.  :class:`CrashingBlockDevice` makes that
testable:

* :meth:`plan_crash` arms a countdown; the write that trips it raises
  :class:`CrashError` and marks the device dead.  Every subsequent I/O also
  raises — a dead disk answers nothing.
* With a ``torn_rng`` the fatal write may first apply a random *prefix* of
  its blocks, modelling a multi-sector write torn by power loss (the case
  the journal's per-record CRC exists for).  With ``tear="bytes"`` it
  applies a random *byte* prefix that ends inside one block — the device
  breaking the block-atomic write the journal's home deltas assume, which
  recovery must surface, never turn into a silently wrong page.
* :meth:`surviving_image` clones the blocks that made it to "stable storage"
  onto a fresh, healthy device — what the machine finds after reboot — so a
  torture test can re-mount and audit it.

The wrapper subclasses :class:`~repro.storage.block_device.BlockDevice`, so
every layer (allocator, journal, page stores, OSD) runs against it unchanged.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import DeviceError
from repro.storage.block_device import BlockDevice


class CrashError(DeviceError):
    """The simulated machine lost power mid-write (or is already dead)."""


class CrashingBlockDevice(BlockDevice):
    """A block device with a programmable point of death.

    :param torn_rng: when set, the fatal write applies a random prefix of its
        blocks before dying (torn multi-block write); without it the fatal
        write applies nothing (clean power cut between sectors).  See
        :meth:`plan_crash` for the byte-granular tear.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._crash_countdown: Optional[int] = None
        self._torn_rng: Optional[random.Random] = None
        self._tear = "blocks"
        self.dead = False
        #: blocks of the fatal write that reached the platter (diagnostics).
        self.torn_blocks = 0
        #: the block a byte tear cut inside, if the fatal write tore one.
        self.torn_block: Optional[int] = None

    # -- arming ---------------------------------------------------------------

    def plan_crash(self, after_writes: int,
                   torn_rng: Optional[random.Random] = None,
                   tear: str = "blocks") -> None:
        """Die on the ``after_writes``-th write request from now (0 = next).

        With a ``torn_rng``, ``tear`` says how the fatal write tears:
        ``"blocks"`` lands a prefix of its blocks (none of a one-block
        write), ``"bytes"`` a prefix of its bytes that ends inside one block,
        the rest of which keeps its old bytes.
        """
        if after_writes < 0:
            raise ValueError("after_writes must be non-negative")
        if tear not in ("blocks", "bytes"):
            raise ValueError(f"unknown tear {tear!r}")
        self._crash_countdown = after_writes
        self._torn_rng = torn_rng
        self._tear = tear

    def disarm(self) -> None:
        """Cancel a planned crash (the device stays alive)."""
        self._crash_countdown = None

    # -- I/O ------------------------------------------------------------------

    def _check_alive(self) -> None:
        if self.dead:
            raise CrashError("device is dead: the simulated machine crashed")

    def read_blocks(self, block: int, nblocks: int) -> bytes:
        self._check_alive()
        return super().read_blocks(block, nblocks)

    def write_blocks(self, block: int, data: bytes, nblocks: Optional[int] = None) -> None:
        self._check_alive()
        if self._crash_countdown is None:
            return super().write_blocks(block, data, nblocks)
        if self._crash_countdown > 0:
            self._crash_countdown -= 1
            return super().write_blocks(block, data, nblocks)
        # This is the fatal write.
        self._crash_countdown = None
        if nblocks is None:
            nblocks = max(1, (len(data) + self.block_size - 1) // self.block_size)
        if self._torn_rng is not None and self._tear == "bytes":
            # Tear inside a block: whole blocks, then part of the next one.
            survived = self._torn_rng.randrange(0, nblocks)
            cut = self._torn_rng.randrange(1, self.block_size)
            padded = bytes(data).ljust(nblocks * self.block_size, b"\0")
            at = survived * self.block_size
            old = self._blocks.get(block + survived, self._zero)
            super().write_blocks(block, padded[:at + cut] + old[cut:],
                                 nblocks=survived + 1)
            self.torn_blocks = survived
            self.torn_block = block + survived
        elif self._torn_rng is not None and nblocks > 1:
            # Tear the request: a prefix of its blocks reaches the platter.
            survived = self._torn_rng.randrange(0, nblocks)
            if survived:
                prefix = bytes(data)[: survived * self.block_size]
                super().write_blocks(block, prefix, nblocks=survived)
                self.torn_blocks = survived
        self.dead = True
        raise CrashError(
            f"injected crash: power lost during write of blocks "
            f"[{block}, {block + nblocks})"
        )

    # -- post-mortem ----------------------------------------------------------

    def surviving_image(self) -> BlockDevice:
        """The stable-storage contents, cloned onto a fresh healthy device.

        This is what the machine sees after reboot; mount it to audit what
        recovery makes of the crash site.
        """
        image = BlockDevice(num_blocks=self.num_blocks, block_size=self.block_size)
        image.load(dict(self._blocks))
        return image
