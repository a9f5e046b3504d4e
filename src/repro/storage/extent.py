"""Extent descriptors.

hFAD allocates objects into *variable sized extents* (paper Section 3.4): a
contiguous run of device blocks described by a start address and a length.
Each object's extent map (a key range of the OSD's master btree) maps
logical byte offsets to these extents.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Extent:
    """A contiguous run of blocks on the device.

    ``block`` is the first device block, ``nblocks`` the run length and
    ``length`` the number of *bytes* of the run that are valid (the final
    block may be partially used).
    """

    block: int
    nblocks: int
    length: int

    def __post_init__(self) -> None:
        if self.block < 0:
            raise ValueError("extent block must be non-negative")
        if self.nblocks <= 0:
            raise ValueError("extent must span at least one block")
        if self.length < 0:
            raise ValueError("extent length must be non-negative")

    def capacity(self, block_size: int) -> int:
        """Total bytes this extent's blocks can hold."""
        return self.nblocks * block_size

    def end_block(self) -> int:
        """First block *after* this extent."""
        return self.block + self.nblocks

    def overlaps(self, other: "Extent") -> bool:
        """True if the two extents share any device block."""
        return self.block < other.end_block() and other.block < self.end_block()

    def to_tuple(self) -> tuple:
        """Serialize to a plain tuple (used by the btree value encoder)."""
        return (self.block, self.nblocks, self.length)

    @classmethod
    def from_tuple(cls, value: tuple) -> "Extent":
        """Inverse of :meth:`to_tuple`."""
        block, nblocks, length = value
        return cls(block=block, nblocks=nblocks, length=length)
