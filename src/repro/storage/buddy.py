"""Buddy storage allocator.

The lowest layer of the hFAD OSD is "a buddy storage allocator [9]"
(paper Section 3.4, citing Knuth).  This module implements the classic
power-of-two buddy system over block addresses of a
:class:`~repro.storage.block_device.BlockDevice`:

* allocation requests are rounded up to the next power of two,
* free blocks are kept in per-order free lists,
* on free, a block is repeatedly coalesced with its buddy while the buddy is
  also free, which keeps external fragmentation bounded.

The allocator tracks ownership so double frees and frees of foreign ranges
are detected (``AllocationError``) rather than silently corrupting state —
the property-based tests lean on this.
"""

from __future__ import annotations

import threading

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import AllocationError, OutOfSpaceError


def _next_power_of_two(n: int) -> int:
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


class BuddyAllocator:
    """Power-of-two buddy allocator over a contiguous block range.

    :param total_blocks: number of blocks managed (rounded down to the
        largest power of two if not already one, unless ``strict`` is set).
    :param min_order: smallest allocation unit, as log2 blocks.  Order 0 means
        single-block allocations are allowed.
    :param base: first block address managed; addresses handed out are
        absolute (``base`` + internal offset) so several allocators can share
        one device.
    """

    def __init__(
        self,
        total_blocks: int,
        min_order: int = 0,
        base: int = 0,
        strict: bool = False,
    ) -> None:
        if total_blocks <= 0:
            raise ValueError("total_blocks must be positive")
        if min_order < 0:
            raise ValueError("min_order must be non-negative")
        rounded = 1 << (total_blocks.bit_length() - 1)
        if rounded != total_blocks:
            if strict:
                raise ValueError("total_blocks must be a power of two in strict mode")
            total_blocks = rounded
        self.total_blocks = total_blocks
        self.base = base
        self.min_order = min_order
        self.max_order = total_blocks.bit_length() - 1
        if self.min_order > self.max_order:
            raise ValueError("min_order larger than the managed region")
        # free_lists[order] -> set of relative offsets of free chunks of 2**order blocks
        self._free_lists: Dict[int, Set[int]] = {
            order: set() for order in range(self.min_order, self.max_order + 1)
        }
        self._free_lists[self.max_order].add(0)
        # relative offset -> order, for every *allocated* chunk
        self._allocated: Dict[int, int] = {}
        self.allocations = 0
        self.frees = 0
        self.splits = 0
        self.coalesces = 0
        # Deferred frees run once their commit is durable — on the idle
        # flusher or a committing thread, outside any transaction — while
        # another thread's transaction allocates; the free lists are one
        # shared structure, so every mutation takes this leaf-level mutex
        # (re-entrant: the extent path allocates inside its own locked
        # scope).
        self._mutex = threading.RLock()

    # -- queries -------------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        """Number of blocks currently free."""
        return sum((1 << order) * len(chunks) for order, chunks in self._free_lists.items())

    @property
    def allocated_blocks(self) -> int:
        """Number of blocks currently handed out (including round-up padding)."""
        return self.total_blocks - self.free_blocks

    def owns(self, block: int) -> bool:
        """True if ``block`` is the start of a live allocation."""
        return (block - self.base) in self._allocated

    def allocation_order(self, block: int) -> Optional[int]:
        """Return the order of the allocation starting at ``block``, if any."""
        return self._allocated.get(block - self.base)

    def fragmentation(self) -> float:
        """Fraction of free space not available as the single largest chunk.

        0.0 means all free space is one contiguous chunk; values approaching
        1.0 mean the free space is shattered.  Used by the allocator ablation
        bench.
        """
        free = self.free_blocks
        if free == 0:
            return 0.0
        largest = 0
        for order in range(self.max_order, self.min_order - 1, -1):
            if self._free_lists[order]:
                largest = 1 << order
                break
        return 1.0 - (largest / free)

    # -- allocation ----------------------------------------------------------

    def order_for(self, nblocks: int) -> int:
        """Smallest order whose chunk holds ``nblocks`` blocks."""
        if nblocks <= 0:
            raise ValueError("nblocks must be positive")
        order = max(self.min_order, (_next_power_of_two(nblocks)).bit_length() - 1)
        return order

    def allocate(self, nblocks: int) -> int:
        """Allocate a chunk holding at least ``nblocks`` blocks.

        Returns the absolute address of the first block.  Raises
        :class:`OutOfSpaceError` if no chunk of sufficient size exists even
        after considering larger orders.
        """
        with self._mutex:
            order = self.order_for(nblocks)
            if order > self.max_order:
                raise OutOfSpaceError(
                    f"request of {nblocks} blocks exceeds region of {self.total_blocks}"
                )
            # Find the smallest order >= requested with a free chunk.
            source = None
            for candidate in range(order, self.max_order + 1):
                if self._free_lists[candidate]:
                    source = candidate
                    break
            if source is None:
                raise OutOfSpaceError(
                    f"no free chunk of {1 << order} blocks available "
                    f"({self.free_blocks} blocks free but fragmented)"
                )
            offset = min(self._free_lists[source])
            self._free_lists[source].remove(offset)
            # Split down to the requested order, returning buddies to free lists.
            while source > order:
                source -= 1
                buddy = offset + (1 << source)
                self._free_lists[source].add(buddy)
                self.splits += 1
            self._allocated[offset] = order
            self.allocations += 1
            return self.base + offset

    def free(self, block: int) -> None:
        """Free the allocation starting at absolute address ``block``.

        Coalesces with free buddies as far as possible.
        """
        with self._mutex:
            offset = block - self.base
            order = self._allocated.pop(offset, None)
            if order is None:
                raise AllocationError(f"block {block} is not the start of a live allocation")
            self.frees += 1
            while order < self.max_order:
                buddy = offset ^ (1 << order)
                if buddy not in self._free_lists[order]:
                    break
                self._free_lists[order].remove(buddy)
                offset = min(offset, buddy)
                order += 1
                self.coalesces += 1
            self._free_lists[order].add(offset)

    def reserve(self, block: int, nblocks: int) -> None:
        """Claim a *specific* range as allocated (mount-time rebuild).

        Crash recovery reconstructs allocator occupancy by walking the
        recovered trees (fsck-style): every reachable btree page and data
        chunk re-reserves the chunk it was originally allocated from.  The
        range is rounded up to the power-of-two order it was handed out at,
        must be aligned to that order, and must currently be free (or already
        reserved at exactly that order, which is idempotent — several extents
        of one object may share a chunk).
        """
        order = self.order_for(nblocks)
        if order > self.max_order:
            raise AllocationError(
                f"reservation of {nblocks} blocks exceeds the managed region"
            )
        offset = block - self.base
        if offset < 0 or offset + (1 << order) > self.total_blocks:
            raise AllocationError(f"reservation at block {block} outside the region")
        if offset % (1 << order):
            raise AllocationError(
                f"reservation at block {block} misaligned for order {order}"
            )
        with self._mutex:
            existing = self._allocated.get(offset)
            if existing is not None:
                if existing == order:
                    return  # already reserved by an earlier walk step
                raise AllocationError(
                    f"block {block} already allocated at order {existing}, "
                    f"cannot re-reserve at order {order}"
                )
            # Find the free chunk containing the range and split down to it.
            for source in range(order, self.max_order + 1):
                candidate = offset & ~((1 << source) - 1)
                if candidate in self._free_lists.get(source, ()):
                    self._free_lists[source].remove(candidate)
                    while source > order:
                        source -= 1
                        half = 1 << source
                        if offset < candidate + half:
                            self._free_lists[source].add(candidate + half)
                        else:
                            self._free_lists[source].add(candidate)
                            candidate += half
                        self.splits += 1
                    self._allocated[offset] = order
                    self.allocations += 1
                    return
            raise AllocationError(
                f"cannot reserve blocks [{block}, {block + (1 << order)}): "
                "range overlaps an existing allocation"
            )

    def allocate_extent(self, nblocks: int) -> Tuple[int, int]:
        """Allocate and return ``(first_block, chunk_blocks)``.

        ``chunk_blocks`` may exceed the request because of power-of-two
        rounding; the OSD records the chunk size so it can free correctly and
        reuse the slack when objects grow.
        """
        with self._mutex:
            order = self.order_for(nblocks)
            block = self.allocate(nblocks)
            return block, 1 << order

    # -- invariant checking (used by property tests) --------------------------

    def check_invariants(self) -> None:
        """Verify internal consistency; raises ``AssertionError`` on violation.

        Checks that (a) free chunks never overlap each other or allocations,
        (b) every block is either free or allocated exactly once, and
        (c) chunk offsets are aligned to their order.
        """
        covered: List[Tuple[int, int, str]] = []
        for order, chunks in self._free_lists.items():
            for offset in chunks:
                assert offset % (1 << order) == 0, "misaligned free chunk"
                covered.append((offset, 1 << order, "free"))
        for offset, order in self._allocated.items():
            assert offset % (1 << order) == 0, "misaligned allocation"
            covered.append((offset, 1 << order, "alloc"))
        covered.sort()
        position = 0
        for offset, size, _kind in covered:
            assert offset == position, f"gap or overlap at block {position}"
            position = offset + size
        assert position == self.total_blocks, "region not fully covered"
