"""Unit and property-based tests for the buddy allocator."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, OutOfSpaceError
from repro.storage.buddy import BuddyAllocator, _next_power_of_two


class TestNextPowerOfTwo:
    @pytest.mark.parametrize(
        "n,expected",
        [(0, 1), (1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (1023, 1024), (1024, 1024)],
    )
    def test_values(self, n, expected):
        assert _next_power_of_two(n) == expected


class TestBasicAllocation:
    def test_allocate_returns_in_range_address(self):
        alloc = BuddyAllocator(total_blocks=64)
        block = alloc.allocate(4)
        assert 0 <= block < 64

    def test_base_offset_applied(self):
        alloc = BuddyAllocator(total_blocks=64, base=1000)
        block = alloc.allocate(1)
        assert block >= 1000

    def test_allocations_do_not_overlap(self):
        alloc = BuddyAllocator(total_blocks=128)
        seen = set()
        for _ in range(16):
            block = alloc.allocate(8)
            for b in range(block, block + 8):
                assert b not in seen
                seen.add(b)

    def test_requests_rounded_to_power_of_two(self):
        alloc = BuddyAllocator(total_blocks=64)
        block, chunk = alloc.allocate_extent(5)
        assert chunk == 8
        assert alloc.allocation_order(block) == 3

    def test_exhaustion_raises(self):
        alloc = BuddyAllocator(total_blocks=16)
        alloc.allocate(16)
        with pytest.raises(OutOfSpaceError):
            alloc.allocate(1)

    def test_oversized_request_raises(self):
        alloc = BuddyAllocator(total_blocks=16)
        with pytest.raises(OutOfSpaceError):
            alloc.allocate(32)

    def test_min_order_enforced(self):
        alloc = BuddyAllocator(total_blocks=64, min_order=2)
        block = alloc.allocate(1)
        assert alloc.allocation_order(block) == 2

    def test_non_power_of_two_region_rounded_down(self):
        alloc = BuddyAllocator(total_blocks=100)
        assert alloc.total_blocks == 64

    def test_strict_mode_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            BuddyAllocator(total_blocks=100, strict=True)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            BuddyAllocator(total_blocks=0)
        with pytest.raises(ValueError):
            BuddyAllocator(total_blocks=8, min_order=-1)
        with pytest.raises(ValueError):
            BuddyAllocator(total_blocks=8, min_order=10)
        alloc = BuddyAllocator(total_blocks=8)
        with pytest.raises(ValueError):
            alloc.allocate(0)


class TestFreeAndCoalesce:
    def test_free_returns_space(self):
        alloc = BuddyAllocator(total_blocks=64)
        block = alloc.allocate(32)
        assert alloc.free_blocks == 32
        alloc.free(block)
        assert alloc.free_blocks == 64

    def test_full_coalesce_restores_max_order(self):
        alloc = BuddyAllocator(total_blocks=64)
        blocks = [alloc.allocate(1) for _ in range(64)]
        for block in blocks:
            alloc.free(block)
        # After freeing everything we should be able to allocate the region whole.
        assert alloc.allocate(64) is not None

    def test_double_free_detected(self):
        alloc = BuddyAllocator(total_blocks=16)
        block = alloc.allocate(4)
        alloc.free(block)
        with pytest.raises(AllocationError):
            alloc.free(block)

    def test_free_of_unallocated_address_detected(self):
        alloc = BuddyAllocator(total_blocks=16)
        with pytest.raises(AllocationError):
            alloc.free(3)

    def test_owns(self):
        alloc = BuddyAllocator(total_blocks=16)
        block = alloc.allocate(2)
        assert alloc.owns(block)
        assert not alloc.owns(block + 1)

    def test_fragmentation_metric(self):
        alloc = BuddyAllocator(total_blocks=64)
        assert alloc.fragmentation() == 0.0
        kept = []
        freed = []
        for i in range(32):
            block = alloc.allocate(2)
            (kept if i % 2 == 0 else freed).append(block)
        for block in freed:
            alloc.free(block)
        assert 0.0 < alloc.fragmentation() < 1.0

    def test_counters(self):
        alloc = BuddyAllocator(total_blocks=64)
        a = alloc.allocate(1)
        b = alloc.allocate(1)
        alloc.free(a)
        alloc.free(b)
        assert alloc.allocations == 2
        assert alloc.frees == 2
        assert alloc.splits > 0
        assert alloc.coalesces > 0


@st.composite
def allocation_scripts(draw):
    """A random sequence of allocate/free operations with valid sizes."""
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(["alloc", "free"]), st.integers(1, 32)),
            min_size=1,
            max_size=60,
        )
    )
    return ops


class TestBuddyProperties:
    @settings(max_examples=60, deadline=None)
    @given(allocation_scripts())
    def test_invariants_hold_under_random_scripts(self, script):
        alloc = BuddyAllocator(total_blocks=256)
        live = []
        for op, size in script:
            if op == "alloc":
                try:
                    block = alloc.allocate(size)
                except OutOfSpaceError:
                    continue
                live.append(block)
            elif live:
                index = size % len(live)
                alloc.free(live.pop(index))
            alloc.check_invariants()
        # Freeing everything must restore a fully free, coalesced region.
        for block in live:
            alloc.free(block)
        alloc.check_invariants()
        assert alloc.free_blocks == 256

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 64), min_size=1, max_size=20))
    def test_allocations_never_overlap(self, sizes):
        alloc = BuddyAllocator(total_blocks=1024)
        occupied = set()
        for size in sizes:
            try:
                block, chunk = alloc.allocate_extent(size)
            except OutOfSpaceError:
                continue
            covered = set(range(block, block + chunk))
            assert not (covered & occupied)
            occupied |= covered


class TestConcurrentInvariantCheck:
    def test_check_invariants_is_atomic_against_allocate_and_free(self):
        # fsck walks the free lists while the idle flusher's deferred frees
        # (and a writer's allocations) mutate them: the walk must see one
        # state, never a half-split chunk or a set resized under it.
        alloc = BuddyAllocator(total_blocks=1 << 12)
        stop = threading.Event()
        errors = []

        def churn(seed):
            rng = random.Random(seed)
            live = []
            try:
                while not stop.is_set():
                    if live and (len(live) > 64 or rng.random() < 0.5):
                        alloc.free(live.pop(rng.randrange(len(live))))
                    else:
                        live.append(alloc.allocate(rng.choice((1, 1, 2, 4, 8))))
            except Exception as error:  # noqa: BLE001 — reported below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        workers = [threading.Thread(target=churn, args=(seed,)) for seed in (1, 2)]
        try:
            for worker in workers:
                worker.start()
            for _ in range(300):
                alloc.check_invariants()
        finally:
            stop.set()
            for worker in workers:
                worker.join()
            sys.setswitchinterval(previous)
        assert not errors
