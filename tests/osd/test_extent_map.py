"""Tests for the per-object extent map."""

import pytest

from repro.btree import BPlusTree
from repro.errors import InvalidRangeError
from repro.osd import ExtentMap, ObjectExtent


def make_map():
    return ExtentMap(BPlusTree(max_keys=8))


class TestObjectExtent:
    def test_encode_decode_roundtrip(self):
        extent = ObjectExtent(block=17, nblocks=4, skip=100, length=9000)
        assert ObjectExtent.decode(extent.encode()) == extent

    def test_validation(self):
        with pytest.raises(InvalidRangeError):
            ObjectExtent(block=-1, nblocks=1, skip=0, length=1)
        with pytest.raises(InvalidRangeError):
            ObjectExtent(block=0, nblocks=0, skip=0, length=1)
        with pytest.raises(InvalidRangeError):
            ObjectExtent(block=0, nblocks=1, skip=-1, length=1)

    def test_slice(self):
        extent = ObjectExtent(block=2, nblocks=2, skip=10, length=100)
        sub = extent.slice(20, 30)
        assert sub.skip == 30
        assert sub.length == 30
        assert sub.block == 2
        with pytest.raises(InvalidRangeError):
            extent.slice(90, 20)

    def test_a_chunk_value_carries_its_size_and_crc(self):
        extent = ObjectExtent(block=17, nblocks=4, skip=0, length=9000, size=9000, crc=0xDEADBEEF)
        assert ObjectExtent.decode(extent.encode()) == extent
        assert not ObjectExtent.names_entry(extent.encode())
        assert extent.whole_chunk
        sub = extent.slice(100, 50)
        assert (sub.crc, sub.size, sub.whole_chunk) == (0xDEADBEEF, 9000, False)

    def test_an_entry_value_round_trips_and_is_recognised_undecoded(self):
        entry = ObjectExtent.entry(42, 300)
        assert ObjectExtent.decode(entry.encode()) == entry
        assert ObjectExtent.names_entry(entry.encode())
        sub = entry.slice(100, 50)
        assert (sub.in_tree, sub.block, sub.skip, sub.length) == (True, 42, 100, 50)
        assert sub.source == entry.source != ObjectExtent(42, 1, 0, 300).source
        assert not entry.whole_chunk

    def test_an_entry_has_no_blocks(self):
        with pytest.raises(InvalidRangeError):
            ObjectExtent(block=42, nblocks=1, skip=0, length=1, in_tree=True)
        with pytest.raises(InvalidRangeError):
            ObjectExtent(block=-1, nblocks=0, skip=0, length=1, in_tree=True)


class TestExtentMapBasics:
    def test_insert_and_enumerate(self):
        emap = make_map()
        emap.insert_extent(0, ObjectExtent(1, 1, 0, 100))
        emap.insert_extent(100, ObjectExtent(2, 1, 0, 50))
        offsets = [offset for offset, _ in emap.extents()]
        assert offsets == [0, 100]
        assert emap.extent_count() == 2
        assert emap.mapped_bytes() == 150
        assert emap.end_offset() == 150
        emap.check_invariants()

    def test_zero_length_insert_ignored(self):
        emap = make_map()
        emap.insert_extent(0, ObjectExtent(1, 1, 0, 0))
        assert emap.extent_count() == 0

    def test_negative_offset_rejected(self):
        emap = make_map()
        with pytest.raises(InvalidRangeError):
            emap.insert_extent(-1, ObjectExtent(1, 1, 0, 10))

    def test_extents_in_range(self):
        emap = make_map()
        emap.insert_extent(0, ObjectExtent(1, 1, 0, 100))
        emap.insert_extent(100, ObjectExtent(2, 1, 0, 100))
        emap.insert_extent(300, ObjectExtent(3, 1, 0, 100))
        hits = emap.extents_in_range(50, 150)
        assert [offset for offset, _ in hits] == [0, 100]
        assert emap.extents_in_range(200, 300) == []
        with pytest.raises(InvalidRangeError):
            emap.extents_in_range(10, 5)

    def test_clear(self):
        emap = make_map()
        emap.insert_extent(0, ObjectExtent(1, 1, 0, 10))
        removed = emap.clear()
        assert len(removed) == 1
        assert emap.extent_count() == 0


class TestPunch:
    def make_populated(self):
        emap = make_map()
        emap.insert_extent(0, ObjectExtent(10, 1, 0, 100))
        emap.insert_extent(100, ObjectExtent(20, 1, 0, 100))
        emap.insert_extent(200, ObjectExtent(30, 1, 0, 100))
        return emap

    def test_punch_whole_extent(self):
        emap = self.make_populated()
        emap.punch(100, 200)
        offsets = [offset for offset, _ in emap.extents()]
        assert offsets == [0, 200]
        emap.check_invariants()

    def test_punch_splits_head_and_tail(self):
        emap = self.make_populated()
        emap.punch(50, 250)
        extents = list(emap.extents())
        assert [offset for offset, _ in extents] == [0, 250]
        assert extents[0][1].length == 50
        assert extents[1][1].length == 50
        assert extents[1][1].skip == 50  # tail keeps its mid-block position
        emap.check_invariants()

    def test_punch_inside_single_extent(self):
        emap = make_map()
        emap.insert_extent(0, ObjectExtent(10, 1, 0, 100))
        emap.punch(40, 60)
        extents = list(emap.extents())
        assert [offset for offset, _ in extents] == [0, 60]
        assert extents[0][1].length == 40
        assert extents[1][1].length == 40
        emap.check_invariants()

    def test_punch_empty_range_is_noop(self):
        emap = self.make_populated()
        emap.punch(50, 50)
        assert emap.extent_count() == 3

    def test_punch_bad_range(self):
        emap = self.make_populated()
        with pytest.raises(InvalidRangeError):
            emap.punch(10, 5)


class TestSplitAndShift:
    def test_split_at_midpoint(self):
        emap = make_map()
        emap.insert_extent(0, ObjectExtent(10, 1, 0, 100))
        emap.split_at(30)
        extents = list(emap.extents())
        assert [offset for offset, _ in extents] == [0, 30]
        assert extents[0][1].length == 30
        assert extents[1][1].length == 70
        assert extents[1][1].skip == 30

    def test_split_at_boundary_is_noop(self):
        emap = make_map()
        emap.insert_extent(0, ObjectExtent(10, 1, 0, 100))
        emap.insert_extent(100, ObjectExtent(20, 1, 0, 100))
        emap.split_at(100)
        assert emap.extent_count() == 2

    def test_split_in_hole_is_noop(self):
        emap = make_map()
        emap.insert_extent(0, ObjectExtent(10, 1, 0, 50))
        emap.insert_extent(100, ObjectExtent(20, 1, 0, 50))
        emap.split_at(75)
        assert emap.extent_count() == 2

    def test_shift_right(self):
        emap = make_map()
        emap.insert_extent(0, ObjectExtent(10, 1, 0, 50))
        emap.insert_extent(50, ObjectExtent(20, 1, 0, 50))
        moved = emap.shift(50, 25)
        assert moved == 1
        assert [offset for offset, _ in emap.extents()] == [0, 75]
        emap.check_invariants()

    def test_shift_left(self):
        emap = make_map()
        emap.insert_extent(0, ObjectExtent(10, 1, 0, 50))
        emap.insert_extent(100, ObjectExtent(20, 1, 0, 50))
        emap.shift(100, -50)
        assert [offset for offset, _ in emap.extents()] == [0, 50]
        emap.check_invariants()

    def test_shift_nothing(self):
        emap = make_map()
        emap.insert_extent(0, ObjectExtent(10, 1, 0, 50))
        assert emap.shift(100, 10) == 0
        assert emap.shift(0, 0) == 0

    def test_shift_below_zero_rejected(self):
        emap = make_map()
        emap.insert_extent(10, ObjectExtent(10, 1, 0, 50))
        with pytest.raises(InvalidRangeError):
            emap.shift(0, -20)
