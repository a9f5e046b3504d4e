"""Tests for the OSD object store, including a model-based property test."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidRangeError, NoSuchObjectError
from repro.osd import ObjectStore
from repro.storage import BlockDevice


def make_store(**kwargs):
    return ObjectStore(**kwargs)


class TestLifecycle:
    def test_create_and_stat(self):
        store = make_store()
        oid = store.create(owner="margo", mode=0o600, attributes={"app": "photos"})
        metadata = store.stat(oid)
        assert metadata.size == 0
        assert metadata.owner == "margo"
        assert metadata.mode == 0o600
        assert metadata.attributes == {"app": "photos"}

    def test_oids_unique_and_increasing(self):
        store = make_store()
        oids = [store.create() for _ in range(10)]
        assert oids == sorted(oids)
        assert len(set(oids)) == 10

    def test_exists_and_delete(self):
        store = make_store()
        oid = store.create()
        assert store.exists(oid)
        store.delete(oid)
        assert not store.exists(oid)
        with pytest.raises(NoSuchObjectError):
            store.stat(oid)
        with pytest.raises(NoSuchObjectError):
            store.delete(oid)

    def test_list_objects_and_count(self):
        store = make_store()
        oids = [store.create() for _ in range(5)]
        store.delete(oids[2])
        assert store.list_objects() == [oids[0], oids[1], oids[3], oids[4]]
        assert store.object_count == 4

    def test_delete_frees_data_blocks(self):
        store = make_store()
        oid = store.create()
        store.write(oid, 0, b"x" * 100_000)
        used = store.allocator.allocated_blocks
        assert used > 0
        store.delete(oid)
        assert store.allocator.allocated_blocks < used

    def test_operations_on_missing_object(self):
        store = make_store()
        with pytest.raises(NoSuchObjectError):
            store.read(999)
        with pytest.raises(NoSuchObjectError):
            store.write(999, 0, b"x")
        with pytest.raises(NoSuchObjectError):
            store.insert(999, 0, b"x")
        with pytest.raises(NoSuchObjectError):
            store.remove_range(999, 0, 1)


class TestReadWrite:
    def test_write_then_read(self):
        store = make_store()
        oid = store.create()
        store.write(oid, 0, b"hello world")
        assert store.read(oid) == b"hello world"
        assert store.size(oid) == 11

    def test_partial_read(self):
        store = make_store()
        oid = store.create()
        store.write(oid, 0, b"hello world")
        assert store.read(oid, 6, 5) == b"world"
        assert store.read(oid, 6) == b"world"

    def test_read_past_end(self):
        store = make_store()
        oid = store.create()
        store.write(oid, 0, b"abc")
        assert store.read(oid, 10, 5) == b""
        assert store.read(oid, 2, 100) == b"c"

    def test_overwrite_middle(self):
        store = make_store()
        oid = store.create()
        store.write(oid, 0, b"aaaaaaaaaa")
        store.write(oid, 3, b"BBB")
        assert store.read(oid) == b"aaaBBBaaaa"

    def test_sparse_write_leaves_zero_hole(self):
        store = make_store()
        oid = store.create()
        store.write(oid, 100, b"tail")
        assert store.size(oid) == 104
        data = store.read(oid)
        assert data[:100] == bytes(100)
        assert data[100:] == b"tail"

    def test_append(self):
        store = make_store()
        oid = store.create()
        assert store.append(oid, b"one") == 0
        assert store.append(oid, b"two") == 3
        assert store.read(oid) == b"onetwo"

    def test_large_write_spans_multiple_extents(self):
        store = make_store(max_extent_blocks=2)
        oid = store.create()
        payload = bytes(range(256)) * 200  # ~51 KB, block size 4096
        store.write(oid, 0, payload)
        assert store.extent_count(oid) > 1
        assert store.read(oid) == payload

    def test_empty_write_and_read(self):
        store = make_store()
        oid = store.create()
        assert store.write(oid, 0, b"") == 0
        assert store.read(oid) == b""

    def test_negative_offsets_rejected(self):
        store = make_store()
        oid = store.create()
        with pytest.raises(InvalidRangeError):
            store.write(oid, -1, b"x")
        with pytest.raises(InvalidRangeError):
            store.read(oid, -1)
        store.write(oid, 0, b"abc")
        with pytest.raises(InvalidRangeError):
            store.read(oid, 0, -5)

    def test_write_updates_times(self):
        store = make_store()
        oid = store.create()
        before = store.stat(oid).modified_at
        store.write(oid, 0, b"data")
        assert store.stat(oid).modified_at > before

    def test_data_really_lives_on_device(self):
        device = BlockDevice(num_blocks=1 << 14)
        store = ObjectStore(device=device)
        oid = store.create()
        store.write(oid, 0, b"find-me-on-disk")
        assert device.stats.writes > 0
        found = any(
            b"find-me-on-disk" in device.read_block(block)
            for block in list(device.dump().keys())
        )
        assert found


class TestInsert:
    def test_insert_in_middle(self):
        store = make_store()
        oid = store.create()
        store.write(oid, 0, b"hello world")
        store.insert(oid, 5, b" brave new")
        assert store.read(oid) == b"hello brave new world"
        assert store.size(oid) == 21

    def test_insert_at_start_and_end(self):
        store = make_store()
        oid = store.create()
        store.write(oid, 0, b"middle")
        store.insert(oid, 0, b"start-")
        store.insert(oid, store.size(oid), b"-end")
        assert store.read(oid) == b"start-middle-end"

    def test_insert_into_empty_object(self):
        store = make_store()
        oid = store.create()
        store.insert(oid, 0, b"first bytes")
        assert store.read(oid) == b"first bytes"

    def test_insert_beyond_size_rejected(self):
        store = make_store()
        oid = store.create()
        store.write(oid, 0, b"abc")
        with pytest.raises(InvalidRangeError):
            store.insert(oid, 10, b"x")
        with pytest.raises(InvalidRangeError):
            store.insert(oid, -1, b"x")

    def test_empty_insert_is_noop(self):
        store = make_store()
        oid = store.create()
        store.write(oid, 0, b"abc")
        assert store.insert(oid, 1, b"") == 0
        assert store.read(oid) == b"abc"

    def test_repeated_inserts(self):
        store = make_store()
        oid = store.create()
        store.write(oid, 0, b"0123456789")
        reference = bytearray(b"0123456789")
        for position, payload in [(3, b"AAA"), (0, b"B"), (7, b"CC"), (14, b"D")]:
            store.insert(oid, position, payload)
            reference[position:position] = payload
        assert store.read(oid) == bytes(reference)
        store.check_object(oid)

    def test_insert_does_not_copy_existing_data(self):
        store = make_store()
        oid = store.create()
        store.write(oid, 0, b"x" * 1_000_000)
        written_before = store.device.stats.blocks_written
        store.insert(oid, 500_000, b"tiny")
        written_after = store.device.stats.blocks_written
        # Only the inserted bytes (1 block) plus nothing else hit the device.
        assert written_after - written_before <= 2


class TestRemoveRangeAndTruncate:
    def test_remove_middle(self):
        store = make_store()
        oid = store.create()
        store.write(oid, 0, b"hello cruel world")
        removed = store.remove_range(oid, 5, 6)
        assert removed == 6
        assert store.read(oid) == b"hello world"
        assert store.size(oid) == 11

    def test_remove_clamped_to_size(self):
        store = make_store()
        oid = store.create()
        store.write(oid, 0, b"abcdef")
        assert store.remove_range(oid, 4, 100) == 2
        assert store.read(oid) == b"abcd"

    def test_remove_past_end_is_noop(self):
        store = make_store()
        oid = store.create()
        store.write(oid, 0, b"abc")
        assert store.remove_range(oid, 10, 5) == 0
        assert store.remove_range(oid, 1, 0) == 0

    def test_remove_validation(self):
        store = make_store()
        oid = store.create()
        store.write(oid, 0, b"abc")
        with pytest.raises(InvalidRangeError):
            store.remove_range(oid, -1, 2)
        with pytest.raises(InvalidRangeError):
            store.remove_range(oid, 0, -2)

    def test_truncate_shrink(self):
        store = make_store()
        oid = store.create()
        store.write(oid, 0, b"0123456789")
        store.truncate(oid, 4)
        assert store.read(oid) == b"0123"
        assert store.size(oid) == 4

    def test_truncate_grow_is_sparse(self):
        store = make_store()
        oid = store.create()
        store.write(oid, 0, b"abc")
        store.truncate(oid, 10)
        assert store.size(oid) == 10
        assert store.read(oid) == b"abc" + bytes(7)

    def test_truncate_negative_rejected(self):
        store = make_store()
        oid = store.create()
        with pytest.raises(InvalidRangeError):
            store.truncate(oid, -1)

    def test_remove_does_not_copy_surviving_data(self):
        store = make_store()
        oid = store.create()
        store.write(oid, 0, b"y" * 1_000_000)
        written_before = store.device.stats.blocks_written
        store.remove_range(oid, 100_000, 50_000)
        assert store.device.stats.blocks_written == written_before
        assert store.size(oid) == 950_000


class TestMetadataOperations:
    def test_set_attributes(self):
        store = make_store()
        oid = store.create()
        store.set_attributes(oid, camera="nikon", iso=400)
        assert store.stat(oid).attributes == {"camera": "nikon", "iso": "400"}

    def test_chown_chmod(self):
        store = make_store()
        oid = store.create()
        store.chown(oid, "nick", "students")
        store.chmod(oid, 0o400)
        metadata = store.stat(oid)
        assert (metadata.owner, metadata.group, metadata.mode) == ("nick", "students", 0o400)

    def test_chown_without_group(self):
        store = make_store()
        oid = store.create()
        store.chown(oid, "nick")
        assert store.stat(oid).group == "root"


class TestCompaction:
    def test_compact_preserves_contents_and_frees_space(self):
        store = make_store()
        oid = store.create()
        store.write(oid, 0, b"A" * 200_000)
        store.remove_range(oid, 0, 150_000)
        allocated_before = store.allocator.allocated_blocks
        freed = store.compact(oid)
        assert freed > 0
        assert store.allocator.allocated_blocks < allocated_before
        assert store.read(oid) == b"A" * 50_000
        store.check_object(oid)

    def test_compact_empty_object(self):
        store = make_store()
        oid = store.create()
        assert store.compact(oid) == 0
        assert store.read(oid) == b""

    def test_stats_counters(self):
        store = make_store()
        oid = store.create()
        store.write(oid, 0, b"abc")
        store.read(oid)
        store.insert(oid, 1, b"x")
        store.remove_range(oid, 0, 1)
        assert store.stats.bytes_written == 3
        assert store.stats.bytes_read == 3
        assert store.stats.bytes_inserted == 1
        assert store.stats.bytes_removed == 1
        assert store.stats.objects_created == 1


class TestDeviceBackedBtrees:
    def test_btree_on_device_roundtrip(self):
        device = BlockDevice(num_blocks=1 << 15)
        store = ObjectStore(device=device, btree_on_device=True)
        oid = store.create()
        store.write(oid, 0, b"persisted through device-resident btrees")
        store.insert(oid, 9, b" and grown")
        assert store.read(oid) == b"persisted and grown through device-resident btrees"


@st.composite
def edit_scripts(draw):
    ops = []
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(["write", "insert", "remove", "truncate"]))
        ops.append(
            (
                kind,
                draw(st.integers(0, 3000)),
                draw(st.binary(min_size=0, max_size=2000)),
                draw(st.integers(0, 2500)),
            )
        )
    return ops


class TestObjectStoreProperties:
    @settings(max_examples=30, deadline=None)
    @given(edit_scripts())
    def test_matches_bytearray_model(self, script):
        store = make_store()
        oid = store.create()
        model = bytearray()
        for kind, offset, data, length in script:
            if kind == "write":
                if data:  # zero-byte pwrite never extends the file
                    if offset > len(model):
                        model.extend(bytes(offset - len(model)))
                    model[offset:offset + len(data)] = data
                store.write(oid, offset, data)
            elif kind == "insert":
                offset = min(offset, len(model))
                model[offset:offset] = data
                store.insert(oid, offset, data)
            elif kind == "remove":
                end = min(offset + length, len(model))
                if offset < len(model):
                    del model[offset:end]
                store.remove_range(oid, offset, length)
            else:  # truncate
                if length < len(model):
                    del model[length:]
                else:
                    model.extend(bytes(length - len(model)))
                store.truncate(oid, length)
            assert store.size(oid) == len(model)
        assert store.read(oid) == bytes(model)
        store.check_object(oid)
