"""Small writes live in the OSD's content tree, larger ones in chunks.

A write of at most ``inline_limit`` bytes (a quarter page) is one entry of
the content tree, keyed by a serial; an extent names that entry the way it
names a chunk, so ``insert`` and ``remove_range`` re-key and slice entries
without copying their bytes, and an entry goes, in the same transaction,
when the last extent naming it does.  Each round trip below is checked on
the live engine, on the device image a crash right after the operation
would leave (the journal tail replayed), and after a clean close.
"""

import pytest

from repro import HFADFileSystem
from repro.errors import CorruptionError
from repro.storage import BlockDevice

BASE = b"0123456789" * 30


def make_fs():
    device = BlockDevice(num_blocks=1 << 14)
    return device, HFADFileSystem(device=device, query_cache_entries=0)


def clone(device):
    """A reboot: only the device bytes survive."""
    image = BlockDevice(num_blocks=device.num_blocks, block_size=device.block_size)
    image.load(device.dump())
    return image


def extent_kinds(fs, oid):
    """``in_tree`` of each of the object's extents, in offset order."""
    return [extent.in_tree for _offset, extent in fs.objects._extent_map(oid).extents()]


def content_entries(fs):
    return len(fs.objects._content)


def assert_answers(fs, expected):
    """``expected`` maps oid → content, or None for a deleted object."""
    for oid, content in expected.items():
        if content is None:
            assert not fs.exists(oid)
        else:
            assert fs.read(oid) == content
    report = fs.fsck()
    assert report["clean"], report["errors"]


def assert_survives(device, fs, expected):
    """The crash image replays to ``expected``, and so does a clean remount."""
    crashed = HFADFileSystem.mount(clone(device))
    assert crashed.stats()["recovery"]["replayed_transactions"] > 0
    assert_answers(crashed, expected)
    crashed.close()
    fs.close()
    remounted = HFADFileSystem.mount(device)
    assert_answers(remounted, expected)
    remounted.close()


def edit_write(fs, oid):
    fs.write(oid, 100, b"W" * 50)
    return BASE[:100] + b"W" * 50 + BASE[150:]


def edit_append(fs, oid):
    fs.append(oid, b" and a tail")
    return BASE + b" and a tail"


def edit_insert(fs, oid):
    fs.insert(oid, 120, b"[inserted]")
    return BASE[:120] + b"[inserted]" + BASE[120:]


def edit_remove_range(fs, oid):
    fs.truncate(oid, 50, 100)
    return BASE[:50] + BASE[150:]


def edit_truncate(fs, oid):
    fs.resize(oid, 120)
    return BASE[:120]


def edit_compact(fs, oid):
    fs.insert(oid, 7, b"--")
    fs.write(oid, 200, b"!!")
    fs.objects.compact(oid)
    return (BASE[:7] + b"--" + BASE[7:])[:200] + b"!!" + (BASE[:7] + b"--" + BASE[7:])[202:]


def edit_delete(fs, oid):
    fs.delete(oid)
    return None


@pytest.mark.parametrize("edit", [edit_write, edit_append, edit_insert, edit_remove_range,
                                  edit_truncate, edit_compact, edit_delete],
                         ids=lambda edit: edit.__name__[len("edit_"):])
def test_an_inline_edit_round_trips_through_a_crash_and_a_remount(edit):
    device, fs = make_fs()
    oid = fs.create(BASE, path="/small.txt")
    neighbour = fs.create(b"a neighbour's bytes", path="/other.txt")
    assert extent_kinds(fs, oid) == [True]
    expected = edit(fs, oid)
    if expected is not None:
        # Every extent still names an entry: nothing took a chunk.
        assert set(extent_kinds(fs, oid)) == {True}
    assert_answers(fs, {oid: expected, neighbour: b"a neighbour's bytes"})
    assert_survives(device, fs, {oid: expected, neighbour: b"a neighbour's bytes"})


def test_a_split_entry_is_shared_and_freed_with_its_last_extent():
    _device, fs = make_fs()
    oid = fs.create(BASE)
    assert content_entries(fs) == 1
    fs.insert(oid, 100, b"+")  # splits the entry: two extents name it
    assert extent_kinds(fs, oid) == [True, True, True]
    assert content_entries(fs) == 2
    fs.truncate(oid, 0, 101)  # the head and the insert go, the tail stays
    assert content_entries(fs) == 1
    assert fs.read(oid) == BASE[100:]
    fs.truncate(oid, 0, fs.size(oid))
    assert content_entries(fs) == 0
    assert fs.fsck()["clean"]
    fs.close()


def test_an_object_crosses_the_inline_limit_both_ways():
    device, fs = make_fs()
    limit = fs.objects.inline_limit
    assert limit == fs.objects._content.store.page_bytes // 4
    allocator = fs.objects.allocator
    baseline = allocator.allocated_blocks
    oid = fs.create(b"a" * limit)  # exactly at the limit: an entry
    assert extent_kinds(fs, oid) == [True]
    fs.append(oid, b"b" * (limit + 1))  # one byte over: a chunk
    assert extent_kinds(fs, oid) == [True, False]
    assert allocator.allocated_blocks > baseline
    expected = b"a" * limit + b"b" * (limit + 1)
    fs.objects.compact(oid)  # the whole object is over the limit: one chunk
    assert extent_kinds(fs, oid) == [False]
    assert content_entries(fs) == 0
    assert fs.read(oid) == expected
    fs.resize(oid, 10)  # a slice of the chunk keeps naming it
    assert extent_kinds(fs, oid) == [False]
    fs.objects.compact(oid)  # back under the limit: one entry, chunk freed
    assert extent_kinds(fs, oid) == [True]
    assert fs.read(oid) == b"a" * 10
    expected = {oid: b"a" * 10}
    assert_answers(fs, expected)
    assert allocator.allocated_blocks == baseline
    fs.write(oid, 5, b"c" * (limit + 1))  # an overwrite over the limit
    assert extent_kinds(fs, oid) == [True, False]
    expected = {oid: b"a" * 5 + b"c" * (limit + 1)}
    assert_answers(fs, expected)
    assert_survives(device, fs, expected)


def test_fsck_reports_an_unnamed_entry_as_a_leak_and_a_missing_one():
    _device, fs = make_fs()
    oid = fs.create(b"named bytes")
    key = fs.objects._content.first()[0]
    with fs.recovery.transaction():
        fs.objects._content.put((99).to_bytes(8, "big"), b"stray bytes")
    errors = fs.fsck()["errors"]
    assert "content tree: leak: entry 99 is named by no extent" in errors, errors
    with fs.recovery.transaction():
        fs.objects._content.delete(key)
    errors = fs.fsck()["errors"]
    assert f"content tree: entry {int.from_bytes(key, 'big')} is named but missing" in errors
    with pytest.raises(CorruptionError, match="missing"):
        fs.read(oid)
    fs.close()

