"""Every naming API answers the same after a remount.

A POSIX path is one name among many (``POSIX/P``), and a tag no store
claims is served by the key/value store, so every way of adding or removing
a name must persist the same entry the index holds.  Each row below mixes
``create(path=, tags=)``, ``tag``, ``untag``, ``link_path``, ``unlink_path``,
``rename_path`` and ``rename_path_subtree`` over attribute tags, unclaimed
tags, POSIX names set by ``tag()`` and by the path API, and denormalised
paths; then ``lookup_path``, ``paths_for``, ``list_directory``,
``list_subtree``, ``names_for`` and ``find`` must answer as before, both
after a crash (journal replay) and after a clean close.
"""

from dataclasses import replace

import pytest

from repro.core import HFADFileSystem
from repro.errors import DuplicateIndexError, IndexStoreError, RecoveryError
from repro.index import KeyValueIndexStore, TagValue
from repro.recovery import Superblock
from repro.storage import BlockDevice

# An op is ("create", name, kwargs) or (fs method, *args); an argument that
# is an object's name ("a", "b", "c") stands for its oid.
ROWS = {
    "untag_a_path_given_at_create": [
        ("create", "a", {"path": "/y"}),
        ("untag", "a", "POSIX", "/y"),
    ],
    "unlink_a_denormalised_tag": [
        ("create", "a", {}),
        ("tag", "a", "POSIX", "z/./w"),
        ("unlink_path", "/z/w"),
    ],
    "untag_a_linked_path": [
        ("create", "a", {}),
        ("link_path", "/q", "a"),
        ("untag", "a", "POSIX", "/q"),
    ],
    "rename_a_tagged_path": [
        ("create", "a", {}),
        ("tag", "a", "POSIX", "/r"),
        ("rename_path", "/r", "/s"),
    ],
    "tag_a_path_another_object_holds": [
        ("create", "b", {"path": "/x"}),
        ("create", "a", {}),
        ("tag", "a", "POSIX", "/x"),
    ],
    "link_over_a_tagged_path": [
        ("create", "a", {}),
        ("create", "b", {}),
        ("tag", "b", "POSIX", "/x"),
        ("link_path", "/x", "a"),
    ],
    "posix_in_create_tags": [
        ("create", "a", {"tags": [("POSIX", "p//q/")], "path": "k/../l"}),
        ("unlink_path", "/p/q"),
        ("untag", "a", "POSIX", "l"),
    ],
    "untag_a_denormalised_spelling": [
        ("create", "a", {}),
        ("link_path", "/m/n", "a"),
        ("untag", "a", "POSIX", "m//n/"),
    ],
    "rename_onto_a_bound_path": [
        ("create", "a", {"path": "/s"}),
        ("create", "b", {"tags": [("POSIX", "/t")]}),
        ("rename_path", "/s", "/t"),
    ],
    "subtree_rename_of_mixed_paths": [
        ("create", "a", {}),
        ("create", "b", {}),
        ("create", "c", {"path": "/d/sub/3"}),
        ("tag", "a", "POSIX", "/d/1"),
        ("link_path", "/d/2", "b"),
        ("rename_path_subtree", "/d", "/e"),
        ("untag", "a", "POSIX", "/e/1"),
    ],
    "subtree_rename_displaces": [
        ("create", "a", {"path": "/d/1"}),
        ("create", "b", {}),
        ("tag", "b", "POSIX", "/e/1"),
        ("rename_path_subtree", "d", "/e/"),
    ],
    "unclaimed_tags": [
        ("create", "a", {"tags": [("PLACE", "beach")]}),
        ("create", "b", {}),
        ("tag", "b", "PLACE", "beach"),
        ("tag", "a", "mood", "calm"),
        ("untag", "b", "PLACE", "beach"),
    ],
    "attribute_tags": [
        ("create", "a", {"owner": "u", "application": "app", "annotations": ["x"]}),
        ("tag", "a", "UDEF", "y"),
        ("untag", "a", "UDEF", "x"),
        ("untag", "a", "USER", "u"),
    ],
}

PROBE_PATHS = [
    "/y", "/z/w", "z/./w", "/q", "/r", "/s", "/t", "/x", "/p/q", "/l",
    "/m/n", "m//n/", "/d/1", "/d/2", "/d/sub/3", "/e/1", "/e/2", "/e/sub/3",
]
PROBE_DIRECTORIES = ["/", "/d", "/e", "e/sub/", "/m", "/z", "/nowhere"]


def make_fs():
    device = BlockDevice(num_blocks=1 << 14, block_size=512)
    return device, HFADFileSystem(device=device, journal_blocks=127,
                                  cache_pages=64)


def clone(device):
    image = BlockDevice(num_blocks=device.num_blocks, block_size=device.block_size)
    image.load(device.dump())
    return image


def run(fs, ops):
    oids = {}
    for op in ops:
        if op[0] == "create":
            _create, name, kwargs = op
            oids[name] = fs.create(f"object {name}".encode(), **kwargs)
        else:
            api, *args = op
            getattr(fs, api)(*(oids.get(arg, arg) if isinstance(arg, str) else arg
                               for arg in args))
    return oids


def probe_pairs(fs, ops, oids):
    """Every pair the row's ops named, every path probed, and every name
    the objects carry before the remount."""
    pairs = {("POSIX", path) for path in PROBE_PATHS}
    for op in ops:
        if op[0] in ("tag", "untag"):
            pairs.add(op[2:])
        elif op[0] == "create":
            pairs.update(op[2].get("tags", ()))
    for oid in oids.values():
        pairs.update(pair.as_tuple() for pair in fs.names_for(oid))
    return sorted(pairs)


def answers(fs, oids, pairs):
    return {
        "lookup_path": {path: fs.lookup_path(path) for path in PROBE_PATHS},
        "paths_for": {name: fs.paths_for(oid) for name, oid in oids.items()},
        "list_directory": {path: fs.list_directory(path) for path in PROBE_DIRECTORIES},
        "list_subtree": {path: fs.list_subtree(path) for path in PROBE_DIRECTORIES},
        "names_for": {name: [str(pair) for pair in fs.names_for(oid)]
                      for name, oid in oids.items()},
        "find": {pair: fs.find(pair) for pair in pairs},
    }


@pytest.mark.parametrize("ops", ROWS.values(), ids=ROWS.keys())
def test_every_naming_api_answers_the_same_after_remount(ops):
    device, fs = make_fs()
    oids = run(fs, ops)
    pairs = probe_pairs(fs, ops, oids)
    expected = answers(fs, oids, pairs)
    crashed = HFADFileSystem.mount(clone(device))  # replays the journal
    assert answers(crashed, oids, pairs) == expected
    fs.close()
    remounted = HFADFileSystem.mount(clone(device))
    assert answers(remounted, oids, pairs) == expected
    assert len(remounted.registry.stores) == len(fs.registry.stores)
    assert remounted.fsck()["clean"]


class TestOneEncoding:
    def test_paths_and_tags_share_one_entry_spelling(self):
        _device, fs = make_fs()
        oid = fs.create(b"", path="a//b", tags=[("PLACE", "beach")])
        assert set(fs.objects.names(oid)) == {
            "USER/root", "PLACE/beach", "POSIX//a/b"}
        fs.close()

    def test_a_bad_name_is_refused_before_anything_is_logged(self):
        device, fs = make_fs()
        survivor = fs.create(b"survivor")
        for bad in ([("UDEF", "a\x00b")], [("BAD\x00TAG", "v")],
                    [("A/B", "v")], [("ID", "7")]):
            with pytest.raises(IndexStoreError):
                fs.create(b"x", tags=bad)
            with pytest.raises(IndexStoreError):
                fs.tag(survivor, *bad[0])
        assert not fs.recovery.poisoned
        after = fs.create(b"after")
        mounted = HFADFileSystem.mount(clone(device))
        assert mounted.list_objects() == [survivor, after]


class TestUnclaimedTags:
    def test_a_fresh_engine_serves_a_tag_no_store_claims(self):
        _device, fs = make_fs()
        stores = len(fs.registry.stores)
        oid = fs.create(b"sand and sea")
        fs.tag(oid, "PLACE", "beach")
        assert fs.find(("PLACE", "beach")) == [oid]
        assert fs.query("PLACE/beach AND FULLTEXT/sea") == [oid]
        assert fs.registry.store_for("PLACE") is fs.keyvalue_index
        assert len(fs.registry.stores) == stores
        fs.close()

    def test_untag_and_delete_invalidate_a_cached_find(self):
        _device, fs = make_fs()
        first, second = fs.create(b"one"), fs.create(b"two")
        fs.tag(first, "PLACE", "beach")
        fs.tag(second, "PLACE", "beach")
        assert fs.find(("PLACE", "beach")) == [first, second]
        assert fs.find(("PLACE", "beach")) == [first, second]  # cached
        fs.untag(first, "PLACE", "beach")
        assert fs.find(("PLACE", "beach")) == [second]
        fs.delete(second)
        assert fs.find(("PLACE", "beach")) == []
        fs.close()

    def test_claiming_a_tag_that_already_names_objects_is_refused(self):
        device, fs = make_fs()
        fs.tag(fs.create(b"one"), "PLACE", "beach")
        with pytest.raises(DuplicateIndexError):
            fs.registry.register(KeyValueIndexStore(tags=["PLACE"]))
        # A tag nothing names yet may still get a store of its own, as
        # before any object exists.
        fs.registry.register(KeyValueIndexStore(tags=["PROJECT", "KIND"]))
        fs.close()
        mounted = HFADFileSystem.mount(clone(device))
        with pytest.raises(DuplicateIndexError):
            mounted.registry.register(KeyValueIndexStore(tags=["PLACE"]))


def test_a_format_2_image_is_refused_untouched():
    # What the two-encoding code wrote: ``p:/a`` and ``n:TAG/v`` entries
    # under a superblock stamped osd_format=2.  Mounted, every path would
    # read as a name of tag ``P:`` and vanish from lookup_path; the mount
    # must refuse before replay writes its journal tail home.
    device, fs = make_fs()
    oid = fs.create(b"old layout")
    with fs.recovery.transaction():  # committed, never written home
        fs.objects.put_name(oid, "p:/old")
    replace(Superblock.load(device), osd_format=2).store(device)
    before, writes = device.dump(), device.stats.writes
    with pytest.raises(RecoveryError, match="osd_format=2"):
        HFADFileSystem.mount(device)
    assert device.stats.writes == writes
    assert device.dump() == before


def test_names_for_reports_a_path_as_a_posix_pair():
    _device, fs = make_fs()
    oid = fs.create(b"", path="/a")
    fs.tag(oid, "POSIX", "b/")
    assert [pair for pair in fs.names_for(oid) if pair.tag == "POSIX"] == [
        TagValue("POSIX", "/a"), TagValue("POSIX", "/b")]
    fs.close()
