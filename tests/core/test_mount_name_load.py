"""A mount loads the name index in one bottom-up build, not one insert per name.

The loaded key/value tree must hold exactly the keys per-name ``insert``
gives for the same durable names, across the spellings whose key order
differs from the name entries' order (a tag that prefixes another, a tag
sorting before ``/``, values with ``/`` or non-ASCII text, oids whose
8 bytes hold NULs past a non-NUL one).  And the load is checked by count:
the index's page store saw one write per live node plus the empty root's.
"""

import pytest

from repro.core import HFADFileSystem
from repro.errors import RecoveryError
from repro.index import KeyValueIndexStore, TagValue
from repro.index.tags import TAG_FULLTEXT, TAG_IMAGE, TAG_POSIX
from repro.storage import BlockDevice

NAMES = [
    ("PLACE", "beach"), ("PLACES", "beach"), ("PL", "x"), ("PL-", "x"),
    ("UDEF", "a/b/c"), ("UDEF", "café"), ("MOOD", "日本語"), ("UDEF", ""),
]


def make_fs():
    device = BlockDevice(num_blocks=1 << 14, block_size=512)
    return device, HFADFileSystem(device=device, journal_blocks=127, cache_pages=64)


def clone(device):
    image = BlockDevice(num_blocks=device.num_blocks, block_size=device.block_size)
    image.load(device.dump())
    return image


def populate(fs):
    oids = [fs.create(b"small oid", path="/a/b", tags=NAMES[:4])]
    # 2**32 + 7 packs as 00 00 00 01 00 00 00 07: NULs inside the oid.
    fs.objects._next_oid = (1 << 32) + 7
    for number, (tag, value) in enumerate(NAMES):
        oid = fs.create(f"document {number}".encode(), path=f"/ü/{number}")
        fs.tag(oid, tag, value)
        fs.link_path(f"/ü/{number}/链接", oid)
        oids.append(oid)
    fs.tag(oids[1], "PLACE", "beach")
    fs.index_image(oids[2], [1.0] + [0.0] * 7)
    return oids


def inserted_one_by_one(fs):
    """The keys per-name ``insert`` gives for the engine's durable names."""
    store = KeyValueIndexStore(tags=fs.keyvalue_index.tags())
    for oid in fs.list_objects():
        for name in fs.objects.names(oid):
            pair = TagValue.parse(name)
            if pair.tag not in (TAG_FULLTEXT, TAG_IMAGE):
                store.insert(pair.tag, pair.value, oid)
    return list(store._tree.keys())


def loaded_keys(fs):
    return list(fs.keyvalue_index._tree.keys())


@pytest.mark.parametrize("crash", [True, False], ids=["replayed", "clean"])
def test_the_loaded_index_holds_what_per_name_inserts_give(crash):
    device, fs = make_fs()
    oids = populate(fs)
    live = loaded_keys(fs)
    if not crash:
        fs.close()
    mounted = HFADFileSystem.mount(clone(device))
    assert loaded_keys(mounted) == inserted_one_by_one(mounted) == live
    mounted.keyvalue_index._tree.check_invariants()
    assert max(oids) > 1 << 32
    assert mounted.find(("PL", "x")) == [oids[0], oids[3]]
    assert mounted.find(("PL-", "x")) == [oids[0], oids[4]]
    assert mounted.find(("UDEF", "a/b/c")) == [oids[5]]
    assert mounted.find(("MOOD", "日本語")) == [oids[7]]
    assert mounted.lookup_path("/ü/6/链接") == oids[7]
    assert mounted.list_directory("/ü/1") == ["链接"]


def test_the_mount_makes_no_per_name_put():
    device, fs = make_fs()
    populate(fs)
    fs.close()
    mounted = HFADFileSystem.mount(clone(device))
    store = mounted.keyvalue_index._tree.store
    # Every live node written once, and the constructor's empty root.
    assert store.writes == store.live_pages + 1
    assert mounted.keyvalue_index._tree.depth() > 1


def test_the_load_is_counted_as_the_inserts_were():
    device, fs = make_fs()
    populate(fs)
    fs.close()
    mounted = HFADFileSystem.mount(clone(device))
    entries = mounted.keyvalue_index.entry_count
    assert mounted.naming.stats.names_added == entries
    assert mounted.registry.stats.inserts == entries
    tags = {pair.tag for oid in mounted.list_objects()
            for pair in mounted.keyvalue_index.values_for(oid)}
    assert {TAG_POSIX, "PL-", "MOOD"} <= tags
    assert {tag: mounted.registry.generation(tag) for tag in tags} == dict.fromkeys(tags, 1)
    assert mounted.registry.generation(TAG_IMAGE) == 0


def test_a_tag_routed_away_from_the_key_value_store_is_refused(monkeypatch):
    device, fs = make_fs()
    populate(fs)
    fs.close()
    settle = HFADFileSystem._settle

    def claim_place_then_settle(self):
        # What a store claiming PLACE before the load would do.
        self.registry.register(KeyValueIndexStore(tags=["PLACE"]))
        return settle(self)

    monkeypatch.setattr(HFADFileSystem, "_settle", claim_place_then_settle)
    with pytest.raises(RecoveryError, match="PLACE"):
        HFADFileSystem.mount(clone(device))
