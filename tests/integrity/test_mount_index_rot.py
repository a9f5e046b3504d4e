"""A rotten full-text leaf costs its postings, not the namespace.

A mount reserves the index trees' leaves from their parents' child lists
without reading them, so rot in a posting leaf of a cleanly closed image no
longer fails the mount.  The damage surfaces where it belongs: a query that
needs the leaf degrades to an object-content rescan (accounted in
``stats()["integrity"]``), and ``scrub()`` quarantines the page.
"""

from repro.core import HFADFileSystem
from repro.storage import BlockDevice

DOCUMENTS = 200


def rightmost_leaf(tree):
    page_id, node = tree.root_id, tree.store.read(tree.root_id)
    while not node.is_leaf:
        page_id = node.children[-1]
        node = tree.store.read(page_id)
    return page_id, node


def rotten_image():
    """A closed image whose rightmost full-text leaf — the postings of
    ``zulu``, a word of every document — has one flipped bit."""
    device = BlockDevice(num_blocks=1 << 15)
    fs = HFADFileSystem(device=device)
    oids = [fs.create(f"alpha bravo doc{i} zulu".encode(), path=f"/r/{i}.txt")
            for i in range(DOCUMENTS)]
    fs.close()
    fs = HFADFileSystem.mount(device)
    leaf, node = rightmost_leaf(fs._fulltext_tree)
    assert node.keys[-1] == b"T\x00zulu\x01"  # zulu's statistics live there
    fs.close()
    device.flip_bit(leaf, 2400)
    return device, oids, leaf


def test_a_query_needing_the_rotten_leaf_degrades_with_accounting():
    device, oids, _leaf = rotten_image()
    fs = HFADFileSystem.mount(device)  # raised CorruptionError before
    before = fs.stats()["integrity"]
    assert fs.search_text("zulu") == oids  # correct, from the content rescan
    after = fs.stats()["integrity"]
    assert after["checksum_failures"] == before["checksum_failures"] + 1
    assert after["degraded_queries"] == before["degraded_queries"] + 1
    assert after["partial_results"] == before["partial_results"]
    assert fs.search_text("alpha") == oids
    assert fs.list_objects() == oids
    fs.close()


def test_scrub_quarantines_exactly_the_rotten_leaf():
    device, oids, leaf = rotten_image()
    fs = HFADFileSystem.mount(device)
    report = fs.scrub()
    assert report.quarantined == 1
    assert fs.fsck()["quarantined_pages"] == [leaf]
    assert fs.search_text("zulu") == oids
    assert fs.stats()["integrity"]["degraded_queries"] >= 1
    fs.close()
