"""A rotten index leaf costs what it indexes, not the namespace.

A mount reserves the index trees' leaves from their parents' child lists
without reading them, and loads no index into memory, so rot in a posting
or image-feature leaf of a cleanly closed image does not fail the mount.
The damage surfaces where it belongs: a query that needs a posting leaf
degrades to an object-content rescan (accounted in ``stats()["integrity"]``),
one that needs an image leaf raises ``CorruptionError`` (histograms are not
derived from content, so there is nothing to rescan), and ``scrub()``
quarantines the page.
"""

import random

import pytest

from repro.core import HFADFileSystem
from repro.errors import CorruptionError
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


def rotten_image_leaf():
    """A closed image whose image-tree leaves hold 300 histograms, the
    rightmost of those leaves with one flipped bit."""
    device = BlockDevice(num_blocks=1 << 15)
    fs = HFADFileSystem(device=device)
    rng = random.Random(5)
    oids = []
    for serial in range(300):
        oid = fs.create(f"photo {serial} alpha".encode(), path=f"/p/{serial}.jpg")
        dominant = serial % 2  # red or orange, the two first colour runs
        fs.index_image(oid, [10.0 if bucket == dominant else rng.random()
                             for bucket in range(8)])
        oids.append(oid)
    fs.close()
    fs = HFADFileSystem.mount(device)
    leaf, node = rightmost_leaf(fs._image_tree)
    assert node.keys[-1].startswith(b"H\x00")  # the last oids' histograms
    red = fs.find(("IMAGE", "color:red"))
    fs.close()
    device.flip_bit(leaf, 2400)
    return device, oids, red, leaf


def test_a_rotten_image_leaf_fails_only_the_queries_that_read_it():
    device, oids, red, leaf = rotten_image_leaf()
    fs = HFADFileSystem.mount(device)  # reads no image leaf but the probe
    assert fs.find(("IMAGE", "color:red")) == red  # the colour run is whole
    with pytest.raises(CorruptionError, match=f"page {leaf}"):
        fs.find(("IMAGE", f"similar:{oids[0]}"))  # scores every histogram
    assert fs.search_text("alpha") == oids
    assert fs.list_objects() == oids
    fs.scrub()
    assert fs.fsck()["quarantined_pages"] == [leaf]
    fs.close()
