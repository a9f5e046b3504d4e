"""A create writes each of its records once, and an engine read is no access.

``create`` hands the object store its content, its names and the
content-indexed flag together: the metadata record is written once, already
flagged, and every name entry goes into the master tree in one sorted
batch.  A POSIX path still displaces its previous holder.  The re-index that
follows a write reads the object for the engine, not for a caller, so it
leaves no access time to flush and the content memo untouched.
"""

import pytest

from repro.core import HFADFileSystem
from repro.osd.metadata import ObjectMetadata
from repro.storage import BlockDevice


@pytest.fixture
def fs():
    filesystem = HFADFileSystem()
    yield filesystem
    filesystem.close()


def spy_metadata_writes(fs):
    """Every metadata record the master tree is asked to write, as
    ``(key, value)``: a ``put``, or a key of an ``apply_sorted`` batch (the
    puts a batch falls back to are its own, not counted twice)."""
    master, written, batching = fs.objects._master, [], []
    put, apply_sorted = master.put, master.apply_sorted

    def is_metadata(key):
        return len(key) == 8 and not key.startswith(b"\xff")

    def spy_put(key, value):
        if is_metadata(key) and not batching:
            written.append((key, value))
        return put(key, value)

    def spy_apply_sorted(updates):
        updates = list(updates)
        written.extend((key, fn(None)) for key, fn in updates if is_metadata(key))
        batching.append(True)
        try:
            return apply_sorted(updates)
        finally:
            batching.pop()

    master.put, master.apply_sorted = spy_put, spy_apply_sorted
    return written


@pytest.mark.parametrize("content", [b"", b"small words here", b"chunked " * 400],
                         ids=["empty", "inline", "chunked"])
def test_create_writes_the_metadata_record_once_and_flagged(fs, content):
    written = spy_metadata_writes(fs)
    oid = fs.create(content, path="/docs/a", owner="ann", application="ed",
                    tags=[("UDEF", "x"), ("PLACE", "beach")], annotations=["note"])
    assert len(written) == 1
    record = ObjectMetadata.from_bytes(written[0][1])
    assert record.attributes["hfad.ci"] == "1"
    assert record.size == len(content)
    assert fs.objects.stat(oid).attributes["hfad.ci"] == "1"
    assert fs.read(oid) == content


def test_create_without_content_indexing_writes_no_flag(fs):
    written = spy_metadata_writes(fs)
    oid = fs.create(b"plain text", index_content=False, attributes={"color": "red"})
    assert len(written) == 1
    assert ObjectMetadata.from_bytes(written[0][1]).attributes == {"color": "red"}
    assert fs.search_text("plain") == []
    assert fs.stat(oid).attributes == {"color": "red"}


def test_batched_names_are_idempotent(fs):
    oid = fs.create(b"body", path="/a/./b", tags=[("UDEF", "x"), ("UDEF", "x"), ("POSIX", "/a/b")],
                    annotations=["x"])
    assert fs.objects.names(oid) == ["POSIX//a/b", "UDEF/x", "USER/root"]
    assert fs.find(("UDEF", "x")) == [oid]
    assert fs.lookup_path("/a/b") == oid


def test_a_created_path_displaces_its_previous_holder_across_a_remount():
    device = BlockDevice(num_blocks=1 << 14, block_size=512)
    fs = HFADFileSystem(device=device, journal_blocks=127, cache_pages=64)
    first = fs.create(b"old", path="/p", tags=[("UDEF", "keep")])
    second = fs.create(b"new", path="/p")
    for view in (fs, None):
        if view is None:
            fs.close()
            view = HFADFileSystem.mount(device)
        assert view.lookup_path("/p") == second
        assert view.paths_for(first) == []
        assert view.objects.names(first) == ["UDEF/keep", "USER/root"]
        assert view.objects.names(second) == ["POSIX//p", "USER/root"]
    view.close()


def test_reindexing_a_write_records_no_access(fs):
    oid = fs.create(b"hello world")
    misses = fs.content_cache.snapshot()["misses"]
    fs.append(oid, b" more")
    fs.write(oid, 0, b"HELLO")
    fs.enable_content_indexing(oid)
    assert fs.objects._pending_atime == {}
    assert fs.objects.flush_access_times() == 0
    assert fs.content_cache.snapshot()["misses"] == misses
    assert fs.search_text("more") == [oid]
    # A caller's read is still an access.
    assert fs.read(oid) == b"HELLO world more"
    assert oid in fs.objects._pending_atime
    assert fs.objects.flush_access_times() == 1


@pytest.mark.parametrize("content", [b"small words here", b"chunked " * 400],
                         ids=["inline", "chunked"])
def test_a_content_write_of_an_indexed_object_decodes_its_record_twice(fs, monkeypatch,
                                                                       content):
    # The append loads the record once for its size and its write; the
    # re-index decodes it once more for the content-indexed flag and hands
    # it to the engine's re-read.
    oid = fs.create(content)
    decoded, from_bytes = [], ObjectMetadata.from_bytes.__func__
    monkeypatch.setattr(ObjectMetadata, "from_bytes", classmethod(
        lambda cls, raw: decoded.append(raw) or from_bytes(cls, raw)))
    fs.append(oid, b" appended words")
    assert len(decoded) == 2
    assert fs.search_text("appended") == [oid] and fs.search_text("small chunked") == []
    decoded.clear()
    fs.write(oid, 0, b"rewritten ")
    assert len(decoded) == 2 and fs.search_text("rewritten") == [oid]
