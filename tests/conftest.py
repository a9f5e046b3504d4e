"""Fixtures shared across the test tree."""

import struct

import pytest

_EXTENT_PREFIX = b"\xffE"


@pytest.fixture
def extent_leaf():
    """``extent_leaf(fs, oid) -> (page_id, oids)``: the master-tree leaf that
    holds ``oid``'s extent run, and every oid with extents in that leaf.

    An object's extents are the master-tree keys ``\\xffE | oid | D | offset``,
    so a fault aimed at an object's extent map is aimed at this page.
    """

    def find(fs, oid):
        master = fs.objects._master
        prefix = _EXTENT_PREFIX + struct.pack(">Q", oid)
        first = master.cursor(prefix=prefix).first()
        assert first is not None, f"object {oid} has no extents"
        page_id, leaf = master._find_leaf(first[0])
        assert all(key in leaf.keys for key, _ in master.cursor(prefix=prefix)), (
            f"object {oid}'s extent run spans leaves"
        )
        oids = {
            struct.unpack_from(">Q", key, len(_EXTENT_PREFIX))[0]
            for key in leaf.keys
            if key.startswith(_EXTENT_PREFIX)
        }
        return page_id, oids

    return find
