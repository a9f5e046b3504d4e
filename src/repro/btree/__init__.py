"""B+-tree key/value store (Berkeley DB substitute).

The paper's implementation plan (Section 3.4) represents every hFAD object as
a Berkeley DB btree whose keys are file offsets and whose values are extent
descriptors, uses a NULL key for object metadata, and uses further btrees for
the OID→metadata map and all string indexes.  This package provides the
equivalent ordered key/value store:

* :class:`~repro.btree.btree.BPlusTree` — a page-oriented B+-tree with
  insert, lookup, delete (with full rebalancing), range cursors and
  first/last access.
* :class:`~repro.btree.pages.InMemoryPageStore` and
  :class:`~repro.btree.pages.DevicePageStore` — page backends; the device
  store persists nodes, one :data:`~repro.btree.pages.PAGE_BYTES` page each,
  through the buddy allocator onto the shared block device so benchmarks
  can charge btree traversals as real device I/O.
* :class:`~repro.btree.cursor.Cursor` — ordered iteration with prefix and
  range filters, the building block for directory-style listings and string
  indexes.

Keys and values are ``bytes``.  The NULL key used by the OSD for metadata is
simply the empty byte string, which sorts before every other key.
"""

from repro.btree.btree import BPlusTree
from repro.btree.cursor import Cursor
from repro.btree.pages import PAGE_BYTES, DevicePageStore, InMemoryPageStore, PageStore

__all__ = [
    "BPlusTree",
    "Cursor",
    "PageStore",
    "InMemoryPageStore",
    "DevicePageStore",
    "PAGE_BYTES",
]
