"""The hFAD index-store layer.

"Internally hFAD requires an indexing infrastructure that supports its novel,
search-based API.  The indexing structure contains an extensible collection
of indices facilitating multiple naming modes and types of search."
(paper, Section 3).

* :mod:`repro.index.tags` — the tag vocabulary of Table 1 (POSIX, FULLTEXT,
  USER, UDEF, APP, ID) plus support for arbitrary application-defined tags.
* :mod:`repro.index.store` — the :class:`IndexStore` interface and the
  :class:`IndexStoreRegistry` that routes each tag to the store serving it;
  the registry *is* the plug-in model the paper's first open question asks
  about.
* :mod:`repro.index.keyvalue_index` — a btree-backed store for simple
  attribute tags (USER, UDEF, APP, and anything applications invent).
* :mod:`repro.index.path_index` — the POSIX path index: full pathname →
  object, plus the directory-listing and rename-subtree operations the POSIX
  veneer needs; an object may carry many paths ("a data item may have many
  names, all equally useful").
* :mod:`repro.index.fulltext_index` — the FULLTEXT store wrapping the
  inverted index.
* :mod:`repro.index.image_index` — an example of an "arbitrary index type"
  (Section 3.2 mentions indices on images): indexes colour-histogram feature
  vectors and answers dominant-colour and similarity queries.
"""

from repro.index.tags import (
    TAG_APP,
    TAG_FULLTEXT,
    TAG_ID,
    TAG_IMAGE,
    TAG_POSIX,
    TAG_UDEF,
    TAG_USER,
    WELL_KNOWN_TAGS,
    TagValue,
)
from repro.index.store import IndexStore, IndexStoreRegistry
from repro.index.keyvalue_index import KeyValueIndexStore, PrefixOidCursor
from repro.index.path_index import PosixPathIndexStore
from repro.index.fulltext_index import FullTextIndexStore
from repro.index.image_index import ImageIndexStore
from repro.index.persistent import PersistentImageIndexStore

__all__ = [
    "TAG_POSIX",
    "TAG_FULLTEXT",
    "TAG_USER",
    "TAG_UDEF",
    "TAG_APP",
    "TAG_ID",
    "TAG_IMAGE",
    "WELL_KNOWN_TAGS",
    "TagValue",
    "IndexStore",
    "IndexStoreRegistry",
    "KeyValueIndexStore",
    "PrefixOidCursor",
    "PosixPathIndexStore",
    "FullTextIndexStore",
    "ImageIndexStore",
    "PersistentImageIndexStore",
]
