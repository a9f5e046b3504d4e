"""Desktop search layered on top of a hierarchical file system.

This is the arrangement the paper's Section 2.3 dissects — Windows Desktop
Search / Spotlight style: a search index "built on top of files in the file
system".  Answering a query therefore traverses, at minimum:

1. the search index (term → pathname),
2. the hierarchical namespace (namei: one directory per path component),
3. the file's physical index (inode block-pointer tree) to reach the data.

:class:`DesktopSearchEngine` implements that stack over
:class:`~repro.hierarchical.ffs.FFSFileSystem` and reports how many index
traversals and device reads a search-and-open costs, so experiment E1 can put
it side by side with hFAD's native path (search index → object id → extent
btree → data).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.fulltext import Analyzer, PersistentInvertedIndex
from repro.hierarchical.ffs import FFSFileSystem


@dataclass
class SearchPathCost:
    """The cost breakdown of resolving one search hit to its data."""

    path: str
    index_traversals: int
    directory_lookups: int
    inode_reads: int
    pointer_block_reads: int
    data_block_reads: int
    device_reads: int

    @property
    def total_index_traversals(self) -> int:
        """Distinct index structures traversed (the paper counts four minimum)."""
        return self.index_traversals


class DesktopSearchEngine:
    """Crawls an FFS tree, indexes content, and resolves queries to file data."""

    def __init__(self, fs: FFSFileSystem, analyzer: Optional[Analyzer] = None) -> None:
        self.fs = fs
        self.index = PersistentInvertedIndex(analyzer=analyzer)
        # The index speaks in integer doc ids; map them to and from paths the
        # way a real desktop indexer stores file references.
        self._doc_to_path: Dict[int, str] = {}
        self._path_to_doc: Dict[str, int] = {}
        self._next_doc = 1
        self.files_indexed = 0

    # ------------------------------------------------------------ crawling

    def crawl(self, root: str = "/") -> int:
        """(Re)index every file under ``root``; returns the number indexed."""
        indexed = 0
        for path in self.fs.walk(root):
            self.index_file(path)
            indexed += 1
        return indexed

    def index_file(self, path: str) -> None:
        """Index (or re-index) a single file's contents."""
        content = self.fs.read(path)
        doc_id = self._path_to_doc.get(path)
        if doc_id is None:
            doc_id = self._next_doc
            self._next_doc += 1
            self._path_to_doc[path] = doc_id
            self._doc_to_path[doc_id] = path
            self.files_indexed += 1
        self.index.add_document(doc_id, content)

    def forget_file(self, path: str) -> bool:
        """Drop a file from the index (e.g. after unlink)."""
        doc_id = self._path_to_doc.pop(path, None)
        if doc_id is None:
            return False
        self._doc_to_path.pop(doc_id, None)
        self.index.remove_document(doc_id)
        return True

    # ------------------------------------------------------------ querying

    def search_paths(self, query: str) -> List[str]:
        """Pathnames whose content matches every term of ``query``."""
        return sorted(self._doc_to_path[doc_id] for doc_id in self.index.search(query))

    def search_and_read(self, query: str) -> Dict[str, bytes]:
        """Resolve a query all the way to file contents (index → path → data)."""
        results: Dict[str, bytes] = {}
        for path in self.search_paths(query):
            results[path] = self.fs.read(path)
        return results

    def measure_search_path(self, query: str) -> List[SearchPathCost]:
        """Cost of resolving each hit of ``query`` down to its data blocks.

        Counts the paper's index traversals explicitly: the search index is
        one; the namespace walk contributes one per path component; the
        inode's physical index is one more (plus its pointer-block reads).
        """
        costs: List[SearchPathCost] = []
        hit_paths = self.search_paths(query)
        for path in hit_paths:
            device_before = self.fs.device.stats.snapshot()
            ffs_before_components = self.fs.stats.path_components_traversed
            ffs_before_dir_lookups = self.fs.stats.directory_lookups
            inode_before = self.fs.inodes.stats.inode_reads
            pointer_before = self.fs.inodes.stats.pointer_block_reads
            data_before = self.fs.inodes.stats.data_block_reads
            self.fs.read(path)
            device_delta = self.fs.device.stats.delta(device_before)
            components = self.fs.stats.path_components_traversed - ffs_before_components
            costs.append(
                SearchPathCost(
                    path=path,
                    # search index + each namespace component + the file's
                    # physical (block-pointer) index
                    index_traversals=1 + components + 1,
                    directory_lookups=self.fs.stats.directory_lookups - ffs_before_dir_lookups,
                    inode_reads=self.fs.inodes.stats.inode_reads - inode_before,
                    pointer_block_reads=self.fs.inodes.stats.pointer_block_reads - pointer_before,
                    data_block_reads=self.fs.inodes.stats.data_block_reads - data_before,
                    device_reads=device_delta.reads,
                )
            )
        return costs

    @property
    def indexed_paths(self) -> List[str]:
        return sorted(self._path_to_doc)
