"""repro — a reproduction of "Hierarchical File Systems Are Dead" (HotOS'09).

The package implements hFAD — a file system whose namespace is a tagged,
search-based one — together with every substrate it needs (block device,
buddy allocator, journal, B+-tree, full-text engine), a POSIX compatibility
veneer, semantic-filesystem extensions, and the hierarchical FFS-style
baseline the paper argues against.

Most applications only need :class:`repro.core.HFADFileSystem`:

    from repro import HFADFileSystem

    with HFADFileSystem() as fs:
        oid = fs.create(b"hello", path="/docs/hello.txt",
                        owner="margo", annotations=["example"])
        fs.find(("USER", "margo"), ("UDEF", "example"))

See README.md for the architecture overview, DESIGN.md for the system
inventory and EXPERIMENTS.md for the experiment-by-experiment results.
"""

from repro.cache import BufferPool, GenerationMemo
from repro.core import HFADFileSystem
from repro.core.query import parse_query
from repro.recovery import CrashingBlockDevice, RecoveryManager, Superblock
from repro.index.tags import (
    TAG_APP,
    TAG_FULLTEXT,
    TAG_ID,
    TAG_IMAGE,
    TAG_POSIX,
    TAG_UDEF,
    TAG_USER,
    TagValue,
)

__version__ = "1.1.0"

__all__ = [
    "HFADFileSystem",
    "BufferPool",
    "GenerationMemo",
    "RecoveryManager",
    "Superblock",
    "CrashingBlockDevice",
    "TagValue",
    "parse_query",
    "TAG_POSIX",
    "TAG_FULLTEXT",
    "TAG_USER",
    "TAG_UDEF",
    "TAG_APP",
    "TAG_ID",
    "TAG_IMAGE",
    "__version__",
]
