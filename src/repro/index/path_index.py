"""POSIX path index: pathnames as just another kind of name.

"We support POSIX naming as a thin layer atop the native API.  A naming
operation on POSIX path P translates into a lookup on the tag/value pair
POSIX/P.  Note that a POSIX path is simply one name among many possible
names." (Section 3.1.1)

The store maps absolute, normalized paths to object ids.  Because hFAD does
not canonize any hierarchy, one object may carry any number of paths, and a
"directory" is nothing more than a shared path prefix — ``list_directory`` is
a prefix scan, not an on-disk structure.  The POSIX veneer built on top adds
the directory objects and permission checks real applications expect.

Key layout (one B+-tree)::

    P \x00 path            -> oid(8B)      (forward: path → object)
    R \x00 oid(8B) \x00 path -> b""        (reverse: object → its paths)
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

from repro.btree import BPlusTree, PageStore
from repro.errors import IndexStoreError
from repro.index.store import IndexStore
from repro.index.tags import TAG_POSIX, TagValue

_OID = struct.Struct(">Q")
_SEP = b"\x00"
_FORWARD = b"P"
_REVERSE = b"R"


def normalize_path(path: str) -> str:
    """Normalize to an absolute path with no trailing slash (except root)."""
    if not path:
        raise IndexStoreError("empty path")
    if not path.startswith("/"):
        path = "/" + path
    parts = [part for part in path.split("/") if part not in ("", ".")]
    resolved: List[str] = []
    for part in parts:
        if part == "..":
            if resolved:
                resolved.pop()
        else:
            resolved.append(part)
    return "/" + "/".join(resolved)


def parent_of(path: str) -> str:
    """Parent directory of a normalized path (parent of "/" is "/")."""
    path = normalize_path(path)
    if path == "/":
        return "/"
    return normalize_path(path.rsplit("/", 1)[0] or "/")


def basename_of(path: str) -> str:
    """Final component of a normalized path ("" for the root)."""
    path = normalize_path(path)
    if path == "/":
        return ""
    return path.rsplit("/", 1)[1]


class PosixPathIndexStore(IndexStore):
    """The index store serving the POSIX tag.

    A path names at most one object, so this store serves the streaming
    cursor protocol through the base class's materialized-fallback adapter —
    wrapping the zero-or-one-element ``lookup`` result costs nothing.
    """

    name = "posix-path"

    def __init__(self, store: Optional[PageStore] = None, max_keys: int = 64) -> None:
        self._tree = BPlusTree(store=store, max_keys=max_keys)

    def tags(self) -> Sequence[str]:
        return (TAG_POSIX,)

    # -------------------------------------------------------------- keys

    def _forward_key(self, path: str) -> bytes:
        return _FORWARD + _SEP + path.encode("utf-8")

    def _reverse_key(self, oid: int, path: str) -> bytes:
        return _REVERSE + _SEP + _OID.pack(oid) + _SEP + path.encode("utf-8")

    def _reverse_prefix(self, oid: int) -> bytes:
        return _REVERSE + _SEP + _OID.pack(oid) + _SEP

    # --------------------------------------------------------- interface

    def insert(self, tag: str, value: str, oid: int) -> None:
        self.link(value, oid)

    def remove(self, tag: str, value: str, oid: int) -> bool:
        path = normalize_path(value)
        existing = self.resolve(path)
        if existing != oid:
            return False
        self.unlink(path)
        return True

    def lookup(self, tag: str, value: str) -> List[int]:
        oid = self.resolve(value)
        return [oid] if oid is not None else []

    def remove_object(self, oid: int) -> int:
        paths = self.paths_for(oid)
        for path in paths:
            self.unlink(path)
        return len(paths)

    def values_for(self, oid: int) -> List[TagValue]:
        return [TagValue(tag=TAG_POSIX, value=path) for path in self.paths_for(oid)]

    # --------------------------------------------------------- path API

    def link(self, path: str, oid: int) -> None:
        """Bind ``path`` to ``oid`` (replacing any previous binding)."""
        path = normalize_path(path)
        previous = self.resolve(path)
        if previous is not None and previous != oid:
            self._tree.delete(self._reverse_key(previous, path))
        self._tree.put(self._forward_key(path), _OID.pack(oid))
        self._tree.put(self._reverse_key(oid, path), b"")

    def unlink(self, path: str) -> Optional[int]:
        """Remove ``path``; returns the object it named (None if unbound)."""
        path = normalize_path(path)
        oid = self.resolve(path)
        if oid is None:
            return None
        self._tree.delete(self._forward_key(path))
        self._tree.delete(self._reverse_key(oid, path))
        return oid

    def resolve(self, path: str) -> Optional[int]:
        """The object id bound to ``path``, or None."""
        raw = self._tree.get(self._forward_key(normalize_path(path)))
        return _OID.unpack(raw)[0] if raw is not None else None

    def exists(self, path: str) -> bool:
        return self.resolve(path) is not None

    def paths_for(self, oid: int) -> List[str]:
        """Every path naming ``oid`` (an object may have many names)."""
        prefix = self._reverse_prefix(oid)
        return [key[len(prefix):].decode("utf-8") for key, _ in self._tree.cursor(prefix=prefix)]

    def list_directory(self, path: str) -> List[str]:
        """Immediate children (names, not paths) of directory-prefix ``path``."""
        path = normalize_path(path)
        prefix = path if path.endswith("/") else path + "/"
        children = set()
        for key, _ in self._tree.cursor(prefix=self._forward_key(prefix)):
            remainder = key[len(self._forward_key(prefix)):].decode("utf-8")
            if not remainder:
                # The directory's own binding (only possible for "/").
                continue
            children.add(remainder.split("/", 1)[0])
        return sorted(children)

    def list_subtree(self, path: str) -> List[Tuple[str, int]]:
        """Every ``(path, oid)`` bound under ``path`` (inclusive), sorted."""
        path = normalize_path(path)
        results: List[Tuple[str, int]] = []
        own = self.resolve(path)
        if own is not None:
            results.append((path, own))
        prefix = path if path.endswith("/") else path + "/"
        for key, value in self._tree.cursor(prefix=self._forward_key(prefix)):
            bound_path = key[len(_FORWARD + _SEP):].decode("utf-8")
            results.append((bound_path, _OID.unpack(value)[0]))
        return results

    def subtree_moves(self, old_path: str, new_path: str) -> List[Tuple[str, str, int]]:
        """The ``(path, new path, oid)`` rebindings that renaming directory
        ``old_path`` to ``new_path`` makes, in :meth:`list_subtree` order."""
        old_path = normalize_path(old_path)
        new_path = normalize_path(new_path)
        if old_path == new_path:
            return []
        if new_path.startswith(old_path + "/"):
            raise IndexStoreError("cannot rename a directory beneath itself")
        return [(path, new_path + path[len(old_path):], oid)
                for path, oid in self.list_subtree(old_path)]

    def rename_subtree(self, old_path: str, new_path: str) -> int:
        """Rebind every path under ``old_path`` below ``new_path``.

        Returns the number of bindings moved.  This is the operation a POSIX
        ``rename`` of a populated directory turns into; in hFAD it is pure
        index manipulation — no object data moves.
        """
        moves = self.subtree_moves(old_path, new_path)
        for path, target, oid in moves:
            self.remove(TAG_POSIX, path, oid)
            self.link(target, oid)
        return len(moves)

    @property
    def path_count(self) -> int:
        """Total number of path bindings."""
        return sum(1 for _ in self._tree.cursor(prefix=_FORWARD + _SEP))
