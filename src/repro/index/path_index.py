"""POSIX path helpers: pathnames as just another kind of name.

"We support POSIX naming as a thin layer atop the native API.  A naming
operation on POSIX path P translates into a lookup on the tag/value pair
POSIX/P.  Note that a POSIX path is simply one name among many possible
names." (Section 3.1.1)

So there is no path store: a path is a ``POSIX`` value in the key/value
store, spelled in the normal form :func:`normalize_path` gives it, and a
"directory" is nothing more than a shared value prefix — the facade's
``list_directory`` is a prefix scan, not an on-disk structure.
"""

from __future__ import annotations

from typing import List

from repro.errors import IndexStoreError


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
