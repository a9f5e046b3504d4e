"""The POSIX VFS: hierarchical calls translated onto the tagged namespace.

Every operation here is "a thin layer atop the native API" (Section 3.1.1):

* path resolution is a single POSIX-tag lookup — not a component-by-component
  directory walk (that difference is what experiment E1/E8 measures);
* directories are ordinary objects whose metadata marks them as directories;
  their "contents" are whatever paths share their prefix, so listing is an
  index range scan;
* ``rename`` of a populated directory is a re-keying of path bindings, and a
  hard ``link`` is just an additional POSIX name for the same object — both
  fall out of "a data item may have many names".

Errors are raised as the ``repro.errors`` POSIX exception classes
(:class:`FileNotFound`, :class:`FileExists`, ...) which carry errno-style
names so the FUSE dispatcher can translate them the way a real FUSE handler
returns ``-ENOENT``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.filesystem import HFADFileSystem
from repro.errors import (
    BadFileDescriptor,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
)
from repro.index.path_index import normalize_path, parent_of

#: open(2)-style flags (values mirror the common Linux ones).
O_RDONLY = 0x0
O_WRONLY = 0x1
O_RDWR = 0x2
O_CREAT = 0x40
O_EXCL = 0x80
O_TRUNC = 0x200
O_APPEND = 0x400

_DIRECTORY_ATTRIBUTE = "posix.directory"


@dataclass
class StatResult:
    """A stat(2)-shaped view of an object's metadata."""

    oid: int
    size: int
    mode: int
    owner: str
    group: str
    is_directory: bool
    created_at: int
    modified_at: int
    accessed_at: int
    nlink: int


@dataclass
class DirEntry:
    """One readdir entry."""

    name: str
    oid: int
    is_directory: bool


@dataclass
class FileDescriptor:
    """An open-file handle in the descriptor table."""

    fd: int
    oid: int
    path: str
    flags: int
    position: int = 0

    @property
    def writable(self) -> bool:
        return bool(self.flags & (O_WRONLY | O_RDWR))

    @property
    def readable(self) -> bool:
        return not (self.flags & O_WRONLY)


class PosixVFS:
    """POSIX file-system calls implemented over :class:`HFADFileSystem`."""

    def __init__(self, fs: Optional[HFADFileSystem] = None, root_owner: str = "root") -> None:
        self.fs = fs if fs is not None else HFADFileSystem()
        self._descriptors: Dict[int, FileDescriptor] = {}
        self._next_fd = 3  # 0-2 reserved, as tradition demands
        # The root directory always exists.
        if self.fs.lookup_path("/") is None:
            root_oid = self.fs.create(
                b"", owner=root_owner, index_content=False,
                attributes={_DIRECTORY_ATTRIBUTE: "1"}, path="/",
            )
            self.fs.objects.chmod(root_oid, 0o755)

    # ------------------------------------------------------------------
    # resolution helpers
    # ------------------------------------------------------------------

    def _resolve(self, path: str) -> int:
        oid = self.fs.lookup_path(path)
        if oid is None:
            self._check_ancestors(path)
            raise FileNotFound(path)
        return oid

    def _is_directory(self, oid: int) -> bool:
        return self.fs.stat(oid).attributes.get(_DIRECTORY_ATTRIBUTE) == "1"

    def _check_ancestors(self, path: str) -> None:
        """Raise ENOTDIR if any existing strict ancestor of ``path`` is a file.

        This mirrors the component-by-component namei of a hierarchical file
        system: ``/file/below`` fails with ENOTDIR, not ENOENT.
        """
        current = parent_of(normalize_path(path))
        while True:
            ancestor_oid = self.fs.lookup_path(current)
            if ancestor_oid is not None:
                if not self._is_directory(ancestor_oid):
                    raise NotADirectory(current)
                return
            if current == "/":
                return
            current = parent_of(current)

    def _require_parent_directory(self, path: str) -> int:
        parent = parent_of(path)
        parent_oid = self.fs.lookup_path(parent)
        if parent_oid is None:
            self._check_ancestors(parent)
            raise FileNotFound(f"parent directory {parent} of {path}")
        if not self._is_directory(parent_oid):
            raise NotADirectory(parent)
        return parent_oid

    def _descriptor(self, fd: int) -> FileDescriptor:
        descriptor = self._descriptors.get(fd)
        if descriptor is None:
            raise BadFileDescriptor(fd)
        return descriptor

    # ------------------------------------------------------------------
    # files
    # ------------------------------------------------------------------

    def open(self, path: str, flags: int = O_RDONLY, mode: int = 0o644, owner: str = "root") -> int:
        """open(2): returns a file descriptor."""
        path = normalize_path(path)
        oid = self.fs.lookup_path(path)
        if oid is None:
            if not flags & O_CREAT:
                self._check_ancestors(path)
                raise FileNotFound(path)
            self._require_parent_directory(path)
            oid = self.fs.create(b"", owner=owner, index_content=True, path=path)
            self.fs.objects.chmod(oid, mode)
        else:
            if flags & O_CREAT and flags & O_EXCL:
                raise FileExists(path)
            if self._is_directory(oid) and flags & (O_WRONLY | O_RDWR):
                raise IsADirectory(path)
            if flags & O_TRUNC and flags & (O_WRONLY | O_RDWR):
                size = self.fs.size(oid)
                if size:
                    self.fs.truncate(oid, 0, size)
        descriptor = FileDescriptor(fd=self._next_fd, oid=oid, path=path, flags=flags)
        if flags & O_APPEND:
            descriptor.position = self.fs.size(oid)
        self._descriptors[self._next_fd] = descriptor
        self._next_fd += 1
        return descriptor.fd

    def creat(self, path: str, mode: int = 0o644, owner: str = "root") -> int:
        """creat(2) == open(O_CREAT | O_WRONLY | O_TRUNC)."""
        return self.open(path, O_CREAT | O_WRONLY | O_TRUNC, mode=mode, owner=owner)

    def close(self, fd: int) -> None:
        self._descriptor(fd)
        del self._descriptors[fd]

    def read(self, fd: int, size: Optional[int] = None) -> bytes:
        descriptor = self._descriptor(fd)
        if not descriptor.readable:
            raise InvalidArgument(f"fd {fd} is write-only")
        if self._is_directory(descriptor.oid):
            raise IsADirectory(descriptor.path)
        data = self.fs.read(descriptor.oid, descriptor.position, size)
        descriptor.position += len(data)
        return data

    def write(self, fd: int, data: bytes) -> int:
        descriptor = self._descriptor(fd)
        if not descriptor.writable:
            raise InvalidArgument(f"fd {fd} is read-only")
        if descriptor.flags & O_APPEND:
            descriptor.position = self.fs.size(descriptor.oid)
        written = self.fs.write(descriptor.oid, descriptor.position, data)
        descriptor.position += written
        return written

    def pread(self, fd: int, size: int, offset: int) -> bytes:
        descriptor = self._descriptor(fd)
        if not descriptor.readable:
            raise InvalidArgument(f"fd {fd} is write-only")
        if self._is_directory(descriptor.oid):
            raise IsADirectory(descriptor.path)
        return self.fs.read(descriptor.oid, offset, size)

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        descriptor = self._descriptor(fd)
        if not descriptor.writable:
            raise InvalidArgument(f"fd {fd} is read-only")
        return self.fs.write(descriptor.oid, offset, data)

    def lseek(self, fd: int, offset: int, whence: int = 0) -> int:
        descriptor = self._descriptor(fd)
        if whence == 0:
            new_position = offset
        elif whence == 1:
            new_position = descriptor.position + offset
        elif whence == 2:
            new_position = self.fs.size(descriptor.oid) + offset
        else:
            raise InvalidArgument(f"bad whence {whence}")
        if new_position < 0:
            raise InvalidArgument("seek before start of file")
        descriptor.position = new_position
        return new_position

    def ftruncate(self, fd: int, length: int) -> None:
        descriptor = self._descriptor(fd)
        if not descriptor.writable:
            raise InvalidArgument(f"fd {fd} is read-only")
        self.fs.resize(descriptor.oid, length)

    def truncate(self, path: str, length: int) -> None:
        oid = self._resolve(path)
        if self._is_directory(oid):
            raise IsADirectory(path)
        self.fs.resize(oid, length)

    def fstat(self, fd: int) -> StatResult:
        return self._stat_oid(self._descriptor(fd).oid)

    def unlink(self, path: str) -> None:
        """Remove a path name; the object dies with its last name."""
        path = normalize_path(path)
        oid = self._resolve(path)
        if self._is_directory(oid):
            raise IsADirectory(path)
        self.fs.unlink_path(path)
        if not self.fs.paths_for(oid):
            self.fs.delete(oid)

    def link(self, existing: str, new: str) -> None:
        """Hard link: one more POSIX name for the same object."""
        oid = self._resolve(existing)
        if self._is_directory(oid):
            raise IsADirectory(existing)
        new = normalize_path(new)
        if self.fs.lookup_path(new) is not None:
            raise FileExists(new)
        self._require_parent_directory(new)
        self.fs.link_path(new, oid)

    def rename(self, old: str, new: str) -> None:
        """rename(2) for files and whole directory subtrees."""
        old = normalize_path(old)
        new = normalize_path(new)
        oid = self._resolve(old)
        if self._is_directory(oid) and new.startswith(old + "/"):
            raise InvalidArgument(f"cannot move {old} into its own subtree")
        self._require_parent_directory(new)
        existing = self.fs.lookup_path(new)
        if existing == oid:
            # POSIX: if old and new are links to the same file, do nothing.
            return
        if existing is not None and existing != oid:
            if self._is_directory(existing):
                if self.fs.list_directory(new):
                    raise DirectoryNotEmpty(new)
                self.fs.unlink_path(new)
                self.fs.delete(existing)
            else:
                self.unlink(new)
        if self._is_directory(oid):
            # Route through the filesystem so the durable name entries move
            # with the in-memory bindings (and POSIX queries invalidate).
            self.fs.rename_path_subtree(old, new)
        else:
            self.fs.rename_path(old, new)

    # ------------------------------------------------------------------
    # directories
    # ------------------------------------------------------------------

    def mkdir(self, path: str, mode: int = 0o755, owner: str = "root") -> int:
        path = normalize_path(path)
        if self.fs.lookup_path(path) is not None:
            raise FileExists(path)
        self._require_parent_directory(path)
        oid = self.fs.create(
            b"", owner=owner, index_content=False,
            attributes={_DIRECTORY_ATTRIBUTE: "1"}, path=path,
        )
        self.fs.objects.chmod(oid, mode)
        return oid

    def makedirs(self, path: str, mode: int = 0o755, owner: str = "root") -> None:
        """mkdir -p."""
        path = normalize_path(path)
        components = [part for part in path.split("/") if part]
        current = ""
        for part in components:
            current += "/" + part
            if self.fs.lookup_path(current) is None:
                self.mkdir(current, mode=mode, owner=owner)

    def rmdir(self, path: str) -> None:
        path = normalize_path(path)
        oid = self._resolve(path)
        if not self._is_directory(oid):
            raise NotADirectory(path)
        if path == "/":
            raise InvalidArgument("cannot remove the root directory")
        if self.fs.list_directory(path):
            raise DirectoryNotEmpty(path)
        self.fs.unlink_path(path)
        self.fs.delete(oid)

    def readdir(self, path: str) -> List[DirEntry]:
        path = normalize_path(path)
        entries: List[DirEntry] = []
        # One read view for the listing and every child's lookup: a child
        # unlinked in between would otherwise read as an intermediate
        # directory, or vanish under its stat.
        with self.fs.read_view():
            oid = self._resolve(path)
            if not self._is_directory(oid):
                raise NotADirectory(path)
            for name in self.fs.list_directory(path):
                child_path = path.rstrip("/") + "/" + name
                child_oid = self.fs.lookup_path(child_path)
                if child_oid is None:
                    # An intermediate component with no object of its own
                    # (created by binding a deeper path directly); report it
                    # as a directory.
                    entries.append(DirEntry(name=name, oid=-1, is_directory=True))
                else:
                    entries.append(DirEntry(name=name, oid=child_oid,
                                            is_directory=self._is_directory(child_oid)))
        return entries

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------

    def _stat_oid(self, oid: int) -> StatResult:
        metadata = self.fs.stat(oid)
        return StatResult(
            oid=oid,
            size=metadata.size,
            mode=metadata.mode,
            owner=metadata.owner,
            group=metadata.group,
            is_directory=metadata.attributes.get(_DIRECTORY_ATTRIBUTE) == "1",
            created_at=metadata.created_at,
            modified_at=metadata.modified_at,
            accessed_at=metadata.accessed_at,
            nlink=max(1, len(self.fs.paths_for(oid))),
        )

    def stat(self, path: str) -> StatResult:
        return self._stat_oid(self._resolve(path))

    def exists(self, path: str) -> bool:
        return self.fs.lookup_path(path) is not None

    def chmod(self, path: str, mode: int) -> None:
        self.fs.objects.chmod(self._resolve(path), mode)

    def chown(self, path: str, owner: str, group: Optional[str] = None) -> None:
        self.fs.objects.chown(self._resolve(path), owner, group)

    # ------------------------------------------------------------------
    # convenience (exercised by examples and benchmarks)
    # ------------------------------------------------------------------

    def write_file(self, path: str, data: bytes, owner: str = "root") -> int:
        """Create/overwrite a whole file in one call; returns its object id."""
        fd = self.open(path, O_CREAT | O_WRONLY | O_TRUNC, owner=owner)
        try:
            self.write(fd, data)
            return self._descriptor(fd).oid
        finally:
            self.close(fd)

    def read_file(self, path: str) -> bytes:
        """Read a whole file by path."""
        fd = self.open(path, O_RDONLY)
        try:
            return self.read(fd)
        finally:
            self.close(fd)

    def walk(self, path: str = "/") -> List[str]:
        """Every bound path under ``path`` (depth-first by key order)."""
        return [bound for bound, _oid in self.fs.list_subtree(path)]

    @property
    def open_descriptors(self) -> int:
        return len(self._descriptors)
