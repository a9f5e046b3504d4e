"""A file-like handle over the hFAD access interfaces.

"The access interfaces support reading and writing as standard filesystems
do, but due to our implementation we can easily also support insertion and
removal operations" (Section 3.1.2).  Those calls are
:class:`~repro.core.filesystem.HFADFileSystem`'s ``read`` / ``write`` /
``insert`` / ``truncate``; :class:`ObjectHandle` wraps them in a file-like
object with a cursor for applications that prefer ``read()/write()/seek()``
ergonomics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import InvalidRangeError, ObjectStoreError

if TYPE_CHECKING:
    from repro.core.filesystem import HFADFileSystem


class ObjectHandle:
    """A file-like cursor over one object.

    The handle keeps a position; ``read``/``write``/``insert`` advance it.
    It exists for application convenience — the underlying interfaces are
    stateless and offset-addressed, as the paper specifies — and every call
    goes through the facade, so writes re-index like any other.
    """

    def __init__(self, fs: "HFADFileSystem", oid: int) -> None:
        self._fs = fs
        self.oid = oid
        self.position = 0
        self.closed = False

    # -- position management ---------------------------------------------------

    def _require_open(self) -> None:
        if self.closed:
            raise ObjectStoreError(f"handle for object {self.oid} is closed")

    def seek(self, offset: int, whence: int = 0) -> int:
        """Like ``io`` seek: whence 0=absolute, 1=relative, 2=from end."""
        self._require_open()
        if whence == 0:
            new_position = offset
        elif whence == 1:
            new_position = self.position + offset
        elif whence == 2:
            new_position = self._fs.size(self.oid) + offset
        else:
            raise InvalidRangeError(f"bad whence {whence}")
        if new_position < 0:
            raise InvalidRangeError("cannot seek before the start of the object")
        self.position = new_position
        return self.position

    def tell(self) -> int:
        return self.position

    # -- data ---------------------------------------------------------------

    def read(self, length: Optional[int] = None) -> bytes:
        self._require_open()
        data = self._fs.read(self.oid, self.position, length)
        self.position += len(data)
        return data

    def write(self, data: bytes) -> int:
        self._require_open()
        written = self._fs.write(self.oid, self.position, data)
        self.position += written
        return written

    def insert(self, data: bytes) -> int:
        self._require_open()
        inserted = self._fs.insert(self.oid, self.position, data)
        self.position += inserted
        return inserted

    def truncate_range(self, length: int) -> int:
        """Remove ``length`` bytes starting at the current position."""
        self._require_open()
        return self._fs.truncate(self.oid, self.position, length)

    def size(self) -> int:
        self._require_open()
        return self._fs.size(self.oid)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        self.closed = True

    def __enter__(self) -> "ObjectHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
