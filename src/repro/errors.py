"""Exception hierarchy shared by every hFAD subsystem.

All errors raised by the library derive from :class:`ReproError` so that
applications embedding hFAD can catch a single base class.  Subsystems define
more specific exceptions below; the POSIX compatibility layer additionally
maps these onto ``errno``-style failures (see ``repro.posix.vfs``).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro/hFAD library."""


# ---------------------------------------------------------------------------
# Storage substrate
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for errors raised by the storage substrate."""


class OutOfSpaceError(StorageError):
    """The block device or an allocator has no room for the request."""


class DeviceError(StorageError):
    """A block device rejected an I/O request (bad address, injected fault)."""


class TransientDeviceError(DeviceError):
    """A device I/O failed in a way that may succeed if retried.

    Models the recoverable half of real-disk behaviour (a sector read that
    succeeds on the second attempt, a cable glitch).  The integrity layer's
    bounded retry-with-backoff wrapper (``repro.integrity.retry``) retries
    exactly this class and nothing else."""


class CorruptionError(StorageError):
    """Stored bytes failed verification: bit rot, a torn write at rest.

    Unlike :class:`TransientDeviceError` this is a *hard* fault — retrying
    the read returns the same damaged bytes — so the retry wrapper never
    retries it.  Raised by the page-checksum layer on a CRC mismatch and by
    reads of quarantined pages; the scrubber repairs what it can from the
    buffer pool or the WAL tail and quarantines the rest."""


class AllocationError(StorageError):
    """An allocator was asked to free or split something it does not own."""


class JournalError(StorageError):
    """The write-ahead journal detected corruption or misuse."""


class JournalFullError(JournalError):
    """A transaction's records do not fit the journal region.

    A checkpoint between transactions empties the journal, so this is the
    sizing error of one transaction: it logged more than ``journal_blocks``
    can hold (see README "Durability" for what bounds a transaction)."""


class RecoveryError(StorageError):
    """Crash-recovery failed or the filesystem needs recovery to proceed.

    Raised when a superblock is missing/corrupt, when mounting detects an
    inconsistency fsck cannot repair, or when a WAL transaction aborted after
    logging page mutations (the in-memory state can no longer be trusted and
    the filesystem must be re-mounted to replay the committed log)."""


# ---------------------------------------------------------------------------
# Index structures
# ---------------------------------------------------------------------------


class BTreeError(ReproError):
    """Base class for B+-tree failures."""


class KeyNotFoundError(BTreeError, KeyError):
    """A lookup or delete referenced a key that is not present."""


class FullTextError(ReproError):
    """Base class for full-text engine failures."""


class IndexStoreError(ReproError):
    """Base class for index-store layer failures."""


class UnknownTagError(IndexStoreError):
    """A naming operation used a tag with no registered index store."""


class DuplicateIndexError(IndexStoreError):
    """Two index stores were registered for the same tag."""


# ---------------------------------------------------------------------------
# Cache subsystem
# ---------------------------------------------------------------------------


class CacheError(ReproError):
    """Base class for buffer-pool / query-cache failures."""


class AllPagesPinnedError(CacheError):
    """The buffer pool needed a victim but every resident page is pinned."""


# ---------------------------------------------------------------------------
# OSD / objects
# ---------------------------------------------------------------------------


class ObjectStoreError(ReproError):
    """Base class for OSD-layer failures."""


class NoSuchObjectError(ObjectStoreError, KeyError):
    """An object ID does not name a live object."""


class InvalidRangeError(ObjectStoreError, ValueError):
    """A byte range (offset/length) is outside the object or negative."""


# ---------------------------------------------------------------------------
# Naming / core API
# ---------------------------------------------------------------------------


class NamingError(ReproError):
    """Base class for naming-interface failures."""


class NoMatchError(NamingError, LookupError):
    """A naming operation matched no objects."""


class QueryError(NamingError):
    """A query expression was malformed or referenced unknown tags."""


# ---------------------------------------------------------------------------
# POSIX veneer and hierarchical baseline
# ---------------------------------------------------------------------------


class PosixError(ReproError):
    """Base class for POSIX-veneer failures; carries an errno-like code."""

    #: symbolic errno name, e.g. ``"ENOENT"``; subclasses override.
    errno_name = "EIO"


class FileNotFound(PosixError, FileNotFoundError):
    errno_name = "ENOENT"


class FileExists(PosixError, FileExistsError):
    errno_name = "EEXIST"


class NotADirectory(PosixError, NotADirectoryError):
    errno_name = "ENOTDIR"


class IsADirectory(PosixError, IsADirectoryError):
    errno_name = "EISDIR"


class DirectoryNotEmpty(PosixError, OSError):
    errno_name = "ENOTEMPTY"


class BadFileDescriptor(PosixError, OSError):
    errno_name = "EBADF"


class PermissionDenied(PosixError, PermissionError):
    errno_name = "EACCES"


class InvalidArgument(PosixError, ValueError):
    errno_name = "EINVAL"


# -- serving (repro.serve) ---------------------------------------------------


class ServeError(ReproError):
    """Base error of the serving layer."""


class ProtocolError(ServeError):
    """Malformed or oversized frame on a serving connection."""


class RequestError(ServeError):
    """A request the server rejected (unknown op, bad arguments, shed)."""

    def __init__(self, message: str, code: str = "error") -> None:
        super().__init__(message)
        self.code = code
