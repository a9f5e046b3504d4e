"""Per-page CRC32 checksum frames — the self-verifying page format.

Every btree page written by a :class:`DevicePageStore` is wrapped
in a small frame before it reaches the WAL or the device::

    MAGIC ("HFPG") | length | crc32(length_be32 + payload) | payload

The CRC covers the length field and the payload, so bit rot anywhere in the
stored node — or a torn multi-block write that mixes old and new page halves
— fails verification instead of decoding into a plausible-but-wrong node.
The frame travels *inside* the WAL too: ``log_page`` records framed bytes,
so mount-time replay rewrites exactly what a healthy write-back would have,
and the scrubber can repair a rotten home location straight from the log
when the log holds the page's image (not a delta against that home).  The
journal verifies a home's frame too before it takes a delta against it.

The superblock's ``checksum_pages`` field is the format's version stamp:
``1`` is this frame, and a device stamped otherwise is refused at mount.
"""

from __future__ import annotations

import struct
import zlib

from repro.errors import CorruptionError

#: frame magic: distinguishes a framed page from raw node bytes.
FRAME_MAGIC = b"HFPG"

_FRAME = struct.Struct(">4sII")  # magic | payload length | crc32

#: bytes the frame adds in front of the node payload; a checksummed page
#: store's usable ``page_bytes`` shrinks by exactly this much.
FRAME_OVERHEAD = _FRAME.size

_LEN = struct.Struct(">I")


def _crc(length: int, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(_LEN.pack(length))) & 0xFFFFFFFF


def frame_page(payload: bytes) -> bytes:
    """Wrap encoded node bytes in a checksum frame."""
    return _FRAME.pack(FRAME_MAGIC, len(payload), _crc(len(payload), payload)) + payload


def verify_frame(raw: bytes, context: str = "page") -> bytes:
    """Verify a framed page and return the node payload.

    Raises :class:`~repro.errors.CorruptionError` on a bad magic, an
    impossible length or a CRC mismatch — anything but a byte-exact frame.
    """
    if len(raw) < FRAME_OVERHEAD:
        raise CorruptionError(f"{context}: too short to hold a checksum frame")
    magic, length, crc = _FRAME.unpack_from(raw, 0)
    if magic != FRAME_MAGIC:
        raise CorruptionError(f"{context}: bad page magic (bit rot or torn write)")
    end = FRAME_OVERHEAD + length
    if end > len(raw):
        raise CorruptionError(f"{context}: frame length {length} exceeds the page")
    payload = raw[FRAME_OVERHEAD:end]
    if _crc(length, payload) != crc:
        raise CorruptionError(f"{context}: page checksum mismatch")
    return payload


def frame_is_valid(raw: bytes) -> bool:
    """True when ``raw`` starts with a byte-exact checksum frame."""
    try:
        verify_frame(raw)
    except CorruptionError:
        return False
    return True
