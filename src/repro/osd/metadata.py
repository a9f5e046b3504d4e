"""Per-object metadata.

Paper Section 3.3: "Each such container (object) has associated meta-data
identifying the object's security attributes, its last access and modified
times, and its size."  POSIX metadata (mode bits, owner) is stored here too,
because Section 3.4 notes that POSIX metadata "can easily be stored ... as a
unique key (or set of unique keys) for a file's btree" — we keep it in the
same metadata record, the value of the object's OID key in the master btree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict


@dataclass
class ObjectMetadata:
    """Metadata stored under the object's OID key in the master btree.

    Times are simulated-logical timestamps (monotonically increasing integers
    handed out by the object store) rather than wall-clock values, so tests
    and benchmarks are deterministic.
    """

    size: int = 0
    owner: str = "root"
    group: str = "root"
    mode: int = 0o644
    created_at: int = 0
    modified_at: int = 0
    accessed_at: int = 0
    #: free-form attributes (content type, application hints, ...).
    attributes: Dict[str, str] = field(default_factory=dict)

    def touch_modified(self, timestamp: int) -> None:
        """Record a content modification at logical time ``timestamp``."""
        self.modified_at = timestamp
        self.accessed_at = timestamp

    def touch_accessed(self, timestamp: int) -> None:
        """Record a read access at logical time ``timestamp``."""
        self.accessed_at = timestamp

    # -- serialization --------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Encode to a compact JSON blob (stable key order)."""
        payload = {
            "size": self.size,
            "owner": self.owner,
            "group": self.group,
            "mode": self.mode,
            "created_at": self.created_at,
            "modified_at": self.modified_at,
            "accessed_at": self.accessed_at,
            "attributes": self.attributes,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "ObjectMetadata":
        """Decode a blob produced by :meth:`to_bytes`."""
        payload = json.loads(data.decode("utf-8"))
        return cls(
            size=payload["size"],
            owner=payload["owner"],
            group=payload["group"],
            mode=payload["mode"],
            created_at=payload["created_at"],
            modified_at=payload["modified_at"],
            accessed_at=payload["accessed_at"],
            attributes=dict(payload.get("attributes", {})),
        )

    def copy(self) -> "ObjectMetadata":
        """Return an independent copy (attribute dict included)."""
        return ObjectMetadata.from_bytes(self.to_bytes())
